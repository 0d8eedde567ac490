//! A Dalvik-style register-machine bytecode substrate.
//!
//! The real BombDroid operates on Android DEX bytecode via apktool, dex2jar,
//! Javassist and Soot. None of those exist for this reproduction, so this
//! crate provides the equivalent substrate: a compact register-based IR with
//! classes, fields, methods, equality-checking conditional branches (the
//! analogues of `IFEQ`, `IFNE`, `IF_ICMPEQ`, `IF_ICMPNE`, `TABLESWITCH` the
//! paper scans for in §7.2), string comparison operations (`equals`,
//! `startsWith`, `endsWith` — §3.3), host-API calls into the Android
//! framework shims, and two instructions at the heart of the paper's
//! contribution:
//!
//! * [`Instr::Hash`] — computes the salted SHA-1 of a register, used to
//!   rewrite `X == c` into `Hash(X|salt) == Hc`;
//! * [`Instr::DecryptExec`] — derives `key = KDF(X|salt)`, opens an
//!   [`EncryptedBlob`] embedded in the DEX, and executes the decrypted code
//!   fragment inline (the analogue of writing a `.dex` file and loading it
//!   through ART's dynamic class loading, §7.5).
//!
//! The crate also provides:
//!
//! * [`wire`] — a deterministic binary encoding (the "classes.dex file"),
//!   used for APK packaging, code-size measurements, and digest computation;
//! * [`asm`] — a textual disassembler, which is what the *text search*
//!   attack greps through;
//! * [`validate`] — structural validation (register bounds, branch targets,
//!   blob references, entry-point parameter domains).
//!
//! # Example: building a method with a qualified condition
//!
//! ```
//! use bombdroid_dex::{MethodBuilder, Reg, Value, CondOp, RegOrConst};
//!
//! // void check(int x) { if (x == 0xfff000) { log(); } }
//! let mut b = MethodBuilder::new("Example", "check", 1);
//! let x = Reg(0);
//! let skip = b.fresh_label();
//! b.if_not(CondOp::Eq, x, RegOrConst::Const(Value::Int(0xfff000)), skip);
//! b.host_log("mode matched");
//! b.place_label(skip);
//! b.ret_void();
//! let method = b.finish();
//! assert_eq!(method.body.len(), 4); // if + const(msg) + log + return
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod class;
pub mod dex_file;
pub mod instr;
pub mod validate;
pub mod value;
pub mod wire;

pub use builder::MethodBuilder;
pub use class::{Class, Field, FieldKind, Method};
pub use dex_file::{BlobId, DexFile, EncryptedBlob, EntryPoint, ParamDomain};
pub use instr::{
    BinOp, CondOp, EnvKey, HostApi, Instr, Reg, RegOrConst, SensorKind, StrOp, UiKind, UnOp,
};
pub use validate::{validate, validate_entry_domains, ValidateError, MAX_TEXT_PARAM_LEN};
pub use value::{ClassName, FieldRef, MethodRef, Value};
