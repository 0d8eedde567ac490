//! Static and profile-guided analysis over `bombdroid-dex` bytecode — the
//! Soot-shaped piece of the substrate.
//!
//! BombDroid's Step 2 (paper Fig. 1) runs static analysis to pick bomb
//! sites; its attackers run slicing to circumvent triggers. Both sides are
//! served here:
//!
//! * [`cfg`] — basic blocks and edges per method;
//! * [`dom`] — dominator trees (Cooper–Harvey–Kennedy);
//! * [`loops`] — natural loops, so bombs stay out of them (§7.2);
//! * [`qc`] — qualified-condition scanning with weak/medium/strong
//!   strength grading (§3.3, §8.3.1);
//! * [`slice`] — HARVESTER-style backward slicing (§2.1);
//! * [`entropy`] — field-value entropy ranking for artificial QCs (§7.2).
//!
//! # Example: scan an app for qualified conditions
//!
//! ```
//! use bombdroid_analysis::qc;
//! use bombdroid_dex::{CondOp, MethodBuilder, Reg, RegOrConst, Value};
//!
//! let mut b = MethodBuilder::new("Game", "onLevelSelect", 1);
//! let skip = b.fresh_label();
//! b.if_not(CondOp::Eq, Reg(0), RegOrConst::Const(Value::Int(12)), skip);
//! b.host_log("secret level");
//! b.place_label(skip);
//! b.ret_void();
//! let sites = qc::scan_method(&b.finish());
//! assert_eq!(sites.len(), 1);
//! assert_eq!(sites[0].constant, Value::Int(12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod dom;
pub mod entropy;
pub mod loops;
pub mod qc;
pub mod slice;

pub use cfg::{BasicBlock, Cfg};
pub use dom::Dominators;
pub use entropy::{rank_fields, FieldTally};
pub use loops::LoopInfo;
pub use qc::{scan_dex, scan_method, QcCompare, QcSite, Strength};
pub use slice::{backward_slice, Slice};
