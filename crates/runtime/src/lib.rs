//! Runtime substrate: a virtual machine standing in for the ART runtime,
//! plus device environments, installed packages, event drivers, and
//! telemetry.
//!
//! The paper evaluates BombDroid by *running* protected apps — on user
//! emulators with varied configurations (Table 3), under fuzzers for an
//! hour at a time (Table 4, Fig. 5), and side-by-side with the original
//! for overhead measurement (Table 5). This crate supplies all of that
//! machinery:
//!
//! * [`Vm`] — a register-machine interpreter over `bombdroid-dex` bytecode
//!   with a deterministic instruction→milliseconds cost model, framework
//!   shims (`getPublicKey`, manifest digests, resources, env/sensor/time
//!   queries, response actions), salted hashing, and authenticated
//!   decrypt-and-execute with fragment caching.
//! * [`DeviceEnv`] — user-population device sampling vs. the attacker's
//!   handful of emulator images (observation D1 of the paper).
//! * [`InstalledPackage`] — the system-managed snapshot of certificate,
//!   manifest digests, and per-class code digests taken at install.
//! * [`driver`] — user-style and random event sources and session driving
//!   (observation D2: users collectively reach almost every part of an
//!   app; a blind driver does not).
//! * [`Telemetry`] — satisfied trigger conditions, triggered bombs,
//!   responses and logs; the VM adds per-method invocation counts (the
//!   Traceview analogue) and field-value profiles on demand
//!   ([`Vm::method_calls`], [`Vm::field_values`]).
//!
//! # Example
//!
//! ```
//! use bombdroid_apk::{package_app, AppMeta, DeveloperKey, StringsXml};
//! use bombdroid_dex::{Class, DexFile, MethodBuilder};
//! use bombdroid_runtime::{DeviceEnv, InstalledPackage, Vm};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut dex = DexFile::new();
//! let mut class = Class::new("Main");
//! let mut b = MethodBuilder::new("Main", "main", 0);
//! b.host_log("hello world");
//! b.ret_void();
//! class.methods.push(b.finish());
//! dex.classes.push(class);
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let dev = DeveloperKey::generate(&mut rng);
//! let apk = package_app(&dex, StringsXml::new(), AppMeta::named("hello"), &dev);
//! let pkg = InstalledPackage::install(&apk).unwrap();
//! let mut vm = Vm::boot(pkg, DeviceEnv::sample(&mut rng), 7);
//! let outcome = vm.fire_method(&bombdroid_dex::MethodRef::new("Main", "main"), vec![]);
//! assert!(outcome.completed());
//! assert_eq!(vm.telemetry().logs, vec!["\"hello world\"".to_string()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
pub mod driver;
pub mod env;
mod exec;
pub mod package;
pub mod snapshot;
pub mod telemetry;
pub mod value;
pub mod vm;

pub use driver::{
    param_favorites, run_session, EventInvocation, EventSource, RandomEventSource, SessionReport,
    UserEventSource,
};
pub use env::{
    DeviceEnv, DeviceProfile, EnvValue, WeightedTable, COUNTRIES, CPU_ABIS, DENSITIES, FLASH_GB,
    LANGUAGES, MANUFACTURERS, SDK_LEVELS,
};
pub use package::InstalledPackage;
pub use snapshot::{SessionPool, VmSnapshot};
pub use telemetry::{ResponseEvent, ResponseKind, Telemetry};
pub use value::RtValue;
pub use vm::{
    AttackerHooks, CovEdge, EventOutcome, Fault, Vm, VmOptions, HEAP_CELL_BUDGET, MAX_CONCAT_LEN,
};
