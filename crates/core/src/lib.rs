//! BombDroid: resilient decentralized Android app repackaging detection
//! using cryptographically obfuscated logic bombs — the primary
//! contribution of the CGO'18 paper, reimplemented on the synthetic
//! Android substrate of this workspace.
//!
//! The [`Protector`] runs the four-step pipeline of the paper's Fig. 1:
//!
//! 1. **Unpack** the APK: extract bytecode and the developer's public key.
//! 2. **Analyze**: profile with random events to find hot methods (§7.1)
//!    and high-entropy fields, scan for *qualified conditions* (`X == c`,
//!    §3.3), and plan bomb sites (existing, artificial, bogus).
//! 3. **Instrument**: rewrite each site into a cryptographically
//!    obfuscated bomb — `Hash(X|salt) == Hc` guarding a `DecryptExec` of
//!    the sealed payload, with the original conditional body *woven* into
//!    the ciphertext (§3.2, §3.4), an optional environment-sensitive inner
//!    trigger (§6), and a repackaging-detection payload (§4).
//! 4. **Package** the protected app for the developer to sign.
//!
//! # Quick start
//!
//! ```
//! use bombdroid_apk::{package_app, repackage, AppMeta, DeveloperKey, StringsXml};
//! use bombdroid_core::{ProtectConfig, Protector};
//! use bombdroid_dex::{Class, CondOp, DexFile, EntryPoint, MethodBuilder, ParamDomain,
//!                     Reg, RegOrConst, Value};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! // A tiny app with one qualified condition.
//! let mut dex = DexFile::new();
//! let mut class = Class::new("App");
//! let mut m = MethodBuilder::new("App", "onTap", 1);
//! let skip = m.fresh_label();
//! m.if_not(CondOp::Eq, Reg(0), RegOrConst::Const(Value::Int(1234)), skip);
//! m.host_log("secret tap");
//! m.place_label(skip);
//! m.ret_void();
//! class.methods.push(m.finish());
//! dex.classes.push(class);
//! dex.entry_points.push(EntryPoint {
//!     event: Arc::from("onTap"),
//!     method: bombdroid_dex::MethodRef::new("App", "onTap"),
//!     params: vec![ParamDomain::IntRange(0, 100_000)],
//!     user_weight: 1.0,
//! });
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let dev = DeveloperKey::generate(&mut rng);
//! let apk = package_app(&dex, StringsXml::new(), AppMeta::named("demo"), &dev);
//!
//! let protector = Protector::new(ProtectConfig::fast_profile());
//! let protected = protector.protect(&apk, &mut rng).unwrap();
//! assert!(protected.report.bombs_injected() >= 1);
//!
//! // The developer signs; a pirate repackages; the difference is what the
//! // injected payloads detect at runtime on user devices.
//! let signed = protected.package(&dev);
//! let pirate = DeveloperKey::generate(&mut rng);
//! let pirated = repackage(&signed, &pirate, |_| {});
//! assert_ne!(signed.cert.public_key, pirated.cert.public_key);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bomb;
pub mod config;
pub mod fleet;
pub mod fragment;
pub mod inner;
pub mod naive;
pub mod payload;
pub mod pipeline;
pub mod profiling;
pub mod report;
pub mod rewrite;
pub mod service;
pub mod sites;

pub use config::{DetectionMethods, ProtectConfig, ResponseChoice};
pub use fleet::{
    derive_seed, env_threads, expect_all, run_fleet, run_range_windowed, FleetConfig, FleetError,
    TaskCtx,
};
pub use inner::InnerCond;
pub use naive::NaiveProtector;
pub use payload::{DetectionKind, MUTE_FLAG};
pub use pipeline::{ProtectError, ProtectedApp, Protector};
pub use profiling::{profile_app, ProfileResult};
pub use report::{BombInfo, BombKind, ProtectReport};
pub use service::{
    config_fingerprint, AdmissionError, JobOutcome, JobTicket, ProtectJob, ProtectService,
    ProtectionCache, SeedPolicy,
};
