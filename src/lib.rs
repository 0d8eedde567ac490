//! BombDroid-rs umbrella crate.
//!
//! Re-exports every workspace crate under one roof so the repository-root
//! `examples/` and `tests/` can exercise the whole system through a single
//! dependency. See [`bombdroid_core`] for the paper's primary contribution
//! (the protection pipeline) and `DESIGN.md` for the full system inventory.
//!
//! # Quick start
//!
//! ```
//! use bombdroid::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Generate a synthetic app, protect it with logic bombs, and check
//! // what was injected.
//! let mut rng = StdRng::seed_from_u64(7);
//! let app = bombdroid::corpus::flagship::hash_droid();
//! let keypair = DeveloperKey::generate(&mut rng);
//! let apk = app.apk(&keypair);
//! let protector = Protector::new(ProtectConfig::fast_profile());
//! let protected = protector.protect(&apk, &mut rng).unwrap();
//! assert!(protected.report.bombs_injected() > 0);
//! ```

#![forbid(unsafe_code)]

pub use bombdroid_analysis as analysis;
pub use bombdroid_apk as apk;
pub use bombdroid_attacks as attacks;
pub use bombdroid_core as core;
pub use bombdroid_corpus as corpus;
pub use bombdroid_crypto as crypto;
pub use bombdroid_dex as dex;
pub use bombdroid_obs as obs;
pub use bombdroid_runtime as runtime;
pub use bombdroid_sim as sim;
pub use bombdroid_ssn as ssn;

/// Convenient glob-import surface for examples and integration tests.
pub mod prelude {
    pub use bombdroid_apk::{package_app, repackage, ApkFile, AppMeta, DeveloperKey, StringsXml};
    pub use bombdroid_core::{
        derive_seed, expect_all, run_fleet, run_range_windowed, FleetConfig, ProtectConfig,
        ProtectedApp, Protector, TaskCtx,
    };
    pub use bombdroid_runtime::{
        run_session, DeviceEnv, DeviceProfile, InstalledPackage, RandomEventSource, SessionPool,
        UserEventSource, Vm, VmOptions, VmSnapshot,
    };
    pub use bombdroid_sim::{
        BombCatalog, DevicePopulation, MarketConfig, SimConfig, Simulator, SyntheticRunner,
        VmRunner,
    };
}
