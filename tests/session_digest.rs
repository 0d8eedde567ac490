//! Pins what user sessions on pirated installs observe. One SHA-256 runs
//! over fixed-seed `UserEventSource` sessions on each of the 8 flagships,
//! protected and then repackaged under a pirate key, each session forked
//! from a pristine `SessionPool`, as the market simulation runs them. It
//! covers the session's telemetry, its clock, its final statics and its
//! per-method call counts. Interpreter optimizations must leave it
//! unchanged; a deliberate change to the VM's cost model or telemetry must
//! update the constant.

use bombdroid::core::{ProtectConfig, Protector};
use bombdroid::corpus::{flagship, UserProfile};
use bombdroid::crypto::{hex, Sha256};
use bombdroid::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

mod common;

const SESSION_DIGEST: &str = "7c18001217c1702e655f0219f687e826a753c1a348782c75eca40324b91aae93";

/// Sessions per app.
const SESSIONS: u64 = 16;

/// Cap on a session's length, in minutes, to keep the suite quick.
const CAP_MINUTES: u16 = 10;

#[test]
fn pirated_sessions_match_pinned_digest() {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(0x5E55));
    let pirate = DeveloperKey::generate(&mut StdRng::seed_from_u64(0x9A7E));
    let mut all = Sha256::new();
    let mut markers = 0usize;
    for (ai, app) in flagship::all().iter().enumerate() {
        let mut prng = StdRng::seed_from_u64(0x5D00 + ai as u64);
        let protected = Protector::new(ProtectConfig::fast_profile())
            .protect(&app.apk(&dev), &mut prng)
            .expect("protect succeeds");
        let pirated = repackage(&protected.package(&dev), &pirate, |_| {});
        let pkg = InstalledPackage::install(&pirated).expect("pirated install");
        let pool = SessionPool::new(Arc::new(pkg), VmOptions::default());
        for s in 0..SESSIONS {
            let seed = (ai as u64) << 8 | s;
            let mut rng = StdRng::seed_from_u64(seed);
            let user = UserProfile::sample(&mut rng);
            let mut vm = pool.session(user.device.materialize(), seed);
            let mut source = UserEventSource::new(&vm.pkg);
            run_session(
                &mut vm,
                &mut source,
                &mut rng,
                u64::from(user.session_minutes.min(CAP_MINUTES)),
                u64::from(user.events_per_minute),
            );
            common::absorb_session(&mut all, &vm);
            markers += vm.telemetry().markers.len();
        }
    }
    assert!(markers > 0, "no session triggered a bomb");
    assert_eq!(hex::encode(&all.finalize()), SESSION_DIGEST);
}
