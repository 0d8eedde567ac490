//! Differential behavior-preservation sweep: for a corpus of generated
//! apps, the protected build must be observationally identical to the
//! original on legitimately-signed installs — across random device
//! environments and random event streams where no response ever fires.
//!
//! This is the paper's central correctness invariant (§7/§8.4, zero false
//! positives) driven as a differential test: same seed → same events →
//! same logs, same final statics, zero responses, zero piracy reports,
//! and zero decrypt failures (every triggered bomb must re-derive its key
//! from the live trigger value).

use bombdroid::core::{ProtectConfig, Protector};
use bombdroid::corpus::{flagship, gen::generate_app, Category};
use bombdroid::crypto::{hex, Sha256};
use bombdroid::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

mod common;

/// Everything observable about a session, for original/protected diffing.
#[derive(Debug, PartialEq)]
struct Observation {
    logs: Vec<String>,
    statics: Vec<(String, String)>,
    responses: usize,
    piracy_reports: u64,
    decrypt_failures: u64,
}

fn observe(apk: &ApkFile, session_seed: u64, events: u64) -> Observation {
    let pkg = InstalledPackage::install(apk).expect("signed install");
    let mut rng = StdRng::seed_from_u64(session_seed);
    let env = DeviceEnv::sample(&mut rng);
    let mut vm = Vm::boot(pkg, env, session_seed ^ 0xBEEF);
    let mut source = RandomEventSource;
    run_session(&mut vm, &mut source, &mut rng, events, 60);
    let t = vm.telemetry();
    Observation {
        logs: t.logs.clone(),
        statics: vm.statics_snapshot(),
        responses: t.responses.len(),
        piracy_reports: t.piracy_reports,
        decrypt_failures: t.decrypt_failures,
    }
}

#[test]
fn protected_corpus_is_observationally_identical_on_legit_installs() {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(7));
    let corpus = [
        flagship::androfish(),
        flagship::hash_droid(),
        flagship::catlog(),
        generate_app("bp-game", Category::Game, 0xA11),
        generate_app("bp-writing", Category::Writing, 0xA12),
        generate_app("bp-nav", Category::Navigation, 0xA13),
        generate_app("bp-sec", Category::Security, 0xA14),
    ];
    for (i, app) in corpus.iter().enumerate() {
        let apk = app.apk(&dev);
        let mut prng = StdRng::seed_from_u64(0xC0FFEE + i as u64);
        let protected = Protector::new(ProtectConfig::fast_profile())
            .protect(&apk, &mut prng)
            .unwrap_or_else(|e| panic!("{}: protect failed: {e}", app.name));
        assert!(
            protected.report.bombs_injected() > 0,
            "{}: corpus member must actually carry bombs",
            app.name
        );
        let signed = protected.package(&dev);

        for session_seed in [1u64, 42, 7777] {
            let original = observe(&apk, session_seed, 40);
            let guarded = observe(&signed, session_seed, 40);
            assert_eq!(
                original, guarded,
                "{} seed {session_seed}: protected run diverged",
                app.name
            );
            assert_eq!(
                (
                    guarded.responses,
                    guarded.piracy_reports,
                    guarded.decrypt_failures
                ),
                (0, 0, 0),
                "{} seed {session_seed}: legit install must look untouched",
                app.name
            );
        }
    }
}

/// Pins what the VM observes on *pirated* installs, where
/// decrypt-and-execute paths and bomb responses run: the 7-app corpus × 3
/// seeds of `RandomEventSource` sessions. One SHA-256 covers each
/// session's full [`bombdroid::runtime::Telemetry`] (instruction counts,
/// satisfied-condition sets, bomb counters, response lists), its clock,
/// its final statics and its per-method call counts. A deliberate change
/// to the VM's cost model or telemetry must update the constant.
const PIRATED_TELEMETRY_DIGEST: &str =
    "9e6a097a1a1b6a2e437b78a5824d9029dd1c6343fc4d3c3fccaa3ee3b20c0388";

#[test]
fn pirated_session_telemetry_matches_pinned_digest() {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(7));
    let pirate = DeveloperKey::generate(&mut StdRng::seed_from_u64(9));
    let corpus = [
        flagship::androfish(),
        flagship::hash_droid(),
        flagship::catlog(),
        generate_app("ti-game", Category::Game, 0xB11),
        generate_app("ti-writing", Category::Writing, 0xB12),
        generate_app("ti-nav", Category::Navigation, 0xB13),
        generate_app("ti-sec", Category::Security, 0xB14),
    ];
    let mut all = Sha256::new();
    let mut markers = 0usize;
    for (i, app) in corpus.iter().enumerate() {
        let apk = app.apk(&dev);
        let mut prng = StdRng::seed_from_u64(0xE0 + i as u64);
        let protected = Protector::new(ProtectConfig::fast_profile())
            .protect(&apk, &mut prng)
            .unwrap_or_else(|e| panic!("{}: protect failed: {e}", app.name));
        let signed = protected.package(&dev);
        let pirated = repackage(&signed, &pirate, |_| {});

        for session_seed in [1u64, 42, 7777] {
            let pkg = InstalledPackage::install(&pirated).expect("pirated install");
            let mut rng = StdRng::seed_from_u64(session_seed);
            let env = DeviceEnv::sample(&mut rng);
            let mut vm = Vm::boot(pkg, env, session_seed ^ 0xBEEF);
            let mut source = RandomEventSource;
            run_session(&mut vm, &mut source, &mut rng, 40, 60);
            common::absorb_session(&mut all, &vm);
            markers += vm.telemetry().markers.len();
        }
    }
    assert!(markers > 0, "no session triggered a bomb");
    assert_eq!(hex::encode(&all.finalize()), PIRATED_TELEMETRY_DIGEST);
}

#[test]
fn user_event_streams_are_also_preserved() {
    // Random events exercise breadth; the weighted user model exercises
    // the paths real users hit most — both must be behavior-preserving.
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(8));
    let app = flagship::swjournal();
    let apk = app.apk(&dev);
    let mut prng = StdRng::seed_from_u64(0xD0);
    let protected = Protector::new(ProtectConfig::fast_profile())
        .protect(&apk, &mut prng)
        .unwrap();
    let signed = protected.package(&dev);

    for session_seed in [5u64, 6] {
        let run = |apk: &ApkFile| {
            let pkg = InstalledPackage::install(apk).unwrap();
            let mut rng = StdRng::seed_from_u64(session_seed);
            let env = DeviceEnv::sample(&mut rng);
            let mut vm = Vm::boot(pkg, env, session_seed);
            let mut source = UserEventSource::new(&vm.pkg);
            run_session(&mut vm, &mut source, &mut rng, 30, 60);
            (vm.telemetry().logs.clone(), vm.statics_snapshot())
        };
        assert_eq!(run(&apk), run(&signed), "seed {session_seed}");
    }
}
