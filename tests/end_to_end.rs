//! End-to-end lifecycle tests spanning every crate: generate → package →
//! protect → sign → (re)install → run → detect.

use bombdroid::core::{ProtectConfig, Protector};
use bombdroid::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn fast() -> ProtectConfig {
    ProtectConfig::fast_profile()
}

#[test]
fn protected_app_preserves_behaviour_on_legit_installs() {
    // The central correctness invariant: on a legitimately signed install,
    // the protected app is observationally identical to the original —
    // same log stream, same final state — even while bombs trigger and
    // payloads run (their detection comparisons all pass).
    let mut rng = StdRng::seed_from_u64(11);
    let dev = DeveloperKey::generate(&mut rng);
    let app = bombdroid::corpus::flagship::swjournal();
    let apk = app.apk(&dev);
    let protected = Protector::new(fast()).protect(&apk, &mut rng).unwrap();
    assert!(protected.report.bombs_injected() > 10);
    let signed = protected.package(&dev);

    for session_seed in [1u64, 2, 3] {
        let run = |apk: &ApkFile| {
            let pkg = InstalledPackage::install(apk).unwrap();
            let mut rng = StdRng::seed_from_u64(session_seed);
            let env = DeviceEnv::sample(&mut rng);
            let mut vm = Vm::boot(pkg, env, session_seed ^ 0xE2E);
            let mut source = UserEventSource::new(&vm.pkg);
            run_session(&mut vm, &mut source, &mut rng, 10, 60);
            (
                vm.telemetry().logs.clone(),
                vm.statics_snapshot(),
                vm.telemetry().responses.len(),
                vm.telemetry().piracy_reports,
            )
        };
        let (logs_a, state_a, resp_a, rep_a) = run(&apk);
        let (logs_b, state_b, resp_b, rep_b) = run(&signed);
        assert_eq!(
            logs_a, logs_b,
            "log streams must match (seed {session_seed})"
        );
        assert_eq!(
            state_a, state_b,
            "final state must match (seed {session_seed})"
        );
        assert_eq!((resp_a, rep_a), (0, 0));
        assert_eq!((resp_b, rep_b), (0, 0), "no false positives");
    }
}

#[test]
fn repackaged_app_is_detected_by_users() {
    let mut rng = StdRng::seed_from_u64(21);
    let dev = DeveloperKey::generate(&mut rng);
    let pirate = DeveloperKey::generate(&mut rng);
    let app = bombdroid::corpus::flagship::androfish();
    let apk = app.apk(&dev);
    let protected = Protector::new(fast()).protect(&apk, &mut rng).unwrap();
    let signed = protected.package(&dev);
    let pirated = repackage(&signed, &pirate, |_| {});
    let pkg = InstalledPackage::install(&pirated).unwrap();

    // A small fleet of diverse users: most must detect within an hour.
    let mut detections = 0;
    let fleet = 10;
    for u in 0..fleet {
        let mut urng = StdRng::seed_from_u64(1000 + u);
        let env = DeviceEnv::sample(&mut urng);
        let mut vm = Vm::boot(pkg.clone(), env, 77 + u);
        let mut source = UserEventSource::new(&vm.pkg);
        run_session(&mut vm, &mut source, &mut urng, 60, 40);
        if vm.telemetry().detection_fired() {
            detections += 1;
        }
    }
    assert!(
        detections >= fleet * 7 / 10,
        "only {detections}/{fleet} devices detected the repackaging"
    );
}

#[test]
fn tampered_digest_detection_fires_even_with_matching_key() {
    // An attacker who somehow keeps the public key (e.g. only swaps the
    // icon inside the original developer's signing flow) is still caught
    // by manifest-digest comparison. We simulate by re-signing with the
    // *developer's* key after changing the icon.
    let mut rng = StdRng::seed_from_u64(31);
    let dev = DeveloperKey::generate(&mut rng);
    let app = bombdroid::corpus::flagship::calendar();
    let apk = app.apk(&dev);
    let protected = Protector::new(fast()).protect(&apk, &mut rng).unwrap();
    let mut tampered = protected.package(&dev);
    tampered.icon = vec![0xEE; 32]; // replaced icon
    tampered.resign(&dev, "original developer");
    let pkg = InstalledPackage::install(&tampered).unwrap();

    let mut detections = 0;
    for u in 0..8u64 {
        let mut urng = StdRng::seed_from_u64(2000 + u);
        let env = DeviceEnv::sample(&mut urng);
        let mut vm = Vm::boot(pkg.clone(), env, 88 + u);
        let mut source = UserEventSource::new(&vm.pkg);
        run_session(&mut vm, &mut source, &mut urng, 60, 40);
        if vm.telemetry().detection_fired() {
            detections += 1;
        }
    }
    assert!(detections > 0, "digest comparison must catch icon swaps");
}

#[test]
fn unsigned_tampering_never_installs() {
    let mut rng = StdRng::seed_from_u64(41);
    let dev = DeveloperKey::generate(&mut rng);
    let app = bombdroid::corpus::flagship::catlog();
    let mut apk = app.apk(&dev);
    apk.meta.author = "script kiddie".into();
    assert!(InstalledPackage::install(&apk).is_err());
}

#[test]
fn strategic_muting_silences_later_bombs() {
    // The paper's §10 future work: once one bomb has fired, the others go
    // quiet so an analyst tracing responses learns only a single trigger.
    let mut rng = StdRng::seed_from_u64(61);
    let dev = DeveloperKey::generate(&mut rng);
    let pirate = DeveloperKey::generate(&mut rng);
    let app = bombdroid::corpus::flagship::androfish();
    let apk = app.apk(&dev);
    let run_fleet = |mute: bool| -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(62);
        let config = ProtectConfig {
            mute_after_detection: mute,
            // Non-aborting responses so sessions continue after the first
            // detection and later bombs get the chance to (not) fire.
            responses: vec![bombdroid::core::ResponseChoice::LeakMemory],
            ..ProtectConfig::fast_profile()
        };
        let protected = Protector::new(config).protect(&apk, &mut rng).unwrap();
        let signed = protected.package(&dev);
        let pirated = repackage(&signed, &pirate, |_| {});
        let pkg = InstalledPackage::install(&pirated).unwrap();
        let mut markers = 0;
        let mut observable = 0;
        for u in 0..4u64 {
            let mut urng = StdRng::seed_from_u64(3000 + u);
            let env = DeviceEnv::sample(&mut urng);
            let mut vm = Vm::boot(pkg.clone(), env, 99 + u);
            let mut source = UserEventSource::new(&vm.pkg);
            run_session(&mut vm, &mut source, &mut urng, 45, 40);
            markers += vm.telemetry().bombs_triggered();
            observable += vm.telemetry().responses.len() + vm.telemetry().piracy_reports as usize;
        }
        (markers, observable)
    };
    let (markers_loud, observable_loud) = run_fleet(false);
    let (markers_muted, observable_muted) = run_fleet(true);
    assert!(
        markers_loud > 0 && markers_muted > 0,
        "bombs must trigger in both modes"
    );
    assert!(
        observable_muted < observable_loud,
        "muting must reduce observable responses: {observable_muted} vs {observable_loud}"
    );
    // With muting, at most one detection per device is observable:
    // warn + report + response = 3 events.
    assert!(
        observable_muted <= 4 * 3,
        "muted fleet leaked {observable_muted} observable events"
    );
}

#[test]
fn protection_is_deterministic_under_seed() {
    let mut rng_a = StdRng::seed_from_u64(55);
    let mut rng_b = StdRng::seed_from_u64(55);
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(1));
    let app = bombdroid::corpus::flagship::angulo();
    let apk = app.apk(&dev);
    let a = Protector::new(fast()).protect(&apk, &mut rng_a).unwrap();
    let b = Protector::new(fast()).protect(&apk, &mut rng_b).unwrap();
    assert_eq!(a.dex, b.dex);
    assert_eq!(a.report.bombs.len(), b.report.bombs.len());
}

#[test]
fn protecting_a_protected_app_arms_after_its_blobs() {
    // The second pass numbers its blobs on from the input's own: the first
    // pass's blobs keep their indices and bytes, and every `DecryptExec`
    // the second pass adds points past them.
    let mut rng = StdRng::seed_from_u64(41);
    let dev = DeveloperKey::generate(&mut rng);
    let apk = bombdroid::corpus::flagship::swjournal().apk(&dev);
    let first = Protector::new(fast()).protect(&apk, &mut rng).unwrap();
    let second = Protector::new(fast())
        .protect(&first.package(&dev), &mut rng)
        .unwrap();
    let base = first.dex.blobs.len();
    assert!(base > 0 && second.dex.blobs.len() > base);
    assert_eq!(second.dex.blobs[..base], first.dex.blobs[..]);
    assert!(second.report.bombs_injected() > 0);
    for bomb in &second.report.bombs {
        assert!((base..second.dex.blobs.len()).contains(&(bomb.blob.0 as usize)));
    }
    let decrypt_ids = |dex: &bombdroid::dex::DexFile| -> Vec<usize> {
        dex.classes
            .iter()
            .flat_map(|c| &c.methods)
            .flat_map(|m| &m.body)
            .filter_map(|i| match i {
                bombdroid::dex::Instr::DecryptExec { blob, .. } => Some(blob.0 as usize),
                _ => None,
            })
            .collect()
    };
    let old = decrypt_ids(&first.dex);
    let new: Vec<usize> = decrypt_ids(&second.dex)
        .into_iter()
        .filter(|id| !old.contains(id))
        .collect();
    assert!(!new.is_empty());
    assert!(new.iter().all(|&id| id >= base), "{new:?} below {base}");
    bombdroid::dex::validate(&second.dex).expect("re-protected dex validates");
}
