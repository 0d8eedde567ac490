//! The decrypted-fragment cache's contract. Every decoded program (one per
//! installed package) caches the fragments its VMs opened, keyed by
//! (blob id, derived key). The cache must be *semantically invisible*:
//! per-VM telemetry and cost charging identical on a cold and a warm
//! program, per-device failure accounting intact, and no entry ever served
//! to a differently-salted protection or a tampered copy.

use bombdroid_apk::{repackage, ApkFile};
use bombdroid_bench::experiments::protect_app;
use bombdroid_bench::fixed_keys;
use bombdroid_core::ProtectConfig;
use bombdroid_obs as obs;
use bombdroid_runtime::{
    DeviceEnv, EventSource, InstalledPackage, RandomEventSource, Telemetry, Vm,
};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Boots a fresh VM on `pkg` and fires `events` random events; returns the
/// final telemetry and the run's `vm.decode.fragments` count (0 when
/// observability is off).
fn drive(pkg: &Arc<InstalledPackage>, seed: u64, events: u64) -> (Telemetry, u64) {
    let rec = Arc::new(obs::Recorder::new());
    let telemetry = obs::with_recorder(Arc::clone(&rec), || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vm = Vm::boot(Arc::clone(pkg), DeviceEnv::sample(&mut rng), seed);
        let mut source = RandomEventSource;
        let dex = Arc::clone(&vm.pkg.dex);
        for _ in 0..events {
            let Some(ev) = source.next_event(&dex, &mut rng) else {
                break;
            };
            let _ = vm.fire_entry(ev.entry_index, ev.args);
            if vm.is_killed() || vm.is_frozen() {
                break;
            }
        }
        vm.into_telemetry()
    });
    (telemetry, rec.counter_value("vm.decode.fragments"))
}

/// Protects Hash Droid with `seed` and signs it. Every call builds a new
/// APK, so its install gets a program of its own with an empty cache.
fn protected_apk(seed: u64) -> ApkFile {
    let app = bombdroid_corpus::flagship::hash_droid();
    protect_app(&app, ProtectConfig::fast_profile(), seed).1
}

fn install(apk: &ApkFile) -> Arc<InstalledPackage> {
    Arc::new(InstalledPackage::install(apk).expect("signed install"))
}

/// A pirate's copy of `signed` with every sealed blob corrupted, so
/// decryption fails wherever a bomb's outer condition is satisfied.
fn tampered_copy(signed: &ApkFile) -> Arc<InstalledPackage> {
    let (_, pirate) = fixed_keys();
    install(&repackage(signed, &pirate, |dex| {
        for blob in &mut dex.blobs {
            for b in &mut blob.sealed {
                *b ^= 0xA5;
            }
        }
    }))
}

/// `Telemetry` holds `f64`-free structured data, but compares via `Debug`
/// because it doesn't derive `PartialEq`.
fn fmt(t: &Telemetry) -> String {
    format!("{t:?}")
}

#[test]
fn warm_program_sessions_match_cold_ones() {
    let warm_pkg = install(&protected_apk(0xBE));
    // Other devices open fragments first.
    for seed in 100..106 {
        drive(&warm_pkg, seed, 80);
    }
    for seed in [3, 7, 19] {
        let cold_pkg = install(&protected_apk(0xBE));
        assert!(
            !Arc::ptr_eq(&cold_pkg.dex, &warm_pkg.dex),
            "the cold install must have a program of its own"
        );
        let (cold, cold_loads) = drive(&cold_pkg, seed, 80);
        let (warm, warm_loads) = drive(&warm_pkg, seed, 80);
        assert!(
            !cold.blobs_decrypted.is_empty(),
            "seed {seed}: the session must actually open blobs"
        );
        assert_eq!(
            fmt(&cold),
            fmt(&warm),
            "seed {seed}: the warm cache changed observable telemetry"
        );
        if obs::enabled() {
            // The fragment-load counter follows the session, not the cache:
            // one load per fragment opened, cold or warm.
            assert_eq!(cold_loads, cold.blobs_decrypted.len() as u64);
            assert_eq!(warm_loads, cold_loads, "seed {seed}");
        }
    }
}

#[test]
fn tampered_blobs_fail_on_every_device() {
    let pkg = tampered_copy(&protected_apk(0xBE));
    let failures: Vec<u64> = (0..3)
        .map(|_| {
            let (t, _) = drive(&pkg, 3, 120);
            assert!(t.blobs_decrypted.is_empty(), "nothing decrypts");
            t.decrypt_failures
        })
        .collect();
    assert!(failures[0] > 0, "tampered blobs must fail to decrypt");
    // Failures are never cached: each device pays (and records) every
    // failure itself instead of inheriting a verdict from the first.
    assert!(
        failures.iter().all(|&n| n == failures[0]),
        "per-device failure counts differ: {failures:?}"
    );
}

#[test]
fn differently_salted_protections_never_cross_hit() {
    // The same app protected twice with different seeds: same blob ids,
    // different salts and keys. Each is checked against a cold install of
    // its own APK after both caches were warmed in interleaved order.
    let (apk_a, apk_b) = (protected_apk(0xBE), protected_apk(0x5EED));
    let (pkg_a, pkg_b) = (install(&apk_a), install(&apk_b));
    assert_ne!(pkg_a.dex.blobs[0].salt, pkg_b.dex.blobs[0].salt);
    let mut shared_ids = 0;
    for seed in 4..8 {
        let warm_a1 = drive(&pkg_a, seed, 120).0;
        let warm_b = drive(&pkg_b, seed, 120).0;
        let warm_a2 = drive(&pkg_a, seed, 120).0;
        let cold_a = drive(&install(&apk_a), seed, 120).0;
        let cold_b = drive(&install(&apk_b), seed, 120).0;
        assert_eq!(fmt(&cold_a), fmt(&warm_a1), "seed {seed}: A diverged");
        assert_eq!(
            fmt(&cold_a),
            fmt(&warm_a2),
            "seed {seed}: A diverged after B"
        );
        assert_eq!(fmt(&cold_b), fmt(&warm_b), "seed {seed}: B diverged");
        shared_ids += cold_a
            .blobs_decrypted
            .intersection(&cold_b.blobs_decrypted)
            .count();
    }
    assert!(
        shared_ids > 0,
        "the protections must open blobs with shared ids"
    );
}

#[test]
fn a_tampered_copy_never_hits_the_originals_entries() {
    let signed = protected_apk(0xBE);
    let original = install(&signed);
    let (opened, _) = drive(&original, 3, 120);
    assert!(
        !opened.blobs_decrypted.is_empty(),
        "the original's cache must hold fragments"
    );
    // The copy keeps the blob ids but not the ciphertext: with the
    // original's cache warm, it still fails exactly as it does cold.
    let (warm, _) = drive(&tampered_copy(&signed), 3, 120);
    let (cold, _) = drive(&tampered_copy(&protected_apk(0xBE)), 3, 120);
    assert!(warm.decrypt_failures > 0 && warm.blobs_decrypted.is_empty());
    assert_eq!(fmt(&warm), fmt(&cold));
}
