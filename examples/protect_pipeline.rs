//! Protection pipeline, step by step: a guided tour of the paper's Fig. 1
//! with the intermediate artefacts printed — what the candidate selection
//! saw, where bombs landed, what the attacker's disassembler shows before
//! and after.
//!
//! ```sh
//! cargo run --release --example protect_pipeline
//! ```

use bombdroid::analysis::qc;
use bombdroid::core::{profile_app, ProtectConfig, Protector};
use bombdroid::dex::asm;
use bombdroid::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let app = bombdroid::corpus::flagship::hash_droid();
    let developer = DeveloperKey::generate(&mut rng);
    let apk = app.apk(&developer);
    let config = ProtectConfig::default();

    // ---- Step 1: unpack ---------------------------------------------
    println!("== Step 1: unpack the APK ==");
    println!(
        "entries: {:?}",
        apk.entries()
            .iter()
            .map(|(n, b)| format!("{n} ({} B)", b.len()))
            .collect::<Vec<_>>()
    );
    println!("developer public key Ko = {}", apk.cert.public_key);

    // ---- Step 2: profile + static analysis --------------------------
    println!("\n== Step 2: profiling and static analysis ==");
    let profile = profile_app(&apk, &config, 77).expect("profiling");
    println!(
        "profiled {} events; {} methods invoked; {} hot methods excluded",
        profile.telemetry.events_run,
        profile.method_calls.len(),
        profile.hot.len()
    );
    let sites = qc::scan_dex(&apk.dex);
    let (weak, medium, strong) = sites.iter().fold((0, 0, 0), |acc, s| match s.strength() {
        bombdroid::analysis::Strength::Weak => (acc.0 + 1, acc.1, acc.2),
        bombdroid::analysis::Strength::Medium => (acc.0, acc.1 + 1, acc.2),
        bombdroid::analysis::Strength::Strong => (acc.0, acc.1, acc.2 + 1),
    });
    println!(
        "{} existing qualified conditions found ({} weak / {} medium / {} strong)",
        sites.len(),
        weak,
        medium,
        strong
    );
    let mut ranked: Vec<_> = profile
        .field_values
        .iter()
        .map(|(f, samples)| {
            let uniq: std::collections::HashSet<_> = samples.iter().map(|(_, v)| v).collect();
            (f.clone(), uniq.len())
        })
        .collect();
    ranked.sort_by_key(|(_, u)| std::cmp::Reverse(*u));
    println!("field-entropy ranking (artificial-QC material):");
    for (f, u) in ranked.iter().take(5) {
        println!("  {f}: {u} distinct values");
    }

    // ---- Step 3: instrumentation -------------------------------------
    println!("\n== Step 3: bomb construction & instrumentation ==");
    let protected = Protector::new(config)
        .protect(&apk, &mut rng)
        .expect("protect");
    let r = &protected.report;
    println!(
        "{} bombs injected: {} on existing QCs, {} artificial, {} bogus; {} sites skipped",
        r.bombs_injected() + r.bogus_bombs(),
        r.existing_bombs(),
        r.artificial_bombs(),
        r.bogus_bombs(),
        r.skipped_sites
    );
    if let Some(bomb) = r.bombs.iter().find(|b| b.inner.is_some()) {
        let (desc, p) = bomb.inner.as_ref().unwrap();
        println!(
            "sample bomb: {} in {}, outer strength {:?}, inner trigger `{}` (p = {:.2}), \
             detection = {}",
            bomb.blob,
            bomb.method,
            bomb.strength,
            desc,
            p,
            bomb.detection.unwrap_or("none")
        );
    }

    // ---- What the attacker sees --------------------------------------
    println!("\n== attacker's view (disassembly diff) ==");
    let armed = r
        .bombs
        .iter()
        .find(|b| b.kind == bombdroid::core::BombKind::ExistingQc)
        .expect("at least one existing-QC bomb");
    let before = apk.dex.method(&armed.method).expect("method");
    let after = protected.dex.method(&armed.method).expect("method");
    println!("--- {} before (excerpt) ---", armed.method);
    for line in asm::disasm_method(before).lines().take(8) {
        println!("{line}");
    }
    println!("--- {} after (excerpt) ---", armed.method);
    for line in asm::disasm_method(after).lines().take(10) {
        println!("{line}");
    }
    println!(
        "(the original condition constant is gone; the payload is {} bytes of ciphertext)",
        protected
            .dex
            .blob(armed.blob)
            .map(|b| b.sealed.len())
            .unwrap_or(0)
    );

    // ---- Step 4: package ----------------------------------------------
    println!("\n== Step 4: package & sign ==");
    let signed = protected.package(&developer);
    println!(
        "protected APK: {} B (original {} B, +{:.1}%); signature verifies: {}",
        signed.total_size(),
        apk.total_size(),
        100.0 * r.code_size_increase(),
        signed.verify().is_ok()
    );
}
