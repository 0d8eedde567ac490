//! Quickstart: protect an app, pirate it, and watch a user's device detect
//! the repackaging.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bombdroid::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. A developer builds an app (here: the AndroFish model from the
    //    paper's Fig. 3) and signs it with their private key.
    let app = bombdroid::corpus::flagship::androfish();
    let developer = DeveloperKey::generate(&mut rng);
    let apk = app.apk(&developer);
    println!(
        "built {}: {} classes, {} instructions, {} entry points",
        app.name,
        apk.dex.classes.len(),
        apk.dex.instruction_count(),
        apk.dex.entry_points.len()
    );

    // 2. BombDroid weaves cryptographically obfuscated logic bombs into the
    //    bytecode. The developer re-signs the protected build.
    let protector = Protector::new(ProtectConfig::default());
    let protected = protector.protect(&apk, &mut rng).expect("protection");
    println!(
        "protected: {} bombs ({} existing-QC + {} artificial-QC, +{} bogus), code +{:.1}%",
        protected.report.bombs_injected(),
        protected.report.existing_bombs(),
        protected.report.artificial_bombs(),
        protected.report.bogus_bombs(),
        100.0 * protected.report.code_size_increase(),
    );
    let signed = protected.package(&developer);

    // 3. A pirate unpacks the app, swaps the author and icon, and re-signs
    //    with their own key — the public key necessarily changes.
    let pirate = DeveloperKey::generate(&mut rng);
    let pirated = repackage(&signed, &pirate, |_dex| {
        // (a real repackager would also inject ad/malware code here)
    });
    println!(
        "pirated copy signed by {} (original {})",
        pirated.cert.public_key, signed.cert.public_key
    );

    // 4. An ordinary user installs the pirated copy and plays. Their
    //    device differs from the pirate's test emulators, so sooner or
    //    later a bomb's two triggers line up...
    let pkg = InstalledPackage::install(&pirated).expect("system verifies the pirate's signature");
    let mut vm = Vm::boot(pkg, DeviceEnv::sample(&mut rng), 7);
    let mut user = UserEventSource::new(&vm.pkg);
    let session = run_session(&mut vm, &mut user, &mut rng, 60, 40);
    let t = vm.telemetry();
    println!(
        "user session: {} events over {} min",
        session.events,
        session.end_ms / 60_000
    );
    match t.first_marker_ms {
        Some(ms) => println!(
            "=> repackaging detected after {:.1}s: {} bomb(s) fired, {} piracy report(s), {} response(s)",
            ms as f64 / 1000.0,
            t.bombs_triggered(),
            t.piracy_reports,
            t.responses.len()
        ),
        None => println!("=> no bomb fired this session (rare — try another seed)"),
    }

    // 5. The same protected app on a *legitimate* install never
    //    misbehaves: zero false positives.
    let legit = InstalledPackage::install(&signed).expect("install");
    let mut vm = Vm::boot(legit, DeviceEnv::sample(&mut rng), 8);
    let mut user = UserEventSource::new(&vm.pkg);
    run_session(&mut vm, &mut user, &mut rng, 30, 40);
    assert!(vm.telemetry().responses.is_empty());
    assert_eq!(vm.telemetry().piracy_reports, 0);
    println!("legitimate copy: 30 min of play, zero responses (no false positives)");
}
