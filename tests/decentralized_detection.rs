//! Fleet-scale behaviour: the decentralized detection scheme across many
//! diverse devices (paper §1's D1/D2 and §4.2's aggregation story).

use bombdroid::core::{ProtectConfig, Protector};
use bombdroid::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

struct Fleet {
    pirated: InstalledPackage,
    legit: InstalledPackage,
}

fn build_fleet() -> Fleet {
    let mut rng = StdRng::seed_from_u64(7);
    let dev = DeveloperKey::generate(&mut rng);
    let pirate = DeveloperKey::generate(&mut rng);
    let app = bombdroid::corpus::flagship::binaural_beat();
    let apk = app.apk(&dev);
    let protected = Protector::new(ProtectConfig::fast_profile())
        .protect(&apk, &mut rng)
        .unwrap();
    let signed = protected.package(&dev);
    let pirated = repackage(&signed, &pirate, |_| {});
    Fleet {
        pirated: InstalledPackage::install(&pirated).unwrap(),
        legit: InstalledPackage::install(&signed).unwrap(),
    }
}

fn run_device(pkg: &InstalledPackage, seed: u64, minutes: u64) -> (bool, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let env = DeviceEnv::sample(&mut rng);
    let mut vm = Vm::boot(pkg.clone(), env, seed ^ 0xF1EE7);
    let mut source = UserEventSource::new(&vm.pkg);
    run_session(&mut vm, &mut source, &mut rng, minutes, 40);
    (
        vm.telemetry().detection_fired(),
        vm.telemetry().piracy_reports,
    )
}

#[test]
fn fleet_detects_pirated_copy_and_spares_legit_one() {
    let fleet = build_fleet();
    let devices = 16u64;
    let mut pirated_detections = 0;
    let mut reports = 0;
    let mut legit_detections = 0;
    for d in 0..devices {
        let (hit, r) = run_device(&fleet.pirated, 500 + d, 45);
        pirated_detections += hit as u32;
        reports += r;
        let (hit, _) = run_device(&fleet.legit, 500 + d, 20);
        legit_detections += hit as u32;
    }
    assert!(
        pirated_detections as u64 >= devices * 6 / 10,
        "only {pirated_detections}/{devices} devices detected piracy"
    );
    assert!(
        reports >= pirated_detections as u64,
        "each detection reports home"
    );
    assert_eq!(legit_detections, 0, "zero false positives across the fleet");
}

#[test]
fn different_devices_trigger_different_bombs() {
    // D1: environment diversity means the *set* of triggerable bombs
    // varies per device — the attacker cannot enumerate them from one
    // emulator.
    let fleet = build_fleet();
    let mut marker_sets = Vec::new();
    for d in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(900 + d);
        let env = DeviceEnv::sample(&mut rng);
        let mut vm = Vm::boot(fleet.pirated.clone(), env, d);
        let mut source = UserEventSource::new(&vm.pkg);
        run_session(&mut vm, &mut source, &mut rng, 45, 40);
        marker_sets.push(vm.telemetry().markers.clone());
    }
    let distinct: std::collections::HashSet<_> = marker_sets.iter().collect();
    assert!(
        distinct.len() > 1,
        "devices must not all trigger the identical bomb set"
    );
    let union: std::collections::BTreeSet<u32> = marker_sets.iter().flatten().copied().collect();
    let max_single = marker_sets.iter().map(|s| s.len()).max().unwrap_or(0);
    assert!(
        union.len() > max_single,
        "the fleet's union coverage must beat any single device"
    );
}
