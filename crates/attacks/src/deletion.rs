//! Code-deletion attacks (paper §2.1, §3.4).
//!
//! "A trivial attack is to delete any suspicious code." The attacker nops
//! out every `DecryptExec` (keeping the now-harmless guards so control
//! flow stays intact) and ships the result. With *code weaving*, each
//! deleted blob also contained part of the original app, so the repackaged
//! app misbehaves — "deletion of such code may lead to corruption of the
//! app"; bogus bombs ensure even selective deletion hits app code.

use bombdroid_apk::{repackage, ApkFile, DeveloperKey};
use bombdroid_dex::{DexFile, Instr};
use bombdroid_runtime::{run_session, DeviceEnv, InstalledPackage, UserEventSource, Vm};
use rand::{rngs::StdRng, SeedableRng};

/// Nops out every `DecryptExec`; returns how many were deleted.
pub fn delete_bombs(dex: &mut DexFile) -> usize {
    let mut n = 0;
    for method in dex.methods_mut() {
        for instr in &mut method.body {
            if matches!(instr, Instr::DecryptExec { .. }) {
                *instr = Instr::Nop;
                n += 1;
            }
        }
    }
    n
}

/// Result of comparing user sessions on a reference app vs. the
/// bomb-deleted repackage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionReport {
    /// Sessions compared.
    pub sessions: usize,
    /// Sessions whose observable behaviour (log stream) diverged.
    pub divergent_sessions: usize,
    /// Faults in the reference runs.
    pub reference_faults: u64,
    /// Faults in the deleted-app runs.
    pub deleted_faults: u64,
}

impl CorruptionReport {
    /// Whether deletion visibly corrupted the app.
    pub fn corrupted(&self) -> bool {
        self.divergent_sessions > 0 || self.deleted_faults > self.reference_faults
    }
}

/// Runs the deletion attack end-to-end: delete every bomb from
/// `protected`, repackage under the attacker's key, and drive identical
/// user sessions against the *reference* behaviour (the original,
/// unprotected app), comparing log streams.
///
/// # Panics
///
/// Panics if either APK fails to install.
pub fn deletion_attack(
    reference: &ApkFile,
    protected: &ApkFile,
    attacker: &DeveloperKey,
    sessions: usize,
    minutes_per_session: u64,
    seed: u64,
) -> CorruptionReport {
    deletion_attack_with(
        reference,
        protected,
        attacker,
        delete_bombs,
        sessions,
        minutes_per_session,
        seed,
    )
}

/// [`deletion_attack`] with a custom deletion strategy — different
/// protections call for different surgery (plaintext payloads vs SSN nodes
/// vs `DecryptExec` sites).
///
/// # Panics
///
/// Panics if either APK fails to install.
pub fn deletion_attack_with<T>(
    reference: &ApkFile,
    protected: &ApkFile,
    attacker: &DeveloperKey,
    strategy: impl FnOnce(&mut DexFile) -> T,
    sessions: usize,
    minutes_per_session: u64,
    seed: u64,
) -> CorruptionReport {
    let deleted = repackage(protected, attacker, |dex| {
        strategy(dex);
    });
    let mut report = CorruptionReport {
        sessions,
        ..CorruptionReport::default()
    };
    for s in 0..sessions {
        let session_seed = seed.wrapping_add(s as u64).wrapping_mul(0x9E37_79B9);
        let (ref_logs, ref_state, ref_faults) = drive(reference, session_seed, minutes_per_session);
        let (del_logs, del_state, del_faults) = drive(&deleted, session_seed, minutes_per_session);
        // Divergence in either the log stream or the final program state
        // counts as corruption ("instability, visualization errors,
        // incorrect computation, or crashes", §3.4).
        if ref_logs != del_logs || ref_state != del_state {
            report.divergent_sessions += 1;
        }
        report.reference_faults += ref_faults;
        report.deleted_faults += del_faults;
    }
    report
}

fn drive(apk: &ApkFile, seed: u64, minutes: u64) -> (Vec<String>, Vec<(String, String)>, u64) {
    let pkg = InstalledPackage::install(apk).expect("install");
    let mut rng = StdRng::seed_from_u64(seed);
    let env = DeviceEnv::sample(&mut rng);
    let mut vm = Vm::boot(pkg, env, seed ^ 0xD00D);
    let mut source = UserEventSource::new(&vm.pkg);
    let r = run_session(&mut vm, &mut source, &mut rng, minutes, 60);
    (
        vm.telemetry().logs.clone(),
        vm.statics_snapshot(),
        r.faulted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_core::{ProtectConfig, Protector};

    fn setup() -> (ApkFile, DeveloperKey, DeveloperKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(8);
        let dev = DeveloperKey::generate(&mut rng);
        let pirate = DeveloperKey::generate(&mut rng);
        let apk = bombdroid_corpus::flagship::androfish().apk(&dev);
        (apk, dev, pirate, rng)
    }

    #[test]
    fn deletion_corrupts_woven_apps() {
        let (apk, dev, pirate, mut rng) = setup();
        let protected = Protector::new(ProtectConfig::fast_profile())
            .protect(&apk, &mut rng)
            .unwrap()
            .package(&dev);
        let report = deletion_attack(&apk, &protected, &pirate, 6, 3, 42);
        assert!(
            report.corrupted(),
            "weaving must make deletion corrupt the app: {report:?}"
        );
    }

    #[test]
    fn deletion_is_harmless_without_weaving() {
        // The ablation: weave_original = false leaves original code in
        // plaintext, so deleting bombs yields a working pirated app.
        let (apk, dev, pirate, mut rng) = setup();
        let mut config = ProtectConfig::fast_profile();
        config.weave_original = false;
        config.bogus_ratio = 0.0;
        let protected = Protector::new(config)
            .protect(&apk, &mut rng)
            .unwrap()
            .package(&dev);
        let report = deletion_attack(&apk, &protected, &pirate, 6, 3, 42);
        assert_eq!(
            report.divergent_sessions, 0,
            "without weaving, deletion must not change behaviour: {report:?}"
        );
    }
}
