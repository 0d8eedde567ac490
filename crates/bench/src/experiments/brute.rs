//! §5.1 — brute-force resistance of obfuscated conditions.

use super::harness::{default_fleet, flagships, shared_cache, ExperimentError, PROTECT_BASE};
use bombdroid_attacks::brute::{crack, ObfuscatedCondition};
use bombdroid_core::{expect_all, run_fleet, FleetConfig, ProtectConfig};
use bombdroid_dex::MethodRef;
use std::time::Instant;

/// One brute-force row.
#[derive(Debug, Clone)]
pub struct BruteRow {
    /// App name.
    pub app: String,
    /// Obfuscated conditions found.
    pub total: usize,
    /// Cracked within the budget.
    pub cracked: usize,
    /// Hash evaluations spent.
    pub tries: u64,
}

/// Brute-force campaigns against every flagship.
pub fn brute_force(config: ProtectConfig, budget: u64) -> Vec<BruteRow> {
    brute_force_with(default_fleet(0x7ABB), config, budget)
}

/// [`brute_force`] with explicit fleet scheduling: one campaign per
/// flagship.
pub fn brute_force_with(fleet: FleetConfig, config: ProtectConfig, budget: u64) -> Vec<BruteRow> {
    expect_all(run_fleet(
        fleet,
        flagships(),
        |ctx, app| -> Result<BruteRow, ExperimentError> {
            let artifact =
                shared_cache().get_or_protect(&app, &config, PROTECT_BASE + ctx.index as u64)?;
            let report = bombdroid_attacks::brute_force_campaign(&artifact.1, budget);
            Ok(BruteRow {
                app: app.name.clone(),
                total: report.total,
                cracked: report.cracked,
                tries: report.tries,
            })
        },
    ))
}

/// Measures this thread's condition-hash rate: `tries` candidates of
/// [`crack`] against an 8-byte-salted condition (the pipeline's salt
/// length) that none of them satisfies. Records the try count as the
/// counter `brute.calibration.tries` and the wall time as the timing
/// `brute.calibration`, and returns hashes per second. Wall clock, so the
/// value varies by host and run; callers keep it off stdout.
pub fn measure_hash_rate(tries: u64) -> f64 {
    let condition = ObfuscatedCondition {
        method: MethodRef::new("Calibration", "check"),
        pc: 0,
        salt: b"calibrat".to_vec(),
        hc: vec![0; 20],
    };
    let started = Instant::now();
    let tries = crack(std::hint::black_box(&condition), tries).tries;
    let ns = started.elapsed().as_nanos().clamp(1, u128::from(u64::MAX)) as u64;
    bombdroid_obs::counter_add("brute.calibration.tries", tries);
    bombdroid_obs::timing_record("brute.calibration", ns);
    tries as f64 * 1e9 / ns as f64
}
