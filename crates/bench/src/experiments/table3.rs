//! Table 3 — time to the first triggered bomb in user sessions.

use super::harness::{
    default_fleet, flagships, shared_cache, time_to_first_bomb, ExperimentError, PROTECT_BASE,
};
use crate::fixed_keys;
use bombdroid_apk::repackage;
use bombdroid_core::{derive_seed, expect_all, run_fleet, FleetConfig, ProtectConfig};
use bombdroid_runtime::{InstalledPackage, SessionPool, VmOptions};

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// App name.
    pub app: String,
    /// Fastest first trigger (seconds).
    pub min_s: f64,
    /// Slowest first trigger (seconds).
    pub max_s: f64,
    /// Mean first trigger (seconds).
    pub avg_s: f64,
    /// Runs in which a bomb fired before the cap.
    pub successes: usize,
    /// Total runs.
    pub runs: usize,
}

/// Regenerates Table 3: `runs` user sessions per flagship on freshly
/// sampled devices, measuring the time to the first triggered bomb
/// (cap: `cap_minutes`, the paper uses 60).
pub fn table3(config: ProtectConfig, runs: usize, cap_minutes: u64) -> Vec<Table3Row> {
    table3_with(default_fleet(0x7AB3), config, runs, cap_minutes)
}

/// [`table3`] with explicit fleet scheduling: one task per flagship; the
/// per-run session seeds derive from the task seed, so rows are identical
/// for any worker count.
pub fn table3_with(
    fleet: FleetConfig,
    config: ProtectConfig,
    runs: usize,
    cap_minutes: u64,
) -> Vec<Table3Row> {
    let (_, pirate) = fixed_keys();
    expect_all(run_fleet(
        fleet,
        flagships(),
        |ctx, app| -> Result<Table3Row, ExperimentError> {
            let artifact =
                shared_cache().get_or_protect(&app, &config, PROTECT_BASE + ctx.index as u64)?;
            // Users play the *repackaged* app (the detection scenario).
            let pirated = repackage(&artifact.1, &pirate, |_| {});
            // All of this task's sessions mint from one pristine pool:
            // bit-identical to cold boots, but the package is decoded once.
            let pool = SessionPool::new(
                std::sync::Arc::new(InstalledPackage::install(&pirated)?),
                VmOptions::default(),
            );
            let mut times = Vec::new();
            for run in 0..runs {
                let seed = derive_seed(ctx.seed, run as u64);
                if let Some(ms) = time_to_first_bomb(&pool, seed, cap_minutes) {
                    times.push(ms as f64 / 1_000.0);
                }
            }
            let successes = times.len();
            let (min_s, max_s, avg_s) = if times.is_empty() {
                (f64::NAN, f64::NAN, f64::NAN)
            } else {
                (
                    times.iter().cloned().fold(f64::INFINITY, f64::min),
                    times.iter().cloned().fold(0.0, f64::max),
                    times.iter().sum::<f64>() / successes as f64,
                )
            };
            Ok(Table3Row {
                app: app.name.clone(),
                min_s,
                max_s,
                avg_s,
                successes,
                runs,
            })
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_users_trigger_quickly() {
        let rows = table3(ProtectConfig::fast_profile(), 5, 60);
        let (succ, runs) = rows
            .iter()
            .fold((0, 0), |acc, r| (acc.0 + r.successes, acc.1 + r.runs));
        // The paper reports 50/50 everywhere with human testers who play
        // until a bomb fires; our scripted users explore less aggressively,
        // so a small per-device miss rate remains (documented in
        // EXPERIMENTS.md). Require a high aggregate success rate.
        assert!(
            succ * 10 >= runs * 8,
            "only {succ}/{runs} sessions triggered a bomb"
        );
        for r in &rows {
            assert!(r.successes > 0, "{}: no session triggered any bomb", r.app);
            assert!(r.min_s < 900.0, "{}: min {}s too slow", r.app, r.min_s);
        }
    }
}
