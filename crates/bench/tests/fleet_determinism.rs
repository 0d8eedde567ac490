//! The fleet engine's determinism contract, proven end-to-end: running an
//! experiment on 1, 2, and 8 worker threads must produce bit-identical
//! rows. Rows are compared through their `Debug` form because some fields
//! are `f64` and may be `NaN` (`NaN != NaN` under `PartialEq`).

use bombdroid_bench::experiments as ex;
use bombdroid_core::{FleetConfig, ProtectConfig};

fn fleet(threads: usize) -> FleetConfig {
    FleetConfig::serial(0xDE7E12).with_threads(threads)
}

#[test]
fn table3_rows_identical_across_thread_counts() {
    let config = ProtectConfig::fast_profile();
    let run = |threads| {
        format!(
            "{:?}",
            ex::table3_with(fleet(threads), config.clone(), 3, 30)
        )
    };
    let one = run(1);
    assert_eq!(one, run(2), "2 workers changed Table 3");
    assert_eq!(one, run(8), "8 workers changed Table 3");
}

#[test]
fn fig5_series_identical_across_thread_counts() {
    let config = ProtectConfig::fast_profile();
    let run = |threads| format!("{:?}", ex::fig5_with(fleet(threads), config.clone(), 5));
    let one = run(1);
    assert_eq!(one, run(2), "2 workers changed Fig. 5");
    assert_eq!(one, run(8), "8 workers changed Fig. 5");
}

/// The observability layer inherits the fleet's determinism: the merged
/// recorder's deterministic view (counters, gauges, histograms, timing
/// *call counts* — everything except wall-clock nanoseconds) must be
/// bit-identical for any worker count.
#[test]
fn merged_metrics_identical_across_thread_counts() {
    use bombdroid_obs as obs;
    use std::sync::Arc;
    if !obs::enabled() {
        return; // BOMBDROID_OBS=off turns the facade into no-ops.
    }
    let config = ProtectConfig::fast_profile();
    // Warm the process-wide protection cache first so every measured run
    // sees identical cache state (all hits). Without this the first run
    // would additionally record the protection pipeline's own counters
    // (cache.protects, pipeline.*, profile.*) and the comparison would
    // measure cache population order, not fleet determinism.
    ex::table3_with(fleet(1), config.clone(), 3, 30);
    ex::fig5_with(fleet(1), config.clone(), 5);
    let run = |threads| {
        let rec = Arc::new(obs::Recorder::new());
        obs::with_recorder(rec.clone(), || {
            ex::table3_with(fleet(threads), config.clone(), 3, 30);
            ex::fig5_with(fleet(threads), config.clone(), 5);
        });
        rec.to_json(false)
    };
    let one = run(1);
    assert!(one.contains("fleet.tasks"), "fleet metrics recorded: {one}");
    assert!(one.contains("vm.instr_executed"), "vm metrics recorded");
    assert_eq!(one, run(2), "2 workers changed the merged metrics");
    assert_eq!(one, run(8), "8 workers changed the merged metrics");
}
