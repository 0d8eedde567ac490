//! Market simulation: decentralized repackaging detection at fleet scale.
//!
//! The paper's core proposal is that *user devices* do the detecting
//! (§1, §4.2): each triggered bomb degrades the pirated copy and reports
//! back, bad ratings accumulate, and the store takes the listing down.
//!
//! This used to be a self-contained script; it is now a thin driver over
//! the `bombdroid_sim` subsystem. The simulator owns the sharded day
//! loop: sessions fan out over the deterministic fleet engine chunk by
//! chunk, per-session metrics stream through a windowed shard aggregator
//! (metric memory stays O(windows), not O(devices)), and the whole run is
//! reproducible bit-for-bit no matter how many worker threads it gets
//! (`BOMBDROID_THREADS=1` forces the serial schedule).
//!
//! To prove the checkpoint story, the driver snapshots the run at its
//! first chunk boundary, resumes a *second* simulator from that JSON, and
//! asserts both produce byte-identical final reports — the same mechanism
//! lets a million-device campaign survive a kill mid-run.
//!
//! ```sh
//! cargo run --release --example market_simulation
//! ```

use bombdroid::prelude::*;
use bombdroid::sim::MarketState;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // Developer ships a protected app; a pirate re-signs and lists it on a
    // third-party market.
    let app = bombdroid::corpus::flagship::calendar();
    let developer = DeveloperKey::generate(&mut rng);
    let apk = app.apk(&developer);
    let protected = Protector::new(ProtectConfig::default())
        .protect(&apk, &mut rng)
        .expect("protection");
    println!(
        "{} protected with {} bombs; pirate lists a repackaged copy",
        app.name,
        protected.report.bombs_injected()
    );
    // The catalog of double-trigger bombs whose firing rates the simulator
    // measures against the paper's closed-form predictions.
    let catalog = BombCatalog::from_report(&protected.report);
    let signed = protected.package(&developer);
    let pirate = DeveloperKey::generate(&mut rng);
    let pirated = repackage(&signed, &pirate, |_| {});
    let pkg = Arc::new(InstalledPackage::install(&pirated).expect("install"));

    // Every simulated device boots from one pristine session pool: the
    // package body is pre-decoded once and shared across the whole fleet.
    let runner = || VmRunner::new(SessionPool::new(Arc::clone(&pkg), VmOptions::default()));

    let mut config = SimConfig::new(336, 14, 99);
    config.window = 16;
    config.checkpoint_every = 2;
    config.threads = bombdroid::core::env_threads();

    let mut sim = Simulator::new(config, catalog.clone(), runner());
    let mut checkpoint = None;
    let mut last_day = u32::MAX;
    sim.run_with(|s| {
        // First chunk boundary: snapshot the whole folded state.
        if checkpoint.is_none() {
            checkpoint = Some(s.checkpoint_json().expect("chunk boundary"));
        }
        // Publish the windows this chunk sealed, then drop them — only the
        // running total and the open window stay live.
        for w in s.aggregator().drain_windows() {
            let r = &w.recorder;
            eprintln!(
                "[obs] window {:>3} (sessions {}..{}): {} events, {} instr, {} bombs triggered",
                w.index,
                w.start_task,
                w.start_task + w.tasks,
                r.counter_value("vm.events_run"),
                r.counter_value("vm.instr_executed"),
                r.counter_value("vm.bombs_triggered"),
            );
        }
        let m = s.market();
        let day = s.sessions_run() as u64 * 14 / 336;
        if day as u32 != last_day {
            last_day = day as u32;
            println!(
                "day {day:>2}: {} sessions, {} reports to developer, market rating {:.2}",
                s.sessions_run(),
                m.reports,
                m.avg_rating_milli() as f64 / 1000.0,
            );
        }
    });
    let report = sim.report_json().expect("finished");
    summarize(sim.market(), sim.sessions_run());

    // The same folded state, reconstructed from the first checkpoint and
    // replayed — byte-identical report, whatever BOMBDROID_THREADS says.
    if let Some(ckpt) = checkpoint {
        let mut resumed = Simulator::from_checkpoint(&ckpt, runner()).expect("checkpoint parses");
        resumed.run();
        let resumed_report = resumed.report_json().expect("finished");
        assert_eq!(report, resumed_report, "kill+resume must be bit-identical");
        println!("checkpoint/resume verified: resumed report is byte-identical");
    }

    let agg = sim.aggregator();
    let total = agg.total();
    eprintln!(
        "[obs] {} sessions in {} windows; totals: {} events, {} instr, {} piracy reports \
         ({} live metric names)",
        agg.tasks_absorbed(),
        agg.windows_sealed(),
        total.counter_value("vm.events_run"),
        total.counter_value("vm.instr_executed"),
        total.counter_value("vm.piracy_reports"),
        agg.live_metric_names(),
    );

    // Per-bomb measurement vs the closed-form prediction (§6).
    for (entry, stats) in sim.bomb_stats() {
        if stats.outer_sessions == 0 {
            continue;
        }
        println!(
            "bomb {:>3}: measured {:.3} vs predicted {:.3} ({} outer sessions)",
            entry.marker,
            stats.measured_ppm() as f64 / 1e6,
            entry.predicted_ppm as f64 / 1e6,
            stats.outer_sessions,
        );
    }
}

fn summarize(market: &MarketState, sessions: usize) {
    match market.taken_down_day {
        Some(day) => println!(
            "\npirated listing removed after day {day} ({sessions} sessions) — detection was \
             fully decentralized: no market-side similarity analysis, only user devices \
             running their own copies."
        ),
        None => println!("\nlisting survived 14 days (unusual — try another seed)"),
    }
}
