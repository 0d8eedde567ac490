//! The streaming observability contract, proven end-to-end:
//!
//! 1. A windowed [`bombdroid_obs::ShardAggregator`] total is bit-identical
//!    across `BOMBDROID_THREADS` 1/2/8 *and* across window sizes (1, 16,
//!    all-at-once) on a real VM-session fleet workload.
//! 2. Driving 100k+ synthetic sessions through the aggregator keeps live
//!    recorder memory bounded (key count independent of session count)
//!    while the total stays bit-identical to a legacy whole-recorder merge.
//! 3. The flight recorder honors its capacity bound and its panic-hook
//!    dump is a valid `flight.json`.

use bombdroid_core::{run_indexed_windowed, FleetConfig};
use bombdroid_obs as obs;
use bombdroid_runtime::{
    run_session, DeviceEnv, InstalledPackage, SessionPool, UserEventSource, VmOptions,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

fn fixture_pool() -> SessionPool {
    let mut rng = StdRng::seed_from_u64(0x0B5);
    let app = bombdroid_corpus::flagship::calendar();
    let dev = bombdroid_apk::DeveloperKey::generate(&mut rng);
    let apk = app.apk(&dev);
    let pkg = InstalledPackage::install(&apk).expect("install fixture");
    SessionPool::new(pkg, VmOptions::default())
}

fn drive_fleet(pool: &SessionPool, threads: usize, window: usize) -> String {
    let agg = obs::ShardAggregator::new(window);
    let fleet = FleetConfig::serial(0x57AEA).with_threads(threads);
    let out = run_indexed_windowed(fleet, 24, &agg, |ctx| {
        let mut urng = ctx.rng();
        let env = DeviceEnv::sample(&mut urng);
        let mut vm = pool.session(env, ctx.seed);
        let mut source = UserEventSource::new(&vm.pkg);
        run_session(&mut vm, &mut source, &mut urng, 20, 30);
        vm.publish_obs();
        Ok::<_, std::convert::Infallible>(vm.telemetry().events_run)
    });
    assert_eq!(out.len(), 24);
    agg.finish();
    agg.total().to_json(false)
}

#[test]
fn windowed_totals_identical_across_threads_and_window_sizes() {
    if !obs::enabled() {
        return; // BOMBDROID_OBS=off turns the facade into no-ops.
    }
    let pool = fixture_pool();
    // Warm the package's shared decode caches so every measured run sees
    // identical cache state (the first-touch decode counters fire once per
    // process, not once per run).
    drive_fleet(&pool, 1, 0);

    let baseline = drive_fleet(&pool, 1, 0);
    assert!(baseline.contains("fleet.tasks"), "fleet metrics recorded");
    assert!(
        baseline.contains("vm.instr_executed"),
        "vm metrics recorded"
    );
    assert!(
        baseline.contains("vm.pool.sessions"),
        "pool metrics recorded"
    );
    for threads in [1usize, 2, 8] {
        for window in [1usize, 16, 0] {
            assert_eq!(
                drive_fleet(&pool, threads, window),
                baseline,
                "threads={threads} window={window} diverged from serial all-at-once"
            );
        }
    }
}

#[test]
fn aggregator_memory_is_bounded_over_100k_sessions() {
    if !obs::enabled() {
        return;
    }
    // A synthetic session's delta: a bounded metric vocabulary whose
    // values vary per session.
    let delta = |i: u64| {
        let r = obs::Recorder::new();
        r.counter_add("session.events", 3 + i % 17);
        r.counter_add("session.instr", 100 + i % 1009);
        r.counter_add("session.reports", u64::from(i.is_multiple_of(23)));
        r.gauge_set("session.last", i as i64);
        r.record("session.latency", 1 + (i * 2654435761) % 100_000);
        r.record("session.downloads", i % 97);
        r.timing_record("session.run", 1_000 + i % 50_000);
        r
    };

    const SESSIONS: u64 = 100_000;
    let legacy = obs::Recorder::new();
    let agg = obs::ShardAggregator::new(1024);
    let mut peak_live = 0usize;
    let mut live_at_10k = 0usize;
    for i in 0..SESSIONS {
        let d = delta(i);
        legacy.merge_from(&d);
        agg.absorb_next(&d);
        // Streaming consumer: windows are dropped as they seal.
        agg.drain_windows();
        if i.is_multiple_of(1024) {
            peak_live = peak_live.max(agg.live_metric_names());
        }
        if i == 10_000 {
            live_at_10k = agg.live_metric_names();
        }
    }
    agg.finish();
    agg.drain_windows();

    assert_eq!(agg.tasks_absorbed(), SESSIONS as usize);
    assert_eq!(agg.windows_sealed(), (SESSIONS as usize).div_ceil(1024));
    // Memory bound: the live key count is the (bounded) vocabulary of the
    // workload — total + open window — and does not grow with sessions.
    let vocab = 7; // distinct names in `delta`
    assert!(
        peak_live <= 2 * vocab,
        "live metric names grew with session count: {peak_live}"
    );
    assert_eq!(
        agg.live_metric_names(),
        live_at_10k.min(agg.live_metric_names()),
        "live key count at 100k sessions must not exceed the 10k mark"
    );
    // The streamed total is bit-identical to the legacy O(sessions) merge.
    assert_eq!(agg.total().to_json(false), legacy.to_json(false));
}

#[test]
fn flight_recorder_bounds_capacity_and_panic_dump_validates() {
    if !obs::enabled() {
        return;
    }
    obs::flight::set_capacity(8);
    for i in 0..50 {
        obs::flight::note("streaming_obs.test", || format!("event {i}"));
    }
    // Other tests in this binary may note events concurrently; the bound
    // and our most recent event survive regardless.
    let events = obs::flight::snapshot();
    assert!(
        events.len() <= 8,
        "ring exceeded capacity: {}",
        events.len()
    );
    assert!(obs::flight::dropped() > 0, "overflow must count drops");
    assert!(
        events
            .iter()
            .any(|e| e.kind == "streaming_obs.test" && e.detail == "event 49"),
        "most recent event must survive eviction"
    );
    obs::validate_flight(&obs::flight::to_json()).expect("live ring serializes validly");

    // Panic-hook dump: a caught panic still triggers the hook, leaving a
    // valid flight.json at the conventional path.
    let dump = obs::flight::default_dump_path();
    let _ = std::fs::remove_file(&dump);
    obs::flight::install_panic_hook();
    let result = std::panic::catch_unwind(|| panic!("streaming_obs deliberate panic"));
    assert!(result.is_err());
    let text = std::fs::read_to_string(&dump).expect("panic hook wrote flight.json");
    obs::validate_flight(&text).expect("panic dump validates");
    assert!(
        text.contains("deliberate panic"),
        "dump records the panic event"
    );
    // Leave the ring usable for other tests and clean up the artifact.
    std::fs::remove_file(&dump).ok();
    obs::flight::set_capacity(obs::flight::DEFAULT_CAPACITY);

    // The aggregator keeps absorbing normally after a panic elsewhere.
    let agg = Arc::new(obs::ShardAggregator::new(4));
    let r = obs::Recorder::new();
    r.counter_add("post_panic", 1);
    agg.absorb_next(&r);
    assert_eq!(agg.total().counter_value("post_panic"), 1);
}

#[test]
fn windowed_progress_partitions_the_total() {
    if !obs::enabled() {
        return;
    }
    // Windows partition: summing any counter across sealed windows equals
    // the running total, at every seal point.
    let agg = obs::ShardAggregator::new(5);
    let mut window_sum = 0u64;
    let mut rng = StdRng::seed_from_u64(9);
    for i in 0..37u64 {
        let r = obs::Recorder::new();
        r.counter_add("w.events", 1 + rng.gen_range(0..7u64) + i % 3);
        if let Some(w) = agg.absorb_next(&r) {
            window_sum += w.recorder.counter_value("w.events");
            assert_eq!(w.tasks, 5);
        }
    }
    if let Some(w) = agg.finish() {
        window_sum += w.recorder.counter_value("w.events");
        assert_eq!(w.tasks, 37 % 5);
    }
    assert_eq!(window_sum, agg.total().counter_value("w.events"));
}
