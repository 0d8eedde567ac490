//! The loop every workload runs through: timed set-up repetitions, one
//! closed-loop pass over the workload's seeded items, and the checks that
//! turn nondeterminism into failed operations.
//!
//! End-to-end passes run with observability off (its default `Full` mode
//! would grow the global recorder for the whole run). A traced run makes
//! two passes over the same first half of the items from two fresh
//! set-ups: one untraced, one traced through local recorders. The
//! per-layer numbers come from the traced pass, the throughput ratio of
//! the two is the tracing overhead, and their item fingerprints must
//! match exactly.

use bombdroid_obs::{self as obs, ObsMode};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed item of a workload.
#[derive(Debug, Default)]
pub struct Item {
    /// Wall time of the item, seconds.
    pub latency_s: f64,
    /// Throughput units the item completed (apps, sessions, campaigns).
    pub units: f64,
    /// Digest of the item's deterministic outputs and work counts.
    pub fingerprint: u64,
    /// Output checks that failed (empty when all passed).
    pub problems: Vec<String>,
}

/// What a workload reports after its last item.
#[derive(Debug, Default)]
pub struct Report {
    /// Quality guards by end-to-end metric name.
    pub guards: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced pass only) and work counts.
    pub layers: BTreeMap<&'static str, f64>,
    /// Whole-run checks made after the last item.
    pub checks: u64,
    /// Whole-run checks that failed.
    pub check_problems: Vec<String>,
    /// Ungated observations worth printing with the report.
    pub notes: Vec<String>,
}

/// A benchmark workload: seeded inputs, a warm-up, and items.
pub trait Workload {
    /// Everything set-up builds: inputs, the system under test, and
    /// accumulators for guards and layers.
    type State;

    /// Items in a full pass.
    fn len(&self) -> usize;

    /// Builds inputs and warms up by running the first few items on
    /// throwaway state. Returns the state and the warm-up items'
    /// fingerprints, in item order.
    fn setup(&self) -> (Self::State, Vec<u64>);

    /// Runs item `index`. When `traced`, records per-layer data into
    /// `state` through a local obs recorder.
    fn item(&self, state: &mut Self::State, index: usize, traced: bool) -> Item;

    /// Guards, per-layer metrics and whole-run checks after the pass.
    fn report(&self, state: &Self::State, traced: bool) -> Report;
}

/// The result of running one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: items plus whole-run checks.
    pub attempted: u64,
    /// Operations that failed a check or were nondeterministic.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// Per-item latencies of the measured pass, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Units completed per second of item wall time.
    pub throughput_per_s: f64,
    /// Each set-up repetition's wall time, seconds.
    pub setup_s: Vec<f64>,
    /// Guards and layers of the last pass.
    pub report: Report,
    /// Traced runs: throughput lost to tracing, percent of the traced
    /// pass's throughput.
    pub overhead_pct: Option<f64>,
}

impl Outcome {
    fn problem(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

struct Pass<S> {
    state: S,
    items: Vec<Item>,
}

fn run_pass<W: Workload>(w: &W, mut state: W::State, count: usize, traced: bool) -> Pass<W::State> {
    obs::set_mode(if traced { ObsMode::Full } else { ObsMode::Off });
    let items = (0..count).map(|i| w.item(&mut state, i, traced)).collect();
    obs::set_mode(ObsMode::Off);
    Pass { state, items }
}

fn throughput(items: &[Item]) -> f64 {
    let units: f64 = items.iter().map(|i| i.units).sum();
    let busy: f64 = items.iter().map(|i| i.latency_s).sum();
    units / busy
}

/// Runs `w`: `setup_reps` timed set-ups (the last one's state is kept),
/// then one untraced pass, or in a traced run the untraced/traced pair.
pub fn run<W: Workload>(w: &W, trace: bool, setup_reps: usize) -> Outcome {
    obs::set_mode(ObsMode::Off);
    let mut out = Outcome::default();
    let mut kept = None;
    for _ in 0..setup_reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        let built = w.setup();
        out.setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let (state, warm_fps) = kept.expect("at least one set-up");

    let count = if trace { w.len().div_ceil(2) } else { w.len() };
    let measured = run_pass(w, state, count, false);
    let mut last = measured;
    let mut reference: Option<Vec<Item>> = None;
    if trace {
        let (fresh, _) = w.setup();
        let traced = run_pass(w, fresh, count, true);
        let base = throughput(&last.items);
        out.overhead_pct = Some(100.0 * (base / throughput(&traced.items) - 1.0));
        reference = Some(std::mem::replace(&mut last, traced).items);
    }
    let Pass { state, items } = last;
    let timed = reference.as_deref().unwrap_or(&items);
    out.latencies_ms = timed.iter().map(|i| i.latency_s * 1e3).collect();
    out.throughput_per_s = throughput(timed);

    for (i, item) in items.iter().enumerate() {
        out.attempted += 1;
        let mut bad = item.problems.clone();
        if warm_fps.get(i).is_some_and(|&fp| fp != item.fingerprint) {
            bad.push(format!(
                "item {i} differs from its warm-up run on the same seed"
            ));
        }
        if let Some(r) = reference.as_ref().and_then(|r| r.get(i)) {
            out.attempted += 1;
            if !r.problems.is_empty() {
                out.failed += 1;
                out.problem(format!("untraced item {i}: {}", r.problems.join("; ")));
            }
            if r.fingerprint != item.fingerprint {
                bad.push("traced and untraced passes disagree on the same seed".to_string());
            }
        }
        if !bad.is_empty() {
            out.failed += 1;
            out.problem(format!("item {i}: {}", bad.join("; ")));
        }
    }
    out.report = w.report(&state, trace);
    out.attempted += out.report.checks;
    out.failed += out.report.check_problems.len() as u64;
    for p in std::mem::take(&mut out.report.check_problems) {
        out.problem(p);
    }
    out
}

/// Folds `v` into fingerprint `h` (SplitMix64 finalizer over the sum).
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.rotate_left(5) ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds elapsed from `since` to `at`.
pub fn secs(since: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(since).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four 1 ms items; `drift` makes the traced pass (or every pass after
    /// set-up) produce different work than the same seed did before.
    struct Fake {
        traced_drift: bool,
        setup_drift: bool,
    }

    impl Workload for Fake {
        type State = u64;

        fn len(&self) -> usize {
            4
        }

        fn setup(&self) -> (u64, Vec<u64>) {
            let mut scratch = 0;
            let fps = (0..2)
                .map(|i| self.item(&mut scratch, i, false).fingerprint)
                .collect();
            (u64::from(self.setup_drift), fps)
        }

        fn item(&self, offset: &mut u64, index: usize, traced: bool) -> Item {
            let drift = u64::from(traced && self.traced_drift);
            Item {
                latency_s: 1e-3,
                units: 2.0,
                fingerprint: mix(index as u64 + *offset, drift),
                problems: Vec::new(),
            }
        }

        fn report(&self, _: &u64, _: bool) -> Report {
            Report {
                checks: 1,
                ..Report::default()
            }
        }
    }

    fn fake(traced_drift: bool, setup_drift: bool) -> Fake {
        Fake {
            traced_drift,
            setup_drift,
        }
    }

    #[test]
    fn steady_work_passes_every_check() {
        let o = run(&fake(false, false), false, 2);
        assert_eq!((o.attempted, o.failed), (5, 0));
        assert_eq!(o.setup_s.len(), 2);
        assert_eq!(o.latencies_ms.len(), 4);
        assert!((o.throughput_per_s - 2000.0).abs() < 1e-6);
        let t = run(&fake(false, false), true, 1);
        assert_eq!((t.attempted, t.failed), (2 + 2 + 1, 0));
        assert!(t.overhead_pct.expect("traced runs report overhead").abs() < 1e-9);
    }

    #[test]
    fn traced_and_untraced_passes_must_do_the_same_work() {
        let o = run(&fake(true, false), true, 1);
        assert_eq!(o.failed, 2, "{:?}", o.problems);
        assert!(o.problems.iter().any(|p| p.contains("disagree")));
    }

    #[test]
    fn warm_up_items_must_repeat_in_the_pass() {
        let o = run(&fake(false, true), false, 1);
        assert_eq!(o.failed, 2, "{:?}", o.problems);
        assert!(o.problems.iter().all(|p| p.contains("warm-up")));
    }
}
