//! Deterministic parallel fleet engine.
//!
//! Every experiment in the paper reduces to the same shape: run `N`
//! independent seeded tasks (protect an app, simulate a user session, fuzz
//! for an hour, run an analyst phase) and fold the per-task results into a
//! table row or figure series. This module extracts that shape into one
//! scheduler so the experiments stay serial-looking while the work runs on a
//! worker pool.
//!
//! # Determinism contract
//!
//! Results are **bit-identical regardless of thread count**. Two properties
//! guarantee this:
//!
//! 1. Each task's randomness comes only from a seed derived from
//!    `(base_seed, task index)` via [`derive_seed`] (a SplitMix64 mix), never
//!    from scheduler state, thread ids, or time.
//! 2. Each task writes its result into the slot for its index; the returned
//!    vector is always in task order, independent of completion order.
//!
//! Workers claim indices from a shared atomic counter, so the *assignment* of
//! tasks to threads is racy — but nothing observable depends on it.
//!
//! # Observability
//!
//! Each task records into its own `bombdroid-obs` recorder (installed as
//! the task's active recorder, so pipeline spans and VM counters inside
//! the task land there too): `fleet.tasks` / `fleet.task_errors` /
//! `fleet.task_panics` counters plus `fleet.queue_wait` and
//! `fleet.task_run` timings. Per-task recorders are allocated at claim
//! time and folded **streamingly, in task-index order**, into the fleet
//! caller's recorder (or, via [`run_range_windowed`], into an
//! [`obs::ShardAggregator`]): a completed task whose index is not yet
//! next parks its recorder in a reorder buffer until the gap closes, so
//! live recorder memory is O(workers + reorder depth), not O(tasks).
//! Because the fold order is the task index order, the merged content is
//! bit-identical for any thread count, extending the determinism contract
//! to the metrics themselves (wall-clock nanoseconds are kept in a
//! separate timing section that deterministic exports omit). The
//! scheduling-dependent reorder-buffer peak depth goes to the flight
//! recorder as a diagnostic, never into the deterministic sections.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bombdroid_obs as obs;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// How a fleet run is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads. `1` runs the tasks inline on the calling thread.
    pub threads: usize,
    /// Root seed; each task gets `derive_seed(base_seed, index)`.
    pub base_seed: u64,
}

impl FleetConfig {
    /// One worker per available CPU (at least one).
    pub fn new(base_seed: u64) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        FleetConfig { threads, base_seed }
    }

    /// Run every task inline on the calling thread.
    pub fn serial(base_seed: u64) -> Self {
        FleetConfig {
            threads: 1,
            base_seed,
        }
    }

    /// Same seed, explicit worker count (clamped to at least one).
    pub fn with_threads(self, threads: usize) -> Self {
        FleetConfig {
            threads: threads.max(1),
            ..self
        }
    }

    /// Like [`FleetConfig::new`], but honoring the `BOMBDROID_THREADS`
    /// environment variable when set (see [`env_threads`]). The standard
    /// constructor for campaign-style entry points — experiments and the
    /// guided fuzzer — whose results must not depend on the worker count.
    pub fn from_env(base_seed: u64) -> Self {
        let cfg = FleetConfig::new(base_seed);
        match env_threads() {
            Some(n) => cfg.with_threads(n),
            None => cfg,
        }
    }
}

/// The worker count requested via `BOMBDROID_THREADS`, if the variable is
/// set and parses. `1` reproduces a serial driver exactly — the fleet
/// determinism contract makes results identical for every value.
pub fn env_threads() -> Option<usize> {
    std::env::var("BOMBDROID_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
}

/// SplitMix64 finalizer: mixes `base` and `index` into an independent
/// per-task seed. Adjacent indices land in statistically unrelated streams,
/// so tasks can safely use sequential indices.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Handed to each task: its position in the fleet and its private seed.
#[derive(Debug, Clone, Copy)]
pub struct TaskCtx {
    /// Index of this task in the input order (and in the result vector).
    pub index: usize,
    /// Seed derived from the fleet's base seed and `index`.
    pub seed: u64,
}

impl TaskCtx {
    /// A fresh deterministic RNG for this task.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// Why a single task produced no result.
pub enum FleetError<E> {
    /// The task returned its own typed error.
    Task(E),
    /// The task panicked; the payload message is preserved.
    Panicked(String),
}

impl<E: fmt::Debug> fmt::Debug for FleetError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Task(e) => write!(f, "Task({e:?})"),
            FleetError::Panicked(msg) => write!(f, "Panicked({msg:?})"),
        }
    }
}

impl<E: fmt::Display> fmt::Display for FleetError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Task(e) => write!(f, "task failed: {e}"),
            FleetError::Panicked(msg) => write!(f, "task panicked: {msg}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for FleetError<E> {}

fn elapsed_ns(since: &Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Where the streaming fold sends each task's recorder delta.
enum FoldSink<'a> {
    /// Merge straight into the fleet caller's recorder ([`run_fleet`]).
    Parent(Arc<obs::Recorder>),
    /// Absorb into a windowed aggregator ([`run_range_windowed`]).
    Windowed(&'a obs::ShardAggregator),
}

impl FoldSink<'_> {
    fn absorb(&self, rec: &obs::Recorder) {
        match self {
            FoldSink::Parent(parent) => parent.merge_from(rec),
            FoldSink::Windowed(agg) => {
                agg.absorb_next(rec);
            }
        }
    }
}

/// Reorder buffer for the streaming obs fold: completed task recorders
/// wait here until every lower index has been folded, so the sink always
/// sees deltas in task-index order no matter how workers interleave.
struct ObsFold {
    next: usize,
    pending: BTreeMap<usize, Arc<obs::Recorder>>,
    peak_pending: usize,
}

impl ObsFold {
    fn new() -> Self {
        ObsFold {
            next: 0,
            pending: BTreeMap::new(),
            peak_pending: 0,
        }
    }

    /// Parks `rec` as task `index`'s delta, then drains every consecutive
    /// delta starting at `next` into the sink.
    fn complete(&mut self, index: usize, rec: Arc<obs::Recorder>, sink: &FoldSink<'_>) {
        self.pending.insert(index, rec);
        self.peak_pending = self.peak_pending.max(self.pending.len());
        while let Some(rec) = self.pending.remove(&self.next) {
            sink.absorb(&rec);
            self.next += 1;
        }
    }
}

/// Runs `tasks` on `config.threads` workers and returns per-task results in
/// task order. Each task sees only its [`TaskCtx`]; a panicking or failing
/// task occupies its slot with a [`FleetError`] without taking down the rest
/// of the fleet.
pub fn run_fleet<T, R, E, F>(
    config: FleetConfig,
    tasks: Vec<T>,
    f: F,
) -> Vec<Result<R, FleetError<E>>>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(TaskCtx, T) -> Result<R, E> + Sync,
{
    let sink = FoldSink::Parent(obs::current());
    run_fleet_inner(config, tasks, sink, 0, f)
}

/// Runs the index-only tasks of `range` with per-task metrics folded into
/// `aggregator` instead of the caller's recorder — the streaming shape for
/// fleet-scale runs. The aggregator seals a [`obs::WindowSummary`] every N
/// tasks (its window size) and keeps a running total, so live metric
/// memory stays O(windows), not O(tasks); its total is bit-identical to
/// what [`run_fleet`] would have merged into the caller's recorder for the
/// same tasks.
///
/// Task `i` of `range` sees `TaskCtx { index: i, seed: derive_seed(base_seed,
/// i) }` — the same context it would see inside a single `0..n` run. This
/// is the resumable-shard shape: a caller that processes `0..k`,
/// checkpoints, and later continues with `k..n` produces bit-identical
/// per-task results and aggregator content to one uninterrupted `0..n`
/// run, because nothing about a task depends on where its chunk started.
pub fn run_range_windowed<R, E, F>(
    config: FleetConfig,
    range: std::ops::Range<usize>,
    aggregator: &obs::ShardAggregator,
    f: F,
) -> Vec<Result<R, FleetError<E>>>
where
    R: Send,
    E: Send,
    F: Fn(TaskCtx) -> Result<R, E> + Sync,
{
    let offset = range.start;
    run_fleet_inner(
        config,
        (0..range.len()).collect(),
        FoldSink::Windowed(aggregator),
        offset,
        |ctx, _i: usize| f(ctx),
    )
}

fn run_fleet_inner<T, R, E, F>(
    config: FleetConfig,
    tasks: Vec<T>,
    sink: FoldSink<'_>,
    index_offset: usize,
    f: F,
) -> Vec<Result<R, FleetError<E>>>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(TaskCtx, T) -> Result<R, E> + Sync,
{
    let n = tasks.len();
    // Slots claimed once each via the atomic cursor; Mutex keeps it safe
    // without unsafe cells, and the per-slot cost is trivial next to any
    // real task.
    type ResultSlot<R, E> = Mutex<Option<Result<R, FleetError<E>>>>;
    let task_slots: Vec<Mutex<Option<T>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let result_slots: Vec<ResultSlot<R, E>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    // Streaming obs fold (see module docs): recorders are created when a
    // task is claimed and folded into the sink as soon as their index is
    // next, so live recorder count is bounded by workers + reorder depth.
    let recording = obs::enabled();
    let fold = Mutex::new(ObsFold::new());
    let fleet_start = Instant::now();

    let run_one = |index: usize| {
        let task = task_slots[index]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("fleet task slot claimed twice");
        let global = index_offset + index;
        let ctx = TaskCtx {
            index: global,
            seed: derive_seed(config.base_seed, global as u64),
        };
        let run_task = |task: T| {
            obs::counter_add("fleet.tasks", 1);
            obs::timing_record("fleet.queue_wait", elapsed_ns(&fleet_start));
            let run_start = Instant::now();
            let outcome = match catch_unwind(AssertUnwindSafe(|| f(ctx, task))) {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(e)) => {
                    obs::counter_add("fleet.task_errors", 1);
                    obs::flight::note("fleet.task_error", || format!("task #{index}"));
                    Err(FleetError::Task(e))
                }
                Err(payload) => {
                    let msg = panic_message(payload);
                    obs::counter_add("fleet.task_panics", 1);
                    obs::flight::note("fleet.task_panic", || format!("task #{index}: {msg}"));
                    Err(FleetError::Panicked(msg))
                }
            };
            obs::timing_record("fleet.task_run", elapsed_ns(&run_start));
            outcome
        };
        let outcome = if recording {
            let rec = Arc::new(obs::Recorder::new());
            let outcome = obs::with_recorder(rec.clone(), || run_task(task));
            fold.lock()
                .unwrap_or_else(|e| e.into_inner())
                .complete(index, rec, &sink);
            outcome
        } else {
            run_task(task)
        };
        *result_slots[index]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(outcome);
    };

    let worker = || loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if index >= n {
            break;
        }
        run_one(index);
    };

    let workers = config.threads.max(1).min(n.max(1));
    if workers <= 1 {
        worker();
    } else {
        crossbeam::scope(|s| {
            for _ in 0..workers {
                s.spawn(|_| worker());
            }
        })
        .expect("fleet worker pool panicked outside a task");
    }

    if recording {
        let fold = fold.into_inner().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(fold.next, n, "streaming fold must drain every task");
        // Peak reorder depth is scheduling-dependent: a diagnostic for the
        // flight recorder, never a deterministic metric.
        obs::flight::note("fleet.fold", || {
            format!(
                "tasks={n} workers={workers} peak_pending={}",
                fold.peak_pending
            )
        });
    }

    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("fleet task never ran")
        })
        .collect()
}

/// Deterministic parallel map: applies `f` to each task on up to `threads`
/// workers and returns the results in input order, regardless of scheduling.
///
/// This is [`run_fleet`] without the seed/obs/panic-isolation machinery —
/// for compute fan-out whose tasks carry everything they need (the protect
/// service's drain, whose jobs derive their seeds from their own inputs).
/// With `threads <= 1` (or a single task) everything runs inline on the
/// calling thread; a panicking task propagates to the caller either way.
pub fn run_map<T, R, F>(threads: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = tasks.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return tasks.into_iter().map(f).collect();
    }
    let task_slots: Vec<Mutex<Option<T>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let result_slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let worker = || loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        if index >= n {
            break;
        }
        let task = task_slots[index]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("map task slot claimed twice");
        *result_slots[index]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(f(task));
    };
    crossbeam::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| worker());
        }
    })
    .expect("map worker panicked");
    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("map task never ran")
        })
        .collect()
}

/// Unwraps a fleet's results, panicking with the index and error of the
/// first failed task. For harness code where any task failure is fatal.
pub fn expect_all<R, E: fmt::Display>(results: Vec<Result<R, FleetError<E>>>) -> Vec<R> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(v) => v,
            Err(e) => panic!("fleet task #{i} failed: {e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_are_in_task_order() {
        let cfg = FleetConfig::serial(7).with_threads(4);
        let out = expect_all(run_fleet(cfg, (0..64).collect(), |ctx, _: usize| {
            Ok::<_, std::convert::Infallible>(ctx.index * 2)
        }));
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let draw = |ctx: TaskCtx, _: usize| {
            let mut rng = ctx.rng();
            Ok::<_, std::convert::Infallible>(
                (0..32).fold(0u64, |acc, _| acc.wrapping_add(rng.gen::<u64>())),
            )
        };
        let run = |threads| {
            let cfg = FleetConfig::serial(0xF1EE7).with_threads(threads);
            expect_all(run_fleet(cfg, (0..40).collect(), draw))
        };
        let (one, two, eight) = (run(1), run(2), run(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn derived_seeds_differ_between_tasks() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "seed derivation must not collide");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0), "base seed matters");
    }

    #[test]
    fn task_errors_and_panics_fill_their_slots() {
        let cfg = FleetConfig::serial(1).with_threads(3);
        let out = run_fleet(cfg, (0..6).collect(), |ctx, _: usize| match ctx.index {
            2 => Err("typed failure".to_string()),
            4 => panic!("task 4 exploded"),
            i => Ok(i as u32),
        });
        assert!(matches!(out[0], Ok(0)));
        assert!(matches!(out[2], Err(FleetError::Task(ref m)) if m == "typed failure"));
        assert!(
            matches!(out[4], Err(FleetError::Panicked(ref m)) if m.contains("task 4 exploded"))
        );
        assert!(matches!(out[5], Ok(5)));
    }

    #[test]
    fn fleet_metrics_merge_into_callers_recorder() {
        if !obs::enabled() {
            return; // BOMBDROID_OBS=off disables recording.
        }
        let rec = Arc::new(obs::Recorder::new());
        obs::with_recorder(rec.clone(), || {
            let cfg = FleetConfig::serial(1).with_threads(3);
            let out = run_fleet(cfg, (0..6).collect(), |ctx, _: usize| match ctx.index {
                2 => Err("typed failure".to_string()),
                4 => panic!("metrics task exploded"),
                i => Ok(i as u32),
            });
            assert_eq!(out.len(), 6);
        });
        assert_eq!(rec.counter_value("fleet.tasks"), 6);
        assert_eq!(rec.counter_value("fleet.task_errors"), 1);
        assert_eq!(rec.counter_value("fleet.task_panics"), 1);
        assert_eq!(rec.timing_calls("fleet.queue_wait"), 6);
        assert_eq!(rec.timing_calls("fleet.task_run"), 6);
        // Nothing leaked into the global recorder's fleet counters from
        // this scoped run beyond what other tests may add themselves.
    }

    #[test]
    fn windowed_fold_matches_direct_merge_and_seals_windows() {
        if !obs::enabled() {
            return; // BOMBDROID_OBS=off disables recording.
        }
        let work = |ctx: TaskCtx| {
            obs::counter_add("test.windowed.work", 1 + ctx.index as u64 % 3);
            obs::record("test.windowed.h", ctx.seed % 100);
            Ok::<_, std::convert::Infallible>(ctx.index)
        };

        // Direct shape: everything merges into the caller's recorder.
        let direct = Arc::new(obs::Recorder::new());
        obs::with_recorder(direct.clone(), || {
            expect_all(run_fleet(
                FleetConfig::serial(42).with_threads(3),
                (0..20).collect(),
                |ctx, _: usize| work(ctx),
            ));
        });

        // Streaming shape: same tasks through a windowed aggregator.
        let agg = obs::ShardAggregator::new(8);
        let caller = Arc::new(obs::Recorder::new());
        obs::with_recorder(caller.clone(), || {
            expect_all(run_range_windowed(
                FleetConfig::serial(42).with_threads(3),
                0..20,
                &agg,
                work,
            ));
        });
        agg.finish();

        assert_eq!(agg.tasks_absorbed(), 20);
        assert_eq!(
            agg.windows_sealed(),
            3,
            "20 tasks / window of 8 → 2 full + 1 tail"
        );
        assert_eq!(
            agg.total().to_json(false),
            direct.to_json(false),
            "aggregator total must be bit-identical to the direct merge"
        );
        // Windowed runs bypass the caller's recorder entirely.
        assert_eq!(caller.counter_value("fleet.tasks"), 0);
    }

    #[test]
    fn range_chunks_reproduce_an_uninterrupted_run() {
        if !obs::enabled() {
            return; // BOMBDROID_OBS=off disables recording.
        }
        let work = |ctx: TaskCtx| {
            let mut rng = ctx.rng();
            obs::counter_add("test.range.work", 1);
            obs::record("test.range.h", ctx.seed % 97);
            Ok::<_, std::convert::Infallible>((ctx.index, rng.gen::<u64>()))
        };

        let whole_agg = obs::ShardAggregator::new(8);
        let whole = expect_all(run_range_windowed(
            FleetConfig::serial(0xCAFE).with_threads(4),
            0..24,
            &whole_agg,
            work,
        ));
        whole_agg.finish();

        // Same range split at an arbitrary (non-window-aligned chunk) point;
        // per-task results and aggregator totals must not notice.
        let split_agg = obs::ShardAggregator::new(8);
        let mut split = expect_all(run_range_windowed(
            FleetConfig::serial(0xCAFE).with_threads(2),
            0..13,
            &split_agg,
            work,
        ));
        split.extend(expect_all(run_range_windowed(
            FleetConfig::serial(0xCAFE),
            13..24,
            &split_agg,
            work,
        )));
        split_agg.finish();

        assert_eq!(whole, split);
        assert_eq!(
            whole_agg.total().to_json(false),
            split_agg.total().to_json(false)
        );
        assert_eq!(whole_agg.window_digests(), split_agg.window_digests());
        // Global indices flow into TaskCtx unchanged.
        assert_eq!(whole[13].0, 13);
    }

    #[test]
    fn tasks_move_owned_values() {
        let cfg = FleetConfig::serial(3).with_threads(2);
        let tasks: Vec<String> = (0..8).map(|i| format!("task-{i}")).collect();
        let out = expect_all(run_fleet(cfg, tasks, |ctx, name| {
            Ok::<_, std::convert::Infallible>(format!("{name}@{}", ctx.index))
        }));
        assert_eq!(out[3], "task-3@3");
    }
}
