//! The metrics registry: named counters, gauges, histograms, and timings.
//!
//! A [`Recorder`] is the unit of aggregation. The process has one global
//! recorder; the fleet engine gives every task its own and folds them into
//! the caller's recorder (or a [`crate::stream::ShardAggregator`]) in
//! task-index order, which keeps the merged content bit-identical for any
//! worker count (see the determinism contract in the crate docs).
//!
//! Name lookups take a read lock on a `BTreeMap` and operate on the handle
//! in place — the hot facade path (`counter_add`/`record`/`timing_record`
//! on an existing name) performs no allocation and no `Arc` clone; the
//! name's `String` key is allocated once, on first insertion, under the
//! write lock. Everything is keyed and exported in sorted name order so
//! two recorders with the same content serialize identically.

use crate::hist::{bucket_floor, bucket_index, Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Version stamped into every `metrics.json`; bump on breaking schema
/// changes so downstream diffs fail loudly instead of silently.
pub const SCHEMA_VERSION: u64 = 1;

/// Wall-clock statistics for one span or timing: how often it ran, for how
/// long in total, the shortest and longest interval, and a log-bucketed
/// latency distribution. `calls` is deterministic (it counts events); the
/// nanosecond fields are wall-clock and therefore excluded from the
/// deterministic export view.
#[derive(Debug)]
pub struct TimingStat {
    calls: AtomicU64,
    ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for TimingStat {
    fn default() -> Self {
        TimingStat {
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl TimingStat {
    /// Records one timed interval.
    pub fn record(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded intervals.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total wall-clock nanoseconds across all intervals.
    pub fn total_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Approximate nearest-rank percentile of the per-call latency: the
    /// floor of the log bucket the rank lands in, clamped to the shortest
    /// and longest recorded interval. The top rank is the longest interval
    /// itself, so a single call reports its own duration and no percentile
    /// exceeds the maximum. `0` when no interval was recorded. `p` is in
    /// percent (e.g. `50.0`, `95.0`).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let count = self.calls();
        let min = self.min_ns.load(Ordering::Relaxed);
        let max = self.max_ns.load(Ordering::Relaxed);
        // Restored stats carry calls but no intervals (`min > max`).
        if count == 0 || min > max {
            return 0;
        }
        let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
        if rank == count {
            return max;
        }
        let mut cum = 0u64;
        let bucket = self
            .buckets
            .iter()
            .position(|b| {
                cum += b.load(Ordering::Relaxed);
                cum >= rank
            })
            .unwrap_or(BUCKETS - 1);
        bucket_floor(bucket).clamp(min, max)
    }

    /// Adds `n` calls with no wall-clock samples — the snapshot-restore
    /// path. The deterministic export view carries only the call count, so
    /// this is all a restore can (and needs to) reproduce.
    fn add_calls(&self, n: u64) {
        self.calls.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds every interval of `other` into `self` (commutative).
    pub fn merge_from(&self, other: &TimingStat) {
        self.calls.fetch_add(other.calls(), Ordering::Relaxed);
        self.ns.fetch_add(other.total_ns(), Ordering::Relaxed);
        self.min_ns
            .fetch_min(other.min_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        for (i, b) in other.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

type Named<T> = RwLock<BTreeMap<String, Arc<T>>>;

/// Runs `f` on the named handle. The fast path (name already present) takes
/// only the read lock and never allocates; the slow path allocates the
/// `String` key once under the write lock.
fn with_handle<T: Default, R>(map: &Named<T>, name: &str, f: impl FnOnce(&T) -> R) -> R {
    {
        let read = map.read().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = read.get(name) {
            return f(h);
        }
    }
    let mut write = map.write().unwrap_or_else(|e| e.into_inner());
    let h = write
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(T::default()));
    f(h)
}

fn handle<T: Default>(map: &Named<T>, name: &str) -> Arc<T> {
    {
        let read = map.read().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = read.get(name) {
            return h.clone();
        }
    }
    let mut write = map.write().unwrap_or_else(|e| e.into_inner());
    write
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(T::default()))
        .clone()
}

fn sorted<T>(map: &Named<T>) -> Vec<(String, Arc<T>)> {
    map.read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// A set of named metrics. Cheap to create, safe to share across threads,
/// mergeable into another recorder.
#[derive(Debug, Default)]
pub struct Recorder {
    counters: Named<AtomicU64>,
    gauges: Named<AtomicI64>,
    histograms: Named<Histogram>,
    timings: Named<TimingStat>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        with_handle(&self.counters, name, |c| {
            c.fetch_add(delta, Ordering::Relaxed);
        });
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: i64) {
        with_handle(&self.gauges, name, |g| {
            g.store(value, Ordering::Relaxed);
        });
    }

    /// Records `value` into the named log-bucketed histogram.
    pub fn record(&self, name: &str, value: u64) {
        with_handle(&self.histograms, name, |h| h.record(value));
    }

    /// Records one timed interval of `ns` nanoseconds under `name`.
    pub fn timing_record(&self, name: &str, ns: u64) {
        with_handle(&self.timings, name, |t| t.record(ns));
    }

    /// Current value of a counter (`0` if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        with_handle(&self.counters, name, |c| c.load(Ordering::Relaxed))
    }

    /// Current value of a gauge (`0` if never set).
    pub fn gauge_value(&self, name: &str) -> i64 {
        with_handle(&self.gauges, name, |g| g.load(Ordering::Relaxed))
    }

    /// Call count of a timing (`0` if never recorded).
    pub fn timing_calls(&self, name: &str) -> u64 {
        with_handle(&self.timings, name, |t| t.calls())
    }

    /// Total wall-clock nanoseconds of a timing.
    pub fn timing_total_ns(&self, name: &str) -> u64 {
        with_handle(&self.timings, name, |t| t.total_ns())
    }

    /// Approximate per-call latency percentile of a timing (bucket floor).
    pub fn timing_percentile_ns(&self, name: &str, p: f64) -> u64 {
        with_handle(&self.timings, name, |t| t.percentile_ns(p))
    }

    /// The named histogram handle (created empty if absent).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        handle(&self.histograms, name)
    }

    /// Number of distinct metric names across every section. The streaming
    /// aggregation tests use this as the memory-footprint proxy: a bounded
    /// workload vocabulary must keep this bounded no matter how many
    /// sessions fold in.
    pub fn metric_names(&self) -> usize {
        fn len<T>(m: &Named<T>) -> usize {
            m.read().unwrap_or_else(|e| e.into_inner()).len()
        }
        len(&self.counters) + len(&self.gauges) + len(&self.histograms) + len(&self.timings)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metric_names() == 0
    }

    /// Folds every metric of `other` into `self`: counters and timings add,
    /// histograms merge bucket-wise, gauges overwrite (`other` wins). All
    /// operations except the gauge overwrite commute; callers that need
    /// determinism (the fleet engine) merge in task-index order.
    pub fn merge_from(&self, other: &Recorder) {
        for (name, c) in sorted(&other.counters) {
            self.counter_add(&name, c.load(Ordering::Relaxed));
        }
        for (name, g) in sorted(&other.gauges) {
            self.gauge_set(&name, g.load(Ordering::Relaxed));
        }
        for (name, h) in sorted(&other.histograms) {
            with_handle(&self.histograms, &name, |mine| mine.merge_from(&h));
        }
        for (name, t) in sorted(&other.timings) {
            with_handle(&self.timings, &name, |mine| mine.merge_from(&t));
        }
    }

    /// Rebuilds a recorder from a parsed deterministic export
    /// (`to_json(false)`). The round trip is exact: re-exporting the
    /// restored recorder with `to_json(false)` reproduces the original
    /// bytes. Wall-clock timing fields were never exported, so only the
    /// timing call counts come back — which is precisely the deterministic
    /// view. This is the checkpoint-restore path; see
    /// [`crate::stream::AggregatorSnapshot`].
    pub fn from_deterministic_json(doc: &crate::json::JsonValue) -> Result<Recorder, String> {
        use crate::json::JsonValue;
        let int = |v: &JsonValue, ctx: &str| -> Result<u64, String> {
            v.as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("recorder restore: {ctx} is not a u64"))
        };
        let section = |name: &str| -> Result<Vec<(String, JsonValue)>, String> {
            doc.get(name)
                .and_then(JsonValue::as_object)
                .map(|m| m.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
                .ok_or_else(|| format!("recorder restore: missing {name:?} object"))
        };
        let version = int(
            doc.get("schema_version").unwrap_or(&JsonValue::Null),
            "schema_version",
        )?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "recorder restore: schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let rec = Recorder::new();
        for (name, v) in section("counters")? {
            rec.counter_add(&name, int(&v, &name)?);
        }
        for (name, v) in section("gauges")? {
            let g = v
                .as_int()
                .and_then(|i| i64::try_from(i).ok())
                .ok_or_else(|| format!("recorder restore: gauge {name:?} is not an i64"))?;
            rec.gauge_set(&name, g);
        }
        for (name, v) in section("histograms")? {
            let field = |k: &str| int(v.get(k).unwrap_or(&JsonValue::Null), k);
            let buckets = v
                .get("buckets")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("recorder restore: histogram {name:?} has no buckets"))?
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("recorder restore: bad bucket in {name:?}"))?;
                    Ok((
                        int(&pair[0], "bucket index")? as usize,
                        int(&pair[1], "bucket count")?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            rec.histogram(&name).absorb_raw(
                field("count")?,
                field("sum")?,
                field("min")?,
                field("max")?,
                &buckets,
            );
        }
        for (name, v) in section("timings")? {
            let calls = int(
                v.get("calls").unwrap_or(&crate::json::JsonValue::Null),
                "calls",
            )?;
            with_handle(&rec.timings, &name, |t| t.add_calls(calls));
        }
        Ok(rec)
    }

    /// Serializes the recorder as schema-versioned JSON (sorted keys, so
    /// equal content means equal bytes).
    ///
    /// With `include_timings` false, wall-clock fields (`total_ns`,
    /// `p50_ns`, `p95_ns`) are omitted and the output is fully
    /// deterministic for deterministic workloads — this is the view
    /// `fleet_determinism` diffs across thread counts, and the view the
    /// streaming-aggregation tests compare across window sizes.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));

        out.push_str("  \"counters\": {");
        let counters = sorted(&self.counters);
        push_entries(&mut out, counters.len(), |out, i| {
            let (name, c) = &counters[i];
            out.push_str(&format!(
                "\"{}\": {}",
                escape_json(name),
                c.load(Ordering::Relaxed)
            ));
        });
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        let gauges = sorted(&self.gauges);
        push_entries(&mut out, gauges.len(), |out, i| {
            let (name, g) = &gauges[i];
            out.push_str(&format!(
                "\"{}\": {}",
                escape_json(name),
                g.load(Ordering::Relaxed)
            ));
        });
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        let hists = sorted(&self.histograms);
        push_entries(&mut out, hists.len(), |out, i| {
            let (name, h) = &hists[i];
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(b, n)| format!("[{b}, {n}]"))
                .collect();
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{}]}}",
                escape_json(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                buckets.join(", ")
            ));
        });
        out.push_str("},\n");

        out.push_str("  \"timings\": {");
        let timings = sorted(&self.timings);
        push_entries(&mut out, timings.len(), |out, i| {
            let (name, t) = &timings[i];
            if include_timings {
                out.push_str(&format!(
                    "\"{}\": {{\"calls\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}}}",
                    escape_json(name),
                    t.calls(),
                    t.total_ns(),
                    t.percentile_ns(50.0),
                    t.percentile_ns(95.0)
                ));
            } else {
                out.push_str(&format!(
                    "\"{}\": {{\"calls\": {}}}",
                    escape_json(name),
                    t.calls()
                ));
            }
        });
        out.push_str("}\n}\n");
        out
    }

    /// Renders a human-readable summary table (the block `repro` appends to
    /// its output).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let counters = sorted(&self.counters);
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (name, c) in &counters {
                out.push_str(&format!("  {name:<36} {}\n", c.load(Ordering::Relaxed)));
            }
        }
        let gauges = sorted(&self.gauges);
        if !gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, g) in &gauges {
                out.push_str(&format!("  {name:<36} {}\n", g.load(Ordering::Relaxed)));
            }
        }
        let hists = sorted(&self.histograms);
        if !hists.is_empty() {
            out.push_str("histograms (count / min / mean / max):\n");
            for (name, h) in &hists {
                out.push_str(&format!(
                    "  {name:<36} {} / {} / {:.1} / {}\n",
                    h.count(),
                    h.min(),
                    h.mean(),
                    h.max()
                ));
            }
        }
        let timings = sorted(&self.timings);
        if !timings.is_empty() {
            out.push_str("timings (calls / total / mean / ~p95):\n");
            for (name, t) in &timings {
                let calls = t.calls();
                let total = t.total_ns();
                let mean = total.checked_div(calls).unwrap_or(0);
                out.push_str(&format!(
                    "  {name:<36} {calls} / {} / {} / {}\n",
                    fmt_ns(total),
                    fmt_ns(mean),
                    fmt_ns(t.percentile_ns(95.0))
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

fn push_entries(out: &mut String, n: usize, mut write: impl FnMut(&mut String, usize)) {
    for i in 0..n {
        if i == 0 {
            out.push_str("\n    ");
        } else {
            out.push_str(",\n    ");
        }
        write(out, i);
    }
    if n > 0 {
        out.push_str("\n  ");
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Formats nanoseconds with a human unit (ns/µs/ms/s).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{}µs", ns / 1_000),
        10_000_000..=999_999_999 => format!("{}ms", ns / 1_000_000),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let r = Recorder::new();
        r.counter_add("a.b", 3);
        r.counter_add("a.b", 4);
        r.gauge_set("g", -2);
        r.gauge_set("g", 9);
        assert_eq!(r.counter_value("a.b"), 7);
        assert_eq!(r.gauge_value("g"), 9);
        assert_eq!(r.metric_names(), 2);
    }

    #[test]
    fn merge_adds_counters_overwrites_gauges_and_merges_histograms() {
        let parent = Recorder::new();
        parent.counter_add("c", 1);
        parent.gauge_set("g", 5);
        parent.record("h", 10);
        parent.timing_record("t", 100);

        let child = Recorder::new();
        child.counter_add("c", 2);
        child.counter_add("only_child", 1);
        child.gauge_set("g", 7);
        child.record("h", 20);
        child.timing_record("t", 50);

        parent.merge_from(&child);
        assert_eq!(parent.counter_value("c"), 3);
        assert_eq!(parent.counter_value("only_child"), 1);
        assert_eq!(parent.gauge_value("g"), 7);
        assert_eq!(parent.histogram("h").count(), 2);
        assert_eq!(parent.histogram("h").sum(), 30);
        assert_eq!(parent.timing_calls("t"), 2);
        assert_eq!(parent.timing_total_ns("t"), 150);
    }

    #[test]
    fn merge_order_does_not_change_sums() {
        let make = |vals: &[u64]| {
            let r = Recorder::new();
            for &v in vals {
                r.counter_add("c", v);
                r.record("h", v);
            }
            r
        };
        let a = make(&[1, 2]);
        let b = make(&[10]);
        let left = Recorder::new();
        left.merge_from(&a);
        left.merge_from(&b);
        let right = Recorder::new();
        right.merge_from(&b);
        right.merge_from(&a);
        assert_eq!(left.to_json(false), right.to_json(false));
    }

    #[test]
    fn timing_percentiles_track_the_latency_distribution() {
        let t = TimingStat::default();
        assert_eq!(t.percentile_ns(50.0), 0);
        // 90 fast calls (~1µs bucket) and 10 slow ones (~1ms bucket).
        for _ in 0..90 {
            t.record(1_024);
        }
        for _ in 0..10 {
            t.record(1_048_576);
        }
        assert_eq!(t.percentile_ns(50.0), 1_024);
        assert_eq!(t.percentile_ns(95.0), 1_048_576);
        // Merging keeps the distribution.
        let other = TimingStat::default();
        other.merge_from(&t);
        assert_eq!(other.percentile_ns(95.0), 1_048_576);
        assert_eq!(other.calls(), 100);
    }

    #[test]
    fn json_view_without_timings_hides_wall_clock() {
        let r = Recorder::new();
        r.counter_add("c", 1);
        r.timing_record("t", 12345);
        let with = r.to_json(true);
        let without = r.to_json(false);
        assert!(with.contains("total_ns"));
        assert!(with.contains("p95_ns"));
        assert!(!without.contains("total_ns"));
        assert!(!without.contains("p95_ns"));
        assert!(without.contains("\"calls\": 1"));
        assert!(with.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let r = Recorder::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 1);
        let json = r.to_json(false);
        let a = json.find("alpha").unwrap();
        let z = json.find("zeta").unwrap();
        assert!(a < z, "keys must serialize in sorted order");
        assert_eq!(json, r.to_json(false));
    }

    #[test]
    fn summary_mentions_every_section() {
        let r = Recorder::new();
        assert!(r.summary().contains("no metrics"));
        r.counter_add("c", 1);
        r.gauge_set("g", 2);
        r.record("h", 3);
        r.timing_record("t", 4);
        let s = r.summary();
        for needle in ["counters:", "gauges:", "histograms", "timings"] {
            assert!(s.contains(needle), "summary missing {needle}: {s}");
        }
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(50_000), "50µs");
        assert_eq!(fmt_ns(50_000_000), "50ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.5s");
    }
}
