//! Execution telemetry: what the measurement harness (and the paper's
//! Traceview-based profiling, §7.1) observes about a run.

use bombdroid_dex::{MethodRef, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Cap on recorded samples per field, to bound memory in long profiles.
pub const FIELD_SAMPLE_CAP: usize = 8_192;

/// Per-method invocation counts (the Traceview analogue). A `BTreeMap`, so
/// profile reports and hot-method derivation iterate in a stable order
/// regardless of hasher state. The VM counts into a dense table indexed by
/// method id and builds this map only when asked ([`crate::Vm::method_calls`]).
pub type MethodCalls = BTreeMap<MethodRef, u64>;

/// Scalar values written to fields over time, `(virtual ms, value)` in
/// write order and keyed by `Class.field` (profiling for artificial QC
/// selection, §7.2, and Fig. 3); capped at [`FIELD_SAMPLE_CAP`] per key. A
/// static and an instance field with the same key share one list. Built on
/// demand from the VM's per-key sample table ([`crate::Vm::field_values`]).
pub type FieldValues = BTreeMap<String, Vec<(u64, Value)>>;

/// A user-visible or destructive response fired by a detection payload
/// (paper §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseKind {
    /// Process terminated.
    Killed,
    /// App frozen in an endless loop.
    Frozen,
    /// Large allocation leaked.
    MemoryLeaked,
    /// A reference field nulled out for a delayed crash.
    FieldNulled,
    /// The user was warned via UI.
    UserWarned,
}

/// One fired response, stamped with virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseEvent {
    /// What fired.
    pub kind: ResponseKind,
    /// Virtual milliseconds since process start.
    pub at_ms: u64,
}

/// Everything recorded while a VM runs, apart from the two profile tables
/// ([`MethodCalls`], [`FieldValues`]), which the VM keeps dense and hands
/// out on demand.
///
/// Derives `PartialEq`/`Eq` so suites can assert *bit-identity* between
/// runs, such as a forked session against a cold boot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Instructions executed (the cost model's cycle count).
    pub instr_executed: u64,
    /// Events fired through entry points.
    pub events_run: u64,
    /// Obfuscated outer trigger conditions observed *satisfied*:
    /// `(method, pc)` of a hash-equality branch that evaluated true.
    pub outer_satisfied: BTreeSet<(MethodRef, usize)>,
    /// All equality conditions observed satisfied (QC coverage statistics).
    pub eq_satisfied: BTreeSet<(MethodRef, usize)>,
    /// Marker ids seen — the protector tags each bomb payload, so this is
    /// the set of *triggered* bombs.
    pub markers: BTreeSet<u32>,
    /// Virtual time when the first marker fired (time-to-first-bomb,
    /// Table 3).
    pub first_marker_ms: Option<u64>,
    /// Blobs successfully decrypted.
    pub blobs_decrypted: BTreeSet<u32>,
    /// Failed decryptions (wrong key / tampered blob) — what forced
    /// execution runs into.
    pub decrypt_failures: u64,
    /// Responses fired.
    pub responses: Vec<ResponseEvent>,
    /// Piracy reports sent to the developer.
    pub piracy_reports: u64,
    /// Log lines.
    pub logs: Vec<String>,
    /// Bytes leaked by `LeakMemory` responses.
    pub leaked_bytes: u64,
    /// Reflection calls observed by an attacker hook (name, at_ms).
    pub reflection_trace: Vec<(String, u64)>,
}

impl Telemetry {
    /// Creates empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any detection response has fired.
    pub fn detection_fired(&self) -> bool {
        !self.responses.is_empty() || self.piracy_reports > 0
    }

    /// Number of distinct bombs triggered.
    pub fn bombs_triggered(&self) -> usize {
        self.markers.len()
    }
}

/// Hot methods: the `ratio` most-frequently-invoked methods of a call-count
/// table (the paper excludes the top 10% from instrumentation, §7.1). Ties
/// break by method name, so the set is deterministic.
pub fn hot_methods(calls: &MethodCalls, ratio: f64) -> Vec<MethodRef> {
    let mut counts: Vec<(&MethodRef, u64)> = calls.iter().map(|(m, c)| (m, *c)).collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let take = ((counts.len() as f64) * ratio).floor() as usize;
    counts
        .into_iter()
        .take(take)
        .map(|(m, _)| m.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_methods_takes_top_ratio() {
        let calls: MethodCalls = [("a", 100u64), ("b", 50), ("c", 10), ("d", 5), ("e", 1)]
            .into_iter()
            .map(|(name, count)| (MethodRef::new("C", name), count))
            .collect();
        let hot = hot_methods(&calls, 0.2);
        assert_eq!(hot.len(), 1);
        assert_eq!(&*hot[0].name, "a");
        let hot40 = hot_methods(&calls, 0.4);
        assert_eq!(hot40.len(), 2);
    }

    #[test]
    fn hot_method_ties_break_by_name() {
        let calls: MethodCalls = ["zed", "alpha", "mid", "beta"]
            .into_iter()
            .map(|name| (MethodRef::new("C", name), 1))
            .collect();
        let names: Vec<String> = hot_methods(&calls, 0.5)
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names, vec!["alpha", "beta"]);
    }

    #[test]
    fn detection_fired_logic() {
        let mut t = Telemetry::new();
        assert!(!t.detection_fired());
        t.piracy_reports = 1;
        assert!(t.detection_fired());
    }
}
