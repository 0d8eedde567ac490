//! The benchmark's own arithmetic: latency summaries, span self-time and
//! the result line. Kept free of any BombDroid type so it can be tested
//! on its own.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest-percentile latency that still has at least
/// [`TAIL_BEYOND`] samples above it in sort order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile: the share of samples at or below its rank.
    pub percentile: f64,
    /// Samples strictly beyond it (always `TAIL_BEYOND` once enough
    /// samples exist; fewer only for runs too short to have a tail).
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Picks the tail sample: rank `n - TAIL_BEYOND` of the sorted samples.
/// With `TAIL_BEYOND` samples or fewer there is no such rank, and the
/// maximum is reported with `beyond == 0`.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            beyond: 0,
            samples: 0,
        };
    }
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Length of the union of half-open intervals `[start, end)`, each
/// clipped to `[lo, hi)`. Overlapping children (parallel workers) count
/// once, which is what "time covered by children" means.
pub fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ra, rb)) = run {
        total += rb - ra;
    }
    total
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    (parent.1 - parent.0) - covered(children, parent.0, parent.1)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result object the benchmark prints as its last line.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, Metric>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            escape(name),
            escape(m.unit)
        );
    }
    out.push_str("}}");
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_obs::json::{self, JsonValue};

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert_eq!(t.percentile, 90.0);
        let above = samples.iter().filter(|&&v| v > t.value).count();
        assert_eq!(above, TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let few: Vec<f64> = (0..32).map(f64::from).collect();
        let many: Vec<f64> = (0..400).map(f64::from).collect();
        let (a, b) = (tail(&few), tail(&many));
        assert_eq!((a.value, a.beyond), (21.0, 10));
        assert_eq!((b.value, b.beyond), (389.0, 10));
        assert!(a.percentile < b.percentile);
        assert_eq!(b.percentile, 97.5);
    }

    #[test]
    fn short_runs_report_the_maximum_and_no_tail() {
        let t = tail(&[5.0, 7.0, 6.0]);
        assert_eq!((t.value, t.beyond, t.samples), (7.0, 0, 3));
        assert_eq!(t.percentile, 100.0);
        let exactly = tail(&[1.0; 10]);
        assert_eq!(exactly.beyond, 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..10; children overlap (two workers) and spill outside.
        let children = [
            (1.0, 4.0),
            (2.0, 5.0),
            (7.0, 8.0),
            (9.0, 12.0),
            (-3.0, -1.0),
        ];
        assert_eq!(covered(&children, 0.0, 10.0), 4.0 + 1.0 + 1.0);
        assert_eq!(self_time((0.0, 10.0), &children), 4.0);
        // Nested and touching intervals merge; no children means all self.
        assert_eq!(
            covered(&[(1.0, 6.0), (2.0, 3.0), (6.0, 7.0)], 0.0, 10.0),
            6.0
        );
        assert_eq!(self_time((2.0, 5.0), &[]), 3.0);
        // A child covering the whole parent leaves no self time.
        assert_eq!(self_time((2.0, 5.0), &[(0.0, 9.0)]), 0.0);
    }

    #[test]
    fn result_line_is_valid_json_with_the_contract_keys() {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "latency_p50_ms".to_string(),
            Metric {
                value: 51.234_567_891_2,
                unit: "ms",
            },
        );
        metrics.insert(
            "odd\"name".to_string(),
            Metric {
                value: 1e-9,
                unit: "1/s",
            },
        );
        metrics.insert(
            "missing".to_string(),
            Metric {
                value: f64::NAN,
                unit: "count",
            },
        );
        let line = result_json(true, 320, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys.len(), 4);
        for k in ["correct", "attempted", "failed", "metrics"] {
            assert!(keys.contains(&k), "missing {k}");
        }
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_int), Some(320));
        let m = doc.get("metrics").expect("metrics");
        let p50 = m.get("latency_p50_ms").expect("p50");
        assert_eq!(p50.get("unit").and_then(JsonValue::as_str), Some("ms"));
        match p50.get("value") {
            Some(JsonValue::Float(v)) => assert_eq!(*v, 51.234_567_891_2),
            other => panic!("value kept all digits? {other:?}"),
        }
        assert!(m.get("odd\"name").is_some());
        assert_eq!(
            m.get("missing").and_then(|v| v.get("value")),
            Some(&JsonValue::Null)
        );
    }
}
