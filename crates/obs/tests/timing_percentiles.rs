//! Properties of the timing percentile estimate: it is monotone in the
//! percentile, stays within the shortest and longest interval, the top
//! rank is the longest interval, and a single interval reports itself.

use bombdroid_obs::TimingStat;
use proptest::prelude::*;

proptest! {
    #[test]
    fn percentiles_are_ordered_and_bounded_by_max(
        samples in proptest::collection::vec(0u64..10_000_000_000u64, 1..64),
    ) {
        let t = TimingStat::default();
        for &ns in &samples {
            t.record(ns);
        }
        let max = *samples.iter().max().unwrap();
        let min = *samples.iter().min().unwrap();
        let p50 = t.percentile_ns(50.0);
        let p95 = t.percentile_ns(95.0);
        prop_assert!(min <= p50, "p50 {} below min {}", p50, min);
        prop_assert!(p50 <= p95, "p50 {} above p95 {}", p50, p95);
        prop_assert!(p95 <= max, "p95 {} above max {}", p95, max);
        prop_assert_eq!(t.percentile_ns(100.0), max);
    }

    #[test]
    fn a_single_interval_reports_itself(ns in 0u64..u64::MAX / 2) {
        let t = TimingStat::default();
        t.record(ns);
        for p in [1.0, 50.0, 95.0, 100.0] {
            prop_assert_eq!(t.percentile_ns(p), ns);
        }
    }
}

#[test]
fn one_slow_call_prints_its_own_duration() {
    let t = TimingStat::default();
    t.record(520_000_000);
    assert_eq!(t.percentile_ns(95.0), 520_000_000);
    // Merging keeps the extremes.
    let merged = TimingStat::default();
    merged.merge_from(&t);
    merged.record(1_000);
    assert_eq!(merged.percentile_ns(95.0), 520_000_000);
    assert_eq!(merged.percentile_ns(1.0), 1_000);
}
