//! Schema validation for `metrics.json` artifacts.
//!
//! CI runs this (via the `artifact_check` binary in `bombdroid-bench`)
//! against the artifact a `repro` smoke run produces, so a PR that breaks
//! the artifact shape, regresses a counter to garbage, or bumps the schema
//! without coordinating fails before merge.

use crate::json::{parse, JsonValue};
use crate::recorder::SCHEMA_VERSION;

/// Validates `text` as a `metrics.json` artifact.
///
/// Checks, in order:
/// * parses as a JSON object;
/// * `schema_version` equals [`SCHEMA_VERSION`];
/// * the `counters`, `gauges`, `histograms`, and `timings` sections are
///   present and are objects;
/// * counters are non-negative integers;
/// * every histogram has non-negative `count`/`sum`/`min`/`max`, bucket
///   pairs `[index, count]` with indices inside the fixed bucket range,
///   and bucket counts summing to `count`;
/// * every timing has a non-negative `calls` (and `total_ns` when present);
/// * every name in `required` appears in some section.
///
/// Returns a human-readable description of the first violation.
pub fn validate_metrics(text: &str, required: &[&str]) -> Result<(), String> {
    let root = parse(text).map_err(|e| e.to_string())?;
    let root = root
        .as_object()
        .ok_or_else(|| "top level is not an object".to_string())?;

    match root.get("schema_version").and_then(JsonValue::as_int) {
        Some(v) if v == SCHEMA_VERSION as i128 => {}
        Some(v) => return Err(format!("schema_version {v} != expected {SCHEMA_VERSION}")),
        None => return Err("missing integer schema_version".to_string()),
    }

    let section = |name: &str| -> Result<&JsonValue, String> {
        root.get(name)
            .filter(|v| v.as_object().is_some())
            .ok_or_else(|| format!("missing object section {name:?}"))
    };
    let counters = section("counters")?;
    section("gauges")?;
    let histograms = section("histograms")?;
    let timings = section("timings")?;

    for (name, v) in counters.as_object().unwrap() {
        match v.as_int() {
            Some(n) if n >= 0 => {}
            _ => return Err(format!("counter {name:?} is not a non-negative integer")),
        }
    }

    for (name, h) in histograms.as_object().unwrap() {
        let field = |key: &str| -> Result<i128, String> {
            h.get(key)
                .and_then(JsonValue::as_int)
                .filter(|n| *n >= 0)
                .ok_or_else(|| format!("histogram {name:?} field {key:?} invalid"))
        };
        let count = field("count")?;
        field("sum")?;
        field("min")?;
        field("max")?;
        let buckets = h
            .get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("histogram {name:?} missing buckets array"))?;
        let mut total = 0i128;
        for b in buckets {
            let pair = b
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("histogram {name:?} bucket is not a pair"))?;
            let index = pair[0].as_int().unwrap_or(-1);
            let n = pair[1].as_int().unwrap_or(-1);
            if index < 0 || index >= crate::hist::BUCKETS as i128 || n < 0 {
                return Err(format!("histogram {name:?} bucket [{index}, {n}] invalid"));
            }
            total += n;
        }
        if total != count {
            return Err(format!(
                "histogram {name:?}: bucket counts sum to {total}, count is {count}"
            ));
        }
    }

    for (name, t) in timings.as_object().unwrap() {
        match t.get("calls").and_then(JsonValue::as_int) {
            Some(n) if n >= 0 => {}
            _ => return Err(format!("timing {name:?} missing non-negative calls")),
        }
        for key in ["total_ns", "p50_ns", "p95_ns"] {
            if let Some(ns) = t.get(key) {
                if ns.as_int().filter(|n| *n >= 0).is_none() {
                    return Err(format!("timing {name:?} {key} invalid"));
                }
            }
        }
    }

    for name in required {
        let present = ["counters", "gauges", "histograms", "timings"]
            .iter()
            .any(|s| root[*s].get(name).is_some());
        if !present {
            return Err(format!(
                "required metric {name:?} absent from every section"
            ));
        }
    }

    Ok(())
}

/// Validates `text` as a `flight.json` artifact (see [`crate::flight`]).
///
/// Checks: parses as an object; `schema_version` equals
/// [`crate::flight::FLIGHT_SCHEMA_VERSION`]; `capacity` is a positive
/// integer and `dropped` non-negative; `events` is an array of objects
/// whose `seq`/`at_ns` are non-negative integers in non-decreasing order
/// and whose `kind`/`detail` are strings; the event count never exceeds
/// `capacity`.
pub fn validate_flight(text: &str) -> Result<(), String> {
    let root = parse(text).map_err(|e| e.to_string())?;
    let root = root
        .as_object()
        .ok_or_else(|| "top level is not an object".to_string())?;

    match root.get("schema_version").and_then(JsonValue::as_int) {
        Some(v) if v == crate::flight::FLIGHT_SCHEMA_VERSION as i128 => {}
        Some(v) => {
            return Err(format!(
                "flight schema_version {v} != expected {}",
                crate::flight::FLIGHT_SCHEMA_VERSION
            ))
        }
        None => return Err("missing integer schema_version".to_string()),
    }

    let capacity = root
        .get("capacity")
        .and_then(JsonValue::as_int)
        .filter(|n| *n > 0)
        .ok_or_else(|| "capacity must be a positive integer".to_string())?;
    root.get("dropped")
        .and_then(JsonValue::as_int)
        .filter(|n| *n >= 0)
        .ok_or_else(|| "dropped must be a non-negative integer".to_string())?;

    let events = root
        .get("events")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing events array".to_string())?;
    if events.len() as i128 > capacity {
        return Err(format!(
            "{} events exceed capacity {capacity}",
            events.len()
        ));
    }
    let mut prev_seq = -1i128;
    let mut prev_at = -1i128;
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| -> Result<i128, String> {
            ev.get(key)
                .and_then(JsonValue::as_int)
                .filter(|n| *n >= 0)
                .ok_or_else(|| format!("event {i} field {key:?} invalid"))
        };
        let seq = field("seq")?;
        let at = field("at_ns")?;
        if seq <= prev_seq {
            return Err(format!("event {i}: seq {seq} not increasing"));
        }
        if at < prev_at {
            return Err(format!("event {i}: at_ns {at} went backwards"));
        }
        prev_seq = seq;
        prev_at = at;
        for key in ["kind", "detail"] {
            if ev.get(key).and_then(JsonValue::as_str).is_none() {
                return Err(format!("event {i} field {key:?} is not a string"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> Recorder {
        let r = Recorder::new();
        r.counter_add("fleet.tasks", 12);
        r.gauge_set("workers", 4);
        r.record("pipeline.bombs_per_app", 67);
        r.record("pipeline.bombs_per_app", 43);
        r.timing_record("pipeline.profile", 1_000_000);
        r
    }

    #[test]
    fn recorder_exports_validate() {
        let r = sample();
        validate_metrics(&r.to_json(true), &["fleet.tasks", "pipeline.profile"])
            .expect("full export validates");
        validate_metrics(&r.to_json(false), &["pipeline.bombs_per_app"])
            .expect("deterministic export validates");
    }

    #[test]
    fn missing_required_metric_fails() {
        let err = validate_metrics(&sample().to_json(true), &["not.there"]).unwrap_err();
        assert!(err.contains("not.there"), "{err}");
    }

    #[test]
    fn wrong_schema_version_fails() {
        let json = sample().to_json(true).replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        let err = validate_metrics(&json, &[]).unwrap_err();
        assert!(err.contains("999"), "{err}");
    }

    #[test]
    fn negative_counter_fails() {
        let json = sample()
            .to_json(true)
            .replace("\"fleet.tasks\": 12", "\"fleet.tasks\": -1");
        let err = validate_metrics(&json, &[]).unwrap_err();
        assert!(err.contains("fleet.tasks"), "{err}");
    }

    #[test]
    fn inconsistent_histogram_buckets_fail() {
        let json = sample()
            .to_json(true)
            .replace("\"count\": 2", "\"count\": 5");
        let err = validate_metrics(&json, &[]).unwrap_err();
        assert!(err.contains("bucket counts"), "{err}");
    }

    #[test]
    fn non_object_and_missing_sections_fail() {
        assert!(validate_metrics("[]", &[]).is_err());
        assert!(validate_metrics("{\"schema_version\": 1}", &[]).is_err());
        assert!(validate_metrics("not json", &[]).is_err());
    }

    #[test]
    fn flight_validation_accepts_good_and_rejects_bad() {
        let good = r#"{
          "schema_version": 1,
          "capacity": 4,
          "dropped": 2,
          "events": [
            {"seq": 5, "at_ns": 10, "kind": "a", "detail": "x"},
            {"seq": 6, "at_ns": 10, "kind": "b", "detail": "y"}
          ]
        }"#;
        validate_flight(good).expect("well-formed flight log validates");

        let empty = r#"{"schema_version": 1, "capacity": 8, "dropped": 0, "events": []}"#;
        validate_flight(empty).expect("empty ring validates");

        assert!(validate_flight("[]").is_err());
        assert!(
            validate_flight(&good.replace("\"schema_version\": 1", "\"schema_version\": 9"))
                .unwrap_err()
                .contains("schema_version")
        );
        assert!(validate_flight(&good.replace("\"capacity\": 4", "\"capacity\": 0")).is_err());
        // Too many events for the declared capacity.
        assert!(
            validate_flight(&good.replace("\"capacity\": 4", "\"capacity\": 1"))
                .unwrap_err()
                .contains("exceed")
        );
        // Non-increasing sequence numbers.
        assert!(validate_flight(&good.replace("\"seq\": 6", "\"seq\": 5"))
            .unwrap_err()
            .contains("not increasing"));
        // at_ns must be monotone.
        assert!(validate_flight(&good.replace(
            "\"at_ns\": 10, \"kind\": \"b\"",
            "\"at_ns\": 3, \"kind\": \"b\""
        ))
        .unwrap_err()
        .contains("backwards"));
        // kind/detail must be strings.
        assert!(validate_flight(&good.replace("\"detail\": \"y\"", "\"detail\": 7")).is_err());
    }
}
