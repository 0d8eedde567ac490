//! The one checker for every artifact `repro` writes, behind the
//! `artifact_check` binary.
//!
//! A document that names its `kind` goes to that kind's acceptance rules:
//! `guided_resilience_curve` to [`accept_guided_json`],
//! `population_validation` to [`accept_population_json`] and
//! `service_smoke` to [`validate_service_json`]. A document without a
//! `kind` is a `metrics.json` and must carry every required metric
//! ([`bombdroid_obs::validate_metrics`]). A flight-recorder dump is checked
//! with [`check_flight`]. CI runs the binary after each `repro` smoke, so a
//! refactor that silently stops recording, lobotomizes the fuzzer, breaks
//! checkpointing or the service cache fails the pipeline.

use crate::experiments::{accept_guided_json, accept_population_json, validate_service_json};
use bombdroid_obs::json;

/// Checks one artifact, dispatching on its `kind`; returns a one-line
/// summary of the accepted document or the first violation. `required`
/// names metrics a `metrics.json` must contain; it is an error for any
/// other kind, where the names would otherwise be silently ignored.
pub fn check_artifact(text: &str, required: &[&str]) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let Some(kind) = doc.get("kind") else {
        bombdroid_obs::validate_metrics(text, required)?;
        return Ok(format!(
            "metrics schema v{}, {} required metrics present",
            bombdroid_obs::SCHEMA_VERSION,
            required.len()
        ));
    };
    let kind = kind.as_str().ok_or("\"kind\" is not a string")?;
    if !required.is_empty() {
        return Err(format!(
            "required metrics apply only to metrics.json, not to a {kind:?} document"
        ));
    }
    let summary = match kind {
        "guided_resilience_curve" => accept_guided_json(text)?,
        "population_validation" => accept_population_json(text)?,
        "service_smoke" => validate_service_json(text).map(|()| "acceptance rules hold".into())?,
        other => return Err(format!("unknown artifact kind {other:?}")),
    };
    Ok(format!("{kind}: {summary}"))
}

/// Checks a flight-recorder dump ([`bombdroid_obs::validate_flight`]).
pub fn check_flight(text: &str) -> Result<String, String> {
    bombdroid_obs::validate_flight(text)?;
    Ok(format!(
        "flight schema v{}",
        bombdroid_obs::flight::FLIGHT_SCHEMA_VERSION
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_obs::Recorder;

    #[test]
    fn self_produced_metrics_and_flight_are_accepted() {
        let rec = Recorder::new();
        rec.counter_add("pipeline.bombs", 3);
        rec.record("pipeline.bombs_per_app", 3);
        rec.timing_record("pipeline.protect", 1_000);
        let text = rec.to_json(true);
        check_artifact(&text, &["pipeline.bombs", "pipeline.protect"])
            .expect("self-produced metrics accepted");
        assert!(check_artifact(&text, &["never.recorded"]).is_err());
        bombdroid_obs::flight::note("artifact.test", || "detail".to_string());
        check_flight(&bombdroid_obs::flight::to_json()).expect("self-produced flight accepted");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let err = check_artifact(r#"{"schema_version": 1, "kind": "mystery"}"#, &[])
            .expect_err("unknown kind rejected");
        assert!(err.contains("unknown artifact kind"), "{err}");
        assert!(check_artifact(r#"{"kind": 7}"#, &[]).is_err());
    }

    #[test]
    fn required_metrics_on_a_kinded_document_are_rejected() {
        let text = r#"{"schema_version": 1, "kind": "service_smoke"}"#;
        let err = check_artifact(text, &["pipeline.bombs"]).expect_err("names not ignored");
        assert!(err.contains("only to metrics.json"), "{err}");
    }
}
