//! Validates an artifact written by `repro`: `metrics.json` (optionally
//! with its `flight.json`), `guided_resilience.json`, `population.json` or
//! `service.json`.
//!
//! ```text
//! artifact_check <path> [--flight <flight.json>] [required-metric]...
//! ```
//!
//! Dispatches on the document's `kind` (see
//! [`bombdroid_bench::artifact::check_artifact`]); a document without one
//! is a `metrics.json` that must contain every named metric. Exits 0 if
//! every given artifact is accepted, 1 with a diagnostic otherwise, and 2
//! on a usage error.

use bombdroid_bench::artifact::{check_artifact, check_flight};

fn main() {
    let mut path: Option<String> = None;
    let mut flight_path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--flight" {
            let Some(p) = args.next() else {
                eprintln!("artifact_check: --flight needs a path");
                std::process::exit(2);
            };
            flight_path = Some(p);
        } else if path.is_none() {
            path = Some(arg);
        } else {
            required.push(arg);
        }
    }
    let Some(path) = path else {
        eprintln!("usage: artifact_check <path> [--flight <flight.json>] [required-metric]...");
        std::process::exit(2);
    };
    let required: Vec<&str> = required.iter().map(String::as_str).collect();
    check(&path, |text| check_artifact(text, &required));
    if let Some(fp) = flight_path {
        check(&fp, check_flight);
    }
}

fn check(path: &str, checker: impl FnOnce(&str) -> Result<String, String>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("artifact_check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    match checker(&text) {
        Ok(summary) => println!("artifact_check: {path} OK ({summary})"),
        Err(e) => {
            eprintln!("artifact_check: {path} INVALID: {e}");
            std::process::exit(1);
        }
    }
}
