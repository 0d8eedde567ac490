//! `perf --compare` as CI runs it: a gated baseline benchmark that the
//! candidate no longer measures fails the gate, while a benchmark only the
//! candidate has stays informational.

use std::path::PathBuf;
use std::process::Command;

fn artifact(dir: &std::path::Path, file: &str, names: &[&str]) -> PathBuf {
    let benches: Vec<String> = names
        .iter()
        .map(|n| {
            format!(
                r#"{{"name": "{n}", "iters": 10, "p50_ns": 100, "p95_ns": 120, "mean_ns": 105, "bytes_per_s": null}}"#
            )
        })
        .collect();
    let path = dir.join(file);
    let text = format!(
        r#"{{"schema_version": 1, "mode": "fast", "benches": [{}]}}"#,
        benches.join(", ")
    );
    std::fs::write(&path, text).expect("write artifact");
    path
}

fn compare(base: &PathBuf, cand: &PathBuf, filter: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("--compare")
        .args([base, cand])
        .args(["--threshold", "75", "--filter", filter])
        .output()
        .expect("run perf")
}

#[test]
fn gate_fails_when_a_baseline_benchmark_is_missing() {
    let dir = std::env::temp_dir().join(format!("perf_compare_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = artifact(&dir, "base.json", &["vm/kept", "vm/gone", "obs/x"]);
    let cand = artifact(&dir, "cand.json", &["vm/kept", "obs/x", "vm/new"]);

    let out = compare(&base, &cand, "vm/");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "missing vm/gone must fail the gate");
    assert!(stderr.contains("vm/gone"), "{stderr}");

    // The same artifacts pass a gate whose baseline lines all survive;
    // vm/new, present only in the candidate, never fails a gate.
    let out = compare(&base, &cand, "obs/");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = compare(&cand, &base, "vm/kept");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}
