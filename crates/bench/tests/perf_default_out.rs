//! `perf` only writes its default `BENCH_pipeline.json` on a full,
//! unfiltered run: a `--fast` or `--filter` run without `--out` would
//! replace the committed baseline with a partial artifact, so it must
//! exit 2 and write nothing.

use std::process::Command;

#[test]
fn partial_runs_without_out_exit_2_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("perf_default_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let baseline = dir.join("BENCH_pipeline.json");
    std::fs::write(&baseline, "committed").expect("write baseline");
    for args in [
        &["--fast"][..],
        &["--filter", "crypto/sha1_4k"][..],
        &["--fast", "--filter", "crypto/"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run perf");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--out"), "{args:?}: {stderr}");
        assert!(!stderr.contains("perf: wrote"), "{args:?}: {stderr}");
    }
    let left = std::fs::read_to_string(&baseline).expect("baseline");
    assert_eq!(left, "committed", "the baseline must be untouched");
    let entries = std::fs::read_dir(&dir).expect("list").count();
    assert_eq!(entries, 1, "nothing else may be written");
    std::fs::remove_dir_all(&dir).ok();

    // With --out, a filtered fast run measures and writes its own file.
    let dir = std::env::temp_dir().join(format!("perf_named_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let named = dir.join("fast.json");
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--fast", "--filter", "crypto/sha1_4k", "--out"])
        .arg(&named)
        .current_dir(&dir)
        .output()
        .expect("run perf");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&named).expect("named artifact");
    assert!(json.contains("crypto/sha1_4k"), "{json}");
    assert!(!dir.join("BENCH_pipeline.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}
