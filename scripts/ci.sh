#!/usr/bin/env bash
# Offline-safe CI gate for BombDroid-rs.
#
#   scripts/ci.sh          # build + test + (if installed) clippy + fmt
#
# Everything runs with --offline: all external dependencies are vendored
# path crates under vendor/, so no registry access is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --offline
run cargo test -q --workspace --offline

# `cargo test` builds the examples but never runs them, and they assert
# their own invariants: quickstart's legit-install checks,
# market_simulation's kill+resume bit-identity. attack_lab also drives
# forced and slice execution through detached fragments.
for example in quickstart protect_pipeline attack_lab market_simulation; do
    run cargo run -q --release --offline --example "$example"
done

# The benchmark package (benchmark/, its own Cargo workspace) builds on the
# crates' public API. Perf changes may not edit it, so an API change that
# breaks it must fail here rather than when the benchmark next runs.
run cargo test --release --offline --manifest-path benchmark/Cargo.toml

# clippy/fmt are optional toolchain components; gate on availability so the
# script works on minimal rust installs.
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint"
fi

if cargo fmt --version >/dev/null 2>&1; then
    run cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi

# Observability smoke: one fast experiment must produce metrics.json and
# flight.json artifacts that parse, match the bombdroid-obs schemas, and
# contain the core instrumentation points. Catches refactors that silently
# stop recording or break either exporter.
run env BOMBDROID_OBS=full BOMBDROID_THREADS=2 \
    cargo run -q --release --offline -p bombdroid-bench --bin repro -- --fast table5
run cargo run -q --release --offline -p bombdroid-bench --bin artifact_check -- \
    target/repro_output/metrics.json \
    --flight target/repro_output/flight.json \
    fleet.tasks vm.instr_executed pipeline.apps_protected cache.requests

# Metrics drift, advisory: diff the fresh artifact against the committed
# reference (scripts/metrics_reference.json, produced by the exact command
# above). Deterministic quantities — counter values, histogram counts —
# should be bit-identical run to run; a delta here means behavior changed,
# which is fine when intentional (regenerate the reference) but worth a
# line in the log either way. Wall-clock timings are informational only.
if cargo run -q --release --offline -p bombdroid-bench --bin metrics_diff -- \
    scripts/metrics_reference.json target/repro_output/metrics.json --threshold 10; then
    echo "==> metrics_diff: no deterministic drift vs reference (advisory)"
else
    echo "==> metrics_diff: WARNING deterministic metrics drifted vs" \
         "scripts/metrics_reference.json (advisory only; regenerate the" \
         "reference if the change is intentional)"
fi

# Guided-fuzzer smoke: a fixed-seed fast campaign (4 shards × 60 execs,
# seed PROTECT_BASE) must find at least one bomb on the single-trigger
# no-bogus control app, replay-validate every reported bomb, and emit a
# guided_resilience.json artifact matching its schema. The curves are
# bit-identical for any BOMBDROID_THREADS value (pinned by the attacks
# determinism suite); artifact_check fails CI if the fuzzer or the
# exporter silently breaks.
run env BOMBDROID_OBS=full BOMBDROID_THREADS=2 \
    cargo run -q --release --offline -p bombdroid-bench --bin repro -- --fast guided
run cargo run -q --release --offline -p bombdroid-bench --bin artifact_check -- \
    target/repro_output/guided_resilience.json

# Population-simulator smoke: a fast two-scale sweep (10^3 + 10^4 devices,
# VM-backed sessions, seed PROTECT_BASE^0x509) must measure per-bomb
# trigger rates within the closed-form tolerance bands, keep live metric
# memory bounded independent of device count, survive one mid-run
# kill + checkpoint + resume cycle with a byte-identical report, and emit
# a population.json artifact matching its schema. Results are bit-identical
# for any BOMBDROID_THREADS value; artifact_check fails CI if the
# simulator, the checkpoint codec, or the exporter silently breaks.
run env BOMBDROID_OBS=full BOMBDROID_THREADS=2 \
    cargo run -q --release --offline -p bombdroid-bench --bin repro -- --fast population
run cargo run -q --release --offline -p bombdroid-bench --bin artifact_check -- \
    target/repro_output/population.json

# Protect-as-a-service smoke: a fixed-seed job mix (four flagships, each
# submitted twice, plus one over-capacity probe) drained at two worker
# threads must single-flight every duplicate through the content-addressed
# cache, shed the overflow with a typed error, keep results in submission
# order, verify every signed package, and reproduce the parallel bytes in
# a serial control run. artifact_check fails CI if the cache, admission
# control, or drain ordering silently breaks.
run env BOMBDROID_OBS=full BOMBDROID_THREADS=2 \
    cargo run -q --release --offline -p bombdroid-bench --bin repro -- --fast service
run cargo run -q --release --offline -p bombdroid-bench --bin artifact_check -- \
    target/repro_output/service.json

# Perf smoke: the hot-path harness must run end to end and emit a valid
# BENCH_pipeline.json document. --fast numbers are not comparison-grade;
# this validates the plumbing, not the performance.
run env BOMBDROID_OBS=off \
    cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --fast --out target/perf_smoke.json
run cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --check target/perf_smoke.json

# Perf comparison against the committed full-mode baseline, in two tiers.
#
# Hard gate: the vm/ benchmarks (session boot, fork, event driving,
# profiling) are the execution-engine contract this repo optimizes — a
# regression there fails CI, and so does a vm/ line of the baseline that
# the fresh run no longer measures. --fast numbers on shared hardware are
# noisy, so the gate uses a generous 75% threshold: it won't trip on
# jitter, only on an engine that actually got slower.
run cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --compare BENCH_pipeline.json target/perf_smoke.json \
    --threshold 75 --filter vm/

# Hard gate: the pipeline/ benchmarks (protect, plan, arm) carry the
# protect-path and protection-cache wins — a regression there, or a
# missing pipeline/ line, fails CI. Same generous threshold as the vm/
# gate: jitter passes, real regressions don't.
run cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --compare BENCH_pipeline.json target/perf_smoke.json \
    --threshold 75 --filter pipeline/

# Advisory tier: everything else only warns (never fails CI); regenerate
# BENCH_pipeline.json with a full-mode run on quiet hardware before
# trusting a delta.
if cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --compare BENCH_pipeline.json target/perf_smoke.json --threshold 50; then
    echo "==> perf compare: within threshold (advisory)"
else
    echo "==> perf compare: WARNING regression vs committed baseline (advisory only)"
fi

echo "==> ci green"
