//! Hot-path perf harness: measures the protection pipeline end to end and
//! emits a machine-readable artifact.
//!
//! ```text
//! perf [--fast] [--filter SUBSTR] [--out PATH]   # measure + write JSON
//! perf --check PATH                              # validate an artifact
//! perf --compare BASE CAND [--threshold PCT] [--filter SUBSTR]
//!                                                # p50 delta table
//! ```
//!
//! Default output is `BENCH_pipeline.json` in the current directory (run
//! from the repo root to refresh the committed artifact); a `--fast` or
//! `--filter` run must name its `--out`, and exits 2 without it. `--fast`
//! is the CI smoke profile: it validates the plumbing end to end but its
//! numbers are not comparison-grade. `--compare` prints the per-benchmark
//! median deltas between two artifacts and exits nonzero if any benchmark
//! regressed past the threshold (default 10%) or if a baseline benchmark
//! is missing from the candidate (a benchmark only the candidate has is
//! informational); `--filter` restricts the comparison to benchmarks whose
//! name contains the substring, which is how CI hard-gates the `vm/` and
//! `pipeline/` families while keeping the rest advisory.
//! See EXPERIMENTS.md § "Perf
//! harness" for the schema and how to compare runs across PRs.

use bombdroid_analysis::{backward_slice, Cfg, Dominators, LoopInfo};
use bombdroid_apk::repackage;
use bombdroid_bench::perf::{
    compare_bench_json, run_bench, to_json, validate_bench_json, BenchResult, PerfConfig,
};
use bombdroid_bench::{
    experiments::{flagships, protect_app, table3_with},
    fixed_keys,
};
use bombdroid_core::{profile_app, FleetConfig, ProtectConfig};
use bombdroid_corpus::{flagship, UserProfile};
use bombdroid_crypto::{aes, blob, kdf, sha1, sha256};
use bombdroid_dex::{wire, Instr, Value};
use bombdroid_obs::{self as obs, ObsMode, Recorder, ShardAggregator};
use bombdroid_runtime::{
    run_session, DeviceEnv, EventSource, InstalledPackage, RandomEventSource, SessionPool,
    UserEventSource, Vm, VmOptions,
};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("usage: perf --check <path>");
            std::process::exit(2);
        };
        return check(path);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(base), Some(cand)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!(
                "usage: perf --compare <baseline.json> <candidate.json> \
                 [--threshold PCT] [--filter SUBSTR]"
            );
            std::process::exit(2);
        };
        let threshold = match flag_value(&args, "--threshold") {
            Some(t) => t.parse().unwrap_or_else(|_| {
                eprintln!("perf --compare: --threshold must be a number, got {t:?}");
                std::process::exit(2);
            }),
            None => 10.0,
        };
        return compare(
            base,
            cand,
            threshold,
            flag_value(&args, "--filter").as_deref(),
        );
    }
    let fast = args.iter().any(|a| a == "--fast");
    let filter = flag_value(&args, "--filter");
    // The default path is the committed full-mode baseline: a fast or
    // filtered run would overwrite it with a partial artifact.
    let out = match flag_value(&args, "--out") {
        Some(out) => out,
        None if fast || filter.is_some() => {
            eprintln!(
                "usage: perf [--fast] [--filter SUBSTR] --out PATH\n\
                 a --fast or --filter run needs --out: only a full, unfiltered \
                 run may write the default BENCH_pipeline.json"
            );
            std::process::exit(2);
        }
        None => "BENCH_pipeline.json".to_string(),
    };
    let (mode, config) = if fast {
        ("fast", PerfConfig::fast())
    } else {
        ("full", PerfConfig::full())
    };

    let results = run_all(&config, filter.as_deref());
    for r in &results {
        let bps = match r.bytes_per_s() {
            Some(v) => format!("{:>10.1} MB/s", v as f64 / 1e6),
            None => String::new(),
        };
        eprintln!(
            "perf {:<32} p50 {:>12} ns  p95 {:>12} ns  ({} iters) {}",
            r.name, r.p50_ns, r.p95_ns, r.iters, bps
        );
    }
    let json = to_json(mode, &results);
    validate_bench_json(&json).expect("perf harness emitted invalid JSON");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!(
        "perf: wrote {} benchmarks to {out} (mode: {mode})",
        results.len()
    );
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn compare(base_path: &str, cand_path: &str, threshold_pct: f64, filter: Option<&str>) {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perf --compare: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let mut report = match compare_bench_json(&read(base_path), &read(cand_path), threshold_pct) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf --compare: {e}");
            std::process::exit(1);
        }
    };
    if let Some(f) = filter {
        report.rows.retain(|r| r.name.contains(f));
        if report.rows.is_empty() {
            eprintln!("perf --compare: no benchmark matches --filter {f:?}");
            std::process::exit(1);
        }
    }
    print!("{}", report.render());
    let regressions = report.regressions();
    let missing = report.missing();
    if !regressions.is_empty() {
        eprintln!(
            "perf --compare: {} benchmark(s) regressed more than {threshold_pct}%: {}",
            regressions.len(),
            regressions.join(", ")
        );
    }
    if !missing.is_empty() {
        eprintln!(
            "perf --compare: {} baseline benchmark(s) missing from {cand_path}: {}",
            missing.len(),
            missing.join(", ")
        );
    }
    if !regressions.is_empty() || !missing.is_empty() {
        std::process::exit(1);
    }
    println!("perf --compare: OK (no benchmark regressed more than {threshold_pct}%)");
}

fn check(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf --check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    match validate_bench_json(&text) {
        Ok(n) => println!("perf --check: {path} OK ({n} benchmarks)"),
        Err(e) => {
            eprintln!("perf --check: {path} INVALID: {e}");
            std::process::exit(1);
        }
    }
}

fn run_all(config: &PerfConfig, filter: Option<&str>) -> Vec<BenchResult> {
    let mut results = Vec::new();
    let wanted = |name: &str| filter.map(|f| name.contains(f)).unwrap_or(true);
    let mut push = |r: BenchResult| results.push(r);

    // --- crypto: the per-bomb primitives (KDF, trigger hash, seal/open) ---
    if wanted("crypto/sha256_4k") {
        let data = vec![0xA5u8; 4096];
        push(run_bench("crypto/sha256_4k", Some(4096), config, || {
            std::hint::black_box(sha256::digest(std::hint::black_box(&data)));
        }));
    }
    if wanted("crypto/sha1_4k") {
        let data = vec![0x5Au8; 4096];
        push(run_bench("crypto/sha1_4k", Some(4096), config, || {
            std::hint::black_box(sha1::digest(std::hint::black_box(&data)));
        }));
    }
    if wanted("crypto/aes_ctr_16k") {
        let key = [7u8; 16];
        let mut data = vec![0u8; 16_384];
        push(run_bench(
            "crypto/aes_ctr_16k",
            Some(16_384),
            config,
            || {
                aes::ctr_xor(&key, 42, std::hint::black_box(&mut data));
            },
        ));
    }
    if wanted("crypto/bomb_site_material") {
        // Exactly the per-bomb derivation the instrument stage performs:
        // condition hash + payload key from one trigger constant + salt.
        let constant = Value::Int(0xfff000);
        let salt = [9u8; 8];
        push(run_bench("crypto/bomb_site_material", None, config, || {
            let m = kdf::site_material(
                &std::hint::black_box(&constant).canonical_bytes(),
                std::hint::black_box(&salt),
            );
            std::hint::black_box((m.key, m.condition_hash));
        }));
    }
    if wanted("crypto/blob_seal_400") {
        let key = kdf::derive_key(b"constant", b"salt");
        let payload = vec![0x5Au8; 400];
        push(run_bench("crypto/blob_seal_400", Some(400), config, || {
            std::hint::black_box(blob::seal(&key, std::hint::black_box(&payload)));
        }));
    }
    if wanted("crypto/blob_open_400") {
        let key = kdf::derive_key(b"constant", b"salt");
        let sealed = blob::seal(&key, &vec![0x5Au8; 400]);
        push(run_bench("crypto/blob_open_400", Some(400), config, || {
            std::hint::black_box(blob::open(&key, std::hint::black_box(&sealed)).unwrap());
        }));
    }

    // --- dex wire: serialization cost behind packaging + size reporting ---
    let app = bombdroid_corpus::flagship::hash_droid();
    let encoded = wire::encode_dex(&app.dex);
    if wanted("dex/encode_dex") {
        let bytes = encoded.len() as u64;
        push(run_bench("dex/encode_dex", Some(bytes), config, || {
            std::hint::black_box(wire::encode_dex(std::hint::black_box(&app.dex)));
        }));
    }
    if wanted("dex/decode_dex") {
        let bytes = encoded.len() as u64;
        push(run_bench("dex/decode_dex", Some(bytes), config, || {
            std::hint::black_box(wire::decode_dex(std::hint::black_box(&encoded)).unwrap());
        }));
    }

    // --- analysis: QC scanning (site planning input) ---
    if wanted("analysis/qc_scan_dex") {
        push(run_bench("analysis/qc_scan_dex", None, config, || {
            std::hint::black_box(bombdroid_analysis::qc::scan_dex(std::hint::black_box(
                &app.dex,
            )));
        }));
    }

    // --- analysis: the Soot-shaped substrate behind site planning ---
    if wanted("analysis/cfg_all_methods") {
        push(run_bench("analysis/cfg_all_methods", None, config, || {
            let blocks: usize = app
                .dex
                .methods()
                .map(|m| Cfg::build(std::hint::black_box(m)).len())
                .sum();
            std::hint::black_box(blocks);
        }));
    }
    if wanted("analysis/dominators_loops") {
        let cfgs: Vec<Cfg> = app
            .dex
            .methods()
            .map(Cfg::build)
            .filter(|cfg| !cfg.is_empty())
            .collect();
        push(run_bench("analysis/dominators_loops", None, config, || {
            let loops: usize = cfgs
                .iter()
                .map(|cfg| {
                    let dom = Dominators::compute(std::hint::black_box(cfg));
                    LoopInfo::compute(cfg, &dom).back_edges.len()
                })
                .sum();
            std::hint::black_box(loops);
        }));
    }
    if wanted("analysis/backward_slice_largest_method") {
        // Slice from the last non-return instruction of the biggest method.
        let method = app
            .dex
            .methods()
            .max_by_key(|m| m.body.len())
            .expect("nonempty app");
        let seed = method
            .body
            .iter()
            .rposition(|i| !matches!(i, Instr::Return { .. }))
            .unwrap_or(0);
        push(run_bench(
            "analysis/backward_slice_largest_method",
            None,
            config,
            || {
                std::hint::black_box(backward_slice(std::hint::black_box(method), seed).pcs.len());
            },
        ));
    }

    // --- pipeline: the full protect pass (the service's per-APK cost) ---
    let (dev, _) = fixed_keys();
    let apk = app.apk(&dev);
    let protect_config = ProtectConfig::fast_profile();
    // One protect pass of Hash Droid per iteration. pipeline/protect_paper
    // runs it under the paper's configuration: 10,000 profiling events, so
    // profiling and planning take the shares they take in a store upload
    // rather than those of the 300-event fast profile. Each ablation/ line
    // is pipeline/protect_flagship with one DESIGN.md §6 choice flipped.
    let single_passes = [
        ("pipeline/protect_flagship", protect_config.clone()),
        ("pipeline/protect_paper", ProtectConfig::default()),
        (
            "ablation/protect_single_trigger",
            ProtectConfig {
                double_trigger: false,
                ..protect_config.clone()
            },
        ),
        (
            "ablation/protect_alpha_0",
            ProtectConfig {
                alpha: 0.0,
                ..protect_config.clone()
            },
        ),
        (
            "ablation/protect_weave_off",
            ProtectConfig {
                weave_original: false,
                ..protect_config.clone()
            },
        ),
    ];
    for (name, protect) in single_passes {
        if wanted(name) {
            let protector = bombdroid_core::Protector::new(protect);
            push(run_bench(name, None, config, || {
                let mut rng = StdRng::seed_from_u64(1);
                std::hint::black_box(
                    protector
                        .protect(std::hint::black_box(&apk), &mut rng)
                        .unwrap()
                        .report
                        .bombs_injected(),
                );
            }));
        }
    }

    if wanted("pipeline/protect_batch8") {
        // The whole-fleet cost: protect every flagship once per iteration
        // (what a store-side protection service pays per corpus sweep).
        let apks: Vec<_> = flagships().iter().map(|a| a.apk(&dev)).collect();
        let protector = bombdroid_core::Protector::new(protect_config.clone());
        push(run_bench("pipeline/protect_batch8", None, config, || {
            let mut bombs = 0usize;
            for (i, apk) in apks.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0x7AB0 + i as u64);
                bombs += protector
                    .protect(std::hint::black_box(apk), &mut rng)
                    .unwrap()
                    .report
                    .bombs_injected();
            }
            std::hint::black_box(bombs);
        }));
    }

    // --- service: protect-as-a-service queue overhead ---
    if wanted("service/queue_cycle_64") {
        // Queue latency floor: 64 duplicate jobs against a warm shared
        // cache — every request is a hit, so this isolates submit +
        // drain + cache-lookup overhead per job (the queue-wait path).
        let apk = Arc::new(app.apk(&dev));
        let cache = Arc::new(bombdroid_core::ProtectionCache::new());
        push(run_bench("service/queue_cycle_64", None, config, || {
            let mut svc = bombdroid_core::ProtectService::with_parts(1, 64, Arc::clone(&cache));
            for _ in 0..64 {
                svc.submit(bombdroid_core::ProtectJob {
                    apk: Arc::clone(&apk),
                    config: protect_config.clone(),
                    seed: bombdroid_core::SeedPolicy::Fixed(0x7AB0),
                })
                .unwrap();
            }
            let outcomes = svc.drain();
            std::hint::black_box(outcomes.len());
        }));
    }

    // --- runtime: protected-app event throughput (Table 5's kernel) ---
    if wanted("vm/drive_protected_50ev")
        || wanted("vm/drive_coverage_on")
        || wanted("vm/profile_2k_events")
        || wanted("vm/boot_session")
        || wanted("vm/fork_session")
        || wanted("attacks/guided_smoke")
    {
        let (_, signed) = protect_app(&app, protect_config.clone(), 0xBE);
        let pkg = Arc::new(InstalledPackage::install(&signed).expect("signed install"));
        // Cold path: boot a fresh VM and run 10 deterministic warm-up
        // events (the per-device cost the market simulator used to pay).
        let warm_boot = |pkg: &Arc<InstalledPackage>| -> Vm {
            let mut rng = StdRng::seed_from_u64(17);
            let mut vm = Vm::boot(Arc::clone(pkg), DeviceEnv::sample(&mut rng), 17);
            let mut source = RandomEventSource;
            let dex = Arc::clone(&vm.pkg.dex);
            for _ in 0..10 {
                if let Some(ev) = source.next_event(&dex, &mut rng) {
                    let _ = vm.fire_entry(ev.entry_index, ev.args);
                }
                if vm.is_killed() || vm.is_frozen() {
                    break;
                }
            }
            vm
        };
        if wanted("vm/boot_session") {
            push(run_bench("vm/boot_session", None, config, || {
                std::hint::black_box(warm_boot(&pkg).telemetry().instr_executed);
            }));
        }
        if wanted("vm/fork_session") {
            // Warm path: mint a ready session by forking the post-warm-up
            // snapshot — O(changed-state) instead of a full re-boot+replay.
            let snap = warm_boot(&pkg).snapshot();
            let env = DeviceEnv::sample(&mut StdRng::seed_from_u64(21));
            push(run_bench("vm/fork_session", None, config, || {
                let vm = snap.fork(std::hint::black_box(env.clone()), 21);
                std::hint::black_box(vm.telemetry().instr_executed);
            }));
        }
        if wanted("vm/drive_protected_50ev") {
            push(run_bench("vm/drive_protected_50ev", None, config, || {
                let mut rng = StdRng::seed_from_u64(3);
                let mut vm = Vm::boot(Arc::clone(&pkg), DeviceEnv::sample(&mut rng), 3);
                let mut source = RandomEventSource;
                let dex = Arc::clone(&vm.pkg.dex);
                for _ in 0..50 {
                    if let Some(ev) = source.next_event(&dex, &mut rng) {
                        let _ = vm.fire_entry(ev.entry_index, ev.args);
                    }
                    if vm.is_killed() || vm.is_frozen() {
                        break;
                    }
                }
                std::hint::black_box(vm.telemetry().instr_executed);
            }));
        }
        if wanted("vm/drive_coverage_on") {
            // The same 50-event drive with the edge-coverage hook armed
            // (decoded engine): the fuzzer's per-exec cost. Paired with
            // vm/drive_protected_50ev it bounds the hook's overhead; the
            // disabled-hook side is pinned exactly (telemetry-identical)
            // by the attacks determinism suite.
            let cov_opts = VmOptions {
                collect_coverage: true,
                ..VmOptions::default()
            };
            push(run_bench("vm/drive_coverage_on", None, config, || {
                let mut rng = StdRng::seed_from_u64(3);
                let mut vm = Vm::new(
                    Arc::clone(&pkg),
                    DeviceEnv::sample(&mut rng),
                    3,
                    cov_opts.clone(),
                );
                let mut source = RandomEventSource;
                let dex = Arc::clone(&vm.pkg.dex);
                for _ in 0..50 {
                    if let Some(ev) = source.next_event(&dex, &mut rng) {
                        let _ = vm.fire_entry(ev.entry_index, ev.args);
                    }
                    if vm.is_killed() || vm.is_frozen() {
                        break;
                    }
                }
                std::hint::black_box((vm.telemetry().instr_executed, vm.coverage_edges().len()));
            }));
        }
        if wanted("attacks/guided_smoke") {
            // One tiny serial guided campaign end to end (dictionary
            // harvest + seeds + snapshot-fork exec loop + merge): the
            // fuzzing subsystem's fixed cost per campaign.
            let campaign = bombdroid_attacks::GuidedConfig {
                seed: 0xF5,
                shards: 1,
                execs_per_shard: 10,
                threads: Some(1),
                reset: bombdroid_attacks::ResetMode::SnapshotFork,
                crack_budget: 500,
                checkpoints: 2,
                window: 1,
            };
            push(run_bench("attacks/guided_smoke", None, config, || {
                let report =
                    bombdroid_attacks::fuzz::guided(std::hint::black_box(&signed), &campaign);
                std::hint::black_box((report.coverage.len(), report.findings.len()));
            }));
        }
        if wanted("vm/profile_2k_events") {
            // The protect pass's dominant stage: install + boot + 2 000
            // random events. Sensitive to per-boot dex copies. Measured
            // with recording off whatever BOMBDROID_OBS says: it is also
            // the off side of obs/profile_2k_full.
            let profile_config = ProtectConfig {
                profiling_events: 2_000,
                ..protect_config.clone()
            };
            let apk = app.apk(&dev);
            let prior = obs::mode();
            obs::set_mode(ObsMode::Off);
            push(run_bench("vm/profile_2k_events", None, config, || {
                let hot = profile_app(std::hint::black_box(&apk), &profile_config, 11)
                    .expect("signed apk profiles")
                    .hot;
                std::hint::black_box(hot.len());
            }));
            obs::set_mode(prior);
        }
    }

    // --- attacks: the brute-force cracker's per-try kernel ---
    if wanted("attacks/brute_crack_80k_tries") {
        // An int constant the enumeration reaches after ~80k tries: the
        // condition hash per candidate dominates.
        let salt = b"bench-salt".to_vec();
        let condition = bombdroid_attacks::brute::ObfuscatedCondition {
            method: bombdroid_dex::MethodRef::new("T", "m"),
            pc: 0,
            hc: kdf::condition_hash(&Value::Int(40_000).canonical_bytes(), &salt).to_vec(),
            salt,
        };
        push(run_bench(
            "attacks/brute_crack_80k_tries",
            None,
            config,
            || {
                let cracked =
                    bombdroid_attacks::brute::crack(std::hint::black_box(&condition), 100_000);
                std::hint::black_box(cracked.tries);
            },
        ));
    }

    // --- obs: facade + streaming-aggregation cost ---
    // The observability contract is "off is near-free, full is cheap":
    // these lines pin the facade hot path (existing-key lookups must not
    // allocate) and the end-to-end overhead of full recording on the
    // profile workload. `set_mode` forces the mode per bench; the prior
    // mode is restored after.
    if wanted("obs/facade_counter_hot_1k")
        || wanted("obs/facade_timing_hot_1k")
        || wanted("obs/aggregator_absorb")
        || wanted("obs/profile_2k_full")
    {
        let prior = obs::mode();
        if wanted("obs/facade_counter_hot_1k") {
            obs::set_mode(ObsMode::Full);
            let scratch = Arc::new(Recorder::new());
            scratch.counter_add("bench.hot", 0);
            push(run_bench("obs/facade_counter_hot_1k", None, config, || {
                obs::with_recorder(Arc::clone(&scratch), || {
                    for i in 0..1024u64 {
                        obs::counter_add("bench.hot", std::hint::black_box(i) & 1);
                    }
                });
            }));
        }
        if wanted("obs/facade_timing_hot_1k") {
            obs::set_mode(ObsMode::Full);
            let scratch = Arc::new(Recorder::new());
            scratch.timing_record("bench.timing", 1);
            push(run_bench("obs/facade_timing_hot_1k", None, config, || {
                obs::with_recorder(Arc::clone(&scratch), || {
                    for i in 0..1024u64 {
                        obs::timing_record("bench.timing", std::hint::black_box(i) | 1);
                    }
                });
            }));
        }
        if wanted("obs/aggregator_absorb") {
            obs::set_mode(ObsMode::Full);
            // One synthetic per-task delta, absorbed repeatedly: the
            // fleet engine's per-task streaming fold cost. Sealed windows
            // are drained so memory stays bounded over the run.
            let delta = Recorder::new();
            delta.counter_add("task.events", 31);
            delta.counter_add("task.instr", 1733);
            delta.counter_add("task.reports", 1);
            delta.gauge_set("task.last", 7);
            delta.record("task.latency", 52_000);
            delta.timing_record("task.run", 40_000);
            let agg = ShardAggregator::new(64);
            push(run_bench("obs/aggregator_absorb", None, config, || {
                if agg.absorb_next(std::hint::black_box(&delta)).is_some() {
                    agg.drain_windows();
                }
            }));
        }
        // The full side of the off-vs-full pair on the protect pass's
        // dominant stage; vm/profile_2k_events is the off side. Full
        // recording — spans, op-mix counters, flight notes — must stay
        // within a few percent of off.
        let profile_config = ProtectConfig {
            profiling_events: 2_000,
            ..protect_config.clone()
        };
        if wanted("obs/profile_2k_full") {
            obs::set_mode(ObsMode::Full);
            let scratch = Arc::new(Recorder::new());
            push(run_bench("obs/profile_2k_full", None, config, || {
                obs::with_recorder(Arc::clone(&scratch), || {
                    let hot = profile_app(std::hint::black_box(&apk), &profile_config, 11)
                        .expect("signed apk profiles")
                        .hot;
                    std::hint::black_box(hot.len());
                });
            }));
        }
        obs::set_mode(prior);
    }

    // --- runtime: market user sessions (the market_day kernel) ---
    if wanted("vm/user_session") {
        // 16 user sessions of the pirated Hash Droid per iteration, each
        // forked from one pristine pool and driven by UserEventSource: what
        // every device of a market day or a population sweep runs. The
        // users are fixed, so every iteration does the same work.
        let (_, signed) = protect_app(&flagship::hash_droid(), ProtectConfig::default(), 0xBE);
        let (_, pirate) = fixed_keys();
        let pirated = repackage(&signed, &pirate, |_| {});
        let pkg = InstalledPackage::install(&pirated).expect("pirated install");
        let pool = SessionPool::new(Arc::new(pkg), VmOptions::default());
        let users: Vec<UserProfile> = (0..16)
            .map(|i| UserProfile::sample(&mut StdRng::seed_from_u64(0x05E5 + i)))
            .collect();
        push(run_bench("vm/user_session", None, config, || {
            for (i, user) in users.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(i as u64);
                let mut vm = pool.session(user.device.materialize(), i as u64);
                let mut source = UserEventSource::new(&vm.pkg);
                run_session(
                    &mut vm,
                    &mut source,
                    &mut rng,
                    u64::from(user.session_minutes),
                    u64::from(user.events_per_minute),
                );
                std::hint::black_box(vm.telemetry().instr_executed);
            }
        }));
    }

    // --- sim: the population-scale market day loop ---
    if wanted("sim/day_10k_sessions") || wanted("sim/checkpoint_roundtrip") {
        use bombdroid_sim::{BombCatalog, BombEntry, SimConfig, Simulator, SyntheticRunner};
        let catalog = BombCatalog::new(vec![
            BombEntry {
                marker: 1,
                blob: 1,
                predicted_ppm: 150_000,
            },
            BombEntry {
                marker: 2,
                blob: 2,
                predicted_ppm: 120_000,
            },
        ]);
        let mut sim_config = SimConfig::new(10_000, 5, 0x51B);
        sim_config.market.halt_on_takedown = false;
        sim_config.threads = Some(1);
        if wanted("sim/day_10k_sessions") {
            // One full 10k-session day loop with the closed-form runner:
            // the simulator's own overhead (population derivation, fleet
            // fan-out, windowed aggregation, serial fold), with VM cost
            // factored out.
            push(run_bench("sim/day_10k_sessions", None, config, || {
                let mut sim = Simulator::new(
                    sim_config,
                    catalog.clone(),
                    SyntheticRunner::new(catalog.clone()),
                );
                sim.run();
                std::hint::black_box(sim.sessions_run());
            }));
        }
        if wanted("sim/checkpoint_roundtrip") {
            // Serialize + parse + restore of a mid-run checkpoint: the
            // per-boundary cost a long campaign pays for killability.
            let mut sim = Simulator::new(
                sim_config,
                catalog.clone(),
                SyntheticRunner::new(catalog.clone()),
            );
            assert!(sim.step(), "fixture run finished before first boundary");
            push(run_bench("sim/checkpoint_roundtrip", None, config, || {
                let ckpt = sim.checkpoint_json().expect("at chunk boundary");
                let resumed = Simulator::from_checkpoint(
                    std::hint::black_box(&ckpt),
                    SyntheticRunner::new(catalog.clone()),
                )
                .expect("round-trip");
                std::hint::black_box(resumed.sessions_run());
            }));
        }
    }

    // --- fleet: a miniature Table 3 (protect-cache + sessions + merge) ---
    if wanted("fleet/table3_smoke") {
        push(run_bench("fleet/table3_smoke", None, config, || {
            let rows = table3_with(
                FleetConfig::new(0x7AB3),
                ProtectConfig::fast_profile(),
                1,
                5,
            );
            std::hint::black_box(rows.len());
        }));
    }

    results
}
