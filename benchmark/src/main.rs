//! The BombDroid-rs benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload store_protect --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`store_protect`, `market_day` or `attack_lab`) on
//! inputs drawn from `--seed`, checks every output, and prints a report
//! followed by one JSON result line. `BENCHMARK.json` gates the first two;
//! `attack_lab` runs by hand and as a side run (see `README.md`). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics of a traced pass.
//! The amount of work is fixed by `--seconds` (not by a clock), so a run
//! on a given seed always does the same work. See `README.md` here for the
//! workloads, the metrics and which layer moves which metric.

mod apps;
mod attack_lab;
mod harness;
mod host;
mod market_day;
mod stats;
mod store_protect;

use harness::Outcome;
use stats::Metric;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Seed of the small fixed runs that supply the guards and layers a
/// workload does not exercise itself.
const SIDE_SEED: u64 = 0x51DE;

/// Threads the program may use: one drain worker or two fleet workers.
const THREADS: &str = "2";

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 11] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dex_growth_pct", "%"),
    ("bombs_per_app", "count"),
    ("instr_overhead_pct", "%"),
    ("detection_pct", "%"),
    ("cracked_pct", "%"),
    ("fuzz_found_pct", "%"),
];

/// Per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 27] = [
    ("core.profiling.ms", "ms"),
    ("core.plan.ms", "ms"),
    ("core.arm.ms", "ms"),
    ("core.validate.ms", "ms"),
    ("apk.sign.ms", "ms"),
    ("core.service.ms", "ms"),
    ("core.service.hit_ratio", "ratio"),
    ("runtime.session.ms", "ms"),
    ("runtime.fork.us", "us"),
    ("core.fleet.busy_pct", "%"),
    ("sim.fold.ms", "ms"),
    ("sim.band_misses", "count"),
    ("attacks.brute.ms", "ms"),
    ("crypto.try.ns", "ns"),
    ("attacks.guided.ms", "ms"),
    ("runtime.exec.us", "us"),
    ("unattributed.ms", "ms"),
    ("obs.overhead_pct", "%"),
    ("host.steal_pct", "%"),
    ("core.profiling.instr", "count"),
    ("crypto.blobs_sealed", "count"),
    ("dex.bytes_out", "count"),
    ("runtime.instr_per_session", "count"),
    ("runtime.blobs_decrypted", "count"),
    ("attacks.tries", "count"),
    ("attacks.execs", "count"),
    ("attacks.edges", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    StoreProtect,
    MarketDay,
    AttackLab,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::StoreProtect, Kind::MarketDay, Kind::AttackLab];

    /// The workloads `BENCHMARK.json` declares. `attack_lab` is left out:
    /// its timings follow the host's speed swings more than the others'.
    #[cfg(test)]
    const GATED: [Kind; 2] = [Kind::StoreProtect, Kind::MarketDay];

    fn name(self) -> &'static str {
        match self {
            Kind::StoreProtect => "store_protect",
            Kind::MarketDay => "market_day",
            Kind::AttackLab => "attack_lab",
        }
    }

    /// Items per second of `--seconds` on a 2-core x86-64 VM.
    fn items_per_second(self) -> f64 {
        match self {
            Kind::StoreProtect => 16.0,
            Kind::MarketDay => 10.0,
            Kind::AttackLab => 1.6,
        }
    }

    /// Set-up repetitions per run; `setup_s` is their median. Fewer
    /// where one set-up protects dozens of targets.
    fn setup_reps(self) -> usize {
        match self {
            Kind::StoreProtect | Kind::MarketDay => 5,
            Kind::AttackLab => 3,
        }
    }

    /// Items in the small fixed side run.
    fn side_items(self) -> usize {
        match self {
            Kind::StoreProtect => 4,
            Kind::MarketDay => 4,
            Kind::AttackLab => 4,
        }
    }

    fn run(self, seed: u64, items: usize, trace: bool, setup_reps: usize) -> Outcome {
        match self {
            Kind::StoreProtect => harness::run(
                &store_protect::StoreProtect::new(seed, items),
                trace,
                setup_reps,
            ),
            Kind::MarketDay => {
                harness::run(&market_day::MarketDay::new(seed, items), trace, setup_reps)
            }
            Kind::AttackLab => {
                harness::run(&attack_lab::AttackLab::new(seed, items), trace, setup_reps)
            }
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bombdroid-benchmark --workload <store_protect|market_day|attack_lab> \
                 --seed <u64> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    // Set before any thread exists; the arm phase and fleet read it.
    std::env::set_var("BOMBDROID_THREADS", THREADS);
    let cpu_start = host::CpuTimes::now();

    let items = ((args.seconds * args.kind.items_per_second()).round() as usize).max(1);
    let main = args
        .kind
        .run(args.seed, items, args.trace, args.kind.setup_reps());
    let peak_rss_mb = host::peak_rss_mb();
    let sides: Vec<(Kind, Outcome)> = Kind::ALL
        .into_iter()
        .filter(|k| *k != args.kind)
        .map(|k| (k, k.run(SIDE_SEED, k.side_items(), args.trace, 1)))
        .collect();
    let steal_pct = host::CpuTimes::now().steal_pct_since(&cpu_start);
    let runs: Vec<(Kind, &Outcome)> = [(args.kind, &main)]
        .into_iter()
        .chain(sides.iter().map(|(k, o)| (*k, o)))
        .collect();

    // Values a workload measures itself win over the side runs'.
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (_, o) in runs.iter().rev() {
        values.extend(o.report.guards.iter().map(|(k, v)| (*k, *v)));
        values.extend(o.report.layers.iter().map(|(k, v)| (*k, *v)));
    }
    let p50 = stats::median(&main.latencies_ms);
    let tail = stats::tail(&main.latencies_ms);
    values.insert("throughput_per_s", main.throughput_per_s);
    values.insert("latency_p50_ms", p50);
    values.insert("latency_tail_ms", tail.value);
    values.insert("setup_s", stats::median(&main.setup_s));
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("host.steal_pct", steal_pct);
    if let Some(o) = main.overhead_pct {
        values.insert("obs.overhead_pct", o);
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    for (name, o) in &runs {
        attempted += o.attempted;
        failed += o.failed;
        problems.extend(o.problems.iter().map(|p| format!("{}: {p}", name.name())));
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = BTreeMap::new();
    for &(name, unit) in wanted {
        let value = values.get(name).copied().unwrap_or(f64::NAN);
        attempted += 1;
        if !value.is_finite() {
            failed += 1;
            problems.push(format!("metric {name} was not measured"));
        }
        metrics.insert(name.to_string(), Metric { value, unit });
    }

    println!(
        "# workload {} seed {} items {} trace {} threads {THREADS}",
        args.kind.name(),
        args.seed,
        items,
        u8::from(args.trace)
    );
    println!(
        "# latency p50 {p50:.3} ms, tail p{:.1} {:.3} ms with {} of {} samples beyond",
        tail.percentile, tail.value, tail.beyond, tail.samples
    );
    println!(
        "# setup runs {:?} s; host cpu steal {steal_pct:.2}%",
        main.setup_s
    );
    for (name, v) in &values {
        println!("#   {name:<28} {v}");
    }
    for (k, o) in &runs {
        for n in &o.report.notes {
            println!("# note {}: {n}", k.name());
        }
    }
    for p in &problems {
        println!("# FAILED {p}");
    }
    println!(
        "{}",
        stats::result_json(failed == 0, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_obs::json::{self, JsonValue};

    fn declared(doc: &JsonValue, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(workloads, Kind::GATED.map(Kind::name));
    }
}
