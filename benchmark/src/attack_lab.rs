//! `attack_lab`: the attacker's cost against protected apps (§8.3).
//!
//! Targets are the eight flagships and one generated app per Table 1
//! category, each protected under the paper's defaults and under the
//! single-trigger control. One item is one campaign against one target:
//! brute force on every obfuscated condition with a fixed try budget,
//! then a serial coverage-guided fuzzing campaign with a fixed exec
//! budget. Neither half touches profiling, sealing or the simulator.
//!
//! The targets and their protection seeds are the same on every workload
//! seed, so runs on different seeds attack the same APKs; the workload
//! seed draws the fuzzing campaigns.

use crate::apps::{self, shuffle, AppSpec, FLAGSHIPS};
use crate::harness::{mix, secs, Item, Report, Workload};
use bombdroid_apk::ApkFile;
use bombdroid_attacks::{brute, fuzz, GuidedConfig, ResetMode};
use bombdroid_core::{derive_seed, Protector};
use bombdroid_corpus::Category;
use bombdroid_crypto::kdf;
use bombdroid_obs::{self as obs, Recorder};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Candidate constants tried per obfuscated condition; also the budget
/// the fuzzer's dictionary stage spends per condition.
const BRUTE_BUDGET: u64 = 4_096;

/// Execs per fuzzing campaign.
const FUZZ_EXECS: u64 = 15_000;

/// Draws the generated targets, every target's protection seed and the
/// campaign order; the same for every workload seed.
const TARGET_SEED: u64 = 0x00A7_7AC4;

/// What the benchmark keeps of a guided campaign's report.
struct Guided {
    execs: u64,
    edges: u64,
    markers: Vec<u32>,
    found: u64,
    unreplayed: usize,
}

/// A protected, developer-signed app under attack.
struct Target {
    apk: ApkFile,
    real_bombs: u64,
}

/// The workload.
pub struct AttackLab {
    seed: u64,
    campaigns: usize,
}

impl AttackLab {
    /// `campaigns` campaigns over the fixed targets, fuzzing seeds drawn
    /// from `seed`.
    pub fn new(seed: u64, campaigns: usize) -> Self {
        AttackLab {
            seed,
            campaigns: campaigns.max(1),
        }
    }

    /// Builds the first `min(campaigns, all)` targets of the fixed order.
    fn targets(&self) -> Vec<Target> {
        let mut rng = StdRng::seed_from_u64(TARGET_SEED);
        let apps: Vec<AppSpec> = (0..FLAGSHIPS.len())
            .map(AppSpec::Flagship)
            .chain(Category::ALL.iter().map(|&category| AppSpec::Generated {
                category,
                seed: rng.gen(),
            }))
            .collect();
        let mut specs: Vec<(AppSpec, bool, u64)> = [false, true]
            .into_iter()
            .flat_map(|control| apps.iter().map(move |&app| (app, control)))
            .map(|(app, control)| (app, control, rng.gen()))
            .collect();
        shuffle(&mut specs, &mut rng);
        specs.truncate(self.campaigns);
        let key = apps::developer_key();
        specs
            .into_iter()
            .map(|(app, control, seed)| {
                let config = if control {
                    apps::control_config()
                } else {
                    apps::paper_config()
                };
                let protected = Protector::new(config)
                    .protect(&app.apk(&key), &mut StdRng::seed_from_u64(seed))
                    .expect("targets protect");
                Target {
                    apk: protected.package(&key),
                    real_bombs: protected.report.bombs_injected() as u64,
                }
            })
            .collect()
    }
}

/// Totals over the pass; times in seconds.
#[derive(Default)]
struct Acc {
    conditions: u64,
    cracked: u64,
    tries: u64,
    real_bombs: u64,
    found: u64,
    execs: u64,
    edges: u64,
    traced: u64,
    latency: f64,
    brute: f64,
    guided: f64,
    traced_tries: u64,
    traced_execs: u64,
}

/// Targets and accumulators.
pub struct State {
    targets: Arc<Vec<Target>>,
    acc: Acc,
}

impl Workload for AttackLab {
    type State = State;

    fn len(&self) -> usize {
        self.campaigns
    }

    fn setup(&self) -> (State, Vec<u64>) {
        let targets = Arc::new(self.targets());
        let mut warm = State {
            targets: Arc::clone(&targets),
            acc: Acc::default(),
        };
        let fp = self.item(&mut warm, 0, false).fingerprint;
        let state = State {
            targets,
            acc: Acc::default(),
        };
        (state, vec![fp])
    }

    fn item(&self, st: &mut State, index: usize, traced: bool) -> Item {
        let target = &st.targets[index % st.targets.len()];
        let campaign = GuidedConfig {
            seed: derive_seed(self.seed ^ 0xF022, index as u64),
            shards: 1,
            execs_per_shard: FUZZ_EXECS,
            threads: Some(1),
            reset: ResetMode::SnapshotFork,
            crack_budget: BRUTE_BUDGET,
            checkpoints: 4,
            window: 1,
        };
        let rec = Arc::new(Recorder::new());
        // The campaign ends when the fuzzer's report, corpus included, has
        // been read and released; that teardown is the unattributed part.
        let run = || {
            let t0 = Instant::now();
            let cracks: Vec<brute::CrackResult> = brute::find_conditions(&target.apk.dex)
                .iter()
                .map(|c| brute::crack(c, BRUTE_BUDGET))
                .collect();
            let t1 = Instant::now();
            let guided = fuzz::guided(&target.apk, &campaign);
            let t2 = Instant::now();
            let summary = Guided {
                execs: guided.execs,
                edges: guided.coverage.len() as u64,
                markers: guided.findings.iter().map(|f| f.marker).collect(),
                found: guided.validated_markers().len() as u64,
                unreplayed: guided.findings.iter().filter(|f| !f.validated).count(),
            };
            drop(guided);
            (cracks, summary, [t0, t1, t2, Instant::now()])
        };
        let (cracks, guided, [t0, t1, t2, t3]) = if traced {
            obs::with_recorder(rec, run)
        } else {
            run()
        };

        let mut item = Item {
            latency_s: secs(t0, t3),
            units: 1.0,
            ..Item::default()
        };
        let tries: u64 = cracks.iter().map(|c| c.tries).sum();
        let cracked = cracks.iter().filter(|c| c.recovered.is_some()).count() as u64;
        for c in &cracks {
            if let Some(v) = &c.recovered {
                let hc = kdf::condition_hash(&v.canonical_bytes(), &c.condition.salt);
                if hc[..] != c.condition.hc[..] {
                    item.problems.push(format!(
                        "campaign {index}: recovered {v:?} does not re-hash to its Hc"
                    ));
                }
            }
        }
        if index == 0 {
            // The timed half decomposes `brute_force_campaign` to see each
            // recovered constant; it must still agree with the whole.
            let whole = brute::brute_force_campaign(&target.apk, BRUTE_BUDGET);
            if (whole.total, whole.cracked, whole.tries) != (cracks.len(), cracked as usize, tries)
            {
                item.problems
                    .push("per-condition brute force disagrees with the campaign".to_string());
            }
        }
        let found = guided.found;
        if guided.unreplayed > 0 {
            item.problems
                .push(format!("campaign {index}: a fuzz finding did not replay"));
        }
        if found > target.real_bombs {
            item.problems.push(format!(
                "campaign {index}: found more bombs than were planted"
            ));
        }
        let edges = guided.edges;
        item.fingerprint = [cracks.len() as u64, cracked, tries, guided.execs, edges]
            .into_iter()
            .chain(guided.markers.iter().map(|&m| u64::from(m)))
            .fold(0, mix);

        let a = &mut st.acc;
        a.conditions += cracks.len() as u64;
        a.cracked += cracked;
        a.tries += tries;
        a.real_bombs += target.real_bombs;
        a.found += found;
        a.execs += guided.execs;
        a.edges += edges;
        if traced {
            a.traced += 1;
            a.latency += item.latency_s;
            a.brute += secs(t0, t1);
            a.guided += secs(t1, t2);
            a.traced_tries += tries;
            a.traced_execs += guided.execs;
        }
        item
    }

    fn report(&self, st: &State, traced: bool) -> Report {
        let a = &st.acc;
        let mut r = Report::default();
        r.guards.insert(
            "cracked_pct",
            100.0 * a.cracked as f64 / a.conditions.max(1) as f64,
        );
        r.guards.insert(
            "fuzz_found_pct",
            100.0 * a.found as f64 / a.real_bombs.max(1) as f64,
        );
        r.layers.insert("attacks.tries", a.tries as f64);
        r.layers.insert("attacks.execs", a.execs as f64);
        r.layers.insert("attacks.edges", a.edges as f64);
        if traced && a.traced > 0 {
            let per = |s: f64| 1e3 * s / a.traced as f64;
            r.layers.insert("attacks.brute.ms", per(a.brute));
            r.layers.insert("attacks.guided.ms", per(a.guided));
            r.layers
                .insert("unattributed.ms", per(a.latency - a.brute - a.guided));
            r.layers.insert(
                "crypto.try.ns",
                1e9 * a.brute / a.traced_tries.max(1) as f64,
            );
            r.layers.insert(
                "runtime.exec.us",
                1e6 * a.guided / a.traced_execs.max(1) as f64,
            );
        }
        r
    }
}
