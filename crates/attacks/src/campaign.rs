//! The coverage-guided fuzzing campaign (ROADMAP item 3: field a
//! Difuzer-class attacker at full strength).
//!
//! One campaign = N deterministic shards run through the fleet engine.
//! Every shard seeds its own corpus from the same deterministic seed round
//! (favourites + the Redqueen dictionary of cracked `Hash(X|salt) == Hc`
//! constants), then spends its exec budget on a classic greybox loop:
//! pick a corpus input, splice/havoc-mutate it, run it on a freshly reset
//! VM with edge coverage on, and keep it iff it covered a new edge.
//! Resets fork a *pristine* snapshot ([`ResetMode::SnapshotFork`], ~113×
//! cheaper than a cold boot) or boot cold ([`ResetMode::ColdBoot`]); a
//! pristine fork is bit-identical to a cold boot, so the two modes produce
//! byte-for-byte identical campaigns — the determinism suite pins this.
//!
//! # Determinism
//!
//! Each shard is a pure function of its fleet-derived seed, and the merge
//! walks shards in task index order (coverage union, key-deduplicated
//! corpus append, first-discovery findings). The bombs-vs-budget curve is
//! sampled per shard at fixed exec checkpoints and unioned across shards,
//! so every reported artifact is bit-identical for any `BOMBDROID_THREADS`
//! value. Per-window progress streams through an
//! [`bombdroid_obs::ShardAggregator`].

use crate::corpus::{harvest_dictionary, havoc, seed_inputs, splice, Corpus, FuzzInput};
use crate::coverage::CoverageMap;
use crate::fuzz::count_outer_conditions;
use bombdroid_apk::ApkFile;
use bombdroid_core::{derive_seed, expect_all, run_range_windowed, FleetConfig, TaskCtx};
use bombdroid_dex::Value;
use bombdroid_runtime::{DeviceEnv, InstalledPackage, Vm, VmOptions, VmSnapshot};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How each exec gets a fresh VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetMode {
    /// Fork a pristine snapshot taken once at campaign start (fast path).
    SnapshotFork,
    /// Boot a new VM from scratch every exec (reference path; bit-identical
    /// to forking, only slower).
    ColdBoot,
}

/// Campaign parameters. All of them feed the deterministic shard seeds, so
/// two campaigns with equal configs produce identical reports regardless
/// of thread count or reset mode.
#[derive(Debug, Clone)]
pub struct GuidedConfig {
    /// Root seed for shard derivation.
    pub seed: u64,
    /// Independent fuzzing shards (also the fleet task count).
    pub shards: usize,
    /// Exec budget per shard.
    pub execs_per_shard: u64,
    /// Worker threads: `Some(n)` pins the count (the determinism suite
    /// compares 1/2/8), `None` defers to `BOMBDROID_THREADS` / all CPUs.
    pub threads: Option<usize>,
    /// VM reset strategy.
    pub reset: ResetMode,
    /// Brute-force tries per condition when harvesting the dictionary.
    pub crack_budget: u64,
    /// Sample count for the bombs-vs-budget curve.
    pub checkpoints: usize,
    /// Shards per obs aggregation window.
    pub window: usize,
}

impl GuidedConfig {
    /// A small fixed-budget smoke campaign (the CI configuration).
    pub fn smoke(seed: u64) -> Self {
        GuidedConfig {
            seed,
            shards: 4,
            execs_per_shard: 60,
            threads: None,
            reset: ResetMode::SnapshotFork,
            crack_budget: 5_000,
            checkpoints: 6,
            window: 2,
        }
    }
}

/// One confirmed bomb discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The bomb's payload marker id.
    pub marker: u32,
    /// Shard that found it first (lowest shard index wins on merge).
    pub shard: usize,
    /// 1-based exec number within that shard's budget.
    pub exec: u64,
    /// The triggering input.
    pub input: FuzzInput,
    /// The VM seed the discovery ran under (used for replay).
    pub vm_seed: u64,
    /// Whether the ground-truth replay on a fresh, uninstrumented VM
    /// re-fired the payload.
    pub validated: bool,
}

/// The merged result of a campaign.
#[derive(Debug, Clone)]
pub struct GuidedReport {
    /// Total execs spent (shards × budget).
    pub execs: u64,
    /// Union coverage across all shards.
    pub coverage: CoverageMap,
    /// Merged corpus (task-index-ordered shard append, deduplicated).
    pub corpus: Corpus,
    /// Greedy minset of the merged corpus; covers exactly what
    /// [`GuidedReport::corpus`] covers.
    pub minimized: Corpus,
    /// Distinct bombs found, sorted by marker id, each replay-validated.
    pub findings: Vec<Finding>,
    /// `(cumulative execs, distinct bombs found)` at fixed checkpoints.
    pub curve: Vec<(u64, usize)>,
    /// Obfuscated outer conditions present in the target (denominator for
    /// resilience percentages).
    pub total_outer: usize,
    /// Dictionary constants recovered by the input-to-state stage.
    pub dictionary_len: usize,
    /// Obs windows sealed while streaming shard progress.
    pub windows_sealed: usize,
}

impl GuidedReport {
    /// Marker ids of all validated findings.
    pub fn validated_markers(&self) -> Vec<u32> {
        self.findings
            .iter()
            .filter(|f| f.validated)
            .map(|f| f.marker)
            .collect()
    }
}

struct ShardResult {
    corpus: Corpus,
    coverage: CoverageMap,
    /// `(exec_no, marker, input, vm_seed)` per shard-locally-new marker,
    /// in discovery order.
    found: Vec<(u64, u32, FuzzInput, u64)>,
}

fn campaign_opts() -> VmOptions {
    VmOptions {
        collect_coverage: true,
        ..VmOptions::default()
    }
}

fn fresh_vm(
    reset: ResetMode,
    pristine: &VmSnapshot,
    pkg: &Arc<InstalledPackage>,
    env: &DeviceEnv,
    vm_seed: u64,
) -> Vm {
    match reset {
        ResetMode::SnapshotFork => pristine.fork(env.clone(), vm_seed),
        ResetMode::ColdBoot => Vm::new(Arc::clone(pkg), env.clone(), vm_seed, campaign_opts()),
    }
}

fn run_input(vm: &mut Vm, input: &FuzzInput) {
    for ev in &input.events {
        if vm.is_killed() || vm.is_frozen() {
            break;
        }
        let _ = vm.fire_entry(ev.entry_index, ev.args.clone());
        vm.advance_ms(1_000);
    }
}

fn run_shard(
    ctx: TaskCtx,
    cfg: &GuidedConfig,
    pkg: &Arc<InstalledPackage>,
    pristine: &VmSnapshot,
    env: &DeviceEnv,
    seeds: &[FuzzInput],
    dictionary: &[Value],
) -> ShardResult {
    let dex = pkg.dex.clone();
    let mut rng = ctx.rng();
    let mut corpus = Corpus::new();
    let mut coverage = CoverageMap::new();
    let mut found: Vec<(u64, u32, FuzzInput, u64)> = Vec::new();
    let mut markers_seen: BTreeSet<u32> = BTreeSet::new();
    let mut events_fired = 0u64;

    for exec_idx in 0..cfg.execs_per_shard {
        let input = if (exec_idx as usize) < seeds.len() {
            seeds[exec_idx as usize].clone()
        } else if corpus.is_empty() {
            havoc(
                &FuzzInput { events: Vec::new() },
                &dex,
                dictionary,
                &mut rng,
            )
        } else {
            let base = &corpus.entries()[rng.gen_range(0..corpus.len())].input;
            let staged = if corpus.len() > 1 && rng.gen_range(0..4u8) == 0 {
                let other = &corpus.entries()[rng.gen_range(0..corpus.len())].input;
                splice(base, other, &mut rng)
            } else {
                base.clone()
            };
            havoc(&staged, &dex, dictionary, &mut rng)
        };

        let vm_seed = derive_seed(ctx.seed ^ 0xF422, exec_idx);
        let mut vm = fresh_vm(cfg.reset, pristine, pkg, env, vm_seed);
        run_input(&mut vm, &input);
        events_fired += input.events.len() as u64;

        let edges = vm.coverage_edges();
        let new_edges = coverage.absorb(&edges);
        for &m in &vm.telemetry().markers {
            if markers_seen.insert(m) {
                found.push((exec_idx + 1, m, input.clone(), vm_seed));
            }
        }
        // Seeds are always kept (they are the mutation base line-up);
        // mutants must earn their slot with a new edge.
        if new_edges > 0 || (exec_idx as usize) < seeds.len() {
            corpus.add(input, edges);
        }
    }

    if bombdroid_obs::enabled() {
        bombdroid_obs::counter_add("fuzz.shards", 1);
        bombdroid_obs::counter_add("fuzz.execs", cfg.execs_per_shard);
        bombdroid_obs::counter_add_nz("fuzz.events_fired", events_fired);
        bombdroid_obs::counter_add_nz("fuzz.corpus_entries", corpus.len() as u64);
        bombdroid_obs::counter_add_nz("fuzz.edges_covered", coverage.len() as u64);
        bombdroid_obs::counter_add_nz("fuzz.bombs_found", markers_seen.len() as u64);
    }

    ShardResult {
        corpus,
        coverage,
        found,
    }
}

/// Replays a finding on a fresh, uninstrumented VM (coverage off, cold
/// boot) and reports whether the payload marker fires again — the
/// ground-truth check that a reported bomb is a real bomb.
fn validate_finding(pkg: &Arc<InstalledPackage>, env: &DeviceEnv, f: &Finding) -> bool {
    let mut vm = Vm::new(
        Arc::clone(pkg),
        env.clone(),
        f.vm_seed,
        VmOptions::default(),
    );
    run_input(&mut vm, &f.input);
    vm.telemetry().markers.contains(&f.marker)
}

/// Runs a guided campaign against the *original signed* protected `apk`
/// (the attacker's lab setup: detections compare equal and never kill the
/// process, while markers still record every payload that fires).
///
/// # Panics
///
/// Panics if `apk` does not verify.
pub fn run(apk: &ApkFile, cfg: &GuidedConfig) -> GuidedReport {
    let pkg = Arc::new(InstalledPackage::install(apk).expect("attacker installs the signed app"));
    let total_outer = count_outer_conditions(&pkg.dex);
    let dictionary = harvest_dictionary(&pkg.dex, cfg.crack_budget);
    let seeds = seed_inputs(&pkg.dex, &dictionary);
    let env = DeviceEnv::attacker_lab(1).remove(0);
    // The pristine snapshot is taken before any event, so forking it with
    // (env, seed) is bit-identical to `Vm::new` with the same pair; its
    // own boot env/seed are irrelevant.
    let pristine = Vm::new(Arc::clone(&pkg), env.clone(), 0, campaign_opts()).snapshot();

    let fleet = match cfg.threads {
        Some(t) => FleetConfig::serial(cfg.seed).with_threads(t),
        None => FleetConfig::from_env(cfg.seed),
    };
    let aggregator = bombdroid_obs::ShardAggregator::new(cfg.window);
    let shard_results: Vec<ShardResult> = expect_all(run_range_windowed(
        fleet,
        0..cfg.shards,
        &aggregator,
        |ctx| {
            Ok::<_, std::convert::Infallible>(run_shard(
                ctx,
                cfg,
                &pkg,
                &pristine,
                &env,
                &seeds,
                &dictionary,
            ))
        },
    ));
    aggregator.finish();
    let windows_sealed = aggregator.windows_sealed();
    if bombdroid_obs::enabled() {
        // Fold the streamed campaign counters into the caller's recorder
        // so `repro --fast guided` exports them in metrics.json.
        bombdroid_obs::current().merge_from(&aggregator.total());
    }

    // Task-index-ordered merge: identical for every worker count.
    let mut coverage = CoverageMap::new();
    let mut corpus = Corpus::new();
    let mut first_by_marker: BTreeMap<u32, Finding> = BTreeMap::new();
    for (shard, r) in shard_results.iter().enumerate() {
        coverage.merge(&r.coverage);
        corpus.merge_from(&r.corpus);
        for (exec, marker, input, vm_seed) in &r.found {
            first_by_marker.entry(*marker).or_insert(Finding {
                marker: *marker,
                shard,
                exec: *exec,
                input: input.clone(),
                vm_seed: *vm_seed,
                validated: false,
            });
        }
    }
    let mut findings: Vec<Finding> = first_by_marker.into_values().collect();
    for f in &mut findings {
        f.validated = validate_finding(&pkg, &env, f);
    }

    // Bombs-vs-budget curve: at checkpoint k every shard has spent the
    // same per-shard cutoff, so the sample is a union over shards of
    // markers discovered within that cutoff — order-independent.
    let checkpoints = cfg.checkpoints.max(1) as u64;
    let mut curve = Vec::with_capacity(checkpoints as usize);
    for k in 1..=checkpoints {
        let cutoff = cfg.execs_per_shard * k / checkpoints;
        let bombs: BTreeSet<u32> = shard_results
            .iter()
            .flat_map(|r| r.found.iter())
            .filter(|(exec, ..)| *exec <= cutoff)
            .map(|(_, marker, ..)| *marker)
            .collect();
        curve.push((cutoff * cfg.shards as u64, bombs.len()));
    }

    let minimized = corpus.minimized();
    GuidedReport {
        execs: cfg.execs_per_shard * cfg.shards as u64,
        coverage,
        corpus,
        minimized,
        findings,
        curve,
        total_outer,
        dictionary_len: dictionary.len(),
        windows_sealed,
    }
}
