//! `store_protect`: a seeded stream of uploads through `ProtectService`.
//!
//! One client submits a job, drains the service (one worker) and signs
//! the protected app; the next job goes in only after that (closed loop).
//! Latency runs from submit to signed APK. The stream mixes the eight
//! flagships with generated apps whose categories are drawn with the
//! Table 1 app counts as weights. In every block of ten jobs seven are
//! fresh apps, two re-protect a recent app under a new seed, and one
//! exactly repeats a recent job, which the protection cache must answer
//! with the same bytes. That 7/2/1 mix is an assumed upload mix, not a
//! measured store trace; the duplicate share sets the cache-hit ratio.

use crate::apps::{self, apk_digest, observe, shuffle, AppSpec, FLAGSHIPS};
use crate::harness::{mix, secs, Item, Report, Workload};
use bombdroid_apk::{ApkFile, DeveloperKey};
use bombdroid_core::{ProtectJob, ProtectService, SeedPolicy};
use bombdroid_corpus::CATEGORY_WEIGHTS;
use bombdroid_dex::wire;
use bombdroid_obs::{self as obs, Recorder};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Job kinds in each block of ten, before the seeded shuffle: an assumed
/// mix (no store trace is available), not a measured one.
const BLOCK: [Kind; 10] = [
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Reprotect,
    Kind::Reprotect,
    Kind::Duplicate,
];

/// Re-protects and duplicates draw from this many most recent apps/jobs.
const RECENT: usize = 16;

/// Jobs the warm-up runs: enough apps that set-up time depends little on
/// which app the seed puts first.
const WARM_JOBS: usize = 8;

/// Intake bound. The closed loop never queues more than one job.
const QUEUE_BOUND: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Reprotect,
    Duplicate,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    app: usize,
    seed: u64,
    kind: Kind,
}

/// The job stream: which app each job uploads, under which seed.
struct Plan {
    apps: Vec<AppSpec>,
    jobs: Vec<Job>,
    /// Last job index that uses each app (inputs are freed after it).
    last_use: Vec<usize>,
}

fn plan(seed: u64, count: usize) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5704_E000);
    let mut kinds = Vec::with_capacity(count);
    while kinds.len() < count {
        let mut block = BLOCK;
        shuffle(&mut block, &mut rng);
        if kinds.is_empty() {
            let first = block.iter().position(|k| *k == Kind::Fresh).expect("fresh");
            block.swap(0, first);
        }
        kinds.extend(block);
    }
    kinds.truncate(count);

    let fresh = kinds.iter().filter(|k| **k == Kind::Fresh).count();
    let mut apps: Vec<AppSpec> = (0..FLAGSHIPS.len()).map(AppSpec::Flagship).collect();
    while apps.len() < fresh.max(FLAGSHIPS.len()) {
        apps.push(AppSpec::Generated {
            category: CATEGORY_WEIGHTS.pick(&mut rng),
            seed: rng.gen(),
        });
    }
    shuffle(&mut apps, &mut rng);
    apps.truncate(fresh);

    let mut jobs: Vec<Job> = Vec::with_capacity(count);
    let mut next_fresh = 0;
    for kind in kinds {
        let job = match kind {
            Kind::Fresh => {
                next_fresh += 1;
                Job {
                    app: next_fresh - 1,
                    seed: rng.gen(),
                    kind,
                }
            }
            Kind::Reprotect => {
                let lo = next_fresh.saturating_sub(RECENT);
                Job {
                    app: rng.gen_range(lo..next_fresh),
                    seed: rng.gen(),
                    kind,
                }
            }
            Kind::Duplicate => {
                let recent: Vec<&Job> = jobs.iter().rev().take(RECENT).collect();
                let of = recent[rng.gen_range(0..recent.len())];
                Job { kind, ..*of }
            }
        };
        jobs.push(job);
    }
    let mut last_use = vec![0; apps.len()];
    for (i, j) in jobs.iter().enumerate() {
        last_use[j.app] = i;
    }
    Plan {
        apps,
        jobs,
        last_use,
    }
}

/// The workload.
pub struct StoreProtect {
    seed: u64,
    jobs: usize,
}

impl StoreProtect {
    /// `jobs` uploads drawn from `seed`.
    pub fn new(seed: u64, jobs: usize) -> Self {
        StoreProtect {
            seed,
            jobs: jobs.max(1),
        }
    }
}

/// Totals over the pass; times in seconds.
#[derive(Default)]
struct Acc {
    jobs: u64,
    hits: u64,
    passes: u64,
    real_bombs: u64,
    dex_in: u64,
    dex_out: u64,
    dex_protected: u64,
    blobs_sealed: u64,
    instr_original: u64,
    instr_protected: u64,
    traced: u64,
    latency: f64,
    profiling: f64,
    plan: f64,
    arm: f64,
    validate: f64,
    sign: f64,
    service: f64,
    profiling_instr: u64,
}

/// Set-up products and accumulators.
pub struct State {
    plan: Plan,
    key: DeveloperKey,
    service: ProtectService,
    apks: BTreeMap<usize, Arc<ApkFile>>,
    first_pass: BTreeMap<(usize, u64), u64>,
    acc: Acc,
}

impl State {
    fn new(seed: u64, jobs: usize) -> Self {
        State {
            plan: plan(seed, jobs),
            key: apps::developer_key(),
            service: ProtectService::with_threads(1, QUEUE_BOUND),
            apks: BTreeMap::new(),
            first_pass: BTreeMap::new(),
            acc: Acc::default(),
        }
    }
}

fn span_s(rec: &Recorder, span: &str) -> f64 {
    rec.timing_total_ns(span) as f64 * 1e-9
}

impl Workload for StoreProtect {
    type State = State;

    fn len(&self) -> usize {
        self.jobs
    }

    fn setup(&self) -> (State, Vec<u64>) {
        let state = State::new(self.seed, self.jobs);
        let mut warm = State::new(self.seed, self.jobs);
        let fps = (0..WARM_JOBS.min(self.jobs))
            .map(|i| self.item(&mut warm, i, false).fingerprint)
            .collect();
        (state, fps)
    }

    fn item(&self, st: &mut State, index: usize, traced: bool) -> Item {
        let job = st.plan.jobs[index];
        let apk = {
            let (spec, key) = (st.plan.apps[job.app], &st.key);
            Arc::clone(
                st.apks
                    .entry(job.app)
                    .or_insert_with(|| Arc::new(spec.apk(key))),
            )
        };
        let rec = Arc::new(Recorder::new());
        let mut run = || {
            let t0 = Instant::now();
            let admitted = st.service.submit(ProtectJob {
                apk: Arc::clone(&apk),
                config: apps::paper_config(),
                seed: SeedPolicy::Fixed(job.seed),
            });
            let outcome = st.service.drain().pop();
            let t1 = Instant::now();
            let signed = outcome
                .as_ref()
                .and_then(|o| o.result.as_ref().ok())
                .map(|p| (p.package(&st.key), Arc::clone(p)));
            let t2 = Instant::now();
            (admitted, outcome, signed, t0, t1, t2)
        };
        let (admitted, outcome, signed, t0, t1, t2) = if traced {
            obs::with_recorder(Arc::clone(&rec), run)
        } else {
            run()
        };
        if st.plan.last_use[job.app] == index {
            st.apks.remove(&job.app);
        }

        let mut item = Item {
            latency_s: secs(t0, t2),
            units: 1.0,
            ..Item::default()
        };
        let acc = &mut st.acc;
        acc.jobs += 1;
        let (signed, protected) = match (admitted, outcome, signed) {
            (Err(e), ..) => {
                item.problems.push(format!("job {index} shed: {e}"));
                return item;
            }
            (_, Some(o), Some(s)) => {
                let expect_hit = job.kind == Kind::Duplicate;
                if o.cache_hit != expect_hit {
                    item.problems.push(format!(
                        "job {index}: cache_hit {} for a {:?} job",
                        o.cache_hit, job.kind
                    ));
                }
                acc.hits += u64::from(o.cache_hit);
                s
            }
            (_, Some(o), None) => {
                let err = o.result.err().map(|e| e.to_string()).unwrap_or_default();
                item.problems.push(format!("job {index} failed: {err}"));
                return item;
            }
            (_, None, _) => {
                item.problems
                    .push(format!("job {index}: drain returned nothing"));
                return item;
            }
        };

        let (digest, dex_len) = apk_digest(&signed);
        item.fingerprint = mix(digest, dex_len as u64);
        acc.dex_out += dex_len as u64;
        if let Err(errs) = bombdroid_dex::validate(&protected.dex) {
            item.problems.push(format!(
                "job {index}: output fails validation ({} errors)",
                errs.len()
            ));
        }
        match job.kind {
            Kind::Duplicate => match st.first_pass.get(&(job.app, job.seed)) {
                Some(&first) if first == digest => {}
                Some(_) => item
                    .problems
                    .push(format!("job {index}: duplicate returned different bytes")),
                None => item
                    .problems
                    .push(format!("job {index}: duplicate of an unseen job")),
            },
            Kind::Fresh | Kind::Reprotect => {
                st.first_pass.insert((job.app, job.seed), digest);
                acc.passes += 1;
                acc.real_bombs += protected.report.bombs_injected() as u64;
                acc.dex_in += wire::encoded_dex_len(&apk.dex) as u64;
                acc.dex_protected += dex_len as u64;
                acc.blobs_sealed += protected
                    .dex
                    .blobs
                    .len()
                    .saturating_sub(apk.dex.blobs.len()) as u64;
                let drive_seed = job.seed ^ 0xD21E;
                match (observe(&apk, drive_seed), observe(&signed, drive_seed)) {
                    (Ok(original), Ok(guarded)) => {
                        if !original.same_behaviour(&guarded) || !guarded.quiet() {
                            item.problems.push(format!(
                                "job {index}: legit install diverged from the original"
                            ));
                        }
                        acc.instr_original += original.instr();
                        acc.instr_protected += guarded.instr();
                        item.fingerprint = mix(item.fingerprint, guarded.instr());
                    }
                    (a, b) => item.problems.push(format!(
                        "job {index}: drive failed: {:?} / {:?}",
                        a.err(),
                        b.err()
                    )),
                }
            }
        }

        if traced {
            let protect = span_s(&rec, "pipeline.protect");
            acc.traced += 1;
            acc.latency += item.latency_s;
            acc.profiling += span_s(&rec, "pipeline.profile");
            acc.plan += span_s(&rec, "pipeline.plan") + span_s(&rec, "pipeline.detections");
            acc.arm += span_s(&rec, "pipeline.instrument");
            acc.validate += span_s(&rec, "pipeline.validate");
            acc.sign += secs(t1, t2);
            acc.service += secs(t0, t1) - protect;
            acc.profiling_instr += rec.counter_value("profile.instr_executed");
        }
        item
    }

    fn report(&self, st: &State, traced: bool) -> Report {
        let a = &st.acc;
        let mut r = Report::default();
        let passes = a.passes.max(1) as f64;
        r.guards.insert(
            "dex_growth_pct",
            100.0 * (a.dex_protected as f64 - a.dex_in as f64) / a.dex_in.max(1) as f64,
        );
        r.guards
            .insert("bombs_per_app", a.real_bombs as f64 / passes);
        r.guards.insert(
            "instr_overhead_pct",
            100.0 * (a.instr_protected as f64 - a.instr_original as f64)
                / a.instr_original.max(1) as f64,
        );
        r.layers
            .insert("crypto.blobs_sealed", a.blobs_sealed as f64);
        r.layers.insert("dex.bytes_out", a.dex_out as f64);
        r.layers.insert(
            "core.service.hit_ratio",
            a.hits as f64 / a.jobs.max(1) as f64,
        );
        if traced && a.traced > 0 {
            let per = |s: f64| 1e3 * s / a.traced as f64;
            let named = [
                ("core.profiling.ms", a.profiling),
                ("core.plan.ms", a.plan),
                ("core.arm.ms", a.arm),
                ("core.validate.ms", a.validate),
                ("apk.sign.ms", a.sign),
                ("core.service.ms", a.service),
            ];
            let attributed: f64 = named.iter().map(|(_, s)| s).sum();
            for (name, s) in named {
                r.layers.insert(name, per(s));
            }
            r.layers
                .insert("unattributed.ms", per(a.latency - attributed));
            r.layers
                .insert("core.profiling.instr", a.profiling_instr as f64);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_ten_has_the_stated_mix() {
        let p = plan(7, 100);
        let count = |k| p.jobs.iter().filter(|j| j.kind == k).count();
        assert_eq!(
            (
                count(Kind::Fresh),
                count(Kind::Reprotect),
                count(Kind::Duplicate)
            ),
            (70, 20, 10)
        );
        for block in p.jobs.chunks(10) {
            assert_eq!(block.iter().filter(|j| j.kind == Kind::Fresh).count(), 7);
        }
        assert_eq!(p.jobs[0].kind, Kind::Fresh);
    }

    #[test]
    fn repeats_refer_back_and_fresh_apps_are_new() {
        let p = plan(11, 200);
        let flagships = p
            .apps
            .iter()
            .filter(|a| matches!(a, AppSpec::Flagship(_)))
            .count();
        assert_eq!(flagships, FLAGSHIPS.len());
        let mut seen_apps = std::collections::BTreeSet::new();
        for (i, j) in p.jobs.iter().enumerate() {
            match j.kind {
                Kind::Fresh => assert!(seen_apps.insert(j.app), "job {i} reuses an app"),
                Kind::Reprotect => {
                    assert!(seen_apps.contains(&j.app));
                    assert!(p.jobs[..i].iter().all(|e| e.seed != j.seed));
                }
                Kind::Duplicate => assert!(p.jobs[..i]
                    .iter()
                    .any(|e| e.kind != Kind::Duplicate && (e.app, e.seed) == (j.app, j.seed))),
            }
            assert!(p.last_use[j.app] >= i);
        }
    }

    #[test]
    fn generated_apps_follow_the_table_1_category_weights() {
        let p = plan(5, 4000);
        let mut drawn = BTreeMap::new();
        for app in &p.apps {
            if let AppSpec::Generated { category, .. } = app {
                *drawn.entry(format!("{category:?}")).or_insert(0usize) += 1;
            }
        }
        let total: usize = drawn.values().sum();
        for &(category, weight) in CATEGORY_WEIGHTS.entries() {
            let share =
                drawn.get(&format!("{category:?}")).copied().unwrap_or(0) as f64 / total as f64;
            let expected = f64::from(weight) / f64::from(CATEGORY_WEIGHTS.total_weight());
            assert!(
                (share - expected).abs() < 0.03,
                "{category:?}: {share:.3} drawn vs {expected:.3} in Table 1"
            );
        }
    }

    #[test]
    fn the_seed_decides_the_stream() {
        let (a, b, c) = (plan(3, 50), plan(3, 50), plan(4, 50));
        let key = |p: &Plan| p.jobs.iter().map(|j| (j.app, j.seed)).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }
}
