//! Bomb-site planning (paper §7.2): which existing qualified conditions to
//! arm, where to insert artificial ones, and which leftovers become bogus
//! bombs.

use crate::config::ProtectConfig;
use crate::profiling::ProfileResult;
use crate::rewrite::check_region;
use bombdroid_analysis::{qc, rank_fields, QcCompare, QcSite};
use bombdroid_analysis::{Cfg, Dominators, LoopInfo};
use bombdroid_dex::{DexFile, FieldKind, FieldRef, Instr, Method, MethodRef, Value};
use bombdroid_runtime::telemetry::FieldValues;
use rand::{seq::SliceRandom, Rng};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, Weak};

/// An armed existing-QC site with its resolved rewrite region.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedExisting {
    /// The underlying qualified condition.
    pub site: QcSite,
    /// First instruction of the region to replace (literal const for string
    /// QCs, the branch itself otherwise).
    pub anchor: usize,
    /// One past the region: the branch-over skip target.
    pub skip: usize,
}

/// A planned artificial-QC insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedArtificial {
    /// Host method.
    pub method: MethodRef,
    /// Insertion point (instruction index).
    pub at: usize,
    /// Profiled high-entropy static field providing `ϕ`.
    pub field: FieldRef,
    /// Observed field value chosen as the constant `c`.
    pub constant: Value,
}

/// The full instrumentation plan for one app.
#[derive(Debug, Clone, Default)]
pub struct SitePlan {
    /// Existing-QC sites selected for real bombs.
    pub existing: Vec<PlannedExisting>,
    /// Leftover eligible sites earmarked for bogus bombs.
    pub bogus: Vec<PlannedExisting>,
    /// Artificial-QC insertions.
    pub artificial: Vec<PlannedArtificial>,
    /// All existing QCs the scanner found (Table 1).
    pub existing_qc_found: usize,
    /// Candidate (non-hot) method count (Table 1).
    pub candidate_methods: usize,
    /// Hot method count.
    pub hot_methods: usize,
    /// Eligible-looking sites rejected by the region checker.
    pub skipped_sites: usize,
}

/// Resolves the branch-over skip target of a site, if it has the
/// transformable shape.
fn branch_over_skip(method: &Method, site: &QcSite) -> Option<usize> {
    // Transformable shapes compile `if (X == c) { body }` as a negated
    // branch over the body: body starts right after the branch.
    if site.body_entry != site.branch_pc + 1 {
        return None;
    }
    match &method.body[site.branch_pc] {
        Instr::If { target, .. } => (*target >= site.body_entry).then_some(*target),
        _ => None,
    }
}

fn anchor_of(site: &QcSite) -> Option<usize> {
    match site.compare {
        QcCompare::SwitchArm => None,
        QcCompare::StrEquals | QcCompare::StrStartsWith | QcCompare::StrEndsWith => {
            // String QCs need the literal-const + StrOp + If anchor to be
            // contiguous so the whole idiom is replaced (otherwise the
            // plaintext literal would survive in the bytecode).
            let lit = site.lit_const_pc?;
            let sop = site.str_op_pc?;
            (lit + 1 == sop && sop + 1 == site.branch_pc).then_some(lit)
        }
        QcCompare::IntEq | QcCompare::BoolEq => Some(site.branch_pc),
    }
}

fn region_is_clean(method: &Method, anchor: usize, skip: usize) -> bool {
    if check_region(method, anchor, skip).is_err() {
        return false;
    }
    // Don't double-instrument regions that already contain bomb machinery.
    method.body[anchor..skip]
        .iter()
        .all(|i| !matches!(i, Instr::Hash { .. } | Instr::DecryptExec { .. }))
}

/// Everything the planner derives from one method's bytecode alone:
/// transformable non-loop QC regions (greedy non-overlapping, highest
/// anchor first), the sites that selection rejected, and the non-loop pcs
/// where an artificial QC could be inserted.
#[derive(Debug, Clone)]
struct MethodScan {
    mref: MethodRef,
    eligible: Vec<PlannedExisting>,
    skipped: usize,
    body_len: usize,
    nonloop_pcs: Vec<u32>,
}

/// The bytecode-derived half of a [`SitePlan`], shared across protection
/// runs of the same immutable dex (see [`cached_dex_scan`]).
#[derive(Debug)]
struct DexScan {
    existing_qc_found: usize,
    /// Per-method scans in `DexFile::methods` order.
    methods: Vec<MethodScan>,
    /// First-wins index by method ref, mirroring `DexFile::method`
    /// resolution for duplicate refs.
    by_ref: HashMap<MethodRef, usize>,
}

/// Runs the pure static-analysis pass: CFG, dominators, loops, QC scan and
/// region checking for every method. No profile or RNG input touches this.
fn scan_dex(dex: &DexFile) -> DexScan {
    let mut scan = DexScan {
        existing_qc_found: 0,
        methods: Vec::new(),
        by_ref: HashMap::new(),
    };
    for method in dex.methods() {
        let cfg = Cfg::build(method);
        let loops = if cfg.is_empty() {
            None
        } else {
            let dom = Dominators::compute(&cfg);
            Some(LoopInfo::compute(&cfg, &dom))
        };
        let sites = qc::scan_method_with(method, &cfg, loops.as_ref());
        scan.existing_qc_found += sites.len();
        // Per-method greedy non-overlapping selection, highest anchor first
        // so later rewrites don't shift earlier regions.
        let mut per_method: Vec<PlannedExisting> = sites
            .into_iter()
            .filter(|s| !s.in_loop)
            .filter_map(|s| {
                let anchor = anchor_of(&s)?;
                let skip = branch_over_skip(method, &s)?;
                Some(PlannedExisting {
                    site: s,
                    anchor,
                    skip,
                })
            })
            .collect();
        per_method.sort_by_key(|p| std::cmp::Reverse(p.anchor));
        let mut eligible = Vec::new();
        let mut skipped = 0usize;
        let mut taken_below = usize::MAX;
        for p in per_method {
            if p.skip > taken_below {
                skipped += 1; // overlaps a previously taken (higher) region
                continue;
            }
            if !region_is_clean(method, p.anchor, p.skip) {
                skipped += 1;
                continue;
            }
            taken_below = p.anchor;
            eligible.push(p);
        }
        let nonloop_pcs: Vec<u32> = (0..method.body.len())
            .filter(|&pc| !loops.as_ref().is_some_and(|l| l.pc_in_loop(&cfg, pc)))
            .map(|pc| pc as u32)
            .collect();
        let mref = method.method_ref();
        let idx = scan.methods.len();
        scan.by_ref.entry(mref.clone()).or_insert(idx);
        scan.methods.push(MethodScan {
            mref,
            eligible,
            skipped,
            body_len: method.body.len(),
            nonloop_pcs,
        });
    }
    scan
}

/// Process-wide scan registry keyed by `Arc<DexFile>` allocation identity —
/// the same pattern as the dex-digest cache. Sound
/// because a `DexFile` behind an `Arc` is immutable (the protect pipeline
/// clones it out before mutating), so the scan of a given allocation can
/// never go stale; the `Weak` + `ptr_eq` pairing guards against address
/// reuse after a drop.
static DEX_SCANS: Mutex<Vec<(Weak<DexFile>, Arc<DexScan>)>> = Mutex::new(Vec::new());
const DEX_SCANS_CAP: usize = 64;

fn cached_dex_scan(dex: &Arc<DexFile>) -> Arc<DexScan> {
    let mut reg = DEX_SCANS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    reg.retain(|(weak, _)| weak.strong_count() > 0);
    for (weak, scan) in reg.iter() {
        if let Some(live) = weak.upgrade() {
            if Arc::ptr_eq(&live, dex) {
                return Arc::clone(scan);
            }
        }
    }
    let scan = Arc::new(scan_dex(dex));
    if reg.len() < DEX_SCANS_CAP {
        reg.push((Arc::downgrade(dex), Arc::clone(&scan)));
    }
    scan
}

/// High-entropy profiled *static* fields (resolvable from any method), in
/// rank order — distinct values descending, ties by name — each with the
/// scalar values it took repeatedly, in first-seen order.
fn usable_fields(dex: &DexFile, field_values: &FieldValues) -> Vec<(FieldRef, Vec<Value>)> {
    // Only declared static fields qualify, so only they are tallied: the
    // rank order is total, so dropping other fields first leaves it as is.
    let statics = field_values.iter().filter(|(field, _)| {
        field.rsplit_once('.').is_some_and(|(class, name)| {
            dex.class(class)
                .is_some_and(|c| c.has_field(name, FieldKind::Static))
        })
    });
    let scalar = |v: &Value| matches!(v, Value::Int(_) | Value::Str(_) | Value::Bool(_));
    rank_fields(statics)
        .into_iter()
        .filter(|tally| tally.unique() >= 4)
        .filter_map(|tally| {
            // Prefer values the field took *repeatedly* during profiling:
            // a constant the program revisits is a trigger users will
            // eventually satisfy, while a one-off value would make the
            // bomb dead on every device. Monotonic counters (every value
            // distinct) would make dead bombs — skip fields without
            // recurring values outright.
            let values: Vec<Value> = tally
                .distinct
                .iter()
                .zip(&tally.counts)
                .filter(|&(v, &n)| scalar(v) && n >= 3)
                .map(|(v, _)| (*v).clone())
                .collect();
            let (class, name) = tally.field.rsplit_once('.')?;
            (!values.is_empty()).then(|| (FieldRef::new(class, name), values))
        })
        .collect()
}

/// Plans instrumentation for `dex` given profiling results.
///
/// Takes the dex behind the app's shared `Arc` so the bytecode-only
/// analysis half ([`scan_dex`]) is served from the identity cache when the
/// same app is protected repeatedly; the profile- and RNG-dependent
/// selection below always runs fresh.
pub fn plan(
    dex: &Arc<DexFile>,
    profile: &ProfileResult,
    config: &ProtectConfig,
    rng: &mut impl Rng,
) -> SitePlan {
    let scan = cached_dex_scan(dex);
    let mut plan = SitePlan::default();
    let all_methods: Vec<MethodRef> = scan.methods.iter().map(|m| m.mref.clone()).collect();
    plan.hot_methods = profile.hot.len();
    let candidates: Vec<MethodRef> = all_methods
        .iter()
        .filter(|m| !profile.hot.contains(m))
        .cloned()
        .collect();
    plan.candidate_methods = candidates.len();
    let candidate_set: HashSet<&MethodRef> = candidates.iter().collect();

    // ---- existing QCs --------------------------------------------------
    plan.existing_qc_found = scan.existing_qc_found;
    let mut eligible: Vec<PlannedExisting> = Vec::new();
    for m in &scan.methods {
        if !candidate_set.contains(&m.mref) {
            continue;
        }
        plan.skipped_sites += m.skipped;
        eligible.extend(m.eligible.iter().cloned());
    }

    // Split eligible sites into real bombs and bogus bombs.
    let max_real = config.max_bombs.unwrap_or(usize::MAX);
    for p in eligible {
        if plan.existing.len() < max_real {
            plan.existing.push(p);
        } else if (plan.bogus.len() as f64) < config.bogus_ratio * (plan.existing.len() as f64) {
            plan.bogus.push(p);
        }
    }
    // Reserve a slice of the real sites as bogus even under no cap, so the
    // two populations coexist (paper §3.4 wants both).
    if config.max_bombs.is_none() && config.bogus_ratio > 0.0 && plan.existing.len() >= 4 {
        let n_bogus = ((plan.existing.len() as f64) * config.bogus_ratio / 4.0).round() as usize;
        for _ in 0..n_bogus {
            if let Some(p) = plan.existing.pop() {
                plan.bogus.push(p);
            }
        }
    }

    // ---- artificial QCs -------------------------------------------------
    let usable_fields = usable_fields(dex, &profile.field_values);

    if !usable_fields.is_empty() {
        // Prefer frequently-invoked (but non-hot) methods: a trigger
        // condition that is never evaluated can never fire on the user
        // side, so insertion sites follow the invocation profile.
        // One count lookup per method. The sort is stable, so methods with
        // equal counts keep their candidate order.
        let mut by_calls: Vec<MethodRef> = candidates.clone();
        by_calls.sort_by_cached_key(|m| {
            std::cmp::Reverse(profile.method_calls.get(m).copied().unwrap_or(0))
        });
        let n = ((candidates.len() as f64) * config.alpha).round() as usize;
        // Pool: the warmer half of the candidates, grown if α demands more.
        let warm_pool = (by_calls.len().div_ceil(2).max(1)).max(n.min(by_calls.len()));
        let mut picked: Vec<MethodRef> = by_calls[..warm_pool].to_vec();
        picked.shuffle(rng);
        picked.truncate(n);
        for mref in picked {
            let Some(&mi) = scan.by_ref.get(&mref) else {
                continue;
            };
            let mscan = &scan.methods[mi];
            if mscan.body_len == 0 {
                continue;
            }
            // Random non-loop location (pre-computed by the scan); avoid
            // positions inside selected existing regions of the same
            // method.
            let blocked: Vec<(usize, usize)> = plan
                .existing
                .iter()
                .chain(plan.bogus.iter())
                .filter(|p| p.site.method == mref)
                .map(|p| (p.anchor, p.skip))
                .collect();
            let spots: Vec<usize> = mscan
                .nonloop_pcs
                .iter()
                .map(|&pc| pc as usize)
                .filter(|&pc| !blocked.iter().any(|&(a, s)| pc > a && pc < s))
                .collect();
            if spots.is_empty() {
                continue;
            }
            let at = spots[rng.gen_range(0..spots.len())];
            // Prefer the highest-entropy fields ("fields that have the
            // largest numbers of unique values", §7.2) with a little
            // variety across bombs.
            let fi = rng.gen_range(0..usable_fields.len().min(3));
            let (field, values) = &usable_fields[fi];
            let constant = values[rng.gen_range(0..values.len())].clone();
            plan.artificial.push(PlannedArtificial {
                method: mref,
                at,
                field: field.clone(),
                constant,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::ProfileResult;
    use bombdroid_dex::{Class, CondOp, MethodBuilder, Reg, RegOrConst};
    use bombdroid_runtime::Telemetry;
    use rand::{rngs::StdRng, SeedableRng};

    fn app_with_qcs() -> Arc<DexFile> {
        let mut dex = DexFile::new();
        let mut class = Class::new("A");
        class.fields.push(bombdroid_dex::Field::stat("counter"));
        // Method with two disjoint QCs.
        let mut b = MethodBuilder::new("A", "handler", 1);
        let skip1 = b.fresh_label();
        b.if_not(CondOp::Eq, Reg(0), RegOrConst::Const(Value::Int(42)), skip1);
        b.host_log("forty-two");
        b.place_label(skip1);
        let skip2 = b.fresh_label();
        b.if_not(CondOp::Eq, Reg(0), RegOrConst::Const(Value::Int(7)), skip2);
        b.host_log("seven");
        b.place_label(skip2);
        b.ret_void();
        class.methods.push(b.finish());
        // A second, QC-free method.
        let mut c = MethodBuilder::new("A", "quiet", 0);
        c.host_log("quiet");
        c.ret_void();
        class.methods.push(c.finish());
        dex.classes.push(class);
        Arc::new(dex)
    }

    fn fake_profile() -> ProfileResult {
        // 50 distinct values, each recurring (the planner requires values
        // the program revisits).
        let samples = (0..4u64)
            .flat_map(|round| (0..50u64).map(move |i| (round * 50 + i, Value::Int(i as i64))))
            .collect();
        ProfileResult {
            telemetry: Telemetry::new(),
            method_calls: Default::default(),
            field_values: [("A.counter".to_string(), samples)].into_iter().collect(),
            hot: HashSet::new(),
        }
    }

    #[test]
    fn plans_existing_sites_without_overlap() {
        let dex = app_with_qcs();
        let mut rng = StdRng::seed_from_u64(1);
        let plan = plan(
            &dex,
            &fake_profile(),
            &ProtectConfig {
                bogus_ratio: 0.0,
                alpha: 0.0,
                ..ProtectConfig::default()
            },
            &mut rng,
        );
        assert_eq!(plan.existing_qc_found, 2);
        assert_eq!(plan.existing.len(), 2);
        // Highest anchor first (descending transformation order).
        assert!(plan.existing[0].anchor > plan.existing[1].anchor);
        assert!(plan.artificial.is_empty());
    }

    #[test]
    fn alpha_drives_artificial_count() {
        let dex = app_with_qcs();
        let mut rng = StdRng::seed_from_u64(2);
        let plan = plan(
            &dex,
            &fake_profile(),
            &ProtectConfig {
                alpha: 1.0,
                bogus_ratio: 0.0,
                ..ProtectConfig::default()
            },
            &mut rng,
        );
        // Both candidate methods should get an artificial QC.
        assert_eq!(plan.artificial.len(), 2);
        for a in &plan.artificial {
            assert_eq!(a.field, FieldRef::new("A", "counter"));
            assert!(matches!(a.constant, Value::Int(_)));
        }
    }

    #[test]
    fn hot_methods_excluded() {
        let dex = app_with_qcs();
        let mut profile = fake_profile();
        profile.hot.insert(MethodRef::new("A", "handler"));
        let mut rng = StdRng::seed_from_u64(3);
        let plan = plan(
            &dex,
            &profile,
            &ProtectConfig {
                alpha: 0.0,
                ..ProtectConfig::default()
            },
            &mut rng,
        );
        assert!(plan.existing.is_empty(), "hot method must not be armed");
        assert_eq!(plan.candidate_methods, 1);
        assert_eq!(plan.hot_methods, 1);
    }

    #[test]
    fn max_bombs_diverts_to_bogus() {
        let dex = app_with_qcs();
        let mut rng = StdRng::seed_from_u64(4);
        let plan = plan(
            &dex,
            &fake_profile(),
            &ProtectConfig {
                max_bombs: Some(1),
                bogus_ratio: 1.0,
                alpha: 0.0,
                ..ProtectConfig::default()
            },
            &mut rng,
        );
        assert_eq!(plan.existing.len(), 1);
        assert_eq!(plan.bogus.len(), 1);
    }

    // ---- field-selection pin ----------------------------------------------

    use bombdroid_runtime::telemetry::FIELD_SAMPLE_CAP;
    use proptest::prelude::*;

    /// `(field, distinct values in first-seen order, count of each)` per
    /// ranked field, plus the usable fields with their recurring values.
    type Selection = (
        Vec<(String, Vec<Value>, Vec<usize>)>,
        Vec<(FieldRef, Vec<Value>)>,
    );

    /// The planner's field ranking and value filter as they stood before
    /// the one-pass tally, copied verbatim: a SipHash count map per field,
    /// looked up again for every distinct value.
    fn reference_selection(dex: &DexFile, profile: &ProfileResult) -> Selection {
        let mut ranked: Vec<(&String, Vec<&Value>, HashMap<&Value, usize>)> = profile
            .field_values
            .iter()
            .map(|(name, samples)| {
                let mut counts: HashMap<&Value, usize> = HashMap::new();
                let mut distinct: Vec<&Value> = Vec::new();
                for (_, v) in samples {
                    let c = counts.entry(v).or_insert(0usize);
                    if *c == 0 {
                        distinct.push(v);
                    }
                    *c += 1;
                }
                (name, distinct, counts)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(b.0)));
        let usable_fields: Vec<(FieldRef, Vec<Value>)> = ranked
            .iter()
            .filter(|(_, distinct, _)| distinct.len() >= 4)
            .filter_map(|(field, distinct, counts)| {
                let (class, name) = field.rsplit_once('.')?;
                let class_def = dex.class(class)?;
                if !class_def.has_field(name, FieldKind::Static) {
                    return None;
                }
                let scalar =
                    |v: &Value| matches!(v, Value::Int(_) | Value::Str(_) | Value::Bool(_));
                let values: Vec<Value> = distinct
                    .iter()
                    .filter(|v| scalar(v) && counts[*v] >= 3)
                    .map(|v| (*v).clone())
                    .collect();
                (!values.is_empty()).then(|| (FieldRef::new(class, name), values))
            })
            .collect();
        let view = ranked
            .iter()
            .map(|(name, distinct, counts)| {
                (
                    name.to_string(),
                    distinct.iter().map(|v| (*v).clone()).collect(),
                    distinct.iter().map(|v| counts[*v]).collect(),
                )
            })
            .collect();
        (view, usable_fields)
    }

    /// The production ranking and filter, in the reference's shape.
    fn production_selection(dex: &DexFile, profile: &ProfileResult) -> Selection {
        let view = rank_fields(&profile.field_values)
            .into_iter()
            .map(|tally| {
                (
                    tally.field.to_string(),
                    tally.distinct.iter().map(|v| (*v).clone()).collect(),
                    tally.counts,
                )
            })
            .collect();
        (view, usable_fields(dex, &profile.field_values))
    }

    /// A random dex and profile: fields spread over three classes, some
    /// static, some instance, some undeclared or without a class part;
    /// value pools of every `Value` kind, small enough that distinct counts
    /// tie and often fall below 4; skewed draws so some values recur fewer
    /// than 3 times; and an occasional list at [`FIELD_SAMPLE_CAP`].
    fn random_profile(seed: u64) -> (DexFile, ProfileResult) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dex = DexFile::new();
        for c in 0..3 {
            dex.classes.push(Class::new(format!("C{c}").as_str()));
        }
        let mut field_values = FieldValues::new();
        for i in 0..rng.gen_range(1..14usize) {
            let c = rng.gen_range(0..4usize);
            let name = match rng.gen_range(0..8u32) {
                0 => format!("nodot{i}"),
                _ => format!("C{c}.f{i}"),
            };
            if c < 3 {
                let field = match rng.gen_range(0..3u32) {
                    0 => bombdroid_dex::Field::instance(format!("f{i}")),
                    _ => bombdroid_dex::Field::stat(format!("f{i}")),
                };
                dex.classes[c].fields.push(field);
            }
            let pool: Vec<Value> = (0..rng.gen_range(1..10i64))
                .map(|j| match rng.gen_range(0..5u32) {
                    0 => Value::Null,
                    1 => Value::Bool(j % 2 == 0),
                    2 => Value::Int(j - 3),
                    3 => Value::str(format!("s{j}")),
                    _ => Value::bytes([j as u8; 3]),
                })
                .collect();
            let len = match rng.gen_range(0..8u32) {
                0 => FIELD_SAMPLE_CAP,
                1 | 2 => rng.gen_range(0..6),
                _ => rng.gen_range(6..200),
            };
            let samples = (0..len as u64)
                .map(|t| {
                    // Squaring skews draws toward the front of the pool.
                    let u: f64 = rng.gen();
                    let k = ((u * u) * pool.len() as f64) as usize;
                    (t, pool[k.min(pool.len() - 1)].clone())
                })
                .collect();
            field_values.insert(name, samples);
        }
        let profile = ProfileResult {
            telemetry: Telemetry::new(),
            method_calls: Default::default(),
            field_values,
            hot: HashSet::new(),
        };
        (dex, profile)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn field_selection_matches_the_reference(seed in any::<u64>()) {
            let (dex, profile) = random_profile(seed);
            let (ref_view, ref_usable) = reference_selection(&dex, &profile);
            let (view, usable) = production_selection(&dex, &profile);
            prop_assert_eq!(view, ref_view);
            prop_assert_eq!(usable, ref_usable);
        }
    }

    #[test]
    fn pinned_profiles_exercise_every_filter() {
        // The generator must reach each branch the pin is meant to cover.
        let (mut tied, mut below_four, mut instance, mut capped, mut usable) =
            (false, false, false, false, false);
        for seed in 0..64 {
            let (dex, profile) = random_profile(seed);
            let (view, used) = reference_selection(&dex, &profile);
            tied |= view.windows(2).any(|w| w[0].1.len() == w[1].1.len());
            below_four |= view.iter().any(|(_, d, _)| !d.is_empty() && d.len() < 4);
            instance |= dex.classes.iter().any(|c| {
                c.fields
                    .iter()
                    .any(|f| c.has_field(&f.name, FieldKind::Instance))
            });
            capped |= profile
                .field_values
                .values()
                .any(|s| s.len() == FIELD_SAMPLE_CAP);
            usable |= !used.is_empty();
        }
        assert!(tied && below_four && instance && capped && usable);
    }
}
