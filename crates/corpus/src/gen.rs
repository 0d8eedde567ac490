//! The synthetic app generator.
//!
//! Produces F-Droid-shaped apps whose *static characteristics* track the
//! paper's Table 1 (LOC, candidate methods, existing qualified conditions,
//! environment-variable usage) and whose *dynamic behaviour* reproduces the
//! asymmetries the evaluation depends on:
//!
//! * handlers write program state to static fields with varied entropy
//!   (profiling material for artificial QCs, Fig. 3);
//! * qualified conditions come in calibrated flavours — bool params and
//!   small-choice identities that blackbox fuzzing can satisfy, plus
//!   wide-integer and string comparisons against *user-salient* values
//!   (`bombdroid_runtime::param_favorites`) that random inputs essentially
//!   never hit but real users hit constantly (observations D1/D2);
//! * a screen-state machine gates part of the logic, so input generators
//!   that waste events satisfy measurably fewer conditions per hour
//!   (Table 4's tool spread);
//! * a handful of hot methods dominate invocation counts (the top-10%
//!   exclusion of §7.1).

use crate::profiles::{profile_of, Category};
use bombdroid_apk::{package_app, ApkFile, AppMeta, DeveloperKey, StringsXml};
use bombdroid_dex::{
    BinOp, Class, CondOp, DexFile, EntryPoint, EnvKey, Field, FieldRef, HostApi, MethodBuilder,
    MethodRef, ParamDomain, Reg, RegOrConst, StrOp, Value,
};
use bombdroid_runtime::param_favorites;
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use std::sync::Arc;

/// Number of screens in the app's state machine.
const SCREENS: i64 = 6;

/// QC flavour mix: (bool-param, bool-flag, small-int, wide-int, string).
/// Weak ≈ 45%, medium ≈ 37%, strong ≈ 18% — matching Fig. 4a's
/// weak-dominant distribution for existing QCs — with roughly a third
/// satisfiable by uniform fuzzing (Table 4's 26–38%).
const QC_MIX: [(QcFlavour, u32); 5] = [
    (QcFlavour::BoolParam, 18),
    (QcFlavour::BoolFlag, 27),
    (QcFlavour::SmallInt, 15),
    (QcFlavour::WideInt, 22),
    (QcFlavour::StrCmd, 18),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum QcFlavour {
    BoolParam,
    BoolFlag,
    SmallInt,
    WideInt,
    StrCmd,
}

/// A generated app, ready to package.
#[derive(Debug, Clone)]
pub struct GeneratedApp {
    /// App name.
    pub name: String,
    /// Category it was generated for.
    pub category: Category,
    /// The code.
    pub dex: DexFile,
    /// String resources.
    pub strings: StringsXml,
}

impl GeneratedApp {
    /// Packages and signs the app.
    pub fn apk(&self, key: &DeveloperKey) -> ApkFile {
        package_app(
            &self.dex,
            self.strings.clone(),
            AppMeta::named(&self.name),
            key,
        )
    }
}

/// Size/shape targets, derived from a category profile with jitter.
#[derive(Debug, Clone, Copy)]
pub struct GenTargets {
    /// Total methods (candidates ≈ 90% of these).
    pub methods: usize,
    /// Instruction-count target (the LOC analogue).
    pub loc: usize,
    /// Existing qualified conditions to emit.
    pub qcs: usize,
    /// Distinct environment variables to use.
    pub env_vars: usize,
}

impl GenTargets {
    /// Targets for a category, jittered ±15% by `rng`.
    pub fn for_category(category: Category, rng: &mut StdRng) -> Self {
        let p = profile_of(category);
        let mut j = |v: usize| -> usize {
            let f = rng.gen_range(0.85..1.15);
            ((v as f64) * f).round() as usize
        };
        GenTargets {
            methods: j((p.avg_candidate_methods as f64 / 0.9) as usize).max(8),
            loc: j(p.avg_loc),
            qcs: j(p.avg_existing_qcs).max(4),
            env_vars: j(p.avg_env_vars).clamp(1, EnvKey::ALL.len()),
        }
    }
}

/// Generates one app deterministically from `(name, category, seed)`.
pub fn generate_app(name: &str, category: Category, seed: u64) -> GeneratedApp {
    let mut rng = StdRng::seed_from_u64(seed);
    let targets = GenTargets::for_category(category, &mut rng);
    generate_with_targets(name, category, targets, &mut rng)
}

/// Generates an app with explicit targets (used by flagships and tests).
pub fn generate_with_targets(
    name: &str,
    category: Category,
    targets: GenTargets,
    rng: &mut StdRng,
) -> GeneratedApp {
    let pkg = name.to_lowercase().replace([' ', '-'], "");
    let mut g = Gen {
        pkg: pkg.clone(),
        rng,
        dex: DexFile::new(),
        qc_budget: targets.qcs,
        helper_refs: Vec::new(),
        hot_refs: Vec::new(),
        env_keys: Vec::new(),
    };

    // Environment keys this app consults.
    let mut keys: Vec<EnvKey> = EnvKey::ALL.to_vec();
    keys.shuffle(g.rng);
    g.env_keys = keys.into_iter().take(targets.env_vars).collect();

    g.state_class();
    let hot_count = (targets.methods / 20).max(1);
    let handler_count = ((targets.methods as f64) * 0.35).round().max(3.0) as usize;
    let helper_count = targets
        .methods
        .saturating_sub(hot_count + handler_count + 1)
        .max(2);

    for i in 0..hot_count {
        g.hot_method(i);
    }
    // Average instructions each helper should carry to hit the LOC target.
    let handler_loc = handler_count * 24;
    let helper_loc_each =
        (targets.loc.saturating_sub(handler_loc + hot_count * 8) / helper_count).clamp(6, 120);
    let helper_qcs = (targets.qcs as f64 * 0.3) as usize;
    for i in 0..helper_count {
        let with_qc = i < helper_qcs;
        g.helper_method(i, helper_loc_each, with_qc);
    }
    for i in 0..handler_count {
        g.handler(i);
    }

    let mut strings = StringsXml::new();
    strings.set("app_name", name);
    strings.set("greeting", format!("welcome to {name}"));
    strings.set("version_label", "v1.0");

    GeneratedApp {
        name: name.to_string(),
        category,
        dex: g.dex,
        strings,
    }
}

struct Gen<'r> {
    pkg: String,
    rng: &'r mut StdRng,
    dex: DexFile,
    qc_budget: usize,
    helper_refs: Vec<MethodRef>,
    hot_refs: Vec<MethodRef>,
    env_keys: Vec<EnvKey>,
}

impl Gen<'_> {
    fn state_class_name(&self) -> String {
        format!("{}/State", self.pkg)
    }

    fn class_for(&mut self, kind: &str, index: usize) -> String {
        // ~8 methods per class.
        let cname = format!("{}/{}{}", self.pkg, kind, index / 8);
        if self.dex.class(&cname).is_none() {
            self.dex.classes.push(Class::new(cname.as_str()));
        }
        cname
    }

    fn field(&self, name: &str) -> FieldRef {
        FieldRef::new(self.state_class_name().as_str(), name)
    }

    fn state_class(&mut self) {
        let cname = self.state_class_name();
        let mut class = Class::new(cname.as_str());
        for f in [
            "screen", "score", "counter", "ticks", "mode", "posX", "posY", "speed",
        ] {
            class.fields.push(Field::stat(f));
        }
        for f in ["flag0", "flag1", "flag2", "flag3"] {
            class.fields.push(Field::stat(f));
        }
        for f in ["label", "lastCmd"] {
            class.fields.push(Field::stat(f));
        }
        // Init method, fired at app start.
        let mut b = MethodBuilder::new(cname.as_str(), "init", 0);
        let z = b.fresh_reg();
        b.const_(z, 0i64);
        for f in [
            "screen", "score", "counter", "ticks", "mode", "posX", "posY", "speed",
        ] {
            b.put_static(FieldRef::new(cname.as_str(), f), z);
        }
        let fl = b.fresh_reg();
        b.const_(fl, false);
        for f in ["flag0", "flag1", "flag2", "flag3"] {
            b.put_static(FieldRef::new(cname.as_str(), f), fl);
        }
        let s = b.fresh_reg();
        b.const_(s, Value::str("ready"));
        b.put_static(FieldRef::new(cname.as_str(), "label"), s);
        b.put_static(FieldRef::new(cname.as_str(), "lastCmd"), s);
        b.ret_void();
        class.methods.push(b.finish());
        self.dex.classes.push(class);
        self.dex.entry_points.push(EntryPoint {
            event: Arc::from("onCreate"),
            method: MethodRef::new(cname.as_str(), "init"),
            params: vec![],
            user_weight: 0.5,
        });
    }

    fn hot_method(&mut self, i: usize) {
        let cname = self.class_for("Engine", i);
        let mname = format!("update{i}");
        let mut b = MethodBuilder::new(cname.as_str(), &mname, 0);
        // Small counted loop plus a tick increment: cheap but hot.
        let acc = b.fresh_reg();
        let idx = b.fresh_reg();
        b.const_(acc, 0i64);
        b.const_(idx, 0i64);
        let top = b.fresh_label();
        b.place_label(top);
        b.bin_const(BinOp::Add, idx, idx, 1);
        b.bin(BinOp::Add, acc, acc, idx);
        b.if_(CondOp::Ne, idx, RegOrConst::Const(Value::Int(6)), top);
        let t = b.fresh_reg();
        b.get_static(t, self.field("ticks"));
        b.bin_const(BinOp::Add, t, t, 1);
        b.put_static(self.field("ticks"), t);
        b.ret_void();
        let mref = MethodRef::new(cname.as_str(), mname.as_str());
        self.dex
            .class_mut(&cname)
            .expect("class exists")
            .methods
            .push(b.finish());
        self.hot_refs.push(mref);
    }

    fn helper_method(&mut self, i: usize, loc: usize, with_qc: bool) {
        let cname = self.class_for("Util", i);
        let mname = format!("helper{i}");
        let mut b = MethodBuilder::new(cname.as_str(), &mname, 1);
        // Arithmetic filler to hit the LOC budget.
        let a = b.fresh_reg();
        let c = b.fresh_reg();
        b.mov(a, Reg(0));
        b.const_(c, 17i64);
        let filler = loc.saturating_sub(10);
        for k in 0..filler {
            match k % 4 {
                0 => b.bin_const(BinOp::Mul, a, a, 3),
                1 => b.bin(BinOp::Xor, a, a, c),
                2 => b.bin_const(BinOp::Add, a, a, (k as i64 % 97) + 1),
                _ => b.bin_const(BinOp::Rem, a, a, 1_000_003),
            };
        }
        if with_qc && self.qc_budget > 0 {
            self.qc_budget -= 1;
            // Field-int QC: reachable counter value.
            let f = b.fresh_reg();
            b.get_static(f, self.field("counter"));
            let skip = b.fresh_label();
            let c = self.rng.gen_range(1..6);
            b.if_not(CondOp::Eq, f, RegOrConst::Const(Value::Int(c)), skip);
            let v = b.fresh_reg();
            b.const_(v, 1i64);
            b.put_static(self.field("mode"), v);
            b.place_label(skip);
        }
        b.put_static(self.field("score"), a);
        b.ret(a);
        let mref = MethodRef::new(cname.as_str(), mname.as_str());
        self.dex
            .class_mut(&cname)
            .expect("class exists")
            .methods
            .push(b.finish());
        self.helper_refs.push(mref);
    }

    fn pick_flavour(&mut self) -> QcFlavour {
        let total: u32 = QC_MIX.iter().map(|(_, w)| w).sum();
        let mut roll = self.rng.gen_range(0..total);
        for (f, w) in QC_MIX {
            if roll < w {
                return f;
            }
            roll -= w;
        }
        QcFlavour::BoolParam
    }

    /// Emits one handler: entry point + method with state writes, env
    /// queries, QCs and helper/hot calls.
    fn handler(&mut self, i: usize) {
        let event = format!("onEvent{i}");
        // Parameter plan: wide int, small choice, bool choice, text.
        let choice_k = self.rng.gen_range(4..40i64);
        let params = vec![
            ParamDomain::IntRange(0, i64::from(i32::MAX)),
            ParamDomain::Choice((0..choice_k).map(Value::Int).collect()),
            ParamDomain::Choice(vec![Value::Bool(false), Value::Bool(true)]),
            ParamDomain::Text { max_len: 12 },
        ];
        let cname = self.class_for("Ui", i);
        let mut b = MethodBuilder::new(cname.as_str(), &event, params.len() as u16);
        let wide = Reg(0);
        let choice = Reg(1);
        let boolp = Reg(2);
        let text = Reg(3);

        // Call a hot engine method.
        if let Some(hot) = self.hot_refs.get(i % self.hot_refs.len().max(1)).cloned() {
            b.invoke(hot, vec![], None);
        }

        // Env usage: a couple of keys per handler until all assigned keys
        // appear somewhere.
        if !self.env_keys.is_empty() {
            let key = self.env_keys[i % self.env_keys.len()];
            let e = b.fresh_reg();
            b.host(HostApi::EnvQuery(key), vec![], Some(e));
            b.host(HostApi::Log, vec![e], None);
        }

        // State writes with varied entropy (profiling material). The
        // position wraps over a screen-sized domain, so values *recur* the
        // way UI coordinates do — which is what makes artificial QCs on
        // this field triggerable by users later.
        let t = b.fresh_reg();
        b.get_static(t, self.field("posX"));
        b.bin(BinOp::Add, t, t, wide);
        b.bin_const(BinOp::Rem, t, t, 1_024);
        b.put_static(self.field("posX"), t);
        let u = b.fresh_reg();
        b.get_static(u, self.field("counter"));
        b.bin_const(BinOp::Add, u, u, 1);
        b.bin_const(BinOp::Rem, u, u, 7);
        b.put_static(self.field("counter"), u);
        b.put_static(self.field("lastCmd"), text);

        // Navigation: some handlers switch screens (small-int QCs via
        // TABLESWITCH or direct assignment).
        if i.is_multiple_of(3) {
            if i.is_multiple_of(6) {
                // switch on the choice param: arms set the screen.
                let arms: Vec<i64> = (0..3).collect();
                let labels: Vec<_> = arms.iter().map(|_| b.fresh_label()).collect();
                let done = b.fresh_label();
                b.switch(
                    choice,
                    arms.iter().copied().zip(labels.iter().copied()).collect(),
                    done,
                );
                for (k, l) in labels.iter().enumerate() {
                    b.place_label(*l);
                    let s = b.fresh_reg();
                    b.const_(s, k as i64);
                    b.put_static(self.field("screen"), s);
                    b.goto(done);
                }
                b.place_label(done);
            } else {
                let s = b.fresh_reg();
                b.mov(s, choice);
                b.bin_const(BinOp::Rem, s, s, SCREENS);
                b.put_static(self.field("screen"), s);
            }
        }

        // Qualified conditions.
        let qcs_here = if self.qc_budget > 0 {
            1 + (self.rng.gen_range(0..100) < 40) as usize
        } else {
            0
        };
        for q in 0..qcs_here {
            if self.qc_budget == 0 {
                break;
            }
            let flavour = self.pick_flavour();
            let gate = self.rng.gen_bool(0.5) && self.qc_budget >= 2;
            let gate_label = if gate {
                self.qc_budget -= 1;
                // Screen gate: itself a small-int field QC.
                let s = b.fresh_reg();
                b.get_static(s, self.field("screen"));
                let skip_all = b.fresh_label();
                let want = self.rng.gen_range(0..SCREENS);
                b.if_not(CondOp::Eq, s, RegOrConst::Const(Value::Int(want)), skip_all);
                Some(skip_all)
            } else {
                None
            };
            self.qc_budget -= 1;
            self.emit_qc(&mut b, flavour, &event, i, q, wide, choice, boolp, text);
            if let Some(l) = gate_label {
                b.place_label(l);
            }
        }

        // Call a helper with the wide param.
        if !self.helper_refs.is_empty() {
            let h = self.helper_refs[i % self.helper_refs.len()].clone();
            let r = b.fresh_reg();
            b.invoke(h, vec![wide], Some(r));
        }
        b.ret_void();

        let mref = MethodRef::new(cname.as_str(), event.as_str());
        self.dex
            .class_mut(&cname)
            .expect("class exists")
            .methods
            .push(b.finish());
        let weight = if i.is_multiple_of(3) { 3.0 } else { 1.0 };
        self.dex.entry_points.push(EntryPoint {
            event: Arc::from(event.as_str()),
            method: mref,
            params,
            user_weight: weight,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_qc(
        &mut self,
        b: &mut MethodBuilder,
        flavour: QcFlavour,
        event: &str,
        handler_i: usize,
        qc_i: usize,
        wide: Reg,
        choice: Reg,
        boolp: Reg,
        text: Reg,
    ) {
        let skip = b.fresh_label();
        match flavour {
            QcFlavour::BoolParam => {
                b.if_not(
                    CondOp::Eq,
                    boolp,
                    RegOrConst::Const(Value::Bool(true)),
                    skip,
                );
                let v = b.fresh_reg();
                b.const_(v, 2i64);
                b.put_static(self.field("mode"), v);
            }
            QcFlavour::BoolFlag => {
                let f = self.rng.gen_range(0..4);
                let freg = b.fresh_reg();
                b.get_static(freg, self.field(&format!("flag{f}")));
                b.if_not(CondOp::Eq, freg, RegOrConst::Const(Value::Bool(true)), skip);
                let v = b.fresh_reg();
                b.get_static(v, self.field("score"));
                b.bin_const(BinOp::Add, v, v, 10);
                b.put_static(self.field("score"), v);
            }
            QcFlavour::SmallInt => {
                // Identity check on the small-choice param; the body has a
                // user-visible effect so deleting it is observable.
                let k = self.rng.gen_range(0..4);
                b.if_not(CondOp::Eq, choice, RegOrConst::Const(Value::Int(k)), skip);
                let v = b.fresh_reg();
                b.const_(v, k + 100);
                b.put_static(self.field("mode"), v);
                b.host_log(&format!("tool {k} selected"));
            }
            QcFlavour::WideInt => {
                // Compare the wide param against a user-salient value; the
                // body raises a flag (feeding BoolFlag QCs elsewhere).
                let favs =
                    param_favorites(&ParamDomain::IntRange(0, i64::from(i32::MAX)), event, 0);
                let fav = favs[(handler_i + qc_i) % favs.len()].clone();
                b.if_not(CondOp::Eq, wide, RegOrConst::Const(fav), skip);
                let f = self.rng.gen_range(0..4);
                let v = b.fresh_reg();
                b.const_(v, true);
                b.put_static(self.field(&format!("flag{f}")), v);
                b.host_log("achievement unlocked");
            }
            QcFlavour::StrCmd => {
                let favs = param_favorites(&ParamDomain::Text { max_len: 12 }, event, 3);
                let fav = favs[(handler_i + qc_i) % favs.len()].clone();
                let lit = b.fresh_reg();
                b.const_(lit, fav);
                let flag = b.fresh_reg();
                let op = match qc_i % 3 {
                    0 => StrOp::Equals,
                    1 => StrOp::StartsWith,
                    _ => StrOp::EndsWith,
                };
                b.str_op(op, flag, text, Some(lit));
                b.if_not(CondOp::Eq, flag, RegOrConst::Const(Value::Bool(true)), skip);
                b.put_static(self.field("label"), text);
                b.host_log("command accepted");
            }
        }
        b.place_label(skip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_analysis::qc;
    use bombdroid_dex::validate;

    #[test]
    fn generated_app_is_structurally_valid() {
        let app = generate_app("TestGame", Category::Game, 42);
        validate(&app.dex).expect("generated dex must validate");
        assert!(!app.dex.entry_points.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_app("Same", Category::Writing, 7);
        let b = generate_app("Same", Category::Writing, 7);
        assert_eq!(a.dex, b.dex);
    }

    #[test]
    fn stats_track_category_targets() {
        let app = generate_app("StatsCheck", Category::Game, 3);
        let p = profile_of(Category::Game);
        let loc = app.dex.instruction_count();
        assert!(
            (loc as f64) > 0.5 * p.avg_loc as f64 && (loc as f64) < 2.0 * p.avg_loc as f64,
            "loc {loc} vs target {}",
            p.avg_loc
        );
        let qcs = qc::scan_dex(&app.dex).len();
        assert!(
            (qcs as f64) > 0.5 * p.avg_existing_qcs as f64,
            "qcs {qcs} vs target {}",
            p.avg_existing_qcs
        );
        let methods = app.dex.methods().count();
        assert!(
            (methods as f64) > 0.6 * (p.avg_candidate_methods as f64 / 0.9),
            "methods {methods}"
        );
    }

    #[test]
    fn qc_mix_has_all_strengths() {
        let app = generate_app("MixCheck", Category::Security, 11);
        let sites = qc::scan_dex(&app.dex);
        let weak = sites
            .iter()
            .filter(|s| s.strength() == bombdroid_analysis::Strength::Weak)
            .count();
        let strong = sites
            .iter()
            .filter(|s| s.strength() == bombdroid_analysis::Strength::Strong)
            .count();
        assert!(weak > 0, "weak QCs present");
        assert!(strong > 0, "strong QCs present");
        // Weak should dominate (Fig. 4a shape).
        assert!(weak * 2 > strong, "weak {weak} vs strong {strong}");
    }

    #[test]
    fn apps_run_without_faulting_much() -> Result<(), crate::CorpusError> {
        use bombdroid_runtime::{run_session, DeviceEnv, InstalledPackage, UserEventSource, Vm};
        let app = generate_app("RunCheck", Category::Game, 13);
        let mut rng = StdRng::seed_from_u64(1);
        let dev = DeveloperKey::generate(&mut rng);
        let pkg = InstalledPackage::install(&app.apk(&dev))?;
        let mut vm = Vm::boot(pkg, DeviceEnv::sample(&mut rng), 5);
        let mut source = UserEventSource::new(&vm.pkg);
        let report = run_session(&mut vm, &mut source, &mut rng, 5, 60);
        assert!(report.events > 100);
        assert!(
            report.completed as f64 >= report.events as f64 * 0.95,
            "most events complete: {report:?}"
        );
        // Users exercising the app satisfy some equality conditions.
        assert!(!vm.telemetry().eq_satisfied.is_empty());
        Ok(())
    }
}
