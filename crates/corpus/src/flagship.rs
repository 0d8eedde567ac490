//! The eight flagship apps of Tables 2–5, one per category (the paper
//! randomly selected one app from each of the eight categories and used
//! them "to demonstrate all the evaluation results in the rest of the
//! section", §8.1).
//!
//! AndroFish gets a faithful behaviour model: its main loop moves fish
//! around and players tap them for points; six state variables (`dir`,
//! `width`, `height`, `speed`, `posX`, `posY`) evolve with sharply
//! different entropies, reproducing the Fig. 3 visualization.

use crate::gen::{generate_with_targets, GenTargets, GeneratedApp};
use crate::profiles::Category;
use bombdroid_dex::{
    BinOp, Class, CondOp, EntryPoint, Field, FieldRef, MethodBuilder, MethodRef, ParamDomain, Reg,
    RegOrConst, Value,
};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// The six profiled AndroFish variables of Fig. 3, in paper order.
pub const ANDROFISH_VARS: [&str; 6] = ["dir", "width", "height", "speed", "posX", "posY"];

/// Names of the eight flagship apps, Table 2 order.
pub const FLAGSHIP_NAMES: [&str; 8] = [
    "AndroFish",
    "Angulo",
    "SWJournal",
    "Calendar",
    "BRouter",
    "Binaural Beat",
    "Hash Droid",
    "CatLog",
];

/// Builds all eight flagship apps.
pub fn all() -> Vec<GeneratedApp> {
    vec![
        androfish(),
        angulo(),
        swjournal(),
        calendar(),
        brouter(),
        binaural_beat(),
        hash_droid(),
        catlog(),
    ]
}

fn sized(name: &str, category: Category, seed: u64, scale: f64) -> GeneratedApp {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = GenTargets::for_category(category, &mut rng);
    t.methods = ((t.methods as f64) * scale) as usize;
    t.loc = ((t.loc as f64) * scale) as usize;
    t.qcs = ((t.qcs as f64) * scale) as usize;
    generate_with_targets(name, category, t, &mut rng)
}

/// AndroFish (Game): generated base app plus the fish simulation class of
/// Fig. 3.
pub fn androfish() -> GeneratedApp {
    let mut app = sized("AndroFish", Category::Game, 0xA17D_0F15, 1.0);
    let cname = "androfish/Fish";
    let mut class = Class::new(cname);
    for f in ANDROFISH_VARS {
        class.fields.push(Field::stat(f));
    }
    let fish = |f: &str| FieldRef::new(cname, f);

    // onFrame(): the game loop tick driving the currently visible fish.
    // dir bounces between 0 and 1 (2 uniques); width/height cycle over
    // narrow ranges; speed/posX/posY wander over wide ranges.
    let mut b = MethodBuilder::new(cname, "onFrame", 0);
    let s = b.fresh_reg();
    b.get_static(s, fish("speed"));
    b.bin_const(BinOp::Mul, s, s, 29);
    b.bin_const(BinOp::Add, s, s, 17);
    b.bin_const(BinOp::Rem, s, s, 193);
    b.put_static(fish("speed"), s);

    let x = b.fresh_reg();
    b.get_static(x, fish("posX"));
    let t = b.fresh_reg();
    b.mov(t, s);
    b.bin_const(BinOp::Mul, t, t, 501);
    b.bin(BinOp::Add, x, x, t);
    b.bin_const(BinOp::Rem, x, x, 100_000);
    b.put_static(fish("posX"), x);

    let y = b.fresh_reg();
    b.get_static(y, fish("posY"));
    b.mov(t, s);
    b.bin_const(BinOp::Mul, t, t, 803);
    b.bin(BinOp::Add, y, y, t);
    b.bin_const(BinOp::Rem, y, y, 160_000);
    b.put_static(fish("posY"), y);

    // dir = (posX / 50000) % 2  — flips occasionally between 0 and 1.
    let d = b.fresh_reg();
    b.mov(d, x);
    b.bin_const(BinOp::Div, d, d, 50_000);
    b.bin_const(BinOp::Rem, d, d, 2);
    b.put_static(fish("dir"), d);

    // width = 10 + (posX / 2000) % 18 ; height = 10 + (posY / 4000) % 14
    let w = b.fresh_reg();
    b.mov(w, x);
    b.bin_const(BinOp::Div, w, w, 2_000);
    b.bin_const(BinOp::Rem, w, w, 18);
    b.bin_const(BinOp::Add, w, w, 10);
    b.put_static(fish("width"), w);
    let h = b.fresh_reg();
    b.mov(h, y);
    b.bin_const(BinOp::Div, h, h, 4_000);
    b.bin_const(BinOp::Rem, h, h, 14);
    b.bin_const(BinOp::Add, h, h, 10);
    b.put_static(fish("height"), h);
    b.ret_void();
    class.methods.push(b.finish());

    // onFishTapped(tapX): score when the tap lands near the fish — an
    // existing wide-int qualified condition in the real app's spirit.
    let mut b = MethodBuilder::new(cname, "onFishTapped", 1);
    let px = b.fresh_reg();
    b.get_static(px, fish("posX"));
    let skip = b.fresh_label();
    // Register-register compare: not a QC (no constant); the bonus check
    // below is the QC.
    b.if_(CondOp::Ne, Reg(0), RegOrConst::Reg(px), skip);
    let sc = b.fresh_reg();
    b.get_static(sc, FieldRef::new(cname, "speed"));
    b.bin_const(BinOp::Add, sc, sc, 5);
    b.put_static(FieldRef::new(cname, "speed"), sc);
    b.place_label(skip);
    // Golden-fish bonus: exact dir+width combination.
    let wreg = b.fresh_reg();
    b.get_static(wreg, fish("width"));
    let skip2 = b.fresh_label();
    b.if_not(CondOp::Eq, wreg, RegOrConst::Const(Value::Int(27)), skip2);
    b.host_log("golden fish!");
    b.place_label(skip2);
    b.ret_void();
    class.methods.push(b.finish());

    app.dex.classes.push(class);
    app.dex.entry_points.push(EntryPoint {
        event: Arc::from("onFrame"),
        method: MethodRef::new(cname, "onFrame"),
        params: vec![],
        user_weight: 6.0, // the game loop dominates user sessions
    });
    app.dex.entry_points.push(EntryPoint {
        event: Arc::from("onFishTapped"),
        method: MethodRef::new(cname, "onFishTapped"),
        params: vec![ParamDomain::IntRange(0, 100_000)],
        user_weight: 4.0,
    });
    app
}

/// Angulo (Science & Education).
pub fn angulo() -> GeneratedApp {
    sized("Angulo", Category::ScienceEdu, 0xA2610, 0.8)
}

/// SWJournal (Sport & Health).
pub fn swjournal() -> GeneratedApp {
    sized("SWJournal", Category::SportHealth, 0x53A1, 0.9)
}

/// Calendar (Writing).
pub fn calendar() -> GeneratedApp {
    sized("Calendar", Category::Writing, 0xCA1E, 1.2)
}

/// BRouter (Navigation) — the biggest flagship (263 bombs in Table 2).
pub fn brouter() -> GeneratedApp {
    sized("BRouter", Category::Navigation, 0xB207, 2.2)
}

/// Binaural Beat (Multimedia).
pub fn binaural_beat() -> GeneratedApp {
    sized("Binaural Beat", Category::Multimedia, 0xB1BE, 0.8)
}

/// Hash Droid (Security).
pub fn hash_droid() -> GeneratedApp {
    sized("Hash Droid", Category::Security, 0x4A54, 0.55)
}

/// CatLog (Development).
pub fn catlog() -> GeneratedApp {
    sized("CatLog", Category::Development, 0xCA71, 0.45)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_dex::validate;

    #[test]
    fn all_flagships_validate() {
        for app in all() {
            validate(&app.dex)
                .unwrap_or_else(|e| panic!("{} invalid: {:?}", app.name, &e[..e.len().min(3)]));
        }
    }

    #[test]
    fn androfish_has_fish_state() {
        let app = androfish();
        let fish = app.dex.class("androfish/Fish").expect("Fish class");
        for f in ANDROFISH_VARS {
            assert!(
                fish.fields.iter().any(|x| &*x.name == f),
                "missing field {f}"
            );
        }
        assert!(app.dex.entry_points.iter().any(|e| &*e.event == "onFrame"));
    }

    #[test]
    fn fish_variables_have_expected_entropy_split() -> Result<(), crate::CorpusError> {
        use bombdroid_apk::DeveloperKey;
        use bombdroid_runtime::{DeviceEnv, InstalledPackage, Vm, VmOptions};
        use rand::Rng;

        let app = androfish();
        let mut rng = StdRng::seed_from_u64(3);
        let dev = DeveloperKey::generate(&mut rng);
        let pkg = InstalledPackage::install(&app.apk(&dev))?;
        let opts = VmOptions {
            record_field_values: true,
            ..VmOptions::default()
        };
        let mut vm = Vm::new(pkg, DeviceEnv::sample(&mut rng), 1, opts);
        let frame = app
            .dex
            .entry_points
            .iter()
            .position(|e| &*e.event == "onFrame")
            .expect("androfish exposes onFrame");
        let tap = app
            .dex
            .entry_points
            .iter()
            .position(|e| &*e.event == "onFishTapped")
            .expect("androfish exposes onFishTapped");
        for _ in 0..500 {
            vm.fire_entry(frame, vec![]).result?;
            if rng.gen_bool(0.3) {
                vm.fire_entry(
                    tap,
                    vec![bombdroid_runtime::RtValue::Int(rng.gen_range(0..100_000))],
                )
                .result?;
            }
        }
        let fv = vm.field_values();
        let uniques = |name: &str| -> usize {
            let samples = &fv[&format!("androfish/Fish.{name}")];
            let set: std::collections::HashSet<_> =
                samples.iter().map(|(_, v)| v.clone()).collect();
            set.len()
        };
        assert!(uniques("dir") <= 3, "dir is low-entropy");
        assert!(uniques("width") <= 20, "width narrow");
        assert!(uniques("posX") > 50, "posX wanders widely");
        assert!(uniques("posY") > 50, "posY wanders widely");
        Ok(())
    }
}
