//! Fig. 3 — AndroFish variable traces under a random driver.

use crate::fixed_keys;
use bombdroid_corpus::flagship;
use bombdroid_runtime::{DeviceEnv, InstalledPackage, RandomEventSource, Vm, VmOptions};
use rand::{rngs::StdRng, SeedableRng};

/// Per-minute traces of the six AndroFish variables.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// `(variable name, [(minute, value)])` series, paper order.
    pub series: Vec<(String, Vec<(u64, i64)>)>,
    /// Distinct values per variable (the entropy ranking input).
    pub unique_counts: Vec<(String, usize)>,
}

/// Regenerates Fig. 3: run AndroFish under a Dynodroid-style driver for
/// `minutes`, recording the fish state variables once per minute. One
/// continuous session — inherently serial, so it does not use the fleet.
pub fn fig3(minutes: u64) -> Fig3Data {
    let (dev, _) = fixed_keys();
    let app = flagship::androfish();
    let pkg = InstalledPackage::install(&app.apk(&dev)).expect("install");
    let opts = VmOptions {
        record_field_values: true,
        ..VmOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(33);
    let mut vm = Vm::new(pkg, DeviceEnv::sample(&mut rng), 33, opts);
    let mut source = RandomEventSource;
    bombdroid_runtime::run_session(&mut vm, &mut source, &mut rng, minutes, 60);
    let (_, _, mut field_values) = vm.into_profile();

    let mut series = Vec::new();
    let mut unique_counts = Vec::new();
    for var in flagship::ANDROFISH_VARS {
        let key = format!("androfish/Fish.{var}");
        let samples = field_values.remove(&key).unwrap_or_default();
        // Last value seen in each minute.
        let mut per_minute: Vec<(u64, i64)> = Vec::new();
        for minute in 0..minutes {
            let lo = minute * 60_000;
            let hi = lo + 60_000;
            if let Some((_, bombdroid_dex::Value::Int(i))) =
                samples.iter().rfind(|(at, _)| *at >= lo && *at < hi)
            {
                per_minute.push((minute, *i));
            }
        }
        let uniq: std::collections::HashSet<_> = samples.iter().map(|(_, v)| v.clone()).collect();
        unique_counts.push((var.to_string(), uniq.len()));
        series.push((var.to_string(), per_minute));
    }
    Fig3Data {
        series,
        unique_counts,
    }
}
