//! Profiling phase (paper §7.1): feed the app a stream of random user
//! events (the Dynodroid role), log per-method invocation counts (the
//! Traceview role) and field-value samples, and derive the hot-method set.

use crate::config::ProtectConfig;
use crate::pipeline::ProtectError;
use bombdroid_apk::ApkFile;
use bombdroid_dex::MethodRef;
use bombdroid_runtime::telemetry::{hot_methods, FieldValues, MethodCalls};
use bombdroid_runtime::{
    DeviceEnv, EventSource, InstalledPackage, RandomEventSource, Telemetry, Vm, VmOptions,
};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashSet;

/// Outcome of the profiling phase.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// Run telemetry (instruction and event counts, QC coverage, ...).
    pub telemetry: Telemetry,
    /// Per-method invocation counts (the Traceview role).
    pub method_calls: MethodCalls,
    /// Field-value samples, for artificial QC selection (§7.2).
    pub field_values: FieldValues,
    /// Methods excluded from instrumentation as hot.
    pub hot: HashSet<MethodRef>,
}

/// Profiles `apk` with `config.profiling_events` random events.
///
/// # Errors
///
/// * [`ProtectError::Install`] if the APK is not validly signed;
/// * [`ProtectError::EntryDomains`] if an entry point declares a parameter
///   domain no event can be drawn from (an empty range or choice, or a
///   text longer than [`bombdroid_dex::MAX_TEXT_PARAM_LEN`]). The app is
///   never run in that case.
pub fn profile_app(
    apk: &ApkFile,
    config: &ProtectConfig,
    seed: u64,
) -> Result<ProfileResult, ProtectError> {
    let _span = bombdroid_obs::span("pipeline.profile");
    let pkg = InstalledPackage::install(apk)?;
    bombdroid_dex::validate_entry_domains(&pkg.dex).map_err(ProtectError::EntryDomains)?;
    let opts = VmOptions {
        record_field_values: true,
        ..VmOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vm = Vm::new(pkg, DeviceEnv::sample(&mut rng), seed ^ 0x9e37, opts);
    let mut source = RandomEventSource;
    let dex = vm.pkg.dex.clone();
    for _ in 0..config.profiling_events {
        let Some(ev) = source.next_event(&dex, &mut rng) else {
            break;
        };
        // Profiling ignores faults: random inputs hit error paths, which is
        // fine — we only need coverage statistics.
        let _ = vm.fire_entry(ev.entry_index, ev.args);
        if vm.is_killed() || vm.is_frozen() {
            break;
        }
    }
    let (telemetry, method_calls, field_values) = vm.into_profile();
    let hot: HashSet<MethodRef> = hot_methods(&method_calls, config.hot_method_ratio)
        .into_iter()
        .collect();
    bombdroid_obs::counter_add("profile.events_run", telemetry.events_run);
    bombdroid_obs::counter_add("profile.instr_executed", telemetry.instr_executed);
    bombdroid_obs::record("profile.hot_methods", hot.len() as u64);
    Ok(ProfileResult {
        telemetry,
        method_calls,
        field_values,
        hot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_apk::{package_app, AppMeta, DeveloperKey, StringsXml};
    use bombdroid_dex::{Class, DexFile, EntryPoint, FieldRef, MethodBuilder, ParamDomain, Reg};
    use std::sync::Arc;

    fn two_handler_app() -> ApkFile {
        let mut dex = DexFile::new();
        let mut class = Class::new("App");
        // Handler A: writes its argument to a field (profiled values).
        let mut a = MethodBuilder::new("App", "onA", 1);
        a.put_static(FieldRef::new("App", "last"), Reg(0));
        a.ret_void();
        class.methods.push(a.finish());
        // Handler B: trivial.
        let mut b = MethodBuilder::new("App", "onB", 0);
        b.ret_void();
        class.methods.push(b.finish());
        dex.classes.push(class);
        dex.entry_points.push(EntryPoint {
            event: Arc::from("onA"),
            method: bombdroid_dex::MethodRef::new("App", "onA"),
            params: vec![ParamDomain::IntRange(0, 1_000)],
            user_weight: 1.0,
        });
        dex.entry_points.push(EntryPoint {
            event: Arc::from("onB"),
            method: bombdroid_dex::MethodRef::new("App", "onB"),
            params: vec![],
            user_weight: 1.0,
        });
        let mut rng = StdRng::seed_from_u64(1);
        let dev = DeveloperKey::generate(&mut rng);
        package_app(&dex, StringsXml::new(), AppMeta::named("prof"), &dev)
    }

    #[test]
    fn profiling_collects_counts_and_fields() {
        let apk = two_handler_app();
        let cfg = ProtectConfig {
            profiling_events: 500,
            ..ProtectConfig::default()
        };
        let result = profile_app(&apk, &cfg, 7).unwrap();
        assert!(result.telemetry.events_run >= 499);
        assert!(result.field_values.contains_key("App.last"));
        let samples = &result.field_values["App.last"];
        assert!(samples.len() > 100);
        // 10% of 2 methods floors to 0 hot methods (tiny apps keep all
        // methods as candidates).
        assert_eq!(result.hot.len(), 0);
    }

    #[test]
    fn profiling_is_deterministic() {
        let apk = two_handler_app();
        let cfg = ProtectConfig {
            profiling_events: 200,
            ..ProtectConfig::default()
        };
        let a = profile_app(&apk, &cfg, 9).unwrap();
        let b = profile_app(&apk, &cfg, 9).unwrap();
        assert_eq!(a.method_calls, b.method_calls);
        assert_eq!(a.hot, b.hot);
    }
}
