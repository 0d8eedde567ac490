//! Shared experiment machinery: typed errors, the protection cache, and
//! the session/event helpers every table reuses.

use crate::fixed_keys;
use bombdroid_apk::{ApkFile, VerifyError};
use bombdroid_core::{FleetConfig, ProtectConfig, ProtectError, ProtectedApp, Protector};
// Re-exported so bench callers reach the service-layer cache types through
// the harness (one cache implementation, shared with the protect service).
pub use bombdroid_core::service::{ProtectionCache, SeedPolicy};
use bombdroid_corpus::{flagship, GeneratedApp};
use bombdroid_obs as obs;
use bombdroid_runtime::{
    DeviceEnv, EventSource, InstalledPackage, RandomEventSource, SessionPool, UserEventSource, Vm,
};
use parking_lot::Mutex;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Shared base seed for protecting flagship `i` (`PROTECT_BASE + i`).
///
/// Every experiment uses the same protection seed so the
/// [`ProtectedAppCache`] collapses the ~10 protection passes per flagship
/// of a full `repro all` run into one.
pub const PROTECT_BASE: u64 = 0x7AB0;

/// Why an experiment task failed. The fleet engine surfaces this per task
/// (with the task index) instead of a bare panic mid-experiment.
#[derive(Debug)]
pub enum ExperimentError {
    /// The protection pipeline rejected the app.
    Protect(ProtectError),
    /// An APK failed signature verification at install time.
    Install(VerifyError),
}

impl From<ProtectError> for ExperimentError {
    fn from(e: ProtectError) -> Self {
        ExperimentError::Protect(e)
    }
}

impl From<VerifyError> for ExperimentError {
    fn from(e: VerifyError) -> Self {
        ExperimentError::Install(e)
    }
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Protect(e) => write!(f, "protection failed: {e}"),
            ExperimentError::Install(e) => write!(f, "install failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Fleet configuration for an experiment: all CPUs, overridable with the
/// `BOMBDROID_THREADS` environment variable (`1` reproduces the old serial
/// driver exactly — results are identical either way).
pub fn default_fleet(base_seed: u64) -> FleetConfig {
    FleetConfig::from_env(base_seed)
}

/// Protects a generated app with the given config; returns the protected
/// app plus its signed APK.
pub fn try_protect_app(
    app: &GeneratedApp,
    config: ProtectConfig,
    seed: u64,
) -> Result<(ProtectedApp, ApkFile), ExperimentError> {
    let (dev, _) = fixed_keys();
    let mut rng = StdRng::seed_from_u64(seed);
    let apk = app.apk(&dev);
    let protected = Protector::new(config).protect(&apk, &mut rng)?;
    let signed = protected.package(&dev);
    Ok((protected, signed))
}

/// [`try_protect_app`], panicking on failure (generated apps always
/// protect; kept for callers that treat failure as fatal).
pub fn protect_app(
    app: &GeneratedApp,
    config: ProtectConfig,
    seed: u64,
) -> (ProtectedApp, ApkFile) {
    try_protect_app(app, config, seed).expect("protection succeeds on generated apps")
}

/// The eight flagship apps (cached generation is cheap; callers reuse).
pub fn flagships() -> Vec<GeneratedApp> {
    flagship::all()
}

type Artifact = Arc<(ProtectedApp, ApkFile)>;

#[derive(PartialEq, Eq, Hash)]
struct SignKey {
    app: String,
    seed: u64,
    /// `ProtectConfig` fingerprint (its `Debug` form covers every field).
    config: String,
}

/// Memoizes protection runs by `(app, seed, config)` — a thin wrapper over
/// core's content-addressed [`ProtectionCache`]. The protect pass itself
/// (and its single-flight deduplication) lives in
/// `bombdroid_core::service`; what this wrapper adds is the
/// developer-signed APK, which the core cache deliberately does not hold
/// (the signing key never enters the protect pipeline). Concurrent
/// requests for the same key protect and sign once and share the
/// artifact; requests for different keys proceed in parallel.
#[derive(Default)]
pub struct ProtectedAppCache {
    core: ProtectionCache,
    signed: Mutex<HashMap<SignKey, Arc<Mutex<Option<Artifact>>>>>,
}

impl ProtectedAppCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProtectedAppCache::default()
    }

    /// How many protection passes actually ran (cache misses), as counted
    /// by the underlying core cache.
    pub fn protect_count(&self) -> usize {
        self.core.protect_count()
    }

    /// The core content-addressed cache this wrapper delegates to.
    pub fn core(&self) -> &ProtectionCache {
        &self.core
    }

    /// Returns the cached artifact for `(app, config, seed)`, protecting it
    /// first if this is the first request for that key.
    pub fn get_or_protect(
        &self,
        app: &GeneratedApp,
        config: &ProtectConfig,
        seed: u64,
    ) -> Result<Artifact, ExperimentError> {
        let key = SignKey {
            app: app.name.clone(),
            seed,
            config: format!("{config:?}"),
        };
        obs::counter_add("cache.requests", 1);
        // Per-key slot: the outer map lock is held only for the lookup, so
        // distinct apps protect concurrently while a second request for the
        // same key blocks until the first finishes and then reuses it.
        let slot = self.signed.lock().entry(key).or_default().clone();
        let mut guard = slot.lock();
        if let Some(artifact) = &*guard {
            return Ok(artifact.clone());
        }
        let (dev, _) = fixed_keys();
        let apk = app.apk(&dev);
        let (protected, hit) = self.core.get_or_protect(&apk, config, seed)?;
        if !hit {
            obs::counter_add("cache.protects", 1);
        }
        let signed = protected.package(&dev);
        let artifact = Arc::new(((*protected).clone(), signed));
        *guard = Some(artifact.clone());
        Ok(artifact)
    }
}

/// The process-wide cache all experiments share.
pub fn shared_cache() -> &'static ProtectedAppCache {
    static CACHE: OnceLock<ProtectedAppCache> = OnceLock::new();
    CACHE.get_or_init(ProtectedAppCache::new)
}

/// Drives one user session until the first bomb triggers; `None` if the
/// cap is reached first.
pub fn time_to_first_bomb(pool: &SessionPool, seed: u64, cap_minutes: u64) -> Option<u64> {
    let _span = obs::span("vm.session");
    let mut rng = StdRng::seed_from_u64(seed);
    // Each run varies the emulator configuration (§8.2: testers varied
    // device types, SDK versions, CPU/ABI between runs).
    let env = DeviceEnv::sample(&mut rng);
    let mut vm = pool.session(env, seed ^ 0x7E57);
    let mut source = UserEventSource::new(&vm.pkg);
    let dex = Arc::clone(&vm.pkg.dex);
    let deadline = cap_minutes * 60_000;
    // Engaged users: ~30 meaningful events per minute.
    let first_marker = 'session: {
        while vm.clock_ms() < deadline {
            if let Some(at) = vm.telemetry().first_marker_ms {
                break 'session Some(at);
            }
            if vm.is_killed() || vm.is_frozen() {
                // The response itself proves a bomb fired.
                break 'session vm.telemetry().first_marker_ms;
            }
            let Some(ev) = source.next_event(&dex, &mut rng) else {
                break 'session None;
            };
            let _ = vm.fire_entry(ev.entry_index, ev.args);
            vm.advance_ms(1_000);
        }
        vm.telemetry().first_marker_ms
    };
    vm.publish_obs();
    first_marker
}

/// Feeds `events` random events to an installed copy of `apk` and returns
/// the executed-instruction count (the deterministic cost model's stand-in
/// for wall-clock).
pub fn drive_events(apk: &ApkFile, events: u64, seed: u64) -> Result<u64, ExperimentError> {
    let _span = obs::span("vm.drive");
    let pkg = InstalledPackage::install(apk)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vm = Vm::boot(pkg, DeviceEnv::sample(&mut rng), seed);
    let mut source = RandomEventSource;
    let dex = Arc::clone(&vm.pkg.dex);
    for _ in 0..events {
        let Some(ev) = source.next_event(&dex, &mut rng) else {
            break;
        };
        let _ = vm.fire_entry(ev.entry_index, ev.args);
        if vm.is_killed() || vm.is_frozen() {
            break;
        }
    }
    vm.publish_obs();
    Ok(vm.telemetry().instr_executed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_protects_each_key_once() {
        let cache = ProtectedAppCache::new();
        let app = flagship::androfish();
        let config = ProtectConfig::fast_profile();

        let first = cache.get_or_protect(&app, &config, 1).expect("protect");
        let second = cache.get_or_protect(&app, &config, 1).expect("protect");
        assert_eq!(cache.protect_count(), 1, "same key must protect once");
        assert!(
            Arc::ptr_eq(&first, &second),
            "both callers must share one artifact"
        );

        // A different seed (or config) is a different key.
        cache.get_or_protect(&app, &config, 2).expect("protect");
        assert_eq!(cache.protect_count(), 2);
    }

    #[test]
    fn cached_artifact_matches_direct_protection() {
        let cache = ProtectedAppCache::new();
        let app = flagship::androfish();
        let config = ProtectConfig::fast_profile();
        let cached = cache
            .get_or_protect(&app, &config, 7)
            .expect("protect via cache");
        let (direct, _) = protect_app(&app, config, 7);
        assert_eq!(
            cached.0.report.bombs_injected(),
            direct.report.bombs_injected()
        );
    }
}
