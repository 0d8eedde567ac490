//! Protect-as-a-service: the sustained-throughput front end over the
//! protect engine (ROADMAP item 5).
//!
//! The paper's deployment story assumes store-side protection of every
//! submitted APK, which makes `protect` a server workload, not a batch
//! script. This module supplies the three pieces that workload needs:
//!
//! 1. **Content-addressed protection cache** ([`ProtectionCache`]): keyed
//!    by app content digest × config fingerprint × effective seed, with
//!    single-flight deduplication — N concurrent requests for the same
//!    artifact run exactly one protect pass and share the result.
//! 2. **Streaming intake with admission control** ([`ProtectService`]):
//!    a bounded queue of [`ProtectJob`]s; submissions past the depth
//!    limit are shed with a typed [`AdmissionError`] instead of growing
//!    memory without bound.
//! 3. **Fleet-sharded drain**: queued jobs run across the existing fleet
//!    pool ([`fleet::run_map`]), and results come back in submission
//!    order regardless of which worker finished first. Seeds derive from
//!    the job's [`SeedPolicy`] and app digest — never from scheduling —
//!    so a drain's outputs are byte-deterministic.
//!
//! Queue-wait and service-time latencies are recorded through
//! `bombdroid-obs` timings (`service.queue_wait`, `service.time`), which
//! the deterministic export mode already omits.

use crate::config::ProtectConfig;
use crate::fleet;
use crate::pipeline::{ProtectError, ProtectedApp, Protector};
use bombdroid_apk::ApkFile;
use bombdroid_crypto::{sha256, Digest256};
use bombdroid_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fingerprint of a [`ProtectConfig`]: SHA-256 over its canonical `Debug`
/// form. `ProtectConfig` is plain data, so the `Debug` rendering covers
/// every field; two configs collide iff they are field-for-field equal.
pub fn config_fingerprint(config: &ProtectConfig) -> Digest256 {
    sha256::digest(format!("{config:?}").as_bytes())
}

/// How a job's protection seed is chosen.
///
/// The seed feeds the pipeline's `StdRng` and therefore selects trigger
/// sites, fragments, and keys — it is part of the artifact's identity,
/// so it is part of the cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedPolicy {
    /// Use exactly this seed.
    Fixed(u64),
    /// Derive the seed from `base` and the app's content digest, so the
    /// same app submitted twice lands on the same seed (and thus the same
    /// cache slot) no matter where it sits in the queue, while distinct
    /// apps still diversify.
    PerApp {
        /// Base seed mixed with the app digest.
        base: u64,
    },
}

impl SeedPolicy {
    /// The concrete seed this policy yields for an app.
    pub fn effective_seed(&self, app_digest: &Digest256) -> u64 {
        match *self {
            SeedPolicy::Fixed(seed) => seed,
            SeedPolicy::PerApp { base } => {
                // SplitMix64-style mix of the base with the digest's first
                // eight bytes: cheap, stable, and spreads nearby bases.
                let d = u64::from_le_bytes(app_digest[..8].try_into().unwrap());
                let mut z = base ^ d.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
        }
    }
}

/// Full identity of a protection artifact.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    app: Digest256,
    config: Digest256,
    seed: u64,
}

type Slot = Arc<Mutex<Option<Arc<ProtectedApp>>>>;

/// Content-addressed protection cache with single-flight deduplication.
///
/// Keyed by app content digest × config fingerprint × effective seed —
/// everything that determines the output bytes, and nothing that doesn't
/// (the developer key, for instance, never reaches the protect pipeline).
///
/// Locking is two-level: the outer map lock is held only long enough to
/// find-or-create a per-key slot; the protect pass itself runs under that
/// slot's own lock. Concurrent requests for *different* keys proceed in
/// parallel, while a stampede on *one* key serializes — the first caller
/// protects, the rest wait and share the `Arc`. Failed passes leave the
/// slot empty so a later request retries rather than caching the error.
#[derive(Default)]
pub struct ProtectionCache {
    slots: Mutex<HashMap<CacheKey, Slot>>,
    protects: AtomicUsize,
    hits: AtomicUsize,
}

impl ProtectionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of protect passes actually executed (misses).
    pub fn protect_count(&self) -> usize {
        self.protects.load(Ordering::Relaxed)
    }

    /// Number of requests served from an already-populated slot.
    pub fn hit_count(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct keys with a populated or in-flight slot.
    pub fn len(&self) -> usize {
        lock_recover(&self.slots).len()
    }

    /// Whether the cache holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the protected artifact for `(apk, config, seed)`, running
    /// the protect pipeline only on a cache miss.
    ///
    /// The boolean is `true` when the artifact was served from cache
    /// without running (or waiting out) a protect pass of our own.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtectError`] from the pipeline on a miss; the slot
    /// stays empty so subsequent requests retry.
    pub fn get_or_protect(
        &self,
        apk: &ApkFile,
        config: &ProtectConfig,
        seed: u64,
    ) -> Result<(Arc<ProtectedApp>, bool), ProtectError> {
        let key = CacheKey {
            app: apk.content_digest(),
            config: config_fingerprint(config),
            seed,
        };
        obs::counter_add("service.cache.requests", 1);
        let slot = {
            let mut slots = lock_recover(&self.slots);
            Arc::clone(slots.entry(key).or_default())
        };
        let mut filled = lock_recover(&slot);
        if let Some(artifact) = filled.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter_add("service.cache.hits", 1);
            return Ok((Arc::clone(artifact), true));
        }
        // Miss: we hold the slot lock, so we are the single flight for
        // this key. Everyone else queued on `filled` sees our result.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let protected = Protector::new(config.clone()).protect(apk, &mut rng)?;
        self.protects.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("service.cache.protects", 1);
        let artifact = Arc::new(protected);
        *filled = Some(Arc::clone(&artifact));
        Ok((artifact, false))
    }
}

/// One unit of intake: an app to protect, how, and with which seed.
#[derive(Clone)]
pub struct ProtectJob {
    /// The signed input APK.
    pub apk: Arc<ApkFile>,
    /// Protection parameters.
    pub config: ProtectConfig,
    /// Seed selection policy.
    pub seed: SeedPolicy,
}

/// Receipt for an admitted job: its position in the intake order, which
/// is also its position in [`ProtectService::drain`]'s result vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTicket {
    /// Zero-based submission index within the current batch.
    pub index: usize,
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The intake queue is at capacity; the job was shed, not queued.
    QueueFull {
        /// Jobs currently queued.
        depth: usize,
        /// Configured queue bound.
        limit: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { depth, limit } => {
                write!(f, "intake queue full ({depth}/{limit}); job shed")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Result of one drained job.
pub struct JobOutcome {
    /// Submission index (matches the [`JobTicket`]).
    pub index: usize,
    /// Content digest of the input app.
    pub app_digest: Digest256,
    /// The effective seed the job's policy resolved to.
    pub seed: u64,
    /// Whether the artifact came out of the cache without a fresh pass.
    pub cache_hit: bool,
    /// The protected artifact, shared with any duplicate jobs.
    pub result: Result<Arc<ProtectedApp>, ProtectError>,
}

/// Streaming intake over the protect engine: bounded admission, fleet
/// sharding, deterministic result ordering.
///
/// Usage is submit/drain: [`submit`](Self::submit) enqueues jobs until
/// the depth bound sheds them, [`drain`](Self::drain) runs everything
/// queued across the fleet pool and returns outcomes in submission
/// order. The service can be reused across drains; counters accumulate.
pub struct ProtectService {
    threads: usize,
    max_queue: usize,
    cache: Arc<ProtectionCache>,
    queue: Vec<(ProtectJob, Instant)>,
    submitted: usize,
    shed: usize,
}

impl ProtectService {
    /// A service draining on `threads` workers, with a queue bound of
    /// `max_queue` jobs and its own private cache.
    pub fn with_threads(threads: usize, max_queue: usize) -> Self {
        Self::with_parts(threads, max_queue, Arc::new(ProtectionCache::new()))
    }

    /// Full constructor: share a cache across services by passing the
    /// same `Arc`.
    pub fn with_parts(threads: usize, max_queue: usize, cache: Arc<ProtectionCache>) -> Self {
        ProtectService {
            threads: threads.max(1),
            max_queue: max_queue.max(1),
            cache,
            queue: Vec::new(),
            submitted: 0,
            shed: 0,
        }
    }

    /// The cache backing this service.
    pub fn cache(&self) -> &ProtectionCache {
        &self.cache
    }

    /// Jobs currently queued and not yet drained.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Total jobs admitted over the service's lifetime.
    pub fn submitted_count(&self) -> usize {
        self.submitted
    }

    /// Total jobs refused by admission control.
    pub fn shed_count(&self) -> usize {
        self.shed
    }

    /// Admits `job` to the intake queue.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] once the queue holds `max_queue`
    /// jobs; the job is dropped and the caller decides whether to retry
    /// after a drain (backpressure) or give up (shed).
    pub fn submit(&mut self, job: ProtectJob) -> Result<JobTicket, AdmissionError> {
        if self.queue.len() >= self.max_queue {
            self.shed += 1;
            obs::counter_add("service.shed", 1);
            return Err(AdmissionError::QueueFull {
                depth: self.queue.len(),
                limit: self.max_queue,
            });
        }
        let index = self.queue.len();
        self.queue.push((job, Instant::now()));
        self.submitted += 1;
        obs::counter_add("service.submitted", 1);
        Ok(JobTicket { index })
    }

    /// Runs every queued job across the fleet pool and returns outcomes
    /// in submission order.
    ///
    /// Duplicate jobs (same app bytes, config, and effective seed) are
    /// single-flighted through the cache: one protect pass, shared
    /// artifact, `cache_hit` set on all but the pass that ran. Output
    /// bytes depend only on each job's inputs — worker scheduling cannot
    /// leak into them — so a drain is deterministic end to end.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        let jobs = std::mem::take(&mut self.queue);
        if jobs.is_empty() {
            return Vec::new();
        }
        let cache = &self.cache;
        let tasks: Vec<(usize, ProtectJob, Instant)> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (job, enqueued))| (i, job, enqueued))
            .collect();
        let outcomes = fleet::run_map(self.threads, tasks, |(index, job, enqueued)| {
            let queue_wait = enqueued.elapsed();
            let served = Instant::now();
            let app_digest = job.apk.content_digest();
            let seed = job.seed.effective_seed(&app_digest);
            let result = cache.get_or_protect(&job.apk, &job.config, seed);
            let (cache_hit, result) = match result {
                Ok((artifact, hit)) => (hit, Ok(artifact)),
                Err(e) => (false, Err(e)),
            };
            let outcome = JobOutcome {
                index,
                app_digest,
                seed,
                cache_hit,
                result,
            };
            (
                outcome,
                queue_wait.as_nanos() as u64,
                served.elapsed().as_nanos() as u64,
            )
        });
        // Latency histograms are folded serially on the caller's thread,
        // in submission order: worker threads fall through to the global
        // recorder, which would bypass a caller-installed local one.
        let mut results = Vec::with_capacity(outcomes.len());
        for (outcome, wait_ns, service_ns) in outcomes {
            obs::timing_record("service.queue_wait", wait_ns);
            obs::timing_record("service.time", service_ns);
            results.push(outcome);
        }
        results
    }
}

/// Locks `m`, recovering the guard if a previous holder panicked — every
/// value behind these mutexes stays structurally valid mid-operation.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_apk::DeveloperKey;
    use bombdroid_corpus::flagship;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_apks() -> Vec<Arc<ApkFile>> {
        let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(0x5E41));
        flagship::all()
            .iter()
            .take(3)
            .map(|app| Arc::new(app.apk(&dev)))
            .collect()
    }

    #[test]
    fn seed_policy_fixed_ignores_digest() {
        let a = [1u8; 32];
        let b = [2u8; 32];
        let p = SeedPolicy::Fixed(42);
        assert_eq!(p.effective_seed(&a), 42);
        assert_eq!(p.effective_seed(&b), 42);
    }

    #[test]
    fn seed_policy_per_app_separates_apps_not_submissions() {
        let a = [1u8; 32];
        let b = [2u8; 32];
        let p = SeedPolicy::PerApp { base: 7 };
        assert_eq!(p.effective_seed(&a), p.effective_seed(&a));
        assert_ne!(p.effective_seed(&a), p.effective_seed(&b));
        assert_ne!(
            SeedPolicy::PerApp { base: 8 }.effective_seed(&a),
            p.effective_seed(&a)
        );
    }

    #[test]
    fn cache_hits_on_identical_key_and_misses_across_keys() {
        let apks = sample_apks();
        let cache = ProtectionCache::new();
        let cfg = ProtectConfig::fast_profile();
        let (first, hit) = cache.get_or_protect(&apks[0], &cfg, 1).unwrap();
        assert!(!hit);
        let (second, hit) = cache.get_or_protect(&apks[0], &cfg, 1).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        // Different seed, different app, different config: all misses.
        let (_, hit) = cache.get_or_protect(&apks[0], &cfg, 2).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_protect(&apks[1], &cfg, 1).unwrap();
        assert!(!hit);
        let mut other = cfg.clone();
        other.bogus_ratio = 0.75;
        let (_, hit) = cache.get_or_protect(&apks[0], &other, 1).unwrap();
        assert!(!hit);
        assert_eq!(cache.protect_count(), 4);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn stampede_runs_exactly_one_protect_pass() {
        let apks = sample_apks();
        let cache = Arc::new(ProtectionCache::new());
        let cfg = ProtectConfig::fast_profile();
        let threads = 8;
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let apk = Arc::clone(&apks[0]);
                let cfg = cfg.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (artifact, _) = cache.get_or_protect(&apk, &cfg, 9).unwrap();
                    bombdroid_dex::wire::encode_dex(&artifact.dex)
                })
            })
            .collect();
        let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(cache.protect_count(), 1, "stampede must single-flight");
        assert_eq!(cache.hit_count(), threads - 1);
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "all callers share bytes"
        );
    }

    #[test]
    fn no_bleed_across_config_fingerprints_and_seed_policies() {
        let apks = sample_apks();
        let cache = ProtectionCache::new();
        let base_cfg = ProtectConfig::fast_profile();
        let mut single = base_cfg.clone();
        single.double_trigger = false;
        let digest = apks[0].content_digest();
        let seed_a = SeedPolicy::Fixed(11).effective_seed(&digest);
        let seed_b = SeedPolicy::PerApp { base: 11 }.effective_seed(&digest);
        assert_ne!(
            seed_a, seed_b,
            "policies must resolve to distinct seeds here"
        );
        let (double_a, _) = cache.get_or_protect(&apks[0], &base_cfg, seed_a).unwrap();
        let (single_a, _) = cache.get_or_protect(&apks[0], &single, seed_a).unwrap();
        let (double_b, _) = cache.get_or_protect(&apks[0], &base_cfg, seed_b).unwrap();
        assert_eq!(cache.protect_count(), 3, "three keys, three passes");
        // Slots must not alias: each key yields its own artifact, and the
        // config difference is visible in the output (single- vs
        // double-trigger bombs).
        assert!(!Arc::ptr_eq(&double_a, &single_a));
        assert!(!Arc::ptr_eq(&double_a, &double_b));
        assert_ne!(
            bombdroid_dex::wire::encode_dex(&double_a.dex),
            bombdroid_dex::wire::encode_dex(&single_a.dex)
        );
        assert_ne!(
            bombdroid_dex::wire::encode_dex(&double_a.dex),
            bombdroid_dex::wire::encode_dex(&double_b.dex)
        );
        // Re-requesting each key returns its own cached artifact.
        let (again, hit) = cache.get_or_protect(&apks[0], &single, seed_a).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&again, &single_a));
    }

    #[test]
    fn submit_sheds_past_queue_bound() {
        let apks = sample_apks();
        let mut svc = ProtectService::with_threads(1, 2);
        let job = ProtectJob {
            apk: Arc::clone(&apks[0]),
            config: ProtectConfig::fast_profile(),
            seed: SeedPolicy::Fixed(1),
        };
        assert_eq!(svc.submit(job.clone()).unwrap(), JobTicket { index: 0 });
        assert_eq!(svc.submit(job.clone()).unwrap(), JobTicket { index: 1 });
        let err = svc.submit(job.clone()).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { depth: 2, limit: 2 });
        assert_eq!(svc.shed_count(), 1);
        assert_eq!(svc.queue_depth(), 2);
        // Draining frees capacity: backpressure, not permanent rejection.
        let outcomes = svc.drain();
        assert_eq!(outcomes.len(), 2);
        assert!(svc.submit(job).is_ok());
    }

    #[test]
    fn drain_returns_submission_order_and_shares_duplicates() {
        let apks = sample_apks();
        let cfg = ProtectConfig::fast_profile();
        for threads in [1, 3] {
            let mut svc = ProtectService::with_threads(threads, 16);
            // a, b, a(dup), c, b(dup) — duplicates share one pass each.
            for apk in [&apks[0], &apks[1], &apks[0], &apks[2], &apks[1]] {
                svc.submit(ProtectJob {
                    apk: Arc::clone(apk),
                    config: cfg.clone(),
                    seed: SeedPolicy::PerApp { base: 0x7AB0 },
                })
                .unwrap();
            }
            let outcomes = svc.drain();
            assert_eq!(outcomes.len(), 5);
            for (i, o) in outcomes.iter().enumerate() {
                assert_eq!(o.index, i);
                assert!(o.result.is_ok());
            }
            assert_eq!(outcomes[0].app_digest, outcomes[2].app_digest);
            assert_eq!(outcomes[0].seed, outcomes[2].seed);
            assert!(Arc::ptr_eq(
                outcomes[0].result.as_ref().unwrap(),
                outcomes[2].result.as_ref().unwrap()
            ));
            assert!(Arc::ptr_eq(
                outcomes[1].result.as_ref().unwrap(),
                outcomes[4].result.as_ref().unwrap()
            ));
            // Exactly three distinct artifacts protected, two served as
            // duplicates (whether by hit or single-flight wait).
            assert_eq!(svc.cache().protect_count(), 3);
            assert_eq!(
                outcomes.iter().filter(|o| o.cache_hit).count() + svc.cache().protect_count(),
                5
            );
        }
    }

    #[test]
    fn protect_output_identical() {
        // The service path (content-addressed cache over the protect
        // pipeline) must change no wire bytes versus driving the Protector
        // directly with the same inputs.
        let apks = sample_apks();
        let cfg = ProtectConfig::fast_profile();
        let cache = ProtectionCache::new();
        for (i, apk) in apks.iter().enumerate() {
            let seed = 0x7AB0 + i as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let direct = Protector::new(cfg.clone()).protect(apk, &mut rng).unwrap();
            let (via_service, hit) = cache.get_or_protect(apk, &cfg, seed).unwrap();
            assert!(!hit);
            assert_eq!(
                bombdroid_dex::wire::encode_dex(&direct.dex),
                bombdroid_dex::wire::encode_dex(&via_service.dex),
                "service path altered DEX wire bytes"
            );
            assert_eq!(direct.strings.to_bytes(), via_service.strings.to_bytes());
            assert_eq!(
                format!("{:?}", direct.report),
                format!("{:?}", via_service.report)
            );
        }
    }

    #[test]
    fn drain_outputs_independent_of_thread_count() {
        let apks = sample_apks();
        let cfg = ProtectConfig::fast_profile();
        let run = |threads: usize| {
            let mut svc = ProtectService::with_threads(threads, 8);
            for apk in &apks {
                svc.submit(ProtectJob {
                    apk: Arc::clone(apk),
                    config: cfg.clone(),
                    seed: SeedPolicy::PerApp { base: 0xBEEF },
                })
                .unwrap();
            }
            svc.drain()
                .into_iter()
                .map(|o| {
                    let app = o.result.unwrap();
                    bombdroid_dex::wire::encode_dex(&app.dex)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }
}
