//! The end-to-end protection pipeline (paper Fig. 1).
//!
//! Unpack → profile (Dynodroid + Traceview roles) → static analysis and
//! site planning → bomb construction & bytecode instrumentation →
//! encryption → repackage unsigned output for the developer to sign.

use crate::bomb::{arm_artificial, arm_existing, PayloadSpec, SealedBlobs};
use crate::config::{ProtectConfig, ResponseChoice};
use crate::fleet;
use crate::inner;
use crate::payload::DetectionKind;
use crate::profiling::profile_app;
use crate::report::{BombInfo, BombKind, ProtectReport};
use crate::sites::{self, PlannedArtificial, PlannedExisting};
use bombdroid_analysis::Strength;
use bombdroid_apk::container::entry;
use bombdroid_apk::{
    package_shared, stego, ApkFile, AppMeta, DeveloperKey, StringsXml, VerifyError,
};
use bombdroid_dex::{wire, DexFile, EncryptedBlob, Instr, Method, MethodRef, Value};
use bombdroid_obs as obs;
use rand::{rngs::StdRng, Rng};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Why protection failed.
#[derive(Debug)]
pub enum ProtectError {
    /// The input APK is not validly signed.
    Install(VerifyError),
    /// Instrumentation produced structurally invalid bytecode (a bug — the
    /// validator is our safety net).
    Validate(Vec<bombdroid_dex::ValidateError>),
    /// The input app declares an entry-point parameter no event can be
    /// drawn from, or one too long to draw (checked before profiling runs
    /// the app).
    EntryDomains(Vec<bombdroid_dex::ValidateError>),
}

impl fmt::Display for ProtectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectError::Install(e) => write!(f, "input APK rejected: {e}"),
            ProtectError::Validate(errs) => {
                write!(
                    f,
                    "instrumented DEX failed validation ({} errors)",
                    errs.len()
                )
            }
            ProtectError::EntryDomains(errs) => {
                write!(f, "input app has {} unusable parameter domains", errs.len())?;
                match errs.first() {
                    Some(e) => write!(f, ", first: {e}"),
                    None => Ok(()),
                }
            }
        }
    }
}

impl std::error::Error for ProtectError {}

impl From<VerifyError> for ProtectError {
    fn from(e: VerifyError) -> Self {
        ProtectError::Install(e)
    }
}

/// A protected-but-unsigned app, to be signed by the legitimate developer
/// ("the private key is kept by the legitimate developer and is not
/// disclosed to BombDroid", §2.3).
#[derive(Debug, Clone)]
pub struct ProtectedApp {
    /// Instrumented bytecode, shared with every package signed from it.
    pub dex: Arc<DexFile>,
    /// Resources including steganographic digest covers.
    pub strings: StringsXml,
    /// Unchanged app metadata.
    pub meta: AppMeta,
    /// What was injected.
    pub report: ProtectReport,
}

impl ProtectedApp {
    /// Signs and packages the protected app with the developer's key. The
    /// package shares this app's dex rather than copying it.
    pub fn package(&self, key: &DeveloperKey) -> ApkFile {
        package_shared(
            Arc::clone(&self.dex),
            self.strings.clone(),
            self.meta.clone(),
            key,
        )
    }
}

/// Bit marking a blob id as *local to a per-method arming task*: the merge
/// pass relocates marked ids to their final position in the dex blob table
/// and leaves unmarked ids (pre-existing blobs) untouched. Real blob counts
/// are nowhere near 2³¹, so the bit is unambiguous.
const LOCAL_BLOB_MARK: u32 = 1 << 31;

/// One pre-drawn instrumentation action: everything RNG-dependent (salt,
/// marker, payload spec) is fixed by the serial plan prologue, so arming is
/// pure computation that can run on any thread.
struct PreparedAction {
    action: Action,
    salt: Vec<u8>,
    spec: PayloadSpec,
}

enum Action {
    Existing(PlannedExisting),
    Bogus(PlannedExisting),
    Artificial(PlannedArtificial),
}

impl Action {
    fn position(&self) -> usize {
        match self {
            Action::Existing(p) | Action::Bogus(p) => p.anchor,
            Action::Artificial(p) => p.at,
        }
    }
    fn method(&self) -> &MethodRef {
        match self {
            Action::Existing(p) | Action::Bogus(p) => &p.site.method,
            Action::Artificial(p) => &p.method,
        }
    }
}

/// Result of arming one method: its sealed blobs — ids carry
/// [`LOCAL_BLOB_MARK`] — the bomb records, and how many sites were skipped.
struct MethodOutcome {
    class_idx: usize,
    method_idx: usize,
    blobs: Vec<EncryptedBlob>,
    bombs: Vec<BombInfo>,
    skipped: usize,
}

/// Arms all prepared actions of one method into a local blob vector. Pure:
/// consumes only pre-drawn material, so the result is independent of which
/// thread runs it.
fn arm_method(
    weave_original: bool,
    class_idx: usize,
    method_idx: usize,
    method: &mut Method,
    prepared: Vec<PreparedAction>,
) -> MethodOutcome {
    let mref = method.method_ref();
    let mut sealed = SealedBlobs::new(LOCAL_BLOB_MARK);
    let mut bombs = Vec::new();
    let mut skipped = 0usize;
    for PreparedAction { action, salt, spec } in prepared {
        debug_assert_eq!(action.method(), &mref);
        match action {
            Action::Existing(p) => {
                match arm_existing(method, &mut sealed, &p, &spec, &salt, weave_original) {
                    Ok(blob) => bombs.push(BombInfo {
                        marker: spec.marker,
                        kind: BombKind::ExistingQc,
                        method: mref.clone(),
                        strength: p.site.strength(),
                        inner: spec.inner.as_ref().map(|i| (i.describe(), i.probability())),
                        detection: spec.detection.as_ref().map(|(k, _)| k.tag()),
                        blob,
                    }),
                    Err(_) => skipped += 1,
                }
            }
            Action::Bogus(p) => match arm_existing(method, &mut sealed, &p, &spec, &salt, true) {
                Ok(blob) => bombs.push(BombInfo {
                    marker: None,
                    kind: BombKind::Bogus,
                    method: mref.clone(),
                    strength: p.site.strength(),
                    inner: None,
                    detection: None,
                    blob,
                }),
                Err(_) => skipped += 1,
            },
            Action::Artificial(p) => {
                let strength = match &p.constant {
                    Value::Bool(_) => Strength::Weak,
                    Value::Int(_) => Strength::Medium,
                    _ => Strength::Strong,
                };
                match arm_artificial(method, &mut sealed, &p, &spec, &salt) {
                    Ok(blob) => bombs.push(BombInfo {
                        marker: spec.marker,
                        kind: BombKind::ArtificialQc,
                        method: mref.clone(),
                        strength,
                        inner: spec.inner.as_ref().map(|i| (i.describe(), i.probability())),
                        detection: spec.detection.as_ref().map(|(k, _)| k.tag()),
                        blob,
                    }),
                    Err(_) => skipped += 1,
                }
            }
        }
    }
    MethodOutcome {
        class_idx,
        method_idx,
        blobs: sealed.into_vec(),
        bombs,
        skipped,
    }
}

/// The BombDroid protector.
#[derive(Debug, Clone, Default)]
pub struct Protector {
    config: ProtectConfig,
    threads: Option<usize>,
}

impl Protector {
    /// Creates a protector with the given configuration.
    pub fn new(config: ProtectConfig) -> Self {
        Protector {
            config,
            threads: None,
        }
    }

    /// Pins the instrumentation worker count (output is bit-identical for
    /// any value; this only affects wall-clock). Without a pin, the count
    /// comes from `BOMBDROID_THREADS`, falling back to the CPU count — or
    /// to `1` when already running inside a fleet task, which would
    /// otherwise oversubscribe the machine.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ProtectConfig {
        &self.config
    }

    fn resolve_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n;
        }
        if fleet::in_worker() {
            return 1;
        }
        if let Ok(v) = std::env::var("BOMBDROID_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Protects `apk`, returning the instrumented (unsigned) app and a
    /// report.
    ///
    /// # Errors
    ///
    /// * [`ProtectError::Install`] if the input APK's signature does not
    ///   verify;
    /// * [`ProtectError::EntryDomains`] if an entry point declares a
    ///   parameter domain no event can be drawn from;
    /// * [`ProtectError::Validate`] if instrumentation produced invalid
    ///   bytecode (internal invariant).
    pub fn protect(&self, apk: &ApkFile, rng: &mut StdRng) -> Result<ProtectedApp, ProtectError> {
        let _protect_span = obs::span("pipeline.protect");
        let config = &self.config;
        // Step 1–2: unpack, extract the public key, profile, plan sites.
        let profile = profile_app(apk, config, rng.gen())?;
        let mut dex = (*apk.dex).clone();
        let plan = {
            let _span = obs::span("pipeline.plan");
            sites::plan(&apk.dex, &profile, config, rng)
        };

        // Detection pool + steganographic resource strings.
        let mut strings = apk.strings.clone();
        let detections = {
            let _span = obs::span("pipeline.detections");
            self.build_detections(apk, &plan, &mut strings)
        };

        // Step 3–4: instrument, encrypt — in two phases. Group actions per
        // method, applied top-down (descending position) so indices stay
        // valid.
        let mut by_method: BTreeMap<MethodRef, Vec<Action>> = BTreeMap::new();
        for p in plan.existing.iter().cloned() {
            by_method
                .entry(p.site.method.clone())
                .or_default()
                .push(Action::Existing(p));
        }
        for p in plan.bogus.iter().cloned() {
            by_method
                .entry(p.site.method.clone())
                .or_default()
                .push(Action::Bogus(p));
        }
        for p in plan.artificial.iter().cloned() {
            by_method
                .entry(p.method.clone())
                .or_default()
                .push(Action::Artificial(p));
        }

        let mut report = ProtectReport {
            existing_qc_found: plan.existing_qc_found,
            candidate_methods: plan.candidate_methods,
            hot_methods: plan.hot_methods,
            skipped_sites: plan.skipped_sites,
            original_dex_size: apk.dex_size(),
            ..ProtectReport::default()
        };

        let instrument_span = obs::span("pipeline.instrument");
        let prologue_span = obs::span("pipeline.instrument.prologue");

        // Phase 1 — serial plan prologue. Walk methods in dex order (the
        // order the old single-pass loop armed them in) and pre-draw every
        // RNG-dependent ingredient: salt, then marker/payload spec per
        // action. This consumes `rng` in exactly the serial order, so the
        // fan-out below cannot perturb the stream no matter how it is
        // scheduled.
        let mut next_marker: u32 = 0;
        let mut payload_counter: usize = 0;
        let mut planned_methods: Vec<(usize, usize, Vec<PreparedAction>)> = Vec::new();
        for (ci, class) in dex.classes.iter().enumerate() {
            for (mi, method) in class.methods.iter().enumerate() {
                let mref = method.method_ref();
                let Some(mut actions) = by_method.remove(&mref) else {
                    continue;
                };
                actions.sort_by_key(|a| std::cmp::Reverse(a.position()));
                let prepared = actions
                    .into_iter()
                    .map(|action| {
                        let mut salt = vec![0u8; 8];
                        rng.fill(&mut salt[..]);
                        let spec = match &action {
                            Action::Existing(_) | Action::Artificial(_) => self.real_payload_spec(
                                &detections,
                                &mut next_marker,
                                &mut payload_counter,
                                rng,
                            ),
                            Action::Bogus(_) => PayloadSpec {
                                marker: None,
                                inner: None,
                                detection: None,
                                warn_message: String::new(),
                                mute_others: false,
                            },
                        };
                        PreparedAction { action, salt, spec }
                    })
                    .collect();
                planned_methods.push((ci, mi, prepared));
            }
        }

        prologue_span.end();
        let arm_span = obs::span("pipeline.instrument.arm");

        // Phase 2 — fan per-method arming over the fleet pool. Methods are
        // disjoint, so each task gets `&mut` access to its own method and
        // seals blobs into a task-local vector under LOCAL_BLOB_MARK ids.
        let threads = self.resolve_threads();
        let DexFile { classes, blobs, .. } = &mut dex;
        let outcomes = {
            let mut planned_iter = planned_methods.into_iter().peekable();
            let mut tasks: Vec<(usize, usize, &mut Method, Vec<PreparedAction>)> = Vec::new();
            for (ci, class) in classes.iter_mut().enumerate() {
                for (mi, method) in class.methods.iter_mut().enumerate() {
                    if planned_iter.peek().map(|(pci, pmi, _)| (*pci, *pmi)) == Some((ci, mi)) {
                        let (_, _, prepared) = planned_iter.next().expect("peeked entry");
                        tasks.push((ci, mi, method, prepared));
                    }
                }
            }
            let weave = config.weave_original;
            fleet::run_map(threads, tasks, |(ci, mi, method, prepared)| {
                arm_method(weave, ci, mi, method, prepared)
            })
        };

        // Merge in task (= dex) order: relocate each method's marked blob
        // ids onto the end of the dex blob table and append its blobs and
        // bombs. Arming every method on one thread seals in exactly this
        // order, so ids, blob order, and report order are bit-identical for
        // any thread count.
        for outcome in outcomes {
            let base = blobs.len() as u32;
            let method = &mut classes[outcome.class_idx].methods[outcome.method_idx];
            for instr in &mut method.body {
                if let Instr::DecryptExec { blob, .. } = instr {
                    if blob.0 & LOCAL_BLOB_MARK != 0 {
                        blob.0 = base + (blob.0 & !LOCAL_BLOB_MARK);
                    }
                }
            }
            for mut bomb in outcome.bombs {
                bomb.blob.0 = base + (bomb.blob.0 & !LOCAL_BLOB_MARK);
                report.bombs.push(bomb);
            }
            blobs.extend(outcome.blobs);
            report.skipped_sites += outcome.skipped;
        }

        arm_span.end();
        instrument_span.end();

        {
            let _span = obs::span("pipeline.validate");
            bombdroid_dex::validate(&dex).map_err(ProtectError::Validate)?;
            report.protected_dex_size = wire::encoded_dex_len(&dex);
        }

        let count_kind =
            |kind: BombKind| report.bombs.iter().filter(|b| b.kind == kind).count() as u64;
        obs::counter_add("pipeline.apps_protected", 1);
        obs::counter_add("pipeline.bombs.existing", count_kind(BombKind::ExistingQc));
        obs::counter_add(
            "pipeline.bombs.artificial",
            count_kind(BombKind::ArtificialQc),
        );
        obs::counter_add("pipeline.bombs.bogus", count_kind(BombKind::Bogus));
        obs::counter_add("pipeline.sites_skipped", report.skipped_sites as u64);
        obs::record("pipeline.bombs_per_app", report.bombs.len() as u64);
        obs::record(
            "pipeline.dex_growth_bytes",
            report
                .protected_dex_size
                .saturating_sub(report.original_dex_size) as u64,
        );

        Ok(ProtectedApp {
            dex: Arc::new(dex),
            strings,
            meta: apk.meta.clone(),
            report,
        })
    }

    /// Builds the detection pool: public key, manifest digests of entries a
    /// repackager must change (icon, AndroidManifest), and code scans of
    /// classes the plan leaves untouched. Hides expected digests in
    /// `strings.xml` covers.
    fn build_detections(
        &self,
        apk: &ApkFile,
        plan: &sites::SitePlan,
        strings: &mut StringsXml,
    ) -> Vec<DetectionKind> {
        let mut detections = Vec::new();
        let mut stego_n = 0usize;
        let mut hide = |strings: &mut StringsXml, payload: &[u8]| -> String {
            let key = format!("cfg_token_{stego_n}");
            stego_n += 1;
            strings.set(key.clone(), stego::embed(payload));
            key
        };
        if self.config.detection.public_key {
            detections.push(DetectionKind::PublicKey {
                original: apk.cert.public_key.to_bytes().to_vec(),
            });
        }
        if self.config.detection.digest {
            // Only the icon and AndroidManifest digests are planted;
            // computing them per entry skips the full-DEX hash a complete
            // manifest would redo (install already hashed it once).
            for e in [entry::ICON, entry::ANDROID_MANIFEST] {
                if let Some(d) = apk.entry_digest(e) {
                    let key = hide(strings, &d);
                    detections.push(DetectionKind::ManifestDigest {
                        entry: e.to_string(),
                        stego_key: key,
                    });
                }
            }
        }
        if self.config.detection.code_scan {
            let touched: HashSet<&str> = plan
                .existing
                .iter()
                .chain(plan.bogus.iter())
                .map(|p| p.site.method.class.as_str())
                .chain(plan.artificial.iter().map(|p| p.method.class.as_str()))
                .collect();
            let mut scans = 0;
            for class in &apk.dex.classes {
                if touched.contains(class.name.as_str()) {
                    continue;
                }
                let digest = wire::class_digest(class);
                let key = hide(strings, &digest);
                detections.push(DetectionKind::CodeScan {
                    class: class.name.as_str().to_string(),
                    stego_key: key,
                });
                scans += 1;
                if scans >= 2 {
                    break;
                }
            }
        }
        detections
    }

    fn real_payload_spec(
        &self,
        detections: &[DetectionKind],
        next_marker: &mut u32,
        payload_counter: &mut usize,
        rng: &mut StdRng,
    ) -> PayloadSpec {
        let marker = *next_marker;
        *next_marker += 1;
        let detection = if detections.is_empty() {
            None
        } else {
            let kind = detections[*payload_counter % detections.len()].clone();
            let response = if self.config.responses.is_empty() {
                ResponseChoice::Kill
            } else {
                self.config.responses[*payload_counter % self.config.responses.len()]
            };
            Some((kind, response))
        };
        *payload_counter += 1;
        let inner_cond = self
            .config
            .double_trigger
            .then(|| inner::synthesize(rng, self.config.inner_probability));
        PayloadSpec {
            marker: Some(marker),
            inner: inner_cond,
            detection,
            warn_message: "unofficial copy detected".to_string(),
            mute_others: self.config.mute_after_detection,
        }
    }
}
