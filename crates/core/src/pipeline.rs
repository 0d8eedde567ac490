//! The end-to-end protection pipeline (paper Fig. 1).
//!
//! Unpack → profile (Dynodroid + Traceview roles) → static analysis and
//! site planning → bomb construction & bytecode instrumentation →
//! encryption → repackage unsigned output for the developer to sign.

use crate::bomb::{arm_artificial, arm_existing, PayloadSpec, SealedBlobs};
use crate::config::{ProtectConfig, ResponseChoice};
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
use bombdroid_dex::{wire, DexFile, MethodRef, Value};
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
}

/// The BombDroid protector.
#[derive(Debug, Clone, Default)]
pub struct Protector {
    config: ProtectConfig,
}

impl Protector {
    /// Creates a protector with the given configuration.
    pub fn new(config: ProtectConfig) -> Self {
        Protector { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ProtectConfig {
        &self.config
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

        // Step 3–4: instrument, encrypt. Group actions per method.
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

        // One pass in dex order: each method's actions top-down (descending
        // position) so indices stay valid. Each action draws its salt, then
        // its payload spec, and is armed at once; arming draws nothing, so
        // the RNG stream is fixed by the plan alone. Fragments are sealed as
        // they are armed, their ids counting on from the input's own blobs.
        let instrument_span = obs::span("pipeline.instrument");
        let mut sealed = SealedBlobs::new(dex.blobs.len() as u32);
        let mut real_payloads = 0usize;
        for method in dex.classes.iter_mut().flat_map(|c| c.methods.iter_mut()) {
            let mref = method.method_ref();
            let Some(mut actions) = by_method.remove(&mref) else {
                continue;
            };
            actions.sort_by_key(|a| std::cmp::Reverse(a.position()));
            for action in actions {
                let mut salt = [0u8; 8];
                rng.fill(&mut salt[..]);
                let (kind, strength, spec) = match &action {
                    Action::Existing(p) => (
                        BombKind::ExistingQc,
                        p.site.strength(),
                        self.real_payload_spec(&detections, &mut real_payloads, rng),
                    ),
                    Action::Bogus(p) => (
                        BombKind::Bogus,
                        p.site.strength(),
                        PayloadSpec {
                            marker: None,
                            inner: None,
                            detection: None,
                            warn_message: String::new(),
                            mute_others: false,
                        },
                    ),
                    Action::Artificial(p) => {
                        let strength = match &p.constant {
                            Value::Bool(_) => Strength::Weak,
                            Value::Int(_) => Strength::Medium,
                            _ => Strength::Strong,
                        };
                        let spec = self.real_payload_spec(&detections, &mut real_payloads, rng);
                        (BombKind::ArtificialQc, strength, spec)
                    }
                };
                let armed = match &action {
                    Action::Existing(p) => {
                        arm_existing(method, &mut sealed, p, &spec, &salt, config.weave_original)
                    }
                    Action::Bogus(p) => arm_existing(method, &mut sealed, p, &spec, &salt, true),
                    Action::Artificial(p) => arm_artificial(method, &mut sealed, p, &spec, &salt),
                };
                match armed {
                    Ok(blob) => report.bombs.push(BombInfo {
                        marker: spec.marker,
                        kind,
                        method: mref.clone(),
                        strength,
                        inner: spec.inner.as_ref().map(|i| (i.describe(), i.probability())),
                        detection: spec.detection.as_ref().map(|(k, _)| k.tag()),
                        blob,
                    }),
                    Err(_) => report.skipped_sites += 1,
                }
            }
        }
        dex.blobs.extend(sealed.into_vec());
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

    /// The next real bomb's payload. `drawn` counts the real payloads
    /// drawn so far, armed or skipped; it numbers the marker and picks the
    /// detection and the response round-robin.
    fn real_payload_spec(
        &self,
        detections: &[DetectionKind],
        drawn: &mut usize,
        rng: &mut StdRng,
    ) -> PayloadSpec {
        let index = *drawn;
        *drawn += 1;
        let detection = if detections.is_empty() {
            None
        } else {
            let kind = detections[index % detections.len()].clone();
            let response = if self.config.responses.is_empty() {
                ResponseChoice::Kill
            } else {
                self.config.responses[index % self.config.responses.len()]
            };
            Some((kind, response))
        };
        let inner_cond = self
            .config
            .double_trigger
            .then(|| inner::synthesize(rng, self.config.inner_probability));
        PayloadSpec {
            marker: Some(index as u32),
            inner: inner_cond,
            detection,
            warn_message: "unofficial copy detected".to_string(),
            mute_others: self.config.mute_after_detection,
        }
    }
}
