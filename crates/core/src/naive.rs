//! The naive logic-bomb strawman of paper Listing 2: detection payloads
//! guarded by *plain* conditions, with no hashing, no encryption, no
//! weaving.
//!
//! "a naive use of bombs will not work for our purpose" (§3.1) — this
//! protector exists so the attack suite can demonstrate exactly that:
//! symbolic execution solves `X == c` directly, forced execution and
//! slicing expose the payload, code instrumentation flips the branch, and
//! deletion is consequence-free.

use crate::config::{ProtectConfig, ResponseChoice};
use crate::fragment::FragmentBuilder;
use crate::payload::{emit_detection, DetectionKind};
use crate::profiling::profile_app;
use crate::report::{BombInfo, BombKind, ProtectReport};
use crate::rewrite::rewrite_region;
use crate::sites;
use bombdroid_apk::ApkFile;
use bombdroid_dex::{wire, BlobId, HostApi};
use rand::{rngs::StdRng, Rng};
use std::sync::Arc;

use crate::pipeline::ProtectError;
pub use crate::pipeline::ProtectedApp;

/// Protector that injects plaintext bombs at existing QC sites.
#[derive(Debug, Clone, Default)]
pub struct NaiveProtector {
    config: ProtectConfig,
}

impl NaiveProtector {
    /// Creates a naive protector (uses the same site-selection settings as
    /// the real one).
    pub fn new(config: ProtectConfig) -> Self {
        NaiveProtector { config }
    }

    /// Injects plaintext detection bombs into `apk`.
    ///
    /// # Errors
    ///
    /// Returns the profiling error: an unsigned input, or one whose entry
    /// points declare unusable parameter domains.
    pub fn protect(&self, apk: &ApkFile, rng: &mut StdRng) -> Result<ProtectedApp, ProtectError> {
        let profile = profile_app(apk, &self.config, rng.gen())?;
        let mut dex = (*apk.dex).clone();
        let plan = sites::plan(&apk.dex, &profile, &self.config, rng);
        let ko = apk.cert.public_key.to_bytes().to_vec();

        let mut report = ProtectReport {
            existing_qc_found: plan.existing_qc_found,
            candidate_methods: plan.candidate_methods,
            hot_methods: plan.hot_methods,
            original_dex_size: wire::encoded_dex_len(&apk.dex),
            ..ProtectReport::default()
        };

        let mut marker = 0u32;
        for planned in plan.existing.iter().chain(plan.bogus.iter()) {
            let Some(method) = dex.method_mut(&planned.site.method) else {
                continue;
            };
            // Payload in plaintext, inserted at the body entry of the
            // (unchanged) plain condition.
            let mut f = FragmentBuilder::new(method.registers);
            f.host(HostApi::Marker(marker), vec![], None);
            emit_detection(
                &mut f,
                &DetectionKind::PublicKey {
                    original: ko.clone(),
                },
                ResponseChoice::Kill,
                "pirated copy detected",
                false,
            );
            // `emit_detection` places every label it creates, so this only
            // fails if that invariant breaks — skip the site rather than
            // abort the whole protection.
            let Ok(payload) = f.finish() else {
                report.skipped_sites += 1;
                continue;
            };
            if rewrite_region(
                method,
                planned.site.body_entry,
                planned.site.body_entry,
                payload,
            )
            .is_err()
            {
                report.skipped_sites += 1;
                continue;
            }
            report.bombs.push(BombInfo {
                marker: Some(marker),
                kind: BombKind::ExistingQc,
                method: planned.site.method.clone(),
                strength: planned.site.strength(),
                inner: None,
                detection: Some("public-key"),
                blob: BlobId(u32::MAX), // no blob: plaintext payload
            });
            marker += 1;
        }

        report.protected_dex_size = wire::encoded_dex_len(&dex);
        Ok(ProtectedApp {
            dex: Arc::new(dex),
            strings: apk.strings.clone(),
            meta: apk.meta.clone(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_dex::Instr;
    use rand::SeedableRng;

    #[test]
    fn naive_bombs_are_visible_in_plaintext() {
        let mut rng = StdRng::seed_from_u64(1);
        let dev = bombdroid_apk::DeveloperKey::generate(&mut rng);
        let app = bombdroid_corpus::flagship::angulo();
        let apk = app.apk(&dev);
        let protector = NaiveProtector::new(ProtectConfig::fast_profile());
        let protected = protector.protect(&apk, &mut rng).unwrap();
        assert!(protected.report.bombs_injected() > 0);
        // The payload is greppable — unlike the real BombDroid output.
        let text = bombdroid_dex::asm::disasm_dex(&protected.dex);
        assert!(text.contains("Certificate.getPublicKey"));
        assert!(!protected
            .dex
            .methods()
            .flat_map(|m| m.body.iter())
            .any(|i| matches!(i, Instr::DecryptExec { .. })));
    }
}
