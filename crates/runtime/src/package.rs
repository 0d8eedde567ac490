//! Installed packages: what the Android system snapshots at install time.
//!
//! Once installed, the certificate and manifest "cannot be modified by app
//! processes" (paper §2.1, §4.1) — so detection payloads query *this*
//! structure, not the APK the attacker ships.

use crate::decode::DecodedProgram;
use crate::driver::UserEventTable;
use bombdroid_apk::{ApkFile, VerifyError};
use bombdroid_crypto::Digest256;
use bombdroid_dex::{wire, DexFile, MethodRef};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// A package as installed on a device.
#[derive(Debug, Clone)]
pub struct InstalledPackage {
    /// The app's code, as installed. Shared with the source [`ApkFile`]
    /// (installation never copies the bytecode).
    pub dex: Arc<DexFile>,
    /// Public key bytes from the verified certificate (`Kr` in §4.1).
    /// Like the digests and resources below, shared so the VM's host
    /// calls hand it to the app without copying it.
    pub cert_public_key: Arc<[u8]>,
    /// `MANIFEST.MF` digests, system-managed.
    pub manifest_digests: BTreeMap<String, Arc<Digest256>>,
    /// Per-class code digests of the installed bytecode, computed on first
    /// query (the system hashes lazily; most installs never scan code).
    class_digests: OnceLock<BTreeMap<String, Arc<Digest256>>>,
    /// `MethodRef -> (class index, method index)` dispatch table, built on
    /// first query and shared by every VM booting this package.
    method_index: OnceLock<HashMap<MethodRef, (usize, usize)>>,
    /// Pre-decoded execution program (flat `DecodedOp` bodies), built on
    /// first use and shared by every session and fork of this package.
    decoded: OnceLock<Arc<DecodedProgram>>,
    /// Entry weights and parameter favourites for user sessions, built on
    /// first use and shared by every session and fork of this package.
    user_events: OnceLock<Arc<UserEventTable>>,
    /// String resources (`strings.xml`), readable by the app.
    pub resources: BTreeMap<String, Arc<str>>,
    /// Package name.
    pub package_name: String,
}

impl InstalledPackage {
    /// Installs an APK: verifies the signature (the system rejects
    /// unsigned/tampered APKs), then snapshots certificate and manifest
    /// digests. Per-class code digests are materialized lazily on first
    /// [`class_digest`](Self::class_digest) query.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when the APK's signature does not verify —
    /// such an APK never reaches a device.
    pub fn install(apk: &ApkFile) -> Result<Self, VerifyError> {
        // One manifest computation serves both the signature check and the
        // digest snapshot.
        let manifest = apk.manifest();
        apk.verify_with(&manifest)?;
        let manifest_digests = manifest
            .iter()
            .map(|(name, digest)| (name.to_string(), Arc::new(*digest)))
            .collect();
        let resources = apk
            .strings
            .iter()
            .map(|(k, v)| (k.to_string(), Arc::from(v)))
            .collect();
        Ok(InstalledPackage {
            dex: Arc::clone(&apk.dex),
            cert_public_key: Arc::from(apk.cert.public_key.to_bytes().as_slice()),
            manifest_digests,
            class_digests: OnceLock::new(),
            method_index: OnceLock::new(),
            decoded: OnceLock::new(),
            user_events: OnceLock::new(),
            resources,
            package_name: apk.meta.package.clone(),
        })
    }

    /// Per-class code digests of the installed bytecode (for code-snippet
    /// scanning), computed once on first access.
    pub fn class_digests(&self) -> &BTreeMap<String, Arc<Digest256>> {
        self.class_digests.get_or_init(|| {
            self.dex
                .classes
                .iter()
                .map(|c| (c.name.as_str().to_string(), Arc::new(wire::class_digest(c))))
                .collect()
        })
    }

    /// The installed code digest of one class, if it exists.
    pub fn class_digest(&self, class: &str) -> Option<&Digest256> {
        self.class_digests().get(class).map(|d| &**d)
    }

    /// O(1) method lookup, resolving exactly like the linear
    /// [`DexFile::method`] scan: a duplicate class name shadows later
    /// declarations entirely; within a class the first method of a name
    /// wins. Built once, shared by every VM booting this package.
    pub fn resolve_method(&self, mref: &MethodRef) -> Option<(usize, usize)> {
        let index = self.method_index.get_or_init(|| {
            let mut index = HashMap::new();
            let mut seen_classes = HashSet::new();
            for (ci, class) in self.dex.classes.iter().enumerate() {
                if !seen_classes.insert(class.name.clone()) {
                    continue;
                }
                for (mi, method) in class.methods.iter().enumerate() {
                    index.entry(method.method_ref()).or_insert((ci, mi));
                }
            }
            index
        });
        index.get(mref).copied()
    }

    /// The package's pre-decoded program, lowered once on first access and
    /// shared (method bodies themselves decode lazily inside it). It lives
    /// as long as the package, not as long as the dex: a protected app's dex
    /// can sit in a protection cache long after its last install is gone.
    pub(crate) fn decoded_program(&self) -> &Arc<DecodedProgram> {
        self.decoded
            .get_or_init(|| Arc::new(DecodedProgram::build(self)))
    }

    /// The package's user-event table (see [`crate::UserEventSource`]),
    /// built on first use.
    pub(crate) fn user_event_table(&self) -> &Arc<UserEventTable> {
        self.user_events
            .get_or_init(|| Arc::new(UserEventTable::build(&self.dex)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_apk::{package_app, repackage, AppMeta, DeveloperKey, StringsXml};
    use bombdroid_dex::{Class, MethodBuilder};
    use rand::{rngs::StdRng, SeedableRng};

    fn dex() -> DexFile {
        let mut dex = DexFile::new();
        let mut c = Class::new("Main");
        let mut b = MethodBuilder::new("Main", "run", 0);
        b.ret_void();
        c.methods.push(b.finish());
        dex.classes.push(c);
        dex
    }

    #[test]
    fn install_snapshots_cert_and_digests() {
        let mut rng = StdRng::seed_from_u64(5);
        let dev = DeveloperKey::generate(&mut rng);
        let mut strings = StringsXml::new();
        strings.set("app_name", "demo");
        let apk = package_app(&dex(), strings, AppMeta::named("demo"), &dev);
        let pkg = InstalledPackage::install(&apk).unwrap();
        assert_eq!(*pkg.cert_public_key, dev.public.to_bytes());
        assert!(pkg.manifest_digests.contains_key("classes.dex"));
        assert!(pkg.class_digests().contains_key("Main"));
        assert_eq!(pkg.resources.get("app_name").map(|s| &**s), Some("demo"));
    }

    #[test]
    fn lazy_class_digests_match_eager_computation() {
        let mut rng = StdRng::seed_from_u64(5);
        let dev = DeveloperKey::generate(&mut rng);
        let apk = package_app(&dex(), StringsXml::new(), AppMeta::named("demo"), &dev);
        let pkg = InstalledPackage::install(&apk).unwrap();
        let expected = wire::class_digest(&apk.dex.classes[0]);
        assert_eq!(pkg.class_digest("Main"), Some(&expected));
        assert_eq!(pkg.class_digest("NoSuchClass"), None);
        // A clone taken before first access computes the same digests.
        let clone = pkg.clone();
        assert_eq!(clone.class_digest("Main"), Some(&expected));
    }

    #[test]
    fn a_live_dex_alone_does_not_pin_its_program() {
        let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(7));
        let apk = package_app(&dex(), StringsXml::new(), AppMeta::named("a"), &dev);
        let pkg = InstalledPackage::install(&apk).unwrap();
        // The program goes with its package, although the dex lives on.
        let weak = Arc::downgrade(pkg.decoded_program());
        drop(pkg);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn repackaged_app_installs_with_different_key() {
        let mut rng = StdRng::seed_from_u64(6);
        let dev = DeveloperKey::generate(&mut rng);
        let pirate = DeveloperKey::generate(&mut rng);
        let apk = package_app(&dex(), StringsXml::new(), AppMeta::named("demo"), &dev);
        let repack = repackage(&apk, &pirate, |_| {});
        let original = InstalledPackage::install(&apk).unwrap();
        let pirated = InstalledPackage::install(&repack).unwrap();
        assert_ne!(original.cert_public_key, pirated.cert_public_key);
    }

    #[test]
    fn tampered_apk_rejected_at_install() {
        let mut rng = StdRng::seed_from_u64(7);
        let dev = DeveloperKey::generate(&mut rng);
        let mut apk = package_app(&dex(), StringsXml::new(), AppMeta::named("demo"), &dev);
        apk.meta.author = "pirate".into(); // modified without re-signing
        assert!(InstalledPackage::install(&apk).is_err());
    }
}
