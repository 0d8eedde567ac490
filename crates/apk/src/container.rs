//! The APK container: entries, certificate, signature, packaging and
//! repackaging.

use crate::manifest::Manifest;
use crate::resources::StringsXml;
use crate::rsa::{DeveloperKey, PublicKey};
use bombdroid_crypto::{sha256, Digest256};
use bombdroid_dex::{wire, DexFile};
use std::fmt;
use std::sync::{Arc, Mutex, Weak};

/// App identity metadata (the `AndroidManifest.xml` analogue). Repackagers
/// typically replace `author` and the icon while keeping the code
/// (paper §1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppMeta {
    /// Package name, e.g. `org.fdroid.androfish`.
    pub package: String,
    /// Display name.
    pub label: String,
    /// Author / publisher string.
    pub author: String,
    /// Version code.
    pub version: u32,
}

impl AppMeta {
    /// Convenience constructor with defaults derived from `name`.
    pub fn named(name: &str) -> Self {
        AppMeta {
            package: format!("org.fdroid.{}", name.to_lowercase().replace(' ', "")),
            label: name.to_string(),
            author: "original developer".to_string(),
            version: 1,
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        format!(
            "package={}\nlabel={}\nauthor={}\nversion={}\n",
            self.package, self.label, self.author, self.version
        )
        .into_bytes()
    }
}

/// The `CERT.RSA` analogue: the signer's public key plus owner string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Public key of whoever signed this APK.
    pub public_key: PublicKey,
    /// Declared owner (informational only — *not* trusted).
    pub owner: String,
}

/// Why signature verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The signature does not match the manifest under the cert's key.
    BadSignature,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadSignature => write!(f, "APK signature does not verify"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// A complete (signed) APK.
#[derive(Debug, Clone, PartialEq)]
pub struct ApkFile {
    /// App identity.
    pub meta: AppMeta,
    /// Code. Shared behind an [`Arc`] so installs and VM boots never copy
    /// the bytecode; mutation (tampering, instrumentation) clones it out
    /// first, as a real repackager unpacks `classes.dex`.
    pub dex: Arc<DexFile>,
    /// String resources.
    pub strings: StringsXml,
    /// Launcher icon bytes.
    pub icon: Vec<u8>,
    /// Signer certificate.
    pub cert: Certificate,
    /// Signature over the canonical manifest bytes.
    pub signature: u64,
}

/// Process-wide `classes.dex` digest cache, keyed by `Arc<DexFile>`
/// identity. Hashing the DEX dominates manifest computation (hundreds of
/// KB per app), and the same immutable `Arc` is re-hashed on every
/// install/verify of an unchanged APK — a protection service installs each
/// original APK once per protect pass. Nothing in the workspace mutates a
/// `DexFile` through its `Arc` (mutation always clones out first, yielding
/// a fresh allocation), so identity implies identical bytes; the stored
/// [`Weak`] guards against address reuse exactly like the core's site-scan
/// registry.
static DEX_DIGESTS: Mutex<Vec<(Weak<DexFile>, Digest256, usize)>> = Mutex::new(Vec::new());

/// Most dexes the cache indexes. When full, the oldest entry goes: a
/// protection cache can keep hundreds of protected dexes alive, and the
/// next install must still find its own.
const DEX_DIGESTS_CAP: usize = 256;

fn cached_dex_meta(dex: &Arc<DexFile>) -> (Digest256, usize) {
    let mut reg = DEX_DIGESTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    reg.retain(|(weak, _, _)| weak.strong_count() > 0);
    for (weak, digest, len) in reg.iter() {
        if let Some(live) = weak.upgrade() {
            if Arc::ptr_eq(&live, dex) {
                return (*digest, *len);
            }
        }
    }
    // One encoding serves both: hashing the contiguous bytes is faster
    // than streaming the writers' many small pieces through the hasher.
    let bytes = wire::encode_dex(dex);
    let meta = (sha256::digest(&bytes), bytes.len());
    if reg.len() == DEX_DIGESTS_CAP {
        reg.remove(0);
    }
    reg.push((Arc::downgrade(dex), meta.0, meta.1));
    meta
}

/// Fixed entry names, mirroring a real APK's layout.
pub mod entry {
    /// The DEX bytecode entry.
    pub const CLASSES_DEX: &str = "classes.dex";
    /// String resources.
    pub const STRINGS_XML: &str = "res/strings.xml";
    /// Launcher icon.
    pub const ICON: &str = "res/icon.png";
    /// App metadata.
    pub const ANDROID_MANIFEST: &str = "AndroidManifest.xml";
}

impl ApkFile {
    /// Canonical `(name, bytes)` entries, in manifest order.
    pub fn entries(&self) -> Vec<(&'static str, Vec<u8>)> {
        vec![
            (entry::ANDROID_MANIFEST, self.meta.to_bytes()),
            (entry::CLASSES_DEX, wire::encode_dex(&self.dex)),
            (entry::ICON, self.icon.clone()),
            (entry::STRINGS_XML, self.strings.to_bytes()),
        ]
    }

    /// Computes the `MANIFEST.MF` for the current contents. The DEX
    /// entry's digest is computed once per `Arc<DexFile>` allocation.
    pub fn manifest(&self) -> Manifest {
        let mut m = Manifest::new();
        m.insert(
            entry::ANDROID_MANIFEST,
            sha256::digest(&self.meta.to_bytes()),
        );
        m.insert(entry::CLASSES_DEX, cached_dex_meta(&self.dex).0);
        m.insert(entry::ICON, sha256::digest(&self.icon));
        m.insert(entry::STRINGS_XML, sha256::digest(&self.strings.to_bytes()));
        m
    }

    /// Digest of a single named entry, without touching the others —
    /// detection planting needs only the icon and `AndroidManifest.xml`
    /// digests, and computing them must not drag in a full-DEX hash.
    pub fn entry_digest(&self, name: &str) -> Option<bombdroid_crypto::Digest256> {
        match name {
            entry::ANDROID_MANIFEST => Some(sha256::digest(&self.meta.to_bytes())),
            entry::CLASSES_DEX => Some(cached_dex_meta(&self.dex).0),
            entry::ICON => Some(sha256::digest(&self.icon)),
            entry::STRINGS_XML => Some(sha256::digest(&self.strings.to_bytes())),
            _ => None,
        }
    }

    /// Content digest of the whole APK: SHA-256 over the canonical
    /// manifest bytes. Two APKs share a content digest iff every entry's
    /// bytes match, which makes this the app key for content-addressed
    /// protection caching (the signing key does not participate — the
    /// protect pipeline never reads it).
    pub fn content_digest(&self) -> bombdroid_crypto::Digest256 {
        sha256::digest(&self.manifest().to_bytes())
    }

    /// Verifies the stored signature against the current contents — what
    /// the Android system does at install time.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadSignature`] when contents were modified without
    /// re-signing, or the signature was produced by a different key.
    pub fn verify(&self) -> Result<(), VerifyError> {
        self.verify_with(&self.manifest())
    }

    /// [`verify`](Self::verify) against an already-computed manifest, for
    /// callers that also need the manifest itself (installation computes it
    /// once and uses it for both the signature check and the digest
    /// snapshot).
    ///
    /// # Errors
    ///
    /// Same as [`verify`](Self::verify).
    pub fn verify_with(&self, manifest: &Manifest) -> Result<(), VerifyError> {
        if self
            .cert
            .public_key
            .verify(&manifest.to_bytes(), self.signature)
        {
            Ok(())
        } else {
            Err(VerifyError::BadSignature)
        }
    }

    /// Total byte size across entries — the paper's *code size* metric
    /// (§8.4 measures the protected/original size ratio).
    pub fn total_size(&self) -> usize {
        self.entries().iter().map(|(_, b)| b.len()).sum()
    }

    /// Size of the `classes.dex` entry alone. Served from the same
    /// identity-keyed cache as the manifest digest: the encoded length of
    /// an immutable `Arc<DexFile>` never changes, so repeated protections
    /// of one APK measure it once.
    pub fn dex_size(&self) -> usize {
        cached_dex_meta(&self.dex).1
    }

    /// Re-signs the APK in place with `key` (after content mutation).
    pub fn resign(&mut self, key: &DeveloperKey, owner: &str) {
        self.cert = Certificate {
            public_key: key.public,
            owner: owner.to_string(),
        };
        self.signature = key.sign(&self.manifest().to_bytes());
    }
}

/// Packages an app and signs it with the developer's key (the final
/// *Packaging* step of the paper's Fig. 1 pipeline). Copies `dex` into
/// the package; [`package_shared`] takes one already behind an [`Arc`].
pub fn package_app(
    dex: &DexFile,
    strings: StringsXml,
    meta: AppMeta,
    key: &DeveloperKey,
) -> ApkFile {
    package_shared(Arc::new(dex.clone()), strings, meta, key)
}

/// [`package_app`] for a dex the caller already shares: the package holds
/// that same allocation, so signing copies no bytecode.
pub fn package_shared(
    dex: Arc<DexFile>,
    strings: StringsXml,
    meta: AppMeta,
    key: &DeveloperKey,
) -> ApkFile {
    // Synthesize icon bytes from the label so every app has a distinct icon.
    let icon = sha256::digest(meta.label.as_bytes()).to_vec();
    let owner = meta.author.clone();
    let mut apk = ApkFile {
        meta,
        dex,
        strings,
        icon,
        cert: Certificate {
            public_key: key.public,
            owner,
        },
        signature: 0,
    };
    apk.signature = key.sign(&apk.manifest().to_bytes());
    apk
}

/// Repackages an APK as a pirate would: unpack, tamper with the code,
/// replace author/icon, re-sign with the attacker's key (paper §1).
///
/// `tamper` receives the unpacked [`DexFile`]; pass a no-op closure for a
/// pure "resell under my name" repackaging.
pub fn repackage(
    original: &ApkFile,
    attacker_key: &DeveloperKey,
    tamper: impl FnOnce(&mut DexFile),
) -> ApkFile {
    let mut dex = (*original.dex).clone();
    tamper(&mut dex);
    let mut meta = original.meta.clone();
    meta.author = "repackager".to_string();
    let icon = sha256::digest(b"pirate icon").to_vec();
    let mut apk = ApkFile {
        meta,
        dex: Arc::new(dex),
        strings: original.strings.clone(),
        icon,
        cert: Certificate {
            public_key: attacker_key.public,
            owner: "repackager".to_string(),
        },
        signature: 0,
    };
    apk.signature = attacker_key.sign(&apk.manifest().to_bytes());
    apk
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_dex::{Class, MethodBuilder};
    use rand::{rngs::StdRng, SeedableRng};

    fn small_dex() -> DexFile {
        let mut dex = DexFile::new();
        let mut c = Class::new("Main");
        let mut b = MethodBuilder::new("Main", "run", 0);
        b.host_log("hello");
        b.ret_void();
        c.methods.push(b.finish());
        dex.classes.push(c);
        dex
    }

    fn keys() -> (DeveloperKey, DeveloperKey) {
        let mut rng = StdRng::seed_from_u64(11);
        (
            DeveloperKey::generate(&mut rng),
            DeveloperKey::generate(&mut rng),
        )
    }

    #[test]
    fn package_verifies() {
        let (dev, _) = keys();
        let apk = package_app(&small_dex(), StringsXml::new(), AppMeta::named("app"), &dev);
        assert!(apk.verify().is_ok());
        assert!(apk.total_size() > 0);
    }

    #[test]
    fn tampering_without_resign_fails_verification() {
        let (dev, _) = keys();
        let mut apk = package_app(&small_dex(), StringsXml::new(), AppMeta::named("app"), &dev);
        apk.meta.author = "someone else".into();
        assert_eq!(apk.verify(), Err(VerifyError::BadSignature));
    }

    #[test]
    fn repackage_changes_key_but_verifies() {
        let (dev, pirate) = keys();
        let apk = package_app(&small_dex(), StringsXml::new(), AppMeta::named("app"), &dev);
        let repack = repackage(&apk, &pirate, |dex| {
            // Insert malicious-looking code, as real repackagers do.
            let m = &mut dex.classes[0].methods[0];
            m.body.insert(0, bombdroid_dex::Instr::Nop);
        });
        assert!(repack.verify().is_ok());
        assert_ne!(repack.cert.public_key, apk.cert.public_key);
        assert_ne!(
            repack.manifest().digest(entry::CLASSES_DEX),
            apk.manifest().digest(entry::CLASSES_DEX),
        );
    }

    #[test]
    fn resign_after_mutation_restores_verification() {
        let (dev, _) = keys();
        let mut apk = package_app(&small_dex(), StringsXml::new(), AppMeta::named("app"), &dev);
        apk.meta.version = 2;
        assert!(apk.verify().is_err());
        apk.resign(&dev, "original developer");
        assert!(apk.verify().is_ok());
    }

    #[test]
    fn manifest_covers_all_entries() {
        let (dev, _) = keys();
        let apk = package_app(&small_dex(), StringsXml::new(), AppMeta::named("app"), &dev);
        let m = apk.manifest();
        for name in [
            entry::ANDROID_MANIFEST,
            entry::CLASSES_DEX,
            entry::ICON,
            entry::STRINGS_XML,
        ] {
            assert!(m.digest(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn streamed_manifest_matches_materialized_entries() {
        let (dev, _) = keys();
        let apk = package_app(&small_dex(), StringsXml::new(), AppMeta::named("app"), &dev);
        let entries = apk.entries();
        let materialized = Manifest::compute(entries.iter().map(|(n, b)| (*n, b.as_slice())));
        assert_eq!(apk.manifest(), materialized);
        for (name, bytes) in &entries {
            assert_eq!(
                apk.entry_digest(name),
                Some(bombdroid_crypto::sha256::digest(bytes)),
                "entry {name}"
            );
        }
        assert_eq!(apk.entry_digest("no/such/entry"), None);
    }
}
