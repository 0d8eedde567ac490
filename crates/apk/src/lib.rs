//! APK packaging substrate: container, manifest digests, certificates,
//! signing, resources, and steganography.
//!
//! Mirrors the pieces of the Android packaging pipeline BombDroid touches
//! (paper §2.1 *Background* and §2.3 *Architecture*):
//!
//! * every APK carries a `CERT.RSA` with the developer's public key and a
//!   `MANIFEST.MF` with per-entry digests;
//! * the Android system verifies the signature at install time and then
//!   *owns* the certificate — app code cannot modify it;
//! * a repackaged app is necessarily re-signed with the attacker's key, so
//!   its public key differs from the original — the basis of public-key
//!   comparison detection;
//! * `strings.xml` string resources can smuggle steganographic payloads
//!   (the expected digest `Do` for digest-comparison detection, §4.1).
//!
//! The signature scheme is a deliberately small textbook RSA over 64-bit
//! moduli ([`rsa`]) — cryptographic strength is irrelevant to the
//! reproduction (nothing attacks RSA); only the *binding* semantics matter:
//! distinct developers have distinct keypairs, and re-signing changes the
//! public key.
//!
//! # Example: the repackaging attack this whole system detects
//!
//! ```
//! use bombdroid_apk::{package_app, repackage, AppMeta, DeveloperKey, StringsXml};
//! use bombdroid_dex::DexFile;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let dev = DeveloperKey::generate(&mut rng);
//! let apk = package_app(&DexFile::new(), StringsXml::new(), AppMeta::named("demo"), &dev);
//!
//! let pirate = DeveloperKey::generate(&mut rng);
//! let repack = repackage(&apk, &pirate, |dex| { let _ = dex; });
//! assert_ne!(apk.cert.public_key, repack.cert.public_key);
//! assert!(repack.verify().is_ok(), "repackaged app still verifies under pirate's key");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod manifest;
pub mod resources;
pub mod rsa;
pub mod stego;

pub use container::{
    package_app, package_shared, repackage, ApkFile, AppMeta, Certificate, VerifyError,
};
pub use manifest::Manifest;
pub use resources::StringsXml;
pub use rsa::{DeveloperKey, PublicKey};
