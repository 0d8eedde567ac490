//! From-scratch cryptographic primitives for BombDroid-rs.
//!
//! The CGO'18 paper uses "SHA-128" (i.e. SHA-1) for trigger-condition
//! obfuscation and AES-128 for payload encryption, with the encryption key
//! derived as `key = Hash(c | salt)` from the trigger constant `c`
//! (§7.4 of the paper). This crate implements those primitives — plus
//! SHA-256, a CTR stream mode, and an authenticated *sealed blob* format —
//! with no external dependencies, so that the rest of the workspace can rely
//! on real, standard algorithms:
//!
//! * [`sha1`] / [`sha256`] — FIPS 180-4 hash functions (test vectors
//!   included in the test suite). SHA-1 compresses on the x86 SHA
//!   extensions when the CPU has them.
//! * [`aes`] — FIPS 197 AES-128 block cipher and a CTR-mode keystream.
//! * [`kdf`] — the paper's `Hash(c|S)` 128-bit key derivation, and the
//!   per-condition hasher that checks a short value in one compression.
//! * [`blob`] — encrypt-then-MAC sealed blobs used to store encrypted bomb
//!   payloads inside app bytecode; opening with the wrong key fails
//!   (models "any attempts that try to decrypt the code with an incorrect
//!   key will fail").
//! * [`hex`] — hex encode/decode helpers used by the (dis)assembler.
//!
//! # Example
//!
//! ```
//! use bombdroid_crypto::{kdf, blob};
//!
//! // Derive the bomb key from the trigger constant and a per-bomb salt,
//! // exactly as the paper's `key = Hash(c | S)`.
//! let key = kdf::derive_key(b"0xfff000", b"bomb-salt-42");
//! let sealed = blob::seal(&key, b"repackaging detection payload");
//! assert_eq!(blob::open(&key, &sealed).unwrap(), b"repackaging detection payload");
//!
//! // A wrong key (attacker forcing the branch without knowing `c`) fails.
//! let wrong = kdf::derive_key(b"0xfff001", b"bomb-salt-42");
//! assert!(blob::open(&wrong, &sealed).is_err());
//! ```

// `deny`, not `forbid`: the call into the SHA-NI rounds after the CPU
// check in `sha1::compress` is the workspace's one `unsafe` block, and it
// carries the crate's only `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod blob;
pub mod hex;
pub mod kdf;
pub mod sha1;
pub mod sha256;

pub use blob::{open, seal, OpenError};
pub use kdf::derive_key;
pub use sha1::Sha1;
pub use sha256::Sha256;

/// A 128-bit symmetric key, as used by the paper's AES-128 payload encryption.
pub type Key128 = [u8; 16];

/// A 160-bit SHA-1 digest — the hash values `Hc` stored in obfuscated
/// trigger conditions.
pub type Digest160 = [u8; 20];

/// A 256-bit SHA-256 digest, used for code/resource digests in MANIFEST.MF.
pub type Digest256 = [u8; 32];
