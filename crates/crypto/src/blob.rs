//! Authenticated sealed blobs: the on-disk form of encrypted bomb payloads.
//!
//! The paper stores each bomb's payload "encrypted into a string, which is
//! inserted into the app code" and decrypted at runtime only when the trigger
//! constant re-derives the key (§7.5). Decrypting with a wrong key must
//! *fail detectably* — otherwise an attacker could force the branch and
//! execute garbage — so blobs are encrypt-then-MAC:
//!
//! ```text
//! nonce(8) ‖ ciphertext ‖ tag(20)
//! tag = SHA1(mac-domain ‖ key ‖ nonce ‖ ciphertext)
//! ```

use crate::{aes, sha1, Key128};
use std::fmt;

const MAC_DOMAIN: &[u8] = b"bombdroid/mac/v1";
const NONCE_LEN: usize = 8;
const TAG_LEN: usize = 20;

/// Error returned by [`open`] when a blob cannot be authenticated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenError {
    /// The blob is shorter than the fixed framing (nonce + tag).
    Truncated {
        /// Actual byte length of the rejected blob.
        len: usize,
    },
    /// The MAC did not verify: wrong key or tampered ciphertext.
    BadTag,
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::Truncated { len } => write!(
                f,
                "sealed blob of {len} bytes is shorter than framing ({} bytes)",
                NONCE_LEN + TAG_LEN
            ),
            OpenError::BadTag => write!(f, "authentication tag mismatch (wrong key or tampering)"),
        }
    }
}

impl std::error::Error for OpenError {}

fn mac(key: &Key128, nonce: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut h = sha1::Sha1::new();
    h.update(MAC_DOMAIN);
    h.update(key);
    h.update(nonce);
    h.update(ciphertext);
    h.finalize()
}

/// Seals `plaintext` under `key` with a nonce derived from the payload
/// (deterministic so protection runs are reproducible; every bomb uses a
/// distinct key, which is what guarantees keystream uniqueness).
pub fn seal(key: &Key128, plaintext: &[u8]) -> Vec<u8> {
    let nonce_digest = sha1::digest(plaintext);
    let nonce = u64::from_be_bytes(nonce_digest[..8].try_into().expect("8 bytes"));
    seal_with_nonce(key, nonce, plaintext)
}

/// Seals `plaintext` under `key` with an explicit CTR nonce.
pub fn seal_with_nonce(key: &Key128, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
    let nonce_bytes = nonce.to_be_bytes();
    // One exact-size allocation: encrypt the payload in place inside the
    // output frame rather than through an intermediate ciphertext buffer.
    let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len() + TAG_LEN);
    out.extend_from_slice(&nonce_bytes);
    out.extend_from_slice(plaintext);
    aes::ctr_xor(key, nonce, &mut out[NONCE_LEN..]);
    let tag = mac(key, &nonce_bytes, &out[NONCE_LEN..]);
    out.extend_from_slice(&tag);
    out
}

/// Opens a sealed blob, authenticating before decrypting.
///
/// # Errors
///
/// * [`OpenError::Truncated`] if `blob` is shorter than the framing.
/// * [`OpenError::BadTag`] if the key is wrong or the blob was modified —
///   this is what an attacker forcing a trigger condition observes.
pub fn open(key: &Key128, blob: &[u8]) -> Result<Vec<u8>, OpenError> {
    if blob.len() < NONCE_LEN + TAG_LEN {
        return Err(OpenError::Truncated { len: blob.len() });
    }
    let (nonce_bytes, rest) = blob.split_at(NONCE_LEN);
    let (ct, tag) = rest.split_at(rest.len() - TAG_LEN);
    let expected = mac(key, nonce_bytes, ct);
    // Constant-time-ish comparison; timing is irrelevant in the simulation
    // but it documents intent.
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(tag) {
        diff |= a ^ b;
    }
    if diff != 0 {
        return Err(OpenError::BadTag);
    }
    let nonce = u64::from_be_bytes(nonce_bytes.try_into().expect("8 bytes"));
    let mut pt = ct.to_vec();
    aes::ctr_xor(key, nonce, &mut pt);
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key128 = [9u8; 16];

    #[test]
    fn roundtrip() {
        for len in [0usize, 1, 16, 17, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let blob = seal(&KEY, &pt);
            assert_eq!(open(&KEY, &blob).unwrap(), pt);
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let blob = seal(&KEY, b"payload");
        let wrong = [8u8; 16];
        assert_eq!(open(&wrong, &blob), Err(OpenError::BadTag));
    }

    #[test]
    fn tampering_rejected() {
        let blob = seal(&KEY, b"payload bytes here");
        for i in 0..blob.len() {
            let mut t = blob.clone();
            t[i] ^= 1;
            assert!(open(&KEY, &t).is_err(), "flip at {i} must be caught");
        }
    }

    #[test]
    fn truncated_rejected() {
        let blob = seal(&KEY, b"x");
        assert!(matches!(
            open(&KEY, &blob[..NONCE_LEN + TAG_LEN - 1]),
            Err(OpenError::Truncated { .. })
        ));
    }

    #[test]
    fn deterministic_for_reproducible_builds() {
        assert_eq!(seal(&KEY, b"same payload"), seal(&KEY, b"same payload"));
    }
}
