//! Key derivation: the paper's `key = Hash(c | S)` (§7.4).
//!
//! A trigger constant `c` of arbitrary size is mixed with a per-bomb salt
//! `S` and hashed into a uniform 128-bit AES key. The salt also defeats
//! rainbow-table attacks against the stored condition hashes (§5.1).

use crate::{sha1, Digest160, Key128};

/// Domain separator so condition hashes and encryption keys derived from the
/// same `(c, salt)` pair are unrelated values.
const KEY_DOMAIN: &[u8] = b"bombdroid/key/v1";
const COND_DOMAIN: &[u8] = b"bombdroid/cond/v1";

/// Derives the 128-bit payload-encryption key from trigger constant `c` and
/// per-bomb salt, truncating `Hash(domain|c|salt)` to 16 bytes.
///
/// ```
/// use bombdroid_crypto::kdf::derive_key;
/// let k1 = derive_key(b"secret-constant", b"salt-a");
/// let k2 = derive_key(b"secret-constant", b"salt-b");
/// assert_ne!(k1, k2, "different salts must give different keys");
/// ```
pub fn derive_key(c: &[u8], salt: &[u8]) -> Key128 {
    truncate(domain_hash(KEY_DOMAIN, &[], c, salt))
}

/// [`derive_key`] for `c = tag ‖ body`, without assembling `c`.
pub fn derive_key_tagged(tag: u8, body: &[u8], salt: &[u8]) -> Key128 {
    truncate(domain_hash(KEY_DOMAIN, &[tag], body, salt))
}

fn truncate(digest: Digest160) -> Key128 {
    let mut key = [0u8; 16];
    key.copy_from_slice(&digest[..16]);
    key
}

/// Computes the stored *condition hash* `Hc = Hash(c | salt)` that replaces
/// the plaintext comparison `X == c` in an obfuscated trigger condition.
/// This streaming form is the definition; [`ConditionHasher`] and
/// [`site_material`] compute the same digest in one compression.
///
/// ```
/// use bombdroid_crypto::kdf::condition_hash;
/// let hc = condition_hash(b"0xfff000", b"salt");
/// assert_eq!(hc, condition_hash(b"0xfff000", b"salt"));
/// assert_ne!(hc, condition_hash(b"0xfff000", b"other-salt"));
/// ```
pub fn condition_hash(c: &[u8], salt: &[u8]) -> Digest160 {
    streamed(COND_DOMAIN, &[], c, salt)
}

/// `SHA-1(domain ‖ be64(|c|) ‖ c ‖ salt)` with `c = head ‖ body`, through
/// the buffered hasher.
fn streamed(domain: &[u8], head: &[u8], body: &[u8], salt: &[u8]) -> Digest160 {
    let mut h = sha1::Sha1::new();
    h.update(domain);
    h.update(&((head.len() + body.len()) as u64).to_be_bytes());
    h.update(head);
    h.update(body);
    h.update(salt);
    h.finalize()
}

/// The same message as [`streamed`], padded into one SHA-1 block, or
/// `None` when it needs more than 55 bytes (room for the 0x80 terminator
/// and the 8-byte bit length).
fn padded_block(domain: &[u8], head: &[u8], body: &[u8], salt: &[u8]) -> Option<[u8; 64]> {
    let n = domain.len() + 8 + head.len() + body.len() + salt.len();
    if n > 55 {
        return None;
    }
    let mut block = [0u8; 64];
    let mut at = 0;
    let c_len = ((head.len() + body.len()) as u64).to_be_bytes();
    for part in [domain, &c_len[..], head, body, salt] {
        block[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    block[n] = 0x80;
    block[56..].copy_from_slice(&(n as u64 * 8).to_be_bytes());
    Some(block)
}

/// [`streamed`] in one compression whenever the message fits one block.
fn domain_hash(domain: &[u8], head: &[u8], body: &[u8], salt: &[u8]) -> Digest160 {
    match padded_block(domain, head, body, salt) {
        Some(block) => sha1::digest_padded_block(&block),
        None => streamed(domain, head, body, salt),
    }
}

/// Offset of the 8-byte word in a condition block whose `c` is one tag
/// byte plus a word: after the domain, the length and the tag.
const WORD_AT: usize = COND_DOMAIN.len() + 8 + 1;

/// The condition hash of one salted condition, for callers that hash many
/// candidate values against it: a VM evaluating a trigger on every pass, an
/// attacker enumerating the domain.
///
/// `hash(tag, body)` equals [`condition_hash`] of `c = tag ‖ body`. When
/// `c` is a tag plus an 8-byte word (an integer constant's canonical form)
/// and the salt leaves room, the padded block is built once here; each hash
/// then copies it, writes the 9 value bytes and compresses once, with no
/// heap allocation. Other short values are padded on the stack; messages
/// over one block fall back to [`condition_hash`].
///
/// ```
/// use bombdroid_crypto::kdf::{condition_hash, ConditionHasher};
/// let h = ConditionHasher::new(b"salt");
/// let c = [2, 0, 0, 0, 0, 0, 0, 0, 42];
/// assert_eq!(h.hash(c[0], &c[1..]), condition_hash(&c, b"salt"));
/// ```
#[derive(Debug, Clone)]
pub struct ConditionHasher {
    salt: Box<[u8]>,
    /// The padded block of a tag-plus-word `c`, value bytes zeroed; `None`
    /// when that message does not fit one block.
    word_block: Option<[u8; 64]>,
}

impl ConditionHasher {
    /// Prepares hashing against `salt`.
    pub fn new(salt: &[u8]) -> Self {
        ConditionHasher {
            salt: salt.into(),
            word_block: padded_block(COND_DOMAIN, &[0], &[0; 8], salt),
        }
    }

    /// [`condition_hash`] of `c = tag ‖ body` against this salt.
    #[inline]
    pub fn hash(&self, tag: u8, body: &[u8]) -> Digest160 {
        if let (Some(template), Ok(word)) = (&self.word_block, <&[u8; 8]>::try_from(body)) {
            let mut block = *template;
            block[WORD_AT - 1] = tag;
            block[WORD_AT..WORD_AT + 8].copy_from_slice(word);
            return sha1::digest_padded_block(&block);
        }
        domain_hash(COND_DOMAIN, &[tag], body, &self.salt)
    }
}

/// Everything a bomb site derives from its `(c, salt)` pair: the stored
/// condition hash and the payload-encryption key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteMaterial {
    /// Payload-encryption key, as from [`derive_key`].
    pub key: Key128,
    /// Stored condition hash, as from [`condition_hash`].
    pub condition_hash: Digest160,
}

/// Derives both per-site values in one call so arming a bomb serializes
/// the trigger constant once instead of once per derivation. Identical
/// output to calling [`derive_key`] and [`condition_hash`] separately.
pub fn site_material(c: &[u8], salt: &[u8]) -> SiteMaterial {
    SiteMaterial {
        key: derive_key(c, salt),
        condition_hash: domain_hash(COND_DOMAIN, &[], c, salt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_and_condition_hash_are_domain_separated() {
        let key = derive_key(b"c", b"s");
        let cond = condition_hash(b"c", b"s");
        assert_ne!(&cond[..16], &key[..], "domains must not collide");
    }

    #[test]
    fn length_prefix_prevents_boundary_ambiguity() {
        // (c="ab", salt="c") must differ from (c="a", salt="bc").
        assert_ne!(derive_key(b"ab", b"c"), derive_key(b"a", b"bc"));
        assert_ne!(condition_hash(b"ab", b"c"), condition_hash(b"a", b"bc"));
    }

    #[test]
    fn deterministic() {
        assert_eq!(derive_key(b"x", b"y"), derive_key(b"x", b"y"));
    }

    /// `c` as `tag ‖ body` for a body of `len` bytes, and a salt of
    /// `salt_len` bytes, both filled from `seed`.
    fn split(seed: u8, len: usize, salt_len: usize) -> (u8, Vec<u8>, Vec<u8>) {
        let fill = |n: usize, k: u8| -> Vec<u8> {
            (0..n)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(k))
                .collect()
        };
        (seed, fill(len, seed), fill(salt_len, seed.wrapping_add(7)))
    }

    #[test]
    fn one_block_paths_match_the_streamed_definition_across_the_block_boundary() {
        // Bodies of 0–80 bytes and salts of 0–40 cross the 55-byte limit
        // in every combination; 8-byte bodies take the word template.
        for len in 0..=80 {
            for salt_len in 0..=40 {
                let (tag, body, salt) = split(len as u8 ^ 0x5a, len, salt_len);
                let mut c = vec![tag];
                c.extend_from_slice(&body);
                let at = format!("body {len}, salt {salt_len}");
                assert_eq!(
                    ConditionHasher::new(&salt).hash(tag, &body),
                    condition_hash(&c, &salt),
                    "{at}"
                );
                let key_ref = streamed(KEY_DOMAIN, &[], &c, &salt);
                assert_eq!(derive_key(&c, &salt)[..], key_ref[..16], "{at}");
                assert_eq!(
                    derive_key_tagged(tag, &body, &salt)[..],
                    key_ref[..16],
                    "{at}"
                );
                assert_eq!(
                    site_material(&c, &salt).condition_hash,
                    condition_hash(&c, &salt),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn site_material_matches_individual_derivations() {
        let m = site_material(b"trigger-const", b"salt8byt");
        assert_eq!(m.key, derive_key(b"trigger-const", b"salt8byt"));
        assert_eq!(
            m.condition_hash,
            condition_hash(b"trigger-const", b"salt8byt")
        );
    }
}
