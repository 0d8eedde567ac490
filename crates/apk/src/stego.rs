//! Steganographic encoding of digest material into string resources.
//!
//! The paper (§4.1, *Code Digest Comparison*) hides the expected digest
//! `Do` in `strings.xml` so the detection payload can recover it at
//! runtime; an attacker "does not know how to manipulate strings in
//! strings.xml even when they look suspicious, as the logic for recovering
//! the digest ... is encrypted as part of the repackaging detection code".
//!
//! This module encodes arbitrary bytes as pronounceable token strings that
//! pass for cache keys or session identifiers (`"sid-gukevizo-…"`) and
//! decodes them back. The mapping is nibble → syllable, so the cover text
//! leaks no obvious hex.

/// One syllable per nibble value; all distinct two-letter strings.
const SYLLABLES: [&str; 16] = [
    "ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "na", "po", "ru", "sa", "te", "vi", "zo",
];

/// Prefix that makes the cover string look like an innocuous identifier.
const COVER_PREFIX: &str = "sid-";

/// Dash every this many syllables, purely cosmetic.
const GROUP: usize = 4;

/// Encodes `payload` into a cover token string.
///
/// ```
/// let s = bombdroid_apk::stego::embed(&[0xde, 0xad]);
/// assert!(s.starts_with("sid-"));
/// assert_eq!(bombdroid_apk::stego::extract(&s).unwrap(), vec![0xde, 0xad]);
/// ```
pub fn embed(payload: &[u8]) -> String {
    let mut out = String::from(COVER_PREFIX);
    let mut count = 0usize;
    for byte in payload {
        for nibble in [byte >> 4, byte & 0xf] {
            if count > 0 && count.is_multiple_of(GROUP) {
                out.push('-');
            }
            out.push_str(SYLLABLES[nibble as usize]);
            count += 1;
        }
    }
    out
}

/// Decodes a cover token produced by [`embed`].
///
/// Returns `None` when the string is not a valid cover token (wrong prefix,
/// unknown syllable, or a trailing half-byte) — which is also what happens
/// when an attacker blindly rewrites the resource string. Dashes may sit
/// anywhere in the body; every other byte must belong to a syllable, so any
/// non-ASCII text is rejected. The decoded bytes are the only allocation.
pub fn extract(cover: &str) -> Option<Vec<u8>> {
    let body = cover.strip_prefix(COVER_PREFIX)?.as_bytes();
    let mut out = Vec::with_capacity(body.len() / 4);
    let mut letters = body.iter().copied().filter(|&b| b != b'-');
    let mut high = None;
    while let Some(first) = letters.next() {
        // A lone trailing letter has no syllable: `?` rejects it.
        let pair = [first, letters.next()?];
        let nibble = SYLLABLES.iter().position(|s| s.as_bytes() == pair)? as u8;
        match high.take() {
            None => high = Some(nibble),
            Some(h) => out.push((h << 4) | nibble),
        }
    }
    // A trailing half-byte is as invalid as an unknown syllable.
    high.is_none().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_byte_values() {
        let payload: Vec<u8> = (0..=255).collect();
        assert_eq!(extract(&embed(&payload)).unwrap(), payload);
    }

    #[test]
    fn empty_payload() {
        assert_eq!(extract(&embed(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn cover_looks_innocuous() {
        let s = embed(&[0x12, 0x34, 0x56, 0x78]);
        assert!(!s.contains("0x"));
        assert!(s.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
    }

    #[test]
    fn tampering_detected() {
        let mut s = embed(&[0xAA, 0xBB]);
        s.push('q'); // no syllable contains 'q'
        assert_eq!(extract(&s), None);
        assert_eq!(extract("not-a-cover"), None);
        assert_eq!(extract("sid-xx"), None);
    }

    /// The char-based decoder this module used to ship, kept as the
    /// oracle for the byte-level one.
    fn extract_by_chars(cover: &str) -> Option<Vec<u8>> {
        let body = cover.strip_prefix(COVER_PREFIX)?;
        let mut nibbles = Vec::new();
        let compact: String = body.chars().filter(|c| *c != '-').collect();
        let chars: Vec<char> = compact.chars().collect();
        if !chars.len().is_multiple_of(2) {
            return None;
        }
        for pair in chars.chunks_exact(2) {
            let syl: String = pair.iter().collect();
            let idx = SYLLABLES.iter().position(|s| **s == syl)?;
            nibbles.push(idx as u8);
        }
        if nibbles.len() % 2 != 0 {
            return None;
        }
        Some(
            nibbles
                .chunks_exact(2)
                .map(|n| (n[0] << 4) | n[1])
                .collect(),
        )
    }

    #[test]
    fn byte_decoder_matches_the_char_oracle() {
        let mut covers: Vec<String> = (0..=40u8)
            .map(|n| embed(&(0..n).map(|i| i.wrapping_mul(73)).collect::<Vec<_>>()))
            .collect();
        covers.extend(
            [
                "",
                "sid-",
                "sid",
                "SID-baba",
                "xid-baba",
                "sid-ba",
                "sid-bace-di",
                "sid-bacedi",
                "sid--ba-ce--",
                "-sid-bace",
                "sid-bacé",
                "sid-baçe",
                "sid-bacefoé",
                "sid-ba\u{0}ce",
                "sid-bäce",
                "sid-🦀ce",
                "sid-ba🦀",
                "sid-babacezo-",
                "sid-ab",
                "sid-bacex",
            ]
            .map(String::from),
        );
        // Dashes moved, doubled or dropped, and every cover cut at every
        // byte that is a char boundary.
        let valid = embed(&[0xde, 0xad, 0xbe, 0xef]);
        covers.push(valid.replace('-', ""));
        covers.push(valid.replace('-', "--"));
        covers.push(format!("{valid}-"));
        covers.push(valid.replacen("ba", "b-a", 1));
        for cut in 0..=valid.len() {
            covers.push(valid[..cut].to_string());
        }
        for cover in &covers {
            assert_eq!(extract(cover), extract_by_chars(cover), "{cover:?}");
        }
    }

    #[test]
    fn syllables_are_prefix_free_pairs() {
        // All syllables are exactly two chars and distinct, so decoding by
        // fixed-width chunks is unambiguous.
        for (i, a) in SYLLABLES.iter().enumerate() {
            assert_eq!(a.len(), 2);
            for b in &SYLLABLES[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
