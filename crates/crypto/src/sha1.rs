//! SHA-1 (FIPS 180-4).
//!
//! The paper calls this "SHA-128" (§7.4) and uses it both to obfuscate
//! trigger conditions (`Hash(X) == Hc`) and, salted, to derive bomb keys.
//! SHA-1 is no longer collision-resistant, but the properties the paper's
//! security argument rests on — one-wayness and second-preimage resistance
//! against the attacker's constraint solvers — still hold in practice and
//! are what our symbolic-execution substrate models as "uninterpretable".

use crate::Digest160;

/// The FIPS 180-4 initial hash value.
const IV: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];

/// Incremental SHA-1 hasher.
///
/// # Example
///
/// ```
/// use bombdroid_crypto::sha1::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(
///     bombdroid_crypto::hex::encode(&h.finalize()),
///     "a9993e364706816aba3e25717850c26c9cd0d89d",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: IV,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            compress(&mut self.state, &b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the computation and returns the 160-bit digest.
    pub fn finalize(mut self) -> Digest160 {
        let bit_len = self.len.wrapping_mul(8);
        // Padding — 0x80, zeros, then the bit length in the last 8 bytes —
        // is written straight into the final block: a second block only
        // when fewer than 9 bytes are left for it.
        let n = self.buf_len;
        let mut block = self.buf;
        block[n] = 0x80;
        block[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &block);
        state_bytes(&self.state)
    }
}

/// SHA-1 of a message already padded into a single final block (the
/// caller wrote the 0x80 terminator, zero fill and bit length): one
/// compression from the initial state.
pub(crate) fn digest_padded_block(block: &[u8; 64]) -> Digest160 {
    let mut state = IV;
    compress(&mut state, block);
    state_bytes(&state)
}

fn state_bytes(state: &[u32; 5]) -> Digest160 {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compresses one block into `state`: the SHA-NI rounds where the CPU has
/// them, the portable rounds otherwise. Both give identical state.
#[inline]
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if ni::available() {
        #[allow(unsafe_code)]
        // SAFETY: `ni::compress` is safe code that needs the `sha`, `sse2`,
        // `ssse3` and `sse4.1` target features, and `ni::available` has
        // just confirmed at run time that this CPU has all four.
        unsafe {
            ni::compress(state, block)
        };
        return;
    }
    portable_compress(state, block)
}

/// The FIPS 180-4 compression in plain integer code: the fallback on CPUs
/// without SHA-NI and the reference the hardware rounds are tested against.
fn portable_compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    // One round with explicit register roles: accumulate into `e` and
    // rotate `b` in place, then rotate the role names for the next
    // round. Five-round unrolling plus one constant `f`/`k` per stage
    // removes both the five-way shuffle and the per-round range match
    // of the naive loop.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:expr, $k:expr, $i:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f)
                .wrapping_add($k)
                .wrapping_add(w[$i]);
            $b = $b.rotate_left(30);
        };
    }
    macro_rules! stage {
        ($f:expr, $k:expr, $base:expr) => {
            let mut i = $base;
            while i < $base + 20 {
                macro_rules! f {
                    ($fb:ident, $fc:ident, $fd:ident) => {
                        $f($fb, $fc, $fd)
                    };
                }
                round!(a, b, c, d, e, f!(b, c, d), $k, i);
                round!(e, a, b, c, d, f!(a, b, c), $k, i + 1);
                round!(d, e, a, b, c, f!(e, a, b), $k, i + 2);
                round!(c, d, e, a, b, f!(d, e, a), $k, i + 3);
                round!(b, c, d, e, a, f!(c, d, e), $k, i + 4);
                i += 5;
            }
        };
    }
    stage!(|x: u32, y: u32, z: u32| (x & y) | (!x & z), 0x5a82_7999, 0);
    stage!(|x: u32, y: u32, z: u32| x ^ y ^ z, 0x6ed9_eba1, 20);
    stage!(
        |x: u32, y: u32, z: u32| (x & y) | (x & z) | (y & z),
        0x8f1b_bcdc,
        40
    );
    stage!(|x: u32, y: u32, z: u32| x ^ y ^ z, 0xca62_c1d6, 60);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// SHA-1 rounds on the x86 SHA extensions (`sha1rnds4`, `sha1nexte`,
/// `sha1msg1`, `sha1msg2`): four rounds and four schedule words per
/// instruction instead of one round per handful of integer ops.
#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_set_epi32, _mm_sha1msg1_epu32,
        _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_xor_si128,
    };

    /// Whether this CPU can run [`compress`]. The standard library caches
    /// the detection, so each check is a load and a bit test.
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Four big-endian message words, word `i` in the highest lane (the
    /// lane order the SHA instructions expect).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn words(block: &[u8; 64], i: usize) -> __m128i {
        let w = |k: usize| {
            let b = &block[4 * (i + k)..4 * (i + k) + 4];
            u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as i32
        };
        _mm_set_epi32(w(0), w(1), w(2), w(3))
    }

    /// Same contract as [`super::portable_compress`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        // `abcd` holds a in the highest lane; `e` rides in the highest lane
        // of its own vector.
        let abcd = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        let mut w0 = words(block, 0);
        let mut w1 = words(block, 4);
        let mut w2 = words(block, 8);
        let mut w3 = words(block, 12);
        let mut w4;

        // Four rounds of stage `$k` on the state `$h0`, with `$h1` the
        // state four rounds back (whose `a` becomes the next `e`).
        macro_rules! rounds4 {
            ($h0:ident, $h1:ident, $w:expr, $k:literal) => {
                _mm_sha1rnds4_epu32($h0, _mm_sha1nexte_epu32($h1, $w), $k)
            };
        }
        // The next four schedule words, then four rounds on them.
        macro_rules! schedule_rounds4 {
            ($h0:ident, $h1:ident, $v0:ident, $v1:ident, $v2:ident, $v3:ident, $v4:ident, $k:literal) => {
                $v4 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($v0, $v1), $v2), $v3);
                $h1 = rounds4!($h0, $h1, $v4, $k);
            };
        }

        let mut h0 = abcd;
        let mut h1 = _mm_sha1rnds4_epu32(h0, _mm_add_epi32(e0, w0), 0);
        h0 = rounds4!(h1, h0, w1, 0);
        h1 = rounds4!(h0, h1, w2, 0);
        h0 = rounds4!(h1, h0, w3, 0);
        schedule_rounds4!(h0, h1, w0, w1, w2, w3, w4, 0);

        schedule_rounds4!(h1, h0, w1, w2, w3, w4, w0, 1);
        schedule_rounds4!(h0, h1, w2, w3, w4, w0, w1, 1);
        schedule_rounds4!(h1, h0, w3, w4, w0, w1, w2, 1);
        schedule_rounds4!(h0, h1, w4, w0, w1, w2, w3, 1);
        schedule_rounds4!(h1, h0, w0, w1, w2, w3, w4, 1);

        schedule_rounds4!(h0, h1, w1, w2, w3, w4, w0, 2);
        schedule_rounds4!(h1, h0, w2, w3, w4, w0, w1, 2);
        schedule_rounds4!(h0, h1, w3, w4, w0, w1, w2, 2);
        schedule_rounds4!(h1, h0, w4, w0, w1, w2, w3, 2);
        schedule_rounds4!(h0, h1, w0, w1, w2, w3, w4, 2);

        schedule_rounds4!(h1, h0, w1, w2, w3, w4, w0, 3);
        schedule_rounds4!(h0, h1, w2, w3, w4, w0, w1, 3);
        schedule_rounds4!(h1, h0, w3, w4, w0, w1, w2, 3);
        schedule_rounds4!(h0, h1, w4, w0, w1, w2, w3, 3);
        schedule_rounds4!(h1, h0, w0, w1, w2, w3, w4, 3);

        let abcd = _mm_add_epi32(abcd, h0);
        let e = _mm_sha1nexte_epu32(h1, e0);
        state[0] = _mm_extract_epi32(abcd, 3) as u32;
        state[1] = _mm_extract_epi32(abcd, 2) as u32;
        state[2] = _mm_extract_epi32(abcd, 1) as u32;
        state[3] = _mm_extract_epi32(abcd, 0) as u32;
        state[4] = _mm_extract_epi32(e, 3) as u32;
    }
}

/// One-shot SHA-1 of `data`.
///
/// ```
/// let d = bombdroid_crypto::sha1::digest(b"");
/// assert_eq!(bombdroid_crypto::hex::encode(&d), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
/// ```
pub fn digest(data: &[u8]) -> Digest160 {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hx(data: &[u8]) -> String {
        hex::encode(&digest(data))
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hx(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(hx(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hx(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        for split in [0usize, 1, 63, 64, 65, 1000, 4999, 5000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn padding_matches_bytewise_padding_at_every_length() {
        // The padding as FIPS 180-4 §5.1.1 states it, fed one byte at a
        // time through `update`: every tail length of the last block, on
        // both sides of the 56-byte boundary, must agree.
        fn bytewise(data: &[u8]) -> Digest160 {
            let mut h = Sha1::new();
            h.update(data);
            let bit_len = h.len.wrapping_mul(8);
            h.update(&[0x80]);
            while h.buf_len != 56 {
                h.update(&[0]);
            }
            h.update(&bit_len.to_be_bytes());
            assert_eq!(h.buf_len, 0);
            let mut out = [0u8; 20];
            for (i, word) in h.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }
        let data: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(37)).collect();
        for len in 0..=data.len() {
            assert_eq!(digest(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    /// Pads `data` per FIPS 180-4 §5.1.1 and runs every block through
    /// `compress`, so a test can pin one compression implementation.
    fn digest_via(compress: fn(&mut [u32; 5], &[u8; 64]), data: &[u8]) -> Digest160 {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = IV;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        state_bytes(&state)
    }

    /// The FIPS vectors plus pseudo-random messages of every length 0–200.
    fn messages() -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"abc".to_vec(),
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..=200 {
            out.push(
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn portable_compress_matches_the_fips_vectors() {
        // Called directly, so the fallback stays covered on SHA-NI hosts.
        let portable = |d: &[u8]| hex::encode(&digest_via(portable_compress, d));
        assert_eq!(portable(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(portable(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        for m in messages() {
            assert_eq!(digest_via(portable_compress, &m), digest(&m), "{m:?}");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn sha_ni_compress_matches_portable() {
        if !ni::available() {
            eprintln!("skipped: this CPU has no SHA-NI, so only the portable rounds run here");
            return;
        }
        // On this CPU the dispatching `compress` runs the SHA-NI rounds.
        for m in messages() {
            assert_eq!(
                digest_via(compress, &m),
                digest_via(portable_compress, &m),
                "length {}",
                m.len()
            );
        }
    }

    #[test]
    fn paper_example_condition_hash() {
        // The paper's running example stores Hash(c) for c = "mMode value";
        // verify the digest is stable so trigger conditions are deterministic.
        let first = digest(b"0xfff000|salt");
        let second = digest(b"0xfff000|salt");
        assert_eq!(first, second);
        assert_ne!(first, digest(b"0xfff001|salt"));
    }
}
