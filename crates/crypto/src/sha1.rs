//! SHA-1 (FIPS 180-4).
//!
//! The paper calls this "SHA-128" (§7.4) and uses it both to obfuscate
//! trigger conditions (`Hash(X) == Hc`) and, salted, to derive bomb keys.
//! SHA-1 is no longer collision-resistant, but the properties the paper's
//! security argument rests on — one-wayness and second-preimage resistance
//! against the attacker's constraint solvers — still hold in practice and
//! are what our symbolic-execution substrate models as "uninterpretable".

use crate::Digest160;

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
            state: [
                0x6745_2301,
                0xefcd_ab89,
                0x98ba_dcfe,
                0x1032_5476,
                0xc3d2_e1f0,
            ],
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
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
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
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
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
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
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
