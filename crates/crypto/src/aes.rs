//! AES-128 (FIPS 197) and a CTR keystream mode.
//!
//! The paper encrypts each bomb's payload bytecode with AES-128 (§7.4);
//! [`ctr_xor`] provides the stream mode our sealed-blob format uses so
//! payloads of arbitrary length need no padding.

use crate::Key128;

/// Forward S-box, generated from the AES finite-field inverse + affine map.
const SBOX: [u8; 256] = build_sbox();

/// `x·2` and `x·3` in GF(2^8), precomputed so MixColumns is four table
/// lookups per byte instead of a bit-serial multiply.
const MUL2: [u8; 256] = build_mul_table(2);
const MUL3: [u8; 256] = build_mul_table(3);

const fn build_mul_table(factor: u8) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        table[i] = gf_mul(i as u8, factor);
        i += 1;
    }
    table
}

const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

const fn gf_inv(a: u8) -> u8 {
    // a^254 in GF(2^8) by square-and-multiply.
    if a == 0 {
        return 0;
    }
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let inv = gf_inv(i as u8);
        let mut x = inv;
        let mut y = inv;
        let mut j = 0;
        while j < 4 {
            y = y.rotate_left(1);
            x ^= y;
            j += 1;
        }
        sbox[i] = x ^ 0x63;
        i += 1;
    }
    sbox
}

/// The classic T-tables: `TE0[x]` packs one SubBytes lookup fused with its
/// MixColumns column contribution into a single `u32` (little-endian bytes
/// `[2·S(x), S(x), S(x), 3·S(x)]`); `TE1..TE3` are its byte rotations for
/// rows 1–3. Four 1 KiB tables trade a little cache footprint for zero
/// rotate instructions in the round function.
const TE0: [u32; 256] = build_te(0);
const TE1: [u32; 256] = build_te(8);
const TE2: [u32; 256] = build_te(16);
const TE3: [u32; 256] = build_te(24);

const fn build_te(rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let s = SBOX[i] as u32;
        let s2 = MUL2[SBOX[i] as usize] as u32;
        let s3 = MUL3[SBOX[i] as usize] as u32;
        t[i] = (s2 | (s << 8) | (s << 16) | (s3 << 24)).rotate_left(rot);
        i += 1;
    }
    t
}

/// An expanded AES-128 key schedule (11 round keys).
///
/// ```
/// use bombdroid_crypto::aes::Aes128;
/// let aes = Aes128::new(&[0u8; 16]);
/// let ct = aes.encrypt_block(&[0u8; 16]);
/// assert_eq!(
///     bombdroid_crypto::hex::encode(&ct),
///     "66e94bd4ef8a2c3b884cfa59ca342b2e",
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    /// Round keys as little-endian column words (`rk[r][c]` covers state
    /// bytes `4c..4c+4` of round `r`), matching the T-table state layout.
    rk: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub fn new(key: &Key128) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        let mut rcon: u8 = 1;
        for i in 4..44 {
            let mut tmp = w[i - 1];
            if i % 4 == 0 {
                tmp.rotate_left(1);
                for b in &mut tmp {
                    *b = SBOX[*b as usize];
                }
                tmp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ tmp[j];
            }
        }
        let mut rk = [[0u32; 4]; 11];
        for r in 0..11 {
            for c in 0..4 {
                rk[r][c] = u32::from_le_bytes(w[4 * r + c]);
            }
        }
        Aes128 { rk }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut cols = block_to_cols(block);
        for (col, k) in cols.iter_mut().zip(&self.rk[0]) {
            *col ^= *k;
        }
        for round in 1..10 {
            cols = aes_round(&cols, &self.rk[round]);
        }
        cols = aes_last_round(&cols, &self.rk[10]);
        cols_to_block(&cols)
    }

    /// XORs `data` in place with this key's CTR keystream for `nonce`.
    ///
    /// Equivalent to the free [`ctr_xor`], but reuses the already-expanded
    /// schedule — callers encrypting several buffers under one key (a
    /// sealed blob's ciphertext, its re-derived plaintext) pay for key
    /// expansion once.
    ///
    /// CTR counter blocks are mutually independent, so the bulk of the
    /// stream is produced four blocks at a time through the interleaved
    /// encryption ([`encrypt4_cols`]) — four live dependency chains instead
    /// of one, identical output bytes.
    pub fn ctr_xor(&self, nonce: u64, data: &mut [u8]) {
        let mut block = 0u64;
        let mut quads = data.chunks_exact_mut(64);
        for quad in &mut quads {
            let states = core::array::from_fn(|l| counter_cols(nonce, block + l as u64));
            let ks = encrypt4_cols([&self.rk; 4], states);
            for (l, chunk) in quad.chunks_exact_mut(16).enumerate() {
                xor_cols(chunk, &ks[l]);
            }
            block += 4;
        }
        for chunk in quads.into_remainder().chunks_mut(16) {
            let mut cols = counter_cols(nonce, block);
            for (col, k) in cols.iter_mut().zip(&self.rk[0]) {
                *col ^= *k;
            }
            for round in 1..10 {
                cols = aes_round(&cols, &self.rk[round]);
            }
            cols = aes_last_round(&cols, &self.rk[10]);
            xor_cols(chunk, &cols);
            block += 1;
        }
    }
}

// State layout: column-major as in FIPS 197 — byte `4c + r` is row `r` of
// column `c`; a column is one little-endian `u32`, so row `r` is bits
// `8r..8r+8` of the word.

#[inline(always)]
fn block_to_cols(block: &[u8; 16]) -> [u32; 4] {
    core::array::from_fn(|c| {
        u32::from_le_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    })
}

#[inline(always)]
fn cols_to_block(cols: &[u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (c, col) in cols.iter().enumerate() {
        out[4 * c..4 * c + 4].copy_from_slice(&col.to_le_bytes());
    }
    out
}

/// The CTR counter block `nonce ‖ block`, as state columns.
#[inline(always)]
fn counter_cols(nonce: u64, block: u64) -> [u32; 4] {
    let n = nonce.to_be_bytes();
    let b = block.to_be_bytes();
    [
        u32::from_le_bytes([n[0], n[1], n[2], n[3]]),
        u32::from_le_bytes([n[4], n[5], n[6], n[7]]),
        u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
    ]
}

#[inline(always)]
fn xor_cols(chunk: &mut [u8], cols: &[u32; 4]) {
    for (i, byte) in chunk.iter_mut().enumerate() {
        *byte ^= (cols[i / 4] >> (8 * (i % 4))) as u8;
    }
}

/// One full middle round: SubBytes + ShiftRows + MixColumns + AddRoundKey,
/// fused into four T-table lookups per column. Column `c`'s row-`r` input
/// comes from column `(c + r) % 4` (ShiftRows).
#[inline(always)]
fn aes_round(cols: &[u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    core::array::from_fn(|c| {
        TE0[(cols[c] & 0xff) as usize]
            ^ TE1[((cols[(c + 1) % 4] >> 8) & 0xff) as usize]
            ^ TE2[((cols[(c + 2) % 4] >> 16) & 0xff) as usize]
            ^ TE3[(cols[(c + 3) % 4] >> 24) as usize]
            ^ rk[c]
    })
}

/// The final round (no MixColumns): plain S-box bytes through ShiftRows.
#[inline(always)]
fn aes_last_round(cols: &[u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    core::array::from_fn(|c| {
        ((SBOX[(cols[c] & 0xff) as usize] as u32)
            | ((SBOX[((cols[(c + 1) % 4] >> 8) & 0xff) as usize] as u32) << 8)
            | ((SBOX[((cols[(c + 2) % 4] >> 16) & 0xff) as usize] as u32) << 16)
            | ((SBOX[(cols[(c + 3) % 4] >> 24) as usize] as u32) << 24))
            ^ rk[c]
    })
}

/// Encrypts four independent blocks in lockstep, each under its own
/// (possibly shared) schedule. Interleaving keeps four dependency chains in
/// flight through the table lookups, which a single-block encryption
/// serializes; the per-lane math is exactly [`Aes128::encrypt_block`]'s.
/// [`Aes128::ctr_xor`] passes one schedule four times: taking a single
/// `&[[u32; 4]; 11]` instead measured ~25% slower on `crypto/aes_ctr_16k`
/// (x86-64); its compiled loop spills more registers to the stack.
#[inline(always)]
fn encrypt4_cols(rks: [&[[u32; 4]; 11]; 4], mut states: [[u32; 4]; 4]) -> [[u32; 4]; 4] {
    for (st, rk) in states.iter_mut().zip(&rks) {
        for (col, k) in st.iter_mut().zip(&rk[0]) {
            *col ^= *k;
        }
    }
    for round in 1..10 {
        for (st, rk) in states.iter_mut().zip(&rks) {
            *st = aes_round(st, &rk[round]);
        }
    }
    for (st, rk) in states.iter_mut().zip(&rks) {
        *st = aes_last_round(st, &rk[10]);
    }
    states
}

/// XORs `data` in place with the AES-128-CTR keystream for (`key`, `nonce`).
///
/// Applying it twice with the same parameters round-trips, so it both
/// encrypts and decrypts:
///
/// ```
/// use bombdroid_crypto::aes::ctr_xor;
/// let key = [7u8; 16];
/// let mut data = b"logic bomb payload".to_vec();
/// ctr_xor(&key, 42, &mut data);
/// assert_ne!(&data, b"logic bomb payload");
/// ctr_xor(&key, 42, &mut data);
/// assert_eq!(&data, b"logic bomb payload");
/// ```
pub fn ctr_xor(key: &Key128, nonce: u64, data: &mut [u8]) {
    Aes128::new(key).ctr_xor(nonce, data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn fips197_appendix_b() {
        let key: Key128 = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let ct = Aes128::new(&key).encrypt_block(&pt);
        assert_eq!(hex::encode(&ct), "3925841d02dc09fbdc118597196a0b32");
    }

    #[test]
    fn nist_sp800_38a_ecb_vector() {
        let key: Key128 = hex::decode_array("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let pt: [u8; 16] = hex::decode_array("6bc1bee22e409f96e93d7e117393172a").unwrap();
        let ct = Aes128::new(&key).encrypt_block(&pt);
        assert_eq!(hex::encode(&ct), "3ad77bb40d7a3660a89ecaf32466ef97");
    }

    #[test]
    fn ctr_roundtrip_various_lengths() {
        let key = [0xAB; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut data = original.clone();
            ctr_xor(&key, 99, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len {len} must change");
            }
            ctr_xor(&key, 99, &mut data);
            assert_eq!(data, original, "len {len} must round-trip");
        }
    }

    #[test]
    fn different_nonce_different_stream() {
        let key = [1u8; 16];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ctr_xor(&key, 1, &mut a);
        ctr_xor(&key, 2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn ctr_keystream_pinned() {
        // First 100 keystream bytes captured from the pre-T-table bytewise
        // implementation: any change to these bytes would silently re-seal
        // every blob in existing protected apps.
        let key: Key128 = hex::decode_array("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let mut data = vec![0u8; 100];
        ctr_xor(&key, 0x0123_4567_89ab_cdef, &mut data);
        assert_eq!(
            hex::encode(&data),
            "1c637afb6fe7f151e785d538d212e9c541a42a140ba338326f58cb81776e1860\
             44e44ffabf6bb262a77a84b64307c791437c42546b109443abed3d35267d612a\
             e6cfeccb78c60ab8e60764dac59ff0f021b702e19c86746cec839bcc6b9ff7c2\
             8a9303fa"
        );
    }
}
