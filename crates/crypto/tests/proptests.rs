//! Property tests for the crypto primitives: whatever the pipeline seals
//! must open, derivations must be pure functions of their inputs, and hex
//! must be a lossless inverse pair.

use bombdroid_crypto::{aes, blob, hex, kdf, Key128};
use proptest::prelude::*;

proptest! {
    /// seal → open round-trips for arbitrary payloads and keys, and a
    /// single-bit key difference is rejected.
    #[test]
    fn blob_seal_open_roundtrip(
        key in any::<[u8; 16]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        flip_byte in 0usize..16usize,
        flip_bit in 0u8..8u8,
    ) {
        let sealed = blob::seal(&key, &payload);
        prop_assert_eq!(blob::open(&key, &sealed).expect("own key opens"), payload);

        let mut wrong: Key128 = key;
        wrong[flip_byte] ^= 1 << flip_bit;
        prop_assert!(blob::open(&wrong, &sealed).is_err(), "near-miss key must fail");
    }

    /// Sealing is deterministic (reproducible protection runs) and sealing
    /// under an explicit nonce round-trips too.
    #[test]
    fn blob_seal_is_deterministic(
        key in any::<[u8; 16]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        nonce in any::<u64>(),
    ) {
        prop_assert_eq!(blob::seal(&key, &payload), blob::seal(&key, &payload));
        let sealed = blob::seal_with_nonce(&key, nonce, &payload);
        prop_assert_eq!(blob::open(&key, &sealed).expect("opens"), payload);
    }

    /// KDF outputs depend on exactly (c, salt): same inputs agree, and the
    /// key / condition-hash domains never collide.
    #[test]
    fn kdf_is_deterministic_and_domain_separated(
        c in proptest::collection::vec(any::<u8>(), 0..64),
        salt in any::<[u8; 8]>(),
    ) {
        let m = kdf::site_material(&c, &salt);
        prop_assert_eq!(m.key, kdf::derive_key(&c, &salt));
        prop_assert_eq!(m.condition_hash, kdf::condition_hash(&c, &salt));
        prop_assert_ne!(&m.condition_hash[..16], &m.key[..], "domain separation");
    }

    /// Different salts give different keys (the anti-rainbow-table
    /// property §5.1) except for astronomically unlikely collisions.
    #[test]
    fn kdf_salt_changes_key(
        c in proptest::collection::vec(any::<u8>(), 1..64),
        salt_a in any::<[u8; 8]>(),
        salt_b in any::<[u8; 8]>(),
    ) {
        if salt_a != salt_b {
            prop_assert_ne!(kdf::derive_key(&c, &salt_a), kdf::derive_key(&c, &salt_b));
        }
    }

    /// hex decode(encode(x)) == x, and encode(decode(s)) == s for valid
    /// lowercase input.
    #[test]
    fn hex_encode_decode_inverse(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(encoded.len(), data.len() * 2);
        prop_assert_eq!(hex::decode(&encoded).expect("own output decodes"), data);
        prop_assert_eq!(hex::encode(&hex::decode(&encoded).unwrap()), encoded);
    }

    /// CTR is an involution under (key, nonce), and the schedule-reusing
    /// method matches the free function byte for byte.
    #[test]
    fn ctr_xor_involution_and_method_parity(
        key in any::<[u8; 16]>(),
        nonce in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut via_free = data.clone();
        aes::ctr_xor(&key, nonce, &mut via_free);
        let mut via_method = data.clone();
        aes::Aes128::new(&key).ctr_xor(nonce, &mut via_method);
        prop_assert_eq!(&via_free, &via_method, "method and free fn agree");
        aes::ctr_xor(&key, nonce, &mut via_free);
        prop_assert_eq!(via_free, data, "double application restores input");
    }
}
