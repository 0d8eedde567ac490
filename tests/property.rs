//! Property-based tests (proptest) over the core data structures and
//! invariants: wire-format round-trips, sealed-blob authentication,
//! steganography, RSA signatures, and generator/validator coherence.

use bombdroid::apk::{stego, DeveloperKey};
use bombdroid::attacks::{minset, CoverageMap};
use bombdroid::crypto::{blob, hex, kdf};
use bombdroid::dex::{wire, BinOp, CondOp, Instr, Reg, RegOrConst, Value};
use bombdroid::runtime::CovEdge;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-z0-9 ]{0,24}".prop_map(Value::str),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Value::bytes),
    ]
}

/// Values of every kind whose canonical bodies reach 80 bytes, so with
/// salts up to 40 bytes the hashed message crosses the 55-byte limit of
/// one SHA-1 block.
fn arb_hashed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-z0-9 ]{0,80}".prop_map(Value::str),
        proptest::collection::vec(any::<u8>(), 0..81).prop_map(Value::bytes),
    ]
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u16..32).prop_map(Reg)
}

/// Edges over a small universe so random lists overlap (exercising dedup,
/// merge, and minset tie-breaking instead of trivially disjoint sets).
fn arb_edges() -> impl Strategy<Value = Vec<CovEdge>> {
    proptest::collection::vec((0u32..4, 0u32..12, 0u32..12), 0..24)
}

/// A straight-line instruction (branch-free so any sequence is a valid
/// fragment).
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), arb_value()).prop_map(|(dst, value)| Instr::Const { dst, value }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| Instr::Move { dst, src }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(dst, lhs, rhs)| Instr::BinOp {
            op: BinOp::Add,
            dst,
            lhs,
            rhs
        }),
        (arb_reg(), arb_reg(), any::<i64>()).prop_map(|(dst, lhs, rhs)| Instr::BinOpConst {
            op: BinOp::Xor,
            dst,
            lhs,
            rhs
        }),
        (
            arb_reg(),
            arb_reg(),
            proptest::collection::vec(any::<u8>(), 0..24)
        )
            .prop_map(|(dst, src, salt)| Instr::Hash { dst, src, salt }),
        Just(Instr::Nop),
        Just(Instr::Return { src: None }),
    ]
}

proptest! {
    #[test]
    fn wire_fragment_roundtrip(body in proptest::collection::vec(arb_instr(), 0..60)) {
        let bytes = wire::encode_fragment(&body);
        let back = wire::decode_fragment(&bytes).expect("decode");
        prop_assert_eq!(back, body);
    }

    #[test]
    fn value_canonical_bytes_injective_across_types(a in arb_value(), b in arb_value()) {
        // canonical_bytes must distinguish any two distinct values.
        if a != b {
            prop_assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        } else {
            prop_assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        }
    }

    #[test]
    fn sealed_blobs_roundtrip_and_authenticate(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        key_a in any::<[u8; 16]>(),
        key_b in any::<[u8; 16]>(),
    ) {
        let sealed = blob::seal(&key_a, &payload);
        prop_assert_eq!(blob::open(&key_a, &sealed).expect("right key"), payload);
        if key_a != key_b {
            prop_assert!(blob::open(&key_b, &sealed).is_err());
        }
    }

    #[test]
    fn sealed_blob_tamper_detection(
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        key in any::<[u8; 16]>(),
        flip in any::<(usize, u8)>(),
    ) {
        let mut sealed = blob::seal(&key, &payload);
        let idx = flip.0 % sealed.len();
        let bit = 1u8 << (flip.1 % 8);
        sealed[idx] ^= bit;
        prop_assert!(blob::open(&key, &sealed).is_err());
    }

    #[test]
    fn stego_roundtrips_any_bytes(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let cover = stego::embed(&payload);
        prop_assert_eq!(stego::extract(&cover).expect("valid cover"), payload);
    }

    #[test]
    fn hex_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).expect("valid hex"), data);
    }

    #[test]
    fn kdf_is_deterministic_and_salt_sensitive(
        c in proptest::collection::vec(any::<u8>(), 0..32),
        salt_a in proptest::collection::vec(any::<u8>(), 1..16),
        salt_b in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        prop_assert_eq!(kdf::derive_key(&c, &salt_a), kdf::derive_key(&c, &salt_a));
        if salt_a != salt_b {
            prop_assert_ne!(kdf::derive_key(&c, &salt_a), kdf::derive_key(&c, &salt_b));
        }
    }

    /// The per-condition hasher and the tagged key derivation take a
    /// value's tag and body without `canonical_bytes` and equal the
    /// definitions on the assembled bytes, for every value kind.
    #[test]
    fn one_block_hashing_matches_the_definition(
        v in arb_hashed_value(),
        salt in proptest::collection::vec(any::<u8>(), 0..41),
    ) {
        let c = v.canonical_bytes();
        let hasher = kdf::ConditionHasher::new(&salt);
        prop_assert_eq!(
            v.with_canonical(|tag, body| hasher.hash(tag, body)),
            kdf::condition_hash(&c, &salt)
        );
        prop_assert_eq!(
            v.with_canonical(|tag, body| kdf::derive_key_tagged(tag, body, &salt)),
            kdf::derive_key(&c, &salt)
        );
    }

    #[test]
    fn rsa_signatures_bind_message_and_key(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = DeveloperKey::generate(&mut rng);
        let other = DeveloperKey::generate(&mut rng);
        let sig = key.sign(&msg);
        prop_assert!(key.public.verify(&msg, sig));
        let mut tampered = msg.clone();
        tampered.push(0x01);
        prop_assert!(!key.public.verify(&tampered, sig));
        prop_assert!(!other.public.verify(&msg, sig));
    }

    #[test]
    fn generated_apps_always_validate(seed in any::<u64>(), cat_idx in 0usize..8) {
        let category = bombdroid::corpus::Category::ALL[cat_idx];
        let app = bombdroid::corpus::generate_app("PropApp", category, seed);
        prop_assert!(bombdroid::dex::validate(&app.dex).is_ok());
        prop_assert!(!app.dex.entry_points.is_empty());
    }

    #[test]
    fn favorites_stay_in_domain(lo in -1_000i64..1_000, span in 1i64..100_000, idx in 0usize..4) {
        let domain = bombdroid::dex::ParamDomain::IntRange(lo, lo + span);
        for v in bombdroid::runtime::param_favorites(&domain, "ev", idx) {
            match v {
                Value::Int(i) => prop_assert!((lo..=lo + span).contains(&i)),
                other => prop_assert!(false, "unexpected favourite {other:?}"),
            }
        }
    }

    /// Coverage only grows: absorbing more edges never loses one, the gain
    /// count is exact, and a grown map is always a superset of its past.
    #[test]
    fn coverage_absorb_is_monotone(batches in proptest::collection::vec(arb_edges(), 0..6)) {
        let mut map = CoverageMap::new();
        for batch in &batches {
            let before = map.clone();
            let gained = map.absorb(batch);
            prop_assert_eq!(map.len(), before.len() + gained);
            prop_assert!(map.is_superset(&before), "absorb dropped an edge");
            for e in batch {
                prop_assert!(map.contains(e));
            }
            // Re-absorbing the same batch is a no-op (set semantics).
            prop_assert_eq!(map.absorb(batch), 0);
        }
    }

    /// Merge is commutative and idempotent, and fingerprints agree iff the
    /// edge sets do — the campaign's shard-merge order cannot matter.
    #[test]
    fn coverage_merge_commutes_and_is_idempotent(a in arb_edges(), b in arb_edges()) {
        let ma = CoverageMap::from_edges(a.iter().copied());
        let mb = CoverageMap::from_edges(b.iter().copied());
        let mut ab = ma.clone();
        ab.merge(&mb);
        let mut ba = mb.clone();
        ba.merge(&ma);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.fingerprint(), ba.fingerprint());
        prop_assert_eq!(ab.edges(), ba.edges());
        let mut again = ab.clone();
        prop_assert_eq!(again.merge(&mb), 0, "second merge must add nothing");
        prop_assert_eq!(&again, &ab);
        // Self-merge is the identity.
        let mut selfed = ma.clone();
        prop_assert_eq!(selfed.merge(&ma), 0);
        prop_assert_eq!(&selfed, &ma);
    }

    /// The greedy minset keeps a subset of the corpus (ascending, in-range,
    /// duplicate-free) whose union coverage equals the full corpus's.
    #[test]
    fn minimized_corpus_preserves_union_coverage(covers in proptest::collection::vec(arb_edges(), 0..10)) {
        let kept = minset(&covers);
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "indices must be strictly ascending");
        prop_assert!(kept.iter().all(|&i| i < covers.len()));
        let mut full = CoverageMap::new();
        for c in &covers {
            full.absorb(c);
        }
        let mut min = CoverageMap::new();
        for &i in &kept {
            min.absorb(&covers[i]);
        }
        prop_assert_eq!(&min, &full, "minimized corpus lost coverage");
        prop_assert_eq!(min.fingerprint(), full.fingerprint());
        // Greedy never selects a zero-gain input, so an input with no edges
        // can never be kept, and the minset is at most the number of
        // edge-bearing inputs.
        prop_assert!(kept.iter().all(|&i| !covers[i].is_empty()));
        prop_assert!(kept.len() <= covers.iter().filter(|c| !c.is_empty()).count());
        // Determinism: same corpus, same minset.
        prop_assert_eq!(minset(&covers), kept);
    }

    #[test]
    fn condop_negation_flips_comparisons(a in any::<i64>(), b in any::<i64>(), op_idx in 0usize..6) {
        use bombdroid::dex::CondOp::*;
        let op = [Eq, Ne, Lt, Le, Gt, Ge][op_idx];
        let holds = |op: CondOp| match op {
            Eq => a == b,
            Ne => a != b,
            Lt => a < b,
            Le => a <= b,
            Gt => a > b,
            Ge => a >= b,
        };
        prop_assert_eq!(holds(op), !holds(op.negate()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Protecting a generated app keeps the DEX valid and erases every
    /// armed plaintext constant — across random app seeds.
    #[test]
    fn protection_validates_across_random_apps(seed in any::<u64>()) {
        use bombdroid::core::{ProtectConfig, Protector};
        let app = bombdroid::corpus::generate_app(
            "PropProtect",
            bombdroid::corpus::Category::Game,
            seed,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let dev = DeveloperKey::generate(&mut rng);
        let apk = app.apk(&dev);
        let protected = Protector::new(ProtectConfig::fast_profile())
            .protect(&apk, &mut rng)
            .expect("protect");
        prop_assert!(bombdroid::dex::validate(&protected.dex).is_ok());
        // Every DecryptExec is guarded by a preceding salted hash compare
        // in the same method.
        for m in protected.dex.methods() {
            for (pc, i) in m.body.iter().enumerate() {
                if matches!(i, Instr::DecryptExec { .. }) {
                    let guarded = m.body[..pc].iter().rev().take(4).any(|j| {
                        matches!(
                            j,
                            Instr::If {
                                rhs: RegOrConst::Const(Value::Bytes(_)),
                                ..
                            }
                        )
                    });
                    prop_assert!(guarded, "{}@{pc}: unguarded DecryptExec", m.method_ref());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Population-scale measurement lands in the paper's inner-trigger
    /// band: for bombs whose predicted probability sits in p ∈ [0.1, 0.2]
    /// (the band `InnerCond::synthesize` targets), a 10^4-device run
    /// measures each bomb's conditional firing rate within tolerance, and
    /// the outer-weighted mean stays inside the band.
    #[test]
    fn population_measurement_lands_in_trigger_band(
        seed in any::<u64>(),
        probs in proptest::collection::vec(100_000u64..200_001, 2..5),
    ) {
        use bombdroid::sim::{BombCatalog, BombEntry, SimConfig, Simulator, SyntheticRunner};
        let catalog = BombCatalog::new(
            probs
                .iter()
                .enumerate()
                .map(|(i, &predicted_ppm)| BombEntry {
                    marker: i as u32,
                    blob: 100 + i as u32,
                    predicted_ppm,
                })
                .collect(),
        );
        let mut config = SimConfig::new(10_000, 5, seed);
        config.market.halt_on_takedown = false;
        let mut sim = Simulator::new(config, catalog.clone(), SyntheticRunner::new(catalog));
        sim.run();
        let mut weighted = 0u128;
        let mut outer_total = 0u128;
        for (entry, stats) in sim.bomb_stats() {
            prop_assert!(stats.outer_sessions > 5_000, "outer trigger starved");
            let measured = stats.measured_ppm() as i64;
            let predicted = entry.predicted_ppm as i64;
            prop_assert!(
                (measured - predicted).abs() < 30_000,
                "bomb {}: measured {measured} ppm vs predicted {predicted} ppm",
                entry.marker
            );
            weighted += stats.measured_ppm() as u128 * stats.outer_sessions as u128;
            outer_total += stats.outer_sessions as u128;
        }
        let mean = (weighted / outer_total) as i64;
        prop_assert!(
            (70_000..=230_000).contains(&mean),
            "weighted mean {mean} ppm outside band"
        );
    }

    /// Checkpoint → resume → report is bit-identical for arbitrary kill
    /// points: killing the day loop after any chunk and resuming from the
    /// serialized state reproduces the uninterrupted run's report
    /// byte-for-byte (threads may even change across the cycle).
    #[test]
    fn checkpoint_resume_is_bit_identical(
        seed in any::<u64>(),
        kill_after in 1usize..12,
        threads_before in 1usize..4,
        threads_after in 1usize..4,
    ) {
        use bombdroid::sim::{BombCatalog, BombEntry, SimConfig, Simulator, SyntheticRunner};
        let catalog = BombCatalog::new(vec![BombEntry {
            marker: 1,
            blob: 9,
            predicted_ppm: 150_000,
        }]);
        let mut config = SimConfig::new(1_536, 6, seed);
        config.window = 32;
        config.checkpoint_every = 2;
        config.market.halt_on_takedown = false;

        let mut whole = Simulator::new(config, catalog.clone(), SyntheticRunner::new(catalog.clone()));
        whole.run();
        let expected = whole.report_json().unwrap();

        let mut killed = Simulator::new(config, catalog.clone(), SyntheticRunner::new(catalog.clone()));
        killed.set_threads(Some(threads_before));
        let mut steps = 0usize;
        while steps < kill_after && killed.step() {
            steps += 1;
        }
        if killed.done() {
            // Run was short enough to finish before the kill point — the
            // uninterrupted report must still match.
            prop_assert_eq!(killed.report_json().unwrap(), expected);
            return;
        }
        let ckpt = killed.checkpoint_json().unwrap();
        drop(killed);

        let mut resumed =
            Simulator::from_checkpoint(&ckpt, SyntheticRunner::new(catalog)).unwrap();
        resumed.set_threads(Some(threads_after));
        resumed.run();
        prop_assert_eq!(resumed.report_json().unwrap(), expected);
    }
}
