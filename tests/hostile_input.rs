//! Inputs that cross a trust boundary must decode to a value or a typed
//! error. A length field may never size an allocation on its own: these
//! fragments declare counts near `u32::MAX` over a few bytes of input, and
//! decoding them must fail cleanly instead of aborting the process. An
//! uploaded app's code is such an input too: profiling it may not allocate
//! without bound, an entry point must declare parameters an event can be
//! drawn from before profiling runs it, and the values it writes may not
//! make planning its protection slow.

use bombdroid::core::{profile_app, ProtectConfig, ProtectError};
use bombdroid::dex::{
    wire, BinOp, Class, CondOp, DexFile, EntryPoint, Field, FieldRef, Instr, MethodBuilder,
    MethodRef, ParamDomain, RegOrConst, StrOp, ValidateError, Value,
};
use bombdroid::prelude::*;
use bombdroid::runtime::telemetry::FIELD_SAMPLE_CAP;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

#[test]
fn oversized_counts_in_fragments_are_errors() {
    let hostile: [&[u8]; 3] = [
        // One instruction: a switch on v0 claiming 2^32 - 1 arms.
        &[1, 0, 0, 0, 7, 0, 0, 0xff, 0xff, 0xff, 0xff],
        // A fragment claiming 2^32 - 1 instructions.
        &[0xff, 0xff, 0xff, 0xff, 8, 0, 0, 0, 0],
        // A switch claiming 2^28 arms with only one arm after it.
        &[
            1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
        ],
    ];
    for bytes in hostile {
        assert!(
            wire::decode_fragment(bytes).is_err(),
            "{bytes:02x?} must be rejected"
        );
    }
}

/// A one-method app whose only event handler runs `body` on a fresh
/// register.
fn hostile_app(name: &str, body: impl FnOnce(&mut MethodBuilder)) -> ApkFile {
    app_with_params(name, vec![], body)
}

/// A one-method app whose only event handler takes parameters drawn from
/// `params` and runs `body`.
fn app_with_params(
    name: &str,
    params: Vec<ParamDomain>,
    body: impl FnOnce(&mut MethodBuilder),
) -> ApkFile {
    app_with_statics(name, params, &[], body)
}

/// [`app_with_params`] with static fields `statics` declared on its class.
fn app_with_statics(
    name: &str,
    params: Vec<ParamDomain>,
    statics: &[String],
    body: impl FnOnce(&mut MethodBuilder),
) -> ApkFile {
    let mut dex = DexFile::new();
    let mut class = Class::new("H");
    class.fields.extend(statics.iter().map(Field::stat));
    let mut b = MethodBuilder::new("H", "onEvent", params.len() as u16);
    body(&mut b);
    class.methods.push(b.finish());
    dex.classes.push(class);
    dex.entry_points.push(EntryPoint {
        event: Arc::from("onEvent"),
        method: MethodRef::new("H", "onEvent"),
        params,
        user_weight: 1.0,
    });
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(0x4EA9));
    package_app(&dex, StringsXml::new(), AppMeta::named(name), &dev)
}

#[test]
fn runaway_allocation_in_an_uploaded_app_is_a_fault() {
    // Each event of the first app asks for arrays of 10^6 slots until its
    // fuel runs out (~100k of them); each event of the second doubles a
    // string until its fuel runs out. Both stop at the VM's heap budget.
    let arrays = hostile_app("arrays", |b| {
        let (len, arr) = (b.fresh_reg(), b.fresh_reg());
        b.const_(len, 1_000_000i64);
        let top = b.fresh_label();
        b.place_label(top);
        b.push(Instr::NewArray { dst: arr, len });
        b.goto(top);
    });
    let concat = hostile_app("concat", |b| {
        let s = b.fresh_reg();
        b.const_(s, Value::str("ab"));
        let top = b.fresh_label();
        b.place_label(top);
        b.str_op(StrOp::Concat, s, s, Some(s));
        b.goto(top);
    });
    let config = ProtectConfig {
        profiling_events: 200,
        ..ProtectConfig::default()
    };
    for apk in [arrays, concat] {
        let profile = profile_app(&apk, &config, 7).expect("profiling returns");
        assert_eq!(profile.telemetry.events_run, config.profiling_events);
        assert_eq!(profile.method_calls[&MethodRef::new("H", "onEvent")], 200);
    }
}

#[test]
fn unsampleable_parameter_domains_are_rejected_before_profiling() {
    // A reversed range and an empty choice make the event generator panic
    // ("cannot sample empty range"); a 4 GiB text bound makes it build
    // strings of up to 4 GiB. None of them may reach the VM.
    let domains = [
        ParamDomain::IntRange(10, -10),
        ParamDomain::Choice(vec![]),
        ParamDomain::Text { max_len: u32::MAX },
    ];
    let config = ProtectConfig {
        profiling_events: 200,
        ..ProtectConfig::default()
    };
    for domain in domains {
        let apk = app_with_params("domains", vec![domain.clone()], |b| {
            b.ret_void();
        });
        let err = match profile_app(&apk, &config, 7) {
            Err(ProtectError::EntryDomains(errs)) => errs,
            other => panic!("{domain:?}: expected a domain error, got {other:?}"),
        };
        assert!(
            matches!(
                err[..],
                [ValidateError::EmptyIntRange { .. }
                    | ValidateError::EmptyChoice { .. }
                    | ValidateError::TextTooLong { .. }]
            ),
            "{domain:?}: {err:?}"
        );
        let mut rng = StdRng::seed_from_u64(1);
        assert!(
            matches!(
                Protector::new(config.clone()).protect(&apk, &mut rng),
                Err(ProtectError::EntryDomains(_))
            ),
            "{domain:?}: protect must refuse the app too"
        );
    }
}

/// An app whose event handler writes `((i * stride) * unmix) ^ mask` for
/// i = 0, 1, ... to each of `fields` static fields, `per_event` values per
/// event, until every field holds [`FIELD_SAMPLE_CAP`] samples.
fn field_writer(
    name: &str,
    fields: usize,
    per_event: i64,
    [stride, unmix, mask]: [i64; 3],
) -> ApkFile {
    let mut statics: Vec<String> = (0..fields).map(|f| format!("f{f}")).collect();
    statics.push("next".into());
    app_with_statics(name, vec![], &statics, |b| {
        let (i, end, x) = (b.fresh_reg(), b.fresh_reg(), b.fresh_reg());
        let (top, done) = (b.fresh_label(), b.fresh_label());
        b.get_static(i, FieldRef::new("H", "next"));
        b.bin_const(BinOp::Add, end, i, per_event);
        b.place_label(top);
        b.if_(CondOp::Ge, i, RegOrConst::Reg(end), done);
        b.if_(
            CondOp::Ge,
            i,
            RegOrConst::Const(Value::Int(FIELD_SAMPLE_CAP as i64)),
            done,
        );
        b.bin_const(BinOp::Mul, x, i, stride);
        b.bin_const(BinOp::Mul, x, x, unmix);
        b.bin_const(BinOp::Xor, x, x, mask);
        for f in 0..fields {
            b.put_static(FieldRef::new("H", format!("f{f}")), x);
        }
        b.bin_const(BinOp::Add, i, i, 1);
        b.goto(top);
        b.place_label(done);
        b.put_static(FieldRef::new("H", "next"), i);
        b.ret_void();
    })
}

/// `x` with `x * k == 1` (mod 2^64), for odd `k` (Newton's iteration).
fn mul_inverse(k: u64) -> u64 {
    let mut inv = k;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(inv)));
    }
    inv
}

#[test]
fn colliding_field_values_do_not_make_planning_quadratic() {
    // A keyless multiply-xor hash (FxHash: per word, rotate left 5, xor,
    // multiply by K; this variant also rotates its result left by 26) can
    // be inverted by an app. Hashing `Value::Int(x)` mixes the
    // discriminant 2, then x, so the product before the final rotation is
    // `(rotl(2K, 5) ^ x) * K`. Choosing that product as `i * (2^52 + 1)`
    // keeps its bits 31..=51 at zero for every i < 2^31. After the
    // rotation those are the bits a table of 8,192 entries indexes by and
    // tags entries with, so every value lands in one bucket with one tag
    // and each insert compares against all earlier values of its field.
    // The app writes 8,192 such values (the sample cap) to each of 64
    // static fields. Its protect must take about as long as that of an app
    // writing 0, 1, 2, ... the same way; with that hash it took 80 (release
    // build) to 170 (debug build) times as long.
    const K: u64 = 0x517c_c1b7_2722_0a95;
    const FIELDS: usize = 64;
    const PER_EVENT: i64 = 2_000;
    let mix = 2u64.wrapping_mul(K).rotate_left(5);
    let colliding = [(1i64 << 52) + 1, mul_inverse(K) as i64, mix as i64];
    let value = |i: i64| i.wrapping_mul(colliding[0]).wrapping_mul(colliding[1]) ^ colliding[2];
    let table_bits = |x: i64| {
        let h = (mix ^ x as u64).wrapping_mul(K);
        h.rotate_left(26) & 0xfe00_0000_0000_3fff
    };
    assert_eq!(mul_inverse(K).wrapping_mul(K), 1);
    assert!((1..FIELD_SAMPLE_CAP as i64).all(|i| table_bits(value(i)) == table_bits(value(0))));

    let config = ProtectConfig::default();
    let protect_time = |apk: &ApkFile| {
        let start = Instant::now();
        Protector::new(config.clone())
            .protect(apk, &mut StdRng::seed_from_u64(1))
            .expect("the app protects");
        start.elapsed()
    };
    let hostile = field_writer("collide", FIELDS, PER_EVENT, colliding);
    let profile = profile_app(&hostile, &config, 7).expect("profiling returns");
    let field = profile.field_values.get("H.f0").expect("H.f0 is sampled");
    assert_eq!(field.len(), FIELD_SAMPLE_CAP);
    assert_eq!(field[9].1, Value::Int(value(9)));

    let plain = protect_time(&field_writer("plain", FIELDS, PER_EVENT, [1, 1, 0]));
    let took = protect_time(&hostile);
    assert!(
        took < plain * 4,
        "colliding values: {took:?}; plain values: {plain:?}"
    );
}
