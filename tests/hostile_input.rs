//! Inputs that cross a trust boundary must decode to a value or a typed
//! error. A length field may never size an allocation on its own: these
//! fragments declare counts near `u32::MAX` over a few bytes of input, and
//! decoding them must fail cleanly instead of aborting the process. An
//! uploaded app's code is such an input too: profiling it may not allocate
//! without bound, and an entry point must declare parameters an event
//! can be drawn from before profiling runs it.

use bombdroid::core::{profile_app, ProtectConfig, ProtectError};
use bombdroid::dex::{
    wire, Class, DexFile, EntryPoint, Instr, MethodBuilder, MethodRef, ParamDomain, StrOp,
    ValidateError, Value,
};
use bombdroid::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

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
    let mut dex = DexFile::new();
    let mut class = Class::new("H");
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
