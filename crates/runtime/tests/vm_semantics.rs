//! Interpreter semantics tests: arithmetic, control flow, heap, host APIs,
//! and the two bomb instructions (salted hash, decrypt-and-execute).

use bombdroid_apk::{package_app, AppMeta, DeveloperKey, StringsXml};
use bombdroid_crypto::kdf;
use bombdroid_dex::{
    wire, BinOp, BlobId, Class, CondOp, DexFile, EncryptedBlob, Field, FieldRef, HostApi, Instr,
    MethodBuilder, MethodRef, Reg, RegOrConst, StrOp, Value,
};
use bombdroid_runtime::{
    DeviceEnv, Fault, InstalledPackage, RtValue, Vm, VmOptions, HEAP_CELL_BUDGET, MAX_CONCAT_LEN,
};
use rand::{rngs::StdRng, SeedableRng};

fn install(dex: DexFile) -> InstalledPackage {
    let mut rng = StdRng::seed_from_u64(99);
    let dev = DeveloperKey::generate(&mut rng);
    let mut strings = StringsXml::new();
    strings.set("app_name", "vmtest");
    let apk = package_app(&dex, strings, AppMeta::named("vmtest"), &dev);
    InstalledPackage::install(&apk).expect("install")
}

fn boot(dex: DexFile) -> Vm {
    Vm::boot(install(dex), DeviceEnv::attacker_lab(1).remove(0), 42)
}

fn one_method_dex(build: impl FnOnce(&mut MethodBuilder)) -> DexFile {
    let mut dex = DexFile::new();
    let mut class = Class::new("T");
    let mut b = MethodBuilder::new("T", "m", 1);
    build(&mut b);
    class.methods.push(b.finish());
    dex.classes.push(class);
    dex
}

fn run_one(dex: DexFile, arg: RtValue) -> (Vm, Result<(), Fault>) {
    let mut vm = boot(dex);
    let outcome = vm.fire_method(&MethodRef::new("T", "m"), vec![arg]);
    (vm, outcome.result)
}

#[test]
fn arithmetic_and_branches() {
    // return (x * 3 + 1) via a static so we can observe it
    let dex = one_method_dex(|b| {
        let t = b.fresh_reg();
        b.bin_const(BinOp::Mul, t, Reg(0), 3);
        b.bin_const(BinOp::Add, t, t, 1);
        b.put_static(FieldRef::new("T", "OUT"), t);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(7));
    result.unwrap();
    // 7*3+1 = 22
    assert_eq!(vm.telemetry().events_run, 1);
    // observe via another run below; here just check no faults occurred.
}

#[test]
fn division_by_zero_faults() {
    let dex = one_method_dex(|b| {
        let t = b.fresh_reg();
        b.const_(t, 0i64);
        b.bin(BinOp::Div, t, Reg(0), t);
        b.ret_void();
    });
    let (_, result) = run_one(dex, RtValue::Int(10));
    assert_eq!(result, Err(Fault::DivByZero));
}

#[test]
fn loops_terminate_with_fuel() {
    // while(true) {} must end with OutOfFuel, not hang.
    let dex = one_method_dex(|b| {
        let top = b.fresh_label();
        b.place_label(top);
        b.goto(top);
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    assert_eq!(result, Err(Fault::OutOfFuel));
    assert!(vm.telemetry().instr_executed >= VmOptions::default().fuel_per_event);
}

#[test]
fn string_ops() {
    let dex = one_method_dex(|b| {
        let s = b.fresh_reg();
        let p = b.fresh_reg();
        let out = b.fresh_reg();
        b.const_(s, Value::str("hello-world"));
        b.const_(p, Value::str("hello"));
        b.str_op(StrOp::StartsWith, out, s, Some(p));
        let fail = b.fresh_label();
        b.if_not(CondOp::Eq, out, RegOrConst::Const(Value::Bool(true)), fail);
        b.host_log("starts-with ok");
        b.place_label(fail);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    result.unwrap();
    assert_eq!(vm.telemetry().logs.len(), 1);
}

#[test]
fn objects_and_arrays() {
    let dex = one_method_dex(|b| {
        let obj = b.fresh_reg();
        let v = b.fresh_reg();
        b.push(Instr::NewInstance {
            dst: obj,
            class: "T".into(),
        });
        b.const_(v, 41i64);
        b.put_field(obj, FieldRef::new("T", "x"), v);
        b.get_field(v, obj, FieldRef::new("T", "x"));
        b.bin_const(BinOp::Add, v, v, 1);
        // array of length 3, store at idx 2, read back
        let len = b.fresh_reg();
        let arr = b.fresh_reg();
        let idx = b.fresh_reg();
        b.const_(len, 3i64);
        b.push(Instr::NewArray { dst: arr, len });
        b.const_(idx, 2i64);
        b.push(Instr::ArrayPut { arr, idx, src: v });
        b.push(Instr::ArrayGet { dst: v, arr, idx });
        let bad = b.fresh_label();
        b.if_not(CondOp::Eq, v, RegOrConst::Const(Value::Int(42)), bad);
        b.host_log("heap ok");
        b.place_label(bad);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    result.unwrap();
    assert_eq!(vm.telemetry().logs, vec!["\"heap ok\""]);
}

#[test]
fn null_deref_faults() {
    let dex = one_method_dex(|b| {
        let v = b.fresh_reg();
        b.get_field(v, Reg(0), FieldRef::new("T", "x"));
        b.ret_void();
    });
    let (_, result) = run_one(dex, RtValue::Null);
    assert_eq!(result, Err(Fault::NullDeref));
}

#[test]
fn array_bounds_checked() {
    let dex = one_method_dex(|b| {
        let len = b.fresh_reg();
        let arr = b.fresh_reg();
        let v = b.fresh_reg();
        b.const_(len, 2i64);
        b.push(Instr::NewArray { dst: arr, len });
        b.push(Instr::ArrayGet {
            dst: v,
            arr,
            idx: Reg(0),
        });
        b.ret_void();
    });
    let (_, result) = run_one(dex, RtValue::Int(5));
    assert_eq!(result, Err(Fault::IndexOutOfBounds));
}

/// Builds a dex with a cryptographically obfuscated bomb exactly as the
/// paper's Listing 3: `if (Hash(x|salt) == Hc) { decrypt & run payload }`.
fn bomb_dex(payload: Vec<Instr>, secret: i64) -> DexFile {
    let salt = b"unit-test-salt".to_vec();
    let secret_value = Value::Int(secret);
    let hc = kdf::condition_hash(&secret_value.canonical_bytes(), &salt);
    let key = kdf::derive_key(&secret_value.canonical_bytes(), &salt);
    let sealed = bombdroid_crypto::blob::seal(&key, &wire::encode_fragment(&payload));

    let mut dex = DexFile::new();
    dex.add_blob(EncryptedBlob {
        salt: salt.clone(),
        sealed,
    });
    let mut class = Class::new("T");
    class.fields.push(Field::stat("OUT"));
    let mut b = MethodBuilder::new("T", "m", 1);
    let h = b.fresh_reg();
    b.hash(h, Reg(0), salt);
    let skip = b.fresh_label();
    b.if_not(CondOp::Eq, h, RegOrConst::Const(Value::bytes(hc)), skip);
    b.decrypt_exec(BlobId(0), Reg(0));
    b.place_label(skip);
    b.ret_void();
    class.methods.push(b.finish());
    dex.classes.push(class);
    dex
}

#[test]
fn bomb_dormant_on_wrong_input() {
    let payload = vec![Instr::HostCall {
        api: HostApi::Marker(7),
        args: vec![],
        dst: None,
    }];
    let (vm, result) = run_one(bomb_dex(payload, 0xfff000), RtValue::Int(123));
    result.unwrap();
    assert!(vm.telemetry().markers.is_empty());
    assert!(vm.telemetry().blobs_decrypted.is_empty());
    assert!(vm.telemetry().outer_satisfied.is_empty());
}

#[test]
fn bomb_fires_on_matching_input() {
    let payload = vec![Instr::HostCall {
        api: HostApi::Marker(7),
        args: vec![],
        dst: None,
    }];
    let (vm, result) = run_one(bomb_dex(payload, 0xfff000), RtValue::Int(0xfff000));
    result.unwrap();
    assert!(vm.telemetry().markers.contains(&7));
    assert_eq!(vm.telemetry().blobs_decrypted.len(), 1);
    assert_eq!(vm.telemetry().outer_satisfied.len(), 1);
    assert!(vm.telemetry().first_marker_ms.is_some());
}

#[test]
fn forcing_the_branch_without_key_fails_decryption() {
    // An attacker patches the branch away and jumps straight to the
    // DecryptExec with an arbitrary register value: MAC failure.
    let payload = vec![Instr::HostCall {
        api: HostApi::Marker(7),
        args: vec![],
        dst: None,
    }];
    let mut dex = bomb_dex(payload, 0xfff000);
    // Patch: replace the If with a Nop so execution always reaches the bomb.
    let m = dex.classes[0].methods.iter_mut().next().unwrap();
    let if_pos = m
        .body
        .iter()
        .position(|i| matches!(i, Instr::If { .. }))
        .unwrap();
    m.body[if_pos] = Instr::Nop;
    let (vm, result) = run_one(dex, RtValue::Int(55));
    assert_eq!(result, Err(Fault::DecryptFailed));
    assert_eq!(vm.telemetry().decrypt_failures, 1);
    assert!(vm.telemetry().markers.is_empty(), "payload never ran");
}

#[test]
fn fragment_cache_makes_second_trigger_cheap() {
    let payload = vec![Instr::HostCall {
        api: HostApi::Marker(1),
        args: vec![],
        dst: None,
    }];
    let mut vm = boot(bomb_dex(payload, 5));
    let mref = MethodRef::new("T", "m");
    let first = vm.fire_method(&mref, vec![RtValue::Int(5)]);
    let second = vm.fire_method(&mref, vec![RtValue::Int(5)]);
    first.result.unwrap();
    second.result.unwrap();
    assert!(
        second.instr < first.instr,
        "cached decrypt should be cheaper: {} vs {}",
        second.instr,
        first.instr
    );
}

#[test]
fn responses_kill_and_freeze() {
    let dex = one_method_dex(|b| {
        b.host(HostApi::KillProcess, vec![], None);
        b.ret_void();
    });
    let (mut vm, result) = run_one(dex, RtValue::Int(0));
    assert_eq!(result, Err(Fault::Killed));
    assert!(vm.is_killed());
    // Subsequent events are dead on arrival.
    let again = vm.fire_method(&MethodRef::new("T", "m"), vec![RtValue::Int(0)]);
    assert_eq!(again.result, Err(Fault::Killed));

    let dex = one_method_dex(|b| {
        b.host(HostApi::Freeze, vec![], None);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    assert_eq!(result, Err(Fault::Frozen));
    assert!(vm.is_frozen());
}

#[test]
fn detection_primitives_read_installed_state() {
    let dex = one_method_dex(|b| {
        let k = b.fresh_reg();
        b.host(HostApi::GetPublicKey, vec![], Some(k));
        let entry = b.fresh_reg();
        b.const_(entry, Value::str("classes.dex"));
        let d = b.fresh_reg();
        b.host(HostApi::GetManifestDigest, vec![entry], Some(d));
        let cls = b.fresh_reg();
        b.const_(cls, Value::str("T"));
        let cd = b.fresh_reg();
        b.host(HostApi::CodeDigest, vec![cls], Some(cd));
        let res = b.fresh_reg();
        b.const_(res, Value::str("app_name"));
        let rs = b.fresh_reg();
        b.host(HostApi::GetResourceString, vec![res], Some(rs));
        // Log the resource so we can assert on it.
        b.host(HostApi::Log, vec![rs], None);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    result.unwrap();
    assert_eq!(vm.telemetry().logs, vec!["\"vmtest\""]);
}

#[test]
fn attacker_hooks_fake_public_key_and_rng() {
    let dex = one_method_dex(|b| {
        let k = b.fresh_reg();
        b.host(HostApi::GetPublicKey, vec![], Some(k));
        let n = b.fresh_reg();
        b.const_(n, 100i64);
        let r = b.fresh_reg();
        b.host(HostApi::Random, vec![n], Some(r));
        b.host(HostApi::Log, vec![r], None);
        b.ret_void();
    });
    let pkg = install(dex);
    let mut opts = VmOptions::default();
    opts.hooks.fake_public_key = Some(vec![1, 2, 3]);
    opts.hooks.force_random = Some(0);
    let mut vm = Vm::new(pkg, DeviceEnv::attacker_lab(1).remove(0), 1, opts);
    vm.fire_method(&MethodRef::new("T", "m"), vec![RtValue::Int(0)])
        .result
        .unwrap();
    assert_eq!(vm.telemetry().logs, vec!["0"]);
}

#[test]
fn switch_dispatch() {
    let dex = one_method_dex(|b| {
        let a = b.fresh_label();
        let c = b.fresh_label();
        let d = b.fresh_label();
        let end = b.fresh_label();
        b.switch(Reg(0), vec![(1, a), (2, c)], d);
        b.place_label(a);
        b.host_log("one");
        b.goto(end);
        b.place_label(c);
        b.host_log("two");
        b.goto(end);
        b.place_label(d);
        b.host_log("other");
        b.place_label(end);
        b.ret_void();
    });
    for (input, expected) in [(1i64, "\"one\""), (2, "\"two\""), (9, "\"other\"")] {
        let (vm, result) = run_one(dex.clone(), RtValue::Int(input));
        result.unwrap();
        assert_eq!(vm.telemetry().logs, vec![expected.to_string()]);
    }
}

#[test]
fn invoke_and_return_values() {
    let mut dex = DexFile::new();
    let mut class = Class::new("T");
    // T.add1(x) { return x + 1 }
    let mut callee = MethodBuilder::new("T", "add1", 1);
    let t = callee.fresh_reg();
    callee.bin_const(BinOp::Add, t, Reg(0), 1);
    callee.ret(t);
    class.methods.push(callee.finish());
    // T.m(x) { y = add1(x); if (y == 8) log("eight") }
    let mut b = MethodBuilder::new("T", "m", 1);
    let y = b.fresh_reg();
    b.invoke(MethodRef::new("T", "add1"), vec![Reg(0)], Some(y));
    let skip = b.fresh_label();
    b.if_not(CondOp::Eq, y, RegOrConst::Const(Value::Int(8)), skip);
    b.host_log("eight");
    b.place_label(skip);
    b.ret_void();
    class.methods.push(b.finish());
    dex.classes.push(class);

    let (vm, result) = run_one(dex, RtValue::Int(7));
    result.unwrap();
    assert_eq!(vm.telemetry().logs, vec!["\"eight\""]);
    assert_eq!(vm.method_calls()[&MethodRef::new("T", "add1")], 1);
}

#[test]
fn reflection_resolves_get_public_key() {
    // SSN-style hidden call: name recovered at runtime, invoked via
    // reflection.
    let dex = one_method_dex(|b| {
        let n = b.fresh_reg();
        b.const_(n, Value::str("getPublicKey"));
        let k = b.fresh_reg();
        b.push(Instr::InvokeReflect {
            name: n,
            args: vec![],
            dst: Some(k),
        });
        b.ret_void();
    });
    let pkg = install(dex);
    let mut opts = VmOptions::default();
    opts.hooks.trace_reflection = true;
    let mut vm = Vm::new(pkg, DeviceEnv::attacker_lab(1).remove(0), 1, opts);
    vm.fire_method(&MethodRef::new("T", "m"), vec![RtValue::Int(0)])
        .result
        .unwrap();
    assert_eq!(vm.telemetry().reflection_trace.len(), 1);
    assert_eq!(vm.telemetry().reflection_trace[0].0, "getPublicKey");
}

#[test]
fn clock_advances_with_instructions_and_sleep() {
    let dex = one_method_dex(|b| {
        let ms = b.fresh_reg();
        b.const_(ms, 2_500i64);
        b.host(HostApi::SleepMs, vec![ms], None);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    result.unwrap();
    assert!(vm.clock_ms() >= 2_500);
}

/// Fires `T.m(arg)` under default options.
fn fire_m_default(dex: &DexFile, arg: i64) -> RunState {
    fire_m(dex, &VmOptions::default(), RtValue::Int(arg))
}

fn snap(entries: &[(&str, &str)]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn static_written_only_inside_a_fragment_reads_back_and_is_listed() {
    // Neither key appears in any method body: the fragment's decode is the
    // first to see them.
    let (v, echo) = (Reg(10), Reg(11));
    let payload = vec![
        Instr::Const {
            dst: v,
            value: Value::Int(77),
        },
        Instr::PutStatic {
            field: FieldRef::new("T", "HIDDEN"),
            src: v,
        },
        Instr::GetStatic {
            dst: echo,
            field: FieldRef::new("T", "HIDDEN"),
        },
        Instr::PutStatic {
            field: FieldRef::new("T", "ECHO"),
            src: echo,
        },
    ];
    let dex = bomb_dex(payload, 31);
    assert_eq!(fire_m_default(&dex, 30), state(Ok(()), 11, 0, &[]));
    assert_eq!(
        fire_m_default(&dex, 31),
        state(Ok(()), 71, 0, &[("T.ECHO", "77"), ("T.HIDDEN", "77")])
    );
}

#[test]
fn null_out_field_nulls_exactly_the_written_statics() {
    let dex = one_method_dex(|b| {
        let r = b.fresh_reg();
        b.get_static(r, FieldRef::new("T", "READ_ONLY"));
        b.const_(r, 5i64);
        b.put_static(FieldRef::new("T", "A"), r);
        b.const_(r, Value::str("s"));
        b.put_static(FieldRef::new("T", "B"), r);
        b.host(HostApi::NullOutField, vec![], None);
        b.ret_void();
    });
    assert_eq!(
        fire_m_default(&dex, 0),
        state(Ok(()), 21, 0, &[("T.A", "null"), ("T.B", "null")])
    );
}

#[test]
fn unwritten_static_reads_as_int_zero() {
    // Arithmetic on the read faults unless it is an Int.
    let dex = one_method_dex(|b| {
        let r = b.fresh_reg();
        b.get_static(r, FieldRef::new("T", "NEVER"));
        b.bin_const(BinOp::Add, r, r, 1);
        b.put_static(FieldRef::new("T", "OUT"), r);
        b.ret_void();
    });
    assert_eq!(
        fire_m_default(&dex, 0),
        state(Ok(()), 9, 0, &[("T.OUT", "1")])
    );
}

#[test]
fn a_forks_put_static_stays_in_that_fork() {
    // T.m(x): COUNT += 1; if x != 0 then NEW = x.
    let dex = one_method_dex(|b| {
        let c = b.fresh_reg();
        b.get_static(c, FieldRef::new("T", "COUNT"));
        b.bin_const(BinOp::Add, c, c, 1);
        b.put_static(FieldRef::new("T", "COUNT"), c);
        let skip = b.fresh_label();
        b.if_(CondOp::Eq, Reg(0), RegOrConst::Const(Value::Int(0)), skip);
        b.put_static(FieldRef::new("T", "NEW"), Reg(0));
        b.place_label(skip);
        b.ret_void();
    });
    let mref = MethodRef::new("T", "m");
    let env = || DeviceEnv::attacker_lab(1).remove(0);
    let mut parent = boot(dex);
    for _ in 0..2 {
        parent
            .fire_method(&mref, vec![RtValue::Int(0)])
            .result
            .unwrap();
    }
    let snapshot = parent.snapshot();
    let mut a = snapshot.fork(env(), 1);
    let b = snapshot.fork(env(), 2);
    for _ in 0..3 {
        a.fire_method(&mref, vec![RtValue::Int(9)]).result.unwrap();
    }
    assert_eq!(
        a.statics_snapshot(),
        snap(&[("T.COUNT", "5"), ("T.NEW", "9")])
    );
    let untouched = snap(&[("T.COUNT", "2")]);
    assert_eq!(b.statics_snapshot(), untouched);
    assert_eq!(snapshot.resume().statics_snapshot(), untouched);
    assert_eq!(parent.statics_snapshot(), untouched);
}

/// What one run of `T.m(arg)` leaves observable.
#[derive(Debug, PartialEq)]
struct RunState {
    result: Result<(), Fault>,
    instr: u64,
    clock: u64,
    statics: Vec<(String, String)>,
}

/// The expected [`RunState`] of a run.
fn state(result: Result<(), Fault>, instr: u64, clock: u64, statics: &[(&str, &str)]) -> RunState {
    RunState {
        result,
        instr,
        clock,
        statics: snap(statics),
    }
}

/// Fires `T.m(arg)` once under `opts`.
fn fire_m(dex: &DexFile, opts: &VmOptions, arg: RtValue) -> RunState {
    let env = DeviceEnv::attacker_lab(1).remove(0);
    let mut vm = Vm::new(install(dex.clone()), env, 42, opts.clone());
    let out = vm.fire_method(&MethodRef::new("T", "m"), vec![arg]);
    RunState {
        result: out.result,
        instr: vm.telemetry().instr_executed,
        clock: vm.clock_ms(),
        statics: vm.statics_snapshot(),
    }
}

/// `T.m(x)`: `OUT = x`, then the in-place chain `a = x; a += 5; a *= 3;
/// a = a <op> rhs; a += 1`, then `OUT = a`. Every chain step reads and
/// writes `a`, so the decoder may keep it in a local.
fn accumulator_dex(op: BinOp, rhs: Value) -> DexFile {
    one_method_dex(|b| {
        let (a, r) = (b.fresh_reg(), b.fresh_reg());
        b.put_static(FieldRef::new("T", "OUT"), Reg(0));
        b.const_(r, rhs);
        b.mov(a, Reg(0));
        b.bin_const(BinOp::Add, a, a, 5);
        b.bin_const(BinOp::Mul, a, a, 3);
        b.bin(op, a, a, r);
        b.bin_const(BinOp::Add, a, a, 1);
        b.put_static(FieldRef::new("T", "OUT"), a);
        b.ret_void();
    })
}

#[test]
fn accumulator_chain_fault_mid_chain_matches_step_by_step() {
    let opts = VmOptions::default();
    // 7 -> 12 -> 36 -> fault: the event ends with OUT still 7, and the
    // faulting step is charged like every step before it.
    for (op, rhs, fault) in [
        (BinOp::Div, Value::Int(0), Fault::DivByZero),
        (BinOp::Rem, Value::Int(0), Fault::DivByZero),
        (
            BinOp::Add,
            Value::str("s"),
            Fault::TypeError("binop rhs not int"),
        ),
    ] {
        let faulted = fire_m(&accumulator_dex(op, rhs), &opts, RtValue::Int(7));
        // call 5, put 1, const 1, move 1, three chain steps.
        assert_eq!(faulted, state(Err(fault), 11, 0, &[("T.OUT", "7")]));
    }
    let done = fire_m(
        &accumulator_dex(BinOp::Div, Value::Int(4)),
        &opts,
        RtValue::Int(7),
    );
    // ... plus the last step, the second put and the return.
    assert_eq!(done, state(Ok(()), 14, 0, &[("T.OUT", "10")]));
}

#[test]
fn accumulator_chain_rhs_may_read_the_accumulator() {
    // a = x; a = a + a; a = a + a; a = a * 3; OUT = a.
    let dex = one_method_dex(|b| {
        let a = b.fresh_reg();
        b.mov(a, Reg(0));
        b.bin(BinOp::Add, a, a, a);
        b.bin(BinOp::Add, a, a, a);
        b.bin_const(BinOp::Mul, a, a, 3);
        b.put_static(FieldRef::new("T", "OUT"), a);
        b.ret_void();
    });
    let run = fire_m(&dex, &VmOptions::default(), RtValue::Int(5));
    assert_eq!(run, state(Ok(()), 11, 0, &[("T.OUT", "60")]));
}

#[test]
fn accumulator_chain_on_a_bool_register() {
    // A Bool accumulator and a Bool rhs coerce to 0/1 like any binop:
    // a = true; a = a + a; a = a + t; a = a * 10; OUT = a.
    let dex = one_method_dex(|b| {
        let (a, t) = (b.fresh_reg(), b.fresh_reg());
        b.const_(t, Value::Bool(true));
        b.mov(a, Reg(0));
        b.bin(BinOp::Add, a, a, a);
        b.bin(BinOp::Add, a, a, t);
        b.bin_const(BinOp::Mul, a, a, 10);
        b.put_static(FieldRef::new("T", "OUT"), a);
        b.ret_void();
    });
    let run = fire_m(&dex, &VmOptions::default(), RtValue::Bool(true));
    assert_eq!(run, state(Ok(()), 12, 0, &[("T.OUT", "30")]));
    // A chain whose very first lhs read fails leaves the register alone.
    let string_lhs = fire_m(&dex, &VmOptions::default(), RtValue::Str("x".into()));
    // call 5, const 1, move 1, the first step.
    let lhs_fault = Err(Fault::TypeError("binop lhs not int"));
    assert_eq!(string_lhs, state(lhs_fault, 8, 0, &[]));
}

#[test]
fn accumulator_chain_runs_out_of_fuel_on_the_same_step() {
    // Ten in-place steps after the 5-instruction call and one move.
    let dex = one_method_dex(|b| {
        let a = b.fresh_reg();
        b.mov(a, Reg(0));
        for _ in 0..10 {
            b.bin_const(BinOp::Add, a, a, 1);
        }
        b.put_static(FieldRef::new("T", "OUT"), a);
        b.ret_void();
    });
    for fuel in 6..=18 {
        let opts = VmOptions {
            fuel_per_event: fuel,
            instr_per_ms: 3,
            ..VmOptions::default()
        };
        let run = fire_m(&dex, &opts, RtValue::Int(0));
        // The instruction that found the tank empty is still counted;
        // below 16 that is a chain step, at 17 the return after the put.
        let expect = match fuel {
            18 => state(Ok(()), 18, 6, &[("T.OUT", "10")]),
            17 => state(Err(Fault::OutOfFuel), 18, 6, &[("T.OUT", "10")]),
            _ => state(Err(Fault::OutOfFuel), fuel + 1, (fuel + 1) / 3, &[]),
        };
        assert_eq!(run, expect, "fuel {fuel}");
    }
}

/// `T.m(x)`: `T.x = x` as a static, then `obj.x = x + 1` on a new `T`
/// instance, then `T.x = x + 2`; the static and the instance field share
/// the display key `T.x`.
fn shared_key_dex() -> DexFile {
    one_method_dex(|b| {
        let (obj, v) = (b.fresh_reg(), b.fresh_reg());
        b.put_static(FieldRef::new("T", "x"), Reg(0));
        b.push(Instr::NewInstance {
            dst: obj,
            class: "T".into(),
        });
        b.bin_const(BinOp::Add, v, Reg(0), 1);
        b.put_field(obj, FieldRef::new("T", "x"), v);
        b.bin_const(BinOp::Add, v, Reg(0), 2);
        b.put_static(FieldRef::new("T", "x"), v);
        b.invoke(MethodRef::new("T", "tick"), vec![], None);
        b.ret_void();
    })
}

/// `shared_key_dex` plus an empty `T.tick`, so call counts cover two
/// methods.
fn profiled_dex() -> DexFile {
    let mut dex = shared_key_dex();
    let mut tick = MethodBuilder::new("T", "tick", 0);
    tick.ret_void();
    dex.classes[0].methods.push(tick.finish());
    dex
}

fn profiling_vm() -> Vm {
    let opts = VmOptions {
        record_field_values: true,
        ..VmOptions::default()
    };
    Vm::new(
        install(profiled_dex()),
        DeviceEnv::attacker_lab(1).remove(0),
        42,
        opts,
    )
}

fn fire_events(vm: &mut Vm, args: std::ops::Range<i64>) {
    for x in args {
        let out = vm.fire_method(&MethodRef::new("T", "m"), vec![RtValue::Int(x)]);
        out.result.unwrap();
        vm.advance_ms(7);
    }
}

#[test]
fn static_and_instance_fields_with_one_key_share_a_sample_list() {
    let mut vm = profiling_vm();
    fire_events(&mut vm, 10..12);
    let fields = vm.field_values();
    assert_eq!(fields.len(), 1);
    let values: Vec<Value> = fields["T.x"].iter().map(|s| s.1.clone()).collect();
    let expect: Vec<Value> = [10, 11, 12, 11, 12, 13].map(Value::Int).to_vec();
    assert_eq!(values, expect);
    let times: Vec<u64> = fields["T.x"].iter().map(|s| s.0).collect();
    assert_eq!(times, vec![0, 0, 0, 7, 7, 7]);
}

#[test]
fn profile_tables_survive_snapshot_and_resume() {
    let mut straight = profiling_vm();
    fire_events(&mut straight, 0..15);

    let mut first = profiling_vm();
    fire_events(&mut first, 0..10);
    let mut resumed = first.snapshot().resume();
    fire_events(&mut resumed, 10..15);

    assert_eq!(straight.method_calls(), resumed.method_calls());
    assert_eq!(straight.method_calls()[&MethodRef::new("T", "tick")], 15);
    assert_eq!(straight.field_values(), resumed.field_values());
    assert_eq!(straight.field_values()["T.x"].len(), 45);
    assert_eq!(straight.telemetry(), resumed.telemetry());
    // The snapshot's source keeps its own tables.
    assert_eq!(first.method_calls()[&MethodRef::new("T", "m")], 10);
}

#[test]
fn a_fork_starts_with_empty_profile_tables() {
    let mut parent = profiling_vm();
    fire_events(&mut parent, 0..4);
    let mut fork = parent.fork(DeviceEnv::attacker_lab(1).remove(0), 3);
    assert!(fork.method_calls().is_empty());
    assert!(fork.field_values().is_empty());
    fire_events(&mut fork, 0..1);
    let calls: Vec<(String, u64)> = fork
        .method_calls()
        .iter()
        .map(|(m, n)| (m.to_string(), *n))
        .collect();
    assert_eq!(calls.len(), 2);
    assert!(calls.iter().all(|(_, n)| *n == 1));
    assert_eq!(fork.field_values()["T.x"].len(), 3);
    assert_eq!(parent.field_values()["T.x"].len(), 12);
}

#[test]
fn field_samples_stop_at_the_cap() {
    use bombdroid_runtime::telemetry::FIELD_SAMPLE_CAP;
    // T.m(n): for i in n..0 { T.x = i }.
    let dex = one_method_dex(|b| {
        let top = b.fresh_label();
        let done = b.fresh_label();
        b.place_label(top);
        b.if_(CondOp::Le, Reg(0), RegOrConst::Const(Value::Int(0)), done);
        b.put_static(FieldRef::new("T", "x"), Reg(0));
        b.bin_const(BinOp::Sub, Reg(0), Reg(0), 1);
        b.goto(top);
        b.place_label(done);
        b.ret_void();
    });
    let n = FIELD_SAMPLE_CAP as i64 + 100;
    let opts = VmOptions {
        record_field_values: true,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(install(dex), DeviceEnv::attacker_lab(1).remove(0), 42, opts);
    let out = vm.fire_method(&MethodRef::new("T", "m"), vec![RtValue::Int(n)]);
    out.result.unwrap();
    let fields = vm.field_values();
    let samples = &fields["T.x"];
    assert_eq!(samples.len(), FIELD_SAMPLE_CAP);
    assert_eq!(samples[0].1, Value::Int(n));
    assert_eq!(vm.statics_snapshot(), snap(&[("T.x", "1")]));
}

#[test]
fn heap_budget_stops_runaway_arrays_and_objects() {
    // T.m(n): loop { new int[n] }. Four arrays of 2^18 slots fill the
    // 2^20-cell budget; the fifth allocation faults after its charge.
    let arrays = one_method_dex(|b| {
        let arr = b.fresh_reg();
        let top = b.fresh_label();
        b.place_label(top);
        b.push(Instr::NewArray {
            dst: arr,
            len: Reg(0),
        });
        b.goto(top);
    });
    let run = fire_m(&arrays, &VmOptions::default(), RtValue::Int(1 << 18));
    let instr = 5 + 4 * (2 + 1) + 2;
    assert_eq!(run, state(Err(Fault::HeapExhausted), instr, 0, &[]));

    // T.m(n): new int[n]; loop { new T }. Objects count one cell each.
    let objects = one_method_dex(|b| {
        let (arr, obj) = (b.fresh_reg(), b.fresh_reg());
        b.push(Instr::NewArray {
            dst: arr,
            len: Reg(0),
        });
        let top = b.fresh_label();
        b.place_label(top);
        b.push(Instr::NewInstance {
            dst: obj,
            class: "T".into(),
        });
        b.goto(top);
    });
    let n = 1_000_000u64;
    let run = fire_m(&objects, &VmOptions::default(), RtValue::Int(n as i64));
    let fit = HEAP_CELL_BUDGET - n;
    let instr = 5 + 2 + fit * (2 + 1) + 2;
    assert_eq!(
        run,
        state(Err(Fault::HeapExhausted), instr, instr / 2_000, &[])
    );
}

#[test]
fn forks_and_resumes_inherit_the_heap_budget() {
    // T.m(n): new int[n].
    let dex = one_method_dex(|b| {
        let arr = b.fresh_reg();
        b.push(Instr::NewArray {
            dst: arr,
            len: Reg(0),
        });
        b.ret_void();
    });
    let mref = MethodRef::new("T", "m");
    let mut vm = boot(dex);
    let rest = (HEAP_CELL_BUDGET - 1_000_000) as i64;
    for n in [1_000_000, rest] {
        vm.fire_method(&mref, vec![RtValue::Int(n)]).result.unwrap();
    }
    let snapshot = vm.snapshot();
    let mut fork = snapshot.fork(DeviceEnv::attacker_lab(1).remove(0), 5);
    let mut resumed = snapshot.resume();
    for vm in [&mut vm, &mut fork, &mut resumed] {
        let empty = vm.fire_method(&mref, vec![RtValue::Int(0)]);
        empty.result.unwrap();
        let one = vm.fire_method(&mref, vec![RtValue::Int(1)]);
        assert_eq!(one.result, Err(Fault::HeapExhausted));
    }
}

#[test]
fn concatenation_stops_at_the_length_cap() {
    // s = "ab"; loop { s = s + s }: fifteen doublings reach 2^16 bytes,
    // and the sixteenth would pass MAX_CONCAT_LEN.
    let dex = one_method_dex(|b| {
        let s = b.fresh_reg();
        b.const_(s, Value::str("ab"));
        let top = b.fresh_label();
        b.place_label(top);
        b.str_op(StrOp::Concat, s, s, Some(s));
        b.goto(top);
    });
    assert_eq!(MAX_CONCAT_LEN, 1 << 16);
    let run = fire_m(&dex, &VmOptions::default(), RtValue::Int(0));
    let instr = 5 + 1 + 15 * (2 + 1) + 2;
    assert_eq!(run, state(Err(Fault::HeapExhausted), instr, 0, &[]));
}
