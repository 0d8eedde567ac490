//! Pre-decode pass: lowers `dex::Instr` bodies into flat, cache-friendly
//! [`DecodedOp`] arrays, the only form the VM executes.
//!
//! Decoding happens once per method per package (lazily, behind a
//! [`OnceLock`], next to the package's lazy class digests and dispatch
//! index) and once per opened fragment per program; a detached fragment
//! is lowered each time it runs. Lowering pays for itself on the first few
//! executions:
//!
//! * register operands become pre-resolved `usize` indices into a frame
//!   whose size is known up front, so the hot loop indexes directly instead
//!   of bounds-probing and resizing;
//! * branch targets are remapped to decoded-instruction offsets;
//! * `Invoke` callees are resolved through the package's O(1) dispatch
//!   index into flat method ids, so calls skip the per-call hash lookup;
//! * constants are pre-converted into [`RtValue`]s, and each field key
//!   (`Class.field`) is interned once into a dense slot of the program's
//!   key table, so `GetStatic`/`PutStatic` index the statics vector and
//!   field-value profiling indexes the VM's sample table instead of
//!   rendering and hashing a string per execution (decrypted fragments
//!   intern their keys when they are decoded);
//! * hot instruction pairs are fused into superinstructions
//!   ([`DecodedOp::HashIf`], [`DecodedOp::BinOpConstIf`],
//!   [`DecodedOp::ConstIf`], [`DecodedOp::ConstArrayGet`]), and
//!   straight-line runs of arithmetic become a single
//!   [`DecodedOp::ArithChain`], when no consumed instruction is a branch
//!   target; a run whose every step updates one register in place
//!   (`a = a <op> rhs`) becomes an [`DecodedOp::AccChain`], which keeps
//!   that register in a local.
//!
//! The decoded form is an *encoding* change only: every fused op replays
//! the exact micro-op sequence of the original pair (charge, write,
//! charge, branch), and every `If` carries the original instruction index,
//! which keys QC-coverage telemetry (`eq_satisfied` / `outer_satisfied`).

use crate::package::InstalledPackage;
use crate::value::RtValue;
use bombdroid_crypto::{kdf::ConditionHasher, Key128};
use bombdroid_dex::{
    BinOp, CondOp, HostApi, Instr, MethodRef, Reg, RegOrConst, StrOp, UnOp, Value,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Right-hand operand of a decoded conditional branch.
#[derive(Debug, Clone)]
pub(crate) enum DecodedRhs {
    /// Compare against a frame slot.
    Slot(usize),
    /// Compare against a pre-converted constant.
    Const(RtValue),
}

/// Integer right-hand operand of an [`DecodedOp::ArithChain`] step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArithRhs {
    /// Read the operand from a frame slot (a fused `BinOp`).
    Slot(usize),
    /// Pre-decoded literal (a fused `BinOpConst`).
    Const(i64),
}

/// Right-hand operand of an [`DecodedOp::AccChain`] step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AccRhs {
    /// The accumulator itself (`a = a <op> a`).
    Acc,
    /// A frame slot other than the accumulator; no step of the chain
    /// writes it.
    Slot(usize),
    /// Pre-decoded literal.
    Const(i64),
}

/// One step of an accumulator chain: `a = a <op> rhs`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccStep {
    pub op: BinOp,
    pub rhs: AccRhs,
}

/// One step of a fused arithmetic chain: `dst = lhs <op> rhs`.
#[derive(Debug, Clone)]
pub(crate) struct ArithStep {
    pub op: BinOp,
    pub dst: usize,
    pub lhs: usize,
    pub rhs: ArithRhs,
}

/// One pre-decoded instruction. Register operands are frame-slot indices
/// guaranteed to be in-bounds for the enclosing body's frame size; branch
/// targets index into the decoded op array. `pc` fields on branch ops are
/// the *original* instruction indices, preserved for telemetry keys.
#[derive(Debug, Clone)]
pub(crate) enum DecodedOp {
    Const {
        dst: usize,
        value: RtValue,
    },
    Move {
        dst: usize,
        src: usize,
    },
    BinOp {
        op: BinOp,
        dst: usize,
        lhs: usize,
        rhs: usize,
    },
    BinOpConst {
        op: BinOp,
        dst: usize,
        lhs: usize,
        rhs: i64,
    },
    UnOp {
        op: UnOp,
        dst: usize,
        src: usize,
    },
    StrOp {
        op: StrOp,
        dst: usize,
        lhs: usize,
        rhs: Option<usize>,
    },
    If {
        cond: CondOp,
        lhs: usize,
        rhs: DecodedRhs,
        target: usize,
        pc: u32,
    },
    Switch {
        src: usize,
        arms: Box<[(i64, usize)]>,
        default: usize,
    },
    Goto {
        target: usize,
    },
    Invoke {
        /// Flat method id in the [`DecodedProgram`], `None` if the callee
        /// does not resolve in this package.
        target: Option<u32>,
        /// Retained for `UnknownMethod` faults.
        mref: MethodRef,
        args: Box<[usize]>,
        dst: Option<usize>,
    },
    InvokeReflect {
        name: usize,
        args: Box<[usize]>,
        dst: Option<usize>,
    },
    HostCall {
        api: HostApi,
        args: Box<[usize]>,
        dst: Option<usize>,
    },
    GetField {
        dst: usize,
        obj: usize,
        name: Arc<str>,
    },
    PutField {
        obj: usize,
        src: usize,
        name: Arc<str>,
        /// Slot of the `Class.field` key (see [`DecodedProgram::field_slot`]),
        /// for field-value profiling.
        key: usize,
    },
    GetStatic {
        dst: usize,
        /// Slot of the `Class.field` key in the program's key table (see
        /// [`DecodedProgram::field_slot`]), which indexes the statics.
        slot: usize,
    },
    PutStatic {
        src: usize,
        slot: usize,
    },
    NewInstance {
        dst: usize,
    },
    NewArray {
        dst: usize,
        len: usize,
    },
    ArrayGet {
        dst: usize,
        arr: usize,
        idx: usize,
    },
    ArrayPut {
        arr: usize,
        idx: usize,
        src: usize,
    },
    ArrayLen {
        dst: usize,
        arr: usize,
    },
    Hash {
        dst: usize,
        src: usize,
        hasher: Arc<ConditionHasher>,
    },
    DecryptExec {
        blob: u32,
        key_src: usize,
    },
    StegoExtract {
        dst: usize,
        src: usize,
    },
    Return {
        src: Option<usize>,
    },
    Throw {
        msg: Arc<str>,
    },
    Nop,
    /// Fused `Hash` + `If` on the hash result — the bomb-trigger guard
    /// (`Hash(X|salt) == digest`).
    HashIf {
        dst: usize,
        src: usize,
        hasher: Arc<ConditionHasher>,
        cond: CondOp,
        rhs: RtValue,
        target: usize,
        pc: u32,
    },
    /// Fused `BinOpConst` + `If` on the result — compare+branch guards
    /// (loop counters, threshold checks).
    BinOpConstIf {
        op: BinOp,
        dst: usize,
        lhs: usize,
        rhs: i64,
        cond: CondOp,
        cmp: DecodedRhs,
        target: usize,
        pc: u32,
    },
    /// Fused `Const` + `If` on the loaded value.
    ConstIf {
        dst: usize,
        value: RtValue,
        cond: CondOp,
        rhs: DecodedRhs,
        target: usize,
        pc: u32,
    },
    /// Fused integer-`Const` index + `ArrayGet` through it.
    ConstArrayGet {
        idx_dst: usize,
        idx_val: i64,
        dst: usize,
        arr: usize,
    },
    /// Fused run of two or more consecutive `BinOp`/`BinOpConst`
    /// instructions — one dispatch for a whole straight-line arithmetic
    /// chain (generated hash arithmetic is dominated by these). Each step
    /// replays its instruction's micro-ops in order: charge, operand reads
    /// (lhs faulting before rhs), compute, write.
    ArithChain {
        steps: Box<[ArithStep]>,
    },
    /// An [`DecodedOp::ArithChain`] whose every step is `a = a <op> rhs`
    /// on the one register `acc`: the engine reads `acc` once, runs the
    /// steps on a local `i64`, and writes it back once, after the last step
    /// that completed.
    AccChain {
        acc: usize,
        steps: Box<[AccStep]>,
    },
}

/// A fully decoded method body, decrypted fragment or detached fragment.
#[derive(Debug)]
pub(crate) struct DecodedBody {
    pub ops: Vec<DecodedOp>,
    /// Minimum frame size: one past the highest slot any op touches.
    pub frame: usize,
    /// Dispatches saved by fusion (the `vm.decode.fused` count).
    pub fused: u64,
}

/// One method's slot in the decoded program; the body is decoded on first
/// call.
#[derive(Debug)]
pub(crate) struct DecodedMethodEntry {
    pub mref: MethodRef,
    pub params: u16,
    pub registers: u16,
    ci: usize,
    mi: usize,
    body: OnceLock<Arc<DecodedBody>>,
}

/// Dense numbering of field keys (`Class.field`), shared by statics and
/// instance fields. Slots are handed out in first-decode order, which may
/// differ between runs when bodies decode on several threads; nothing
/// observable depends on it, because every view of the statics
/// ([`crate::Vm::statics_snapshot`]) and of the field samples
/// ([`crate::Vm::field_values`]) goes back to the keys.
#[derive(Debug, Default)]
struct FieldSlots {
    index: HashMap<Arc<str>, usize>,
    keys: Vec<Arc<str>>,
}

/// Per-package decoded program: a flat table of every method, indexed by
/// `class_offsets[ci] + mi`, plus the field-key slot table and the
/// decrypted fragments, shared by all VMs (and forked sessions) booting
/// the package.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    class_offsets: Vec<usize>,
    methods: Vec<DecodedMethodEntry>,
    /// Flat method id of each entry point's handler, `None` if it does not
    /// resolve.
    entry_targets: Vec<Option<usize>>,
    fields: Mutex<FieldSlots>,
    /// Fragments that opened successfully, by (blob id, derived key). A
    /// program serves one `Arc<DexFile>`, whose blobs cannot change, so the
    /// key fixes the plaintext. Only a right key opens a blob, which bounds
    /// the cache by the program's blob count. Each entry is lowered with
    /// this program's call targets and field slots.
    pub(crate) fragments: Mutex<HashMap<(u32, Key128), Arc<DecodedBody>>>,
}

impl DecodedProgram {
    /// Builds the method table (no bodies are decoded yet).
    pub fn build(pkg: &InstalledPackage) -> Self {
        let mut class_offsets = Vec::with_capacity(pkg.dex.classes.len());
        let mut methods = Vec::new();
        for (ci, class) in pkg.dex.classes.iter().enumerate() {
            class_offsets.push(methods.len());
            for (mi, method) in class.methods.iter().enumerate() {
                methods.push(DecodedMethodEntry {
                    mref: method.method_ref(),
                    params: method.params,
                    registers: method.registers,
                    ci,
                    mi,
                    body: OnceLock::new(),
                });
            }
        }
        let mut prog = DecodedProgram {
            class_offsets,
            methods,
            entry_targets: Vec::new(),
            fields: Mutex::new(FieldSlots::default()),
            fragments: Mutex::new(HashMap::new()),
        };
        prog.entry_targets = pkg
            .dex
            .entry_points
            .iter()
            .map(|e| prog.resolve(pkg, &e.method))
            .collect();
        prog
    }

    /// The flat method id of entry point `index`'s handler.
    pub fn entry_point_target(&self, index: usize) -> Option<usize> {
        self.entry_targets.get(index).copied().flatten()
    }

    /// The slot of field key `key` (`Class.field`), assigning the next
    /// free slot on first sight. Called at decode time, never per executed
    /// instruction.
    pub fn field_slot(&self, key: &str) -> usize {
        let mut slots = self.fields.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&slot) = slots.index.get(key) {
            return slot;
        }
        let slot = slots.keys.len();
        let k: Arc<str> = Arc::from(key);
        slots.keys.push(Arc::clone(&k));
        slots.index.insert(k, slot);
        slot
    }

    /// The key of every slot assigned so far, indexed by slot.
    pub fn field_keys(&self) -> Vec<Arc<str>> {
        let slots = self.fields.lock().unwrap_or_else(|e| e.into_inner());
        slots.keys.clone()
    }

    /// The fragment `blob` opened to under `key`, if a VM of this program
    /// opened it before.
    pub fn cached_fragment(&self, blob: u32, key: &Key128) -> Option<Arc<DecodedBody>> {
        let cache = self.fragments.lock().unwrap_or_else(|e| e.into_inner());
        cache.get(&(blob, *key)).cloned()
    }

    /// Caches the lowered fragment `blob` opened to under `key` and returns
    /// the cached entry. If another VM cached it first, that entry wins, so
    /// every VM of the program runs the same body.
    pub fn cache_fragment(&self, blob: u32, key: Key128, body: DecodedBody) -> Arc<DecodedBody> {
        let mut cache = self.fragments.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(cache.entry((blob, key)).or_insert_with(|| Arc::new(body)))
    }

    /// Number of methods in the flat table.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// The flat id of method `mi` of class `ci`.
    pub fn flat_id(&self, ci: usize, mi: usize) -> usize {
        self.class_offsets[ci] + mi
    }

    /// Resolves a method reference to its flat id, with the shadowing rules
    /// of [`InstalledPackage::resolve_method`].
    pub fn resolve(&self, pkg: &InstalledPackage, mref: &MethodRef) -> Option<usize> {
        pkg.resolve_method(mref)
            .map(|(ci, mi)| self.flat_id(ci, mi))
    }

    /// The method entry for a flat id.
    pub fn entry(&self, id: usize) -> &DecodedMethodEntry {
        &self.methods[id]
    }

    /// The decoded body for a flat id, decoding it on first call.
    pub fn body(&self, pkg: &InstalledPackage, id: usize) -> &Arc<DecodedBody> {
        let entry = &self.methods[id];
        entry.body.get_or_init(|| {
            let body = decode_body(pkg, self, &pkg.dex.classes[entry.ci].methods[entry.mi].body);
            if bombdroid_obs::enabled() {
                bombdroid_obs::counter_add("vm.decode.methods", 1);
                bombdroid_obs::counter_add("vm.decode.ops", body.ops.len() as u64);
                bombdroid_obs::counter_add_nz("vm.decode.fused", body.fused);
            }
            Arc::new(body)
        })
    }
}

/// Tracks a frame-slot reference while lowering, growing the frame bound.
fn slot(max: &mut usize, r: Reg) -> usize {
    let i = r.0 as usize;
    if i + 1 > *max {
        *max = i + 1;
    }
    i
}

fn slot_opt(max: &mut usize, r: Option<Reg>) -> Option<usize> {
    r.map(|r| slot(max, r))
}

fn slots(max: &mut usize, rs: &[Reg]) -> Box<[usize]> {
    rs.iter().map(|&r| slot(max, r)).collect()
}

fn rhs(max: &mut usize, r: &RegOrConst) -> DecodedRhs {
    match r {
        RegOrConst::Reg(r) => DecodedRhs::Slot(slot(max, *r)),
        RegOrConst::Const(v) => DecodedRhs::Const(v.clone().into()),
    }
}

/// Lowers one body (method or fragment) into decoded form, fusing hot
/// pairs where the second instruction is not a branch target.
pub(crate) fn decode_body(
    pkg: &InstalledPackage,
    prog: &DecodedProgram,
    body: &[Instr],
) -> DecodedBody {
    // An instruction that is ever jumped to cannot be consumed as the
    // second half of a superinstruction.
    let mut is_target = vec![false; body.len() + 1];
    for instr in body {
        instr.for_each_branch_target(|t| is_target[t.min(body.len())] = true);
    }

    let mut max = 0usize;
    let mut ops: Vec<DecodedOp> = Vec::with_capacity(body.len());
    // Original pc -> decoded index; body.len() maps to ops.len() (exit).
    let mut pc_map = vec![usize::MAX; body.len() + 1];
    let mut fused = 0u64;

    let mut pc = 0usize;
    while pc < body.len() {
        pc_map[pc] = ops.len();
        // A run of two or more arithmetic ops (none of which, past the
        // first, is jumped to) becomes one ArithChain dispatch.
        let mut run = 0usize;
        while pc + run < body.len()
            && matches!(
                body[pc + run],
                Instr::BinOp { .. } | Instr::BinOpConst { .. }
            )
            && (run == 0 || !is_target[pc + run])
        {
            run += 1;
        }
        if run >= 2 {
            let steps: Box<[ArithStep]> = body[pc..pc + run]
                .iter()
                .map(|i| arith_step(&mut max, i))
                .collect();
            ops.push(acc_chain(&steps).unwrap_or(DecodedOp::ArithChain { steps }));
            // Interior pcs are unreachable (not branch targets); map them
            // past the chain so a malformed jump cannot land mid-chain.
            pc_map[pc + 1..pc + run].fill(ops.len());
            fused += (run - 1) as u64;
            pc += run;
            continue;
        }
        if pc + 1 < body.len() && !is_target[pc + 1] {
            if let Some(op) = try_fuse(&mut max, &body[pc], &body[pc + 1], pc + 1) {
                ops.push(op);
                // Nothing branches to pc+1; map it past the fused op so a
                // (malformed) jump there cannot land mid-pair.
                pc_map[pc + 1] = ops.len();
                fused += 1;
                pc += 2;
                continue;
            }
        }
        ops.push(lower(&mut max, pkg, prog, &body[pc], pc));
        pc += 1;
    }
    pc_map[body.len()] = ops.len();

    // Remap branch targets from original indices to decoded offsets.
    let map = |t: usize| pc_map[t.min(body.len())];
    for op in &mut ops {
        match op {
            DecodedOp::If { target, .. }
            | DecodedOp::Goto { target }
            | DecodedOp::HashIf { target, .. }
            | DecodedOp::BinOpConstIf { target, .. }
            | DecodedOp::ConstIf { target, .. } => *target = map(*target),
            DecodedOp::Switch { arms, default, .. } => {
                for (_, t) in arms.iter_mut() {
                    *t = map(*t);
                }
                *default = map(*default);
            }
            _ => {}
        }
    }

    DecodedBody {
        ops,
        frame: max,
        fused,
    }
}

/// Lowers one `BinOp`/`BinOpConst` into an [`ArithChain`] step.
///
/// [`ArithChain`]: DecodedOp::ArithChain
fn arith_step(max: &mut usize, instr: &Instr) -> ArithStep {
    match instr {
        Instr::BinOp { op, dst, lhs, rhs } => ArithStep {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: ArithRhs::Slot(slot(max, *rhs)),
        },
        Instr::BinOpConst { op, dst, lhs, rhs } => ArithStep {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: ArithRhs::Const(*rhs),
        },
        _ => unreachable!("arith_step caller checked the instruction kind"),
    }
}

/// Lowers a chain whose every step is `a = a <op> rhs` on one register `a`
/// into an [`DecodedOp::AccChain`]; `None` for a mixed chain.
fn acc_chain(steps: &[ArithStep]) -> Option<DecodedOp> {
    let acc = steps[0].dst;
    if !steps.iter().all(|s| s.dst == acc && s.lhs == acc) {
        return None;
    }
    let steps = steps
        .iter()
        .map(|s| AccStep {
            op: s.op,
            rhs: match s.rhs {
                ArithRhs::Slot(r) if r == acc => AccRhs::Acc,
                ArithRhs::Slot(r) => AccRhs::Slot(r),
                ArithRhs::Const(c) => AccRhs::Const(c),
            },
        })
        .collect();
    Some(DecodedOp::AccChain { acc, steps })
}

/// Attempts to fuse the pair at (`first`, `second`); `if_pc` is the
/// original index of the second instruction (the telemetry key for its
/// `If` component). Targets are left as original indices and remapped by
/// the caller.
fn try_fuse(max: &mut usize, first: &Instr, second: &Instr, if_pc: usize) -> Option<DecodedOp> {
    match (first, second) {
        (
            Instr::Hash { dst, src, salt },
            Instr::If {
                cond,
                lhs,
                rhs: RegOrConst::Const(v),
                target,
            },
        ) if lhs == dst => Some(DecodedOp::HashIf {
            dst: slot(max, *dst),
            src: slot(max, *src),
            hasher: Arc::new(ConditionHasher::new(salt)),
            cond: *cond,
            rhs: v.clone().into(),
            target: *target,
            pc: if_pc as u32,
        }),
        (
            Instr::BinOpConst {
                op,
                dst,
                lhs,
                rhs: lit,
            },
            Instr::If {
                cond,
                lhs: if_lhs,
                rhs: if_rhs,
                target,
            },
        ) if if_lhs == dst => Some(DecodedOp::BinOpConstIf {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: *lit,
            cond: *cond,
            cmp: rhs(max, if_rhs),
            target: *target,
            pc: if_pc as u32,
        }),
        (
            Instr::Const { dst, value },
            Instr::If {
                cond,
                lhs,
                rhs: if_rhs,
                target,
            },
        ) if lhs == dst => Some(DecodedOp::ConstIf {
            dst: slot(max, *dst),
            value: value.clone().into(),
            cond: *cond,
            rhs: rhs(max, if_rhs),
            target: *target,
            pc: if_pc as u32,
        }),
        (
            Instr::Const {
                dst,
                value: Value::Int(n),
            },
            Instr::ArrayGet {
                dst: gdst,
                arr,
                idx,
            },
        ) if idx == dst => Some(DecodedOp::ConstArrayGet {
            idx_dst: slot(max, *dst),
            idx_val: *n,
            dst: slot(max, *gdst),
            arr: slot(max, *arr),
        }),
        _ => None,
    }
}

/// Lowers one instruction (no fusion); `pc` is its original index.
fn lower(
    max: &mut usize,
    pkg: &InstalledPackage,
    prog: &DecodedProgram,
    instr: &Instr,
    pc: usize,
) -> DecodedOp {
    match instr {
        Instr::Const { dst, value } => DecodedOp::Const {
            dst: slot(max, *dst),
            value: value.clone().into(),
        },
        Instr::Move { dst, src } => DecodedOp::Move {
            dst: slot(max, *dst),
            src: slot(max, *src),
        },
        Instr::BinOp { op, dst, lhs, rhs } => DecodedOp::BinOp {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: slot(max, *rhs),
        },
        Instr::BinOpConst { op, dst, lhs, rhs } => DecodedOp::BinOpConst {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: *rhs,
        },
        Instr::UnOp { op, dst, src } => DecodedOp::UnOp {
            op: *op,
            dst: slot(max, *dst),
            src: slot(max, *src),
        },
        Instr::StrOp { op, dst, lhs, rhs } => DecodedOp::StrOp {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: slot_opt(max, *rhs),
        },
        Instr::If {
            cond,
            lhs,
            rhs: if_rhs,
            target,
        } => DecodedOp::If {
            cond: *cond,
            lhs: slot(max, *lhs),
            rhs: rhs(max, if_rhs),
            target: *target,
            pc: pc as u32,
        },
        Instr::Switch { src, arms, default } => DecodedOp::Switch {
            src: slot(max, *src),
            arms: arms.clone().into_boxed_slice(),
            default: *default,
        },
        Instr::Goto { target } => DecodedOp::Goto { target: *target },
        Instr::Invoke { method, args, dst } => DecodedOp::Invoke {
            target: prog.resolve(pkg, method).map(|id| id as u32),
            mref: method.clone(),
            args: slots(max, args),
            dst: slot_opt(max, *dst),
        },
        Instr::InvokeReflect { name, args, dst } => DecodedOp::InvokeReflect {
            name: slot(max, *name),
            args: slots(max, args),
            dst: slot_opt(max, *dst),
        },
        Instr::HostCall { api, args, dst } => DecodedOp::HostCall {
            api: api.clone(),
            args: slots(max, args),
            dst: slot_opt(max, *dst),
        },
        Instr::GetField { dst, obj, field } => DecodedOp::GetField {
            dst: slot(max, *dst),
            obj: slot(max, *obj),
            name: field.name.clone(),
        },
        Instr::PutField { obj, field, src } => DecodedOp::PutField {
            obj: slot(max, *obj),
            src: slot(max, *src),
            name: field.name.clone(),
            key: prog.field_slot(&field.to_string()),
        },
        Instr::GetStatic { dst, field } => DecodedOp::GetStatic {
            dst: slot(max, *dst),
            slot: prog.field_slot(&field.to_string()),
        },
        Instr::PutStatic { field, src } => DecodedOp::PutStatic {
            src: slot(max, *src),
            slot: prog.field_slot(&field.to_string()),
        },
        Instr::NewInstance { dst, class: _ } => DecodedOp::NewInstance {
            dst: slot(max, *dst),
        },
        Instr::NewArray { dst, len } => DecodedOp::NewArray {
            dst: slot(max, *dst),
            len: slot(max, *len),
        },
        Instr::ArrayGet { dst, arr, idx } => DecodedOp::ArrayGet {
            dst: slot(max, *dst),
            arr: slot(max, *arr),
            idx: slot(max, *idx),
        },
        Instr::ArrayPut { arr, idx, src } => DecodedOp::ArrayPut {
            arr: slot(max, *arr),
            idx: slot(max, *idx),
            src: slot(max, *src),
        },
        Instr::ArrayLen { dst, arr } => DecodedOp::ArrayLen {
            dst: slot(max, *dst),
            arr: slot(max, *arr),
        },
        Instr::Hash { dst, src, salt } => DecodedOp::Hash {
            dst: slot(max, *dst),
            src: slot(max, *src),
            hasher: Arc::new(ConditionHasher::new(salt)),
        },
        Instr::DecryptExec { blob, key_src } => DecodedOp::DecryptExec {
            blob: blob.0,
            key_src: slot(max, *key_src),
        },
        Instr::StegoExtract { dst, src } => DecodedOp::StegoExtract {
            dst: slot(max, *dst),
            src: slot(max, *src),
        },
        Instr::Return { src } => DecodedOp::Return {
            src: slot_opt(max, *src),
        },
        Instr::Throw { msg } => DecodedOp::Throw {
            msg: Arc::from(msg.as_str()),
        },
        Instr::Nop => DecodedOp::Nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_chains_do_not_grow_the_op() {
        // 80 bytes on 64-bit targets before `AccChain` existed; the
        // dispatch loop walks arrays of these.
        assert!(std::mem::size_of::<DecodedOp>() <= 80);
    }

    #[test]
    fn only_in_place_runs_become_accumulator_chains() {
        let step = |op, dst, lhs, rhs| ArithStep { op, dst, lhs, rhs };
        let in_place = [
            step(BinOp::Add, 2, 2, ArithRhs::Const(1)),
            step(BinOp::Mul, 2, 2, ArithRhs::Slot(2)),
            step(BinOp::Xor, 2, 2, ArithRhs::Slot(0)),
        ];
        match acc_chain(&in_place) {
            Some(DecodedOp::AccChain { acc: 2, steps }) => {
                assert!(matches!(steps[0].rhs, AccRhs::Const(1)));
                assert!(matches!(steps[1].rhs, AccRhs::Acc));
                assert!(matches!(steps[2].rhs, AccRhs::Slot(0)));
            }
            other => panic!("expected an accumulator chain, got {other:?}"),
        }
        let mixed = [
            step(BinOp::Add, 2, 2, ArithRhs::Const(1)),
            step(BinOp::Add, 3, 2, ArithRhs::Const(1)),
        ];
        assert!(acc_chain(&mixed).is_none());
        let other_lhs = [
            step(BinOp::Add, 2, 2, ArithRhs::Const(1)),
            step(BinOp::Add, 2, 1, ArithRhs::Const(1)),
        ];
        assert!(acc_chain(&other_lhs).is_none());
    }
}
