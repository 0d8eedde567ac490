//! The dispatch loop over decoded bodies.
//!
//! Every fused superinstruction replays the exact micro-op sequence of the
//! instructions it replaces: the same `charge` calls in the same order, the
//! same fault precedence, the same telemetry writes keyed on original
//! instruction indices. The digests in the root `tests/` pin the result.

use crate::decode::{
    AccRhs, AccStep, ArithRhs, ArithStep, DecodedBody, DecodedOp, DecodedProgram, DecodedRhs,
};
use crate::value::RtValue;
use crate::vm::{Fault, Flow, Vm, FRAME_POOL_CAP};
use bombdroid_crypto::kdf;
use bombdroid_dex::{BlobId, CondOp, MethodRef, UnOp};
use std::sync::Arc;

/// Stands in for the method id of a detached fragment
/// ([`Vm::run_detached_fragment`]), which has none. No flat method id
/// reaches it, and it also names the fragment's coverage unit.
pub(crate) const DETACHED: u32 = u32::MAX;

/// The method whose frame a body runs in: the body's own method, or the
/// host of a decrypted fragment. QC telemetry is keyed on `mref`, and the
/// per-session QC-site cache on `id`.
#[derive(Clone, Copy)]
pub(crate) struct Host<'a> {
    pub(crate) id: u32,
    pub(crate) mref: &'a MethodRef,
}

impl Vm {
    /// Calls a resolved method. The caller has
    /// already depth-checked and resolved `id`. `regs` holds exactly the
    /// arguments; it is grown into the callee's register file, and goes
    /// back to the frame pool when the call ends.
    pub(crate) fn call_decoded(
        &mut self,
        prog: &Arc<DecodedProgram>,
        id: usize,
        mut regs: Vec<RtValue>,
        depth: usize,
    ) -> Result<RtValue, Fault> {
        let entry = prog.entry(id);
        if regs.len() != entry.params as usize {
            let fault = Fault::BadEvent(format!(
                "{}: expected {} args, got {}",
                entry.mref,
                entry.params,
                regs.len()
            ));
            self.recycle_frame(regs);
            return Err(fault);
        }
        let registers = entry.registers as usize;
        self.count_call(prog, id);
        self.op_mix.decode_body_fetches += 1;
        let body = prog.body(&self.pkg, id);
        let frame = body.frame.max(registers).max(regs.len());
        regs.resize(frame, RtValue::Null);
        let host = Host {
            id: id as u32,
            mref: &entry.mref,
        };
        let flow = self
            .charge(5)
            .and_then(|()| self.exec_decoded(prog, body, &mut regs, host, depth, id as u32));
        self.recycle_frame(regs);
        match flow? {
            Flow::Returned(v) => Ok(v),
            Flow::Done => Ok(RtValue::Null),
        }
    }

    /// An empty register file from the frame pool (or a new one).
    #[inline]
    pub(crate) fn take_frame(&mut self) -> Vec<RtValue> {
        self.frame_pool.pop().unwrap_or_default()
    }

    /// Returns a finished call's register file to the pool, keeping at
    /// most [`FRAME_POOL_CAP`] of them.
    #[inline]
    pub(crate) fn recycle_frame(&mut self, mut frame: Vec<RtValue>) {
        if self.frame_pool.len() < FRAME_POOL_CAP {
            frame.clear();
            self.frame_pool.push(frame);
        }
    }

    /// The compare of every conditional branch (plain or fused), on
    /// operands the caller fetched *after* any fused write, preserving
    /// aliasing semantics; `b` comes with whether it is a constant. Returns
    /// whether the branch is taken. Does not charge.
    ///
    /// An equality on a constant that held (`Eq` taken, or `Ne`
    /// fall-through) is a QC-coverage hit of `host` at original pc `pc`,
    /// recorded once per site and kind.
    #[inline]
    fn cond_branch(
        &mut self,
        cond: CondOp,
        a: &RtValue,
        (b, rhs_is_const): (&RtValue, bool),
        host: Host<'_>,
        pc: u32,
    ) -> Result<bool, Fault> {
        let taken = Self::compare(cond, a, b)?;
        let eq_held = match cond {
            CondOp::Eq => taken,
            CondOp::Ne => !taken,
            _ => false,
        };
        if eq_held && rhs_is_const {
            let outer = matches!(a, RtValue::Bytes(_));
            if self.qc_seen.insert((host.id, pc, outer)) {
                self.record_qc(host.mref, pc as usize, outer);
            }
        }
        Ok(taken)
    }

    /// Records a QC-coverage hit at `(mref, pc)`; a hit on a byte string
    /// is also an observed outer trigger condition.
    fn record_qc(&mut self, mref: &MethodRef, pc: usize, outer: bool) {
        self.telemetry.eq_satisfied.insert((mref.clone(), pc));
        if outer {
            self.telemetry.outer_satisfied.insert((mref.clone(), pc));
        }
    }

    #[inline]
    fn fetch_rhs<'a>(regs: &'a [RtValue], rhs: &'a DecodedRhs) -> (&'a RtValue, bool) {
        match rhs {
            DecodedRhs::Slot(s) => (&regs[*s], false),
            DecodedRhs::Const(v) => (v, true),
        }
    }

    /// One [`DecodedOp::ArithChain`] step without its charge: lhs read,
    /// rhs read, compute, write; a fault comes from the first that fails.
    #[inline]
    fn arith_step(regs: &mut [RtValue], step: &ArithStep) -> Result<(), Fault> {
        let a = regs[step.lhs]
            .as_int()
            .ok_or(Fault::TypeError("binop lhs not int"))?;
        let b = match step.rhs {
            ArithRhs::Slot(s) => regs[s]
                .as_int()
                .ok_or(Fault::TypeError("binop rhs not int"))?,
            ArithRhs::Const(c) => c,
        };
        regs[step.dst] = RtValue::Int(Self::arith(step.op, a, b)?);
        Ok(())
    }

    /// Runs an [`DecodedOp::AccChain`]: `regs[acc]` is read once into a
    /// local, every step updates the local, and the local is written back
    /// once, after the last step that completed. No step writes any other
    /// register, so an rhs slot reads what it would between plain steps.
    /// Charging, the fault point and the fault precedence (lhs read, rhs
    /// read, compute) are those of [`DecodedOp::ArithChain`].
    #[inline]
    fn acc_chain(
        &mut self,
        regs: &mut [RtValue],
        acc: usize,
        steps: &[AccStep],
    ) -> Result<(), Fault> {
        let per_step = self.fuel < steps.len() as u64;
        let Some(mut a) = regs[acc].as_int() else {
            // The first step's lhs read faults before any step completes.
            self.charge(1)?;
            return Err(Fault::TypeError("binop lhs not int"));
        };
        let mut done = 0u64;
        let mut result = Ok(());
        for step in steps {
            if per_step {
                if let Err(f) = self.charge(1) {
                    result = Err(f);
                    break;
                }
            }
            let b = match step.rhs {
                AccRhs::Acc => a,
                AccRhs::Const(c) => c,
                AccRhs::Slot(s) => match regs[s].as_int() {
                    Some(b) => b,
                    None => {
                        result = Err(Fault::TypeError("binop rhs not int"));
                        break;
                    }
                },
            };
            match Self::arith(step.op, a, b) {
                Ok(v) => a = v,
                Err(f) => {
                    result = Err(f);
                    break;
                }
            }
            done += 1;
        }
        if done > 0 {
            regs[acc] = RtValue::Int(a);
        }
        if !per_step {
            // One charge for the steps run, a faulting step included.
            self.charge(done + u64::from(result.is_err()))?;
        }
        result
    }

    /// The dispatch loop. `regs` is grown to the body's frame size on entry
    /// (fragments execute in their caller's frame), so every slot index is
    /// in-bounds and a register never written reads as `Null`.
    ///
    /// `host` is the method whose frame this is; QC telemetry is keyed on
    /// it (see [`Host`]).
    ///
    /// `cov_unit` names the body for coverage edges: the flat decoded
    /// method id for method bodies, `0x8000_0000 | blob id` for decrypted
    /// fragments (whose decoded pcs restart at zero). Only the control-flow
    /// arms record edges, and only when [`crate::VmOptions::collect_coverage`]
    /// is on; coverage never charges, so the cost model is unaffected.
    pub(crate) fn exec_decoded(
        &mut self,
        prog: &Arc<DecodedProgram>,
        body: &DecodedBody,
        regs: &mut Vec<RtValue>,
        host: Host<'_>,
        depth: usize,
        cov_unit: u32,
    ) -> Result<Flow, Fault> {
        if regs.len() < body.frame {
            regs.resize(body.frame, RtValue::Null);
        }
        let ops = &body.ops[..];
        let mut pc = 0usize;
        while let Some(op) = ops.get(pc) {
            let mut next = pc + 1;
            match op {
                DecodedOp::Const { dst, value } => {
                    self.charge(1)?;
                    regs[*dst] = value.clone();
                }
                DecodedOp::Move { dst, src } => {
                    self.charge(1)?;
                    regs[*dst] = regs[*src].clone();
                }
                DecodedOp::BinOp { op, dst, lhs, rhs } => {
                    self.charge(1)?;
                    let a = regs[*lhs]
                        .as_int()
                        .ok_or(Fault::TypeError("binop lhs not int"))?;
                    let b = regs[*rhs]
                        .as_int()
                        .ok_or(Fault::TypeError("binop rhs not int"))?;
                    regs[*dst] = RtValue::Int(Self::arith(*op, a, b)?);
                }
                DecodedOp::BinOpConst { op, dst, lhs, rhs } => {
                    self.charge(1)?;
                    let a = regs[*lhs]
                        .as_int()
                        .ok_or(Fault::TypeError("binop lhs not int"))?;
                    regs[*dst] = RtValue::Int(Self::arith(*op, a, *rhs)?);
                }
                DecodedOp::UnOp { op, dst, src } => {
                    self.charge(1)?;
                    let a = regs[*src]
                        .as_int()
                        .ok_or(Fault::TypeError("unop operand not int"))?;
                    let v = match op {
                        UnOp::Neg => a.wrapping_neg(),
                        UnOp::Not => !a,
                        UnOp::Abs => a.wrapping_abs(),
                    };
                    regs[*dst] = RtValue::Int(v);
                }
                DecodedOp::StrOp { op, dst, lhs, rhs } => {
                    self.charge(2)?;
                    let a = regs[*lhs].clone();
                    let rhs_val = rhs.map(|r| regs[r].clone());
                    let v = self.str_op_vals(*op, a, rhs_val)?;
                    regs[*dst] = v;
                }
                DecodedOp::If {
                    cond,
                    lhs,
                    rhs,
                    target,
                    pc: src_pc,
                } => {
                    self.charge(1)?;
                    let b = Self::fetch_rhs(regs, rhs);
                    if self.cond_branch(*cond, &regs[*lhs], b, host, *src_pc)? {
                        next = *target;
                    }
                    self.cov_edge(cov_unit, pc as u32, next as u32);
                }
                DecodedOp::Switch { src, arms, default } => {
                    self.charge(1)?;
                    let v = regs[*src]
                        .as_int()
                        .ok_or(Fault::TypeError("switch operand not int"))?;
                    next = arms
                        .iter()
                        .find(|(case, _)| *case == v)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                    self.cov_edge(cov_unit, pc as u32, next as u32);
                }
                DecodedOp::Goto { target } => {
                    self.charge(1)?;
                    next = *target;
                    self.cov_edge(cov_unit, pc as u32, next as u32);
                }
                DecodedOp::Invoke {
                    target,
                    mref: callee,
                    args,
                    dst,
                } => {
                    let ret = match target {
                        Some(id) => {
                            if depth + 1 >= self.opts.max_call_depth {
                                return Err(Fault::StackOverflow);
                            }
                            let mut frame = self.take_frame();
                            frame.extend(args.iter().map(|&r| regs[r].clone()));
                            self.call_decoded(prog, *id as usize, frame, depth + 1)?
                        }
                        None => {
                            // The depth check comes first: a too-deep call
                            // to a missing method is a StackOverflow.
                            if depth + 1 >= self.opts.max_call_depth {
                                return Err(Fault::StackOverflow);
                            }
                            return Err(Fault::UnknownMethod(callee.clone()));
                        }
                    };
                    if let Some(d) = dst {
                        regs[*d] = ret;
                    }
                }
                DecodedOp::InvokeReflect { name, args, dst } => {
                    self.charge(10)?;
                    let target = regs[*name]
                        .as_str()
                        .ok_or(Fault::TypeError("reflect name not string"))?
                        .to_string();
                    if self.opts.hooks.trace_reflection {
                        let at = self.clock_ms;
                        self.telemetry.reflection_trace.push((target.clone(), at));
                    }
                    let mut argv = self.take_frame();
                    argv.extend(args.iter().map(|&r| regs[r].clone()));
                    let ret = self.reflect_call(&target, &argv);
                    self.recycle_frame(argv);
                    let ret = ret?;
                    if let Some(d) = dst {
                        regs[*d] = ret;
                    }
                }
                DecodedOp::HostCall { api, args, dst } => {
                    self.charge(10)?;
                    let mut argv = self.take_frame();
                    argv.extend(args.iter().map(|&r| regs[r].clone()));
                    let ret = self.host_call(api, &argv);
                    self.recycle_frame(argv);
                    let ret = ret?;
                    if let Some(d) = dst {
                        regs[*d] = ret;
                    }
                }
                DecodedOp::GetField { dst, obj, name } => {
                    self.charge(1)?;
                    let v = match &regs[*obj] {
                        RtValue::Obj(id) => self
                            .objects
                            .get(*id)
                            .and_then(|o| o.get(name).cloned())
                            .unwrap_or(RtValue::Null),
                        RtValue::Null => return Err(Fault::NullDeref),
                        _ => return Err(Fault::TypeError("iget on non-object")),
                    };
                    regs[*dst] = v;
                }
                DecodedOp::PutField {
                    obj,
                    src,
                    name,
                    key,
                } => {
                    self.charge(1)?;
                    let v = regs[*src].clone();
                    if self.opts.record_field_values {
                        self.sample_field(*key, &v);
                    }
                    match &regs[*obj] {
                        RtValue::Obj(id) => {
                            let id = *id;
                            let o = Arc::make_mut(&mut self.objects)
                                .get_mut(id)
                                .ok_or(Fault::TypeError("dangling object"))?;
                            o.insert(name.clone(), v);
                        }
                        RtValue::Null => return Err(Fault::NullDeref),
                        _ => return Err(Fault::TypeError("iput on non-object")),
                    }
                }
                DecodedOp::GetStatic { dst, slot } => {
                    self.charge(1)?;
                    regs[*dst] = self.get_static(*slot);
                }
                DecodedOp::PutStatic { src, slot } => {
                    self.charge(1)?;
                    let v = regs[*src].clone();
                    if self.opts.record_field_values {
                        self.sample_field(*slot, &v);
                    }
                    self.put_static(*slot, v);
                }
                DecodedOp::NewInstance { dst } => {
                    self.charge(2)?;
                    regs[*dst] = self.new_object()?;
                }
                DecodedOp::NewArray { dst, len } => {
                    self.charge(2)?;
                    regs[*dst] = self.new_array(&regs[*len])?;
                }
                DecodedOp::ArrayGet { dst, arr, idx } => {
                    self.charge(1)?;
                    let arr_val = regs[*arr].clone();
                    let idx_val = regs[*idx].clone();
                    let v = self.array_slot_vals(&arr_val, &idx_val)?.clone();
                    regs[*dst] = v;
                }
                DecodedOp::ArrayPut { arr, idx, src } => {
                    self.charge(1)?;
                    let v = regs[*src].clone();
                    let arr_val = regs[*arr].clone();
                    let idx_val = regs[*idx].clone();
                    *self.array_slot_vals(&arr_val, &idx_val)? = v;
                }
                DecodedOp::ArrayLen { dst, arr } => {
                    self.charge(1)?;
                    let n = match &regs[*arr] {
                        RtValue::Arr(id) => self
                            .arrays
                            .get(*id)
                            .ok_or(Fault::TypeError("dangling array"))?
                            .len(),
                        RtValue::Null => return Err(Fault::NullDeref),
                        _ => return Err(Fault::TypeError("array-length on non-array")),
                    };
                    regs[*dst] = RtValue::Int(n as i64);
                }
                DecodedOp::Hash { dst, src, salt } => {
                    // Hashing ≤ 16 input bytes is a handful of SHA-1
                    // compressions — cheap next to interpreter dispatch.
                    self.charge(4)?;
                    let cb = regs[*src]
                        .canonical_bytes()
                        .ok_or(Fault::TypeError("hash of reference value"))?;
                    let digest = kdf::condition_hash(&cb, salt);
                    regs[*dst] = RtValue::Bytes(Arc::from(&digest[..]));
                }
                DecodedOp::DecryptExec { blob, key_src } => {
                    let key_val = regs[*key_src].clone();
                    let loaded = !self.blob_cache.contains_key(blob);
                    let fbody = self.fragment_for(BlobId(*blob), key_val)?;
                    // The decode counters are charged to every VM that
                    // loads the fragment, not to the session that lowered
                    // it first: that one depends on scheduling and on what
                    // ran earlier in the process, and session counters must
                    // be a function of the session alone (fleet folds,
                    // checkpoint/resume).
                    if loaded && bombdroid_obs::enabled() {
                        bombdroid_obs::counter_add("vm.decode.fragments", 1);
                        bombdroid_obs::counter_add_nz("vm.decode.fused", fbody.fused);
                    }
                    // Fragment pcs restart at zero; tag their coverage unit
                    // with the blob id so they never alias method edges.
                    let funit = 0x8000_0000 | *blob;
                    if let Flow::Returned(v) =
                        self.exec_decoded(prog, &fbody, regs, host, depth, funit)?
                    {
                        return Ok(Flow::Returned(v));
                    }
                }
                DecodedOp::StegoExtract { dst, src } => {
                    self.charge(5)?;
                    let v = match regs[*src].as_str() {
                        Some(cover) => match bombdroid_apk::stego::extract(cover) {
                            Some(bytes) => RtValue::Bytes(Arc::from(bytes.as_slice())),
                            None => RtValue::Null,
                        },
                        None => RtValue::Null,
                    };
                    regs[*dst] = v;
                }
                DecodedOp::Return { src } => {
                    self.charge(1)?;
                    let v = src.map(|r| regs[r].clone()).unwrap_or(RtValue::Null);
                    return Ok(Flow::Returned(v));
                }
                DecodedOp::Throw { msg } => {
                    self.charge(1)?;
                    return Err(Fault::Thrown(msg.to_string()));
                }
                DecodedOp::Nop => {
                    self.charge(1)?;
                }
                DecodedOp::HashIf {
                    dst,
                    src,
                    salt,
                    cond,
                    rhs,
                    target,
                    pc: src_pc,
                } => {
                    self.op_mix.hash_if += 1;
                    // Hash micro-op.
                    self.charge(4)?;
                    let cb = regs[*src]
                        .canonical_bytes()
                        .ok_or(Fault::TypeError("hash of reference value"))?;
                    let digest = kdf::condition_hash(&cb, salt);
                    regs[*dst] = RtValue::Bytes(Arc::from(&digest[..]));
                    // If micro-op on the written result.
                    self.charge(1)?;
                    if self.cond_branch(*cond, &regs[*dst], (rhs, true), host, *src_pc)? {
                        next = *target;
                    }
                    self.cov_edge(cov_unit, pc as u32, next as u32);
                }
                DecodedOp::BinOpConstIf {
                    op,
                    dst,
                    lhs,
                    rhs,
                    cond,
                    cmp,
                    target,
                    pc: src_pc,
                } => {
                    self.op_mix.binop_const_if += 1;
                    self.charge(1)?;
                    let a = regs[*lhs]
                        .as_int()
                        .ok_or(Fault::TypeError("binop lhs not int"))?;
                    regs[*dst] = RtValue::Int(Self::arith(*op, a, *rhs)?);
                    self.charge(1)?;
                    let b = Self::fetch_rhs(regs, cmp);
                    if self.cond_branch(*cond, &regs[*dst], b, host, *src_pc)? {
                        next = *target;
                    }
                    self.cov_edge(cov_unit, pc as u32, next as u32);
                }
                DecodedOp::ConstIf {
                    dst,
                    value,
                    cond,
                    rhs,
                    target,
                    pc: src_pc,
                } => {
                    self.op_mix.const_if += 1;
                    self.charge(1)?;
                    regs[*dst] = value.clone();
                    self.charge(1)?;
                    let b = Self::fetch_rhs(regs, rhs);
                    if self.cond_branch(*cond, &regs[*dst], b, host, *src_pc)? {
                        next = *target;
                    }
                    self.cov_edge(cov_unit, pc as u32, next as u32);
                }
                DecodedOp::ArithChain { steps } => {
                    self.op_mix.arith_chain += 1;
                    // Each step replays the micro-ops of its instruction:
                    // charge, lhs read, rhs read, compute, write. Arithmetic
                    // never reads the clock, so when fuel covers the whole
                    // chain one charge for the steps run (a faulting step
                    // included) leaves instr_executed, the clock and the
                    // fault point exactly as per-step charges would. When
                    // fuel is short, charge per step so exhaustion lands
                    // on the same instruction as unfused.
                    if self.fuel >= steps.len() as u64 {
                        let mut ran = 0u64;
                        let mut result = Ok(());
                        for step in steps.iter() {
                            ran += 1;
                            result = Self::arith_step(regs, step);
                            if result.is_err() {
                                break;
                            }
                        }
                        self.charge(ran)?;
                        result?;
                    } else {
                        for step in steps.iter() {
                            self.charge(1)?;
                            Self::arith_step(regs, step)?;
                        }
                    }
                }
                DecodedOp::AccChain { acc, steps } => {
                    self.op_mix.arith_chain += 1;
                    self.acc_chain(regs, *acc, steps)?;
                }
                DecodedOp::ConstArrayGet {
                    idx_dst,
                    idx_val,
                    dst,
                    arr,
                } => {
                    self.op_mix.const_array_get += 1;
                    self.charge(1)?;
                    regs[*idx_dst] = RtValue::Int(*idx_val);
                    self.charge(1)?;
                    // Fetch after the index write: `arr` may alias it.
                    let arr_val = regs[*arr].clone();
                    let iv = regs[*idx_dst].clone();
                    let v = self.array_slot_vals(&arr_val, &iv)?.clone();
                    regs[*dst] = v;
                }
            }
            pc = next;
        }
        Ok(Flow::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{EventSource, RandomEventSource};
    use crate::env::DeviceEnv;
    use crate::package::InstalledPackage;
    use crate::vm::VmOptions;
    use bombdroid_apk::{package_app, AppMeta, DeveloperKey, StringsXml};
    use bombdroid_dex::{
        BinOp, Class, DexFile, EntryPoint, Instr, MethodBuilder, ParamDomain, Reg, RegOrConst,
    };
    use rand::{rngs::StdRng, SeedableRng};

    /// `T.deep(n)` recurses `n` levels, so one event can hold up to 41
    /// frames live at once.
    fn recursive_app() -> InstalledPackage {
        let mut dex = DexFile::new();
        let mut class = Class::new("T");
        let mut b = MethodBuilder::new("T", "deep", 1);
        let done = b.fresh_label();
        b.if_(CondOp::Le, Reg(0), RegOrConst::Const(0i64.into()), done);
        let next = b.fresh_reg();
        b.bin_const(BinOp::Sub, next, Reg(0), 1);
        b.invoke(MethodRef::new("T", "deep"), vec![next], None);
        b.place_label(done);
        b.ret_void();
        class.methods.push(b.finish());
        dex.classes.push(class);
        dex.entry_points.push(EntryPoint {
            event: Arc::from("onDeep"),
            method: MethodRef::new("T", "deep"),
            params: vec![ParamDomain::IntRange(0, 40)],
            user_weight: 1.0,
        });
        let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(3));
        let apk = package_app(&dex, StringsXml::new(), AppMeta::named("deep"), &dev);
        InstalledPackage::install(&apk).expect("signed apk installs")
    }

    /// Runs `body` over `regs` with `fuel`; returns the result, the final
    /// registers and the instruction count.
    fn run_body(
        body: &[Instr],
        regs: &[RtValue],
        fuel: u64,
    ) -> (Result<(), Fault>, Vec<RtValue>, u64) {
        let pkg = Arc::new(recursive_app());
        let env = DeviceEnv::sample(&mut StdRng::seed_from_u64(1));
        let mut vm = Vm::new(pkg, env, 1, VmOptions::default());
        let prog = Arc::clone(vm.pkg.decoded_program());
        let decoded = crate::decode::decode_body(&vm.pkg, &prog, body);
        vm.fuel = fuel;
        let mut r = regs.to_vec();
        let host = Host {
            id: 0,
            mref: &prog.entry(0).mref,
        };
        let flow = vm.exec_decoded(&prog, &decoded, &mut r, host, 0, 0);
        r.truncate(regs.len());
        (flow.map(|_| ()), r, vm.telemetry.instr_executed)
    }

    #[test]
    fn a_chain_stopped_mid_way_keeps_its_completed_steps() {
        // a += 5; a *= 3; a = a <op> r; a += 1, with a = 7 in v0 and the
        // rhs in v1.
        let chain = |op| {
            vec![
                Instr::BinOpConst {
                    op: BinOp::Add,
                    dst: Reg(0),
                    lhs: Reg(0),
                    rhs: 5,
                },
                Instr::BinOpConst {
                    op: BinOp::Mul,
                    dst: Reg(0),
                    lhs: Reg(0),
                    rhs: 3,
                },
                Instr::BinOp {
                    op,
                    dst: Reg(0),
                    lhs: Reg(0),
                    rhs: Reg(1),
                },
                Instr::BinOpConst {
                    op: BinOp::Add,
                    dst: Reg(0),
                    lhs: Reg(0),
                    rhs: 1,
                },
            ]
        };
        let cases = [
            (BinOp::Div, RtValue::Int(0), 100, Fault::DivByZero, 36, 3),
            (BinOp::Rem, RtValue::Int(0), 100, Fault::DivByZero, 36, 3),
            (
                BinOp::Add,
                RtValue::Str("s".into()),
                100,
                Fault::TypeError("binop rhs not int"),
                36,
                3,
            ),
            (BinOp::Add, RtValue::Int(1), 1, Fault::OutOfFuel, 12, 2),
            (BinOp::Add, RtValue::Int(1), 0, Fault::OutOfFuel, 7, 1),
        ];
        for (op, rhs, fuel, fault, acc, instr) in cases {
            let regs = [RtValue::Int(7), rhs.clone()];
            assert_eq!(
                run_body(&chain(op), &regs, fuel),
                (Err(fault), vec![RtValue::Int(acc), rhs], instr),
                "{op:?} fuel {fuel}"
            );
        }
        // A Bool accumulator becomes an Int at its first completed step; a
        // non-integer one faults on the first lhs read and stays as it was.
        for (a, expect) in [
            (RtValue::Bool(true), (Fault::DivByZero, RtValue::Int(18), 3)),
            (
                RtValue::Str("a".into()),
                (
                    Fault::TypeError("binop lhs not int"),
                    RtValue::Str("a".into()),
                    1,
                ),
            ),
        ] {
            let regs = [a, RtValue::Int(0)];
            let (fault, acc, instr) = expect;
            assert_eq!(
                run_body(&chain(BinOp::Div), &regs, 100),
                (Err(fault), vec![acc, RtValue::Int(0)], instr)
            );
        }
    }

    #[test]
    fn frame_pool_stays_within_its_cap_over_a_profile() {
        let mut rng = StdRng::seed_from_u64(5);
        let opts = VmOptions {
            record_field_values: true,
            ..VmOptions::default()
        };
        let mut vm = Vm::new(recursive_app(), DeviceEnv::sample(&mut rng), 5, opts);
        let dex = Arc::clone(&vm.pkg.dex);
        for _ in 0..10_000 {
            let ev = RandomEventSource
                .next_event(&dex, &mut rng)
                .expect("the app has an entry point");
            assert!(vm.fire_entry(ev.entry_index, ev.args).completed());
        }
        assert!(!vm.frame_pool.is_empty(), "finished frames are reused");
        assert!(vm.frame_pool.len() <= FRAME_POOL_CAP);
    }
}
