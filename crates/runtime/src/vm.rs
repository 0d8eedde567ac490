//! The virtual machine core — our stand-in for the ART runtime.
//!
//! Executes installed packages event-by-event with a deterministic cost
//! model (instructions ↦ virtual milliseconds), dispatches framework shims,
//! and implements the two bomb instructions: salted hashing and
//! decrypt-and-execute with fragment caching ("the code decryption is
//! one-time effort by caching it in memory", paper §8.4).
//!
//! The execution engine is layered across three sibling modules:
//! [`crate::decode`] lowers method bodies, decrypted fragments and detached
//! fragments into flat [`DecodedOp`] arrays, [`crate::exec`] holds the
//! dispatch loop over them, and [`crate::snapshot`] provides copy-on-write
//! session snapshots and `Vm::fork`. This module owns the VM state, the
//! cost model, and the framework shims the dispatch loop calls.
//!
//! [`DecodedOp`]: crate::decode::DecodedOp

use crate::decode::{self, DecodedBody, DecodedProgram};
use crate::env::DeviceEnv;
use crate::exec::{Host, DETACHED};
use crate::package::InstalledPackage;
use crate::telemetry::{
    FieldValues, MethodCalls, ResponseEvent, ResponseKind, Telemetry, FIELD_SAMPLE_CAP,
};
use crate::value::RtValue;
use bombdroid_crypto::{blob, kdf};
use bombdroid_dex::{wire, BinOp, BlobId, CondOp, HostApi, Instr, MethodRef, StrOp, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// One observed control-flow edge: `(coverage unit, from decoded pc, to
/// decoded pc)`.
///
/// The unit is the decoded program's flat method id for method bodies and
/// `0x8000_0000 | blob id` for decrypted fragments (fragment ops are
/// numbered from zero in their own body, so without the unit tag a
/// fragment edge could alias a host-method edge). Plain tuples keep the
/// set `Ord`-sorted, so exports are deterministic.
pub type CovEdge = (u32, u32, u32);

/// Attacker-side hooks: an analyst may "hack and modify their own Android
/// systems arbitrarily" (paper §2.2), so the VM can be instrumented when it
/// plays the attacker's device.
#[derive(Debug, Clone, Default)]
pub struct AttackerHooks {
    /// Make `getPublicKey` (direct and reflective) return these bytes.
    pub fake_public_key: Option<Vec<u8>>,
    /// Force the framework RNG to a constant (defeats SSN's probabilistic
    /// invocation).
    pub force_random: Option<i64>,
    /// Record every reflective call's resolved name (defeats SSN's name
    /// obfuscation).
    pub trace_reflection: bool,
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Instruction budget per fired event (infinite loops hit this).
    pub fuel_per_event: u64,
    /// Instructions per virtual millisecond (the cost model's clock rate).
    pub instr_per_ms: u64,
    /// Record scalar field writes (profiling mode).
    pub record_field_values: bool,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Record control-flow edges ([`CovEdge`]) from the decoded dispatch
    /// loop — the greybox fuzzer's feedback signal. Off by default: the
    /// plain dispatch path pays a single branch on an always-`None` option,
    /// and coverage recording never charges cost-model instructions, so
    /// telemetry is bit-identical with the flag on or off.
    pub collect_coverage: bool,
    /// Attacker instrumentation.
    pub hooks: AttackerHooks,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            fuel_per_event: 300_000,
            instr_per_ms: 2_000,
            record_field_values: false,
            max_call_depth: 64,
            collect_coverage: false,
            hooks: AttackerHooks::default(),
        }
    }
}

/// Most heap cells — array slots plus objects — one VM may allocate over
/// its life. The heap is never freed, so without a total an app could make
/// a VM (and the protect service profiling it) allocate until the process
/// is killed: `NewArray` costs 2 fuel for up to 10^6 slots of 24 bytes.
/// 2^20 cells hold one largest array and bound slot storage to about
/// 24 MiB per VM. The corpus peak is 0 cells: no corpus app, and no code
/// the protector weaves in, allocates an array or an object.
pub const HEAP_CELL_BUDGET: u64 = 1 << 20;

/// Longest string, in bytes, that `StrOp::Concat` may build. Without it
/// `s = s + s` doubles a string per 2 fuel. The corpus never concatenates;
/// its longest string operand is 16 bytes.
pub const MAX_CONCAT_LEN: usize = 1 << 16;

/// A runtime fault. Responses deliberately inject some of these into
/// repackaged apps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Null dereference.
    NullDeref,
    /// Operand had the wrong type.
    TypeError(&'static str),
    /// Integer division by zero.
    DivByZero,
    /// Array index out of bounds.
    IndexOutOfBounds,
    /// Call to a method that does not exist.
    UnknownMethod(MethodRef),
    /// Reflective call name did not resolve.
    UnknownReflectTarget(String),
    /// A `DecryptExec` failed to authenticate (wrong key or tampering).
    DecryptFailed,
    /// Decrypted bytes were not a valid fragment (tampered blob).
    FragmentDecode,
    /// Explicit `throw`.
    Thrown(String),
    /// Call depth exceeded.
    StackOverflow,
    /// Instruction budget exhausted (endless loop / freeze).
    OutOfFuel,
    /// The process was killed by a response.
    Killed,
    /// The app is frozen by a response.
    Frozen,
    /// Event index out of range or arity mismatch.
    BadEvent(String),
    /// An allocation would exceed [`HEAP_CELL_BUDGET`] or a concatenation
    /// [`MAX_CONCAT_LEN`].
    HeapExhausted,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NullDeref => write!(f, "null dereference"),
            Fault::TypeError(what) => write!(f, "type error: {what}"),
            Fault::DivByZero => write!(f, "division by zero"),
            Fault::IndexOutOfBounds => write!(f, "array index out of bounds"),
            Fault::UnknownMethod(m) => write!(f, "unknown method {m}"),
            Fault::UnknownReflectTarget(n) => write!(f, "unknown reflection target {n:?}"),
            Fault::DecryptFailed => write!(f, "payload decryption failed"),
            Fault::FragmentDecode => write!(f, "decrypted fragment is malformed"),
            Fault::Thrown(m) => write!(f, "thrown: {m}"),
            Fault::StackOverflow => write!(f, "stack overflow"),
            Fault::OutOfFuel => write!(f, "event exceeded instruction budget"),
            Fault::Killed => write!(f, "process killed"),
            Fault::Frozen => write!(f, "app frozen"),
            Fault::BadEvent(m) => write!(f, "bad event: {m}"),
            Fault::HeapExhausted => write!(f, "heap budget exhausted"),
        }
    }
}

impl std::error::Error for Fault {}

/// Outcome of firing one event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventOutcome {
    /// `Ok(())` or the fault that ended the event.
    pub result: Result<(), Fault>,
    /// Instructions executed by this event.
    pub instr: u64,
}

impl EventOutcome {
    /// Whether the event ran to completion.
    pub fn completed(&self) -> bool {
        self.result.is_ok()
    }
}

pub(crate) enum Flow {
    Done,
    Returned(RtValue),
}

/// Deterministic execution-mix counters for one session: how often each
/// fused superinstruction dispatched, how the per-session fragment cache
/// behaved, and how many decoded method bodies were fetched. Plain `u64`
/// fields (not facade calls) so the dispatch hot loop pays one increment;
/// [`Vm::publish_obs`] folds them into the active recorder at session end.
/// Every field depends only on the session's event sequence — never on
/// scheduling — so the counters honor the fleet determinism contract.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpMix {
    pub(crate) hash_if: u64,
    pub(crate) binop_const_if: u64,
    pub(crate) const_if: u64,
    pub(crate) arith_chain: u64,
    pub(crate) const_array_get: u64,
    pub(crate) frag_cache_hits: u64,
    pub(crate) frag_cache_misses: u64,
    pub(crate) decode_body_fetches: u64,
}

/// The virtual machine for one app process on one device.
///
/// Heap state (`statics`, `objects`, `arrays`) lives behind [`Arc`]s with
/// copy-on-write mutation, so [`Vm::snapshot`] and [`Vm::fork`] capture and
/// resume sessions in O(changed-state) instead of deep-copying; a VM that
/// never forks pays only an uncontended refcount check per mutation.
///
/// Statics are indexed by the slots of the package's decoded program
/// ([`DecodedProgram::field_slot`]); `None` marks a static that was never
/// written, which reads as `Int(0)` and is left out of
/// [`Vm::statics_snapshot`] and untouched by `NullOutField`.
#[derive(Debug)]
pub struct Vm {
    /// Installed package being executed. Shared: booting a second device
    /// for the same package is an [`Arc`] clone, not a bytecode copy.
    pub pkg: Arc<InstalledPackage>,
    /// Device environment.
    pub env: DeviceEnv,
    pub(crate) opts: VmOptions,
    pub(crate) rng: StdRng,
    pub(crate) statics: Arc<Vec<Option<RtValue>>>,
    pub(crate) objects: Arc<Vec<BTreeMap<Arc<str>, RtValue>>>,
    pub(crate) arrays: Arc<Vec<Vec<RtValue>>>,
    /// Array slots plus objects allocated so far, against
    /// [`HEAP_CELL_BUDGET`]. Forks and resumes inherit it with the heap.
    pub(crate) heap_cells: u64,
    pub(crate) telemetry: Telemetry,
    pub(crate) blob_cache: HashMap<u32, Arc<DecodedBody>>,
    pub(crate) clock_ms: u64,
    pub(crate) instr_accum: u64,
    pub(crate) fuel: u64,
    pub(crate) killed: bool,
    pub(crate) frozen: bool,
    /// Invocation counts indexed by flat decoded method id. Sized to the
    /// program on the first call; the sorted [`MethodCalls`] view is built
    /// only by [`Vm::method_calls`] and [`Vm::into_profile`].
    pub(crate) call_counts: Vec<u64>,
    /// Field-value samples (profiling mode) indexed by the slot of their
    /// `Class.field` key in the decoded program's key table, which statics
    /// and instance fields share. Each list is capped at
    /// [`FIELD_SAMPLE_CAP`]; the keyed [`FieldValues`] view is built on
    /// demand.
    pub(crate) field_samples: Vec<Vec<(u64, Value)>>,
    /// Deterministic per-session execution-mix counters (see [`OpMix`]).
    pub(crate) op_mix: OpMix,
    /// Observed control-flow edges, `Some` iff
    /// [`VmOptions::collect_coverage`] is set (an empty `BTreeSet` is
    /// allocation-free, so the disabled case costs nothing at runtime).
    pub(crate) coverage: Option<BTreeSet<CovEdge>>,
    /// Free register files for decoded calls, at most [`FRAME_POOL_CAP`]
    /// of them. Scratch state: never captured by snapshots.
    pub(crate) frame_pool: Vec<Vec<RtValue>>,
    /// QC sites whose telemetry entries this session already recorded,
    /// as (decoded method id, original pc, outer). A repeat hit skips the
    /// `MethodRef` clone and the telemetry set walk. Starts empty on boot,
    /// fork and resume.
    pub(crate) qc_seen: BTreeSet<(u32, u32, bool)>,
}

/// Most free register files a VM keeps for reuse. A frame goes back to the
/// pool when its call ends, so without a bound one deep recursion would
/// pin a frame per level for the rest of the session. The cap is below the
/// default call depth (64), so a pool never keeps more frames than a
/// session at that depth holds live anyway.
pub(crate) const FRAME_POOL_CAP: usize = 16;

/// Keys the per-slot sample lists of `pkg`'s VM by `Class.field`, leaving
/// out keys never sampled.
fn keyed_samples(
    pkg: &InstalledPackage,
    lists: impl IntoIterator<Item = Vec<(u64, Value)>>,
) -> FieldValues {
    let keys = pkg.decoded_program().field_keys();
    lists
        .into_iter()
        .zip(keys)
        .filter(|(samples, _)| !samples.is_empty())
        .map(|(samples, key)| (key.to_string(), samples))
        .collect()
}

impl Vm {
    /// Boots an app process for `pkg` on a device with environment `env`.
    ///
    /// Accepts the package by value or as an [`Arc`]; fleet callers booting
    /// many devices for one package should pass `Arc` clones (or better,
    /// fork sessions from a [`crate::snapshot::SessionPool`]).
    pub fn new(
        pkg: impl Into<Arc<InstalledPackage>>,
        env: DeviceEnv,
        seed: u64,
        opts: VmOptions,
    ) -> Self {
        let pkg = pkg.into();
        let coverage = opts.collect_coverage.then(BTreeSet::new);
        Vm {
            pkg,
            env,
            opts,
            rng: StdRng::seed_from_u64(seed),
            statics: Arc::new(Vec::new()),
            objects: Arc::new(Vec::new()),
            arrays: Arc::new(Vec::new()),
            heap_cells: 0,
            telemetry: Telemetry::new(),
            blob_cache: HashMap::new(),
            clock_ms: 0,
            instr_accum: 0,
            fuel: 0,
            killed: false,
            frozen: false,
            call_counts: Vec::new(),
            field_samples: Vec::new(),
            op_mix: OpMix::default(),
            coverage,
            frame_pool: Vec::new(),
            qc_seen: BTreeSet::new(),
        }
    }

    /// Convenience constructor with default options.
    pub fn boot(pkg: impl Into<Arc<InstalledPackage>>, env: DeviceEnv, seed: u64) -> Self {
        Vm::new(pkg, env, seed, VmOptions::default())
    }

    /// Telemetry recorded so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Consumes the VM and returns its telemetry.
    pub fn into_telemetry(self) -> Telemetry {
        self.telemetry
    }

    /// Per-method invocation counts so far, built from the dense count
    /// table; methods never called are absent.
    pub fn method_calls(&self) -> MethodCalls {
        let prog = self.pkg.decoded_program();
        self.call_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(id, &n)| (prog.entry(id).mref.clone(), n))
            .collect()
    }

    /// Field-value samples so far (empty unless
    /// [`VmOptions::record_field_values`] is set), keyed by `Class.field`.
    /// Copies every sample; [`Vm::into_profile`] moves them instead.
    pub fn field_values(&self) -> FieldValues {
        keyed_samples(&self.pkg, self.field_samples.iter().cloned())
    }

    /// Consumes the VM and returns its telemetry with both profile tables,
    /// moving the field samples rather than copying them.
    pub fn into_profile(self) -> (Telemetry, MethodCalls, FieldValues) {
        let calls = self.method_calls();
        let fields = keyed_samples(&self.pkg, self.field_samples);
        (self.telemetry, calls, fields)
    }

    /// Counts one call of decoded method `id`.
    #[inline]
    pub(crate) fn count_call(&mut self, prog: &DecodedProgram, id: usize) {
        if self.call_counts.len() <= id {
            self.call_counts.resize(prog.method_count(), 0);
        }
        self.call_counts[id] += 1;
    }

    /// Samples a write of `v` to the field whose key has slot `slot`, if it
    /// is a scalar and the key's list is not full. The caller checks
    /// [`VmOptions::record_field_values`]. A full list is checked first, so
    /// a write past the cap converts nothing.
    #[inline]
    pub(crate) fn sample_field(&mut self, slot: usize, v: &RtValue) {
        if self
            .field_samples
            .get(slot)
            .is_some_and(|s| s.len() >= FIELD_SAMPLE_CAP)
        {
            return;
        }
        let Some(c) = v.to_const() else {
            return;
        };
        if self.field_samples.len() <= slot {
            self.field_samples.resize_with(slot + 1, Vec::new);
        }
        self.field_samples[slot].push((self.clock_ms, c));
    }

    /// Publishes this VM's telemetry-derived metrics (instruction volume,
    /// decrypt success/failure, triggered bombs, responses) into the
    /// active `bombdroid-obs` recorder. Harness code calls this once per
    /// finished run; pairing `vm.instr_executed` with the harness's
    /// `vm.drive`/`vm.session` span yields instructions-per-second, and
    /// `vm.decrypt_failures` over `vm.decrypt_failures +
    /// vm.blobs_decrypted` is the decrypt-failure rate.
    pub fn publish_obs(&self) {
        if !bombdroid_obs::enabled() {
            return;
        }
        let t = &self.telemetry;
        bombdroid_obs::counter_add("vm.runs", 1);
        bombdroid_obs::counter_add("vm.instr_executed", t.instr_executed);
        bombdroid_obs::counter_add("vm.events_run", t.events_run);
        bombdroid_obs::counter_add("vm.blobs_decrypted", t.blobs_decrypted.len() as u64);
        bombdroid_obs::counter_add("vm.decrypt_failures", t.decrypt_failures);
        bombdroid_obs::counter_add("vm.bombs_triggered", t.markers.len() as u64);
        bombdroid_obs::counter_add("vm.responses", t.responses.len() as u64);
        bombdroid_obs::counter_add("vm.piracy_reports", t.piracy_reports);
        // Execution-mix counters, skipped when zero to keep recorders
        // sparse (the skip depends only on the deterministic values, so
        // merged totals stay thread-count-independent).
        let m = &self.op_mix;
        for (name, v) in [
            ("vm.ops.hash_if", m.hash_if),
            ("vm.ops.binop_const_if", m.binop_const_if),
            ("vm.ops.const_if", m.const_if),
            ("vm.ops.arith_chain", m.arith_chain),
            ("vm.ops.const_array_get", m.const_array_get),
            ("vm.frag_cache.hits", m.frag_cache_hits),
            ("vm.frag_cache.misses", m.frag_cache_misses),
            ("vm.decode.body_fetches", m.decode_body_fetches),
        ] {
            if v > 0 {
                bombdroid_obs::counter_add(name, v);
            }
        }
    }

    /// Records one taken control-flow edge. A no-op (single `None` branch)
    /// unless [`VmOptions::collect_coverage`] was set at boot. Deliberately
    /// does **not** [`charge`](Vm::charge): the cost model, fuel, and
    /// telemetry must be bit-identical with coverage on or off, so the
    /// perf guard can assert zero overhead from the deterministic side.
    #[inline]
    pub(crate) fn cov_edge(&mut self, unit: u32, from: u32, to: u32) {
        if let Some(cov) = &mut self.coverage {
            cov.insert((unit, from, to));
        }
    }

    /// Whether this VM records coverage.
    pub fn coverage_enabled(&self) -> bool {
        self.coverage.is_some()
    }

    /// The control-flow edges observed so far, in sorted order (empty when
    /// [`VmOptions::collect_coverage`] is off).
    pub fn coverage_edges(&self) -> Vec<CovEdge> {
        match &self.coverage {
            Some(cov) => cov.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Takes and clears the observed edges, leaving collection enabled.
    pub fn take_coverage(&mut self) -> Vec<CovEdge> {
        match &mut self.coverage {
            Some(cov) => std::mem::take(cov).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Current virtual time in milliseconds.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Whether a response killed the process.
    pub fn is_killed(&self) -> bool {
        self.killed
    }

    /// Whether a response froze the app.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Advances idle time (user think-time between events).
    pub fn advance_ms(&mut self, ms: u64) {
        self.clock_ms += ms;
    }

    /// A sorted snapshot of all static fields — the app's observable state
    /// (used by differential corruption probes).
    pub fn statics_snapshot(&self) -> Vec<(String, String)> {
        let keys = self.pkg.decoded_program().field_keys();
        let mut snap: Vec<(String, String)> = self
            .statics
            .iter()
            .zip(&keys)
            .filter_map(|(v, k)| v.as_ref().map(|v| (k.to_string(), v.to_string())))
            .collect();
        snap.sort();
        snap
    }

    /// Executes a detached instruction fragment with a caller-supplied
    /// register file — the primitive behind *forced execution* and
    /// *slice execution* attacks (paper §2.1), where an analyst runs
    /// extracted code outside its original control flow. The body is
    /// lowered like any other and runs without a call charge. It has no
    /// method of its own: QC telemetry is keyed on `<detached>.fragment`
    /// at the body's own pcs, and [`DETACHED`] stands in for its method id.
    pub fn run_detached_fragment(
        &mut self,
        body: &[Instr],
        mut regs: Vec<RtValue>,
    ) -> Result<Option<RtValue>, Fault> {
        self.fuel = self.opts.fuel_per_event;
        let prog = Arc::clone(self.pkg.decoded_program());
        let decoded = decode::decode_body(&self.pkg, &prog, body);
        let host = Host {
            id: DETACHED,
            mref: &MethodRef::new("<detached>", "fragment"),
        };
        match self.exec_decoded(&prog, &decoded, &mut regs, host, 0, DETACHED)? {
            Flow::Returned(v) => Ok(Some(v)),
            Flow::Done => Ok(None),
        }
    }

    /// Fires entry point `index` with `args`.
    pub fn fire_entry(&mut self, index: usize, args: Vec<RtValue>) -> EventOutcome {
        if index >= self.pkg.dex.entry_points.len() {
            return EventOutcome {
                result: Err(Fault::BadEvent(format!("no entry point {index}"))),
                instr: 0,
            };
        }
        // The decoded program resolved every entry point when it was
        // built, so an event needs no method-index lookup.
        let prog = Arc::clone(self.pkg.decoded_program());
        if let Some(id) = prog.entry_point_target(index) {
            return self.fire(|vm| vm.call_id(&prog, id, args, 0));
        }
        let mref = self.pkg.dex.entry_points[index].method.clone();
        self.fire_method(&mref, args)
    }

    /// Fires an arbitrary method as an event (also used by forced-execution
    /// attacks, which call internal methods directly).
    pub fn fire_method(&mut self, mref: &MethodRef, args: Vec<RtValue>) -> EventOutcome {
        self.fire(|vm| vm.call(mref, args, 0))
    }

    /// Runs `call` as one event: refuses it on a killed or frozen app and
    /// refuels.
    fn fire(&mut self, call: impl FnOnce(&mut Vm) -> Result<RtValue, Fault>) -> EventOutcome {
        if self.killed {
            return EventOutcome {
                result: Err(Fault::Killed),
                instr: 0,
            };
        }
        if self.frozen {
            return EventOutcome {
                result: Err(Fault::Frozen),
                instr: 0,
            };
        }
        self.fuel = self.opts.fuel_per_event;
        self.telemetry.events_run += 1;
        let before = self.telemetry.instr_executed;
        let result = call(self).map(|_| ());
        EventOutcome {
            instr: self.telemetry.instr_executed - before,
            result,
        }
    }

    #[inline]
    pub(crate) fn charge(&mut self, cost: u64) -> Result<(), Fault> {
        self.telemetry.instr_executed += cost;
        self.instr_accum += cost;
        while self.instr_accum >= self.opts.instr_per_ms {
            self.instr_accum -= self.opts.instr_per_ms;
            self.clock_ms += 1;
        }
        if self.fuel < cost {
            self.fuel = 0;
            return Err(Fault::OutOfFuel);
        }
        self.fuel -= cost;
        Ok(())
    }

    /// Calls `mref`. The depth check comes before resolution: a too-deep
    /// call to a missing method is a `StackOverflow`, not `UnknownMethod`.
    fn call(
        &mut self,
        mref: &MethodRef,
        args: Vec<RtValue>,
        depth: usize,
    ) -> Result<RtValue, Fault> {
        let prog = Arc::clone(self.pkg.decoded_program());
        match prog.resolve(&self.pkg, mref) {
            Some(id) => self.call_id(&prog, id, args, depth),
            None if depth >= self.opts.max_call_depth => Err(Fault::StackOverflow),
            None => Err(Fault::UnknownMethod(mref.clone())),
        }
    }

    /// Reads static `slot`. Unwritten statics read as 0, matching Java's
    /// default initialization of numeric static fields.
    #[inline]
    pub(crate) fn get_static(&self, slot: usize) -> RtValue {
        match self.statics.get(slot) {
            Some(Some(v)) => v.clone(),
            _ => RtValue::Int(0),
        }
    }

    /// Takes `cells` from the heap budget, or faults with
    /// [`Fault::HeapExhausted`] (counted as `vm.heap_exhausted`).
    fn alloc_cells(&mut self, cells: u64) -> Result<(), Fault> {
        if self.heap_cells + cells > HEAP_CELL_BUDGET {
            return Err(Self::heap_exhausted());
        }
        self.heap_cells += cells;
        Ok(())
    }

    fn heap_exhausted() -> Fault {
        if bombdroid_obs::enabled() {
            bombdroid_obs::counter_add("vm.heap_exhausted", 1);
        }
        bombdroid_obs::flight::note("vm.fault.heap", || "heap budget exhausted".to_string());
        Fault::HeapExhausted
    }

    /// `NewInstance`: a fresh empty object.
    pub(crate) fn new_object(&mut self) -> Result<RtValue, Fault> {
        self.alloc_cells(1)?;
        let objects = Arc::make_mut(&mut self.objects);
        objects.push(BTreeMap::new());
        Ok(RtValue::Obj(objects.len() - 1))
    }

    /// `NewArray`: a zeroed array of `len` slots (at most 10^6).
    pub(crate) fn new_array(&mut self, len: &RtValue) -> Result<RtValue, Fault> {
        let n = len
            .as_int()
            .ok_or(Fault::TypeError("array length not int"))?;
        if !(0..=1_000_000).contains(&n) {
            return Err(Fault::IndexOutOfBounds);
        }
        self.alloc_cells(n as u64)?;
        let arrays = Arc::make_mut(&mut self.arrays);
        arrays.push(vec![RtValue::Int(0); n as usize]);
        Ok(RtValue::Arr(arrays.len() - 1))
    }

    /// Writes static `slot`.
    #[inline]
    pub(crate) fn put_static(&mut self, slot: usize, v: RtValue) {
        let statics = Arc::make_mut(&mut self.statics);
        if statics.len() <= slot {
            statics.resize(slot + 1, None);
        }
        statics[slot] = Some(v);
    }

    /// Calls decoded method `id` with a caller-supplied argument vector,
    /// depth check first.
    fn call_id(
        &mut self,
        prog: &Arc<DecodedProgram>,
        id: usize,
        args: Vec<RtValue>,
        depth: usize,
    ) -> Result<RtValue, Fault> {
        if depth >= self.opts.max_call_depth {
            return Err(Fault::StackOverflow);
        }
        // The arguments move into a pooled frame, so growing it to the
        // callee's register file does not reallocate.
        let mut frame = self.take_frame();
        frame.extend(args);
        self.call_decoded(prog, id, frame, depth)
    }

    /// Fetches (decrypting, lowering and caching if needed) the fragment
    /// behind `blob`: cache hits charge 2, misses charge `50 + sealed/16`
    /// before key derivation.
    ///
    /// A miss in this VM's cache still derives the key, then looks up
    /// `(blob, key)` in the program's fragment cache. The program belongs
    /// to one `Arc<DexFile>`, so the blob's salt and ciphertext are fixed
    /// and a hit proves this very decryption already succeeded: only the
    /// redundant open and decode are skipped. Failures are never cached,
    /// so every device pays for and records its own.
    pub(crate) fn fragment_for(
        &mut self,
        blob: BlobId,
        key_val: RtValue,
    ) -> Result<Arc<DecodedBody>, Fault> {
        if let Some(f) = self.blob_cache.get(&blob.0).cloned() {
            // "the code decryption is one-time effort by caching it in
            // memory" (§8.4).
            self.op_mix.frag_cache_hits += 1;
            self.charge(2)?;
            return Ok(f);
        }
        self.op_mix.frag_cache_misses += 1;
        bombdroid_obs::flight::note("vm.frag_cache.miss", || format!("blob {}", blob.0));
        let pkg = Arc::clone(&self.pkg);
        let b = pkg
            .dex
            .blob(blob)
            .ok_or(Fault::TypeError("dangling blob"))?;
        self.charge(50 + b.sealed.len() as u64 / 16)?;
        let cb = key_val
            .canonical_bytes()
            .ok_or(Fault::TypeError("key source is a reference"))?;
        let key = kdf::derive_key(&cb, &b.salt);
        let prog = pkg.decoded_program();
        let f = match prog.cached_fragment(blob.0, &key) {
            Some(f) => f,
            None => {
                let plaintext = blob::open(&key, &b.sealed).map_err(|_| {
                    self.telemetry.decrypt_failures += 1;
                    bombdroid_obs::flight::note("vm.fault.decrypt", || {
                        format!("blob {} (wrong key or tampered ciphertext)", blob.0)
                    });
                    Fault::DecryptFailed
                })?;
                let instrs = wire::decode_fragment(&plaintext).map_err(|_| {
                    bombdroid_obs::flight::note("vm.fault.fragment_decode", || {
                        format!("blob {}", blob.0)
                    });
                    Fault::FragmentDecode
                })?;
                prog.cache_fragment(blob.0, key, decode::decode_body(&pkg, prog, &instrs))
            }
        };
        self.blob_cache.insert(blob.0, f.clone());
        self.telemetry.blobs_decrypted.insert(blob.0);
        Ok(f)
    }

    #[inline]
    pub(crate) fn arith(op: BinOp, a: i64, b: i64) -> Result<i64, Fault> {
        Ok(match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(Fault::DivByZero);
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(Fault::DivByZero);
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        })
    }

    #[inline]
    pub(crate) fn compare(cond: CondOp, a: &RtValue, b: &RtValue) -> Result<bool, Fault> {
        match cond {
            CondOp::Eq | CondOp::Ne => {
                let equal = match (a, b) {
                    (RtValue::Int(_) | RtValue::Bool(_), RtValue::Int(_) | RtValue::Bool(_)) => {
                        a.as_int() == b.as_int()
                    }
                    (RtValue::Str(x), RtValue::Str(y)) => x == y,
                    (RtValue::Bytes(x), RtValue::Bytes(y)) => x == y,
                    (RtValue::Null, RtValue::Null) => true,
                    (RtValue::Obj(x), RtValue::Obj(y)) => x == y,
                    (RtValue::Arr(x), RtValue::Arr(y)) => x == y,
                    _ => false,
                };
                Ok(if cond == CondOp::Eq { equal } else { !equal })
            }
            _ => {
                let x = a
                    .as_int()
                    .ok_or(Fault::TypeError("ordered compare on non-int"))?;
                let y = b
                    .as_int()
                    .ok_or(Fault::TypeError("ordered compare on non-int"))?;
                Ok(match cond {
                    CondOp::Lt => x < y,
                    CondOp::Le => x <= y,
                    CondOp::Gt => x > y,
                    CondOp::Ge => x >= y,
                    CondOp::Eq | CondOp::Ne => unreachable!(),
                })
            }
        }
    }

    /// String-operation core over already-fetched values.
    pub(crate) fn str_op_vals(
        &mut self,
        op: StrOp,
        a: RtValue,
        rhs_val: Option<RtValue>,
    ) -> Result<RtValue, Fault> {
        let s = a
            .as_str()
            .ok_or(Fault::TypeError("strop receiver not string"))?;
        let b_str = |v: &Option<RtValue>| -> Result<String, Fault> {
            match v {
                Some(RtValue::Str(s)) => Ok(s.to_string()),
                Some(RtValue::Int(i)) => Ok(i.to_string()),
                Some(RtValue::Bool(b)) => Ok(b.to_string()),
                _ => Err(Fault::TypeError("strop operand missing or non-scalar")),
            }
        };
        Ok(match op {
            StrOp::Equals => RtValue::Bool(s == b_str(&rhs_val)?),
            StrOp::StartsWith => RtValue::Bool(s.starts_with(&b_str(&rhs_val)?)),
            StrOp::EndsWith => RtValue::Bool(s.ends_with(&b_str(&rhs_val)?)),
            StrOp::Contains => RtValue::Bool(s.contains(&b_str(&rhs_val)?)),
            StrOp::Concat => {
                let rhs = b_str(&rhs_val)?;
                if s.len() + rhs.len() > MAX_CONCAT_LEN {
                    return Err(Self::heap_exhausted());
                }
                RtValue::Str(Arc::from(format!("{s}{rhs}")))
            }
            StrOp::Length => RtValue::Int(s.chars().count() as i64),
            StrOp::HashCode => {
                // Java's String.hashCode.
                let mut h: i32 = 0;
                for c in s.chars() {
                    h = h.wrapping_mul(31).wrapping_add(c as i32);
                }
                RtValue::Int(h as i64)
            }
            StrOp::CharAt => {
                let idx = rhs_val
                    .as_ref()
                    .and_then(|v| v.as_int())
                    .ok_or(Fault::TypeError("charAt index not int"))?;
                let c = s
                    .chars()
                    .nth(usize::try_from(idx).map_err(|_| Fault::IndexOutOfBounds)?)
                    .ok_or(Fault::IndexOutOfBounds)?;
                RtValue::Int(c as i64)
            }
            StrOp::ToUpper => RtValue::Str(Arc::from(s.to_uppercase())),
            StrOp::Rot13 => {
                let rotated: String = s
                    .chars()
                    .map(|c| match c {
                        'a'..='z' => (((c as u8 - b'a' + 13) % 26) + b'a') as char,
                        'A'..='Z' => (((c as u8 - b'A' + 13) % 26) + b'A') as char,
                        other => other,
                    })
                    .collect();
                RtValue::Str(Arc::from(rotated))
            }
            StrOp::Substring => {
                let idx = rhs_val
                    .as_ref()
                    .and_then(|v| v.as_int())
                    .ok_or(Fault::TypeError("substring index not int"))?;
                let idx = usize::try_from(idx).map_err(|_| Fault::IndexOutOfBounds)?;
                if idx > s.chars().count() {
                    return Err(Fault::IndexOutOfBounds);
                }
                RtValue::Str(Arc::from(s.chars().skip(idx).collect::<String>()))
            }
        })
    }

    /// Resolves an array element for read or write; `arr_val`/`idx_val`
    /// were fetched by the caller (fault order: array type, index type,
    /// dangling array, bounds).
    pub(crate) fn array_slot_vals(
        &mut self,
        arr_val: &RtValue,
        idx_val: &RtValue,
    ) -> Result<&mut RtValue, Fault> {
        let id = match arr_val {
            RtValue::Arr(id) => *id,
            RtValue::Null => return Err(Fault::NullDeref),
            _ => return Err(Fault::TypeError("array op on non-array")),
        };
        let i = idx_val
            .as_int()
            .ok_or(Fault::TypeError("array index not int"))?;
        let a = Arc::make_mut(&mut self.arrays)
            .get_mut(id)
            .ok_or(Fault::TypeError("dangling array"))?;
        let i = usize::try_from(i).map_err(|_| Fault::IndexOutOfBounds)?;
        a.get_mut(i).ok_or(Fault::IndexOutOfBounds)
    }

    pub(crate) fn reflect_call(&mut self, name: &str, args: &[RtValue]) -> Result<RtValue, Fault> {
        match name {
            "getPublicKey" => self.host_call(&HostApi::GetPublicKey, args),
            "getManifestDigest" => self.host_call(&HostApi::GetManifestDigest, args),
            "codeDigest" => self.host_call(&HostApi::CodeDigest, args),
            "uptimeMillis" => self.host_call(&HostApi::TimeMillis, args),
            other => Err(Fault::UnknownReflectTarget(other.to_string())),
        }
    }

    pub(crate) fn host_call(&mut self, api: &HostApi, args: &[RtValue]) -> Result<RtValue, Fault> {
        match api {
            HostApi::GetPublicKey => {
                if let Some(fake) = &self.opts.hooks.fake_public_key {
                    return Ok(RtValue::Bytes(Arc::from(fake.as_slice())));
                }
                Ok(RtValue::Bytes(Arc::clone(&self.pkg.cert_public_key)))
            }
            HostApi::GetManifestDigest => {
                let entry = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or(Fault::TypeError("manifest entry name not string"))?;
                Ok(match self.pkg.manifest_digests.get(entry) {
                    Some(d) => RtValue::Bytes(d.clone()),
                    None => RtValue::Null,
                })
            }
            HostApi::GetResourceString => {
                let key = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or(Fault::TypeError("resource key not string"))?;
                Ok(match self.pkg.resources.get(key) {
                    Some(s) => RtValue::Str(Arc::clone(s)),
                    None => RtValue::Null,
                })
            }
            HostApi::CodeDigest => {
                let class = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or(Fault::TypeError("class name not string"))?;
                Ok(match self.pkg.class_digests().get(class) {
                    Some(d) => RtValue::Bytes(d.clone()),
                    None => RtValue::Null,
                })
            }
            HostApi::EnvQuery(key) => Ok(match self.env.query_str(*key) {
                Some(s) => RtValue::Str(Arc::clone(s)),
                None => RtValue::Int(self.env.query_int(*key)),
            }),
            HostApi::Sensor(kind) => {
                let v = self.env.sensor_sample(*kind, &mut self.rng);
                Ok(RtValue::Int(v))
            }
            HostApi::TimeMillis => Ok(RtValue::Int(self.clock_ms as i64)),
            HostApi::WallClockMinute => {
                let minute = (self.env.start_minute as u64 + self.clock_ms / 60_000) % 1_440;
                Ok(RtValue::Int(minute as i64))
            }
            HostApi::Random => {
                if let Some(forced) = self.opts.hooks.force_random {
                    return Ok(RtValue::Int(forced));
                }
                let bound = args.first().and_then(|v| v.as_int()).unwrap_or(i64::MAX);
                if bound <= 0 {
                    return Ok(RtValue::Int(0));
                }
                Ok(RtValue::Int(self.rng.gen_range(0..bound)))
            }
            HostApi::Log => {
                let mut line = String::new();
                for (i, v) in args.iter().enumerate() {
                    if i > 0 {
                        line.push(' ');
                    }
                    let _ = write!(line, "{v}");
                }
                self.telemetry.logs.push(line);
                Ok(RtValue::Null)
            }
            HostApi::UiNotify(kind) => {
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::UserWarned,
                    at_ms: at,
                });
                let _ = kind;
                Ok(RtValue::Null)
            }
            HostApi::ReportPiracy => {
                self.telemetry.piracy_reports += 1;
                Ok(RtValue::Null)
            }
            HostApi::LeakMemory => {
                self.telemetry.leaked_bytes += 1 << 20;
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::MemoryLeaked,
                    at_ms: at,
                });
                Ok(RtValue::Null)
            }
            HostApi::KillProcess => {
                self.killed = true;
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::Killed,
                    at_ms: at,
                });
                Err(Fault::Killed)
            }
            HostApi::Freeze => {
                self.frozen = true;
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::Frozen,
                    at_ms: at,
                });
                // A frozen app burns its whole event budget spinning.
                self.clock_ms += self.fuel / self.opts.instr_per_ms;
                self.fuel = 0;
                Err(Fault::Frozen)
            }
            HostApi::NullOutField => {
                for v in Arc::make_mut(&mut self.statics).iter_mut().flatten() {
                    *v = RtValue::Null;
                }
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::FieldNulled,
                    at_ms: at,
                });
                Ok(RtValue::Null)
            }
            HostApi::SleepMs => {
                let ms = args.first().and_then(|v| v.as_int()).unwrap_or(0).max(0);
                self.clock_ms += ms as u64;
                Ok(RtValue::Null)
            }
            HostApi::Marker(id) => {
                if self.telemetry.markers.insert(*id) && self.telemetry.first_marker_ms.is_none() {
                    self.telemetry.first_marker_ms = Some(self.clock_ms);
                }
                Ok(RtValue::Null)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_apk::{package_app, AppMeta, DeveloperKey, StringsXml};
    use bombdroid_dex::Reg;
    use bombdroid_dex::{Class, DexFile, EncryptedBlob, EntryPoint, MethodBuilder, ParamDomain};

    const SECRET: i64 = 0x5EC;

    /// An app whose only handler decrypts and runs blob 0 with its
    /// argument as the key source; `SECRET` opens it.
    fn sealed_app() -> Arc<InstalledPackage> {
        let salt = b"cache-test".to_vec();
        let key = kdf::derive_key(&Value::Int(SECRET).canonical_bytes(), &salt);
        let payload = [Instr::HostCall {
            api: HostApi::Marker(1),
            args: vec![],
            dst: None,
        }];
        let sealed = blob::seal(&key, &wire::encode_fragment(&payload));
        let mut dex = DexFile::new();
        let id = dex.add_blob(EncryptedBlob { salt, sealed });
        let mut class = Class::new("T");
        let mut b = MethodBuilder::new("T", "open", 1);
        b.decrypt_exec(id, Reg(0));
        b.ret_void();
        class.methods.push(b.finish());
        dex.classes.push(class);
        dex.entry_points.push(EntryPoint {
            event: Arc::from("onOpen"),
            method: MethodRef::new("T", "open"),
            params: vec![ParamDomain::IntRange(0, SECRET)],
            user_weight: 1.0,
        });
        let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(3));
        let apk = package_app(&dex, StringsXml::new(), AppMeta::named("sealed"), &dev);
        Arc::new(InstalledPackage::install(&apk).expect("signed install"))
    }

    fn boot(pkg: &Arc<InstalledPackage>, seed: u64) -> Vm {
        let env = DeviceEnv::sample(&mut StdRng::seed_from_u64(seed));
        Vm::boot(Arc::clone(pkg), env, seed)
    }

    #[test]
    fn devices_share_the_programs_fragments() {
        let pkg = sealed_app();
        let (mut a, mut b) = (boot(&pkg, 1), boot(&pkg, 2));
        for vm in [&mut a, &mut b] {
            assert!(vm.fire_entry(0, vec![RtValue::Int(SECRET)]).completed());
            // A second open hits the VM's own cache.
            assert!(vm.fire_entry(0, vec![RtValue::Int(SECRET)]).completed());
            assert_eq!(vm.op_mix.frag_cache_misses, 1);
            assert_eq!(vm.op_mix.frag_cache_hits, 1);
        }
        assert_eq!(a.telemetry(), b.telemetry());
        assert!(
            Arc::ptr_eq(&a.blob_cache[&0], &b.blob_cache[&0]),
            "the second device must reuse the first one's fragment"
        );
        assert_eq!(pkg.decoded_program().fragments.lock().unwrap().len(), 1);
    }

    #[test]
    fn failed_opens_are_never_cached() {
        let pkg = sealed_app();
        for seed in 0..3 {
            let mut vm = boot(&pkg, seed);
            let out = vm.fire_entry(0, vec![RtValue::Int(SECRET + 1)]);
            assert_eq!(out.result, Err(Fault::DecryptFailed));
            assert_eq!(vm.telemetry().decrypt_failures, 1);
            assert!(vm.blob_cache.is_empty());
        }
        assert!(pkg.decoded_program().fragments.lock().unwrap().is_empty());
        // The right key still opens after the failures.
        assert!(boot(&pkg, 9)
            .fire_entry(0, vec![RtValue::Int(SECRET)])
            .completed());
    }

    #[test]
    fn fragment_loads_are_counted_per_device() {
        let pkg = sealed_app();
        let rec = Arc::new(bombdroid_obs::Recorder::new());
        bombdroid_obs::with_recorder(Arc::clone(&rec), || {
            for seed in 0..3 {
                boot(&pkg, seed).fire_entry(0, vec![RtValue::Int(SECRET)]);
            }
        });
        if bombdroid_obs::enabled() {
            // Three devices each load the fragment once, although the
            // program lowered it once: the count follows the sessions.
            assert_eq!(rec.counter_value("vm.decode.fragments"), 3);
        }
    }
}
