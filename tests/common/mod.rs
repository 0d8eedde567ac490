//! SHA-256 absorbers shared by the suites that pin what a VM observed.
//! Every field goes in with a length or a fixed width, so no two distinct
//! sessions absorb the same byte stream.

use bombdroid::crypto::Sha256;
use bombdroid::prelude::Vm;
use bombdroid::runtime::Telemetry;

/// Absorbs `bytes` behind their length.
pub fn absorb(h: &mut Sha256, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

/// Absorbs every field of `t`.
pub fn absorb_telemetry(h: &mut Sha256, t: &Telemetry) {
    h.update(&t.instr_executed.to_le_bytes());
    h.update(&t.events_run.to_le_bytes());
    for set in [&t.outer_satisfied, &t.eq_satisfied] {
        h.update(&(set.len() as u64).to_le_bytes());
        for (m, pc) in set {
            absorb(h, m.to_string().as_bytes());
            h.update(&(*pc as u64).to_le_bytes());
        }
    }
    for set in [&t.markers, &t.blobs_decrypted] {
        h.update(&(set.len() as u64).to_le_bytes());
        for id in set {
            h.update(&id.to_le_bytes());
        }
    }
    h.update(&t.first_marker_ms.map_or(u64::MAX, |ms| ms).to_le_bytes());
    h.update(&t.decrypt_failures.to_le_bytes());
    h.update(&(t.responses.len() as u64).to_le_bytes());
    for r in &t.responses {
        absorb(h, format!("{:?}", r.kind).as_bytes());
        h.update(&r.at_ms.to_le_bytes());
    }
    h.update(&t.piracy_reports.to_le_bytes());
    h.update(&(t.logs.len() as u64).to_le_bytes());
    for line in &t.logs {
        absorb(h, line.as_bytes());
    }
    h.update(&t.leaked_bytes.to_le_bytes());
    h.update(&(t.reflection_trace.len() as u64).to_le_bytes());
    for (name, at_ms) in &t.reflection_trace {
        absorb(h, name.as_bytes());
        h.update(&at_ms.to_le_bytes());
    }
}

/// Absorbs a session's telemetry, clock, final statics and per-method call
/// counts.
pub fn absorb_session(h: &mut Sha256, vm: &Vm) {
    absorb_telemetry(h, vm.telemetry());
    h.update(&vm.clock_ms().to_le_bytes());
    let statics = vm.statics_snapshot();
    h.update(&(statics.len() as u64).to_le_bytes());
    for (k, v) in &statics {
        absorb(h, k.as_bytes());
        absorb(h, v.as_bytes());
    }
    let calls = vm.method_calls();
    h.update(&(calls.len() as u64).to_le_bytes());
    for (m, n) in &calls {
        absorb(h, m.to_string().as_bytes());
        h.update(&n.to_le_bytes());
    }
}
