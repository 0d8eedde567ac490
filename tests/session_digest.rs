//! Pins what user sessions on pirated installs observe. One SHA-256 runs
//! over fixed-seed `UserEventSource` sessions on each of the 8 flagships,
//! protected and then repackaged under a pirate key, each session forked
//! from a pristine `SessionPool` on the decoded engine, as the market
//! simulation runs them. It covers the session's telemetry, its clock, its
//! final statics and its per-method call counts. Interpreter optimizations
//! must leave it unchanged; a deliberate change to the VM's cost model or
//! telemetry must update the constant.

use bombdroid::core::{ProtectConfig, Protector};
use bombdroid::corpus::{flagship, UserProfile};
use bombdroid::crypto::{hex, Sha256};
use bombdroid::prelude::*;
use bombdroid::runtime::Telemetry;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

const SESSION_DIGEST: &str = "7c18001217c1702e655f0219f687e826a753c1a348782c75eca40324b91aae93";

/// Sessions per app.
const SESSIONS: u64 = 16;

/// Cap on a session's length, in minutes, to keep the suite quick.
const CAP_MINUTES: u16 = 10;

fn absorb(h: &mut Sha256, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

fn absorb_telemetry(h: &mut Sha256, t: &Telemetry) {
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

fn absorb_session(h: &mut Sha256, vm: &Vm) {
    let t = vm.telemetry();
    absorb_telemetry(h, t);
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

#[test]
fn pirated_sessions_match_pinned_digest() {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(0x5E55));
    let pirate = DeveloperKey::generate(&mut StdRng::seed_from_u64(0x9A7E));
    let mut all = Sha256::new();
    let mut markers = 0usize;
    for (ai, app) in flagship::all().iter().enumerate() {
        let mut prng = StdRng::seed_from_u64(0x5D00 + ai as u64);
        let protected = Protector::new(ProtectConfig::fast_profile())
            .protect(&app.apk(&dev), &mut prng)
            .expect("protect succeeds");
        let pirated = repackage(&protected.package(&dev), &pirate, |_| {});
        let pkg = InstalledPackage::install(&pirated).expect("pirated install");
        let pool = SessionPool::new(Arc::new(pkg), VmOptions::default());
        for s in 0..SESSIONS {
            let seed = (ai as u64) << 8 | s;
            let mut rng = StdRng::seed_from_u64(seed);
            let user = UserProfile::sample(&mut rng);
            let mut vm = pool.session(user.device.materialize(), seed);
            let mut source = UserEventSource::new(&vm.pkg);
            run_session(
                &mut vm,
                &mut source,
                &mut rng,
                u64::from(user.session_minutes.min(CAP_MINUTES)),
                u64::from(user.events_per_minute),
            );
            absorb_session(&mut all, &vm);
            markers += vm.telemetry().markers.len();
        }
    }
    assert!(markers > 0, "no session triggered a bomb");
    assert_eq!(hex::encode(&all.finalize()), SESSION_DIGEST);
}
