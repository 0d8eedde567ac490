//! Pins the profiling phase's output. One SHA-256 runs over the
//! `ProfileResult` of every flagship profiled under the paper's default
//! config (10,000 random events): instruction and event counts, per-method
//! call counts, every field-value sample with its timestamp, and the hot
//! set. Interpreter optimizations must leave it unchanged; a deliberate
//! change to the VM's cost model or telemetry must update the constant.

use bombdroid::core::{profile_app, ProfileResult, ProtectConfig};
use bombdroid::crypto::{hex, Sha256};
use bombdroid::prelude::DeveloperKey;
use bombdroid::runtime::telemetry::FIELD_SAMPLE_CAP;
use rand::{rngs::StdRng, SeedableRng};

const PROFILE_DIGEST: &str = "eef19d35a1bcc78b7c910fc8b0096545ca3b576f3687879e4b1b423f47da0810";

fn absorb(h: &mut Sha256, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

fn absorb_profile(h: &mut Sha256, p: &ProfileResult) {
    let t = &p.telemetry;
    h.update(&t.instr_executed.to_le_bytes());
    h.update(&t.events_run.to_le_bytes());
    h.update(&(p.method_calls.len() as u64).to_le_bytes());
    for (m, n) in &p.method_calls {
        absorb(h, m.to_string().as_bytes());
        h.update(&n.to_le_bytes());
    }
    h.update(&(p.field_values.len() as u64).to_le_bytes());
    for (field, samples) in &p.field_values {
        absorb(h, field.as_bytes());
        h.update(&(samples.len() as u64).to_le_bytes());
        for (at_ms, v) in samples {
            h.update(&at_ms.to_le_bytes());
            absorb(h, &v.canonical_bytes());
        }
    }
    let mut hot: Vec<String> = p.hot.iter().map(|m| m.to_string()).collect();
    hot.sort();
    h.update(&(hot.len() as u64).to_le_bytes());
    for m in &hot {
        absorb(h, m.as_bytes());
    }
}

#[test]
fn profile_output_matches_pinned_digest() {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(0xB0_0B5));
    let config = ProtectConfig::default();
    let mut all = Sha256::new();
    let mut capped = 0usize;
    for (ai, app) in bombdroid::corpus::flagship::all().iter().enumerate() {
        let apk = app.apk(&dev);
        let profile = profile_app(&apk, &config, 0x9F0F + ai as u64).expect("profile succeeds");
        assert_eq!(profile.telemetry.events_run, config.profiling_events);
        capped += profile
            .field_values
            .values()
            .filter(|s| s.len() == FIELD_SAMPLE_CAP)
            .count();
        absorb_profile(&mut all, &profile);
    }
    assert!(capped > 0, "no field reached FIELD_SAMPLE_CAP");
    assert_eq!(hex::encode(&all.finalize()), PROFILE_DIGEST);
}
