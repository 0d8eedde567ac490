//! Pins the protect pass's output bytes. One SHA-256 runs over the encoded
//! dex, `strings.xml` and the report of every flagship under three configs
//! (paper default, single-trigger control, no code weaving). Any change to
//! a wire byte, a blob id or a report entry moves the digest, so refactors
//! of the protect pipeline must leave it unchanged; a deliberate output
//! change must update the constant.

use bombdroid::core::{ProtectConfig, Protector};
use bombdroid::crypto::{hex, Sha256};
use bombdroid::dex::wire;
use bombdroid::prelude::DeveloperKey;
use rand::{rngs::StdRng, SeedableRng};

const PROTECT_DIGEST: &str = "5f2012e28b31b30d10fbf110a3cbe0834f640b195255e8cfd6b04b4770c40d38";

fn configs() -> [(&'static str, ProtectConfig); 3] {
    let base = ProtectConfig::fast_profile();
    [
        ("default", base.clone()),
        (
            "control",
            ProtectConfig {
                double_trigger: false,
                bogus_ratio: 0.0,
                ..base.clone()
            },
        ),
        (
            "unwoven",
            ProtectConfig {
                weave_original: false,
                ..base
            },
        ),
    ]
}

fn absorb(h: &mut Sha256, bytes: &[u8]) {
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

#[test]
fn protect_output_matches_pinned_digest() {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(0xB0_0B5));
    let mut all = Sha256::new();
    for (ci, (name, config)) in configs().into_iter().enumerate() {
        for (ai, app) in bombdroid::corpus::flagship::all().iter().enumerate() {
            let apk = app.apk(&dev);
            let seed = 0x7AB0 + (ci * 100 + ai) as u64;
            let protected = Protector::new(config.clone())
                .protect(&apk, &mut StdRng::seed_from_u64(seed))
                .unwrap_or_else(|e| panic!("{name}/{}: protect failed: {e}", app.name));
            let mut h = Sha256::new();
            absorb(&mut h, &wire::encode_dex(&protected.dex));
            absorb(&mut h, &protected.strings.to_bytes());
            absorb(&mut h, format!("{:?}", protected.report).as_bytes());
            all.update(&h.finalize());
        }
    }
    assert_eq!(hex::encode(&all.finalize()), PROTECT_DIGEST);
}
