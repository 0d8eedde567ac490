//! Bomb assembly: turning a planned site into a cryptographically
//! obfuscated (optionally double-trigger) logic bomb.
//!
//! The transformation of paper §3.2 / Listing 3, concretely:
//!
//! ```text
//! if (X == c) { body }            // original (branch-over form)
//!   ⇓
//! h := SHA1(X | salt)
//! if (h != Hc) goto after         // Hc = SHA1(c | salt); c erased
//! decrypt_exec(blob, X)           // key = KDF(X | salt)
//! after:
//! ```
//!
//! where `blob` seals `[inner trigger → marker → detection/response] ++
//! woven original body` under `KDF(c | salt)`.

use crate::config::ResponseChoice;
use crate::fragment::{FragmentBuilder, FragmentError};
use crate::inner::InnerCond;
use crate::payload::{emit_detection, DetectionKind};
use crate::rewrite::{rewrite_region, RewriteError};
use crate::sites::{PlannedArtificial, PlannedExisting};
use bombdroid_crypto::{blob as crypto_blob, kdf};
use bombdroid_dex::{
    wire, BlobId, CondOp, EncryptedBlob, HostApi, Instr, Method, Reg, RegOrConst, Value,
};

/// Everything that goes into one bomb's payload.
#[derive(Debug, Clone)]
pub struct PayloadSpec {
    /// Marker id for triggered-bomb telemetry (None ⇒ bogus bomb).
    pub marker: Option<u32>,
    /// Inner trigger (double-trigger bombs).
    pub inner: Option<InnerCond>,
    /// Detection method + response.
    pub detection: Option<(DetectionKind, ResponseChoice)>,
    /// User-facing warning text.
    pub warn_message: String,
    /// Strategic muting (§10 future work).
    pub mute_others: bool,
}

/// Why a site could not be armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArmError {
    /// The rewrite failed (region not self-contained).
    Rewrite(RewriteError),
    /// The original body branches somewhere the fragment cannot express.
    UnweavableBody {
        /// The offending branch target.
        target: usize,
    },
    /// The payload fragment failed to assemble.
    Fragment(FragmentError),
}

impl From<RewriteError> for ArmError {
    fn from(e: RewriteError) -> Self {
        ArmError::Rewrite(e)
    }
}

impl From<FragmentError> for ArmError {
    fn from(e: FragmentError) -> Self {
        ArmError::Fragment(e)
    }
}

impl std::fmt::Display for ArmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArmError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            ArmError::UnweavableBody { target } => {
                write!(f, "body branch to @{target} cannot be woven")
            }
            ArmError::Fragment(e) => write!(f, "payload fragment failed: {e}"),
        }
    }
}

impl std::error::Error for ArmError {}

/// Remaps a conditional body's absolute targets into fragment coordinates.
fn weave_body(
    body: &[Instr],
    body_entry: usize,
    skip: usize,
    frag_base: usize,
) -> Result<Vec<Instr>, ArmError> {
    let body_len = body.len();
    let map = |t: usize| -> Result<usize, ArmError> {
        if t == skip {
            Ok(frag_base + body_len)
        } else if (body_entry..skip).contains(&t) {
            Ok(frag_base + (t - body_entry))
        } else {
            Err(ArmError::UnweavableBody { target: t })
        }
    };
    body.iter()
        .map(|instr| {
            let mut i = instr.clone();
            match &mut i {
                Instr::If { target, .. } | Instr::Goto { target } => *target = map(*target)?,
                Instr::Switch { arms, default, .. } => {
                    for (_, t) in arms.iter_mut() {
                        *t = map(*t)?;
                    }
                    *default = map(*default)?;
                }
                _ => {}
            }
            Ok(i)
        })
        .collect()
}

/// Builds the payload part of a fragment (inner trigger, marker, detection).
fn emit_payload(f: &mut FragmentBuilder, spec: &PayloadSpec) {
    let after = f.fresh_label();
    if let Some(inner) = &spec.inner {
        inner.emit(f, after);
    }
    if let Some(id) = spec.marker {
        f.host(HostApi::Marker(id), vec![], None);
    }
    if let Some((kind, response)) = &spec.detection {
        emit_detection(f, kind, *response, &spec.warn_message, spec.mute_others);
    }
    f.place_label(after);
}

/// The sealed payload blobs of one arming pass, numbered from `base`.
///
/// Each fragment is encrypted the moment it is registered, under the
/// paper's per-bomb `key = Hash(c | salt)` (§7.4); its id is `base` plus
/// its registration position.
#[derive(Debug)]
pub struct SealedBlobs {
    base: u32,
    blobs: Vec<EncryptedBlob>,
}

impl SealedBlobs {
    /// Creates an empty table whose blob ids start at `base`: the number
    /// of blobs the dex being armed already carries.
    pub fn new(base: u32) -> Self {
        SealedBlobs {
            base,
            blobs: Vec::new(),
        }
    }

    /// The id the next registered fragment will get.
    fn next_id(&self) -> BlobId {
        BlobId(self.base + self.blobs.len() as u32)
    }

    /// Seals a fragment under an already-derived site key and registers
    /// it. The key comes from the same [`kdf::site_material`] call that
    /// produced the stored condition hash, so each bomb serializes its
    /// trigger constant exactly once.
    fn seal(&mut self, key: &bombdroid_crypto::Key128, salt: &[u8], fragment: &[Instr]) -> BlobId {
        let id = self.next_id();
        self.blobs.push(EncryptedBlob {
            salt: salt.to_vec(),
            sealed: crypto_blob::seal(key, &wire::encode_fragment(fragment)),
        });
        id
    }

    /// The sealed blobs in registration (= id) order.
    pub fn into_vec(self) -> Vec<EncryptedBlob> {
        self.blobs
    }
}

/// Arms an existing-QC site as a real or bogus bomb.
///
/// With `weave = true` the original body moves into the encrypted fragment
/// (deleting the bomb corrupts the app); with `weave = false` only the
/// trigger+payload is encrypted and the body stays in plaintext after the
/// `DecryptExec` (the deletion-attack ablation).
///
/// # Errors
///
/// Returns [`ArmError`] when the region cannot be safely transformed; the
/// method is left unmodified in that case.
pub fn arm_existing(
    method: &mut Method,
    sealed: &mut SealedBlobs,
    planned: &PlannedExisting,
    spec: &PayloadSpec,
    salt: &[u8],
    weave: bool,
) -> Result<BlobId, ArmError> {
    let site = &planned.site;
    let body_entry = site.body_entry;
    let skip = planned.skip;
    let body: Vec<Instr> = method.body[body_entry..skip].to_vec();

    let scratch_base = method.registers + 1; // +0 is the hash register
    let mut f = FragmentBuilder::new(scratch_base);
    emit_payload(&mut f, spec);
    // Finish the payload first to learn its length, then append the woven
    // body in fragment coordinates.
    let mut fragment = f.finish()?;
    let frag_base = fragment.len();
    let max_frag_reg = scratch_base + 16; // generous bound; VM grows frames anyway
    if weave {
        fragment.extend(weave_body(&body, body_entry, skip, frag_base)?);
    }

    let material = kdf::site_material(&site.constant.canonical_bytes(), salt);
    let hc = material.condition_hash;
    let blob_id = sealed.next_id();
    let hreg = Reg(method.registers);
    // Without weaving the original body stays in plaintext inside the
    // replacement, right after the DecryptExec; the hash-miss branch skips
    // over it either way.
    let body_len_in_replacement = if weave { 0 } else { body.len() };
    let replacement_len = 3 + body_len_in_replacement;
    let mut replacement = vec![
        Instr::Hash {
            dst: hreg,
            src: site.cond_reg,
            salt: salt.to_vec(),
        },
        Instr::If {
            cond: CondOp::Ne,
            lhs: hreg,
            rhs: RegOrConst::Const(Value::bytes(hc)),
            target: replacement_len, // region-relative: after the region
        },
        Instr::DecryptExec {
            blob: blob_id,
            key_src: site.cond_reg,
        },
    ];
    if !weave {
        // Remap body targets to region-relative coordinates: the body now
        // starts at offset 3, and `skip` maps to `replacement_len`.
        replacement.extend(weave_body(&body, body_entry, skip, 3)?);
    }
    rewrite_region(method, planned.anchor, skip, replacement)?;
    method.registers = method.registers.max(max_frag_reg);
    Ok(sealed.seal(&material.key, salt, &fragment))
}

/// Inserts and arms an artificial-QC bomb at the planned location.
///
/// # Errors
///
/// Returns [`ArmError`] when the insertion point is invalid (should not
/// happen for planner-produced sites).
pub fn arm_artificial(
    method: &mut Method,
    sealed: &mut SealedBlobs,
    planned: &PlannedArtificial,
    spec: &PayloadSpec,
    salt: &[u8],
) -> Result<BlobId, ArmError> {
    let scratch_base = method.registers + 2; // sreg + hreg
    let mut f = FragmentBuilder::new(scratch_base);
    emit_payload(&mut f, spec);
    let fragment = f.finish()?;

    let material = kdf::site_material(&planned.constant.canonical_bytes(), salt);
    let hc = material.condition_hash;
    let sreg = Reg(method.registers);
    let hreg = Reg(method.registers + 1);
    let replacement_len = 4usize;
    let replacement = vec![
        Instr::GetStatic {
            dst: sreg,
            field: planned.field.clone(),
        },
        Instr::Hash {
            dst: hreg,
            src: sreg,
            salt: salt.to_vec(),
        },
        Instr::If {
            cond: CondOp::Ne,
            lhs: hreg,
            rhs: RegOrConst::Const(Value::bytes(hc)),
            target: replacement_len,
        },
        Instr::DecryptExec {
            blob: sealed.next_id(),
            key_src: sreg,
        },
    ];
    rewrite_region(method, planned.at, planned.at, replacement)?;
    method.registers = method.registers.max(scratch_base + 16);
    Ok(sealed.seal(&material.key, salt, &fragment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_analysis::qc;
    use bombdroid_dex::{FieldRef, MethodBuilder, MethodRef};

    fn site_method() -> Method {
        // if (v0 == 99) { log "hit"; } log "always"; return
        let mut b = MethodBuilder::new("T", "m", 1);
        let skip = b.fresh_label();
        b.if_not(CondOp::Eq, Reg(0), RegOrConst::Const(Value::Int(99)), skip);
        b.host_log("hit");
        b.place_label(skip);
        b.host_log("always");
        b.ret_void();
        b.finish()
    }

    fn planned(method: &Method) -> PlannedExisting {
        let site = qc::scan_method(method).remove(0);
        let skip = match &method.body[site.branch_pc] {
            Instr::If { target, .. } => *target,
            _ => unreachable!(),
        };
        PlannedExisting {
            anchor: site.branch_pc,
            skip,
            site,
        }
    }

    fn simple_spec(marker: u32) -> PayloadSpec {
        PayloadSpec {
            marker: Some(marker),
            inner: None,
            detection: None,
            warn_message: "warn".into(),
            mute_others: false,
        }
    }

    #[test]
    fn arming_replaces_plaintext_condition() {
        let mut method = site_method();
        let p = planned(&method);
        let mut sealed = SealedBlobs::new(0);
        let blob = arm_existing(&mut method, &mut sealed, &p, &simple_spec(0), b"salt", true)
            .expect("arm");
        let blobs = sealed.into_vec();
        assert_eq!(blob, BlobId(0));
        assert_eq!(blobs.len(), 1);
        // The constant 99 is gone from the bytecode.
        let text = bombdroid_dex::asm::disasm_method(&method);
        assert!(!text.contains("#99"), "constant erased:\n{text}");
        assert!(text.contains("sha1-hash"));
        assert!(text.contains("decrypt-exec"));
        // The woven body ("hit" const) left the plaintext.
        assert!(!text.contains("hit"));
        assert!(text.contains("always"));
    }

    #[test]
    fn armed_method_still_validates() {
        let mut method = site_method();
        let p = planned(&method);
        let mut sealed = SealedBlobs::new(0);
        arm_existing(&mut method, &mut sealed, &p, &simple_spec(0), b"salt", true).unwrap();
        let blobs = sealed.into_vec();
        let mut dex = bombdroid_dex::DexFile::new();
        let mut class = bombdroid_dex::Class::new("T");
        class.methods.push(method);
        dex.classes.push(class);
        dex.blobs = blobs;
        bombdroid_dex::validate(&dex).expect("valid after arming");
    }

    #[test]
    fn unweave_keeps_body_in_plaintext() {
        let mut method = site_method();
        let p = planned(&method);
        let mut sealed = SealedBlobs::new(0);
        arm_existing(
            &mut method,
            &mut sealed,
            &p,
            &simple_spec(0),
            b"salt",
            false,
        )
        .unwrap();
        let text = bombdroid_dex::asm::disasm_method(&method);
        assert!(text.contains("hit"), "body stays in plaintext:\n{text}");
    }

    #[test]
    fn artificial_insertion_compiles() {
        let mut method = site_method();
        let before_len = method.body.len();
        let mut sealed = SealedBlobs::new(0);
        let planned = PlannedArtificial {
            method: MethodRef::new("T", "m"),
            at: 0,
            field: FieldRef::new("T", "state"),
            constant: Value::Int(5),
        };
        arm_artificial(&mut method, &mut sealed, &planned, &simple_spec(1), b"s").unwrap();
        assert_eq!(method.body.len(), before_len + 4);
        let text = bombdroid_dex::asm::disasm_method(&method);
        assert!(text.contains("sget"));
        assert!(text.contains("sha1-hash"));
    }

    #[test]
    fn fragment_decrypts_with_right_key_only() {
        let mut method = site_method();
        let p = planned(&method);
        let constant = p.site.constant.clone();
        let mut sealed = SealedBlobs::new(0);
        arm_existing(
            &mut method,
            &mut sealed,
            &p,
            &simple_spec(3),
            b"pepper",
            true,
        )
        .unwrap();
        let blobs = sealed.into_vec();
        let right = kdf::derive_key(&constant.canonical_bytes(), b"pepper");
        let pt = crypto_blob::open(&right, &blobs[0].sealed).expect("right key opens");
        let frag = wire::decode_fragment(&pt).expect("valid fragment");
        assert!(frag.iter().any(|i| matches!(
            i,
            Instr::HostCall {
                api: HostApi::Marker(3),
                ..
            }
        )));
        let wrong = kdf::derive_key(&Value::Int(98).canonical_bytes(), b"pepper");
        assert!(crypto_blob::open(&wrong, &blobs[0].sealed).is_err());
    }
}
