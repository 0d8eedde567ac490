//! Structural validation of DEX files.
//!
//! Instrumentation passes rewrite bytecode aggressively; the validator
//! catches malformed output early (branch targets out of range, register
//! overflow, dangling blob references) instead of at interpretation time.

use crate::class::Method;
use crate::dex_file::{DexFile, ParamDomain};
use crate::instr::Instr;
use crate::value::MethodRef;
use std::collections::HashSet;
use std::fmt;

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A branch target is outside the method body.
    BadBranchTarget {
        /// Offending method.
        method: MethodRef,
        /// Instruction index containing the branch.
        at: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// An instruction touches a register ≥ the declared frame size.
    RegisterOutOfRange {
        /// Offending method.
        method: MethodRef,
        /// Instruction index.
        at: usize,
        /// Offending register index.
        reg: u16,
        /// Declared frame size.
        registers: u16,
    },
    /// A `DecryptExec` references a blob id not present in the DEX.
    DanglingBlob {
        /// Offending method.
        method: MethodRef,
        /// Instruction index.
        at: usize,
        /// Missing blob index.
        blob: u32,
    },
    /// Control flow can run off the end of the method body.
    FallsOffEnd {
        /// Offending method.
        method: MethodRef,
    },
    /// Two classes share a name.
    DuplicateClass {
        /// The duplicated name.
        name: String,
    },
    /// An entry point references a missing method.
    MissingEntryMethod {
        /// The dangling reference.
        method: MethodRef,
    },
    /// An entry point's parameter count does not match its handler.
    EntryArityMismatch {
        /// Handler method.
        method: MethodRef,
        /// Parameters declared by the entry point.
        declared: usize,
        /// Parameters expected by the method.
        expected: u16,
    },
    /// An `IntRange` parameter whose bounds are reversed: no value lies in
    /// it, so no event can be drawn.
    EmptyIntRange {
        /// The entry point's event name.
        event: String,
        /// Index of the parameter.
        param: usize,
        /// Declared lower bound.
        lo: i64,
        /// Declared upper bound, below `lo`.
        hi: i64,
    },
    /// A `Choice` parameter with no values to choose from.
    EmptyChoice {
        /// The entry point's event name.
        event: String,
        /// Index of the parameter.
        param: usize,
    },
    /// A `Text` parameter longer than [`MAX_TEXT_PARAM_LEN`]: drawing one
    /// would build a string of that many characters.
    TextTooLong {
        /// The entry point's event name.
        event: String,
        /// Index of the parameter.
        param: usize,
        /// Declared maximum length.
        max_len: u32,
    },
}

/// Longest `Text` parameter an entry point may declare. The corpus
/// declares 12; the cap only stops a length field read from an uploaded
/// app from sizing every drawn argument.
pub const MAX_TEXT_PARAM_LEN: u32 = 4096;

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadBranchTarget { method, at, target } => {
                write!(f, "{method}@{at}: branch target @{target} out of range")
            }
            ValidateError::RegisterOutOfRange {
                method,
                at,
                reg,
                registers,
            } => write!(
                f,
                "{method}@{at}: register v{reg} exceeds frame size {registers}"
            ),
            ValidateError::DanglingBlob { method, at, blob } => {
                write!(f, "{method}@{at}: blob #{blob} does not exist")
            }
            ValidateError::FallsOffEnd { method } => {
                write!(f, "{method}: control flow can fall off the end")
            }
            ValidateError::DuplicateClass { name } => write!(f, "duplicate class {name}"),
            ValidateError::MissingEntryMethod { method } => {
                write!(f, "entry point references missing method {method}")
            }
            ValidateError::EntryArityMismatch {
                method,
                declared,
                expected,
            } => write!(
                f,
                "entry point for {method} declares {declared} params, method expects {expected}"
            ),
            ValidateError::EmptyIntRange {
                event,
                param,
                lo,
                hi,
            } => write!(f, "{event} param {param}: empty range {lo}..={hi}"),
            ValidateError::EmptyChoice { event, param } => {
                write!(f, "{event} param {param}: choice of no values")
            }
            ValidateError::TextTooLong {
                event,
                param,
                max_len,
            } => write!(
                f,
                "{event} param {param}: text length {max_len} exceeds {MAX_TEXT_PARAM_LEN}"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

fn validate_method(m: &Method, blob_count: usize, errors: &mut Vec<ValidateError>) {
    let len = m.body.len();
    let mref = m.method_ref();
    for (at, instr) in m.body.iter().enumerate() {
        // Visitor form: this loop touches every instruction of every
        // method, so the per-instruction `Vec`s of `branch_targets`/`uses`
        // would cost more than the checks themselves.
        instr.for_each_branch_target(|target| {
            if target >= len {
                errors.push(ValidateError::BadBranchTarget {
                    method: mref.clone(),
                    at,
                    target,
                });
            }
        });
        instr.for_each_reg(|r| {
            if r.0 >= m.registers {
                errors.push(ValidateError::RegisterOutOfRange {
                    method: mref.clone(),
                    at,
                    reg: r.0,
                    registers: m.registers,
                });
            }
        });
        if let Instr::DecryptExec { blob, .. } = instr {
            if blob.0 as usize >= blob_count {
                errors.push(ValidateError::DanglingBlob {
                    method: mref.clone(),
                    at,
                    blob: blob.0,
                });
            }
        }
    }
    match m.body.last() {
        None => errors.push(ValidateError::FallsOffEnd { method: mref }),
        Some(last) if last.falls_through() => {
            errors.push(ValidateError::FallsOffEnd { method: mref })
        }
        _ => {}
    }
}

fn check_entry_domains(dex: &DexFile, errors: &mut Vec<ValidateError>) {
    for e in &dex.entry_points {
        for (param, domain) in e.params.iter().enumerate() {
            let event = || e.event.to_string();
            match *domain {
                ParamDomain::IntRange(lo, hi) if lo > hi => {
                    errors.push(ValidateError::EmptyIntRange {
                        event: event(),
                        param,
                        lo,
                        hi,
                    })
                }
                ParamDomain::Choice(ref vs) if vs.is_empty() => {
                    errors.push(ValidateError::EmptyChoice {
                        event: event(),
                        param,
                    })
                }
                ParamDomain::Text { max_len } if max_len > MAX_TEXT_PARAM_LEN => {
                    errors.push(ValidateError::TextTooLong {
                        event: event(),
                        param,
                        max_len,
                    })
                }
                _ => {}
            }
        }
    }
}

/// Checks that an event can be drawn for every entry point: each
/// parameter domain is nonempty and each `Text` length is at most
/// [`MAX_TEXT_PARAM_LEN`]. [`validate`] runs these checks too; this entry
/// point runs only them, for code about to drive an app it has not
/// validated.
///
/// # Errors
///
/// Returns every domain that fails.
pub fn validate_entry_domains(dex: &DexFile) -> Result<(), Vec<ValidateError>> {
    let mut errors = Vec::new();
    check_entry_domains(dex, &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a DEX file, returning every problem found.
///
/// # Errors
///
/// Returns the full list of [`ValidateError`]s (empty `Ok(())` means the
/// file is structurally sound).
pub fn validate(dex: &DexFile) -> Result<(), Vec<ValidateError>> {
    let mut errors = Vec::new();
    let mut seen = HashSet::new();
    for c in &dex.classes {
        if !seen.insert(c.name.clone()) {
            errors.push(ValidateError::DuplicateClass {
                name: c.name.as_str().to_string(),
            });
        }
        for m in &c.methods {
            validate_method(m, dex.blobs.len(), &mut errors);
        }
    }
    check_entry_domains(dex, &mut errors);
    for e in &dex.entry_points {
        match dex.method(&e.method) {
            None => errors.push(ValidateError::MissingEntryMethod {
                method: e.method.clone(),
            }),
            Some(m) => {
                if e.params.len() != m.params as usize {
                    errors.push(ValidateError::EntryArityMismatch {
                        method: e.method.clone(),
                        declared: e.params.len(),
                        expected: m.params,
                    });
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MethodBuilder;
    use crate::class::Class;
    use crate::dex_file::{BlobId, EntryPoint, ParamDomain};
    use crate::instr::Reg;
    use crate::value::Value;
    use std::sync::Arc;

    fn ok_dex() -> DexFile {
        let mut dex = DexFile::new();
        let mut c = Class::new("A");
        let mut b = MethodBuilder::new("A", "m", 1);
        b.host_log("x");
        b.ret_void();
        c.methods.push(b.finish());
        dex.classes.push(c);
        dex.entry_points.push(EntryPoint {
            event: Arc::from("m"),
            method: MethodRef::new("A", "m"),
            params: vec![ParamDomain::IntRange(0, 5)],
            user_weight: 1.0,
        });
        dex
    }

    #[test]
    fn valid_dex_passes() {
        assert!(validate(&ok_dex()).is_ok());
    }

    #[test]
    fn catches_bad_branch() {
        let mut dex = ok_dex();
        dex.classes[0].methods[0]
            .body
            .insert(0, Instr::Goto { target: 999 });
        let errs = validate(&dex).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::BadBranchTarget { .. })));
    }

    #[test]
    fn catches_register_overflow() {
        let mut dex = ok_dex();
        dex.classes[0].methods[0].body.insert(
            0,
            Instr::Move {
                dst: Reg(200),
                src: Reg(0),
            },
        );
        let errs = validate(&dex).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::RegisterOutOfRange { reg: 200, .. })));
    }

    #[test]
    fn catches_dangling_blob() {
        let mut dex = ok_dex();
        dex.classes[0].methods[0].body.insert(
            0,
            Instr::DecryptExec {
                blob: BlobId(3),
                key_src: Reg(0),
            },
        );
        let errs = validate(&dex).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::DanglingBlob { blob: 3, .. })));
    }

    #[test]
    fn catches_fall_off_end() {
        let mut dex = ok_dex();
        dex.classes[0].methods[0].body.pop(); // remove trailing return
        let errs = validate(&dex).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::FallsOffEnd { .. })));
    }

    #[test]
    fn catches_missing_entry_and_arity() {
        let mut dex = ok_dex();
        dex.entry_points.push(EntryPoint {
            event: Arc::from("ghost"),
            method: MethodRef::new("A", "ghost"),
            params: vec![],
            user_weight: 1.0,
        });
        dex.entry_points[0].params.clear(); // arity mismatch for A.m
        let errs = validate(&dex).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::MissingEntryMethod { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::EntryArityMismatch { .. })));
    }

    #[test]
    fn catches_unsampleable_domains() {
        let mut dex = ok_dex();
        dex.entry_points[0].params = vec![
            ParamDomain::IntRange(5, 4),
            ParamDomain::Choice(vec![]),
            ParamDomain::Text {
                max_len: MAX_TEXT_PARAM_LEN + 1,
            },
        ];
        let errs = validate_entry_domains(&dex).unwrap_err();
        assert!(matches!(
            errs[..],
            [
                ValidateError::EmptyIntRange {
                    param: 0,
                    lo: 5,
                    hi: 4,
                    ..
                },
                ValidateError::EmptyChoice { param: 1, .. },
                ValidateError::TextTooLong { param: 2, .. },
            ]
        ));
        // Full validation reports them as well (plus the arity mismatch).
        assert_eq!(validate(&dex).unwrap_err().len(), 4);
        // Boundaries are accepted.
        dex.entry_points[0].params = vec![
            ParamDomain::IntRange(4, 4),
            ParamDomain::Choice(vec![Value::Int(1)]),
            ParamDomain::Text {
                max_len: MAX_TEXT_PARAM_LEN,
            },
        ];
        assert!(validate_entry_domains(&dex).is_ok());
    }

    #[test]
    fn catches_duplicate_class() {
        let mut dex = ok_dex();
        let c = dex.classes[0].clone();
        dex.classes.push(c);
        let errs = validate(&dex).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::DuplicateClass { .. })));
    }
}
