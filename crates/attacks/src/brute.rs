//! Brute-force key attacks (paper §5.1 and §8.3.1).
//!
//! Given an obfuscated condition `Hash(X|salt) == Hc`, the attacker may
//! "compute Hash(X) for all possible values of X". The cost is
//! `|dom(X)| · t`; the paper grades conditions *weak / medium / strong* by
//! whether the constant is a bool, int, or string. This module actually
//! cracks what is crackable within a try budget and cost-models the rest.

use bombdroid_apk::ApkFile;
use bombdroid_crypto::kdf;
use bombdroid_dex::{DexFile, Instr, MethodRef, RegOrConst, Value};

/// One obfuscated condition found in the bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct ObfuscatedCondition {
    /// Method holding the condition.
    pub method: MethodRef,
    /// The branch pc.
    pub pc: usize,
    /// Salt from the feeding `Hash` instruction.
    pub salt: Vec<u8>,
    /// The stored hash `Hc`.
    pub hc: Vec<u8>,
}

/// Result of attacking one condition.
#[derive(Debug, Clone, PartialEq)]
pub struct CrackResult {
    /// The condition attacked.
    pub condition: ObfuscatedCondition,
    /// The recovered constant, if cracked within budget.
    pub recovered: Option<Value>,
    /// Hash evaluations spent.
    pub tries: u64,
}

/// Scans for `Hash` → `If (== Bytes)` pairs — the outer-trigger shape.
pub fn find_conditions(dex: &DexFile) -> Vec<ObfuscatedCondition> {
    let mut found = Vec::new();
    for method in dex.methods() {
        for (pc, instr) in method.body.iter().enumerate() {
            let Instr::If {
                lhs,
                rhs: RegOrConst::Const(Value::Bytes(hc)),
                ..
            } = instr
            else {
                continue;
            };
            // Find the Hash feeding this branch (scan back a small window).
            for back in (pc.saturating_sub(4)..pc).rev() {
                if let Instr::Hash { dst, salt, .. } = &method.body[back] {
                    if dst == lhs {
                        found.push(ObfuscatedCondition {
                            method: method.method_ref(),
                            pc,
                            salt: salt.clone(),
                            hc: hc.to_vec(),
                        });
                        break;
                    }
                }
            }
        }
    }
    found
}

/// Attacks one condition with a candidate-enumeration budget.
///
/// Enumerates booleans, then integers `0, 1, -1, 2, -2, …` up to the
/// budget. Strings are effectively un-enumerable and only the empty and
/// single-char candidates are tried (the paper's *strong* grade).
pub fn crack(condition: &ObfuscatedCondition, budget: u64) -> CrackResult {
    let mut tries = 0u64;
    // One hasher per condition: each candidate is one SHA-1 compression.
    let hasher = kdf::ConditionHasher::new(&condition.salt);
    let check = |v: &Value, tries: &mut u64| -> bool {
        *tries += 1;
        v.with_canonical(|tag, body| hasher.hash(tag, body))[..] == condition.hc[..]
    };
    // Booleans (weak: 2 tries).
    for b in [false, true] {
        let v = Value::Bool(b);
        if check(&v, &mut tries) {
            return CrackResult {
                condition: condition.clone(),
                recovered: Some(v),
                tries,
            };
        }
    }
    // Strings: trivial candidates only.
    for s in ["", "a", "ok", "yes", "true", "admin"] {
        let v = Value::str(s);
        if tries >= budget {
            break;
        }
        if check(&v, &mut tries) {
            return CrackResult {
                condition: condition.clone(),
                recovered: Some(v),
                tries,
            };
        }
    }
    // Integers, outward from zero.
    let mut k = 0i64;
    while tries < budget {
        let v = Value::Int(k);
        if check(&v, &mut tries) {
            return CrackResult {
                condition: condition.clone(),
                recovered: Some(v),
                tries,
            };
        }
        k = if k >= 0 { -(k + 1) } else { -k };
    }
    CrackResult {
        condition: condition.clone(),
        recovered: None,
        tries,
    }
}

/// Expected brute-force time for a domain of `bits` bits at `tries_per_sec`
/// (the paper's `2^n · t`).
pub fn expected_seconds(bits: u32, tries_per_sec: f64) -> f64 {
    if bits >= 1024 {
        return f64::INFINITY;
    }
    (2f64).powi(bits as i32) / tries_per_sec
}

/// Aggregate brute-force campaign over an APK.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BruteReport {
    /// Conditions found.
    pub total: usize,
    /// Conditions cracked within the budget.
    pub cracked: usize,
    /// Hash evaluations spent in total.
    pub tries: u64,
    /// Recovered constants by type name.
    pub recovered_types: Vec<&'static str>,
}

/// Runs the campaign with `budget` tries per condition.
///
/// # Panics
///
/// Panics if the APK does not verify.
pub fn brute_force_campaign(apk: &ApkFile, budget: u64) -> BruteReport {
    let conditions = find_conditions(&apk.dex);
    let mut report = BruteReport {
        total: conditions.len(),
        ..BruteReport::default()
    };
    for c in &conditions {
        let r = crack(c, budget);
        report.tries += r.tries;
        if let Some(v) = r.recovered {
            report.cracked += 1;
            report.recovered_types.push(v.type_name());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn condition_for(value: &Value) -> ObfuscatedCondition {
        let salt = vec![3, 1, 4];
        ObfuscatedCondition {
            method: MethodRef::new("T", "m"),
            pc: 1,
            hc: kdf::condition_hash(&value.canonical_bytes(), &salt).to_vec(),
            salt,
        }
    }

    #[test]
    fn weak_bool_cracks_in_two_tries() {
        let r = crack(&condition_for(&Value::Bool(true)), 1_000);
        assert_eq!(r.recovered, Some(Value::Bool(true)));
        assert!(r.tries <= 2);
    }

    #[test]
    fn small_int_cracks_within_budget() {
        let r = crack(&condition_for(&Value::Int(-37)), 10_000);
        assert_eq!(r.recovered, Some(Value::Int(-37)));
    }

    #[test]
    fn large_int_exceeds_budget() {
        let r = crack(&condition_for(&Value::Int(987_654_321)), 10_000);
        assert_eq!(r.recovered, None);
        assert_eq!(r.tries, 10_000);
    }

    #[test]
    fn strings_resist() {
        let r = crack(&condition_for(&Value::str("sid-gukevizo")), 100_000);
        assert_eq!(r.recovered, None);
    }

    #[test]
    fn salt_defeats_rainbow_style_reuse() {
        // Same constant, different salts → different Hc, so a precomputed
        // table for one bomb is useless against another (§5.1).
        let a = condition_for(&Value::Int(5));
        let mut b = condition_for(&Value::Int(5));
        b.salt = vec![9, 9, 9];
        b.hc = kdf::condition_hash(&Value::Int(5).canonical_bytes(), &b.salt).to_vec();
        assert_ne!(a.hc, b.hc);
    }

    #[test]
    fn cost_model_scales_exponentially() {
        let t = 1e6; // a million hashes per second
        assert!(expected_seconds(1, t) < 1.0);
        assert!(expected_seconds(32, t) > 1_000.0);
        assert!(expected_seconds(64, t) > 1e12);
        assert!(expected_seconds(2048, t).is_infinite());
    }
}
