//! Field-value entropy profiles.
//!
//! For artificial qualified conditions, BombDroid profiles each candidate
//! field's runtime values and prefers "fields that have the largest numbers
//! of unique values ... considered to have higher entropies" (§7.2 and
//! Fig. 3's AndroFish visualization).

use bombdroid_dex::Value;
use std::collections::HashSet;

/// Entropy summary of one profiled field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldEntropy {
    /// Field identifier (`Class.field`).
    pub field: String,
    /// Total recorded samples.
    pub samples: usize,
    /// Distinct values observed.
    pub unique: usize,
}

impl FieldEntropy {
    /// Computes the summary for one field's `(at_ms, value)` samples.
    pub fn of(field: impl Into<String>, samples: &[(u64, Value)]) -> Self {
        let unique: HashSet<&Value> = samples.iter().map(|(_, v)| v).collect();
        FieldEntropy {
            field: field.into(),
            samples: samples.len(),
            unique: unique.len(),
        }
    }
}

/// Ranks profiled fields by distinct-value count, descending (ties broken
/// by name for determinism). Input is an iterator of
/// `(field_name, samples)` pairs — the shape of the runtime's
/// `FieldValues` profile table.
pub fn rank_fields<'a, I>(fields: I) -> Vec<FieldEntropy>
where
    I: IntoIterator<Item = (&'a String, &'a Vec<(u64, Value)>)>,
{
    let mut ranked: Vec<FieldEntropy> = fields
        .into_iter()
        .map(|(name, samples)| FieldEntropy::of(name.clone(), samples))
        .collect();
    ranked.sort_by(|a, b| b.unique.cmp(&a.unique).then_with(|| a.field.cmp(&b.field)));
    ranked
}

/// Distinct values a field took, in first-seen order — the pool artificial
/// QC constants are drawn from ("one of the field values is randomly
/// selected as the constant value", §7.2).
pub fn distinct_values(samples: &[(u64, Value)]) -> Vec<Value> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (_, v) in samples {
        if seen.insert(v.clone()) {
            out.push(v.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn ranking_prefers_high_entropy() {
        let mut m: BTreeMap<String, Vec<(u64, Value)>> = BTreeMap::new();
        m.insert(
            "A.lowvar".into(),
            vec![(0, Value::Int(1)), (1, Value::Int(1)), (2, Value::Int(2))],
        );
        m.insert(
            "A.highvar".into(),
            (0..50).map(|i| (i, Value::Int(i as i64))).collect(),
        );
        let ranked = rank_fields(m.iter());
        assert_eq!(ranked[0].field, "A.highvar");
        assert_eq!(ranked[0].unique, 50);
        assert_eq!(ranked[1].unique, 2);
    }

    #[test]
    fn distinct_preserves_first_seen_order() {
        let samples = vec![
            (0, Value::Int(5)),
            (1, Value::Int(3)),
            (2, Value::Int(5)),
            (3, Value::str("x")),
        ];
        assert_eq!(
            distinct_values(&samples),
            vec![Value::Int(5), Value::Int(3), Value::str("x")]
        );
    }
}
