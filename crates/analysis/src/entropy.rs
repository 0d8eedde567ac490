//! Field-value entropy profiles.
//!
//! For artificial qualified conditions, BombDroid profiles each candidate
//! field's runtime values and prefers "fields that have the largest numbers
//! of unique values ... considered to have higher entropies" (§7.2 and
//! Fig. 3's AndroFish visualization).

use bombdroid_dex::Value;
use std::collections::hash_map::{Entry, HashMap};

/// One profiled field's samples, tallied in a single pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldTally<'a> {
    /// Field identifier (`Class.field`).
    pub field: &'a str,
    /// Distinct values in first-seen order — the pool artificial QC
    /// constants are drawn from ("one of the field values is randomly
    /// selected as the constant value", §7.2).
    pub distinct: Vec<&'a Value>,
    /// How often each distinct value occurred, parallel to `distinct`.
    pub counts: Vec<usize>,
}

impl<'a> FieldTally<'a> {
    /// Tallies one field's `(at_ms, value)` samples.
    pub fn of(field: &'a str, samples: &'a [(u64, Value)]) -> Self {
        // The values come from the uploaded app, so the map keeps the
        // standard library's per-process keyed hasher: an app cannot pick
        // values that collide. The map is dropped unread, so its random key
        // can never order anything. Sized for every sample up front, it
        // never rehashes, which with this hasher costs as much as the
        // inserts themselves.
        let mut index: HashMap<&Value, usize> = HashMap::with_capacity(samples.len());
        let mut distinct = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for (_, v) in samples {
            match index.entry(v) {
                Entry::Occupied(e) => counts[*e.get()] += 1,
                Entry::Vacant(e) => {
                    e.insert(distinct.len());
                    distinct.push(v);
                    counts.push(1);
                }
            }
        }
        FieldTally {
            field,
            distinct,
            counts,
        }
    }

    /// Distinct values observed.
    pub fn unique(&self) -> usize {
        self.distinct.len()
    }
}

/// Tallies profiled fields and ranks them by distinct-value count,
/// descending (ties broken by name for determinism). Input is an iterator
/// of `(field_name, samples)` pairs — the shape of the runtime's
/// `FieldValues` profile table.
pub fn rank_fields<'a, I>(fields: I) -> Vec<FieldTally<'a>>
where
    I: IntoIterator<Item = (&'a String, &'a Vec<(u64, Value)>)>,
{
    let mut ranked: Vec<FieldTally<'a>> = fields
        .into_iter()
        .map(|(name, samples)| FieldTally::of(name, samples))
        .collect();
    ranked.sort_by(|a, b| {
        b.unique()
            .cmp(&a.unique())
            .then_with(|| a.field.cmp(b.field))
    });
    ranked
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
        assert_eq!(ranked[0].unique(), 50);
        assert_eq!(ranked[1].unique(), 2);
        assert_eq!(ranked[1].counts, vec![2, 1]);
    }

    #[test]
    fn ties_rank_by_name() {
        let samples = vec![(0, Value::Int(1)), (1, Value::Int(2))];
        let m: BTreeMap<String, Vec<(u64, Value)>> = ["B.x", "A.y", "C.z"]
            .into_iter()
            .map(|k| (k.to_string(), samples.clone()))
            .collect();
        // Reverse the map's order so only the tie-break can restore it.
        let ranked = rank_fields(m.iter().rev());
        let names: Vec<&str> = ranked.iter().map(|t| t.field).collect();
        assert_eq!(names, ["A.y", "B.x", "C.z"]);
    }

    #[test]
    fn tally_keeps_first_seen_order_and_counts() {
        let samples = vec![
            (0, Value::Int(5)),
            (1, Value::Int(3)),
            (2, Value::Int(5)),
            (3, Value::str("x")),
            (4, Value::Int(5)),
        ];
        let tally = FieldTally::of("A.f", &samples);
        assert_eq!(
            tally.distinct,
            vec![&Value::Int(5), &Value::Int(3), &Value::str("x")]
        );
        assert_eq!(tally.counts, vec![3, 1, 1]);
    }
}
