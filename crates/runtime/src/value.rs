//! Runtime values: bytecode constants plus heap references.

use bombdroid_dex::Value;
use std::fmt;
use std::sync::Arc;

/// A value held in a VM register, field, or array slot.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RtValue {
    /// Null reference.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// String.
    Str(Arc<str>),
    /// Raw bytes (digests, keys).
    Bytes(Arc<[u8]>),
    /// Reference to a heap object.
    Obj(usize),
    /// Reference to a heap array.
    Arr(usize),
}

impl RtValue {
    /// Converts to the constant-value domain if this is not a reference.
    pub fn to_const(&self) -> Option<Value> {
        match self {
            RtValue::Null => Some(Value::Null),
            RtValue::Bool(b) => Some(Value::Bool(*b)),
            RtValue::Int(i) => Some(Value::Int(*i)),
            RtValue::Str(s) => Some(Value::Str(s.clone())),
            RtValue::Bytes(b) => Some(Value::Bytes(b.clone())),
            RtValue::Obj(_) | RtValue::Arr(_) => None,
        }
    }

    /// [`Value::with_canonical`] on the register itself, without cloning
    /// it into a [`Value`]; `None` for heap references.
    #[inline]
    pub fn with_canonical<R>(&self, f: impl FnOnce(u8, &[u8]) -> R) -> Option<R> {
        Some(match self {
            RtValue::Null => f(Value::TAG_NULL, &[]),
            RtValue::Bool(b) => f(Value::TAG_BOOL, &[*b as u8]),
            RtValue::Int(i) => f(Value::TAG_INT, &i.to_be_bytes()),
            RtValue::Str(s) => f(Value::TAG_STR, s.as_bytes()),
            RtValue::Bytes(b) => f(Value::TAG_BYTES, b),
            RtValue::Obj(_) | RtValue::Arr(_) => return None,
        })
    }

    /// Integer view (booleans coerce, as in Dalvik).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            RtValue::Int(i) => Some(*i),
            RtValue::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            RtValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Short type name for fault messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            RtValue::Null => "null",
            RtValue::Bool(_) => "bool",
            RtValue::Int(_) => "int",
            RtValue::Str(_) => "string",
            RtValue::Bytes(_) => "bytes",
            RtValue::Obj(_) => "object",
            RtValue::Arr(_) => "array",
        }
    }
}

impl From<Value> for RtValue {
    fn from(v: Value) -> Self {
        match v {
            Value::Null => RtValue::Null,
            Value::Bool(b) => RtValue::Bool(b),
            Value::Int(i) => RtValue::Int(i),
            Value::Str(s) => RtValue::Str(s),
            Value::Bytes(b) => RtValue::Bytes(b),
        }
    }
}

impl From<i64> for RtValue {
    fn from(i: i64) -> Self {
        RtValue::Int(i)
    }
}

impl From<bool> for RtValue {
    fn from(b: bool) -> Self {
        RtValue::Bool(b)
    }
}

impl From<&str> for RtValue {
    fn from(s: &str) -> Self {
        RtValue::Str(Arc::from(s))
    }
}

impl fmt::Display for RtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtValue::Null => write!(f, "null"),
            RtValue::Bool(b) => write!(f, "{b}"),
            RtValue::Int(i) => write!(f, "{i}"),
            RtValue::Str(s) => write!(f, "{s:?}"),
            RtValue::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            RtValue::Obj(id) => write!(f, "obj@{id}"),
            RtValue::Arr(id) => write!(f, "arr@{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_conversion_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-9),
            Value::str("s"),
            Value::bytes([1, 2]),
        ] {
            let rt: RtValue = v.clone().into();
            assert_eq!(rt.to_const(), Some(v));
        }
        assert_eq!(RtValue::Obj(3).to_const(), None);
        assert_eq!(RtValue::Arr(3).with_canonical(|_, _| ()), None);
    }

    #[test]
    fn canonical_split_matches_the_constant_encoding() {
        let concat = |tag: u8, body: &[u8]| [&[tag], body].concat();
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(-9),
            Value::str(""),
            Value::str("häuser"),
            Value::bytes([]),
            Value::bytes([1, 2, 3]),
        ] {
            let rt = RtValue::from(v.clone());
            assert_eq!(rt.with_canonical(concat), Some(v.canonical_bytes()));
            assert_eq!(v.with_canonical(concat), v.canonical_bytes());
        }
    }

    #[test]
    fn int_coercion() {
        assert_eq!(RtValue::Bool(true).as_int(), Some(1));
        assert_eq!(RtValue::Int(5).as_int(), Some(5));
        assert_eq!(RtValue::Str(Arc::from("x")).as_int(), None);
    }
}
