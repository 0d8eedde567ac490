//! Constant values and symbolic references (class/method/field names).

use std::fmt;
use std::sync::Arc;

/// A constant value embeddable in bytecode.
///
/// The paper's qualified conditions compare booleans, integers and strings
/// (§8.3.1 grades obfuscation strength *weak/medium/strong* by exactly these
/// three types); `Bytes` carries hash digests for obfuscated conditions and
/// steganographic resource payloads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Absence of an object reference.
    Null,
    /// Boolean constant (weak obfuscation strength: |dom| = 2).
    Bool(bool),
    /// 64-bit integer constant (medium strength: |dom| ≤ 2^32 in practice).
    Int(i64),
    /// String constant (strong strength: unbounded domain).
    Str(Arc<str>),
    /// Raw bytes: digests, public keys, steganographic payloads.
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for byte values.
    pub fn bytes(b: impl AsRef<[u8]>) -> Self {
        Value::Bytes(Arc::from(b.as_ref()))
    }

    /// Canonical-encoding tag of [`Value::Null`].
    pub const TAG_NULL: u8 = 0x00;
    /// Canonical-encoding tag of [`Value::Bool`].
    pub const TAG_BOOL: u8 = 0x01;
    /// Canonical-encoding tag of [`Value::Int`].
    pub const TAG_INT: u8 = 0x02;
    /// Canonical-encoding tag of [`Value::Str`].
    pub const TAG_STR: u8 = 0x03;
    /// Canonical-encoding tag of [`Value::Bytes`].
    pub const TAG_BYTES: u8 = 0x04;

    /// Canonical byte encoding used for hashing (`Hash(X|salt)`) and key
    /// derivation (`KDF(c|salt)`). Tagged so different types with identical
    /// raw bytes never collide.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.with_canonical(|tag, body| {
            let mut v = Vec::with_capacity(1 + body.len());
            v.push(tag);
            v.extend_from_slice(body);
            v
        })
    }

    /// Calls `f` with the canonical encoding split into its tag and body,
    /// borrowed or on the stack: `canonical_bytes() == [tag] ++ body`. The
    /// hashers take this form, so a check allocates nothing.
    pub fn with_canonical<R>(&self, f: impl FnOnce(u8, &[u8]) -> R) -> R {
        match self {
            Value::Null => f(Self::TAG_NULL, &[]),
            Value::Bool(b) => f(Self::TAG_BOOL, &[*b as u8]),
            Value::Int(i) => f(Self::TAG_INT, &i.to_be_bytes()),
            Value::Str(s) => f(Self::TAG_STR, s.as_bytes()),
            Value::Bytes(b) => f(Self::TAG_BYTES, b),
        }
    }

    /// The type tag used by strength grading and the wire format.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "string",
            Value::Bytes(_) => "bytes",
        }
    }

    /// Whether the value is "truthy" when used in a boolean position
    /// (non-zero int, `true`, non-empty string/bytes, non-null).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => {
                write!(f, "0x")?;
                for byte in b.iter() {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

/// A fully-qualified class name, e.g. `com/example/MainActivity`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassName(pub Arc<str>);

impl ClassName {
    /// Creates a class name from any string-like value.
    pub fn new(name: impl AsRef<str>) -> Self {
        ClassName(Arc::from(name.as_ref()))
    }

    /// The name as a `&str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for ClassName {
    fn from(s: &str) -> Self {
        ClassName::new(s)
    }
}

/// A reference to a method: owning class + method name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodRef {
    /// Owning class.
    pub class: ClassName,
    /// Method name within the class.
    pub name: Arc<str>,
}

impl MethodRef {
    /// Creates a method reference.
    pub fn new(class: impl Into<ClassName>, name: impl AsRef<str>) -> Self {
        MethodRef {
            class: class.into(),
            name: Arc::from(name.as_ref()),
        }
    }
}

impl fmt::Display for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.name)
    }
}

/// A reference to a field: owning class + field name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRef {
    /// Owning class.
    pub class: ClassName,
    /// Field name within the class.
    pub name: Arc<str>,
}

impl FieldRef {
    /// Creates a field reference.
    pub fn new(class: impl Into<ClassName>, name: impl AsRef<str>) -> Self {
        FieldRef {
            class: class.into(),
            name: Arc::from(name.as_ref()),
        }
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_bytes_are_type_tagged() {
        // Int 0 and Bool false must hash differently.
        assert_ne!(
            Value::Int(0).canonical_bytes(),
            Value::Bool(false).canonical_bytes()
        );
        // Str "a" and Bytes b"a" must differ.
        assert_ne!(
            Value::str("a").canonical_bytes(),
            Value::bytes(b"a").canonical_bytes()
        );
        // The encoding itself is wire format: every condition hash and
        // bomb key in a protected app depends on it.
        assert_eq!(Value::Null.canonical_bytes(), [0]);
        assert_eq!(Value::Bool(true).canonical_bytes(), [1, 1]);
        assert_eq!(
            Value::Int(0x0102_0304_0506_0708).canonical_bytes(),
            [2, 1, 2, 3, 4, 5, 6, 7, 8]
        );
        assert_eq!(Value::str("hi").canonical_bytes(), [3, b'h', b'i']);
        assert_eq!(Value::bytes([9]).canonical_bytes(), [4, 9]);
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(!Value::str("").is_truthy());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::bytes([0xde, 0xad]).to_string(), "0xdead");
        assert_eq!(MethodRef::new("A", "m").to_string(), "A.m");
    }
}
