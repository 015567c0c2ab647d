//! Scalar values carried in PIER tuples.
//!
//! `Pad(n)` deserves a note: the paper's workload pads every result tuple
//! to 1 KB via `R.pad` (§5.1). Simulating 1 KB payloads per tuple with
//! real allocations would waste memory at 10,000-node scale, so `Pad`
//! contributes `n` bytes of *wire size* while occupying four bytes of RAM.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar, generic in how it holds a string. Everything a value
/// *means* — truthiness, the numeric views, equality, order, hash and
/// wire size — is defined once, here, for the owned [`Value`] and the
/// borrowed [`ValRef`] alike.
#[derive(Clone, Copy, Debug)]
pub enum Scalar<S> {
    Null,
    Bool(bool),
    I64(i64),
    F64(f64),
    Str(S),
    /// Opaque padding of the given wire length (see module docs).
    Pad(u32),
}

/// A scalar value, owned.
pub type Value = Scalar<Arc<str>>;

/// A scalar value that borrows its string: what a column of an encoded
/// row, a column of a [`crate::tuple::Tuple`] and a literal all look
/// like to the expression evaluator, none of them copied. `Copy`, and
/// never the owner of heap memory.
pub type ValRef<'a> = Scalar<&'a str>;

impl Value {
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }
}

impl ValRef<'_> {
    /// The owned value. A string is copied into a fresh `Arc<str>`.
    pub fn to_value(self) -> Value {
        match self {
            ValRef::Null => Value::Null,
            ValRef::Bool(b) => Value::Bool(b),
            ValRef::I64(i) => Value::I64(i),
            ValRef::F64(f) => Value::F64(f),
            ValRef::Str(s) => Value::str(s),
            ValRef::Pad(n) => Value::Pad(n),
        }
    }
}

impl<S: AsRef<str>> Scalar<S> {
    /// The same value, borrowing the string.
    pub fn as_ref(&self) -> ValRef<'_> {
        match self {
            Scalar::Null => ValRef::Null,
            Scalar::Bool(b) => ValRef::Bool(*b),
            Scalar::I64(i) => ValRef::I64(*i),
            Scalar::F64(f) => ValRef::F64(*f),
            Scalar::Str(s) => ValRef::Str(s.as_ref()),
            Scalar::Pad(n) => ValRef::Pad(*n),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Scalar::Null)
    }

    /// Truthiness for predicate evaluation (SQL-ish: NULL is false).
    pub fn truthy(&self) -> bool {
        match self {
            Scalar::Bool(b) => *b,
            Scalar::I64(i) => *i != 0,
            Scalar::F64(f) => *f != 0.0,
            Scalar::Null => false,
            Scalar::Str(s) => !s.as_ref().is_empty(),
            Scalar::Pad(_) => true,
        }
    }

    /// Numeric view (for arithmetic and cross-type comparison).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::I64(i) => Some(*i as f64),
            Scalar::F64(f) => Some(*f),
            Scalar::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Scalar::I64(i) => Some(*i),
            Scalar::F64(f) => Some(*f as i64),
            Scalar::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Bytes this value occupies on the wire.
    pub fn wire_size(&self) -> usize {
        match self {
            Scalar::Null => 1,
            Scalar::Bool(_) => 1,
            Scalar::I64(_) => 8,
            Scalar::F64(_) => 8,
            Scalar::Str(s) => 4 + s.as_ref().len(),
            Scalar::Pad(n) => *n as usize,
        }
    }

    /// A key two values share exactly when they are `==`, for indexing
    /// an equi-join: a number of any kind keys by the bits of its numeric
    /// view with −0.0 folded to 0.0 (so `Bool(true)`, `I64(1)` and
    /// `F64(1.0)` share one key, as do `I64(2^53)` and `I64(2^53 + 1)`),
    /// and NaN, equal to nothing, gets none.
    pub fn join_key(&self) -> Option<JoinKey<'_>> {
        match self {
            Scalar::Null => Some(JoinKey::Null),
            Scalar::Str(s) => Some(JoinKey::Str(s.as_ref())),
            Scalar::Pad(n) => Some(JoinKey::Pad(*n)),
            num => num
                .as_f64()
                .filter(|x| !x.is_nan())
                .map(|x| JoinKey::Num(if x == 0.0 { 0 } else { x.to_bits() })),
        }
    }

    /// Stable 64-bit hash — the basis of DHT resourceIDs for tuples.
    pub fn hash64(&self) -> u64 {
        use pier_dht::geom::{hash2, hash_str};
        match self {
            Scalar::Null => 0x6e75_6c6c,
            Scalar::Bool(b) => hash2(1, *b as u64),
            Scalar::I64(i) => hash2(2, *i as u64),
            Scalar::F64(f) => hash2(3, f.to_bits()),
            Scalar::Str(s) => hash2(4, hash_str(s.as_ref())),
            Scalar::Pad(n) => hash2(5, *n as u64),
        }
    }
}

impl<S: AsRef<str>> PartialEq for Scalar<S> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Scalar::Null, Scalar::Null) => true,
            (Scalar::Bool(a), Scalar::Bool(b)) => a == b,
            (Scalar::Str(a), Scalar::Str(b)) => a.as_ref() == b.as_ref(),
            (Scalar::Pad(a), Scalar::Pad(b)) => a == b,
            // Numeric cross-type equality.
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }
}

impl<S: AsRef<str>> Eq for Scalar<S> {}

/// What [`Scalar::join_key`] returns: a value's kind, with every number
/// one kind, and what it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinKey<'a> {
    Null,
    /// The canonical `f64` bits of a `Bool`, `I64` or `F64`.
    Num(u64),
    Str(&'a str),
    Pad(u32),
}

// `Hash` is `hash64`, which hashes each kind apart: `I64(3) == F64(3.0)`
// yet they hash differently, so it must never key an index probed with
// `==` (an oracle's join), only a DHT placement. Index by `join_key`.
impl<S: AsRef<str>> Hash for Scalar<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl<S: AsRef<str>> PartialOrd for Scalar<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S: AsRef<str>> Ord for Scalar<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank<S>(v: &Scalar<S>) -> u8 {
            match v {
                Scalar::Null => 0,
                Scalar::Bool(_) | Scalar::I64(_) | Scalar::F64(_) => 1,
                Scalar::Str(_) => 2,
                Scalar::Pad(_) => 3,
            }
        }
        match (self, other) {
            (Scalar::Str(a), Scalar::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Scalar::Pad(a), Scalar::Pad(b)) => a.cmp(b),
            // NaN sorts after every number and ties only with NaN, so
            // the order is total (a group key, a `BTreeMap` key) while
            // `==` stays IEEE.
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y)
                    .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl<S: AsRef<str>> fmt::Display for Scalar<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Null => write!(f, "NULL"),
            Scalar::Bool(b) => write!(f, "{b}"),
            Scalar::I64(i) => write!(f, "{i}"),
            Scalar::F64(x) => write!(f, "{x}"),
            Scalar::Str(s) => write!(f, "'{}'", s.as_ref()),
            Scalar::Pad(n) => write!(f, "<pad:{n}>"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_equality_and_order() {
        assert_eq!(Value::I64(3), Value::F64(3.0));
        assert!(Value::I64(2) < Value::F64(2.5));
        assert!(Value::F64(2.5) < Value::I64(3));
        assert_ne!(Value::I64(1), Value::str("1"));
    }

    #[test]
    fn nulls_sort_first_and_are_falsy() {
        assert!(Value::Null < Value::I64(i64::MIN));
        assert!(!Value::Null.truthy());
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn hash_matches_equality_for_same_type() {
        assert_eq!(Value::I64(7).hash64(), Value::I64(7).hash64());
        assert_ne!(Value::I64(7).hash64(), Value::I64(8).hash64());
        assert_eq!(Value::str("ab").hash64(), Value::str("ab").hash64());
    }

    #[test]
    fn pad_has_wire_size_but_small_memory() {
        let v = Value::Pad(1024);
        assert_eq!(v.wire_size(), 1024);
        assert!(std::mem::size_of::<Value>() <= 24);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::I64(0).wire_size(), 8);
        assert_eq!(Value::str("abc").wire_size(), 7);
        assert_eq!(Value::Null.wire_size(), 1);
    }
}
