//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor-based zero-copy architecture, this shim uses a
//! simple JSON-like [`Value`] tree as the interchange data model:
//! [`Serialize`] renders a type into a [`Value`]. The derive macro
//! (re-exported from the sibling `serde_derive` proc-macro crate) generates
//! that impl with serde's standard representations: structs as objects,
//! newtype structs as their inner value, unit enum variants as strings and
//! struct/newtype variants as single-key objects. JSON is only printed from
//! domain types, never parsed into them: [`Deserialize`] is implemented by
//! [`Value`] alone, which is what `serde_json::from_str` yields.

pub use serde_derive::Serialize;

use std::collections::BTreeMap;
use std::fmt;

/// Key-ordered JSON object representation.
pub type Map = BTreeMap<String, Value>;

/// The interchange data model: a JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Negative integers.
    Int(i64),
    /// Non-negative integers.
    UInt(u64),
    /// Floating-point numbers (finite).
    Float(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects.
    Object(Map),
}

impl fmt::Display for Value {
    /// Compact JSON rendering (what `serde_json::to_string` produces).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Float(x) => {
                if x.is_finite() {
                    let s = x.to_string();
                    // serde_json always distinguishes floats from integers.
                    if s.contains('.') || s.contains('e') || s.contains('E') {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a JSON string literal with standard escapes.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl Value {
    /// Borrows the object map if this value is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Numeric view as `f64`, if the value is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }
}

/// Rendering a value into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Taking a type out of the [`Value`] data model; only [`Value`] itself
/// implements it, so taking it out cannot fail.
pub trait Deserialize {
    /// Converts a parsed value tree into `Self`.
    fn from_value(v: Value) -> Self;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: Value) -> Self {
        v
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}

impl_serialize_uint!(u32, u64, usize);

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
            }
        }
    )*};
}

impl_serialize_int!(i32, i64);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Float(*self)
        } else {
            // serde_json renders non-finite floats as null.
            Value::Null
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_render_to_their_values() {
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!(42u64.to_value(), Value::UInt(42));
        assert_eq!((-7i64).to_value(), Value::Int(-7));
        assert_eq!(7i32.to_value(), Value::UInt(7));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(
            vec![1u32, 2].to_value(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)])
        );
        assert_eq!(None::<f64>.to_value(), Value::Null);
        assert_eq!(Value::from_value(Value::UInt(5)), Value::UInt(5));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(f64::INFINITY.to_value(), Value::Null);
    }
}
