//! Offline stand-in for `serde_json`: renders the serde shim's [`Value`]
//! tree to JSON text and parses JSON text back into a [`Value`].
//!
//! Floats are printed with Rust's shortest round-trip formatting, so
//! `to_string` → `from_str` round trips are lossless for every finite
//! `f64`. Non-finite floats serialize as `null` (matching serde_json).

pub use serde::Value;
use serde::{Deserialize, Serialize};

use std::fmt;

/// Serialization or parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_pretty(out: &mut String, v: &Value, level: usize) {
    let pad = " ".repeat(2 * (level + 1));
    let pad_close = " ".repeat(2 * level);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&pad);
                write_pretty(out, item, level + 1);
            }
            out.push('\n');
            out.push_str(&pad_close);
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&pad);
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(out, val, level + 1);
            }
            out.push('\n');
            out.push_str(&pad_close);
            out.push('}');
        }
        // Scalars and empty containers render exactly like the compact form.
        other => out.push_str(&other.to_string()),
    }
}

/// Renders any serializable value as compact JSON.
///
/// # Errors
/// Never fails for tree-shaped data; the `Result` mirrors serde_json's API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    // `Value`'s `Display` impl is the compact renderer.
    Ok(value.to_value().to_string())
}

/// Renders any serializable value as 2-space-indented JSON.
///
/// # Errors
/// Never fails for tree-shaped data; the `Result` mirrors serde_json's API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| Error::new("invalid utf-8 in string"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'-' | b'+' | b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("bad float `{text}`")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<i64>()
                .map(|v| Value::Int(-v))
                .map_err(|_| Error::new(format!("bad integer `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::new(format!("bad integer `{text}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::new("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = serde::Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(Error::new("expected `,` or `}`")),
                    }
                }
            }
            Some(_) => self.parse_number(),
        }
    }
}

/// Parses JSON text into a [`Value`] tree (the one [`Deserialize`] type).
///
/// # Errors
/// Returns [`Error`] on malformed JSON or trailing bytes.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing bytes at {}", p.pos)));
    }
    Ok(T::from_value(v))
}

/// Converts any serializable value into a [`Value`] tree (used by
/// [`json!`]).
pub fn to_value_of<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Builds a [`Value`] from object-literal syntax, e.g.
/// `json!({"figure": name, "rows": rows})`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Object($crate::__serde_map_new()) };
    ({ $($tt:tt)+ }) => {{
        let mut __m = $crate::__serde_map_new();
        $crate::__json_object!(__m ($($tt)+));
        $crate::Value::Object(__m)
    }};
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {{
        let mut __v = ::std::vec::Vec::new();
        $crate::__json_items!(__v () $($tt)+);
        $crate::Value::Array(__v)
    }};
    ($other:expr) => { $crate::to_value_of(&$other) };
}

/// Implementation detail of [`json!`]: munches `"key": value` entries.
/// Values are accumulated token by token (see [`__json_value!`]) so that
/// nested `{...}` / `[...]` literals and arbitrary expressions both work.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($map:ident ()) => {};
    ($map:ident ($key:literal : $($rest:tt)+)) => {
        $crate::__json_value!($map $key () $($rest)+);
    };
}

/// Implementation detail of [`json!`]: accumulates one entry's value up
/// to a top-level comma (or end of input), then recurses into the value.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_value {
    ($map:ident $key:literal ($($val:tt)+)) => {
        $map.insert(::std::string::String::from($key), $crate::json!($($val)+));
    };
    ($map:ident $key:literal ($($val:tt)+) , $($rest:tt)*) => {
        $map.insert(::std::string::String::from($key), $crate::json!($($val)+));
        $crate::__json_object!($map ($($rest)*));
    };
    ($map:ident $key:literal ($($val:tt)*) $next:tt $($rest:tt)*) => {
        $crate::__json_value!($map $key ($($val)* $next) $($rest)*);
    };
}

/// Implementation detail of [`json!`]: same accumulation scheme for
/// array elements.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_items {
    ($vec:ident ()) => {};
    ($vec:ident ($($val:tt)+)) => {
        $vec.push($crate::json!($($val)+));
    };
    ($vec:ident ($($val:tt)+) , $($rest:tt)*) => {
        $vec.push($crate::json!($($val)+));
        $crate::__json_items!($vec () $($rest)*);
    };
    ($vec:ident ($($val:tt)*) $next:tt $($rest:tt)*) => {
        $crate::__json_items!($vec ($($val)* $next) $($rest)*);
    };
}

/// Constructs an empty object map (implementation detail of [`json!`]).
pub fn __serde_map_new() -> serde::Map {
    serde::Map::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        from_str(text).unwrap()
    }

    #[test]
    fn scalars_render_and_parse() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string("PLP λ=6").unwrap(), "\"PLP λ=6\"");
        assert_eq!(parse("1.5"), Value::Float(1.5));
        assert_eq!(parse("-3"), Value::Int(-3));
        assert_eq!(parse("\"PLP λ=6\""), Value::Str("PLP λ=6".into()));
        assert_eq!(parse("null"), Value::Null);
    }

    #[test]
    fn float_precision_survives() {
        for &x in &[0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0] {
            let text = to_string(&x).unwrap();
            let back = parse(&text).as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<f64> = vec![1.0, 2.5, -3.25];
        assert_eq!(parse(&to_string(&v).unwrap()), v.to_value());
        assert_eq!(to_string(&None::<f64>).unwrap(), "null");
    }

    #[test]
    fn json_macro_builds_objects() {
        let rows = vec![json!({"a": 1u64}), json!({"a": 2u64})];
        let v = json!({"figure": "fig07", "rows": rows, "x": 1.5f64});
        let text = to_string(&v).unwrap();
        assert_eq!(
            text,
            "{\"figure\":\"fig07\",\"rows\":[{\"a\":1},{\"a\":2}],\"x\":1.5}"
        );
    }

    #[test]
    fn escapes_and_pretty_printing() {
        let v = json!({"s": "line\n\"quoted\""});
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }
}
