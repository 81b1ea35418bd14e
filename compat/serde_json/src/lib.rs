//! Offline stand-in for `serde_json`, and the workspace's one JSON crate.
//!
//! [`Value`] is the data model. [`json!`] builds one, converting each
//! embedded expression through [`ToJson`]; a domain type that is printed
//! implements [`ToJson`] beside its definition. [`to_string`] and
//! [`to_string_pretty`] print a [`Value`], and [`from_str`] parses JSON text
//! into one: JSON is parsed into nothing else.
//!
//! Floats are printed with Rust's shortest round-trip formatting, so
//! `to_string` → `from_str` round trips are lossless for every finite
//! `f64`. Non-finite floats print as `null` (matching serde_json). The
//! parser accepts exactly RFC 8259 text and refuses arrays and objects
//! nested deeper than [`MAX_DEPTH`], so no input can exhaust the stack.

use std::collections::BTreeMap;
use std::fmt;

/// Key-ordered JSON object representation.
pub type Map = BTreeMap<String, Value>;

/// A JSON value tree.
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

impl fmt::Display for Value {
    /// Compact JSON, as [`to_string`] prints it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, None);
        f.write_str(&out)
    }
}

/// Writes `v` to `out`: compact when `indent` is `None`, otherwise with
/// two spaces per level starting at `indent`, serde_json's pretty layout.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(x) if x.is_finite() => {
            let s = x.to_string();
            out.push_str(&s);
            // serde_json always distinguishes floats from integers.
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Object(m) if m.is_empty() => out.push_str("{}"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                let inner = open_item(out, i, indent);
                write_value(out, item, inner);
            }
            close(out, indent, ']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                let inner = open_item(out, i, indent);
                write_escaped(out, k);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                write_value(out, val, inner);
            }
            close(out, indent, '}');
        }
    }
}

/// Starts the `i`-th item of a container: its separator and, when pretty,
/// its line. Returns the item's own indent.
fn open_item(out: &mut String, i: usize, indent: Option<usize>) -> Option<usize> {
    if i > 0 {
        out.push(',');
    }
    let level = indent? + 1;
    out.push('\n');
    out.push_str(&"  ".repeat(level));
    Some(level)
}

/// Closes a non-empty container, on a line of its own when pretty.
fn close(out: &mut String, indent: Option<usize>, bracket: char) {
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(bracket);
}

/// Writes a JSON string literal with standard escapes.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `value` as compact JSON.
///
/// # Errors
/// Never fails; the `Result` mirrors serde_json's API.
pub fn to_string(value: &Value) -> Result<String, Error> {
    Ok(value.to_string())
}

/// Renders `value` as 2-space-indented JSON.
///
/// # Errors
/// Never fails; the `Result` mirrors serde_json's API.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value, Some(0));
    Ok(out)
}

/// Deepest nesting of arrays and objects [`from_str`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The text is not JSON: what is wrong, and where.
    Syntax(String),
    /// Arrays and objects nest deeper than [`MAX_DEPTH`]; the byte offset
    /// of the bracket that went too deep.
    TooDeep(usize),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax(message) => f.write_str(message),
            Error::TooDeep(at) => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
        }
    }
}

impl std::error::Error for Error {}

fn syntax(message: impl Into<String>) -> Error {
    Error::Syntax(message.into())
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// The bytes not yet consumed.
    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(syntax(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.rest().starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(syntax(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// The four hex digits of a `\u` escape, after the `u`.
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| syntax("bad \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| syntax("bad \\u escape"))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run of plain characters: multi-byte scalars never contain
            // the bytes that end it, so it ends on a character boundary.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {}
                Some(_) => {
                    return Err(syntax(format!(
                        "unescaped control character at byte {}",
                        self.pos
                    )))
                }
            }
            self.pos += 1;
            let escape = self.peek().ok_or_else(|| syntax("bad escape"))?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let mut code = self.parse_hex4()?;
                    if (0xD800..0xDC00).contains(&code) && self.rest().starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(syntax("bad \\u surrogate pair"));
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    out.push(char::from_u32(code).ok_or_else(|| syntax("bad \\u code point"))?);
                }
                _ => return Err(syntax("bad escape")),
            }
        }
    }

    /// Consumes one or more ASCII digits; false if there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, RFC 8259's
    /// number. An integer outside `i64`/`u64` reads as a float.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        let mut ok =
            self.digits() && !(self.text.as_bytes()[int_start] == b'0' && self.pos - int_start > 1);
        let mut is_float = false;
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            ok = self.digits();
            is_float = true;
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = self.digits();
            is_float = true;
        }
        let text = &self.text[start..self.pos];
        if !ok {
            return Err(syntax(format!("bad number `{text}` at byte {start}")));
        }
        let integer = match (is_float, negative) {
            (true, _) => None,
            (false, true) => text.parse().ok().map(Value::Int),
            (false, false) => text.parse().ok().map(Value::UInt),
        };
        match integer {
            Some(v) => Ok(v),
            None => text
                .parse()
                .map(Value::Float)
                .map_err(|_| syntax(format!("bad number `{text}`"))),
        }
    }

    /// Parses one value whose enclosing arrays and objects number `depth`.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        let (close, is_array) = match self.peek() {
            None => return Err(syntax("unexpected end of input")),
            Some(b'n') => return self.parse_literal("null", Value::Null),
            Some(b't') => return self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => return self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => return self.parse_string().map(Value::Str),
            Some(b'[') => (b']', true),
            Some(b'{') => (b'}', false),
            Some(_) => return self.parse_number(),
        };
        if depth == MAX_DEPTH {
            return Err(Error::TooDeep(self.pos));
        }
        self.pos += 1;
        let mut items = Vec::new();
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                if is_array {
                    items.push(self.parse_value(depth + 1)?);
                } else {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    map.insert(key, self.parse_value(depth + 1)?);
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => {
                        return Err(syntax(format!(
                            "expected `,` or `{}` at byte {}",
                            close as char, self.pos
                        )))
                    }
                }
            }
        }
        self.pos += 1;
        Ok(if is_array {
            Value::Array(items)
        } else {
            Value::Object(map)
        })
    }
}

/// Parses JSON text into a [`Value`] tree.
///
/// # Errors
/// [`Error::Syntax`] on text that is not one RFC 8259 value (trailing
/// bytes included), [`Error::TooDeep`] past [`MAX_DEPTH`].
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(syntax(format!("trailing bytes at {}", p.pos)));
    }
    Ok(v)
}

/// Conversion into a [`Value`]: what [`json!`] calls on each embedded
/// expression.
pub trait ToJson {
    /// Converts `self` to a value tree.
    fn to_json(&self) -> Value;
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}

impl_to_json_uint!(u32, u64, usize);

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
            }
        }
    )*};
}

impl_to_json_int!(i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        if self.is_finite() {
            Value::Float(*self)
        } else {
            // serde_json renders non-finite floats as null.
            Value::Null
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Builds a [`Value`] from object-literal syntax, e.g.
/// `json!({"figure": name, "rows": rows})`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut __m = $crate::Map::new();
        $crate::__json_object!(__m ($($tt)+));
        $crate::Value::Object(__m)
    }};
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {{
        let mut __v = ::std::vec::Vec::new();
        $crate::__json_items!(__v () $($tt)+);
        $crate::Value::Array(__v)
    }};
    ($other:expr) => { $crate::ToJson::to_json(&$other) };
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        from_str(text).unwrap()
    }

    fn print<T: ToJson + ?Sized>(value: &T) -> String {
        to_string(&value.to_json()).unwrap()
    }

    #[test]
    fn primitives_convert_to_their_values() {
        assert_eq!(true.to_json(), Value::Bool(true));
        assert_eq!(42u64.to_json(), Value::UInt(42));
        assert_eq!((-7i64).to_json(), Value::Int(-7));
        assert_eq!(7i32.to_json(), Value::UInt(7));
        assert_eq!(1.5f64.to_json(), Value::Float(1.5));
        assert_eq!("hi".to_json(), Value::Str("hi".into()));
        assert_eq!(
            vec![1u32, 2].to_json(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)])
        );
        assert_eq!(None::<f64>.to_json(), Value::Null);
        assert_eq!(f64::NAN.to_json(), Value::Null);
        assert_eq!(f64::INFINITY.to_json(), Value::Null);
    }

    #[test]
    fn scalars_render_and_parse() {
        assert_eq!(print(&1.5f64), "1.5");
        assert_eq!(print(&2.0f64), "2.0");
        assert_eq!(print(&42u64), "42");
        assert_eq!(print(&-3i64), "-3");
        assert_eq!(print(&true), "true");
        assert_eq!(print("PLP λ=6"), "\"PLP λ=6\"");
        assert_eq!(print("\u{1}\r\t"), "\"\\u0001\\r\\t\"");
        assert_eq!(parse("1.5"), Value::Float(1.5));
        assert_eq!(parse("-3"), Value::Int(-3));
        assert_eq!(parse("\"PLP λ=6\""), Value::Str("PLP λ=6".into()));
        assert_eq!(parse("null"), Value::Null);
    }

    #[test]
    fn float_precision_survives() {
        for &x in &[0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0] {
            let text = print(&x);
            let back = parse(&text).as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<f64> = vec![1.0, 2.5, -3.25];
        assert_eq!(parse(&print(&v)), v.to_json());
        assert_eq!(print(&None::<f64>), "null");
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
        let v = json!({"s": "line\n\"quoted\"", "e": [], "o": {}, "a": [1u64, {"b": null}]});
        let text = to_string(&v).unwrap();
        assert_eq!(from_str(&text).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": null\n    }\n  ],\n  \"e\": [],\n  \
             \"o\": {},\n  \"s\": \"line\\n\\\"quoted\\\"\"\n}"
        );
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn reads_every_rfc_8259_number_and_escape() {
        let accepted = [
            ("-9223372036854775808", Value::Int(i64::MIN)),
            ("18446744073709551615", Value::UInt(u64::MAX)),
            ("18446744073709551616", Value::Float(18446744073709551616.0)),
            ("-0", Value::Int(0)),
            ("0.5", Value::Float(0.5)),
            ("1e3", Value::Float(1000.0)),
            ("1E+3", Value::Float(1000.0)),
            ("-2.5e-1", Value::Float(-0.25)),
            ("\"\\ud83d\\ude00\"", Value::Str("😀".into())),
            ("\"\\u00e9\\/\\b\\f\"", Value::Str("é/\u{8}\u{c}".into())),
        ];
        for (text, want) in accepted {
            assert_eq!(from_str(text), Ok(want), "{text}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        let refused = [
            "{",
            "[1,]",
            "tru",
            "1 2",
            "--5",
            "+5",
            "01",
            "-01",
            "1.",
            ".5",
            "-",
            "1e",
            "1e+",
            "0x10",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\u+123\"",
            "\"\\u12\"",
            "\"tab\there\"",
            "\"\\x\"",
            "\"open",
            "{1:2}",
            "{\"a\" 1}",
        ];
        for text in refused {
            assert!(
                matches!(from_str(text), Err(Error::Syntax(_))),
                "{text} parsed as {:?}",
                from_str(text)
            );
        }
    }

    #[test]
    fn nesting_past_the_limit_is_refused_not_overflowed() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            from_str(&nested(MAX_DEPTH + 1)),
            Err(Error::TooDeep(MAX_DEPTH))
        );
        assert_eq!(from_str(&nested(1_000_000)), Err(Error::TooDeep(MAX_DEPTH)));
        let objects = "{\"a\":".repeat(1_000_000);
        assert!(matches!(from_str(&objects), Err(Error::TooDeep(_))));
    }
}
