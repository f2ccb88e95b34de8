//! Workspace-local stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the subset of serde the workspace uses under the same names:
//! [`Serialize`] / [`Deserialize`] traits, `#[derive(Serialize,
//! Deserialize)]`, and a JSON-shaped [`Value`] data model that
//! `serde_json` (the sibling shim) renders and parses. Compact output
//! skips the model: [`Serialize::write_compact`] writes the same bytes
//! straight into the output string. So does typed input:
//! [`Deserialize::read_compact`] pulls a value's fields straight off the
//! one JSON tokenizer, [`json::Reader`].
//!
//! The data model intentionally mirrors serde's JSON conventions so that
//! swapping the real serde back in later is a drop-in change:
//!
//! * structs serialize to objects, newtype structs to their inner value;
//! * unit enum variants serialize to strings, data-carrying variants to
//!   single-key objects (`{"Variant": ...}`, externally tagged);
//! * maps serialize to arrays of `[key, value]` pairs (JSON objects only
//!   admit string keys; the workspace uses tuple keys).

pub use serde_derive::{Deserialize, Serialize};

mod reader;
mod shortest;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::net::Ipv4Addr;

/// A JSON-shaped value: the intermediate representation every
/// [`Serialize`]/[`Deserialize`] implementation converts through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i128),
    /// A floating-point number (rendered with a decimal point or
    /// exponent).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: insertion-ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float, accepting integers too.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Serialization/deserialization error.
// Two words, so the `Result<bool, Error>`s and `Result<(), Error>`s the
// JSON reader returns at every token travel in registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(Box<str>);

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string().into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Converts a value into the [`Value`] data model.
pub trait Serialize {
    /// Serializes `self` into the data model.
    fn to_value(&self) -> Value;

    /// Appends `self` to `out` as compact JSON: exactly the bytes the
    /// compact rendering of [`to_value`](Serialize::to_value) has, which
    /// is what this default produces. The derive and the impls in this
    /// crate override it to write their fields straight into `out`, so a
    /// large report is never held as a [`Value`] tree; a hand-written
    /// impl need not.
    fn write_compact(&self, out: &mut String) {
        json::write_value(out, &self.to_value(), None, 0);
    }
}

/// Reconstructs a value from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Deserializes from the data model.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when `v` does not have the expected shape.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Reads `Self` off JSON text: the result — the value, or that it is
    /// an error — is exactly what [`from_value`](Deserialize::from_value)
    /// gives for the tree [`json::Reader::value`] would have built, which
    /// is what this default does. The derive and the containers in this
    /// crate override it to read their fields as they come, so a request
    /// line or a trace line is never held as a [`Value`] tree; a
    /// hand-written impl need not, and a scalar gains nothing by it (its
    /// `Value` owns no memory).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on malformed JSON and wherever `from_value`
    /// would.
    fn read_compact(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        Self::from_value(&reader.value()?)
    }
}

/// Looks up a required field in a deserialized object (helper used by the
/// derive macro's generated code).
///
/// # Errors
///
/// Returns [`Error`] when the field is missing.
pub fn field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
}

/// JSON text rendering and reading, shared by [`Serialize::write_compact`]
/// / [`Deserialize::read_compact`] (their defaults, the overrides in this
/// crate and the derive's generated code) and by the `serde_json`
/// front-end, so a number or a string has one spelling — and one
/// tokenizer — whichever way a value reaches the output or leaves the
/// input.
pub mod json {
    use super::{Serialize, Value};
    use std::fmt::{Display, Write as _};

    pub use crate::reader::Reader;

    /// Renders `v` into `out`: compact when `indent` is `None`, otherwise
    /// one item per line, `indent` spaces per level, starting at `depth`.
    pub fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => write_bool(out, *b),
            Value::Int(i) => write_int(out, *i),
            Value::Float(f) => write_f64(out, *f),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, item)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }

    /// `true` / `false`.
    pub fn write_bool(out: &mut String, b: bool) {
        out.push_str(if b { "true" } else { "false" });
    }

    /// An integer of any width, in decimal.
    pub fn write_int(out: &mut String, i: impl Display) {
        let _ = write!(out, "{i}");
    }

    /// A float, spelled byte for byte as `{:?}` spells it: the shortest
    /// representation that parses back to the same f64, always with a
    /// `.` or an exponent (see `shortest.rs` for the layout rules). JSON
    /// has no NaN/Infinity, so those become `null`.
    pub fn write_f64(out: &mut String, f: f64) {
        if f.is_finite() {
            crate::shortest::write_finite(out, f);
        } else {
            out.push_str("null");
        }
    }

    /// A quoted, escaped string. Runs of bytes that need no escape are
    /// copied with one `push_str` each.
    pub fn write_str(out: &mut String, s: &str) {
        out.reserve(s.len() + 2);
        out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => Some("\\\""),
                b'\\' => Some("\\\\"),
                b'\n' => Some("\\n"),
                b'\r' => Some("\\r"),
                b'\t' => Some("\\t"),
                0..=0x1f => None,
                _ => continue,
            };
            // `b` is ASCII, so `i` is a char boundary.
            out.push_str(&s[run..i]);
            match escape {
                Some(escape) => out.push_str(escape),
                None => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// A compact array of the items' own renderings.
    pub fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl Iterator<Item = &'a T>) {
        out.push('[');
        for (i, item) in items.enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_compact(out);
        }
        out.push(']');
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_compact(&self, out: &mut String) {
        (**self).write_compact(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_compact(&self, out: &mut String) {
        (**self).write_compact(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
    fn read_compact(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        Ok(Box::new(T::read_compact(reader)?))
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
            fn write_compact(&self, out: &mut String) {
                json::write_int(out, *self);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = v
                    .as_int()
                    .ok_or_else(|| Error::custom(concat!("expected integer for ", stringify!($t))))?;
                <$t>::try_from(i).map_err(|_| {
                    Error::custom(format!("integer {i} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(f64::from(*self))
            }
            fn write_compact(&self, out: &mut String) {
                json::write_f64(out, f64::from(*self));
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| Error::custom(concat!("expected number for ", stringify!($t))))
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_compact(&self, out: &mut String) {
        json::write_bool(out, *self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected bool"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn write_compact(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
    // One allocation instead of the tree's string plus its copy.
    fn read_compact(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        match reader.peek() {
            Some(b'"') => reader.string(),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
    fn write_compact(&self, out: &mut String) {
        json::write_str(out, self);
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_compact(&self, out: &mut String) {
        json::write_str(out, self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_str()
            .ok_or_else(|| Error::custom("expected single-char string"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

impl Serialize for Ipv4Addr {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Ipv4Addr {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .ok_or_else(|| Error::custom("expected IPv4 string"))?
            .parse()
            .map_err(|e| Error::custom(format!("bad IPv4 address: {e}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
    fn write_compact(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(t) => t.write_compact(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
    fn read_compact(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        if reader.eat_null() {
            Ok(None)
        } else {
            Ok(Some(T::read_compact(reader)?))
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_compact(&self, out: &mut String) {
        json::write_seq(out, self.iter());
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
    fn read_compact(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        reader.begin_array()?;
        let mut items = Vec::new();
        while reader.next_element(items.is_empty())? {
            items.push(T::read_compact(reader)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_compact(&self, out: &mut String) {
        json::write_seq(out, self.iter());
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<T>::from_value(v)?.into())
    }
    fn read_compact(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        Ok(Vec::<T>::read_compact(reader)?.into())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_compact(&self, out: &mut String) {
        json::write_seq(out, self.iter());
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_compact(&self, out: &mut String) {
        json::write_seq(out, self.iter());
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        array_from_vec(Vec::<T>::from_value(v)?)
    }
    fn read_compact(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
        array_from_vec(Vec::<T>::read_compact(reader)?)
    }
}

fn array_from_vec<T, const N: usize>(vec: Vec<T>) -> Result<[T; N], Error> {
    let n = vec.len();
    <[T; N]>::try_from(vec)
        .map_err(|_| Error::custom(format!("expected array of length {N}, got {n}")))
}

macro_rules! tuple_impls {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
            fn write_compact(&self, out: &mut String) {
                $(
                    out.push(if $i == 0 { '[' } else { ',' });
                    self.$i.write_compact(out);
                )+
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let a = v.as_array().ok_or_else(|| Error::custom("expected tuple array"))?;
                const LEN: usize = 0 $(+ { let _ = $i; 1 })+;
                if a.len() != LEN {
                    return Err(Error::custom(format!(
                        "expected tuple of length {LEN}, got {}", a.len()
                    )));
                }
                Ok(($($t::from_value(&a[$i])?,)+))
            }
            fn read_compact(reader: &mut json::Reader<'_>) -> Result<Self, Error> {
                reader.begin_array()?;
                let tuple = ($({
                    reader.expect_element($i == 0)?;
                    $t::read_compact(reader)?
                },)+);
                reader.expect_end(false)?;
                Ok(tuple)
            }
        }
    )*};
}

tuple_impls! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Maps serialize as arrays of `[key, value]` pairs (JSON objects only
/// admit string keys). Pairs are sorted by key rendering for stable
/// output.
fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    iter: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    let mut pairs: Vec<Value> = iter
        .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
        .collect();
    pairs.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    Value::Array(pairs)
}

fn map_from_value<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, Error> {
    v.as_array()
        .ok_or_else(|| Error::custom("expected map as array of pairs"))?
        .iter()
        .map(|pair| {
            let a = pair
                .as_array()
                .ok_or_else(|| Error::custom("expected [key, value] pair"))?;
            if a.len() != 2 {
                return Err(Error::custom("expected [key, value] pair"));
            }
            Ok((K::from_value(&a[0])?, V::from_value(&a[1])?))
        })
        .collect()
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value::<K, V>(v)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value::<K, V>(v)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        assert_eq!(Vec::<(u32, f64)>::from_value(&v.to_value()).unwrap(), v);
        let opt: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&opt.to_value()).unwrap(), None);
        let ip: Ipv4Addr = "10.1.2.3".parse().unwrap();
        assert_eq!(Ipv4Addr::from_value(&ip.to_value()).unwrap(), ip);
    }

    #[test]
    fn map_round_trip() {
        let mut m = HashMap::new();
        m.insert((1u32, 2u32), 7.5f64);
        m.insert((3, 4), 8.5);
        assert_eq!(
            HashMap::<(u32, u32), f64>::from_value(&m.to_value()).unwrap(),
            m
        );
    }

    #[test]
    fn out_of_range_int_rejected() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
    }
}
