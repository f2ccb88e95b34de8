//! JSON front-end for the workspace-local serde shim: renders and parses
//! the [`serde::Value`] data model with the usual `serde_json` entry
//! points (`to_string`, `to_string_pretty`, `from_str`, `to_value`,
//! `from_value`). The text handling itself lives in [`serde::json`].

pub use serde::{Error, Value};

use serde::json::{write_value, Reader};
use serde::{Deserialize, Serialize};

/// Serializes a value into the [`Value`] data model.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Deserializes a typed value out of the [`Value`] data model.
///
/// # Errors
///
/// Returns [`Error`] when the value does not have the expected shape.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Renders a value as compact JSON, written straight into the output
/// string ([`Serialize::write_compact`]) — no [`Value`] tree in between.
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_compact(&mut out);
    Ok(out)
}

/// Renders a value as pretty-printed JSON (2-space indent).
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a typed value, read straight off the text
/// ([`Deserialize::read_compact`]) — no [`Value`] tree in between unless
/// the type asks for one.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON, shape mismatches or trailing
/// input.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = Reader::new(s);
    let value = T::read_compact(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Parses JSON text into the [`Value`] data model.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or trailing input.
pub fn parse_value_str(s: &str) -> Result<Value, Error> {
    let mut reader = Reader::new(s);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for json in ["null", "true", "false", "42", "-7", "1.5", "\"hi\\n\""] {
            let v = parse_value_str(json).unwrap();
            let mut out = String::new();
            write_value(&mut out, &v, None, 0);
            assert_eq!(out, json);
        }
    }

    #[test]
    fn nested_round_trip() {
        let json = r#"{"a":[1,2.5,{"b":"x"}],"c":null}"#;
        let v = parse_value_str(json).unwrap();
        let mut out = String::new();
        write_value(&mut out, &v, None, 0);
        assert_eq!(out, json);
    }

    #[test]
    fn pretty_parses_back() {
        let v = parse_value_str(r#"{"a":[1,2],"b":{"c":3}}"#).unwrap();
        let pretty = {
            let mut out = String::new();
            write_value(&mut out, &v, Some(2), 0);
            out
        };
        assert_eq!(parse_value_str(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"a\""));
    }

    #[test]
    fn float_precision_survives() {
        let v = Value::Float(0.1 + 0.2);
        let mut out = String::new();
        write_value(&mut out, &v, None, 0);
        assert_eq!(parse_value_str(&out).unwrap(), v);
    }

    #[test]
    fn typed_round_trip() {
        let xs = vec![(1u32, 2.5f64), (3, 4.0)];
        let json = to_string(&xs).unwrap();
        let back: Vec<(u32, f64)> = from_str(&json).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_value_str("{").is_err());
        assert!(parse_value_str("[1,]").is_err());
        assert!(parse_value_str("01x").is_err());
        assert!(parse_value_str("\"unterminated").is_err());
        assert!(from_str::<u32>("\"nope\"").is_err());
    }
}
