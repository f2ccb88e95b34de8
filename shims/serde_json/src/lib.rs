//! JSON front-end for the workspace-local serde shim: renders and parses
//! the [`serde::Value`] data model with the usual `serde_json` entry
//! points (`to_string`, `to_string_pretty`, `from_str`, `to_value`,
//! `from_value`).

pub use serde::{Error, Value};

use serde::json::write_value;
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

/// Parses JSON text into a typed value.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or shape mismatches.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse_value_str(s)?)
}

/// Parses JSON text into the [`Value`] data model.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or trailing input.
pub fn parse_value_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::custom("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_keyword("\\u") {
                                    return Err(Error::custom("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| Error::custom("bad unicode escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        other => {
                            return Err(Error::custom(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let s = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::custom("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("bad number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error::custom(format!("bad number `{text}`")))
        }
    }
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
