//! The workspace's one JSON tokenizer, re-exported as
//! [`json::Reader`](crate::json::Reader).

use crate::{Error, Value};
use std::borrow::Cow;

/// Arrays and objects that may be open at once (upstream `serde_json`'s
/// limit): input nested deeper is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// A cursor over one JSON text.
///
/// [`Deserialize::read_compact`](crate::Deserialize::read_compact) impls
/// pull their fields straight off it; [`Reader::value`] builds the
/// [`Value`] tree for everything that still goes through `from_value`.
/// Every method skips leading whitespace, and an error leaves the reader
/// at an unspecified position — drop it.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    #[inline]
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Checks that only whitespace is left.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on trailing input.
    #[inline]
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    #[cold]
    fn error(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {}", self.pos))
    }

    /// The next byte that is not whitespace, left unread.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let found = self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes());
        if found {
            self.pos += kw.len();
        }
        found
    }

    /// Consumes a `null` if that is what comes next.
    #[inline]
    pub fn eat_null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat_keyword("null")
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.expect(bracket)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        Ok(())
    }

    /// After an opening bracket (`first`) or an item: whether another
    /// item follows — its separating comma consumed — or `close` did,
    /// consumed too.
    #[inline]
    fn next_item(&mut self, first: bool, close: u8) -> Result<bool, Error> {
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            _ => Err(self.error(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// Consumes the `[` of an array.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when anything else comes next or the array is
    /// nested too deep.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// Whether the open array has another element; `first` says none was
    /// read yet. `false` means its `]` was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when neither an element nor `]` can follow.
    #[inline]
    pub fn next_element(&mut self, first: bool) -> Result<bool, Error> {
        self.next_item(first, b']')
    }

    /// [`Reader::next_element`] for a fixed-length array that must have
    /// one more element.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] also when the array ends here.
    pub fn expect_element(&mut self, first: bool) -> Result<(), Error> {
        if self.next_element(first)? {
            Ok(())
        } else {
            Err(self.error("too few elements"))
        }
    }

    /// [`Reader::next_element`] for a fixed-length array that must end
    /// here.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] also when another element follows.
    pub fn expect_end(&mut self, first: bool) -> Result<(), Error> {
        if self.next_element(first)? {
            Err(self.error("too many elements"))
        } else {
            Ok(())
        }
    }

    /// Consumes the `{` of an object.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when anything else comes next or the object is
    /// nested too deep.
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// The open object's next key, its `:` consumed so the value comes
    /// next; `first` says no key was read yet. `None` means the `}` was
    /// consumed. The key borrows from the input unless it has escapes.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when neither a key nor `}` can follow.
    #[inline]
    pub fn next_key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_item(first, b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads a string, borrowing from the input unless it has escapes.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when no well-formed string comes next.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.src.as_bytes().get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        let mut out = self.src[start..self.pos].to_owned();
        self.string_tail(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Reads a string into one of its own.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when no well-formed string comes next.
    pub fn string(&mut self) -> Result<String, Error> {
        self.str().map(Cow::into_owned)
    }

    /// Advances to the next `"` or `\` (or the end of the input).
    #[inline]
    fn skip_plain(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
    }

    /// Reads up to and including a string's closing quote, appending
    /// what it decodes to `out` when there is one.
    fn string_tail(&mut self, mut out: Option<&mut String>) -> Result<(), Error> {
        loop {
            let start = self.pos;
            self.skip_plain();
            if let Some(out) = out.as_deref_mut() {
                // `"` and `\` are ASCII, so both ends are char boundaries.
                out.push_str(&self.src[start..self.pos]);
            }
            match self.src.as_bytes().get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape whose `\` was just consumed.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.src.as_bytes().get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape — with the low half that
    /// must follow when it is a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.eat_keyword("\\u") {
                return Err(self.error("lone high surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("bad surrogate pair"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.error("bad unicode escape"))
    }

    /// Reads four hex digits.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Reads a number: an integer when it has no `.`, exponent or inner
    /// sign, else a float.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let negative = bytes.get(self.pos) == Some(&b'-');
        self.pos += usize::from(negative);
        let digits_from = self.pos;
        let mut is_float = false;
        // The digits' value, exact while there are at most 18 of them.
        let mut small = 0i64;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => small = small.wrapping_mul(10).wrapping_add(i64::from(b - b'0')),
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        if !is_float && (1..=18).contains(&(self.pos - digits_from)) {
            return Ok(Value::Int(i128::from(if negative {
                -small
            } else {
                small
            })));
        }
        let text = &self.src[start..self.pos];
        let parsed = if is_float {
            text.parse().ok().map(Value::Float)
        } else {
            text.parse().ok().map(Value::Int)
        };
        parsed.ok_or_else(|| Error::custom(format!("bad number `{text}`")))
    }

    /// A value that is not a string, array or object.
    fn scalar(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.error(&format!("unexpected {:?}", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Reads the next value as a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on malformed JSON or nesting beyond 128 levels.
    pub fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element(items.is_empty())? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key(pairs.is_empty())? {
                    pairs.push((key.into_owned(), self.value()?));
                }
                Ok(Value::Object(pairs))
            }
            _ => self.scalar(),
        }
    }

    /// Reads past the next value — checked exactly as [`Reader::value`]
    /// checks it — without building it.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] wherever [`Reader::value`] would.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                self.string_tail(None)
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_element(first)? {
                    first = false;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    self.skip_value()?;
                }
                Ok(())
            }
            _ => self.scalar().map(drop),
        }
    }
}
