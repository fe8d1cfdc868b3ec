//! Streaming JSON input: [`JsonReader`], the read-side mirror of
//! [`JsonWriter`](crate::JsonWriter), and [`Fields`], the by-name member
//! lookup through which derived and hand-written decoders read objects.

use std::borrow::Cow;

use crate::{DeError, Deserialize, Value};

/// Deepest array/object nesting a [`JsonReader`] accepts. Reading
/// recurses once per level (into a typed value, a tree or a skipped
/// member alike), so an unbounded depth lets one line of `[` overflow the
/// stack of whichever thread reads it; 128 is far above any frame the
/// service protocol sends and far below what a 2 MiB thread stack holds.
pub const MAX_DEPTH: usize = 128;

/// A cursor over JSON text that [`Deserialize::read_json`] reads from.
///
/// It accepts exactly what the tree parser ([`JsonReader::value`])
/// accepts: JSON plus the bare tokens `NaN`, `Infinity` and `-Infinity`,
/// with at most [`MAX_DEPTH`] open containers. Errors name the byte
/// offset they were found at.
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// The innermost open container has yielded no member or item yet.
    fresh: bool,
}

impl<'a> JsonReader<'a> {
    pub fn new(text: &'a str) -> JsonReader<'a> {
        JsonReader::at(text, 0, 0)
    }

    fn at(text: &'a str, pos: usize, depth: usize) -> JsonReader<'a> {
        JsonReader {
            text,
            pos,
            depth,
            fresh: false,
        }
    }

    /// An error at the current position.
    pub(crate) fn err(&self, msg: &str) -> DeError {
        DeError(format!("{msg} at byte {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte after any whitespace, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte()
    }

    /// Check that nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), DeError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters")),
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Consume a `null` if one comes next.
    pub(crate) fn null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat_word("null")
    }

    /// Enter an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn open(&mut self, bracket: u8, what: &str) -> Result<(), DeError> {
        if self.peek() != Some(bracket) {
            return Err(self.err(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    /// Whether the open container has another member or item, consuming
    /// the `,` before it, or the closing bracket after the last one.
    fn more(&mut self, close: u8, msg: &str) -> Result<bool, DeError> {
        let next = self.peek();
        if next == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.fresh = false;
            Ok(false)
        } else if self.fresh {
            self.fresh = false;
            Ok(true)
        } else if next == Some(b',') {
            self.pos += 1;
            Ok(true)
        } else {
            Err(self.err(msg))
        }
    }

    /// Consume the `{` of an object; read its members with
    /// [`JsonReader::next_key`].
    pub fn begin_object(&mut self) -> Result<(), DeError> {
        self.open(b'{', "expected object")
    }

    /// The next member's key, its `:` consumed, so the caller must read
    /// or [`skip`](JsonReader::skip) its value next; `None` once the
    /// object's `}` is consumed. Keys without escapes are borrowed from
    /// the text.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        if !self.more(b'}', "expected `,` or `}`")? {
            return Ok(None);
        }
        let key = self.str()?;
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Consume the `[` of an array; read its items with
    /// [`JsonReader::next_item`].
    pub fn begin_array(&mut self) -> Result<(), DeError> {
        self.open(b'[', "expected array")
    }

    /// Whether another item follows (the caller must read or skip it);
    /// `false` once the array's `]` is consumed.
    pub fn next_item(&mut self) -> Result<bool, DeError> {
        self.more(b']', "expected `,` or `]`")
    }

    /// A string literal, unescaped. A string without escapes is borrowed
    /// from the text.
    pub fn str(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.eat(b'"')?;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut unescaped: Option<String> = None;
        let mut start = self.pos;
        loop {
            while !matches!(bytes.get(self.pos), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            // `start` and `pos` both sit on ASCII bytes, so on char
            // boundaries.
            let run = text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid utf8"))?;
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                    start = self.pos;
                }
                None => return Err(self.err("unterminated string")),
                Some(_) => unreachable!("scan stops only at quote or backslash"),
            }
        }
    }

    /// One JSON value parsed into a tree: how a [`Value`] reads itself,
    /// and how [`Serialize::to_value`](crate::Serialize::to_value) parses
    /// a rendering. A number, bool or `null` builds nothing on the heap.
    pub fn value(&mut self) -> Result<Value, DeError> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), value));
                }
                Ok(Value::Object(pairs))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::Str(self.str()?.into_owned())),
            _ => self.scalar(),
        }
    }

    /// Check and pass over one value without building it. Strings
    /// without escapes, numbers and containers allocate nothing.
    pub fn skip(&mut self) -> Result<(), DeError> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Some(b'"') => {
                self.str()?;
            }
            _ => {
                self.scalar()?;
            }
        }
        Ok(())
    }

    /// A number, bool or `null`, which allocate nothing.
    pub(crate) fn scalar(&mut self) -> Result<Value, DeError> {
        match self.peek() {
            Some(b't') if self.eat_word("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_word("null") => Ok(Value::Null),
            Some(b'N') if self.eat_word("NaN") => Ok(Value::Float(f64::NAN)),
            Some(b'I') if self.eat_word("Infinity") => Ok(Value::Float(f64::INFINITY)),
            Some(b'-') if self.eat_word("-Infinity") => Ok(Value::Float(f64::NEG_INFINITY)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Value, DeError> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.byte() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| self.err("bad number"))
        }
    }

    /// Read one object through `decode`, which asks for its members by
    /// name. Members `decode` never asks for are still checked, then
    /// passed over.
    pub fn fields<T>(
        &mut self,
        decode: impl FnOnce(&mut Fields<'_, 'a>) -> Result<T, DeError>,
    ) -> Result<T, DeError> {
        self.peek();
        let (start, depth) = (self.pos, self.depth);
        self.begin_object()?;
        let mut fields = Fields {
            reader: self,
            start,
            depth,
            passed: Vec::new(),
            open: true,
        };
        let out = decode(&mut fields)?;
        while fields.open {
            match fields.reader.next_key()? {
                Some(_) => fields.reader.skip()?,
                None => fields.open = false,
            }
        }
        Ok(out)
    }
}

/// One JSON object's members, looked up by name: a decoder states its
/// members once, as reads from a `Fields` that [`JsonReader::fields`]
/// hands it.
///
/// As with [`Value::get`], the first member of a name is the one read.
/// The object is read in one pass when members are asked for in wire
/// order; a member passed over on the way to another is read again from
/// its offset when asked for later.
pub struct Fields<'r, 'a> {
    reader: &'r mut JsonReader<'a>,
    /// Offset of the object's `{`, and the depth outside it.
    start: usize,
    depth: usize,
    /// Members passed over so far: key and value offset.
    passed: Vec<(Cow<'a, str>, usize)>,
    /// The object's `}` is not consumed yet.
    open: bool,
}

impl<'a> Fields<'_, 'a> {
    /// The member `name`, decoded, or `None` if the object has none.
    pub fn get<T: Deserialize>(&mut self, name: &str) -> Result<Option<T>, DeError> {
        if let Some(&(_, at)) = self.passed.iter().find(|(k, _)| k == name) {
            return T::read_json(&mut JsonReader::at(self.reader.text, at, self.depth + 1))
                .map(Some);
        }
        while self.open {
            match self.reader.next_key()? {
                Some(key) if key == name => return T::read_json(self.reader).map(Some),
                Some(key) => {
                    self.passed.push((key, self.reader.pos));
                    self.reader.skip()?;
                }
                None => self.open = false,
            }
        }
        Ok(None)
    }

    /// The member `name`; absent is an error.
    pub fn field<T: Deserialize>(&mut self, name: &str) -> Result<T, DeError> {
        self.get(name)?.ok_or_else(|| DeError::missing(name))
    }

    /// The member `name`; absent and `null` are both `None`.
    pub fn opt_field<T: Deserialize>(&mut self, name: &str) -> Result<Option<T>, DeError> {
        Ok(self.get::<Option<T>>(name)?.flatten())
    }

    /// The whole object decoded as `T`, for a type that reads the members
    /// around the ones already asked for (`T` skips those as unknown).
    pub fn whole<T: Deserialize>(&mut self) -> Result<T, DeError> {
        let mut again = JsonReader::at(self.reader.text, self.start, self.depth);
        let out = T::read_json(&mut again)?;
        *self.reader = again;
        self.open = false;
        Ok(out)
    }
}
