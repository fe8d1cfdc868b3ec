//! Offline stand-in for `serde_json`. [`to_string`] writes compact JSON
//! straight from a typed value through `serde`'s `Serialize::write_json`,
//! with no tree in between; [`from_str`] parses text into the `serde`
//! stand-in's [`Value`] tree and decodes that.
//!
//! One deliberate deviation from strict JSON: non-finite floats are
//! written as the bare tokens `Infinity`, `-Infinity`, and `NaN` (strict
//! JSON has no spelling for them, and solver models legitimately contain
//! infinite bounds), and the parser accepts those tokens back.

pub use serde::Value;
use serde::{DeError, Deserialize, JsonWriter, Serialize};

/// Serialization/deserialization failure with a short message.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Compact JSON, written straight from the typed value by
/// [`Serialize::write_json`].
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = JsonWriter::new();
    value.write_json(&mut out);
    Ok(out.into_string())
}

/// Indented JSON (two spaces), walked over the value's tree.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = JsonWriter::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out.into_string())
}

pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse(text)?;
    T::from_value(&value).map_err(Error::from)
}

pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value).map_err(Error::from)
}

const INDENT: usize = 2;

/// Scalars and empty containers render exactly as compact output does.
fn write_pretty(out: &mut JsonWriter, v: &Value, depth: usize) {
    let newline = |out: &mut JsonWriter, depth: usize| {
        out.raw("\n");
        for _ in 0..INDENT * depth {
            out.raw(" ");
        }
    };
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.raw("[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.raw(",");
                }
                newline(out, depth + 1);
                write_pretty(out, item, depth + 1);
            }
            newline(out, depth);
            out.raw("]");
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.raw("{");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.raw(",");
                }
                newline(out, depth + 1);
                out.str(k);
                out.raw(": ");
                write_pretty(out, item, depth + 1);
            }
            newline(out, depth);
            out.raw("}");
        }
        leaf => leaf.write_json(out),
    }
}

/// Deepest array/object nesting [`from_str`] accepts. The parser recurses
/// once per level, so an unbounded depth lets one line of `[` overflow the
/// stack of whichever thread parses it; 128 is far above any frame the
/// service protocol sends and far below what a 2 MiB thread stack holds.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat_word("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_word("null") => Ok(Value::Null),
            Some(b'N') if self.eat_word("NaN") => Ok(Value::Float(f64::NAN)),
            Some(b'I') if self.eat_word("Infinity") => Ok(Value::Float(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(Value::Float(f64::NEG_INFINITY))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
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
                }
                None => return Err(self.err("unterminated string")),
                Some(_) => unreachable!("scan stops only at quote or backslash"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(parse("42").unwrap(), Value::UInt(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        assert_eq!(parse("Infinity").unwrap(), Value::Float(f64::INFINITY));
        assert_eq!(parse("-Infinity").unwrap(), Value::Float(f64::NEG_INFINITY));
    }

    #[test]
    fn roundtrip_nested() {
        let v: Vec<(u32, f64)> = vec![(1, 0.5), (2, f64::INFINITY)];
        let text = to_string(&v).unwrap();
        let back: Vec<(u32, f64)> = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_shape() {
        let v: Vec<u32> = vec![1, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn nesting_is_bounded_on_a_small_stack() {
        // A service connection thread's default stack: unbounded recursion
        // overflowed it long before 200k levels.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for hostile in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
                    let err = parse(&hostile).unwrap_err();
                    assert!(err.0.contains("at byte"), "{err}");
                }
                let nest = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
                assert!(parse(&nest(MAX_DEPTH)).is_ok());
                let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
                assert_eq!(
                    err.0,
                    format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
                );
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn float_precision_survives() {
        let x = 0.1 + 0.2;
        let text = to_string(&x).unwrap();
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(x, back);
    }
}
