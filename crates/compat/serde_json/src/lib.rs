//! Offline stand-in for `serde_json`. [`to_string`] writes compact JSON
//! straight from a typed value through `serde`'s `Serialize::write_json`,
//! and [`from_str`] reads a typed value straight from the text through
//! `Deserialize::read_json` over a `serde::JsonReader`, with no tree in
//! between either way. A [`Value`] target gets the parsed tree itself.
//! The tree paths go through the text: [`to_string_pretty`] indents the
//! tree that `Serialize::to_value` parses from the compact text, and
//! [`from_value`] reads the text the tree renders.
//!
//! One deliberate deviation from strict JSON: non-finite floats are
//! written as the bare tokens `Infinity`, `-Infinity`, and `NaN` (strict
//! JSON has no spelling for them, and solver models legitimately contain
//! infinite bounds), and the parser accepts those tokens back.

pub use serde::Value;
use serde::{DeError, Deserialize, JsonReader, JsonWriter, Serialize};

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

/// One `T` read straight from `text`, which must hold nothing else but
/// whitespace.
///
/// Malformed text fails with the parser's own error even where the
/// reader stopped earlier at a value of the wrong shape, as decoding a
/// parsed tree would: a line of 200k `[` answers `nesting deeper than
/// 128`, whatever `T` is.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut reader = JsonReader::new(text);
    let read = T::read_json(&mut reader).and_then(|value| reader.end().map(|()| value));
    read.map_err(|err| {
        let mut check = JsonReader::new(text);
        let malformed = check.skip().and_then(|()| check.end()).err();
        malformed.unwrap_or(err).into()
    })
}

/// `T` decoded from a tree, as `Deserialize::from_value` reads it.
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

#[cfg(test)]
use serde::MAX_DEPTH;

/// The tree parser, which the tests below drive directly.
#[cfg(test)]
fn parse(text: &str) -> Result<Value, Error> {
    from_str(text)
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

    #[derive(serde::Deserialize, Debug, PartialEq)]
    struct Named {
        a: u32,
        b: Option<String>,
    }

    /// Every decode path reads the same codec, so no parity check between
    /// them can see which of a repeated key is read: pin it here.
    #[test]
    fn the_first_of_a_repeated_key_wins() {
        let text = r#"{"b":null,"a":1,"b":"later","a":"not a number"}"#;
        let first = Named { a: 1, b: None };
        assert_eq!(from_str::<Named>(text).unwrap(), first);
        assert_eq!(from_value::<Named>(parse(text).unwrap()).unwrap(), first);
    }

    #[test]
    fn float_precision_survives() {
        let x = 0.1 + 0.2;
        let text = to_string(&x).unwrap();
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(x, back);
    }
}
