//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so this workspace ships a
//! minimal serialization framework under the `serde` name. Unlike the real
//! serde's visitor architecture, [`Serialize`] has two methods:
//! [`Serialize::write_json`] appends compact JSON straight to a
//! [`JsonWriter`], which is how every render goes, and
//! [`Serialize::to_value`] builds an owned JSON-like [`Value`] tree for the
//! callers that need one (masking, pretty output). [`Deserialize`] mirrors
//! it: [`Deserialize::read_json`] decodes straight from a [`JsonReader`]
//! over the text, which is how every parse goes, and
//! [`Deserialize::from_value`] decodes a [`Value`] tree (with
//! [`Deserialize::from_owned_value`] for a tree the decoder may take
//! apart). Only the API surface this workspace uses is provided.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

pub use serde_derive::{Deserialize, Serialize};

mod read;
pub use read::{Fields, JsonReader, MAX_DEPTH};

/// JSON-like data tree all (de)serialization goes through.
///
/// Objects keep insertion order (a plain pair list) so output is stable and
/// matches struct declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Signed integer (negative literals parse here).
    Int(i64),
    /// Unsigned integer (non-negative literals parse here).
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) => i64::try_from(*u).ok(),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < 1.9e19 => Some(*f as u64),
            _ => None,
        }
    }
}

/// Compact JSON text that [`Serialize::write_json`] appends to.
///
/// Output is the workspace's one JSON spelling: no whitespace, object
/// members in the order written, integral floats below `1e15` with a
/// trailing `.0` so they stay distinguishable from integers, and the bare
/// tokens `NaN`, `Infinity` and `-Infinity` for non-finite floats.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Key derivation only: write `-0.0` as `0.0` (see [`JsonWriter::hashing`]).
    fold_signed_zero: bool,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// An empty writer whose buffer holds `bytes` without growing.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            fold_signed_zero: false,
        }
    }

    /// A writer for content hashing: `-0.0` is written as `0.0`, since
    /// the two compare equal and must not split a cache slot. Every NaN
    /// is already the one token `NaN`. Everything else is written exactly
    /// as [`JsonWriter::new`] writes it.
    pub fn hashing() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            fold_signed_zero: true,
        }
    }

    pub fn as_str(&self) -> &str {
        &self.out
    }

    pub fn into_string(self) -> String {
        self.out
    }

    /// Empty the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.out.clear();
    }

    /// Append already-rendered JSON (punctuation, literals, a canonical
    /// payload) verbatim.
    pub fn raw(&mut self, json: &str) {
        self.out.push_str(json);
    }

    pub fn bool(&mut self, b: bool) {
        self.raw(if b { "true" } else { "false" });
    }

    pub fn u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.raw(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }

    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.u64(n.unsigned_abs());
    }

    pub fn f64(&mut self, f: f64) {
        if f.is_nan() {
            self.raw("NaN");
        } else if f.is_infinite() {
            self.raw(if f > 0.0 { "Infinity" } else { "-Infinity" });
        } else if f == f.trunc() && f.abs() < 1e15 {
            // Exact in an i64; keep the `.0` so it reads back as a float.
            if f.is_sign_negative() && !(f == 0.0 && self.fold_signed_zero) {
                self.out.push('-');
            }
            self.u64(f.abs() as u64);
            self.raw(".0");
        } else {
            // Shortest round-trip digits; `fmt::Write` on a `String` cannot fail.
            let _ = write!(self.out, "{f}");
        }
    }

    /// A JSON string literal. A string with nothing to escape is copied in
    /// one piece.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[start..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            start = i + 1;
        }
        self.out.push_str(&s[start..]);
        self.out.push('"');
    }

    /// A JSON array of `items`.
    pub fn seq<'a, T: Serialize + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            item.write_json(self);
        }
        self.out.push(']');
    }

    /// Splice the members of the object `value` renders into an object
    /// this writer has open, after `written` members of its own. The
    /// object's braces are dropped, so its members continue the open one.
    pub fn members_of(&mut self, value: &dyn Serialize, written: usize) {
        let mark = self.out.len();
        value.write_json(self);
        debug_assert!(self.out[mark..].starts_with('{') && self.out.ends_with('}'));
        self.out.pop();
        if self.out.len() == mark + 1 || written == 0 {
            self.out.remove(mark);
        } else {
            self.out.replace_range(mark..mark + 1, ",");
        }
    }
}

/// Deserialization error: a human-readable message with no position info.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }

    pub fn missing(field: &str) -> Self {
        DeError(format!("missing field `{field}`"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Render `self` as JSON, as a [`Value`] tree or straight to text.
///
/// Both methods must describe the same JSON: `write_json` appends exactly
/// the bytes that rendering `to_value()` with the compact writer gives.
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// Append `self`'s compact JSON to `out`. The default renders
    /// `to_value()`; impls override it to write without building a tree.
    fn write_json(&self, out: &mut JsonWriter) {
        self.to_value().write_json(out);
    }
}

/// Rebuild `Self` from JSON: from text, from a borrowed tree, or from an
/// owned tree.
///
/// All three must agree: for any text, `read_json` gives what parsing the
/// text into a tree and calling `from_value` gives, or both fail.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Rebuild `Self` from a tree it may take apart, moving strings and
    /// subtrees out instead of cloning them. The default borrows `v`.
    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        Self::from_value(&v)
    }

    /// Read one value of `Self` straight from `r`. The default parses the
    /// value into a tree and decodes that, so an impl that does not
    /// override it stays correct; impls override it to read with no tree.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        Self::from_owned_value(r.value()?)
    }
}

/// Mirror of `serde::de` for the `DeserializeOwned` bound used in generic
/// round-trip helpers.
pub mod de {
    pub trait DeserializeOwned: crate::Deserialize {}
    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

/// A `Value` (de)serializes as itself, so generic code can pass raw JSON
/// trees through without knowing their shape (e.g. a service embedding an
/// already-rendered solution in a response envelope).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    /// The one compact writer of a tree.
    fn write_json(&self, out: &mut JsonWriter) {
        match self {
            Value::Null => out.raw("null"),
            Value::Bool(b) => out.bool(*b),
            Value::Int(i) => out.i64(*i),
            Value::UInt(u) => out.u64(*u),
            Value::Float(f) => out.f64(*f),
            Value::Str(s) => out.str(s),
            Value::Array(items) => out.seq(items),
            Value::Object(pairs) => {
                out.raw("{");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.raw(",");
                    }
                    out.str(k);
                    out.raw(":");
                    v.write_json(out);
                }
                out.raw("}");
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }

    /// The tree parser.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut JsonWriter) {
        (**self).write_json(out);
    }
}

macro_rules! impl_int {
    ($($t:ty => $var:ident as $conv:ty, $as:ident, $write:ident);* $(;)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::$var(*self as $conv)
            }

            fn write_json(&self, out: &mut JsonWriter) {
                out.$write(*self as $conv);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide = v
                    .$as()
                    .ok_or_else(|| DeError::new(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(wide)
                    .map_err(|_| DeError::new(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_int! {
    u8 => UInt as u64, as_u64, u64;
    u16 => UInt as u64, as_u64, u64;
    u32 => UInt as u64, as_u64, u64;
    u64 => UInt as u64, as_u64, u64;
    usize => UInt as u64, as_u64, u64;
    i8 => Int as i64, as_i64, i64;
    i16 => Int as i64, as_i64, i64;
    i32 => Int as i64, as_i64, i64;
    i64 => Int as i64, as_i64, i64;
    isize => Int as i64, as_i64, i64;
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.f64(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::new("expected number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| DeError::new("expected number"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::new("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::new("expected string"))
    }

    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s),
            _ => Err(DeError::new("expected string")),
        }
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        string_token(r).map(Cow::into_owned)
    }
}

/// The string literal `r` is at; anything else is the error every string
/// decoder gives.
fn string_token<'a>(r: &mut JsonReader<'a>) -> Result<Cow<'a, str>, DeError> {
    match r.peek() {
        Some(b'"') => r.str(),
        _ => Err(r.err("expected string")),
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.str(self);
    }
}

/// A tree-based framework has no borrowed input to point into, so static
/// string slices deserialize by leaking. Only used for small catalog
/// entries (device names); the leak is bounded by input size.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::new("expected string"))?;
        Ok(Box::leak(s.to_owned().into_boxed_str()))
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        Ok(Box::leak(string_token(r)?.into_owned().into_boxed_str()))
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        single_char(
            v.as_str()
                .ok_or_else(|| DeError::new("expected single-char string"))?,
        )
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        single_char(&string_token(r)?)
    }
}

fn single_char(s: &str) -> Result<char, DeError> {
    let mut chars = s.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Ok(c),
        _ => Err(DeError::new("expected single-char string")),
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }

    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.into_iter().map(T::from_owned_value).collect(),
            _ => Err(DeError::new("expected array")),
        }
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_item()? {
            items.push(T::read_json(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }

    fn write_json(&self, out: &mut JsonWriter) {
        match self {
            None => out.raw("null"),
            Some(t) => t.write_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_owned_value(other).map(Some),
        }
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.null() {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.seq(self);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::new("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        Ok(Vec::read_json(r)?.into_iter().collect())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.raw("{");
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.raw(",");
            }
            out.str(k);
            out.raw(":");
            v.write_json(out);
        }
        out.raw("}");
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::new("expected object"))?
            .iter()
            .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
            .collect()
    }

    /// A repeated key keeps its last value, as collecting the tree's
    /// pairs does.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.begin_object()?;
        let mut map = BTreeMap::new();
        while let Some(key) = r.next_key()? {
            map.insert(key.into_owned(), V::read_json(r)?);
        }
        Ok(map)
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }

            fn write_json(&self, out: &mut JsonWriter) {
                out.raw("[");
                $(
                    if $n > 0 {
                        out.raw(",");
                    }
                    self.$n.write_json(out);
                )+
                out.raw("]");
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array().ok_or_else(|| DeError::new("expected tuple array"))?;
                let expected = [$($n),+].len();
                if items.len() != expected {
                    return Err(DeError::new(format!(
                        "expected {expected}-tuple, found {} elements", items.len())));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }

            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                r.begin_array()?;
                let mut slots = ($(None::<$t>,)+);
                let mut found = 0;
                while r.next_item()? {
                    match found {
                        $($n => slots.$n = Some($t::read_json(r)?),)+
                        _ => r.skip()?,
                    }
                    found += 1;
                }
                let expected = [$($n),+].len();
                if found != expected {
                    return Err(DeError::new(format!(
                        "expected {expected}-tuple, found {found} elements")));
                }
                Ok(($(slots.$n.expect("a full tuple fills every slot"),)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.seq(self);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        fixed(items)
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        fixed(Vec::read_json(r)?)
    }
}

fn fixed<T, const N: usize>(items: Vec<T>) -> Result<[T; N], DeError> {
    <[T; N]>::try_from(items)
        .map_err(|items| DeError::new(format!("expected {N} elements, found {}", items.len())))
}
