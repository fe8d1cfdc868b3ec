//! Derive macros for the offline `serde` stand-in.
//!
//! Hand-rolled over `proc_macro` token trees (no `syn`/`quote` in the
//! offline container). Supports exactly the shapes this workspace
//! serializes:
//!
//! * structs with named fields        → JSON object, declaration order
//! * newtype structs `S(T)`           → the inner value, transparent
//! * tuple structs `S(A, B, …)`       → JSON array
//! * unit enum variants               → `"Variant"`
//! * tuple enum variants `V(T)` / `V(A, B)` → `{"Variant": …}` /
//!   `{"Variant": […]}`
//! * struct enum variants `V { a, b }` → `{"Variant": {"a": …, "b": …}}`
//!
//! Each derive generates one codec, and the trait provides the tree
//! methods over it. `Serialize` gets `write_json`, which writes compact
//! JSON straight to a `serde::JsonWriter`, its punctuation and keys
//! precomputed as string literals. `Deserialize` gets `read_json`, which
//! reads straight from a `serde::JsonReader`: objects through
//! `JsonReader::fields`, so keys are compared as borrowed slices against
//! the field names, unknown members are checked and skipped without
//! building anything, the first of a repeated key wins (as `Value::get`
//! finds it), and a missing member is an error even for an `Option`
//! field.
//!
//! Generics and `#[serde(...)]` attributes are not supported and fail
//! loudly at expansion time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let write = write_json_body(&item);
    format!(
        "impl ::serde::Serialize for {} {{\n\
         fn write_json(&self, out: &mut ::serde::JsonWriter) {{\n{write}}}\n}}\n",
        item.name
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// The body of the generated `write_json`: the compact JSON of the
/// shapes listed in the crate doc, with no tree.
fn write_json_body(item: &Item) -> String {
    let mut w = Writes::default();
    match &item.shape {
        Shape::NamedStruct(fields) => {
            let members: Vec<(&str, String)> = fields
                .iter()
                .map(|f| (f.as_str(), format!("&self.{f}")))
                .collect();
            w.object(&members);
        }
        Shape::TupleStruct(1) => w.value("&self.0"),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            w.array(&items);
        }
        Shape::Enum(variants) => {
            w.code.push_str("match self {\n");
            for v in variants {
                let (n, name) = (&item.name, &v.name);
                let mut arm = Writes::default();
                let pattern = match &v.kind {
                    VariantKind::Unit => {
                        arm.raw(&format!("\"{name}\""));
                        format!("{n}::{name}")
                    }
                    VariantKind::Tuple(k) => {
                        let binds: Vec<String> = (0..*k).map(|i| format!("f{i}")).collect();
                        arm.raw(&format!("{{\"{name}\":"));
                        if *k == 1 {
                            arm.value("f0");
                        } else {
                            arm.array(&binds);
                        }
                        arm.raw("}");
                        format!("{n}::{name}({})", binds.join(", "))
                    }
                    VariantKind::Struct(fields) => {
                        let members: Vec<(&str, String)> =
                            fields.iter().map(|f| (f.as_str(), f.clone())).collect();
                        arm.raw(&format!("{{\"{name}\":"));
                        arm.object(&members);
                        arm.raw("}");
                        format!("{n}::{name} {{ {} }}", fields.join(", "))
                    }
                };
                w.code
                    .push_str(&format!("{pattern} => {{\n{}}}\n", arm.finish()));
            }
            w.code.push_str("}\n");
        }
    }
    w.finish()
}

/// Generated `write_json` statements. Adjacent literal JSON is merged
/// into one `out.raw(..)` call.
#[derive(Default)]
struct Writes {
    code: String,
    pending: String,
}

impl Writes {
    fn raw(&mut self, json: &str) {
        self.pending.push_str(json);
    }

    /// Write the value of the expression `expr` (a reference).
    fn value(&mut self, expr: &str) {
        self.flush();
        self.code
            .push_str(&format!("::serde::Serialize::write_json({expr}, out);\n"));
    }

    /// `{"key":value,…}`; keys are field names, which need no escaping.
    fn object(&mut self, members: &[(&str, String)]) {
        self.raw("{");
        for (i, (key, expr)) in members.iter().enumerate() {
            if i > 0 {
                self.raw(",");
            }
            self.raw(&format!("\"{key}\":"));
            self.value(expr);
        }
        self.raw("}");
    }

    fn array(&mut self, exprs: &[String]) {
        self.raw("[");
        for (i, expr) in exprs.iter().enumerate() {
            if i > 0 {
                self.raw(",");
            }
            self.value(expr);
        }
        self.raw("]");
    }

    fn flush(&mut self) {
        if !self.pending.is_empty() {
            // `{:?}` spells the text as a Rust string literal.
            self.code
                .push_str(&format!("out.raw({:?});\n", self.pending));
            self.pending.clear();
        }
    }

    fn finish(mut self) -> String {
        self.flush();
        self.code
    }
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let read = read_json_body(&item);
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn read_json(__r: &mut ::serde::JsonReader<'_>) \
         -> ::std::result::Result<Self, ::serde::DeError> {{\n{read}\n}}\n}}\n"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

/// The body of the generated `read_json`: the shapes `write_json` writes,
/// read from `__r` with no tree.
fn read_json_body(item: &Item) -> String {
    let name = &item.name;
    match &item.shape {
        Shape::NamedStruct(fields) => read_named(name, fields),
        Shape::TupleStruct(1) => format!("Ok({name}(::serde::Deserialize::read_json(__r)?))"),
        Shape::TupleStruct(n) => {
            format!(
                "Ok({})",
                read_tuple(name, *n, &format!("wrong arity for {name}"))
            )
        }
        Shape::Enum(variants) => {
            let bad_shape = format!(
                "Err(::serde::DeError::new(\"expected string or 1-key object for {name}\"))"
            );
            let unknown = format!(
                "Err(::serde::DeError::new(format!(\"unknown variant `{{__other}}` for {name}\")))"
            );
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| format!("\"{0}\" => Ok({name}::{0}),\n", v.name))
                .collect();
            let data_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let path = format!("{name}::{}", v.name);
                    let read = match &v.kind {
                        VariantKind::Unit => return None,
                        VariantKind::Tuple(1) => {
                            format!("{path}(::serde::Deserialize::read_json(__r)?)")
                        }
                        VariantKind::Tuple(k) => {
                            read_tuple(&path, *k, &format!("wrong arity for {path}"))
                        }
                        VariantKind::Struct(fields) => format!("{}?", read_named(&path, fields)),
                    };
                    Some(format!("\"{}\" => {read},\n", v.name))
                })
                .collect();
            // With no data variants every tag is unknown, and the code
            // after the tag match would be unreachable.
            let object = if data_arms.is_empty() {
                format!(
                    "match __r.next_key()? {{\n\
                         Some(__other) => {unknown},\n\
                         None => {bad_shape},\n\
                     }}"
                )
            } else {
                format!(
                    "let __tag = match __r.next_key()? {{\n\
                         Some(__tag) => __tag,\n\
                         None => return {bad_shape},\n\
                     }};\n\
                     let __value = match &*__tag {{\n\
                         {data_arms}\
                         __other => return {unknown},\n\
                     }};\n\
                     if __r.next_key()?.is_some() {{\n\
                         return {bad_shape};\n\
                     }}\n\
                     Ok(__value)"
                )
            };
            format!(
                "match __r.peek() {{\n\
                     Some(b'\"') => match &*__r.str()? {{\n\
                         {unit_arms}\
                         __other => {unknown},\n\
                     }},\n\
                     Some(b'{{') => {{\n\
                         __r.begin_object()?;\n\
                         {object}\n\
                     }}\n\
                     _ => {bad_shape},\n\
                 }}"
            )
        }
    }
}

/// An expression reading an object of `fields` from `__r` into
/// `Ok(ctor { .. })`, or failing.
fn read_named(ctor: &str, fields: &[String]) -> String {
    let members: String = fields
        .iter()
        .map(|f| format!("{f}: __m.field(\"{f}\")?,\n"))
        .collect();
    let m = if fields.is_empty() { "_" } else { "__m" };
    format!("__r.fields(|{m}| Ok({ctor} {{\n{members}}}))")
}

/// An expression reading an array of exactly `n` items from `__r` into
/// `ctor(..)`.
fn read_tuple(ctor: &str, n: usize, arity: &str) -> String {
    let wrong = format!("return Err(::serde::DeError::new(\"{arity}\"))");
    let items: String = (0..n)
        .map(|i| {
            format!(
                "let __{i} = if __r.next_item()? {{\n\
                     ::serde::Deserialize::read_json(__r)?\n\
                 }} else {{\n\
                     {wrong};\n\
                 }};\n"
            )
        })
        .collect();
    let binds: Vec<String> = (0..n).map(|i| format!("__{i}")).collect();
    format!(
        "{{\n\
         __r.begin_array()?;\n\
         {items}\
         if __r.next_item()? {{\n\
             {wrong};\n\
         }}\n\
         {ctor}({})\n\
         }}",
        binds.join(", ")
    )
}

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    /// Field names in declaration order.
    NamedStruct(Vec<String>),
    /// Field count.
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    /// Tuple-variant field count (>= 1).
    Tuple(usize),
    /// Struct-variant field names.
    Struct(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    // Skip outer attributes (`#[...]`) and visibility.
    loop {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                // `pub(crate)` and friends carry a parenthesized group.
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected type name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive: generic type `{name}` is not supported by the offline stand-in");
    }
    let shape = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_top_level_fields(g.stream()))
            }
            other => panic!("serde_derive: unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(variants(g.stream(), &name))
            }
            other => panic!("serde_derive: unsupported enum body for `{name}`: {other:?}"),
        },
        other => panic!("serde_derive: cannot derive for `{other} {name}`"),
    };
    Item { name, shape }
}

/// Split a brace-group stream at top-level commas (outside any `<...>`).
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = vec![Vec::new()];
    let mut angle_depth = 0i32;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                out.push(Vec::new());
                continue;
            }
            _ => {}
        }
        out.last_mut().unwrap().push(tt);
    }
    out.retain(|part| !part.is_empty());
    out
}

/// Strip leading `#[...]` attributes (doc comments arrive as attributes).
fn strip_attrs(part: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    while matches!(part.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        i += 2;
    }
    &part[i..]
}

fn named_fields(stream: TokenStream) -> Vec<String> {
    split_commas(stream)
        .iter()
        .map(|part| {
            let part = strip_attrs(part);
            let part = match part {
                [TokenTree::Ident(id), rest @ ..] if id.to_string() == "pub" => match rest {
                    [TokenTree::Group(g), tail @ ..] if g.delimiter() == Delimiter::Parenthesis => {
                        tail
                    }
                    _ => rest,
                },
                _ => part,
            };
            match part {
                [TokenTree::Ident(id), ..] => id.to_string(),
                other => panic!("serde_derive: cannot parse field: {other:?}"),
            }
        })
        .collect()
}

fn count_top_level_fields(stream: TokenStream) -> usize {
    split_commas(stream).len()
}

fn variants(stream: TokenStream, enum_name: &str) -> Vec<Variant> {
    split_commas(stream)
        .iter()
        .map(|part| {
            let part = strip_attrs(part);
            match part {
                [TokenTree::Ident(id)] => Variant {
                    name: id.to_string(),
                    kind: VariantKind::Unit,
                },
                [TokenTree::Ident(id), TokenTree::Group(g)]
                    if g.delimiter() == Delimiter::Parenthesis =>
                {
                    Variant {
                        name: id.to_string(),
                        kind: VariantKind::Tuple(count_top_level_fields(g.stream())),
                    }
                }
                [TokenTree::Ident(id), TokenTree::Group(g)]
                    if g.delimiter() == Delimiter::Brace =>
                {
                    Variant {
                        name: id.to_string(),
                        kind: VariantKind::Struct(named_fields(g.stream())),
                    }
                }
                other => panic!(
                    "serde_derive: unsupported variant shape in `{enum_name}` \
                     (discriminants are not supported): {other:?}"
                ),
            }
        })
        .collect()
}
