//! Minimal stand-in for `serde_derive`.
//!
//! Parses the deriving item with a hand-rolled `TokenStream` walker (the
//! offline build has no `syn`/`quote`) and emits impls of the JSON-oriented
//! `serde::Serialize` / `serde::Deserialize` shim traits. Supports the
//! shapes and attributes the workspace uses: named structs, tuple structs,
//! unit/tuple/named enum variants, `#[serde(transparent)]`,
//! `#[serde(skip)]`, `#[serde(default)]` (a missing field
//! deserializes to `Default::default()`; as in real serde, a missing
//! `Option` field is `None` without it) and `#[serde(rename_all =
//! "lowercase")]` on enums of unit variants. Generic items are rejected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Default, Clone)]
struct SerdeAttrs {
    transparent: bool,
    skip: bool,
    default: bool,
    rename_all: Option<String>,
}

#[derive(Debug)]
struct NamedField {
    name: String,
    skip: bool,
    default: bool,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<NamedField>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    /// The variant's JSON tag: its name, or as `rename_all` spells it.
    tag: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum Item {
    NamedStruct {
        name: String,
        transparent: bool,
        fields: Vec<NamedField>,
    },
    TupleStruct {
        name: String,
        skips: Vec<bool>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives the JSON-writing `serde::Serialize` shim trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives the JSON-reading `serde::Deserialize` shim trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => generate(&item)
            .parse()
            .expect("serde_derive shim generated invalid Rust"),
        Err(msg) => format!("::core::compile_error!({msg:?});")
            .parse()
            .expect("compile_error tokens"),
    }
}

// ---------------------------------------------------------------- parsing

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if let Some(TokenTree::Ident(i)) = self.peek() {
            if i.to_string() == word {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == ch {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    /// Consumes any leading attributes, folding `#[serde(...)]` flags into
    /// the returned summary.
    fn eat_attrs(&mut self) -> SerdeAttrs {
        let mut attrs = SerdeAttrs::default();
        loop {
            let is_attr = matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#');
            if !is_attr {
                return attrs;
            }
            self.pos += 1;
            let Some(TokenTree::Group(g)) = self.next() else {
                return attrs; // malformed; let rustc complain elsewhere
            };
            let mut inner = Cursor::new(g.stream());
            if inner.eat_ident("serde") {
                if let Some(TokenTree::Group(args)) = inner.next() {
                    let mut a = Cursor::new(args.stream());
                    while let Some(t) = a.next() {
                        if let TokenTree::Ident(i) = t {
                            match i.to_string().as_str() {
                                "transparent" => attrs.transparent = true,
                                "skip" => attrs.skip = true,
                                "default" => attrs.default = true,
                                "rename_all" => {
                                    a.eat_punct('=');
                                    if let Some(TokenTree::Literal(l)) = a.next() {
                                        attrs.rename_all = Some(l.to_string());
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }

    /// Consumes an optional visibility qualifier (`pub`, `pub(crate)`, ...).
    fn eat_vis(&mut self) {
        if self.eat_ident("pub") {
            if let Some(TokenTree::Group(g)) = self.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    self.pos += 1;
                }
            }
        }
    }

    /// Consumes type tokens until a top-level comma (angle-bracket aware);
    /// the comma itself is consumed too. Returns false at end of stream.
    fn skip_type_until_comma(&mut self) -> bool {
        let mut angle: i32 = 0;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    self.pos += 1;
                    return true;
                }
                _ => {}
            }
            self.pos += 1;
        }
        false
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut c = Cursor::new(input);
    let container = c.eat_attrs();
    c.eat_vis();

    if c.eat_ident("struct") {
        let name = expect_ident(&mut c)?;
        reject_generics(&mut c, &name)?;
        match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                Ok(Item::NamedStruct {
                    name,
                    transparent: container.transparent,
                    fields,
                })
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let skips = parse_tuple_fields(g.stream());
                Ok(Item::TupleStruct { name, skips })
            }
            _ => Err(format!("serde shim: unsupported struct shape for `{name}`")),
        }
    } else if c.eat_ident("enum") {
        let name = expect_ident(&mut c)?;
        reject_generics(&mut c, &name)?;
        match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let mut variants = parse_variants(g.stream())?;
                match container.rename_all.as_deref() {
                    None => {}
                    Some("\"lowercase\"") => {
                        for v in &mut variants {
                            if !matches!(v.kind, VariantKind::Unit) {
                                return Err(format!(
                                    "serde shim: rename_all on `{name}` needs unit variants"
                                ));
                            }
                            v.tag = v.name.to_lowercase();
                        }
                    }
                    Some(other) => {
                        return Err(format!("serde shim: unsupported rename_all {other}"))
                    }
                }
                Ok(Item::Enum { name, variants })
            }
            _ => Err(format!("serde shim: malformed enum `{name}`")),
        }
    } else {
        Err("serde shim: only structs and enums are supported".to_string())
    }
}

fn expect_ident(c: &mut Cursor) -> Result<String, String> {
    match c.next() {
        Some(TokenTree::Ident(i)) => Ok(i.to_string()),
        other => Err(format!("serde shim: expected identifier, found {other:?}")),
    }
}

fn reject_generics(c: &mut Cursor, name: &str) -> Result<(), String> {
    if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        Err(format!(
            "serde shim: generic type `{name}` is not supported"
        ))
    } else {
        Ok(())
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<NamedField>, String> {
    let mut c = Cursor::new(stream);
    let mut fields = Vec::new();
    loop {
        let attrs = c.eat_attrs();
        c.eat_vis();
        if c.peek().is_none() {
            return Ok(fields);
        }
        let name = expect_ident(&mut c)?;
        if !c.eat_punct(':') {
            return Err(format!("serde shim: expected `:` after field `{name}`"));
        }
        let optional = matches!(c.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "Option");
        fields.push(NamedField {
            name,
            skip: attrs.skip,
            default: attrs.default || optional,
        });
        if !c.skip_type_until_comma() {
            return Ok(fields);
        }
    }
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<bool> {
    let mut c = Cursor::new(stream);
    let mut skips = Vec::new();
    loop {
        let attrs = c.eat_attrs();
        c.eat_vis();
        if c.peek().is_none() {
            return skips;
        }
        skips.push(attrs.skip);
        if !c.skip_type_until_comma() {
            return skips;
        }
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut c = Cursor::new(stream);
    let mut variants = Vec::new();
    loop {
        c.eat_attrs();
        if c.peek().is_none() {
            return Ok(variants);
        }
        let name = expect_ident(&mut c)?;
        let kind = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                c.pos += 1;
                VariantKind::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let count = parse_tuple_fields(g.stream()).len();
                c.pos += 1;
                VariantKind::Tuple(count)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        if c.eat_punct('=') {
            c.skip_type_until_comma();
        } else {
            c.eat_punct(',');
        }
        variants.push(Variant {
            tag: name.clone(),
            name,
            kind,
        });
    }
}

// ------------------------------------------------------------- generation

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::NamedStruct {
            name,
            transparent,
            fields,
        } => {
            let live: Vec<&NamedField> = fields.iter().filter(|f| !f.skip).collect();
            let body = if *transparent && live.len() == 1 {
                format!(
                    "::serde::Serialize::serialize(&self.{}, out);",
                    live[0].name
                )
            } else {
                let mut b = String::from(
                    "out.push('{');\nlet mut __first = true;\nlet _ = &mut __first;\n",
                );
                for f in &live {
                    b.push_str(&format!(
                        "::serde::ser::begin_field(out, {:?}, &mut __first);\n\
                         ::serde::Serialize::serialize(&self.{}, out);\n",
                        f.name, f.name
                    ));
                }
                b.push_str("out.push('}');");
                b
            };
            (name, body)
        }
        Item::TupleStruct { name, skips } => {
            let live: Vec<usize> = (0..skips.len()).filter(|&i| !skips[i]).collect();
            let body = if live.len() == 1 {
                // Newtype structs serialize as their inner value (JSON
                // behaviour of real serde, with or without `transparent`).
                format!("::serde::Serialize::serialize(&self.{}, out);", live[0])
            } else {
                let mut b = String::from(
                    "out.push('[');\nlet mut __first = true;\nlet _ = &mut __first;\n",
                );
                for i in &live {
                    b.push_str(&format!(
                        "::serde::ser::begin_element(out, &mut __first);\n\
                         ::serde::Serialize::serialize(&self.{i}, out);\n"
                    ));
                }
                b.push_str("out.push(']');");
                b
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{v} => {{ ::serde::ser::write_string(out, {t:?}); }}\n",
                        v = v.name,
                        t = v.tag
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{v}(__v0) => {{\n\
                         out.push('{{');\n\
                         ::serde::ser::write_string(out, {v:?});\n\
                         out.push(':');\n\
                         ::serde::Serialize::serialize(__v0, out);\n\
                         out.push('}}');\n}}\n",
                        v = v.name
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__v{i}")).collect();
                        let mut b = format!(
                            "{name}::{v}({binds}) => {{\n\
                             out.push('{{');\n\
                             ::serde::ser::write_string(out, {v:?});\n\
                             out.push(':');\n\
                             out.push('[');\n\
                             let mut __first = true;\nlet _ = &mut __first;\n",
                            v = v.name,
                            binds = binds.join(", ")
                        );
                        for bind in &binds {
                            b.push_str(&format!(
                                "::serde::ser::begin_element(out, &mut __first);\n\
                                 ::serde::Serialize::serialize({bind}, out);\n"
                            ));
                        }
                        b.push_str("out.push(']');\nout.push('}');\n}\n");
                        arms.push_str(&b);
                    }
                    VariantKind::Named(fields) => {
                        let live: Vec<&NamedField> = fields.iter().filter(|f| !f.skip).collect();
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let mut b = format!(
                            "{name}::{v} {{ {binds} }} => {{\n\
                             out.push('{{');\n\
                             ::serde::ser::write_string(out, {v:?});\n\
                             out.push(':');\n\
                             out.push('{{');\n\
                             let mut __first = true;\nlet _ = &mut __first;\n",
                            v = v.name,
                            binds = binds.join(", ")
                        );
                        for f in fields.iter().filter(|f| f.skip) {
                            b.push_str(&format!("let _ = {};\n", f.name));
                        }
                        for f in &live {
                            b.push_str(&format!(
                                "::serde::ser::begin_field(out, {0:?}, &mut __first);\n\
                                 ::serde::Serialize::serialize({0}, out);\n",
                                f.name
                            ));
                        }
                        b.push_str("out.push('}');\nout.push('}');\n}\n");
                        arms.push_str(&b);
                    }
                }
            }
            (name, format!("match self {{\n{arms}\n}}"))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, out: &mut ::std::string::String) {{\n{body}\n}}\n}}"
    )
}

/// Generates the statements that parse the fields of a named-field body
/// (already inside the object) and the struct-literal field list.
fn gen_named_body(fields: &[NamedField], path: &str) -> String {
    let live: Vec<&NamedField> = fields.iter().filter(|f| !f.skip).collect();
    let mut b = String::from("{\np.obj_begin()?;\nlet mut __first = true;\n");
    for f in &live {
        b.push_str(&format!(
            "let mut __f_{} = ::core::option::Option::None;\n",
            f.name
        ));
    }
    b.push_str(
        "while let ::core::option::Option::Some(__key) = p.obj_next_key(&mut __first)? {\n\
         match __key.as_str() {\n",
    );
    for f in &live {
        b.push_str(&format!(
            "{0:?} => {{ __f_{0} = ::core::option::Option::Some(\
             ::serde::Deserialize::deserialize(p)?); }}\n",
            f.name
        ));
    }
    b.push_str("_ => { p.skip_value()?; }\n}\n}\n");
    b.push_str(&format!("{path} {{\n"));
    for f in fields {
        if f.skip {
            b.push_str(&format!(
                "{}: ::core::default::Default::default(),\n",
                f.name
            ));
        } else if f.default {
            b.push_str(&format!("{0}: __f_{0}.unwrap_or_default(),\n", f.name));
        } else {
            b.push_str(&format!(
                "{0}: match __f_{0} {{\n\
                 ::core::option::Option::Some(__v) => __v,\n\
                 ::core::option::Option::None => return ::core::result::Result::Err(\
                 ::serde::de::Error::missing_field({0:?})),\n}},\n",
                f.name
            ));
        }
    }
    b.push_str("}\n}");
    b
}

/// Generates the expression parsing a fixed-length JSON array into a tuple
/// constructor call `path(__v0, ...)`, honouring skipped positions.
fn gen_tuple_body(skips: &[bool], path: &str) -> String {
    let mut b = String::from("{\np.arr_begin()?;\nlet mut __first = true;\n");
    let mut args = Vec::new();
    for (i, &skip) in skips.iter().enumerate() {
        if skip {
            args.push("::core::default::Default::default()".to_string());
            continue;
        }
        b.push_str(&format!(
            "let __v{i} = {{\n\
             if !p.arr_next(&mut __first)? {{\n\
             return ::core::result::Result::Err(::serde::de::Error::custom(\
             \"tuple struct too short\"));\n}}\n\
             ::serde::Deserialize::deserialize(p)?\n}};\n"
        ));
        args.push(format!("__v{i}"));
    }
    b.push_str(
        "if p.arr_next(&mut __first)? {\n\
         return ::core::result::Result::Err(::serde::de::Error::custom(\
         \"tuple struct has trailing elements\"));\n}\n",
    );
    b.push_str(&format!("{path}({})\n}}", args.join(", ")));
    b
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::NamedStruct {
            name,
            transparent,
            fields,
        } => {
            let live: Vec<&NamedField> = fields.iter().filter(|f| !f.skip).collect();
            let body = if *transparent && live.len() == 1 {
                let mut b = format!("::core::result::Result::Ok({name} {{\n");
                for f in fields {
                    if f.skip {
                        b.push_str(&format!(
                            "{}: ::core::default::Default::default(),\n",
                            f.name
                        ));
                    } else {
                        b.push_str(&format!(
                            "{}: ::serde::Deserialize::deserialize(p)?,\n",
                            f.name
                        ));
                    }
                }
                b.push_str("})");
                b
            } else {
                format!(
                    "::core::result::Result::Ok({})",
                    gen_named_body(fields, name)
                )
            };
            (name, body)
        }
        Item::TupleStruct { name, skips } => {
            let live: Vec<usize> = (0..skips.len()).filter(|&i| !skips[i]).collect();
            let body = if live.len() == 1 {
                let args: Vec<String> = skips
                    .iter()
                    .map(|&skip| {
                        if skip {
                            "::core::default::Default::default()".to_string()
                        } else {
                            "::serde::Deserialize::deserialize(p)?".to_string()
                        }
                    })
                    .collect();
                format!("::core::result::Result::Ok({name}({}))", args.join(", "))
            } else {
                format!(
                    "::core::result::Result::Ok({})",
                    gen_tuple_body(skips, name)
                )
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut string_arms = String::new();
            let mut object_arms = String::new();
            for v in variants {
                match &v.kind {
                    VariantKind::Unit => {
                        string_arms.push_str(&format!(
                            "{t:?} => ::core::result::Result::Ok({name}::{v}),\n",
                            v = v.name,
                            t = v.tag
                        ));
                        object_arms.push_str(&format!(
                            "{t:?} => {{ p.parse_null()?; {name}::{v} }}\n",
                            v = v.name,
                            t = v.tag
                        ));
                    }
                    VariantKind::Tuple(1) => object_arms.push_str(&format!(
                        "{v:?} => {name}::{v}(::serde::Deserialize::deserialize(p)?),\n",
                        v = v.name
                    )),
                    VariantKind::Tuple(n) => {
                        let skips = vec![false; *n];
                        object_arms.push_str(&format!(
                            "{v:?} => {},\n",
                            gen_tuple_body(&skips, &format!("{name}::{v}", v = v.name)),
                            v = v.name
                        ));
                    }
                    VariantKind::Named(fields) => {
                        object_arms.push_str(&format!(
                            "{v:?} => {},\n",
                            gen_named_body(fields, &format!("{name}::{v}", v = v.name)),
                            v = v.name
                        ));
                    }
                }
            }
            let body = format!(
                "match p.peek() {{\n\
                 ::core::option::Option::Some(34u8) => {{\n\
                 let __tag = p.parse_string()?;\n\
                 match __tag.as_str() {{\n{string_arms}\
                 __other => ::core::result::Result::Err(\
                 ::serde::de::Error::unknown_variant(__other)),\n}}\n}}\n\
                 _ => {{\n\
                 p.obj_begin()?;\n\
                 let mut __first = true;\n\
                 let __tag = match p.obj_next_key(&mut __first)? {{\n\
                 ::core::option::Option::Some(__k) => __k,\n\
                 ::core::option::Option::None => return ::core::result::Result::Err(\
                 ::serde::de::Error::custom(\"expected enum variant object\")),\n}};\n\
                 let __value = match __tag.as_str() {{\n{object_arms}\
                 __other => return ::core::result::Result::Err(\
                 ::serde::de::Error::unknown_variant(__other)),\n}};\n\
                 p.obj_end()?;\n\
                 ::core::result::Result::Ok(__value)\n}}\n}}"
            );
            (name, body)
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize(p: &mut ::serde::de::Parser<'de>) -> \
         ::core::result::Result<Self, ::serde::de::Error> {{\n{body}\n}}\n}}"
    )
}
