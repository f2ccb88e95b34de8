//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! workspace-local serde shim.
//!
//! crates.io is unreachable in this build environment, so there is no
//! `syn`/`quote`; the derive input is parsed directly from the
//! [`proc_macro::TokenStream`]. Supported shapes (everything the
//! workspace derives on):
//!
//! * structs with named fields, tuple structs (newtype structs serialize
//!   transparently), unit structs;
//! * enums with unit, tuple, and struct variants (externally tagged).
//!
//! Generic types are not supported — none of the workspace's serialized
//! types are generic.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Shape of one parsed field list.
enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

/// A parsed `struct` or `enum` item.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive generated invalid Serialize impl")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive generated invalid Deserialize impl")
}

/// Parses the derive input into an [`Item`], panicking (derive macros may)
/// on unsupported shapes.
fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    // Skip outer attributes and visibility.
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected item name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            panic!("serde_derive: generic types are not supported (deriving on `{name}`)");
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde_derive: malformed struct `{name}`: {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde_derive: malformed enum `{name}`: {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("serde_derive: cannot derive on `{other}`"),
    }
}

/// Extracts field names from the token stream inside a struct's braces.
///
/// Types may contain commas inside angle brackets (`HashMap<K, V>`);
/// those are skipped by tracking `<`/`>` depth. Commas inside
/// parenthesized/bracketed groups are invisible here because groups are
/// single token trees.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Skip attributes (including doc comments) and visibility.
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    tokens.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    tokens.next();
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(tt) = tokens.next() else { break };
        let TokenTree::Ident(field) = tt else {
            panic!("serde_derive: expected field name, got {tt:?}");
        };
        fields.push(field.to_string());
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive: expected `:` after field, got {other:?}"),
        }
        // Consume the type up to a comma at angle depth 0.
        let mut angle_depth = 0i32;
        for tt in tokens.by_ref() {
            match &tt {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

/// Counts the fields of a tuple struct/variant from the token stream
/// inside its parentheses.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_tokens = false;
    let mut angle_depth = 0i32;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_tokens = false;
                continue;
            }
            _ => {}
        }
        saw_tokens = true;
    }
    if saw_tokens {
        count += 1; // no trailing comma
    }
    count
}

/// Parses enum variants from the token stream inside the enum's braces.
fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Skip attributes.
        while let Some(TokenTree::Punct(p)) = tokens.peek() {
            if p.as_char() != '#' {
                break;
            }
            tokens.next();
            tokens.next();
        }
        let Some(tt) = tokens.next() else { break };
        let TokenTree::Ident(variant) = tt else {
            panic!("serde_derive: expected variant name, got {tt:?}");
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = Fields::Named(parse_named_fields(g.stream()));
                tokens.next();
                f
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let f = Fields::Tuple(count_tuple_fields(g.stream()));
                tokens.next();
                f
            }
            _ => Fields::Unit,
        };
        variants.push((variant.to_string(), fields));
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("serde_derive: expected `,` after variant, got {other:?}"),
        }
    }
    variants
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => {
                    let pairs: Vec<String> = fs
                        .iter()
                        .map(|f| {
                            format!(
                                "(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"
                            )
                        })
                        .collect();
                    format!("::serde::Value::Object(vec![{}])", pairs.join(", "))
                }
                Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", items.join(", "))
                }
                Fields::Unit => "::serde::Value::Null".to_string(),
            };
            let write = match fields {
                Fields::Named(fs) => {
                    gen_write("{", fs.iter().map(|f| (key(f), format!("&self.{f}"))), "}")
                }
                Fields::Tuple(1) => gen_write("", [(String::new(), "&self.0".to_string())], ""),
                Fields::Tuple(n) => gen_write(
                    "[",
                    (0..*n).map(|i| (String::new(), format!("&self.{i}"))),
                    "]",
                ),
                Fields::Unit => gen_write("null", [], ""),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                     fn write_compact(&self, __out: &mut ::std::string::String) {{ {write} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    Fields::Unit => format!(
                        "{name}::{v} => ::serde::Value::Str(\"{v}\".to_string()),"
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", items.join(", "))
                        };
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Object(vec![(\"{v}\".to_string(), {inner})]),",
                            binds.join(", ")
                        )
                    }
                    Fields::Named(fs) => {
                        let pairs: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{f}\".to_string(), ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {} }} => ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Value::Object(vec![{}]))]),",
                            fs.join(", "),
                            pairs.join(", ")
                        )
                    }
                })
                .collect();
            let write_arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    Fields::Unit => {
                        format!(
                            "{name}::{v} => {{ {} }}",
                            gen_write(&format!("\"{v}\""), [], "")
                        )
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let (open, close) = if *n == 1 { ("", "}") } else { ("[", "]}") };
                        format!(
                            "{name}::{v}({}) => {{ {} }}",
                            binds.join(", "),
                            gen_write(
                                &format!("{{{}{open}", key(v)),
                                binds.iter().map(|b| (String::new(), b.clone())),
                                close,
                            )
                        )
                    }
                    Fields::Named(fs) => format!(
                        "{name}::{v} {{ {} }} => {{ {} }}",
                        fs.join(", "),
                        gen_write(
                            &format!("{{{}{{", key(v)),
                            fs.iter().map(|f| (key(f), f.clone())),
                            "}}",
                        )
                    ),
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                     fn write_compact(&self, __out: &mut ::std::string::String) {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n"),
                write_arms.join("\n")
            )
        }
    }
}

/// `"name":` — an object key as it appears in compact JSON.
fn key(name: &str) -> String {
    format!("\"{name}\":")
}

/// Statements appending to `__out` the compact JSON of a field list:
/// `open`, then each `(key, expr)` as the key (empty inside arrays and
/// newtypes) followed by `expr`'s own `write_compact`, comma-separated, then
/// `close` — the bytes `to_value` rendered compactly would have, with the
/// punctuation and keys folded into string literals at compile time.
fn gen_write(
    open: &str,
    fields: impl IntoIterator<Item = (String, String)>,
    close: &str,
) -> String {
    let mut code = String::new();
    let mut lit = open.to_string();
    for (i, (key, expr)) in fields.into_iter().enumerate() {
        if i > 0 {
            lit.push(',');
        }
        lit.push_str(&key);
        if !lit.is_empty() {
            code.push_str(&format!("__out.push_str({lit:?});\n"));
            lit.clear();
        }
        code.push_str(&format!(
            "::serde::Serialize::write_compact({expr}, __out);\n"
        ));
    }
    lit.push_str(close);
    if !lit.is_empty() {
        code.push_str(&format!("__out.push_str({lit:?});\n"));
    }
    code
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => {
                    let inits: Vec<String> = fs
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::from_value(::serde::field(obj, \"{f}\")?)?"
                            )
                        })
                        .collect();
                    format!(
                        "let obj = v.as_object().ok_or_else(|| ::serde::Error::custom(\
                             \"expected object for {name}\"))?;\n\
                         Ok({name} {{ {} }})",
                        inits.join(", ")
                    )
                }
                Fields::Tuple(1) => {
                    format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
                }
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Deserialize::from_value(&a[{i}])?"))
                        .collect();
                    format!(
                        "let a = v.as_array().ok_or_else(|| ::serde::Error::custom(\
                             \"expected array for {name}\"))?;\n\
                         if a.len() != {n} {{\n\
                             return Err(::serde::Error::custom(\"wrong arity for {name}\"));\n\
                         }}\n\
                         Ok({name}({}))",
                        items.join(", ")
                    )
                }
                Fields::Unit => format!("let _ = v; Ok({name})"),
            };
            let read = gen_read(name, fields);
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         {body}\n\
                     }}\n\
                     fn read_compact(__r: &mut ::serde::json::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         Ok({read})\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| matches!(f, Fields::Unit))
                .map(|(v, _)| format!("\"{v}\" => return Ok({name}::{v}),"))
                .collect();
            let tagged_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, fields)| match fields {
                    Fields::Unit => None,
                    Fields::Tuple(1) => Some(format!(
                        "\"{v}\" => return Ok({name}::{v}(::serde::Deserialize::from_value(inner)?)),"
                    )),
                    Fields::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&a[{i}])?"))
                            .collect();
                        Some(format!(
                            "\"{v}\" => {{\n\
                                 let a = inner.as_array().ok_or_else(|| ::serde::Error::custom(\
                                     \"expected array for {name}::{v}\"))?;\n\
                                 if a.len() != {n} {{\n\
                                     return Err(::serde::Error::custom(\"wrong arity for {name}::{v}\"));\n\
                                 }}\n\
                                 return Ok({name}::{v}({}));\n\
                             }}",
                            items.join(", ")
                        ))
                    }
                    Fields::Named(fs) => {
                        let inits: Vec<String> = fs
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(::serde::field(obj, \"{f}\")?)?"
                                )
                            })
                            .collect();
                        Some(format!(
                            "\"{v}\" => {{\n\
                                 let obj = inner.as_object().ok_or_else(|| ::serde::Error::custom(\
                                     \"expected object for {name}::{v}\"))?;\n\
                                 return Ok({name}::{v} {{ {} }});\n\
                             }}",
                            inits.join(", ")
                        ))
                    }
                })
                .collect();
            // The same two shapes read off the text: a bare string names
            // a unit variant; an object must hold exactly one key, a
            // data-carrying variant's, then that variant's payload.
            let invalid = format!(
                "::std::result::Result::Err(::serde::Error::custom(\"invalid value for enum {name}\"))"
            );
            // An arm of the `match` on the first byte is left out when
            // the enum has no variant of its kind: nothing could match.
            let read_unit = if unit_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "Some(b'\"') => {{\n\
                         match &*__r.str()? {{\n{}\n_ => {{}}\n}}\n\
                         {invalid}\n\
                     }}\n",
                    unit_arms.join("\n")
                )
            };
            let read_tagged_arms: Vec<String> = variants
                .iter()
                .filter(|(_, fields)| !matches!(fields, Fields::Unit))
                .map(|(v, fields)| {
                    format!("\"{v}\" => {},", gen_read(&format!("{name}::{v}"), fields))
                })
                .collect();
            let read_tagged = if read_tagged_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "Some(b'{{') => {{\n\
                         __r.begin_object()?;\n\
                         let ::std::option::Option::Some(__tag) = __r.next_key(true)? else {{\n\
                             return {invalid};\n\
                         }};\n\
                         let __value = match &*__tag {{\n{}\n_ => return {invalid},\n}};\n\
                         if __r.next_key(false)?.is_some() {{\n\
                             return {invalid};\n\
                         }}\n\
                         Ok(__value)\n\
                     }}\n",
                    read_tagged_arms.join("\n")
                )
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         if let Some(s) = v.as_str() {{\n\
                             match s {{\n{unit}\n_ => {{}}\n}}\n\
                         }}\n\
                         if let Some(obj) = v.as_object() {{\n\
                             if obj.len() == 1 {{\n\
                                 let (tag, inner) = &obj[0];\n\
                                 let _ = inner;\n\
                                 match tag.as_str() {{\n{tagged}\n_ => {{}}\n}}\n\
                             }}\n\
                         }}\n\
                         Err(::serde::Error::custom(\"invalid value for enum {name}\"))\n\
                     }}\n\
                     fn read_compact(__r: &mut ::serde::json::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         match __r.peek() {{\n\
                             {read_unit}\
                             {read_tagged}\
                             _ => {invalid},\n\
                         }}\n\
                     }}\n\
                 }}",
                unit = unit_arms.join("\n"),
                tagged = tagged_arms.join("\n"),
            )
        }
    }
}

/// An expression (inside a `read_compact` body, reader `__r`) that reads
/// the payload `fields` off the text and builds `ctor` — a struct's name
/// or an `Enum::Variant` path — from it. It accepts and rejects exactly
/// what the `from_value` code for the same fields does with the parsed
/// tree: fields in any order, unknown keys checked but not kept, the
/// first of a repeated key wins and later ones go unread, every field
/// required; tuples need their exact length; a unit accepts any value.
fn gen_read(ctor: &str, fields: &Fields) -> String {
    match fields {
        Fields::Named(fs) => {
            let slots: String = (0..fs.len())
                .map(|i| format!("let mut __f{i} = ::std::option::Option::None;\n"))
                .collect();
            let arms: String = fs
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!(
                        "\"{f}\" if __f{i}.is_none() => \
                             __f{i} = ::std::option::Option::Some(::serde::Deserialize::read_compact(__r)?),\n"
                    )
                })
                .collect();
            let inits: Vec<String> = fs
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!(
                        "{f}: match __f{i} {{\n\
                             ::std::option::Option::Some(__v) => __v,\n\
                             ::std::option::Option::None => return ::std::result::Result::Err(\
                                 ::serde::Error::custom(\"missing field `{f}`\")),\n\
                         }}"
                    )
                })
                .collect();
            format!(
                "{{\n\
                     {slots}\
                     __r.begin_object()?;\n\
                     let mut __first = true;\n\
                     while let ::std::option::Option::Some(__key) = __r.next_key(__first)? {{\n\
                         __first = false;\n\
                         match &*__key {{\n{arms}_ => __r.skip_value()?,\n}}\n\
                     }}\n\
                     {ctor} {{ {} }}\n\
                 }}",
                inits.join(", ")
            )
        }
        Fields::Tuple(1) => format!("{ctor}(::serde::Deserialize::read_compact(__r)?)"),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| {
                    format!(
                        "{{ __r.expect_element({})?; ::serde::Deserialize::read_compact(__r)? }}",
                        i == 0
                    )
                })
                .collect();
            format!(
                "{{\n\
                     __r.begin_array()?;\n\
                     let __value = {ctor}({});\n\
                     __r.expect_end({})?;\n\
                     __value\n\
                 }}",
                items.join(", "),
                *n == 0
            )
        }
        Fields::Unit => format!("{{ __r.skip_value()?; {ctor} }}"),
    }
}
