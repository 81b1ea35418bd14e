//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` against the sibling `serde` shim's
//! value-tree data model, parsing the item's token stream by hand (no
//! `syn`/`quote` — those can't be fetched in this offline environment).
//! Supported shapes cover everything the workspace derives on:
//!
//! * structs with named fields,
//! * newtype structs (serialized transparently as the inner value),
//! * enums with unit variants (as strings), struct variants and newtype
//!   variants (as single-key objects) — serde's externally-tagged default.
//!
//! Generic items are rejected with a compile error; the workspace has none.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Unit,
    /// Named fields, by name.
    Named(Vec<String>),
    /// Tuple fields (only the count matters).
    Tuple(usize),
}

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

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Consumes attributes (doc comments included) at the cursor.
fn skip_attributes(tokens: &[TokenTree], pos: &mut usize) {
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*pos), tokens.get(*pos + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        *pos += 2;
    }
}

/// Consumes `pub`, `pub(crate)`, `pub(in ...)` at the cursor.
fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if let Some(TokenTree::Ident(i)) = tokens.get(*pos) {
        if i.to_string() == "pub" {
            *pos += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *pos += 1;
                }
            }
        }
    }
}

/// Parses the fields of a braced group: `a: T, pub b: U<V, W>, ...`.
fn parse_named_fields(group: &proc_macro::Group) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        skip_attributes(&tokens, &mut pos);
        skip_visibility(&tokens, &mut pos);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => return Err(format!("expected field name, found `{other}`")),
            None => break,
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            _ => return Err(format!("expected `:` after field `{name}`")),
        }
        // Consume the type: everything until a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        while pos < tokens.len() {
            match &tokens[pos] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    pos += 1;
                    break;
                }
                _ => {}
            }
            pos += 1;
        }
        fields.push(name);
    }
    Ok(fields)
}

/// Counts top-level fields of a tuple group `(A, B<C, D>)`.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let mut count = 0;
    let mut angle_depth = 0i32;
    let mut saw_token = false;
    for t in group.stream() {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_token = false;
                continue;
            }
            _ => {}
        }
        saw_token = true;
    }
    if saw_token {
        count += 1;
    }
    count
}

fn parse_variants(group: &proc_macro::Group) -> Result<Vec<(String, Fields)>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        skip_attributes(&tokens, &mut pos);
        let name = match tokens.get(pos) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            Some(other) => return Err(format!("expected variant name, found `{other}`")),
            None => break,
        };
        pos += 1;
        let fields = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                Fields::Named(parse_named_fields(g)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                Fields::Tuple(count_tuple_fields(g))
            }
            _ => Fields::Unit,
        };
        // Skip a possible discriminant `= expr` and the trailing comma.
        while pos < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[pos] {
                if p.as_char() == ',' {
                    pos += 1;
                    break;
                }
            }
            pos += 1;
        }
        variants.push((name, fields));
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    skip_attributes(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);
    let kind = match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    pos += 1;
    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected item name".into()),
    };
    pos += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
        if p.as_char() == '<' {
            return Err(format!("serde shim: generic item `{name}` is unsupported"));
        }
    }
    match kind.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Struct {
                name,
                fields: Fields::Named(parse_named_fields(g)?),
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item::Struct {
                    name,
                    fields: Fields::Tuple(count_tuple_fields(g)),
                })
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item::Struct {
                name,
                fields: Fields::Unit,
            }),
            _ => Err(format!("unsupported struct body for `{name}`")),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                name,
                variants: parse_variants(g)?,
            }),
            _ => Err(format!("expected enum body for `{name}`")),
        },
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "::serde::Value::Null".to_string(),
                Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", items.join(", "))
                }
                Fields::Named(fs) => {
                    let mut s = String::from("{ let mut __m = ::serde::Map::new();\n");
                    for n in fs {
                        s.push_str(&format!(
                            "__m.insert(::std::string::String::from({n:?}), \
                             ::serde::Serialize::to_value(&self.{n}));\n"
                        ));
                    }
                    s.push_str("::serde::Value::Object(__m) }");
                    s
                }
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{ {body} }}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (vname, fields) in variants {
                match fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Value::Str(\
                         ::std::string::String::from({vname:?})),\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__x) => {{ let mut __m = ::serde::Map::new();\n\
                         __m.insert(::std::string::String::from({vname:?}), \
                         ::serde::Serialize::to_value(__x));\n\
                         ::serde::Value::Object(__m) }},\n"
                    )),
                    Fields::Tuple(_) => arms.push_str(&format!(
                        "{name}::{vname}(..) => panic!(\
                         \"serde shim: multi-field tuple variants unsupported\"),\n"
                    )),
                    Fields::Named(fs) => {
                        let mut inner = String::new();
                        for n in fs {
                            inner.push_str(&format!(
                                "__inner.insert(::std::string::String::from({n:?}), \
                                 ::serde::Serialize::to_value({n}));\n"
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {binds} }} => {{\n\
                             let mut __inner = ::serde::Map::new();\n{inner}\
                             let mut __m = ::serde::Map::new();\n\
                             __m.insert(::std::string::String::from({vname:?}), \
                             ::serde::Value::Object(__inner));\n\
                             ::serde::Value::Object(__m) }},\n",
                            binds = fs.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{ match self {{ {arms} }} }}\n}}\n"
            )
        }
    }
}

/// Derives the shim's `Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().unwrap(),
        Err(e) => compile_error(&e),
    }
}
