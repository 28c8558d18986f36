//! Lightweight item/expression model over the token stream.
//!
//! One pass over a file's tokens recovers the structure the
//! expression-aware lints need: fn body spans, `impl` blocks (type
//! name, optional trait, span), `const` items, and attribute spans (so
//! expression scans never mistake `#[derive(..)]` brackets for
//! indexing).
//!
//! This is deliberately not a full Rust parser: it tracks brace/angle
//! nesting and item-introducer keywords, which is exactly enough to
//! answer "which impl/fn contains token *i*" on the subset of Rust this
//! workspace writes (no macro_rules definitions, no exotic item
//! positions).

use crate::tokens::{TokKind, Token};

/// One `impl` block.
pub(crate) struct ImplBlock {
    /// Last path segment of the self type (`Decoder`, `ScenarioBuilder`).
    pub type_name: String,
    /// Last path segment of the trait, for trait impls (`Drop`, `Clone`).
    pub trait_name: Option<String>,
    /// Token-index span of the `{ .. }`, inclusive.
    pub span: (usize, usize),
}

/// One `const NAME: ty = value;` item.
pub(crate) struct ConstItem {
    pub name: String,
    pub line: usize,
    /// Joined token texts of the initializer expression.
    pub value: String,
}

/// Everything the parser recovered from one file.
pub(crate) struct ParsedFile {
    pub tokens: Vec<Token>,
    /// Token-index spans (inclusive) of fn bodies `{ .. }`.
    fn_bodies: Vec<(usize, usize)>,
    pub impls: Vec<ImplBlock>,
    pub consts: Vec<ConstItem>,
    /// Token-index spans (inclusive) of `#[..]` / `#![..]` attributes.
    attr_spans: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Whether token `i` sits inside an attribute.
    pub fn in_attr(&self, i: usize) -> bool {
        // Spans are few and sorted; a linear probe keeps this simple.
        self.attr_spans.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// The innermost impl block whose span contains token `i`.
    pub fn enclosing_impl(&self, i: usize) -> Option<&ImplBlock> {
        self.impls
            .iter()
            .filter(|im| im.span.0 <= i && i <= im.span.1)
            .min_by_key(|im| im.span.1 - im.span.0)
    }

    /// The body span of the innermost fn containing token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<(usize, usize)> {
        self.fn_bodies
            .iter()
            .copied()
            .filter(|&(a, b)| a <= i && i <= b)
            .min_by_key(|&(a, b)| b - a)
    }
}

/// What an open `{` belonged to, so the matching `}` can patch its span.
enum Open {
    Fn(usize),
    Impl(usize),
    Other,
}

pub(crate) fn parse(tokens: Vec<Token>) -> ParsedFile {
    let mut fn_bodies: Vec<(usize, usize)> = Vec::new();
    let mut impls: Vec<ImplBlock> = Vec::new();
    let mut consts: Vec<ConstItem> = Vec::new();
    let mut attr_spans: Vec<(usize, usize)> = Vec::new();

    let mut stack: Vec<Open> = Vec::new();

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "#") => {
                // `#[..]` or `#![..]`: record the span.
                let start = i;
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.is("!")) {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is("[")) {
                    let mut bd = 0usize;
                    while j < tokens.len() {
                        match tokens[j].text.as_str() {
                            "[" => bd += 1,
                            "]" => {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    attr_spans.push((start, j.min(tokens.len().saturating_sub(1))));
                    i = j + 1;
                } else {
                    i += 1;
                }
            }
            (TokKind::Ident, "fn") => {
                // `fn(..)` without a name is a fn-pointer type, not an item.
                if !tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                    i += 1;
                    continue;
                }
                let mut j = skip_generics(&tokens, i + 2);
                j = skip_group(&tokens, j, "(", ")");
                // Scan past the return type and any where clause to the
                // body `{`, or the `;` of a trait-required signature.
                while j < tokens.len() && !tokens[j].is("{") && !tokens[j].is(";") {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is("{")) {
                    fn_bodies.push((j, j)); // end patched on close
                    stack.push(Open::Fn(fn_bodies.len() - 1));
                }
                i = j + 1;
            }
            (TokKind::Ident, "impl") => {
                let mut j = skip_generics(&tokens, i + 1);
                // Path(s) up to `{`: the self type is the segment after
                // `for` when present, otherwise the first path.
                let mut ty: Vec<&Token> = Vec::new();
                while j < tokens.len() {
                    let tt = &tokens[j];
                    if tt.is("{") || tt.is("where") {
                        break;
                    }
                    if tt.is("for") {
                        ty.clear(); // what came before was the trait
                        j += 1;
                        continue;
                    }
                    if tt.is("<") {
                        j = skip_generics(&tokens, j);
                        continue;
                    }
                    ty.push(tt);
                    j += 1;
                }
                let trait_name = trait_of(&tokens, i + 1, j);
                while j < tokens.len() && !tokens[j].is("{") {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.is("{")) {
                    impls.push(ImplBlock {
                        type_name: last_path_segment(&ty),
                        trait_name,
                        span: (j, j), // end patched on close
                    });
                    stack.push(Open::Impl(impls.len() - 1));
                    i = j + 1;
                } else {
                    i = j;
                }
            }
            (TokKind::Ident, "const") => {
                // `const NAME: ty = value;` — but not `const fn`, not the
                // anonymous `const { .. }` block.
                let is_item = tokens
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident && !n.is("fn"))
                    && tokens.get(i + 2).is_some_and(|t| t.is(":"));
                if is_item {
                    let name = &tokens[i + 1];
                    let mut j = i + 3;
                    while j < tokens.len() && !tokens[j].is("=") && !tokens[j].is(";") {
                        j += 1;
                    }
                    let mut value = Vec::new();
                    if tokens.get(j).is_some_and(|t| t.is("=")) {
                        j += 1;
                        while j < tokens.len() && !tokens[j].is(";") {
                            value.push(tokens[j].text.clone());
                            j += 1;
                        }
                    }
                    consts.push(ConstItem {
                        name: name.text.clone(),
                        line: name.line,
                        value: value.join(" "),
                    });
                    i = j;
                } else {
                    i += 1;
                }
            }
            (TokKind::Punct, "{") => {
                stack.push(Open::Other);
                i += 1;
            }
            (TokKind::Punct, "}") => {
                match stack.pop() {
                    Some(Open::Fn(k)) => fn_bodies[k].1 = i,
                    Some(Open::Impl(k)) => impls[k].span.1 = i,
                    _ => {}
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }

    ParsedFile {
        tokens,
        fn_bodies,
        impls,
        consts,
        attr_spans,
    }
}

/// The trait name of `impl .. for ..`, if a `for` appears before `end`.
fn trait_of(tokens: &[Token], from: usize, end: usize) -> Option<String> {
    let mut path: Vec<&Token> = Vec::new();
    let mut j = from;
    while j < end.min(tokens.len()) {
        let tt = &tokens[j];
        if tt.is("for") {
            return Some(last_path_segment(&path));
        }
        if tt.is("<") {
            j = skip_generics(tokens, j);
            continue;
        }
        path.push(tt);
        j += 1;
    }
    None
}

/// Skips a balanced `<..>` generics group starting at `i` (no-op when the
/// token there is not `<`). `->` is a single token, so it never unbalances
/// the angle count.
fn skip_generics(tokens: &[Token], mut i: usize) -> usize {
    if !tokens.get(i).is_some_and(|t| t.is("<")) {
        return i;
    }
    let mut d = 0usize;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "<" => d += 1,
            ">" => {
                d -= 1;
                if d == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skips a balanced group opened by `open` at `i` (no-op otherwise).
fn skip_group(tokens: &[Token], mut i: usize, open: &str, close: &str) -> usize {
    if !tokens.get(i).is_some_and(|t| t.is(open)) {
        return i;
    }
    let mut d = 0usize;
    while i < tokens.len() {
        if tokens[i].is(open) {
            d += 1;
        } else if tokens[i].is(close) {
            d -= 1;
            if d == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Last identifier of the leading path in a type token list, skipping
/// references, lifetimes, and `dyn`/`mut`: `&mut fmt::Display` →
/// `Display`, `ScenarioBuilder` → `ScenarioBuilder`.
fn last_path_segment(ty: &[&Token]) -> String {
    let mut last = String::new();
    for t in ty {
        match t.kind {
            TokKind::Ident if !matches!(t.text.as_str(), "dyn" | "mut") => {
                last = t.text.clone();
            }
            TokKind::Punct if t.is("&") || t.is("::") => continue,
            TokKind::Lifetime => continue,
            _ => break,
        }
    }
    last
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::lexer::lex;
    use crate::tokens::tokenize;

    fn parsed(src: &str) -> ParsedFile {
        parse(tokenize(&lex(src)))
    }

    #[test]
    fn fn_body_span_covers_the_braces() {
        let p = parsed("pub fn topology(mut self, spec: TopologySpec) -> Self {\n    self\n}\n");
        let open = p.tokens.iter().position(|t| t.is("{")).expect("body open");
        let close = p.tokens.iter().position(|t| t.is("}")).expect("body close");
        assert_eq!(p.fn_bodies, [(open, close)]);
    }

    #[test]
    fn trait_required_signature_has_no_body() {
        let p = parsed("trait T {\n    fn f(&self) -> u8;\n}\n");
        assert!(p.fn_bodies.is_empty());
    }

    #[test]
    fn impl_blocks_carry_type_and_trait() {
        let p = parsed(
            "impl<'a> Decoder<'a> {\n    fn a(&self) {}\n}\nimpl Drop for Decoder<'_> {\n    fn drop(&mut self) {}\n}\n",
        );
        assert_eq!(p.impls.len(), 2);
        assert_eq!(p.impls[0].type_name, "Decoder");
        assert_eq!(p.impls[0].trait_name, None);
        assert_eq!(p.impls[1].type_name, "Decoder");
        assert_eq!(p.impls[1].trait_name.as_deref(), Some("Drop"));
    }

    #[test]
    fn const_items_capture_value_tokens() {
        let p = parsed("pub const CHANNEL_STREAM: u64 = 0xC4A2_2E1C_51A7_0DE1;\n");
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.consts[0].name, "CHANNEL_STREAM");
        assert_eq!(p.consts[0].value, "0xC4A2_2E1C_51A7_0DE1");
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let p = parsed("pub const fn k(&self) -> usize { self.k }\n");
        assert!(p.consts.is_empty());
        assert_eq!(p.fn_bodies.len(), 1);
    }

    #[test]
    fn attr_spans_cover_brackets() {
        let p = parsed("#[derive(Clone, Debug)]\nstruct X {\n    v: Vec<u8>,\n}\n");
        // The `[` of the derive attribute is inside an attr span.
        let bracket = p
            .tokens
            .iter()
            .position(|t| t.is("["))
            .expect("derive bracket");
        assert!(p.in_attr(bracket));
    }

    #[test]
    fn enclosing_fn_and_impl_resolve() {
        let p = parsed(
            "impl Foo {\n    fn a(&self) {\n        let x = 1;\n    }\n}\nfn free() {\n    let y = 2;\n}\n",
        );
        let body = |name: &str| {
            let f = p.tokens.iter().position(|t| t.is(name)).expect("fn name");
            p.fn_bodies.iter().copied().find(|&(a, _)| a > f)
        };
        let x = p.tokens.iter().position(|t| t.is("x")).expect("x token");
        assert_eq!(p.enclosing_fn(x), body("a"));
        assert_eq!(
            p.enclosing_impl(x).map(|im| im.type_name.as_str()),
            Some("Foo")
        );
        let y = p.tokens.iter().position(|t| t.is("y")).expect("y token");
        assert_eq!(p.enclosing_fn(y), body("free"));
        assert!(p.enclosing_impl(y).is_none());
    }

    #[test]
    fn where_clause_does_not_hide_the_body() {
        let p = parsed("pub fn protocols<I, S>(mut self, names: I) -> Self\nwhere\n    I: IntoIterator<Item = S>,\n{\n    self\n}\n");
        assert_eq!(p.fn_bodies.len(), 1);
    }
}
