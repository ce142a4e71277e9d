//! An item-level Rust parser on top of [`crate::lexer`]: exactly the
//! structure the workspace rules (D008, D009, D011) need, and nothing
//! more.
//!
//! The parser extracts *items* — functions (with parameter lists and
//! body token ranges), impl blocks (to qualify methods by their type),
//! statics, and macro invocations — from the flat token stream. It is
//! deliberately approximate where Rust's grammar is deep (pattern
//! parameters, const generics in return types) and deliberately exact
//! where the rules depend on it (body brace matching, `impl Trait for
//! Type` naming, static type text).
//!
//! Two hard guarantees, both enforced by `tests/model.rs`:
//!
//! * **Totality** — `parse_file` never panics, on any input. Malformed
//!   or truncated source degrades to fewer items, never to a crash:
//!   the compiler is the arbiter of validity, the linter only needs to
//!   see what *does* parse.
//! * **Determinism** — output depends only on the token stream, so the
//!   [`crate::model::WorkspaceModel`] built on top is byte-stable
//!   across file discovery order.

use crate::lexer::{Lexed, Tok, Token};

/// One parsed file: every item the semantic rules care about.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileAst {
    /// Function items (free fns, methods, nested fns), in source order.
    pub fns: Vec<FnItem>,
    /// `static` items, in source order.
    pub statics: Vec<StaticItem>,
    /// Macro invocations (`name!(…)` / `name!{…}` / `name![…]`).
    pub macro_uses: Vec<MacroUse>,
}

/// A function item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type name, when the fn is a method.
    pub container: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Parameters in order; `self` receivers are *excluded* so the
    /// index of a parameter matches the index of a call argument.
    pub params: Vec<Param>,
    /// Token index range `[start, end)` of the body (inside the
    /// braces); `None` for bodyless signatures (trait methods, externs).
    pub body: Option<(usize, usize)>,
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name; empty for destructuring patterns.
    pub name: String,
    /// Space-joined type token text (e.g. `& mut SimRng`).
    pub ty: String,
}

/// A `static` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticItem {
    /// Static name.
    pub name: String,
    /// 1-based line of the `static` keyword.
    pub line: u32,
    /// 1-based column of the `static` keyword.
    pub col: u32,
    /// Whether declared `static mut`.
    pub is_mut: bool,
    /// Space-joined type token text.
    pub ty: String,
}

/// A macro invocation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroUse {
    /// Macro name (without the `!`).
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Join a token slice into canonical space-separated text. Idents and
/// puncts render as themselves; strings, chars and numbers render as
/// opaque placeholders (the rules only match on type *names*).
pub fn type_text(toks: &[Token]) -> String {
    let mut out = String::new();
    for t in toks {
        if !out.is_empty() {
            out.push(' ');
        }
        match &t.tok {
            Tok::Ident(s) => out.push_str(s),
            Tok::Punct(c) => out.push(*c),
            Tok::Str(_) => out.push_str("\"…\""),
            Tok::Char => out.push_str("'…'"),
            Tok::Lifetime => out.push('\''),
            Tok::Num => out.push('#'),
        }
    }
    out
}

fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Whether the `>` at index `i` is the second half of a `->` arrow
/// (adjacent `-` on the same line), so angle-depth tracking skips it.
fn is_arrow_gt(toks: &[Token], i: usize) -> bool {
    i > 0
        && punct(toks, i) == Some('>')
        && punct(toks, i - 1) == Some('-')
        && toks[i - 1].line == toks[i].line
        && toks[i - 1].col + 1 == toks[i].col
}

/// Index just past the `<…>` group opening at `i` (which must be `<`).
/// Returns `toks.len()` on unbalanced input.
fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match punct(toks, j) {
            Some('<') => depth += 1,
            Some('>') if !is_arrow_gt(toks, j) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            // A semicolon or brace at angle depth means the `<` was a
            // comparison, not generics; bail without consuming.
            Some(';') | Some('{') | Some('}') => return i + 1,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Index of the punct matching the opener at `i` (`(`/`[`/`{`), or
/// `toks.len()` when unbalanced.
fn find_matching(toks: &[Token], i: usize) -> usize {
    let (open, close) = match punct(toks, i) {
        Some('(') => ('(', ')'),
        Some('[') => ('[', ']'),
        Some('{') => ('{', '}'),
        _ => return i,
    };
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match punct(toks, j) {
            Some(c) if c == open => depth += 1,
            Some(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Split `toks` at top-level commas (commas outside all `()`/`[]`/`{}`
/// and `<…>` groups), returning subslice ranges.
fn split_commas(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    for j in 0..toks.len() {
        match punct(toks, j) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some('<') => angle += 1,
            Some('>') if !is_arrow_gt(toks, j) && angle > 0 => angle -= 1,
            Some(',') if depth == 0 && angle == 0 => {
                out.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        out.push((start, toks.len()));
    }
    out
}

/// Skip attribute groups `#[…]` at the start of `toks[from..]`.
fn skip_attrs(toks: &[Token], mut from: usize) -> usize {
    while punct(toks, from) == Some('#') {
        let mut j = from + 1;
        if punct(toks, j) == Some('!') {
            j += 1;
        }
        if punct(toks, j) != Some('[') {
            break;
        }
        from = find_matching(toks, j).saturating_add(1);
    }
    from
}

/// Parse one parameter slice into `(name, type_text)`.
fn parse_param(toks: &[Token]) -> Option<Param> {
    let s = skip_attrs(toks, 0);
    let piece = toks.get(s..)?;
    if piece.is_empty() {
        return None;
    }
    // Find the top-level `:` splitting pattern from type.
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut colon = None;
    for j in 0..piece.len() {
        match punct(piece, j) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some('<') => angle += 1,
            Some('>') if !is_arrow_gt(piece, j) && angle > 0 => angle -= 1,
            Some(':') if depth == 0 && angle == 0 => {
                // `::` is a path separator, not the pattern/type colon.
                if punct(piece, j + 1) == Some(':') || (j > 0 && punct(piece, j - 1) == Some(':')) {
                    continue;
                }
                colon = Some(j);
                break;
            }
            _ => {}
        }
    }
    match colon {
        Some(c) => {
            // Simple binding: optional `mut`, then one ident. Anything
            // with grouping puncts is a destructuring pattern.
            let pattern = &piece[..c];
            let simple = pattern
                .iter()
                .all(|t| matches!(&t.tok, Tok::Ident(_) | Tok::Punct('&') | Tok::Lifetime));
            let name = if simple {
                pattern
                    .iter()
                    .rev()
                    .find_map(|t| match &t.tok {
                        Tok::Ident(s) if s != "mut" => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_default()
            } else {
                String::new()
            };
            Some(Param {
                name,
                ty: type_text(&piece[c + 1..]),
            })
        }
        None => {
            // `self`, `&self`, `&mut self` receivers — excluded from the
            // positional parameter list (see `FnItem::params`).
            if piece
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "self"))
            {
                None
            } else {
                Some(Param {
                    name: String::new(),
                    ty: type_text(piece),
                })
            }
        }
    }
}

/// Parse a lexed file into items. Never panics; unparseable regions
/// contribute no items.
pub fn parse_file(lexed: &Lexed) -> FileAst {
    let toks = &lexed.tokens;
    let mut ast = FileAst::default();
    // Stack of enclosing impl blocks: (type name, brace depth at open).
    let mut impls: Vec<(String, u32)> = Vec::new();
    let mut depth = 0u32;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                while impls.last().is_some_and(|(_, d)| *d > depth) {
                    // The impl block whose body opened at depth+1 just
                    // closed (>= also drops frames orphaned by
                    // unbalanced input).
                    impls.pop();
                }
            }
            Tok::Ident(kw) if kw == "impl" => {
                if let Some((name, at)) = parse_impl_header(toks, i) {
                    // Frame records the depth its `{` will open *to*.
                    impls.push((name, depth + 1));
                    i = at; // position of the `{`; loop handles depth
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some((item, _next)) = parse_fn(toks, i, impls.last().map(|(n, _)| n.clone()))
                {
                    ast.fns.push(item);
                }
                // Continue scanning from inside the header so nested
                // fns and the body's braces are seen by this loop.
            }
            Tok::Ident(kw) if kw == "static" => {
                if let Some(item) = parse_static(toks, i) {
                    ast.statics.push(item);
                }
            }
            Tok::Ident(name)
                if punct(toks, i + 1) == Some('!')
                    && matches!(punct(toks, i + 2), Some('(') | Some('{') | Some('[')) =>
            {
                ast.macro_uses.push(MacroUse {
                    name: name.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                });
            }
            _ => {}
        }
        i += 1;
    }
    ast
}

/// Parse an `impl` header starting at the `impl` keyword; returns the
/// implemented type name and the index of the opening `{`.
fn parse_impl_header(toks: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if punct(toks, j) == Some('<') {
        j = skip_angles(toks, j);
    }
    // Walk to the body `{`, remembering the last type-position ident at
    // angle depth 0 (re-reading after `for` naturally lands on the
    // implemented type in `impl Trait for Type`).
    let mut name: Option<String> = None;
    let mut angle = 0i32;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') => {
                return name.map(|n| (n, j));
            }
            Tok::Punct(';') => return None,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if !is_arrow_gt(toks, j) && angle > 0 => angle -= 1,
            Tok::Ident(s) if s == "for" && angle == 0 => name = None,
            Tok::Ident(s) if s == "where" && angle == 0 => {}
            Tok::Ident(s) if angle == 0 => name = Some(s.clone()),
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parse a `fn` item starting at the `fn` keyword. Returns the item and
/// the index just past the header (the body `{` if any).
fn parse_fn(toks: &[Token], i: usize, container: Option<String>) -> Option<(FnItem, usize)> {
    let name = ident(toks, i + 1)?.to_string();
    let mut j = i + 2;
    if punct(toks, j) == Some('<') {
        j = skip_angles(toks, j);
    }
    if punct(toks, j) != Some('(') {
        return None; // `fn(u32) -> u32` pointer type, not an item
    }
    let close = find_matching(toks, j);
    let params: Vec<Param> = split_commas(toks.get(j + 1..close)?)
        .into_iter()
        .filter_map(|(a, b)| parse_param(&toks[j + 1 + a..j + 1 + b]))
        .collect();
    // Scan past return type / where clause to the body `{` or a `;`.
    let mut k = close + 1;
    let mut angle = 0i32;
    while k < toks.len() {
        match punct(toks, k) {
            Some('{') if angle <= 0 => {
                let end = find_matching(toks, k);
                return Some((
                    FnItem {
                        name,
                        container,
                        line: toks[i].line,
                        col: toks[i].col,
                        params,
                        body: Some((k + 1, end)),
                    },
                    k,
                ));
            }
            Some(';') if angle <= 0 => {
                return Some((
                    FnItem {
                        name,
                        container,
                        line: toks[i].line,
                        col: toks[i].col,
                        params,
                        body: None,
                    },
                    k,
                ));
            }
            Some('<') => angle += 1,
            Some('>') if !is_arrow_gt(toks, k) => angle -= 1,
            Some('(') | Some('[') => k = find_matching(toks, k),
            _ => {}
        }
        k += 1;
    }
    None
}

/// Parse a `static` item starting at the `static` keyword.
fn parse_static(toks: &[Token], i: usize) -> Option<StaticItem> {
    let mut j = i + 1;
    let is_mut = ident(toks, j) == Some("mut");
    if is_mut {
        j += 1;
    }
    let name = ident(toks, j)?.to_string();
    if punct(toks, j + 1) != Some(':') {
        return None; // `static` in another position (e.g. macro body)
    }
    // Type runs to the `=` (or terminating `;`) at bracket depth 0.
    let mut k = j + 2;
    let mut depth = 0i32;
    while k < toks.len() {
        match punct(toks, k) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some('=') | Some(';') if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    Some(StaticItem {
        name,
        line: toks[i].line,
        col: toks[i].col,
        is_mut,
        ty: type_text(toks.get(j + 2..k)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileAst {
        parse_file(&lex(src))
    }

    #[test]
    fn free_fn_with_params_and_body() {
        let ast = parse("pub fn route(rng: &mut SimRng, n: u64) -> u64 { n }");
        assert_eq!(ast.fns.len(), 1);
        let f = &ast.fns[0];
        assert_eq!(f.name, "route");
        assert_eq!(f.container, None);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "rng");
        assert_eq!(f.params[0].ty, "& mut SimRng");
        assert!(f.body.is_some());
    }

    #[test]
    fn methods_are_qualified_by_impl_type() {
        let ast = parse(
            "impl AzPlatform { fn acquire(&mut self, id: u32) {} }\n\
             impl std::fmt::Display for AzId { fn fmt(&self) {} }\n\
             fn free() {}",
        );
        let names: Vec<(Option<&str>, &str)> = ast
            .fns
            .iter()
            .map(|f| (f.container.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                (Some("AzPlatform"), "acquire"),
                (Some("AzId"), "fmt"),
                (None, "free"),
            ]
        );
        // `self` receivers are excluded from positional params.
        assert_eq!(ast.fns[0].params.len(), 1);
        assert_eq!(ast.fns[0].params[0].name, "id");
    }

    #[test]
    fn generic_impl_and_fn_headers_parse() {
        let ast = parse("impl<'a, T: Ord> Wheel<T> { fn push<Q>(&mut self, q: Q) where Q: Into<T> { let _ = q; } }");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].container.as_deref(), Some("Wheel"));
        assert_eq!(ast.fns[0].params[0].name, "q");
    }

    #[test]
    fn nested_fns_are_both_items() {
        let ast = parse("fn outer() { fn inner(x: u8) {} inner(1); }");
        let names: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        // inner's body range nests inside outer's.
        let (os, oe) = ast.fns[0].body.unwrap();
        let (is_, ie) = ast.fns[1].body.unwrap();
        assert!(os < is_ && ie <= oe);
    }

    #[test]
    fn statics_and_mutability() {
        let ast = parse(
            "static NAMES: [&str; 2] = [\"a\", \"b\"];\n\
             static mut TICKS: u64 = 0;\n\
             static CACHE: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();",
        );
        assert_eq!(ast.statics.len(), 3);
        assert!(!ast.statics[0].is_mut);
        assert!(ast.statics[1].is_mut);
        assert_eq!(ast.statics[1].name, "TICKS");
        assert!(ast.statics[2].ty.contains("Mutex"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let ast = parse("struct S { f: fn(u32) -> u32 } fn real() {}");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "real");
    }

    #[test]
    fn macro_uses_are_recorded() {
        let ast = parse("fn f() { lazy_static! { static ref X: u8 = 1; } println!(\"x\"); }");
        let names: Vec<&str> = ast.macro_uses.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"lazy_static"));
        assert!(names.contains(&"println"));
    }

    #[test]
    fn truncated_source_never_panics() {
        let src = "impl Foo { fn bar(x: &mut SimRng) -> u64 { x.next_u64() } }";
        for cut in 0..=src.len() {
            if src.is_char_boundary(cut) {
                let _ = parse(&src[..cut]);
            }
        }
    }

    #[test]
    fn comparison_lt_does_not_eat_the_file() {
        // `a < b` inside a body must not be mistaken for generics.
        let ast = parse("fn a(x: u64) -> bool { x < 3 }\nfn b() {}");
        assert_eq!(ast.fns.len(), 2);
    }
}
