//! `// sky-lint:` pragma parsing and suppression bookkeeping.
//!
//! Grammar (one directive per comment):
//!
//! ```text
//! // sky-lint: allow(D001, <non-empty reason>)        line scope
//! // sky-lint: allow-file(D001, <non-empty reason>)   whole-file scope
//! ```
//!
//! A line-scoped pragma suppresses findings of its rule on its own line
//! and — when the comment stands alone on its line — on the next line,
//! so annotations can sit above the code they justify. The reason is
//! mandatory: an allow that does not say *why* the site is safe is
//! itself a finding ([`PragmaError::MissingReason`] → rule `P001`), and
//! an allow that suppresses nothing is dead weight (`P002`), so the
//! annotation layer can never silently rot.
//!
//! Pragmas are only recognised in plain `//` comments; doc comments
//! (`///`, `//!`) may *mention* the syntax without activating it.

use crate::lexer::LineComment;
use crate::rules::RULE_IDS;

/// A parsed, well-formed allow pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// The rule this pragma suppresses (e.g. `"D001"`).
    pub rule: String,
    /// Mandatory human justification.
    pub reason: String,
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// Whether the pragma covers the whole file (`allow-file`).
    pub file_scope: bool,
    /// Whether the comment stands alone on its line (covers line+1).
    pub standalone: bool,
    /// Set when the pragma suppressed at least one finding.
    pub used: bool,
}

/// A malformed pragma (always a `P001` finding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PragmaError {
    /// Not `allow(...)` / `allow-file(...)`.
    BadDirective {
        /// 1-based line.
        line: u32,
        /// The offending directive text.
        directive: String,
    },
    /// Rule id is not one of [`RULE_IDS`].
    UnknownRule {
        /// 1-based line.
        line: u32,
        /// The offending rule id.
        rule: String,
    },
    /// `allow(D00x)` with no (or an empty) reason.
    MissingReason {
        /// 1-based line.
        line: u32,
        /// The rule whose allow lacked a reason.
        rule: String,
    },
}

impl PragmaError {
    /// 1-based source line of the malformed pragma.
    pub fn line(&self) -> u32 {
        match self {
            PragmaError::BadDirective { line, .. }
            | PragmaError::UnknownRule { line, .. }
            | PragmaError::MissingReason { line, .. } => *line,
        }
    }

    /// Human message for the `P001` finding.
    pub fn message(&self) -> String {
        match self {
            PragmaError::BadDirective { directive, .. } => format!(
                "malformed sky-lint pragma: expected `allow(RULE, reason)` or \
                 `allow-file(RULE, reason)`, got `{directive}`"
            ),
            PragmaError::UnknownRule { rule, .. } => {
                format!("sky-lint pragma names unknown rule `{rule}`")
            }
            PragmaError::MissingReason { rule, .. } => format!(
                "sky-lint allow({rule}) without a reason: every suppression \
                 must say why the site is deterministic"
            ),
        }
    }
}

/// Scan line comments for `sky-lint:` pragmas. Well-formed pragmas land
/// in the first vector, malformed ones in the second.
pub fn parse_pragmas(comments: &[LineComment]) -> (Vec<Pragma>, Vec<PragmaError>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for comment in comments {
        // `///` and `//!` doc comments are documentation, not directives.
        if comment.text.starts_with('/') || comment.text.starts_with('!') {
            continue;
        }
        let text = comment.text.trim();
        let Some(rest) = text.strip_prefix("sky-lint:") else {
            continue;
        };
        match parse_directive(rest.trim(), comment.line) {
            Ok((rule, reason, file_scope)) => pragmas.push(Pragma {
                rule,
                reason,
                line: comment.line,
                file_scope,
                standalone: comment.standalone,
                used: false,
            }),
            Err(e) => errors.push(e),
        }
    }
    (pragmas, errors)
}

fn parse_directive(rest: &str, line: u32) -> Result<(String, String, bool), PragmaError> {
    let (head, file_scope) = if let Some(h) = rest.strip_prefix("allow-file") {
        (h, true)
    } else if let Some(h) = rest.strip_prefix("allow") {
        (h, false)
    } else {
        return Err(PragmaError::BadDirective {
            line,
            directive: rest.to_string(),
        });
    };
    let head = head.trim();
    let Some(inner) = head.strip_prefix('(').and_then(|h| h.strip_suffix(')')) else {
        return Err(PragmaError::BadDirective {
            line,
            directive: rest.to_string(),
        });
    };
    let (rule, reason) = match inner.split_once(',') {
        Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
        None => (inner.trim().to_string(), String::new()),
    };
    if !RULE_IDS.contains(&rule.as_str()) {
        return Err(PragmaError::UnknownRule { line, rule });
    }
    if reason.is_empty() {
        return Err(PragmaError::MissingReason { line, rule });
    }
    Ok((rule, reason, file_scope))
}

/// Whether a finding of `rule` at `line` is suppressed by `pragmas`;
/// marks the matching pragma used.
pub fn suppresses(pragmas: &mut [Pragma], rule: &str, line: u32) -> bool {
    for p in pragmas.iter_mut() {
        if p.rule != rule {
            continue;
        }
        let hit = p.file_scope || p.line == line || (p.standalone && p.line + 1 == line);
        if hit {
            p.used = true;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> (Vec<Pragma>, Vec<PragmaError>) {
        parse_pragmas(&lex(src).comments)
    }

    #[test]
    fn well_formed_pragma_parses() {
        let (ps, es) = parse("// sky-lint: allow(D001, lookup-only interning map)\n");
        assert!(es.is_empty());
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].rule, "D001");
        assert_eq!(ps[0].reason, "lookup-only interning map");
        assert!(!ps[0].file_scope);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let (ps, es) = parse("// sky-lint: allow(D003)\n");
        assert!(ps.is_empty());
        assert_eq!(es.len(), 1);
        assert!(matches!(es[0], PragmaError::MissingReason { .. }));
    }

    #[test]
    fn whitespace_only_reason_is_rejected() {
        let (_, es) = parse("// sky-lint: allow(D002,    )\n");
        assert_eq!(es.len(), 1);
        assert!(matches!(es[0], PragmaError::MissingReason { .. }));
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let (_, es) = parse("// sky-lint: allow(D999, whatever)\n");
        assert!(matches!(es[0], PragmaError::UnknownRule { .. }));
    }

    #[test]
    fn bad_directive_is_rejected() {
        let (_, es) = parse("// sky-lint: disable(D001, nope)\n");
        assert!(matches!(es[0], PragmaError::BadDirective { .. }));
    }

    #[test]
    fn doc_comments_do_not_activate_pragmas() {
        let (ps, es) = parse("/// sky-lint: allow(D001)\n//! sky-lint: allow(D001)\n");
        assert!(ps.is_empty() && es.is_empty());
    }

    #[test]
    fn standalone_pragma_covers_next_line() {
        let (mut ps, _) = parse("// sky-lint: allow(D001, next line is safe)\n");
        assert!(suppresses(&mut ps, "D001", 2));
        assert!(!suppresses(&mut ps, "D001", 3));
        assert!(ps[0].used);
    }

    #[test]
    fn trailing_pragma_covers_only_its_line() {
        let (mut ps, _) = parse("let x = 1; // sky-lint: allow(D005, fold is ordered)\n");
        assert!(suppresses(&mut ps, "D005", 1));
        assert!(!suppresses(&mut ps, "D005", 2));
    }

    #[test]
    fn file_pragma_covers_everything() {
        let (mut ps, _) = parse("// sky-lint: allow-file(D004, test corpus)\n");
        assert!(suppresses(&mut ps, "D004", 999));
    }
}
