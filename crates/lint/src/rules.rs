//! The token-level determinism rules (D001–D007). The workspace rules
//! (D008, D009, D011) live in [`crate::semantic`]; the pragma-hygiene
//! findings (P001 malformed pragma, P002 unused pragma) are emitted by
//! the pipeline in `lib.rs`.
//!
//! Every rule here is resolvable at token level — deliberately: the
//! gate must run in offline CI with zero dependencies, and a rule that
//! needs whole-program type inference is a rule whose false-negative
//! modes nobody can reason about. Where a rule is a heuristic
//! approximation of the real invariant (D005, D006), the approximation
//! is documented here and in `DESIGN.md` §9; the semantic rules'
//! approximations are documented on [`crate::semantic`] and §13.
//!
//! | rule | invariant |
//! |------|-----------|
//! | D001 | no `HashMap`/`HashSet` in sim-affecting crates (iteration order leaks into event order) |
//! | D002 | no wall clock (`Instant::now`, `SystemTime::now`) outside `bench`/`cli` |
//! | D003 | no ambient entropy (`thread_rng`, `rand::random`, `from_entropy`, `OsRng`, `getrandom`) anywhere |
//! | D004 | no duplicate `SimRng::derive("label")` literals within one function body |
//! | D005 | no float `+=`/`.sum()` accumulation over money identifiers in sim-affecting crates |
//! | D006 | no `pub` hash-keyed map fields in `#[derive(Serialize)]` snapshot types |
//! | D007 | no unordered parallel reductions (`.lock()` + `push`/`extend`/`insert`/`append` on one line) in sim crates or `bench` |
//! | D008 | RNG lineage: no sibling-stream label collisions across function boundaries, no loop-invariant labels derived in loops |
//! | D009 | metrics contracts: one kind per `(subsystem, name)` workspace-wide; handles touched only with their kind's methods |
//! | D011 | shared global state: no `static mut` / interior-mutable statics / `lazy_static!` in sim crates or `bench` |

use crate::lexer::{Lexed, Tok, Token};

/// All suppressible rule ids (P001/P002 are not suppressible: pragma
/// hygiene cannot be pragma'd away).
pub const RULE_IDS: [&str; 10] = [
    "D001", "D002", "D003", "D004", "D005", "D006", "D007", "D008", "D009", "D011",
];

/// Crates whose code runs inside (or feeds state into) the seeded
/// simulation — the D001/D005 scope.
pub const SIM_CRATES: [&str; 6] = ["sim-core", "cloud", "core", "faas", "mesh", "workloads"];

/// Crates allowed to read the wall clock (host-side measurement and
/// interactive tooling — never simulation state).
pub const WALLCLOCK_ALLOWLIST: [&str; 2] = ["bench", "cli"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`D001`…`D007`, `P001`, `P002`).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

/// Per-file scope derived from the workspace-relative path.
#[derive(Debug, Clone, Copy)]
struct FileScope {
    /// Inside one of [`SIM_CRATES`] (D001/D005 apply).
    sim: bool,
    /// Inside the wall-clock allowlist (D002 does not apply).
    wallclock_allowed: bool,
    /// Inside a crate that may run parallel reductions over sim
    /// results — the sim crates plus `bench`, home of the sweep
    /// runner (the D007 scope).
    parallel: bool,
}

fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
}

fn scope_of(rel_path: &str) -> FileScope {
    let krate = crate_of(rel_path);
    FileScope {
        sim: krate.is_some_and(|k| SIM_CRATES.contains(&k)),
        wallclock_allowed: krate.is_some_and(|k| WALLCLOCK_ALLOWLIST.contains(&k)),
        parallel: krate.is_some_and(|k| SIM_CRATES.contains(&k) || k == "bench"),
    }
}

/// Raw token-level findings (D001–D007) for one file — no pragma
/// suppression, no hygiene findings; the pipeline in `lib.rs` applies
/// those after merging in the semantic findings.
pub(crate) fn token_findings(rel_path: &str, lexed: &Lexed) -> Vec<Finding> {
    let scope = scope_of(rel_path);
    let mut raw: Vec<Finding> = Vec::new();
    rule_d001_hash_collections(rel_path, lexed, scope, &mut raw);
    rule_d002_wall_clock(rel_path, lexed, scope, &mut raw);
    rule_d003_ambient_entropy(rel_path, lexed, &mut raw);
    rule_d004_duplicate_stream_labels(rel_path, lexed, &mut raw);
    rule_d005_float_money(rel_path, lexed, scope, &mut raw);
    rule_d006_serialized_hash_maps(rel_path, lexed, &mut raw);
    rule_d007_unordered_parallel_reductions(rel_path, lexed, scope, &mut raw);
    raw
}

fn push_once_per_line(out: &mut Vec<Finding>, f: Finding) {
    let dup = out
        .iter()
        .any(|g| g.rule == f.rule && g.line == f.line && g.path == f.path);
    if !dup {
        out.push(f);
    }
}

/// D001 — hash-ordered collections in sim-affecting crates. Flags every
/// mention (imports, types, constructors): the cheapest place to stop
/// nondeterministic iteration is before the collection exists at all.
fn rule_d001_hash_collections(path: &str, lexed: &Lexed, scope: FileScope, out: &mut Vec<Finding>) {
    if !scope.sim {
        return;
    }
    for t in &lexed.tokens {
        if let Tok::Ident(name) = &t.tok {
            if name == "HashMap" || name == "HashSet" {
                push_once_per_line(
                    out,
                    Finding {
                        path: path.to_string(),
                        line: t.line,
                        col: t.col,
                        rule: "D001",
                        message: format!(
                            "`{name}` in a sim-affecting crate: hash iteration order can \
                             leak into event order"
                        ),
                        hint: format!(
                            "use `BTree{}` (sorted, deterministic) or justify with \
                             `// sky-lint: allow(D001, <reason>)`",
                            &name[4..]
                        ),
                    },
                );
            }
        }
    }
}

/// D002 — wall-clock reads outside the bench/cli allowlist. Simulated
/// components must take time from `SimTime`; a single `Instant::now`
/// in a sim crate makes replay machine-dependent.
fn rule_d002_wall_clock(path: &str, lexed: &Lexed, scope: FileScope, out: &mut Vec<Finding>) {
    if scope.wallclock_allowed {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        if path_then(toks, i + 1, "now") {
            push_once_per_line(
                out,
                Finding {
                    path: path.to_string(),
                    line: toks[i].line,
                    col: toks[i].col,
                    rule: "D002",
                    message: format!(
                        "wall-clock read `{name}::now` outside the bench/cli allowlist"
                    ),
                    hint: "simulated components take time from `SimTime`; host-side timing \
                           belongs in crates/bench or crates/cli"
                        .to_string(),
                },
            );
        }
    }
}

/// Whether `toks[i..]` is `:: <ident>` for the given ident.
fn path_then(toks: &[Token], i: usize, ident: &str) -> bool {
    matches!(
        (toks.get(i), toks.get(i + 1), toks.get(i + 2)),
        (Some(a), Some(b), Some(c))
            if a.tok == Tok::Punct(':')
                && b.tok == Tok::Punct(':')
                && c.tok == Tok::Ident(ident.to_string())
    )
}

/// D003 — ambient entropy anywhere in the workspace. All randomness
/// must flow through `SimRng::derive("label")` named streams.
fn rule_d003_ambient_entropy(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        let hit = match name.as_str() {
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => true,
            "rand" => path_then(toks, i + 1, "random"),
            _ => false,
        };
        if hit {
            push_once_per_line(
                out,
                Finding {
                    path: path.to_string(),
                    line: toks[i].line,
                    col: toks[i].col,
                    rule: "D003",
                    message: format!("ambient entropy source `{name}`"),
                    hint: "every random draw must come from a named stream: \
                           `SimRng::seed_from(seed).derive(\"label\")`"
                        .to_string(),
                },
            );
        }
    }
}

/// D004 — duplicate `.derive("label")` string literals within one
/// function body. Two identical labels derived from the same parent
/// state yield byte-identical streams: silently correlated randomness.
fn rule_d004_duplicate_stream_labels(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    // Scope stack: (brace_depth_at_open, labels seen in this fn body).
    let mut scopes: Vec<(u32, Vec<String>)> = vec![(0, Vec::new())];
    let mut depth = 0u32;
    let mut pending_fn = false;
    let mut paren_depth = 0u32;

    for i in 0..toks.len() {
        match &toks[i].tok {
            Tok::Ident(name) if name == "fn" => pending_fn = true,
            Tok::Punct('(') => paren_depth += 1,
            Tok::Punct(')') => paren_depth = paren_depth.saturating_sub(1),
            Tok::Punct(';') if pending_fn && paren_depth == 0 => {
                // Bodyless signature (trait method / extern): no scope.
                pending_fn = false;
            }
            Tok::Punct('{') => {
                depth += 1;
                if pending_fn && paren_depth == 0 {
                    scopes.push((depth, Vec::new()));
                    pending_fn = false;
                }
            }
            Tok::Punct('}') => {
                if let Some(&(open_depth, _)) = scopes.last() {
                    if open_depth == depth && scopes.len() > 1 {
                        scopes.pop();
                    }
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Ident(name) if name == "derive" => {
                // Method call `.derive("lit")`: dot before, string after.
                let dotted = i > 0 && toks[i - 1].tok == Tok::Punct('.');
                let lit = match (toks.get(i + 1), toks.get(i + 2)) {
                    (Some(open), Some(arg)) if open.tok == Tok::Punct('(') => match &arg.tok {
                        Tok::Str(s) => Some(s.clone()),
                        _ => None,
                    },
                    _ => None,
                };
                if let (true, Some(label)) = (dotted, lit) {
                    let labels = &mut scopes.last_mut().expect("root scope").1;
                    if labels.contains(&label) {
                        out.push(Finding {
                            path: path.to_string(),
                            line: toks[i].line,
                            col: toks[i].col,
                            rule: "D004",
                            message: format!(
                                "duplicate stream label {label:?} within one function body: \
                                 identical labels alias the same stream"
                            ),
                            hint: "give each derived stream a distinct label (or derive \
                                   from the already-derived child)"
                                .to_string(),
                        });
                    } else {
                        labels.push(label);
                    }
                }
            }
            _ => {}
        }
    }
}

const MONEY_MARKERS: [&str; 7] = ["cost", "usd", "price", "bill", "spend", "revenue", "dollar"];
const INTEGER_MONEY_MARKERS: [&str; 3] = ["nano", "cents", "mb_us"];

fn is_money_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    MONEY_MARKERS.iter().any(|m| lower.contains(m))
}

fn is_integer_money_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    INTEGER_MONEY_MARKERS.iter().any(|m| lower.contains(m))
}

/// D005 — float accumulation over money identifiers in sim-affecting
/// crates. Canonical billing state is integer (nano-USD, mb·µs); float
/// folds are only tolerable in presentation layers, and only with a
/// pragma explaining the deterministic fold order.
///
/// Heuristic: a `+=` statement or `.sum()` call whose *line* mentions a
/// money identifier (`cost`, `usd`, `price`, `bill`, …) and no integer
/// money marker (`nano`, `cents`, `mb_us`).
fn rule_d005_float_money(path: &str, lexed: &Lexed, scope: FileScope, out: &mut Vec<Finding>) {
    if !scope.sim {
        return;
    }
    let toks = &lexed.tokens;
    let mut hits: Vec<(u32, u32, &'static str)> = Vec::new();
    for i in 0..toks.len() {
        match &toks[i].tok {
            Tok::Punct('+') => {
                if let Some(next) = toks.get(i + 1) {
                    if next.tok == Tok::Punct('=')
                        && next.line == toks[i].line
                        && next.col == toks[i].col + 1
                    {
                        hits.push((toks[i].line, toks[i].col, "accumulation `+=`"));
                    }
                }
            }
            Tok::Ident(name) if name == "sum" && i > 0 && toks[i - 1].tok == Tok::Punct('.') => {
                hits.push((toks[i].line, toks[i].col, "`.sum()` fold"));
            }
            _ => {}
        }
    }
    for (line, col, what) in hits {
        let line_idents: Vec<&String> = toks
            .iter()
            .filter(|t| t.line == line)
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
        let money = line_idents.iter().any(|s| is_money_ident(s));
        let integer = line_idents.iter().any(|s| is_integer_money_ident(s));
        if money && !integer {
            push_once_per_line(
                out,
                Finding {
                    path: path.to_string(),
                    line,
                    col,
                    rule: "D005",
                    message: format!(
                        "floating-point {what} over a money identifier in a sim-affecting \
                         crate"
                    ),
                    hint: "keep metered money in integer nano-USD (and GB-seconds in \
                           mb\u{b7}\u{b5}s); float USD is presentation-only and needs \
                           `// sky-lint: allow(D005, <reason>)`"
                        .to_string(),
                },
            );
        }
    }
}

/// D006 — `pub` hash-keyed map fields inside `#[derive(Serialize)]`
/// types. A serialized `HashMap` writes entries in iteration order, so
/// two identical snapshots can serialize differently; exporters must
/// sort (`BTreeMap`, or a `Vec` sorted at snapshot time).
fn rule_d006_serialized_hash_maps(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        // Match `# [ derive ( ... ) ]` and collect the derive list.
        if toks[i].tok != Tok::Punct('#') {
            i += 1;
            continue;
        }
        let Some(open) = toks.get(i + 1) else { break };
        if open.tok != Tok::Punct('[') {
            i += 1;
            continue;
        }
        let Some(kw) = toks.get(i + 2) else { break };
        if kw.tok != Tok::Ident("derive".to_string()) {
            i += 1;
            continue;
        }
        let mut j = i + 3;
        let mut derives: Vec<String> = Vec::new();
        let mut paren = 0i32;
        while let Some(t) = toks.get(j) {
            match &t.tok {
                Tok::Punct('(') => paren += 1,
                Tok::Punct(')') => {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                Tok::Ident(name) => derives.push(name.clone()),
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
        if !derives.iter().any(|d| d == "Serialize") {
            continue;
        }
        // Skip `]`, further attributes, and find `pub struct Name {`.
        let mut k = i;
        while toks.get(k).map(|t| &t.tok) == Some(&Tok::Punct(']')) {
            k += 1;
            // Another attribute?
            while toks.get(k).map(|t| &t.tok) == Some(&Tok::Punct('#')) {
                let mut bracket = 0i32;
                k += 1;
                while let Some(t) = toks.get(k) {
                    match t.tok {
                        Tok::Punct('[') => bracket += 1,
                        Tok::Punct(']') => {
                            bracket -= 1;
                            if bracket == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        let exported = toks.get(k).map(|t| &t.tok) == Some(&Tok::Ident("pub".to_string()))
            && toks.get(k + 1).map(|t| &t.tok) != Some(&Tok::Punct('('));
        if !exported {
            continue;
        }
        if toks.get(k + 1).map(|t| &t.tok) != Some(&Tok::Ident("struct".to_string())) {
            continue;
        }
        // Find the field block: first `{` after the struct name (a `;`
        // first means a unit/tuple struct — nothing to check).
        let mut b = k + 2;
        loop {
            match toks.get(b).map(|t| &t.tok) {
                Some(Tok::Punct('{')) => break,
                Some(Tok::Punct(';')) | None => {
                    b = usize::MAX;
                    break;
                }
                _ => b += 1,
            }
        }
        if b == usize::MAX {
            continue;
        }
        check_struct_fields(path, toks, b, out);
    }
}

/// Walk a brace-delimited struct body starting at the `{` token index;
/// flag `pub` fields whose type mentions `HashMap`/`HashSet`.
fn check_struct_fields(path: &str, toks: &[Token], open: usize, out: &mut Vec<Finding>) {
    let mut depth = 0i32;
    let mut field_start = open + 1;
    let mut j = open;
    while let Some(t) = toks.get(j) {
        // `->` inside a field type (fn-pointer fields) is an arrow, not
        // a closing angle bracket.
        let arrow = t.tok == Tok::Punct('>')
            && j > 0
            && toks[j - 1].tok == Tok::Punct('-')
            && toks[j - 1].line == t.line
            && toks[j - 1].col + 1 == t.col;
        if arrow {
            j += 1;
            continue;
        }
        match t.tok {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('<') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    check_one_field(path, &toks[field_start..j], out);
                    return;
                }
            }
            Tok::Punct(',') if depth == 1 => {
                check_one_field(path, &toks[field_start..j], out);
                field_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
}

/// D007 — unordered parallel reductions. A worker that does
/// `shared.lock()….push(result)` commits results in thread *completion*
/// order, which varies run to run even under a fixed seed — the one
/// nondeterminism parallelism can smuggle past it. The deterministic
/// shape is the sweep runner's: one pre-allocated slot per item index,
/// assigned under its own lock, merged in item order after the join.
///
/// Heuristic: a line that both acquires a lock (`.lock()`) and grows a
/// collection (`push`/`extend`/`insert`/`append`), inside the sim
/// crates or `bench` (where the parallel drivers live).
fn rule_d007_unordered_parallel_reductions(
    path: &str,
    lexed: &Lexed,
    scope: FileScope,
    out: &mut Vec<Finding>,
) {
    if !scope.parallel {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        if name != "lock"
            || i == 0
            || toks[i - 1].tok != Tok::Punct('.')
            || toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('('))
        {
            continue;
        }
        let line = toks[i].line;
        let grower = toks.iter().enumerate().find(|(j, t)| {
            t.line == line
                && matches!(&t.tok, Tok::Ident(m)
                    if m == "push" || m == "extend" || m == "insert" || m == "append")
                && toks.get(j + 1).map(|n| &n.tok) == Some(&Tok::Punct('('))
        });
        if let Some((_, t)) = grower {
            if let Tok::Ident(m) = &t.tok {
                push_once_per_line(
                    out,
                    Finding {
                        path: path.to_string(),
                        line,
                        col: t.col,
                        rule: "D007",
                        message: format!(
                            "unordered parallel reduction: `.{m}` on a lock-guarded \
                             collection commits results in thread completion order"
                        ),
                        hint: "reduce into one pre-allocated slot per item index and \
                               merge in item order (see `sky_bench::sweep::run`), or \
                               sort by a deterministic key before folding"
                            .to_string(),
                    },
                );
            }
        }
    }
}

fn check_one_field(path: &str, field: &[Token], out: &mut Vec<Finding>) {
    if field.is_empty() {
        return;
    }
    // Skip field attributes `#[...]`.
    let mut s = 0usize;
    while field.get(s).map(|t| &t.tok) == Some(&Tok::Punct('#')) {
        let mut bracket = 0i32;
        s += 1;
        while let Some(t) = field.get(s) {
            match t.tok {
                Tok::Punct('[') => bracket += 1,
                Tok::Punct(']') => {
                    bracket -= 1;
                    if bracket == 0 {
                        s += 1;
                        break;
                    }
                }
                _ => {}
            }
            s += 1;
        }
    }
    let public = field.get(s).map(|t| &t.tok) == Some(&Tok::Ident("pub".to_string()))
        && field.get(s + 1).map(|t| &t.tok) != Some(&Tok::Punct('('));
    if !public {
        return;
    }
    for t in field {
        if let Tok::Ident(name) = &t.tok {
            if name == "HashMap" || name == "HashSet" {
                out.push(Finding {
                    path: path.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: "D006",
                    message: format!(
                        "pub `{name}` field in a `#[derive(Serialize)]` snapshot type \
                         serializes in nondeterministic iteration order"
                    ),
                    hint: "exporters must sort: use `BTreeMap`, or collect into a sorted \
                           `Vec` at snapshot time"
                        .to_string(),
                });
                return;
            }
        }
    }
}
