//! Golden-tested fixture corpus for the linter itself.
//!
//! Every rule must have both a failing (dirty) and a passing (clean)
//! fixture, the dirty corpus's full JSON report is golden-pinned (drift
//! means a rule changed behaviour — review it like any other golden),
//! and the report bytes must be identical whatever order the files are
//! discovered in. Regenerate the golden after an intentional rule
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sky-lint --test fixtures
//! ```

use std::fs;
use std::path::PathBuf;

use sky_lint::{lint_source, render_json, sort_findings, Finding};

fn fixture_dir(kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
}

/// The virtual workspace path a fixture is linted under. Most fixtures
/// pose as sim-crate code (the strictest scope); the D006 pair poses as
/// bench code to show the snapshot rule applies even outside sim crates
/// (and so its map mentions exercise D006, not D001).
fn virtual_path(file_name: &str) -> String {
    if file_name.starts_with("d006") {
        format!("crates/bench/src/{file_name}")
    } else {
        format!("crates/faas/src/{file_name}")
    }
}

/// Lint every fixture in `kind`, in the given direction, returning
/// findings in canonical order.
fn lint_corpus(kind: &str, reverse: bool) -> Vec<Finding> {
    let dir = fixture_dir(kind);
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".rs"))
        .collect();
    names.sort();
    if reverse {
        names.reverse();
    }
    let mut findings = Vec::new();
    for name in &names {
        let source = fs::read_to_string(dir.join(name)).unwrap();
        findings.extend(lint_source(&virtual_path(name), &source));
    }
    sort_findings(&mut findings);
    findings
}

fn rules_in(findings: &[Finding], file_stem: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings
        .iter()
        .filter(|f| f.path.contains(file_stem))
        .map(|f| f.rule)
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

/// Every rule fires on its dirty fixture and stays silent on its clean
/// counterpart — the "passing and failing fixture per rule" contract.
#[test]
fn every_rule_has_a_failing_and_a_passing_fixture() {
    let dirty = lint_corpus("dirty", false);
    let clean = lint_corpus("clean", false);
    for rule in sky_lint::RULE_IDS {
        let stem = rule.to_lowercase();
        assert!(
            rules_in(&dirty, &stem).contains(&rule),
            "{rule} must fire on its dirty fixture; dirty findings: {:?}",
            dirty.iter().map(|f| (f.rule, &f.path)).collect::<Vec<_>>()
        );
        assert!(
            rules_in(&clean, &stem).is_empty(),
            "clean fixture for {rule} must produce no findings, got {:?}",
            clean
                .iter()
                .filter(|f| f.path.contains(&stem))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn clean_corpus_is_entirely_clean() {
    let clean = lint_corpus("clean", false);
    assert!(
        clean.is_empty(),
        "clean fixtures must produce zero findings, got:\n{}",
        sky_lint::render_human(&clean)
    );
}

/// The pragma parser rejects `allow` without a reason: the malformed
/// pragma is a P001 finding *and* fails to suppress the D001 underneath.
#[test]
fn pragma_without_reason_is_rejected_and_does_not_suppress() {
    let dirty = lint_corpus("dirty", false);
    let rules = rules_in(&dirty, "pragma_missing_reason");
    assert!(rules.contains(&"P001"), "missing-reason pragma → P001");
    assert!(
        rules.contains(&"D001"),
        "a malformed pragma must not suppress the finding under it"
    );
}

#[test]
fn unknown_rule_and_bad_directive_are_rejected() {
    let dirty = lint_corpus("dirty", false);
    let p001s = dirty
        .iter()
        .filter(|f| f.path.contains("pragma_unknown_rule") && f.rule == "P001")
        .count();
    assert_eq!(p001s, 2, "unknown rule + bad directive are both P001");
}

#[test]
fn unused_pragma_is_a_finding() {
    let dirty = lint_corpus("dirty", false);
    assert!(
        rules_in(&dirty, "pragma_unused").contains(&"P002"),
        "a pragma that suppresses nothing must be flagged"
    );
}

/// The JSON report is byte-identical whatever order files are
/// discovered in — the property that makes the CI gate diffable.
#[test]
fn json_output_is_stable_across_discovery_order() {
    let forward = render_json(&lint_corpus("dirty", false));
    let backward = render_json(&lint_corpus("dirty", true));
    assert_eq!(forward, backward);
}

/// The dirty corpus's full JSON report, golden-pinned. A diff here
/// means a rule's behaviour changed: review it, then regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p sky-lint --test fixtures`.
#[test]
fn dirty_corpus_matches_golden() {
    let golden_path = fixture_dir("").join("expected_dirty.json");
    let actual = render_json(&lint_corpus("dirty", false));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&golden_path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (regenerate with UPDATE_GOLDEN=1)",
            golden_path.display()
        )
    });
    if expected != actual {
        let diff: String = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(20)
            .map(|(i, (e, a))| format!("  {:>4} - {e}\n  {:>4} + {a}\n", i + 1, i + 1))
            .collect();
        panic!(
            "dirty-corpus lint report drifted from expected_dirty.json:\n{diff}\
             (review, then regenerate with UPDATE_GOLDEN=1)"
        );
    }
}

/// The acceptance gate itself: the real workspace must lint clean, and
/// every suppression in it must carry a reason (the parser guarantees
/// the latter — a reasonless allow would surface here as P001).
#[test]
fn workspace_is_clean() {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = sky_lint::find_workspace_root(&manifest_dir).expect("workspace root");
    let findings = sky_lint::lint_workspace(&root).expect("lint workspace");
    assert!(
        findings.is_empty(),
        "workspace must be determinism-clean:\n{}",
        sky_lint::render_human(&findings)
    );
}
