//! Golden-diagnostics tests over the fixture corpus.
//!
//! Each `fixtures/*.rs` file is paired with a `.expected` file holding the
//! exact rendered diagnostics, byte for byte. The corpus is the linter's
//! regression net in both directions: a lint that stops firing breaks the
//! known-bad fixtures, and a lint that starts over-firing breaks `clean.rs`
//! and `suppressed.rs`.

use std::path::PathBuf;

use balloc_lint::lint_source;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Renders a fixture the same way the CLI's text mode does (default
/// severities, no `--deny-all` promotion).
fn rendered(name: &str) -> (String, usize) {
    let path = fixtures_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    let rel = format!("crates/lint/tests/fixtures/{name}");
    let outcome = lint_source(&rel, &text);
    let mut out = String::new();
    for d in &outcome.diagnostics {
        out.push_str(&d.render(false));
        out.push('\n');
    }
    (out, outcome.suppressed)
}

fn expected(name: &str) -> String {
    let path = fixtures_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading golden {name}: {e}"))
}

#[test]
fn every_fixture_matches_its_golden() {
    let mut names: Vec<String> = std::fs::read_dir(fixtures_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "fixture corpus is missing");
    for name in &names {
        let (got, _) = rendered(name);
        let want = expected(&name.replace(".rs", ".expected"));
        assert_eq!(
            got, want,
            "fixture {name} diverged from its golden; if the change is \
             intentional, regenerate the .expected file"
        );
    }
}

#[test]
fn every_lint_code_fires_on_some_fixture() {
    // The corpus must keep failing: if a refactor silently disables a
    // lint, this is the test that notices.
    for code in [
        "L000", "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009",
    ] {
        let digits = &code[1..];
        let hit = std::fs::read_dir(fixtures_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".expected"))
            .any(|n| expected(&n).contains(&format!("[L{digits}]")));
        assert!(hit, "no fixture demonstrates {code}");
    }
}

#[test]
fn clean_fixture_is_clean() {
    let (out, suppressed) = rendered("clean.rs");
    assert_eq!(out, "");
    assert_eq!(suppressed, 0);
}

#[test]
fn suppressed_fixture_is_silent_but_counted() {
    let (out, suppressed) = rendered("suppressed.rs");
    assert_eq!(out, "", "suppressions must absorb the violations");
    assert_eq!(suppressed, 2, "both allows must have absorbed a finding");
}

#[test]
fn known_bad_fixtures_fail_deny_all() {
    // What CI runs: the corpus as a whole must exit non-zero under
    // --deny-all (known-bad files keep failing).
    let mut out = Vec::new();
    let mut err = Vec::new();
    let code = balloc_lint::cli::run(
        &[
            "--deny-all".to_string(),
            "--root".to_string(),
            fixtures_dir().display().to_string(),
        ],
        &mut out,
        &mut err,
    );
    assert_eq!(code, balloc_lint::cli::EXIT_FINDINGS);
    let err = String::from_utf8(err).unwrap();
    for code in [
        "[L000]", "[L001]", "[L002]", "[L003]", "[L004]", "[L005]", "[L006]", "[L007]",
        "[L008]",
    ] {
        assert!(err.contains(code), "corpus run lost {code}:\n{err}");
    }
}
