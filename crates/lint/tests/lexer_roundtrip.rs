//! The analyzer's foundation is the lexer's totality: every rule above it
//! (AST, rules) assumes `lex` never drops a byte
//! and never fails. Assert that two ways:
//!
//! 1. Exhaustively over the real workspace — every `.rs` file the scanner
//!    visits must round-trip (`concat(token texts) == input`) and re-lex to
//!    the identical stream, and `parse` must be total over it.
//! 2. Property-tested over adversarial fragments the workspace may not
//!    contain today: unterminated strings, stray quotes, raw strings,
//!    lifetimes vs. char literals, nested block comments.

use clyde_lint::lexer::{lex, Tok};
use clyde_lint::parse::parse;
use proptest::prelude::*;
use std::path::Path;

fn rendered(toks: &[Tok]) -> String {
    toks.iter().map(|t| t.text.as_str()).collect()
}

/// Round-trip + stable re-lex + total parse for one source string.
fn assert_total(src: &str, label: &str) {
    let toks = lex(src);
    let out = rendered(&toks);
    assert_eq!(out, src, "lexer dropped or altered bytes in {label}");
    let again = lex(&out);
    assert_eq!(
        toks.len(),
        again.len(),
        "re-lex changed the token count in {label}"
    );
    for (a, b) in toks.iter().zip(&again) {
        assert_eq!(a.kind, b.kind, "re-lex changed a kind in {label}");
        assert_eq!(a.text, b.text, "re-lex changed a text in {label}");
    }
    // The parser must accept whatever the lexer produced.
    let ast = parse(&toks);
    assert!(ast.sig.len() <= toks.len());
}

#[test]
fn every_workspace_file_roundtrips() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = clyde_lint::collect_files(&root).expect("walk workspace");
    assert!(
        files.len() > 40,
        "workspace walk looks truncated: {} files",
        files.len()
    );
    for f in files {
        let src = std::fs::read_to_string(&f).expect("read source");
        assert_total(&src, &f.display().to_string());
    }
}

#[test]
fn fixtures_roundtrip_too() {
    // Fixture files are excluded from workspace scans but are exactly the
    // adversarial inputs the self-test feeds the lexer.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("read fixture");
            assert_total(&src, &path.display().to_string());
            n += 1;
        }
    }
    assert!(n >= 6, "expected the per-rule fixtures, saw {n}");
}

proptest! {
    #[test]
    fn arbitrary_fragments_roundtrip(s in "[a-zA-Z0-9_ \\n\\t{}()\\[\\];:,.<>=+*/&|!'\"#-]{0,80}") {
        let toks = lex(&s);
        prop_assert_eq!(rendered(&toks), s);
    }

    #[test]
    fn stitched_rust_shapes_roundtrip(
        name in "[a-z_]{1,9}",
        lit in "[0-9]{1,6}",
        tail in "[\"'/*! \\n]{0,6}",
    ) {
        // Plausible-Rust prefix with an adversarial tail: the tail can open
        // a string, char, or comment that never closes — the lexer must
        // still account for every byte.
        let src = format!(
            "fn {name}() -> u32 {{\n    let x = {lit}; // c\n    x\n}}\n{tail}"
        );
        let toks = lex(&src);
        prop_assert_eq!(rendered(&toks), src.clone());
        let _ = parse(&toks);
    }
}
