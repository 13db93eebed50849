//! Item/expression parser: token stream → simplified per-file AST.
//!
//! This is not a full Rust grammar — it is the minimal structure the rule
//! passes need and no more:
//!
//! * **function items** with name, line span, body token range, and whether
//!   they live under `#[cfg(test)]` / `#[test]` (structural rules audit
//!   production code only);
//! * **declared names**: identifiers bound with `HashMap`/`HashSet` types
//!   (unordered containers for D001) and to `f32`/`f64` values (float
//!   evidence for D006);
//! * **statement segmentation** of each body (linear runs between `;`,
//!   `{`, `}`), the granularity at which the D008 taint pass propagates.
//!
//! The parser is heuristic and total: any token stream produces *some* AST,
//! over-approximating where Rust's grammar is ambiguous without type
//! information. A false positive costs one reasoned pragma; a false
//! negative costs a nondeterministic experiment — so ties break toward
//! flagging.

use crate::lexer::{Tok, TokKind};

/// A token index into the *significant* (trivia-stripped) stream.
pub type SigIdx = usize;

/// One parsed function item.
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body range into [`FileAst::sig`], excluding the outer braces.
    pub body: std::ops::Range<SigIdx>,
    /// Inside `#[cfg(test)]` / under `#[test]`.
    pub is_test: bool,
    /// Lexically nested inside another `fn` (file-wide passes visit only
    /// top-level fns so nested bodies are not scanned twice).
    pub nested: bool,
}

/// The simplified AST of one file.
#[derive(Debug)]
pub struct FileAst {
    /// Significant tokens (no whitespace/comments), in order.
    pub sig: Vec<Tok>,
    /// Brace depth *before* each significant token.
    pub depth: Vec<u32>,
    pub fns: Vec<FnDef>,
    /// Names declared with one of the four hash-container types (`HashMap`,
    /// `HashSet`, `FxHashMap`, `FxHashSet`) or initialized from one of them
    /// (`FxHashMap::default()`).
    pub hash_names: Vec<String>,
    /// Names with visible `f32`/`f64` evidence: a float type annotation or
    /// a float-literal initializer.
    pub float_names: Vec<String>,
}

impl FileAst {
    pub fn line(&self, i: SigIdx) -> usize {
        self.sig[i].line as usize
    }

    pub fn is_ident(&self, i: SigIdx, name: &str) -> bool {
        self.sig
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    }

    pub fn is_punct(&self, i: SigIdx, p: &str) -> bool {
        self.sig
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
    }

    /// The method named by a `.name(` or `.name::<` at `dot`, if any.
    pub fn method_at(&self, dot: SigIdx) -> Option<&str> {
        let name = self.sig.get(dot + 1)?;
        let called = self.is_punct(dot + 2, "(")
            || (self.is_punct(dot + 2, ":") && self.is_punct(dot + 3, ":"));
        (self.is_punct(dot, ".") && name.kind == TokKind::Ident && called)
            .then_some(name.text.as_str())
    }

    /// Statement segmentation of a body: maximal runs of significant tokens
    /// between `;`, `{`, and `}` (the separators are dropped). Linear and
    /// flow-insensitive — exactly the granularity the taint pass wants.
    pub fn statements(&self, body: &std::ops::Range<SigIdx>) -> Vec<std::ops::Range<SigIdx>> {
        let mut out = Vec::new();
        let mut start = body.start;
        for i in body.clone() {
            if self.sig[i].kind == TokKind::Punct
                && matches!(self.sig[i].text.as_str(), ";" | "{" | "}")
            {
                if i > start {
                    out.push(start..i);
                }
                start = i + 1;
            }
        }
        if body.end > start {
            out.push(start..body.end);
        }
        out
    }
}

pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "const"
            | "static"
            | "move"
            | "as"
            | "in"
            | "where"
            | "unsafe"
            | "dyn"
            | "self"
            | "Self"
            | "super"
            | "crate"
            | "type"
            | "async"
            | "await"
    )
}

/// Parse a token stream (as produced by [`crate::lexer::lex`]) into a
/// [`FileAst`].
pub fn parse(toks: &[Tok]) -> FileAst {
    let sig: Vec<Tok> = toks.iter().filter(|t| !t.is_trivia()).cloned().collect();
    let mut depth_vec = Vec::with_capacity(sig.len());
    let mut depth: u32 = 0;
    for t in &sig {
        if t.kind == TokKind::Punct && t.text == "}" {
            depth = depth.saturating_sub(1);
        }
        depth_vec.push(depth);
        if t.kind == TokKind::Punct && t.text == "{" {
            depth += 1;
        }
    }

    let mut ast = FileAst {
        sig,
        depth: depth_vec,
        fns: Vec::new(),
        hash_names: Vec::new(),
        float_names: Vec::new(),
    };
    collect_fns(&mut ast);
    collect_decls(&mut ast);
    ast
}

/// Walk items: track `#[cfg(test)]`/`#[test]` attribute regions and extract
/// every `fn` with its brace-matched body.
fn collect_fns(ast: &mut FileAst) {
    let n = ast.sig.len();
    // Depths at which a test region (attributed mod/fn body) was entered.
    let mut test_depths: Vec<u32> = Vec::new();
    // A `#[test]`/`#[cfg(test)]` attribute was seen and not yet consumed by
    // an item.
    let mut pending_test = false;
    let mut fn_stack: Vec<(usize, SigIdx)> = Vec::new(); // (fns index, body end)
    let mut i = 0;
    let mut fns: Vec<FnDef> = Vec::new();
    while i < n {
        let cur_depth = ast.depth[i];
        fn_stack.retain(|&(_, end)| i < end);
        test_depths.retain(|&d| {
            d <= cur_depth || {
                // region closed when depth drops below entry depth
                false
            }
        });
        // (retain above keeps shallower-or-equal entries; prune exits)
        while test_depths.last().is_some_and(|&d| cur_depth < d) {
            test_depths.pop();
        }
        let t = &ast.sig[i];
        if t.kind == TokKind::Punct && t.text == "#" && ast.is_punct(i + 1, "[") {
            // Scan the attribute for a bare `test` token.
            let mut j = i + 2;
            let mut bdepth = 1;
            let mut has_test = false;
            while j < n && bdepth > 0 {
                if ast.is_punct(j, "[") {
                    bdepth += 1;
                } else if ast.is_punct(j, "]") {
                    bdepth -= 1;
                } else if ast.is_ident(j, "test") {
                    has_test = true;
                }
                j += 1;
            }
            pending_test |= has_test;
            i = j;
            continue;
        }
        if t.kind == TokKind::Ident && (t.text == "mod" || t.text == "fn") {
            let is_fn = t.text == "fn";
            let name = match ast.sig.get(i + 1) {
                Some(nt) if nt.kind == TokKind::Ident => nt.text.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Find the item's body `{` (or `;` for declarations).
            let mut j = i + 2;
            let mut body: Option<(SigIdx, SigIdx)> = None;
            while j < n {
                if ast.is_punct(j, ";") && ast.depth[j] == cur_depth {
                    break;
                }
                if ast.is_punct(j, "{") && ast.depth[j] == cur_depth {
                    // Matching close: first token index where depth returns.
                    let mut k = j + 1;
                    while k < n && !(ast.is_punct(k, "}") && ast.depth[k] == cur_depth) {
                        k += 1;
                    }
                    body = Some((j + 1, k));
                    break;
                }
                j += 1;
            }
            let item_test = pending_test || !test_depths.is_empty();
            pending_test = false;
            if let Some((bstart, bend)) = body {
                if item_test {
                    test_depths.push(cur_depth + 1);
                }
                if is_fn {
                    let nested = !fn_stack.is_empty();
                    fns.push(FnDef {
                        name,
                        line: t.line as usize,
                        body: bstart..bend,
                        is_test: item_test,
                        nested,
                    });
                    fn_stack.push((fns.len() - 1, bend));
                }
                i = bstart;
                continue;
            }
            i = j + 1;
            continue;
        }
        // Any other item consumes a pending attribute.
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "struct" | "enum" | "impl" | "trait" | "use" | "static" | "const"
            )
        {
            pending_test = false;
        }
        i += 1;
    }
    ast.fns = fns;
}

/// Collect declared hash-container and float-evidence names.
///
/// Shapes recognized, for both: `name: Wrapper<…Type<…>>` (struct fields,
/// params, typed lets — any wrapper chain, so `Vec<FxHashMap<K, V>>`
/// counts) and `let [mut] name = … Type::new(…)` / `let [mut] name = <float
/// literal>`.
fn collect_decls(ast: &mut FileAst) {
    let mut hash_names = Vec::new();
    let mut float_names = Vec::new();
    for i in 0..ast.sig.len() {
        let t = &ast.sig[i];
        if t.kind == TokKind::Float {
            if let Some(name) = let_binding_before(ast, i) {
                push_unique(&mut float_names, name);
            }
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "f32" | "f64" => {
                if let Some(name) = typed_binding_before(ast, i) {
                    push_unique(&mut float_names, name);
                }
                continue;
            }
            "FxHashMap" | "FxHashSet" | "HashMap" | "HashSet" => {}
            _ => continue,
        }
        // A `Type::new(…)`-style initializer → walk back to the `let`
        // binding; else `name : …Type<` in type position → walk back past
        // wrappers to the `ident :` that opened the type.
        let constructed = ast.is_punct(i + 1, ":") && ast.is_punct(i + 2, ":");
        let name = constructed
            .then(|| let_binding_before(ast, i))
            .flatten()
            .or_else(|| typed_binding_before(ast, i));
        if let Some(name) = name {
            push_unique(&mut hash_names, name);
        }
    }
    ast.hash_names = hash_names;
    ast.float_names = float_names;
}

fn push_unique(v: &mut Vec<String>, s: String) {
    if !v.contains(&s) {
        v.push(s);
    }
}

/// If token `i` sits in the initializer of a `let [mut] NAME = …` on the
/// same statement, return NAME.
fn let_binding_before(ast: &FileAst, i: SigIdx) -> Option<String> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &ast.sig[j];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            return None;
        }
        if t.kind == TokKind::Punct && t.text == "=" {
            // `let mut? NAME (: Type)? =`
            let mut k = j;
            // Skip back over a type ascription.
            while k > 0 && !ast.is_punct(k - 1, ";") {
                k -= 1;
                if ast.is_ident(k, "let") {
                    let name_at = k + if ast.is_ident(k + 1, "mut") { 2 } else { 1 };
                    let nt = ast.sig.get(name_at)?;
                    if nt.kind == TokKind::Ident && !is_keyword(&nt.text) {
                        return Some(nt.text.clone());
                    }
                    return None;
                }
                if ast.sig[k].kind == TokKind::Punct
                    && matches!(ast.sig[k].text.as_str(), "{" | "}")
                {
                    return None;
                }
            }
            return None;
        }
    }
    None
}

/// If token `i` is part of a type written after `NAME :` (possibly wrapped:
/// `NAME: Arc<Vec<Mutex<T>>>`), return NAME.
fn typed_binding_before(ast: &FileAst, i: SigIdx) -> Option<String> {
    let mut j = i;
    let mut angle: i32 = 0;
    while j > 0 {
        j -= 1;
        let t = &ast.sig[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, ";" | "{" | "}" | "=" | ")" | "(") => return None,
            (TokKind::Punct, ">") => angle += 1,
            (TokKind::Punct, "<") => {
                if angle > 0 {
                    angle -= 1;
                }
                // keep walking: still inside the wrapper chain
            }
            (TokKind::Punct, ":") => {
                // `::` path separator is two adjacent `:` puncts.
                if j > 0 && ast.is_punct(j - 1, ":") {
                    j -= 1;
                    continue;
                }
                let nt = ast.sig.get(j.checked_sub(1)?)?;
                if nt.kind == TokKind::Ident && !is_keyword(&nt.text) {
                    return Some(nt.text.clone());
                }
                return None;
            }
            (TokKind::Ident, _) | (TokKind::Punct, ",") | (TokKind::Punct, "&") => {}
            (TokKind::Lifetime, _) => {}
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast_of(src: &str) -> FileAst {
        parse(&lex(src))
    }

    #[test]
    fn finds_fns_and_bodies() {
        let ast = ast_of("fn a() { b(); }\nimpl X { fn c(&self) -> u32 { 1 } }\n");
        let names: Vec<_> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn test_mods_and_test_fns_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { prod(); }\n    fn helper() {}\n}\n";
        let ast = ast_of(src);
        let by_name = |n: &str| ast.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("prod").is_test);
        assert!(by_name("t").is_test);
        assert!(
            by_name("helper").is_test,
            "fns inside #[cfg(test)] mod are test code"
        );
    }

    #[test]
    fn nested_fns_are_flagged_nested() {
        let ast = ast_of("fn outer() { fn inner() {} inner(); }\n");
        assert!(!ast.fns[0].nested);
        assert!(ast.fns[1].nested);
    }

    #[test]
    fn hash_names_cover_params_fields_and_constructed_locals() {
        let src = "struct S { by_key: FxHashMap<u64, u32> }\nfn f(seen: &mut HashSet<u32>) -> HashMap<u32, u32> {\n    let mut acc = FxHashMap::default();\n    acc\n}\n";
        assert_eq!(ast_of(src).hash_names, vec!["by_key", "seen", "acc"]);
    }

    #[test]
    fn float_names_from_types_and_literals() {
        let src = "fn f(rate: f64) { let mut acc = 0.0; let n: u32 = 1; let t: f32 = x; }\n";
        let ast = ast_of(src);
        assert!(ast.float_names.contains(&"rate".to_string()));
        assert!(ast.float_names.contains(&"acc".to_string()));
        assert!(ast.float_names.contains(&"t".to_string()));
        assert!(!ast.float_names.contains(&"n".to_string()));
    }

    #[test]
    fn statements_split_on_semis_and_braces() {
        let ast = ast_of("fn f() { let a = 1; if x { b(); } c(); }\n");
        let stmts = ast.statements(&ast.fns[0].body);
        // `let a = 1`, `if x`, `b()`, `c()`
        assert_eq!(stmts.len(), 4);
    }
}
