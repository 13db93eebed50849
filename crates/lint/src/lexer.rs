//! A hand-rolled, lossless Rust lexer.
//!
//! The analyzer's foundation: every rule pass consumes this token stream
//! (through [`crate::parse`]), never raw text.
//! Three properties matter more than speed (though it lexes the whole
//! workspace in milliseconds):
//!
//! 1. **Lossless**: concatenating `Tok::text` over the stream reproduces
//!    the input byte for byte. `tests/lexer_roundtrip.rs` asserts this over
//!    every source file in the workspace plus proptest-generated garbage.
//! 2. **Total**: any input lexes without panicking. Unterminated strings and
//!    comments run to EOF; unknown characters become one-char [`TokKind::Punct`]
//!    tokens. A lint must never crash on the code it audits.
//! 3. **Comment/string aware**: rule patterns must never match prose or
//!    literals, so comments and string/char literals are single tokens of
//!    their own kinds, never identifiers.
//!
//! The tricky corners are the usual ones: `'a` lifetimes vs `'a'` chars,
//! `r#"raw"#` strings vs `r#raw` identifiers, nested block comments, and
//! `1..n` ranges vs `1.` float literals.

/// Token classes. Deliberately coarse — the parser and rules only need to
/// distinguish identifiers, literal kinds, and trivia.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Whitespace run (newlines included).
    Ws,
    /// `// ...` up to (not including) the newline.
    LineComment,
    /// `/* ... */`, nesting honored, possibly spanning lines.
    BlockComment,
    /// Identifier or keyword (including raw identifiers `r#type`).
    Ident,
    /// `'a` / `'static` (not a char literal).
    Lifetime,
    /// Integer literal (`42`, `0xff_u32`, `0b01`).
    Int,
    /// Float literal (`1.0`, `2e-3`, `1f64`, `1.`).
    Float,
    /// String literal of any flavor: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// Char or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Any single punctuation/operator character.
    Punct,
}

/// One token: kind, exact source text, and the 1-based line of its first
/// character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// Trivia carries no structure: whitespace and comments.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
        )
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into a lossless token stream.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    toks: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, off: usize) -> Option<char> {
        self.chars.get(self.i + off).copied()
    }

    /// Consume `n` chars into the scratch string, counting newlines.
    fn take(&mut self, n: usize, buf: &mut String) {
        for _ in 0..n {
            if let Some(c) = self.chars.get(self.i) {
                if *c == '\n' {
                    self.line += 1;
                }
                buf.push(*c);
                self.i += 1;
            }
        }
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.toks.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let mut text = String::new();
            match c {
                c if c.is_whitespace() => {
                    while self.peek(0).is_some_and(|c| c.is_whitespace()) {
                        self.take(1, &mut text);
                    }
                    self.push(TokKind::Ws, text, line);
                }
                '/' if self.peek(1) == Some('/') => {
                    while self.peek(0).is_some_and(|c| c != '\n') {
                        self.take(1, &mut text);
                    }
                    self.push(TokKind::LineComment, text, line);
                }
                '/' if self.peek(1) == Some('*') => {
                    self.take(2, &mut text);
                    let mut depth = 1u32;
                    while depth > 0 {
                        match (self.peek(0), self.peek(1)) {
                            (Some('/'), Some('*')) => {
                                depth += 1;
                                self.take(2, &mut text);
                            }
                            (Some('*'), Some('/')) => {
                                depth -= 1;
                                self.take(2, &mut text);
                            }
                            (Some(_), _) => self.take(1, &mut text),
                            (None, _) => break, // unterminated: runs to EOF
                        }
                    }
                    self.push(TokKind::BlockComment, text, line);
                }
                '"' => {
                    self.lex_string(0, &mut text);
                    self.push(TokKind::Str, text, line);
                }
                '\'' => self.lex_quote(line),
                c if is_ident_start(c) => self.lex_ident_or_prefixed(line),
                c if c.is_ascii_digit() => {
                    self.lex_number(&mut text);
                    let kind = if Self::is_float(&text) {
                        TokKind::Float
                    } else {
                        TokKind::Int
                    };
                    self.push(kind, text, line);
                }
                _ => {
                    self.take(1, &mut text);
                    self.push(TokKind::Punct, text, line);
                }
            }
        }
        self.toks
    }

    /// `'a` lifetime vs `'x'` char literal. A lifetime is `'` + ident run
    /// *not* followed by a closing `'`.
    fn lex_quote(&mut self, line: u32) {
        let mut text = String::new();
        let next = self.peek(1);
        let is_lifetime = next.is_some_and(is_ident_start) && {
            let mut j = 2;
            while self.peek(j).is_some_and(is_ident_char) {
                j += 1;
            }
            self.peek(j) != Some('\'')
        };
        if is_lifetime {
            self.take(2, &mut text);
            while self.peek(0).is_some_and(is_ident_char) {
                self.take(1, &mut text);
            }
            self.push(TokKind::Lifetime, text, line);
            return;
        }
        // Char literal: consume until the closing quote, honoring escapes.
        // An unterminated char (stray quote) stops at the newline/EOF.
        self.take(1, &mut text);
        loop {
            match self.peek(0) {
                Some('\\') => self.take(2, &mut text),
                Some('\'') => {
                    self.take(1, &mut text);
                    break;
                }
                Some('\n') | None => break,
                Some(_) => self.take(1, &mut text),
            }
        }
        self.push(TokKind::Char, text, line);
    }

    /// Identifiers, plus the literal prefixes that look like identifiers:
    /// `r"…"`, `r#"…"#`, `b"…"`, `br"…"`, `b'…'`, and raw identifiers
    /// `r#name`.
    fn lex_ident_or_prefixed(&mut self, line: u32) {
        let mut text = String::new();
        while self.peek(0).is_some_and(is_ident_char) {
            self.take(1, &mut text);
        }
        let is_str_prefix = matches!(text.as_str(), "r" | "b" | "br" | "rb");
        match (is_str_prefix, self.peek(0)) {
            (true, Some('"')) => {
                self.lex_string(0, &mut text);
                self.push(TokKind::Str, text, line);
            }
            (true, Some('#')) if text != "b" => {
                // Count hashes; a quote after them is a raw string, an
                // ident-start is a raw identifier (`r#type`).
                let mut hashes = 0;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                match self.peek(hashes) {
                    Some('"') => {
                        self.take(hashes, &mut text);
                        self.lex_string(hashes, &mut text);
                        self.push(TokKind::Str, text, line);
                    }
                    Some(c) if is_ident_start(c) && hashes == 1 => {
                        self.take(1, &mut text);
                        while self.peek(0).is_some_and(is_ident_char) {
                            self.take(1, &mut text);
                        }
                        self.push(TokKind::Ident, text, line);
                    }
                    _ => self.push(TokKind::Ident, text, line),
                }
            }
            (true, Some('\'')) if text == "b" => {
                // Byte literal b'x': reuse the char path by splicing.
                let start = self.toks.len();
                self.lex_quote(line);
                if let Some(t) = self.toks.get_mut(start) {
                    t.text.insert_str(0, &text);
                    t.line = line;
                } else {
                    self.push(TokKind::Ident, text, line);
                }
            }
            _ => self.push(TokKind::Ident, text, line),
        }
    }

    /// Body of a (possibly raw) string literal; the opening delimiter is the
    /// current char. `hashes` is the raw-string hash count (0 = normal,
    /// escapes honored).
    fn lex_string(&mut self, hashes: usize, text: &mut String) {
        self.take(1, text); // opening quote
        loop {
            match self.peek(0) {
                None => break, // unterminated: runs to EOF
                Some('\\') if hashes == 0 => self.take(2, text),
                Some('"') => {
                    if hashes == 0 {
                        self.take(1, text);
                        break;
                    }
                    let mut seen = 0;
                    while seen < hashes && self.peek(1 + seen) == Some('#') {
                        seen += 1;
                    }
                    self.take(1 + seen, text);
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => self.take(1, text),
            }
        }
    }

    /// Numeric literal. `1..n` must lex as `Int(1) . .` — a dot only joins
    /// the number when followed by a digit, or when it ends the literal
    /// (`1. `, not `1.method()` and not `1..`).
    fn lex_number(&mut self, text: &mut String) {
        let radix_prefixed =
            self.peek(0) == Some('0') && matches!(self.peek(1), Some('x') | Some('o') | Some('b'));
        if radix_prefixed {
            self.take(2, text);
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.take(1, text);
            }
            return;
        }
        while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            self.take(1, text);
        }
        if self.peek(0) == Some('.') {
            match self.peek(1) {
                Some(c) if c.is_ascii_digit() => {
                    self.take(1, text);
                    while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                        self.take(1, text);
                    }
                }
                Some('.') => return,                    // range: 1..n
                Some(c) if is_ident_start(c) => return, // method: 1.min(x)
                _ => self.take(1, text),                // trailing dot: 1.
            }
        }
        // Exponent: e/E followed by an (optionally signed) digit.
        if matches!(self.peek(0), Some('e') | Some('E')) {
            let signed = matches!(self.peek(1), Some('+') | Some('-'));
            let digit_at = if signed { 2 } else { 1 };
            if self.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
                self.take(digit_at, text);
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.take(1, text);
                }
            }
        }
        // Type suffix (u32, f64, usize …) glues onto the literal.
        while self.peek(0).is_some_and(is_ident_char) {
            self.take(1, text);
        }
    }

    fn is_float(text: &str) -> bool {
        let body = text.trim_end_matches(|c: char| c.is_ascii_alphabetic() && c != 'e' && c != 'E');
        text.contains('.')
            || body.contains(['e', 'E'])
            || text.ends_with("f32")
            || text.ends_with("f64")
    }
}

/// Every `//` comment with its 1-based line number and the text after the
/// slashes — the pragma parser's input.
pub fn line_comments(toks: &[Tok]) -> Vec<(usize, String)> {
    toks.iter()
        .filter(|t| t.kind == TokKind::LineComment)
        .map(|t| {
            (
                t.line as usize,
                t.text.strip_prefix("//").unwrap_or(&t.text).to_string(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let toks = lex(src);
        let emitted: String = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(emitted, src, "lex must be lossless");
        assert_eq!(lex(&emitted), toks, "re-lex must be stable");
    }

    #[test]
    fn lossless_over_tricky_corners() {
        roundtrip("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        roundtrip("let r = r#\"raw \" string\"#; let id = r#type;\n");
        roundtrip("let b = b\"bytes\"; let c = b'x'; let n = 0xff_u32;\n");
        roundtrip("for i in 0..n { let f = 1.5e-3f64; let g = 1.; }\n");
        roundtrip("/* outer /* nested */ still comment */ let x = 1;\n");
        roundtrip("// line comment with \"quote\" and 'tick\nlet y = 2;\n");
        roundtrip("let v = vec![1, 2]; let s = \"esc \\\" quote\";\n");
    }

    #[test]
    fn total_on_garbage() {
        roundtrip("\"unterminated");
        roundtrip("/* unterminated");
        roundtrip("'");
        roundtrip("r#\"unterminated raw");
        roundtrip("\u{1f980} émoji § idents");
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let toks: Vec<_> = lex("0..n").into_iter().filter(|t| !t.is_trivia()).collect();
        assert_eq!(toks[0].kind, TokKind::Int);
        assert_eq!(toks[0].text, "0");
        assert_eq!(toks[1].text, ".");
        assert_eq!(toks[2].text, ".");
        assert_eq!(toks[3].kind, TokKind::Ident);
    }

    #[test]
    fn float_vs_int_kinds() {
        let kind = |s: &str| lex(s).into_iter().find(|t| !t.is_trivia()).unwrap().kind;
        assert_eq!(kind("1.0"), TokKind::Float);
        assert_eq!(kind("1f64"), TokKind::Float);
        assert_eq!(kind("2e-3"), TokKind::Float);
        assert_eq!(kind("42"), TokKind::Int);
        assert_eq!(kind("0xff"), TokKind::Int);
        assert_eq!(kind("1_000u64"), TokKind::Int);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks: Vec<_> = lex("&'a str; '\\n'; 'x'; '_'")
            .into_iter()
            .filter(|t| !t.is_trivia())
            .collect();
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
    }

    #[test]
    fn literals_and_comments_are_never_identifiers() {
        let toks = lex("let s = \"Mutex\"; // Instant::now\nlet t = 1;\n");
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "s", "let", "t"]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let toks = lex("a\n\"multi\nline\"\n/* c\nc */\nb");
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 6);
    }
}
