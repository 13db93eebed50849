//! Minimal JSON support: the one codec for trace validation and for the
//! committed `BENCH_*.json` artifacts.
//!
//! The workspace is offline and dependency-free by design, so the Chrome
//! trace writer hand-assembles its JSON; everything that *reads* JSON goes
//! through [`parse`], and the bench artifacts are built as [`Json`] values
//! and written with [`Json::render`], so what a gate reads back is what a
//! writer produced (`parse(render(v)) == v`).

/// Escape a string for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with the given members, in the given order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` rounded to `places` decimals exactly as `{:.places$}` prints it —
    /// artifacts record rounded numbers so a re-record only moves a digit
    /// when the quantity really moved.
    pub fn fixed(v: f64, places: usize) -> Json {
        // A formatted f64 always parses back; `v` itself is the fallback.
        Json::Num(format!("{v:.places$}").parse().unwrap_or(v))
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Resolve a path of object keys from this value; `None` as soon as a
    /// segment is not a member of the object reached so far.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize as an indented document (two spaces per level, one member
    /// per line, trailing newline). Numbers print in Rust's shortest
    /// round-trip form, so [`parse`] returns an equal value; JSON has no
    /// NaN or infinity, so those become `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.render_into(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\": ");
                    value.render_into(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        text,
        bytes,
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()))
        {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: every escape and delimiter
                    // is ASCII, so `pos` stays on a char boundary.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("not a char boundary at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Any JSON value `render` can represent exactly: finite numbers,
    /// strings over every char (quotes, backslashes and controls included),
    /// arrays and objects nested `depth` levels.
    fn arb_json(depth: u32) -> BoxedStrategy<Json> {
        let text = || {
            proptest::collection::vec(any::<char>(), 0..8)
                .prop_map(|cs| cs.into_iter().collect::<String>())
        };
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<f64>().prop_map(|n| Json::Num(if n.is_finite() { n } else { 0.5 })),
            text().prop_map(Json::Str),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        prop_oneof![
            leaf,
            proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Json::Arr),
            proptest::collection::vec((text(), arb_json(depth - 1)), 0..4).prop_map(Json::Obj),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn parse_inverts_render(v in arb_json(3)) {
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }
    }

    #[test]
    fn render_is_indented_and_paths_resolve() {
        let doc = Json::obj([
            ("sf", Json::Num(0.005)),
            (
                "policies",
                Json::obj([("fifo", Json::obj([("jobs", Json::Num(31.0))]))]),
            ),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"sf\": 0.005,\n  \"policies\": {\n    \"fifo\": {\n      \"jobs\": 31\n    }\n  },\n  \"empty\": []\n}\n"
        );
        assert_eq!(
            doc.at(&["policies", "fifo", "jobs"]),
            Some(&Json::Num(31.0))
        );
        assert_eq!(doc.at(&["policies", "fair", "jobs"]), None);
        assert_eq!(doc.at(&["sf", "jobs"]), None);
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }

    #[test]
    fn fixed_rounds_like_the_format_spec() {
        assert_eq!(Json::fixed(13.2549, 2), Json::Num(13.25));
        assert_eq!(Json::fixed(9.999, 2), Json::Num(10.0));
        assert_eq!(Json::fixed(1234.5678, 0), Json::Num(1235.0));
    }

    #[test]
    fn escape_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn parse_round_trips_trace_shape() {
        let doc = r#"{"traceEvents":[{"name":"map 0","ph":"X","ts":0,"dur":1500,"pid":0,"tid":1,"args":{"rows":"42"}}],"displayTimeUnit":"ms"}"#;
        let v = parse(doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("map 0"));
        assert_eq!(events[0].get("dur").unwrap().as_num(), Some(1500.0));
        assert_eq!(
            events[0].get("args").unwrap().get("rows").unwrap().as_str(),
            Some("42")
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let v = parse(r#"{"s":"a\"\nA","n":-1.5e2,"b":true,"z":null}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"\nA"));
        assert_eq!(v.get("n").unwrap().as_num(), Some(-150.0));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("z"), Some(&Json::Null));
    }
}
