//! D001–D005: the line/token rules, unchanged in semantics from the
//! original scanner but fed by the lexer's masked rendering.

use super::FileCtx;
use crate::{
    rel_allowed, Rule, Violation, D002_ALLOWED, D004_AUDITED, D005_ALLOWED, D005_CACHE_METRICS,
    D005_NAMESPACES, D005_SCHEDULER_METRICS,
};

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `needle` occur in `hay` bounded by non-identifier characters?
pub(crate) fn contains_token(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0 || !is_ident_char(hay[..abs].chars().next_back().unwrap());
        let after = hay[abs + needle.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

/// Collect identifiers bound to hash containers in this file: `name:
/// FxHashMap<...>` declarations (lets, struct fields, parameters) and
/// `let name = FxHashMap::default()`-style initializations.
fn hash_container_names(masked: &[String]) -> Vec<String> {
    const TYPES: [&str; 4] = ["FxHashMap", "FxHashSet", "HashMap", "HashSet"];
    let mut names: Vec<String> = Vec::new();
    for line in masked {
        for ty in TYPES {
            let mut start = 0;
            while let Some(pos) = line[start..].find(ty) {
                let abs = start + pos;
                start = abs + ty.len();
                let before = &line[..abs];
                if before
                    .chars()
                    .next_back()
                    .is_some_and(|c| is_ident_char(c) && c != ':')
                {
                    continue; // part of a longer identifier
                }
                let name = if line[abs + ty.len()..].trim_start().starts_with("::") {
                    // `let [mut] name = FxHashMap::default()`
                    before
                        .rfind('=')
                        .map(|eq| before[..eq].trim_end())
                        .map(|d| {
                            d.rsplit(|c: char| !is_ident_char(c))
                                .next()
                                .unwrap_or("")
                                .to_string()
                        })
                } else {
                    // `name: [wrappers<]FxHashMap<...>` — walk back past `:`
                    // and any generic wrappers (`Mutex<`, `Arc<`, `&`, …).
                    before.rfind(':').map(|colon| {
                        let mut d = before[..colon].trim_end();
                        if d.ends_with(':') {
                            d = d[..d.len() - 1].trim_end(); // `::` path, not a decl
                            let _ = d;
                            return String::new();
                        }
                        d.rsplit(|c: char| !is_ident_char(c))
                            .next()
                            .unwrap_or("")
                            .to_string()
                    })
                };
                if let Some(n) = name {
                    if !n.is_empty()
                        && !n.chars().next().unwrap().is_numeric()
                        && n != "mut"
                        && !names.contains(&n)
                    {
                        names.push(n);
                    }
                }
            }
        }
    }
    names
}

/// Suffixes after a container name that constitute iteration.
const ITER_SUFFIXES: [&str; 6] = [
    ".iter()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
];

/// Same-line terminal reductions that are insensitive to iteration order.
const ORDER_FREE: [&str; 8] = [
    ".sum()",
    ".sum::<",
    ".count()",
    ".min()",
    ".max()",
    ".min_by",
    ".max_by",
    ".is_empty()",
];

/// Sort/ordered-collect patterns that discharge D001 when they appear on the
/// flagged line or within the next `D001_WINDOW` lines.
const SORTED_NEARBY: [&str; 7] = [
    ".sort()",
    ".sort_by",
    ".sort_unstable",
    ".sorted()",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

const D001_WINDOW: usize = 4;

pub(crate) fn d001_scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    let names = hash_container_names(ctx.masked);
    if names.is_empty() {
        return;
    }
    let lines = ctx.masked;
    for (idx, line) in lines.iter().enumerate() {
        let mut hit: Option<String> = None;
        for name in &names {
            let mut start = 0;
            while let Some(pos) = line[start..].find(name.as_str()) {
                let abs = start + pos;
                start = abs + name.len();
                let before_ok =
                    abs == 0 || !is_ident_char(line[..abs].chars().next_back().unwrap());
                if !before_ok {
                    continue;
                }
                let after = &line[abs + name.len()..];
                if ITER_SUFFIXES.iter().any(|s| after.starts_with(s)) {
                    hit = Some(format!("{name}{}", iter_suffix(after)));
                    break;
                }
                // `for x in [&[mut ]]name [{...]` — direct IntoIterator use.
                let head = &line[..abs];
                let head_t = head.trim_end();
                if (head_t.ends_with(" in") || head_t.ends_with("in &") || head_t.ends_with("&mut"))
                    && line.contains("for ")
                    && (after.trim_start().starts_with('{') || after.trim_end().is_empty())
                {
                    hit = Some(format!("for _ in {name}"));
                    break;
                }
            }
            if hit.is_some() {
                break;
            }
        }
        let Some(site) = hit else { continue };
        // Discharged by an order-insensitive reduction on the same line?
        if ORDER_FREE.iter().any(|p| line.contains(p)) {
            continue;
        }
        // Discharged by sorting/ordered-collection nearby?
        let window_end = (idx + 1 + D001_WINDOW).min(lines.len());
        if lines[idx..window_end]
            .iter()
            .any(|l| SORTED_NEARBY.iter().any(|p| l.contains(p)))
        {
            continue;
        }
        violations.push(Violation {
            file: ctx.file.to_path_buf(),
            line: idx + 1,
            rule: Rule::Unordered,
            message: format!(
                "unordered hash-container iteration `{site}` may leak nondeterministic \
                 order into output — sort nearby, collect into a BTreeMap/BTreeSet, or \
                 pragma with a reason the order cannot escape"
            ),
        });
    }
}

fn iter_suffix(after: &str) -> &'static str {
    for s in ITER_SUFFIXES {
        if after.starts_with(s) {
            return s;
        }
    }
    ""
}

pub(crate) fn d002_scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    if rel_allowed(ctx.file, D002_ALLOWED) {
        return;
    }
    const PATTERNS: [&str; 4] = [
        "Instant::now",
        "SystemTime",
        "std::time::Instant",
        "time::Instant",
    ];
    for (idx, line) in ctx.masked.iter().enumerate() {
        if let Some(p) = PATTERNS.iter().find(|p| line.contains(*p)) {
            violations.push(Violation {
                file: ctx.file.to_path_buf(),
                line: idx + 1,
                rule: Rule::WallClock,
                message: format!(
                    "`{p}` outside the wall-phase module — measure through \
                     clyde_common::obs::WallTimer (crates/common/src/obs/wall.rs) instead"
                ),
            });
        }
    }
}

pub(crate) fn d003_scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    const PATTERNS: [&str; 6] = [
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "RandomState",
        "rand::random",
    ];
    for (idx, line) in ctx.masked.iter().enumerate() {
        if let Some(p) = PATTERNS.iter().find(|p| contains_token(line, p)) {
            violations.push(Violation {
                file: ctx.file.to_path_buf(),
                line: idx + 1,
                rule: Rule::Entropy,
                message: format!(
                    "entropy-seeded randomness `{p}` — all RNG must flow from explicit \
                     seeds (splitmix64 plumbing in crates/mapred/src/fault.rs, SsbGen)"
                ),
            });
        }
    }
}

pub(crate) fn d004_scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    if rel_allowed(ctx.file, D004_AUDITED) {
        return;
    }
    const PATTERNS: [&str; 5] = [
        "thread::spawn",
        "thread::scope",
        "Mutex",
        "RwLock",
        "Condvar",
    ];
    for (idx, line) in ctx.masked.iter().enumerate() {
        if let Some(p) = PATTERNS
            .iter()
            .find(|p| line.contains(*p) && (p.contains("::") || contains_token(line, p)))
        {
            violations.push(Violation {
                file: ctx.file.to_path_buf(),
                line: idx + 1,
                rule: Rule::Concurrency,
                message: format!(
                    "concurrency primitive `{p}` outside the audited modules — shared \
                     mutable state belongs in the runners/engine/DFS state holders \
                     (see clyde_lint::D004_AUDITED); task code paths stay lock-free"
                ),
            });
        }
    }
}

/// The metric emitters D005 covers.
const D005_EMITTERS: [&str; 3] = ["counter_add", "gauge_set", "histogram_record"];

/// How many lines below an emitter call D005 searches for the name literal
/// (multi-line call sites put the name on the following line).
const D005_WINDOW: usize = 2;

/// Extract the first double-quoted literal from `raw`, starting no earlier
/// than byte `from`.
fn first_str_literal(raw: &str, from: usize) -> Option<&str> {
    let tail = raw.get(from..)?;
    let open = tail.find('"')?;
    let body = &tail[open + 1..];
    let close = body.find('"')?;
    Some(&body[..close])
}

pub(crate) fn d005_scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    if rel_allowed(ctx.file, D005_ALLOWED) {
        return;
    }
    let raw_lines: Vec<&str> = ctx.raw.lines().collect();
    for (idx, line) in ctx.masked.iter().enumerate() {
        let Some(emitter) = D005_EMITTERS.iter().find(|e| contains_token(line, e)) else {
            continue;
        };
        // A definition or forwarding signature, not a call site.
        if contains_token(line, "fn") {
            continue;
        }
        // The name literal: same line after the emitter token, or (for
        // wrapped calls) the first literal on one of the next few lines.
        let call_pos = line.find(emitter).unwrap_or(0);
        let mut name: Option<&str> = raw_lines
            .get(idx)
            .and_then(|r| first_str_literal(r, call_pos.min(r.len())));
        if name.is_none() {
            for look in raw_lines.iter().skip(idx + 1).take(D005_WINDOW) {
                name = first_str_literal(look, 0);
                if name.is_some() {
                    break;
                }
            }
        }
        match name {
            None => violations.push(Violation {
                file: ctx.file.to_path_buf(),
                line: idx + 1,
                rule: Rule::MetricName,
                message: format!(
                    "`{emitter}` call without a literal metric name — names must be \
                     greppable string literals in a registered namespace \
                     (mapred.* | dfs.* | scheduler.* | cache.*)"
                ),
            }),
            Some(n) if !D005_NAMESPACES.iter().any(|p| n.starts_with(p)) => {
                violations.push(Violation {
                    file: ctx.file.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::MetricName,
                    message: format!(
                        "metric name `{n}` outside the registered namespaces \
                         (mapred.* | dfs.* | scheduler.* | cache.*) — register \
                         the namespace in clyde_lint::D005_NAMESPACES or fix the name"
                    ),
                });
            }
            Some(n) if n.starts_with("scheduler.") && !D005_SCHEDULER_METRICS.contains(&n) => {
                violations.push(Violation {
                    file: ctx.file.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::MetricName,
                    message: format!(
                        "unregistered scheduler series `{n}` — the scheduler.* namespace \
                         is closed (the CI workload gate reads it by name); add the \
                         series to clyde_lint::D005_SCHEDULER_METRICS first"
                    ),
                });
            }
            Some(n) if n.starts_with("cache.") && !D005_CACHE_METRICS.contains(&n) => {
                violations.push(Violation {
                    file: ctx.file.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::MetricName,
                    message: format!(
                        "unregistered cache series `{n}` — the cache.* namespace is \
                         closed (the CI restore gate and shadow_check --restore read it \
                         by name); add the series to clyde_lint::D005_CACHE_METRICS first"
                    ),
                });
            }
            Some(_) => {}
        }
    }
}
