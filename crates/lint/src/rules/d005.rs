//! D005 `metricname`: metric names are greppable literals in a registered
//! namespace.
//!
//! Gates, goldens and the README metric table find series by name, so every
//! call of a metric emitter must pass a plain string literal as its first
//! argument, and that literal must live in [`D005_REGISTRY`] — in an open
//! namespace, or exactly one of a closed namespace's series.

use super::FileCtx;
use crate::lexer::TokKind;
use crate::{rel_allowed, Rule, Violation, D005_ALLOWED, D005_REGISTRY};

/// The metric emitters D005 covers.
const EMITTERS: [&str; 3] = ["counter_add", "gauge_set", "histogram_record"];

pub(crate) fn scan(ctx: &FileCtx<'_>, violations: &mut Vec<Violation>) {
    if rel_allowed(ctx.file, D005_ALLOWED) {
        return;
    }
    let ast = ctx.ast;
    let namespaces = || {
        let all: Vec<String> = D005_REGISTRY
            .iter()
            .map(|(ns, _)| format!("{ns}*"))
            .collect();
        all.join(" | ")
    };
    for f in ast.fns.iter().filter(|f| !f.nested) {
        for call in ast.calls_in(&f.body) {
            if call.is_macro || !EMITTERS.contains(&call.name.as_str()) {
                continue;
            }
            let name = ast
                .sig
                .get(call.at + 2)
                .filter(|arg| arg.kind == TokKind::Str)
                .map(|arg| arg.text.trim_matches('"'));
            let problem = match name {
                None => format!(
                    "`{}` call without a literal metric name — names must be greppable \
                     string literals in a registered namespace ({})",
                    call.name,
                    namespaces()
                ),
                Some(n) => match D005_REGISTRY.iter().find(|(ns, _)| n.starts_with(ns)) {
                    None => format!(
                        "metric name `{n}` outside the registered namespaces ({}) — \
                         register the namespace in clyde_lint::D005_REGISTRY or fix the name",
                        namespaces()
                    ),
                    Some((ns, Some(series))) if !series.contains(&n) => format!(
                        "unregistered series `{n}` — the {ns}* namespace is closed (CI \
                         gates read it by name); add the series to \
                         clyde_lint::D005_REGISTRY first"
                    ),
                    Some(_) => continue,
                },
            };
            violations.push(ctx.violation(call.line, Rule::MetricName, problem));
        }
    }
}
