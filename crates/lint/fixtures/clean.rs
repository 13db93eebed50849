//! Clean fixture: deterministic idioms and correctly pragma'd exceptions.
//! The fixture test must find nothing here, scanned as engine code or not.
//! Prose mentions of `m.into_iter()` and `xs[0]` must not trip the scanner
//! (comments and strings are not code).

use std::collections::{BTreeMap, HashMap};

/// Ordered by construction.
pub fn tree_report(tree: BTreeMap<String, u64>) -> Vec<String> {
    tree.into_iter().map(|(k, v)| format!("{k} = {v}")).collect()
}

/// A justified exception rides on a pragma with a mandatory reason.
pub fn xor_digest(counts: HashMap<String, u64>) -> u64 {
    // clyde-lint: allow(unordered, reason=xor fold is commutative, order cannot escape)
    counts.into_iter().fold(0u64, |acc, (_, v)| acc ^ v)
}

pub fn describe() -> &'static str {
    "strings mentioning m.into_iter() and xs[0] are not code"
}
