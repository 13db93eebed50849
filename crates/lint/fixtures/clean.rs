//! Clean fixture: deterministic idioms and correctly pragma'd exceptions.
//! `clyde-lint --self-test` must find nothing here. Prose mentions of
//! HashMap, Mutex, Instant::now, and thread_rng must not trip the scanner
//! (comments and strings are not identifier tokens).

use std::collections::{BTreeMap, HashMap};

/// Sorted drain: hash-map contents leave through an ordered vector.
pub fn sorted_report(counts: &HashMap<String, u64>) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = counts.iter().map(|(k, v)| (k.clone(), *v)).collect();
    rows.sort();
    rows
}

/// Ordered by construction.
pub fn tree_report(tree: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (k, v) in tree {
        out.push_str(&format!("{k} = {v}\n"));
    }
    out
}

/// Order-insensitive reduction on the same line is fine.
pub fn total(counts: &HashMap<String, u64>) -> u64 {
    counts.values().sum()
}

/// A justified exception rides on a pragma with a mandatory reason.
pub fn xor_digest(counts: &HashMap<String, u64>) -> u64 {
    // clyde-lint: allow(unordered, reason=xor fold is commutative, order cannot escape)
    counts.values().fold(0u64, |acc, &v| acc ^ v)
}

pub fn describe() -> &'static str {
    "strings mentioning Mutex, RwLock, Instant::now and thread_rng are not code"
}
