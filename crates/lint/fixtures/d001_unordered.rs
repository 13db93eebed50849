//! D001 fixture: the residue clippy cannot see — a hash container drained
//! through `IntoIterator::into_iter`. This file is NOT compiled; the
//! fixture test must flag it.

use std::collections::HashMap;

pub fn report(counts: HashMap<String, u64>) -> Vec<String> {
    counts.into_iter().map(|(k, v)| format!("{k} = {v}")).collect()
}
