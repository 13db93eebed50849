//! P001 fixture: a well-formed pragma with nothing left to suppress. The
//! ordered map it once excused is gone, so the exemption would silence the
//! next unordered iteration written on the line below. This file is NOT
//! compiled.

use std::collections::BTreeMap;

pub fn totals(m: &BTreeMap<u32, u64>) -> Vec<u64> {
    // clyde-lint: allow(unordered, reason=the map used to be an FxHashMap)
    m.values().copied().collect()
}
