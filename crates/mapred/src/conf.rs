//! Job configuration — the analog of Hadoop's `JobConf`.
//!
//! Hadoop jobs pass query parameters to their tasks as `JobConf` string
//! properties (the paper's Figure 4 sets `dimtables.directory` this way).
//! No planner here does: each carries its parameters in the input format
//! and map runner it builds, so every job's conf is empty. The type stays
//! because the `InputFormat::splits` and `MapTaskContext` signatures carry
//! it, as Hadoop's do, and because the result-cache fingerprint hashes it,
//! which keeps a cached result sound if a key is ever set.

use std::collections::BTreeMap;

/// A string-keyed configuration map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobConf {
    values: BTreeMap<String, String>,
}

impl JobConf {
    pub fn new() -> JobConf {
        JobConf::default()
    }

    /// Set a property, returning `self` for chaining.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.values.insert(key.into(), value.into());
        self
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites_and_iteration_is_sorted() {
        let mut c = JobConf::new();
        assert!(c.is_empty());
        c.set("z", "1").set("a", "2").set("z", "3");
        let all: Vec<(&str, &str)> = c.iter().collect();
        assert_eq!(all, vec![("a", "2"), ("z", "3")]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }
}
