//! The result-cache catalog: fingerprint → persisted job output (ReStore).
//!
//! [`CacheCatalog`] is the pure bookkeeping half of the DFS-resident result
//! cache: it maps a 64-bit stage fingerprint to the DFS files holding that
//! stage's persisted output, with size accounting, optional pinning, and
//! LRU eviction under a configurable capacity budget. "LRU" here is ordered
//! by a *logical tick* the catalog increments on every lookup/insert — the
//! deterministic sim-time analogue of recency, so eviction decisions are
//! byte-identical across runs and host thread counts.
//!
//! The catalog itself is deliberately lock-free plain data (and must carry
//! no D004 `disallowed_types` exemption): the one lock guarding it lives in
//! the audited [`crate::dfs::Dfs`], which also owns the file side effects —
//! the catalog only ever *returns* the paths whose backing files should be
//! deleted (eviction victims, invalidated outputs) and never touches the
//! namespace itself.
//!
//! Coherence contract: an entry records the input paths its fingerprint was
//! derived from. `Dfs::delete` calls [`CacheCatalog::invalidate_path`] for
//! every deleted file, dropping any entry that used the file as an input
//! (fact-partition roll-out; the write-once namespace makes delete+recreate
//! the only way to change bytes behind an existing path) or as an output
//! (the cached copy itself is gone). Roll-*in* needs no hook: new files
//! change the resolved split list, so the fingerprint changes by itself.

use std::collections::BTreeMap;

/// Cumulative catalog counters, mirrored into the `cache.*` metric series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to make room under the capacity budget.
    pub evictions: u64,
    /// Entries dropped because an input (or their own output) was deleted.
    pub invalidations: u64,
    /// Entries admitted.
    pub inserts: u64,
    /// Total cached bytes returned by hits.
    pub bytes_served: u64,
    /// Bytes currently resident (gauge, not cumulative).
    pub bytes_stored: u64,
    /// Entries currently resident (gauge, not cumulative).
    pub entries: u64,
}

impl CacheStats {
    /// Counter-wise difference (`self - earlier`) for delta emission; the
    /// two gauges carry over from `self` unchanged.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            invalidations: self.invalidations - earlier.invalidations,
            inserts: self.inserts - earlier.inserts,
            bytes_served: self.bytes_served - earlier.bytes_served,
            bytes_stored: self.bytes_stored,
            entries: self.entries,
        }
    }
}

/// One cached stage output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The canonical stage fingerprint (`clyde_mapred::fingerprint`).
    pub fingerprint: u64,
    /// DFS files holding the persisted output, in read order.
    pub output_paths: Vec<String>,
    /// Total bytes across `output_paths` (size accounting).
    pub bytes: u64,
    /// Rows the original job returned in memory, if it was a Memory-output
    /// job (`None` for DfsDir stages).
    pub memory_rows: Option<u64>,
    /// Input files the fingerprint covered; deleting any of them drops the
    /// entry. Empty for lineage-fingerprinted stages, whose coherence rides
    /// on the upstream fingerprint instead.
    pub input_paths: Vec<String>,
    /// Logical tick of the last lookup or insert (LRU key).
    pub last_used: u64,
}

/// The fingerprint → entry catalog. Plain data: all locking and all file
/// deletion happen in the owning `Dfs`.
#[derive(Debug, Default)]
pub struct CacheCatalog {
    entries: BTreeMap<u64, CacheEntry>,
    /// Budget in bytes; 0 disables the cache entirely.
    capacity_bytes: u64,
    used_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    inserts: u64,
    bytes_served: u64,
}

impl CacheCatalog {
    pub fn new() -> CacheCatalog {
        CacheCatalog::default()
    }

    /// Set the capacity budget. Shrinking below current residency does not
    /// proactively evict; the next insert enforces the new budget.
    pub fn set_capacity(&mut self, bytes: u64) {
        self.capacity_bytes = bytes;
    }

    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            invalidations: self.invalidations,
            inserts: self.inserts,
            bytes_served: self.bytes_served,
            bytes_stored: self.used_bytes,
            entries: self.entries.len() as u64,
        }
    }

    /// Look up a fingerprint, bumping its recency on a hit. Counts a miss
    /// (and returns `None`) when disabled, so probe traffic against a
    /// switched-off cache is still visible in the stats.
    pub fn lookup(&mut self, fingerprint: u64) -> Option<CacheEntry> {
        self.tick += 1;
        match self.entries.get_mut(&fingerprint) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                self.bytes_served += e.bytes;
                Some(e.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Admit an entry, evicting least-recently-used entries until it fits.
    /// Returns the output files freed by eviction — the caller must delete
    /// them from the DFS. The insert is skipped (empty return) when the
    /// cache is disabled, the fingerprint is already resident, or the entry
    /// is larger than the whole budget.
    pub fn insert(&mut self, mut entry: CacheEntry) -> Vec<String> {
        if !self.enabled()
            || self.entries.contains_key(&entry.fingerprint)
            || entry.bytes > self.capacity_bytes
        {
            return Vec::new();
        }
        let mut freed = Vec::new();
        while self.used_bytes.saturating_add(entry.bytes) > self.capacity_bytes {
            let victim = self
                .entries
                .values()
                .min_by_key(|e| (e.last_used, e.fingerprint))
                .map(|e| e.fingerprint);
            let Some(fp) = victim else { break };
            if let Some(e) = self.entries.remove(&fp) {
                self.used_bytes -= e.bytes;
                self.evictions += 1;
                freed.extend(e.output_paths);
            }
        }
        self.tick += 1;
        entry.last_used = self.tick;
        self.used_bytes += entry.bytes;
        self.inserts += 1;
        self.entries.insert(entry.fingerprint, entry);
        freed
    }

    /// Whether a fingerprint is resident, without touching recency or
    /// hit/miss counters.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.entries.contains_key(&fingerprint)
    }

    /// Drop every entry that depends on `path` — as a fingerprinted input
    /// (roll-out coherence) or as one of its own persisted outputs (the
    /// cached bytes are gone). Returns the *other* output files of the
    /// dropped entries so the caller can delete them too (`path` itself is
    /// excluded: the caller is already deleting it).
    pub fn invalidate_path(&mut self, path: &str) -> Vec<String> {
        let stale: Vec<u64> = self
            .entries
            .values()
            .filter(|e| {
                e.input_paths.iter().any(|p| p == path) || e.output_paths.iter().any(|p| p == path)
            })
            .map(|e| e.fingerprint)
            .collect();
        let mut freed = Vec::new();
        for fp in stale {
            if let Some(e) = self.entries.remove(&fp) {
                self.used_bytes -= e.bytes;
                self.invalidations += 1;
                freed.extend(e.output_paths.into_iter().filter(|p| p != path));
            }
        }
        freed
    }

    /// Fingerprints currently resident, in order (tests and debugging).
    pub fn resident(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fp: u64, bytes: u64, inputs: &[&str]) -> CacheEntry {
        CacheEntry {
            fingerprint: fp,
            output_paths: vec![format!("/cache/{fp:016x}/rows.bin")],
            bytes,
            memory_rows: Some(1),
            input_paths: inputs.iter().map(|s| s.to_string()).collect(),
            last_used: 0,
        }
    }

    #[test]
    fn disabled_by_default() {
        let mut c = CacheCatalog::new();
        assert!(!c.enabled());
        assert!(c.insert(entry(1, 10, &[])).is_empty());
        assert!(c.lookup(1).is_none());
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn insert_lookup_roundtrip_counts() {
        let mut c = CacheCatalog::new();
        c.set_capacity(100);
        c.insert(entry(7, 40, &["/fact/a"]));
        let hit = c.lookup(7).unwrap();
        assert_eq!(hit.bytes, 40);
        assert!(c.lookup(8).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.bytes_served, 40);
        assert_eq!(s.bytes_stored, 40);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c = CacheCatalog::new();
        c.set_capacity(100);
        c.insert(entry(1, 40, &[]));
        c.insert(entry(2, 40, &[]));
        c.lookup(1); // 2 is now the LRU entry
        let freed = c.insert(entry(3, 40, &[]));
        assert_eq!(freed, vec![format!("/cache/{:016x}/rows.bin", 2u64)]);
        assert_eq!(c.resident(), vec![1, 3]);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().bytes_stored, 80);
    }

    #[test]
    fn oversized_entry_is_refused() {
        let mut c = CacheCatalog::new();
        c.set_capacity(100);
        c.insert(entry(1, 40, &[]));
        assert!(c.insert(entry(2, 101, &[])).is_empty());
        assert_eq!(c.resident(), vec![1]);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_by_input_and_by_output() {
        let mut c = CacheCatalog::new();
        c.set_capacity(1000);
        c.insert(entry(1, 10, &["/fact/p0", "/fact/p1"]));
        c.insert(entry(2, 10, &["/fact/p1"]));
        c.insert(entry(3, 10, &["/fact/p2"]));
        // Rolling out p1 drops entries 1 and 2; their cached files come back
        // for deletion.
        let freed = c.invalidate_path("/fact/p1");
        assert_eq!(freed.len(), 2);
        assert_eq!(c.resident(), vec![3]);
        assert_eq!(c.stats().invalidations, 2);
        // Deleting a cached output file drops its entry, excluding the path
        // being deleted from the returned list.
        let freed = c.invalidate_path(&format!("/cache/{:016x}/rows.bin", 3u64));
        assert!(freed.is_empty());
        assert!(c.resident().is_empty());
        assert_eq!(c.stats().bytes_stored, 0);
    }

    #[test]
    fn stats_delta() {
        let mut c = CacheCatalog::new();
        c.set_capacity(100);
        c.insert(entry(1, 10, &[]));
        let before = c.stats();
        c.lookup(1);
        c.lookup(2);
        let d = c.stats().delta_since(&before);
        assert_eq!((d.hits, d.misses, d.inserts), (1, 1, 0));
        assert_eq!(d.bytes_stored, 10);
        assert_eq!(d.entries, 1);
    }
}
