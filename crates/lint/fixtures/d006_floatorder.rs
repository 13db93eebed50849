//! D006 fixture: unpinned float reductions in merge-scope code. The
//! fixture test scans this file *as* `crates/core/src/mtrunner.rs`, so the
//! merge-scope plumbing itself is exercised. This file is NOT compiled.

/// Float accumulation in a loop: the iteration order decides the sum.
pub fn merge_partials(parts: &[Vec<f64>]) -> f64 {
    let mut total = 0.0;
    for p in parts {
        for v in p {
            total += *v;
        }
    }
    total
}

/// `fold` is flagged unconditionally in merge scope: the closure's
/// associativity is unknowable statically.
pub fn fold_merge(accs: Vec<i64>) -> i64 {
    accs.into_iter().fold(0, |a, b| a.wrapping_add(b))
}

/// `.sum()` with float evidence (the turbofish) on the same statement.
pub fn sum_merge(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>()
}

/// Integer `.sum()` commutes — must NOT be flagged.
pub fn total_len(runs: &[Vec<u8>]) -> usize {
    runs.iter().map(Vec::len).sum()
}
