//! The compiled fixture of the clippy half of the gate (DESIGN.md §9): one
//! violation for each lint the engine crates enable and each `clippy.toml`
//! entry, each under its own `#[expect]`. If a lint or an entry stops
//! firing — renamed, dropped from the config, or its path no longer
//! resolving — the expectation goes unfulfilled and
//! `cargo clippy -- -D warnings` fails. Nothing calls these functions.
//!
//! The `#![warn]` below repeats the engine-only half of the workspace
//! `[lints]` table; this crate itself is not engine code.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use clyde_common::{lockorder, FxHashMap, FxHashSet};
use std::collections::{HashMap, HashSet};

// ---- D007: panics and unchecked indexing (workspace `[lints]`) ----

#[expect(clippy::unwrap_used, reason = "canary")]
pub fn unwrap_used(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[expect(clippy::expect_used, reason = "canary")]
pub fn expect_used(x: Option<u8>) -> u8 {
    x.expect("canary")
}

#[expect(clippy::panic, reason = "canary")]
pub fn panic() {
    panic!("canary")
}

#[expect(clippy::unreachable, reason = "canary")]
pub fn unreachable() {
    unreachable!("canary")
}

#[expect(clippy::todo, reason = "canary")]
pub fn todo() {
    todo!("canary")
}

#[expect(clippy::unimplemented, reason = "canary")]
pub fn unimplemented() {
    unimplemented!("canary")
}

#[expect(clippy::indexing_slicing, reason = "canary")]
pub fn vec_indexing(xs: &[u8]) -> u8 {
    xs[1]
}

#[expect(clippy::indexing_slicing, reason = "canary")]
pub fn slice_range(xs: &[u8]) -> &[u8] {
    &xs[1..]
}

#[expect(clippy::string_slice, reason = "canary")]
pub fn str_range(s: &str) -> &str {
    &s[1..]
}

// ---- D001: hash order (`iter_over_hash_type` and `disallowed-methods`) ----

#[expect(clippy::iter_over_hash_type, reason = "canary")]
pub fn for_over_hash(m: &FxHashMap<u8, u8>) -> usize {
    let mut n = 0;
    for _ in m {
        n += 1;
    }
    n
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::iter")]
pub fn map_iter(m: &FxHashMap<u8, u8>) -> usize {
    m.iter().count()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::iter_mut")]
pub fn map_iter_mut(m: &mut FxHashMap<u8, u8>) -> usize {
    m.iter_mut().count()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::keys")]
pub fn map_keys(m: &FxHashMap<u8, u8>) -> usize {
    m.keys().count()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::values")]
pub fn map_values(m: &FxHashMap<u8, u8>) -> Vec<u8> {
    m.values().copied().collect()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::values_mut")]
pub fn map_values_mut(m: &mut FxHashMap<u8, u8>) -> usize {
    m.values_mut().count()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::drain")]
pub fn map_drain(m: &mut FxHashMap<u8, u8>) -> usize {
    m.drain().count()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::into_keys")]
pub fn map_into_keys(m: FxHashMap<u8, u8>) -> usize {
    m.into_keys().count()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::into_values")]
pub fn map_into_values(m: FxHashMap<u8, u8>) -> usize {
    m.into_values().count()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashSet::iter")]
pub fn set_iter(s: &FxHashSet<u8>) -> usize {
    s.iter().count()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashSet::drain")]
pub fn set_drain(s: &mut FxHashSet<u8>) -> usize {
    s.drain().count()
}

// ---- D002 wall clock, D003 entropy, D004 threads (`disallowed-methods`) ----

#[expect(clippy::disallowed_methods, reason = "canary: Instant::now")]
pub fn instant_now() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_methods, reason = "canary: SystemTime::now")]
pub fn system_time_now() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

#[expect(clippy::disallowed_methods, reason = "canary: RandomState::new")]
pub fn random_state() -> std::hash::RandomState {
    std::hash::RandomState::new()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::new")]
pub fn map_new() -> HashMap<u8, u8> {
    HashMap::new()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashMap::with_capacity")]
pub fn map_with_capacity() -> HashMap<u8, u8> {
    HashMap::with_capacity(1)
}

#[expect(clippy::disallowed_methods, reason = "canary: HashSet::new")]
pub fn set_new() -> HashSet<u8> {
    HashSet::new()
}

#[expect(clippy::disallowed_methods, reason = "canary: HashSet::with_capacity")]
pub fn set_with_capacity() -> HashSet<u8> {
    HashSet::with_capacity(1)
}

#[expect(clippy::disallowed_methods, reason = "canary: thread::spawn")]
pub fn thread_spawn() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}

#[expect(clippy::disallowed_methods, reason = "canary: thread::scope")]
pub fn thread_scope() {
    std::thread::scope(|_| {});
}

// ---- D004: locks (`disallowed-types`) ----

#[expect(clippy::disallowed_types, reason = "canary: std::sync::Mutex")]
pub fn std_mutex(_: &std::sync::Mutex<u8>) {}

#[expect(clippy::disallowed_types, reason = "canary: std::sync::RwLock")]
pub fn std_rwlock(_: &std::sync::RwLock<u8>) {}

#[expect(clippy::disallowed_types, reason = "canary: std::sync::Condvar")]
pub fn std_condvar(_: &std::sync::Condvar) {}

#[expect(clippy::disallowed_types, reason = "canary: lockorder::Mutex")]
pub fn lockorder_mutex(_: &lockorder::Mutex<u8>) {}

#[expect(clippy::disallowed_types, reason = "canary: lockorder::RwLock")]
pub fn lockorder_rwlock(_: &lockorder::RwLock<u8>) {}

// ---- Exemptions are `#[expect]`s with reasons ----

#[expect(clippy::allow_attributes, reason = "canary")]
#[allow(dead_code, reason = "canary")]
pub fn allow_attribute() {}

#[expect(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    reason = "canary"
)]
#[allow(dead_code)]
pub fn allow_without_reason() {}
