//! Lock-order-checking `Mutex`/`RwLock` wrappers (debug builds only).
//!
//! Deadlocks are the one concurrency bug the deterministic substrate cannot
//! replay its way out of: a cyclic lock acquisition may only bite under a
//! rare interleaving, long after the code that introduced it merged. This
//! module makes the *ordering discipline* checkable on every debug run:
//!
//! * every lock belongs to a **class**, identified by the source location of
//!   its `new()` call (so the per-node mutexes of `LocalStore` form one
//!   class, the DFS state lock another);
//! * each thread tracks the classes it currently holds;
//! * acquiring class `B` while holding class `A` records the edge `A → B` in
//!   a global acquisition graph; if `B` can already reach `A`, the two
//!   orders are inconsistent and the checker panics *at acquisition time* —
//!   even though this particular interleaving did not deadlock;
//! * re-acquiring the **same instance** on the same thread (a guaranteed
//!   self-deadlock for these non-reentrant primitives) panics immediately,
//!   except for `read()` after `read()`, which is merely hazardous and is
//!   left to the class-level graph.
//!
//! Known limitation: the graph works on classes, not instances, so nesting
//! two *different* instances of the same class (e.g. locking two per-node
//! maps at once) is reported as a self-cycle — such code must either be
//! redesigned to lock one instance at a time or be listed, with its reason,
//! in `tests/lock_nesting.rs`. `try_lock` records the hold (so later edges out
//! of it are seen) but inserts no edges itself: inconsistent-order
//! `try_lock` is a legitimate deadlock-*avoidance* pattern.
//!
//! In release builds every check compiles away; the wrappers are transparent
//! poison-free shells over `std::sync` (a poisoned lock yields its guard,
//! matching `parking_lot` semantics — the substrate treats a panicking
//! holder as a task failure, not as data corruption).

#![expect(
    clippy::disallowed_types,
    reason = "D004 audit: the lock-order checker defines the audited lock wrappers"
)]

use std::fmt;
use std::sync::{self, TryLockError};

#[cfg(debug_assertions)]
use std::panic::Location;

#[cfg(debug_assertions)]
mod track {
    use super::Location;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};

    /// A lock class: the source location of the wrapper's constructor call.
    pub(super) type Class = &'static Location<'static>;

    /// Orderable key for a class (Location is not Ord).
    type ClassKey = (&'static str, u32, u32);

    fn key(c: Class) -> ClassKey {
        (c.file(), c.line(), c.column())
    }

    /// How a hold was taken; shared read holds of one instance may coexist.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(super) enum Access {
        Shared,
        Exclusive,
    }

    struct HeldEntry {
        token: u64,
        class: Class,
        instance: usize,
        access: Access,
    }

    thread_local! {
        static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(0) };
    }

    /// `from → {to}` acquisition edges observed so far, workspace-global.
    static GRAPH: sync::Mutex<Option<BTreeMap<ClassKey, BTreeSet<ClassKey>>>> =
        sync::Mutex::new(None);

    use std::sync;

    fn with_graph<R>(f: impl FnOnce(&mut BTreeMap<ClassKey, BTreeSet<ClassKey>>) -> R) -> R {
        let mut g = match GRAPH.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        f(g.get_or_insert_with(BTreeMap::new))
    }

    /// Every recorded edge as a `(from, to)` pair of constructor files,
    /// sorted and de-duplicated.
    pub(super) fn observed_edges() -> Vec<(&'static str, &'static str)> {
        let edges: BTreeSet<(&'static str, &'static str)> = with_graph(|g| {
            g.iter()
                .flat_map(|(from, tos)| tos.iter().map(move |to| (from.0, to.0)))
                .collect()
        });
        edges.into_iter().collect()
    }

    /// Is `to` reachable from `from` over recorded edges?
    fn reaches(
        graph: &BTreeMap<ClassKey, BTreeSet<ClassKey>>,
        from: ClassKey,
        to: ClassKey,
    ) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = graph.get(&n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    /// Popped on drop; removal is by token so guards may drop in any order.
    pub(super) struct Held {
        token: u64,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            let token = self.token;
            // Ignore access errors during thread teardown: if the
            // thread-local was already destroyed there is nothing to pop.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().position(|e| e.token == token) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Record an acquisition of `class` on this thread and enforce ordering.
    /// `check_edges` is false for try-acquires.
    #[expect(
        clippy::panic,
        reason = "debug-build deadlock detector: the abort is the check"
    )]
    pub(super) fn acquire(
        class: Class,
        instance: usize,
        access: Access,
        check_edges: bool,
    ) -> Held {
        let token = NEXT_TOKEN.with(|t| {
            let mut t = t.borrow_mut();
            *t += 1;
            *t
        });
        let mut cycle: Option<(Class, ClassKey)> = None;
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for e in held.iter() {
                if e.instance == instance
                    && !(e.access == Access::Shared && access == Access::Shared)
                {
                    panic!(
                        "lock-order checker: recursive acquisition of the lock \
                         constructed at {class} on one thread (guaranteed deadlock)",
                    );
                }
            }
            if check_edges {
                let to = key(class);
                for e in held.iter() {
                    if e.instance == instance {
                        // Same instance, shared-shared: no ordering edge.
                        continue;
                    }
                    let from = key(e.class);
                    if from == to {
                        // Same-class instance nesting: indistinguishable from
                        // a self-cycle at class granularity (module docs).
                        cycle = Some((e.class, to));
                        break;
                    }
                    let closes = with_graph(|g| {
                        if g.get(&from).is_some_and(|s| s.contains(&to)) {
                            return false; // already recorded, already acyclic
                        }
                        if reaches(g, to, from) {
                            return true;
                        }
                        g.entry(from).or_default().insert(to);
                        false
                    });
                    if closes {
                        cycle = Some((e.class, to));
                        break;
                    }
                }
            }
            if cycle.is_none() {
                held.push(HeldEntry {
                    token,
                    class,
                    instance,
                    access,
                });
            }
        });
        if let Some((holding, _)) = cycle {
            panic!(
                "lock-order checker: acquiring the lock constructed at {class} while \
                 holding the one from {holding} inverts an acquisition order already \
                 observed elsewhere (potential deadlock cycle)",
            );
        }
        Held { token }
    }
}

/// The acquisition edges this process has recorded so far, at file level:
/// `(a, b)` means a lock constructed in file `a` was held while one
/// constructed in file `b` was taken. Sorted, each pair once. Debug builds
/// only; a test binary that runs one test sees exactly that test's nesting.
#[cfg(debug_assertions)]
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    track::observed_edges()
}

/// A mutual-exclusion lock whose acquisition order is checked in debug builds.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static Location<'static>,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; releases the lock (and the checker's hold
/// record) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: track::Held,
}

impl<T> Mutex<T> {
    #[track_caller]
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(debug_assertions)]
            class: Location::caller(),
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg(debug_assertions)]
    fn instance(&self) -> usize {
        self as *const Mutex<T> as *const () as usize
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = track::acquire(self.class, self.instance(), track::Access::Exclusive, true);
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        let held = track::acquire(self.class, self.instance(), track::Access::Exclusive, false);
        Some(MutexGuard {
            inner,
            #[cfg(debug_assertions)]
            _held: held,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock whose acquisition order is checked in debug builds.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static Location<'static>,
    inner: sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: track::Held,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: track::Held,
}

impl<T> RwLock<T> {
    #[track_caller]
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            #[cfg(debug_assertions)]
            class: Location::caller(),
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg(debug_assertions)]
    fn instance(&self) -> usize {
        self as *const RwLock<T> as *const () as usize
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = track::acquire(self.class, self.instance(), track::Access::Shared, true);
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard {
            inner,
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = track::acquire(self.class, self.instance(), track::Access::Exclusive, true);
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard {
            inner,
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn consistent_nesting_is_fine() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        for _ in 0..2 {
            let ga = a.lock();
            let gb = b.lock();
            drop(ga); // out-of-order *release* is fine
            drop(gb);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "recursive acquisition")]
    fn recursive_lock_panics() {
        let m = Mutex::new(0);
        let _g = m.lock();
        let _g2 = m.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "inverts an acquisition order")]
    fn inverted_order_panics() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let _gb = b.lock();
        let _ga = a.lock(); // closes the cycle: a → b recorded, now b → a
    }

    #[cfg(debug_assertions)]
    #[test]
    fn observed_edges_name_the_constructor_files() {
        let a = Mutex::new(());
        let b = RwLock::new(());
        let _ga = a.lock();
        let _gb = b.read();
        assert!(observed_edges().contains(&(file!(), file!())));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn shared_reads_of_one_instance_coexist() {
        let l = RwLock::new(5);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
    }
}
