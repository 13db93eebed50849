//! The one place work fans out to threads (DESIGN.md §9, D004).
//!
//! Every parallel step of a job — the map wave's per-node workers, the
//! reduce wave's, `MTMapRunner`'s probe threads and the parallel dimension
//! builds — is a list of queues, each drained by one worker. [`fan_out`]
//! runs them: the calling thread drains the first queue itself and every
//! other queue gets one scoped thread, so a one-queue step (a one-node job,
//! one host thread, one dimension to build) spawns nothing.

use clyde_common::{ClydeError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `run` once per queue — the first on the calling thread, each other
/// on its own scoped thread — and return the results in queue order. A
/// queue whose `run` panics, the caller's own included, yields
/// `panicked(i)` (`i` its index) in its slot instead: a panic never
/// unwinds out of the fan-out, and the other queues still run to the end.
pub fn fan_out<Q: Send, R: Send>(
    queues: Vec<Q>,
    run: impl Fn(Q) -> R + Sync,
    panicked: impl Fn(usize) -> ClydeError,
) -> Vec<Result<R>> {
    let run = &run;
    let mut queues = queues.into_iter();
    let Some(first) = queues.next() else {
        return Vec::new();
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "D004 audit: the fan-out helper is the one thread spawn site; every worker \
                  is joined here and its result returned in queue order"
    )]
    let joined = std::thread::scope(|scope| {
        let workers: Vec<_> = queues.map(|q| scope.spawn(move || run(q))).collect();
        let mut joined = Vec::with_capacity(workers.len() + 1);
        joined.push(catch_unwind(AssertUnwindSafe(|| run(first))));
        joined.extend(workers.into_iter().map(|w| w.join()));
        joined
    });
    joined
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|_| panicked(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panicked(i: usize) -> ClydeError {
        ClydeError::MapReduce(format!("queue {i} panicked"))
    }

    #[test]
    fn results_come_back_in_queue_order() {
        let out = fan_out((0..5u64).collect(), |q| q * 10, panicked);
        let out: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(out, [0, 10, 20, 30, 40]);
        assert!(fan_out(Vec::<u64>::new(), |q| q, panicked).is_empty());
    }

    #[test]
    fn the_caller_runs_the_first_queue_and_spawns_one_thread_per_other() {
        let caller = std::thread::current().id();
        for n in 1..4 {
            let ids = fan_out(vec![(); n], |()| std::thread::current().id(), panicked);
            let ids: Vec<_> = ids.into_iter().map(Result::unwrap).collect();
            assert_eq!(ids.first(), Some(&caller), "{n} queues");
            for (i, id) in ids.iter().enumerate().skip(1) {
                assert_ne!(*id, caller, "queue {i} of {n}");
                assert!(
                    !ids[..i].contains(id),
                    "queue {i} of {n} has its own thread"
                );
            }
        }
    }

    #[test]
    fn a_panic_on_any_queue_is_its_typed_error_and_the_rest_still_run() {
        for (queues, bad) in [(1, 0), (3, 0), (3, 2)] {
            let out = fan_out(
                (0..queues).collect(),
                |q: usize| {
                    assert_ne!(q, bad, "queue bug");
                    q
                },
                panicked,
            );
            for (i, r) in out.into_iter().enumerate() {
                if i == bad {
                    assert_eq!(r.unwrap_err().to_string(), panicked(bad).to_string());
                } else {
                    assert_eq!(r.unwrap(), i);
                }
            }
        }
    }
}
