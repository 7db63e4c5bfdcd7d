#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-exec
//!
//! The workspace's one executor: deterministic parallel execution of
//! index-addressed work.
//!
//! The model: a batch is a list of *work items* addressed by index (the
//! `(seed, query)` pairs of a sweep, the repetitions of a figure). A fixed
//! set of `jobs` scoped threads pulls indices from an atomic cursor, each
//! item is computed independently, and the results are collected **in
//! index order** — so every aggregate downstream (merged reports, JSON
//! dumps, manifests, printed tables) is byte-identical to a serial run.
//! Determinism holds because (a) each item's computation is itself
//! deterministic and shares no mutable state, and (b) the only thing
//! scheduling can reorder is *completion*, which the index-ordered
//! collection erases.
//!
//! This crate is the workspace's **sanctioned merge idiom**: the
//! `clippy.toml` entries for rules D007 and D008 (unordered cross-thread
//! result collection, scheduling-dependent atomics) name [`run_indexed`] in
//! their diagnostics, and it is the one item that carries an `#[expect]`
//! for them. Anything that wants to fan work out across threads should go
//! through here instead of hand-rolling channels. The threads are scoped:
//! they borrow the caller's data, are joined before [`run_indexed`]
//! returns (nothing detached, rule D009), and a panic in any item
//! resurfaces on the calling thread.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why collecting a result slot failed. Both variants indicate a bug in
/// the executor itself, never data-dependent behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// A worker panicked while holding slot `index`'s lock.
    Poisoned(usize),
    /// No worker ever stored a result for `index` (cursor logic bug).
    Unfilled(usize),
}

impl fmt::Display for SlotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotError::Poisoned(i) => write!(f, "result slot {i} poisoned by a worker panic"),
            SlotError::Unfilled(i) => write!(f, "result slot {i} was never filled by any worker"),
        }
    }
}

/// Computes `f(0..count)` on `jobs` worker threads and returns the results
/// in index order. `jobs <= 1` runs serially on the caller's thread
/// (identical results, no threads). A panic inside `f` propagates to the
/// caller once every worker has been joined.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sanctioned cross-thread merge idiom: the Relaxed work cursor only \
              *distributes* indices (no ordering is ever derived from its return values \
              beyond \"each index exactly once\"), and results land in index-addressed slots, \
              so completion order cannot reach any observable output"
)]
pub fn run_indexed<T: Send>(jobs: usize, count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    use std::sync::Mutex;
    if jobs <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = jobs.min(count);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(value);
                }
            });
        }
    });
    let collected: Result<Vec<T>, SlotError> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot.into_inner() {
            Err(_) => Err(SlotError::Poisoned(i)),
            Ok(None) => Err(SlotError::Unfilled(i)),
            Ok(Some(value)) => Ok(value),
        })
        .collect();
    match collected {
        Ok(values) => values,
        // `thread::scope` re-raises worker panics before collection
        // begins, and the cursor hands out every index below `count`
        // exactly once.
        Err(fault) => unreachable!("run_indexed: {fault}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let serial = run_indexed(1, 100, |i| i * i);
        let parallel = run_indexed(4, 100, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 49);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(run_indexed(16, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(16, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn a_panicking_item_resurfaces_on_the_caller() {
        for jobs in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(jobs, 4, |i| {
                    assert!(i != 2, "item 2 fails");
                    i
                })
            });
            assert!(caught.is_err(), "jobs={jobs}: the panic was swallowed");
        }
        // Nothing outlives the failed batch: the next one runs normally.
        assert_eq!(run_indexed(2, 3, |i| i + 7), vec![7, 8, 9]);
    }

    #[test]
    fn slot_errors_name_the_failing_index() {
        assert_eq!(SlotError::Poisoned(3).to_string(), "result slot 3 poisoned by a worker panic");
        assert_eq!(
            SlotError::Unfilled(7).to_string(),
            "result slot 7 was never filled by any worker"
        );
    }
}
