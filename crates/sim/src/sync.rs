//! Poison-recovering lock helpers.
//!
//! A `std::sync::Mutex` poisons itself when a holder panics, and every
//! later `.lock().unwrap()` then panics too — one crashed request thread
//! cascades into crashing every other thread that touches the structure.
//! With panic isolation in the failure domain (see [`crate::fault`]) a
//! caught panic is a *recoverable* event, so the shared structures it may
//! have touched must stay usable.
//!
//! # Recovery invariant
//!
//! Recovering a poisoned guard is only sound if every critical section
//! leaves the protected structure consistent at each point where it could
//! panic. All workspace users of these helpers satisfy that by
//! construction, in one of two ways:
//!
//! * **single-call mutations** — the section performs one insert / remove /
//!   push / state overwrite on an always-valid collection (job maps, the
//!   service's pending queue, LRU shards), so there is no intermediate state to
//!   observe; or
//! * **mutate-last** — fallible/panicky work (allocation, execution) runs
//!   *before* the lock is taken, and the section only publishes finished
//!   values.
//!
//! Under that discipline the worst outcome of a panicked holder is a lost
//! in-progress update from the panicking thread — never a torn structure —
//! so recovering the guard and continuing is strictly better than
//! cascading the panic.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// `Mutex` extension: lock, recovering the guard if a previous holder
/// panicked (see the module-level recovery invariant).
pub trait LockRecoverExt<T> {
    /// Locks, treating poisoning as recovered.
    fn lock_recover(&self) -> MutexGuard<'_, T>;
}

impl<T> LockRecoverExt<T> for Mutex<T> {
    fn lock_recover(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`Condvar::wait`] with the same poison recovery as
/// [`LockRecoverExt::lock_recover`].
pub fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] with the same poison recovery as
/// [`LockRecoverExt::lock_recover`].
pub fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn poisoned_lock_recovers_with_consistent_data() {
        let m = Mutex::new(vec![1, 2, 3]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("holder dies");
        }));
        assert!(result.is_err());
        assert!(m.is_poisoned());
        let guard = m.lock_recover();
        assert_eq!(*guard, vec![1, 2, 3]);
    }
}
