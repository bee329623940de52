//! The bounded admission queue feeding the cross-request batcher.
//!
//! Producers never block: [`BoundedQueue::try_push`] either enqueues or
//! returns a typed rejection immediately — admission control is a *value*,
//! not a wait. The single consumer drains on a **size-or-deadline**
//! trigger: a drain wakes on the first item, then keeps collecting until
//! either `max` items are pending or `deadline` has elapsed since the
//! wake, whichever comes first. That window is what lets unrelated
//! requests land in one batch and share circuit prefixes downstream.

use qt_sim::{wait_recover, wait_timeout_recover, LockRecoverExt};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity.
    Full,
    /// The queue was closed (service shutting down).
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPSC queue with non-blocking admission and batched draining.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` pending items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently pending.
    pub fn len(&self) -> usize {
        self.state.lock_recover().items.len()
    }

    /// `true` once the queue has been closed (admission refuses with
    /// [`PushError::Closed`]) — the service's readiness probe.
    pub fn is_closed(&self) -> bool {
        self.state.lock_recover().closed
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` or rejects immediately — never blocks.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock_recover();
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is pending (or the queue closes),
    /// then collects up to `max` items, waiting at most `deadline` past
    /// the first wake for stragglers. Returns `None` only when the queue
    /// is closed *and* drained — the consumer's exit signal.
    pub fn drain(&self, max: usize, deadline: Duration) -> Option<Vec<T>> {
        let max = max.max(1);
        let mut state = self.state.lock_recover();
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = wait_recover(&self.cv, state);
        }
        let woke = Instant::now();
        while state.items.len() < max && !state.closed {
            let elapsed = woke.elapsed();
            if elapsed >= deadline {
                break;
            }
            let (next, timeout) = wait_timeout_recover(&self.cv, state, deadline - elapsed);
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
        let take = state.items.len().min(max);
        Some(state.items.drain(..take).collect())
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`] and
    /// the consumer drains whatever remains, then sees `None`.
    pub fn close(&self) {
        self.state.lock_recover().closed = true;
        self.cv.notify_all();
    }

    /// Closes the queue *and* takes everything still pending, atomically:
    /// nothing taken here can also be drained by the consumer, and the
    /// consumer's next [`BoundedQueue::drain`] sees the exit signal. This
    /// is the fail-queued-work half of a drain-shutdown — the caller owns
    /// the orphans and must resolve them (e.g. with a typed
    /// shutting-down error) so no waiter hangs.
    pub fn close_and_take(&self) -> Vec<T> {
        let mut state = self.state.lock_recover();
        state.closed = true;
        let orphans = state.items.drain(..).collect();
        drop(state);
        self.cv.notify_all();
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admission_rejects_when_full_without_blocking() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_collects_up_to_max() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let batch = q.drain(3, Duration::from_millis(1)).unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
        let rest = q.drain(8, Duration::from_millis(1)).unwrap();
        assert_eq!(rest, vec![3, 4]);
    }

    #[test]
    fn size_trigger_returns_before_deadline() {
        let q = Arc::new(BoundedQueue::new(8));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..4 {
                    q.try_push(i).unwrap();
                }
            })
        };
        // A generous deadline: the size trigger (4 items) must fire long
        // before it.
        let batch = q.drain(4, Duration::from_secs(30)).unwrap();
        assert_eq!(batch.len(), 4);
        producer.join().unwrap();
    }

    #[test]
    fn close_and_take_owns_the_orphans_atomically() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let orphans = q.close_and_take();
        assert_eq!(orphans, vec![1, 2]);
        assert!(q.is_closed());
        // The consumer can never see what the closer took.
        assert_eq!(q.drain(4, Duration::from_millis(1)), None);
        assert_eq!(q.try_push(3), Err(PushError::Closed));
    }

    #[test]
    fn close_drains_remainder_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed));
        assert_eq!(q.drain(4, Duration::from_millis(1)), Some(vec![7]));
        assert_eq!(q.drain(4, Duration::from_millis(1)), None);
    }
}
