//! The bounded MPSC admission queue behind the front door.
//!
//! Admission control is the first resilience layer: beyond `capacity`
//! queued requests, [`BoundedQueue::try_push`] rejects immediately (the
//! front door sheds with `Overloaded`) instead of letting latency grow
//! without bound. Replica runners drain it with the blocking
//! [`BoundedQueue::pop`], which returns `None` only once the queue is
//! both closed and empty — the graceful-drain shutdown contract.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue with explicit close-and-drain
/// shutdown and a capacity-exempt requeue path for retries.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    available: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items at a time (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            available: Condvar::new(),
        }
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// Admits `item`, or hands it back when the queue is full or
    /// closed — the caller sheds the request instead of blocking.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Puts a retried (or panic-recovered) in-flight item back at the
    /// *front* of the queue, bypassing both capacity and the closed
    /// flag: an admitted request keeps its slot until it reaches a
    /// terminal state, even during drain.
    pub fn requeue(&self, item: T) {
        self.state.lock().unwrap().items.push_front(item);
        self.available.notify_one();
    }

    /// Blocks until an item is available, returning `None` only when
    /// the queue is closed *and* fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Non-blocking pop for shutdown drains: returns the next item if
    /// one is queued, `None` otherwise (regardless of the closed flag).
    pub fn try_pop(&self) -> Option<T> {
        self.state.lock().unwrap().items.pop_front()
    }

    /// Blocks up to `timeout` for an item — the batch-formation linger:
    /// a worker holding a partial batch waits here for a ride-along
    /// request instead of spinning. Returns `None` on timeout *or* when
    /// the queue is closed and drained (the caller distinguishes via
    /// [`close`](Self::close)-driven shutdown as it does for `pop`).
    pub fn pop_timeout(&self, timeout: std::time::Duration) -> Option<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (s, res) = self.available.wait_timeout(state, deadline - now).unwrap();
            state = s;
            if res.timed_out() && state.items.is_empty() {
                return None;
            }
        }
    }

    /// Stops admission; blocked `pop`s return `None` once the backlog
    /// is drained. Requeues still land (see [`requeue`](Self::requeue)).
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_beyond_capacity_then_drains_in_order() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "third push must shed");
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err(4), "closed queue sheds");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "closed + empty terminates the worker");
    }

    #[test]
    fn requeue_bypasses_capacity_and_close_and_jumps_the_line() {
        let q = BoundedQueue::new(1);
        assert!(q.try_push(10).is_ok());
        q.close();
        q.requeue(9);
        assert_eq!(q.depth(), 2, "requeue is capacity-exempt");
        assert_eq!(q.pop(), Some(9), "requeued item runs next");
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_timeout_returns_item_times_out_or_wakes() {
        use std::time::Duration;
        let q = Arc::new(BoundedQueue::new(4));
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), None, "empty → timeout");
        q.try_push(7).unwrap();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Some(7));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_timeout(Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(8).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(8), "wakes on concurrent push");
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_secs(5)), None, "closed + empty");
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![1, 2]);
    }
}
