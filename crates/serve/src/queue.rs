//! A bounded MPSC work queue with explicit load shedding.
//!
//! The cap is enforced at push time: a full queue rejects the item and
//! hands it back ([`PushError::Full`]), so admission control happens at
//! the socket — the daemon never buffers unboundedly, it sheds with a
//! `429` and a retry hint. Closing the queue wakes every blocked
//! consumer; pops then drain whatever is left, which is exactly the
//! graceful-drain contract: accepted work completes, new work is
//! refused.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Why a push was refused (the item comes back to the caller).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the request.
    Full(T),
    /// The queue is draining — no new admissions.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity FIFO connecting connection threads to the batcher.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admission capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Current depth (racy by nature; used for gauges and health).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Non-blocking push; a full or closed queue refuses and returns the
    /// item so the caller can reply with a typed shed/drain response.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        g.items.push_back(item);
        let depth = g.items.len();
        drop(g);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// empty (drain complete) — `None` means the consumer should exit.
    pub fn pop_wait(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.nonempty.wait(g).unwrap();
        }
    }

    /// Like [`pop_wait`](Self::pop_wait) but gives up at `deadline`;
    /// `None` means either timeout or drained-and-closed.
    pub fn pop_until(&self, deadline: Instant) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timeout) =
                self.nonempty.wait_timeout(g, deadline - now).unwrap();
            g = guard;
            if timeout.timed_out() && g.items.is_empty() {
                return None;
            }
        }
    }

    /// Pops items from the front without blocking for as long as `take`
    /// accepts the next one — the whole backlog leaves under one lock
    /// instead of one lock round-trip per item.
    pub fn drain_while(&self, mut take: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut g = self.inner.lock().unwrap();
        let mut out = Vec::new();
        while g.items.front().is_some_and(&mut take) {
            out.extend(g.items.pop_front());
        }
        out
    }

    /// Stops admissions and wakes all blocked consumers; queued items
    /// remain poppable so in-flight work finishes.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_fifo_and_shed_at_cap() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.pop_wait(), Some(2));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        match q.try_push(8) {
            Err(PushError::Closed(8)) => {}
            other => panic!("{other:?}"),
        }
        // Queued item still served, then the exit signal.
        assert_eq!(q.pop_wait(), Some(7));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn pop_until_times_out_empty() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        let t0 = Instant::now();
        assert_eq!(q.pop_until(t0 + Duration::from_millis(20)), None);
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn drain_while_takes_the_accepted_prefix_in_order() {
        let q = BoundedQueue::new(8);
        for i in 1..=5u8 {
            q.try_push(i).unwrap();
        }
        let mut budget = 6u8;
        let taken = q.drain_while(|&i| {
            let take = budget >= i;
            budget = budget.saturating_sub(i);
            take
        });
        assert_eq!(taken, vec![1, 2, 3]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain_while(|_| true), vec![4, 5]);
        assert!(q.drain_while(|_| true).is_empty());
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_wait());
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
