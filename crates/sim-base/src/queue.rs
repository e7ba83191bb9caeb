//! Bounded message queues.
//!
//! Every buffered resource in the system — switch input ports, virtual
//! channel buffers, endpoint ingress/egress queues, controller mailboxes —
//! is a [`MsgQueue`]. Finite capacities are what make deadlock possible
//! (Section 4), so capacity accounting lives in one place and is exact:
//! a push into a full queue is refused, and the producer must retry later
//! (back-pressure), exactly as a real flow-controlled buffer behaves.

use std::collections::VecDeque;

/// Error returned when pushing into a full [`MsgQueue`]; carries the rejected
/// message back to the caller so it is not lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull<T>(pub T);

/// A FIFO queue with an optional capacity bound.
#[derive(Debug, Clone)]
pub struct MsgQueue<T> {
    items: VecDeque<T>,
    capacity: Option<usize>,
}

impl<T> MsgQueue<T> {
    /// Creates a queue holding at most `capacity` messages.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Self {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity: Some(capacity),
        }
    }

    /// Creates a queue with no capacity bound (worst-case buffering).
    #[must_use]
    pub fn unbounded() -> Self {
        Self {
            items: VecDeque::new(),
            capacity: None,
        }
    }

    /// The capacity bound, if any.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of messages currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no messages are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when the queue cannot accept another message.
    #[must_use]
    pub fn is_full(&self) -> bool {
        match self.capacity {
            Some(cap) => self.items.len() >= cap,
            None => false,
        }
    }

    /// Appends a message, or returns it in [`QueueFull`] if there is no room.
    pub fn push(&mut self, item: T) -> Result<(), QueueFull<T>> {
        if self.is_full() {
            return Err(QueueFull(item));
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Removes and returns the message at the head of the queue.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Returns a reference to the message at the head without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Iterates over the queued messages from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Retains only the messages for which the predicate returns true.
    pub fn retain(&mut self, f: impl FnMut(&T) -> bool) {
        self.items.retain(f);
    }
}

impl<T> Default for MsgQueue<T> {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = MsgQueue::unbounded();
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let mut q = MsgQueue::bounded(2);
        assert!(q.push('a').is_ok());
        assert!(q.push('b').is_ok());
        assert!(q.is_full());
        assert_eq!(q.push('c'), Err(QueueFull('c')));
        q.pop();
        assert!(q.push('c').is_ok());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = MsgQueue::bounded(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.peek(), Some(&1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn retain_keeps_only_matching_messages() {
        let mut q = MsgQueue::unbounded();
        for i in 0..10 {
            q.push(i).unwrap();
        }
        q.retain(|&x| x % 2 == 0);
        assert_eq!(q.len(), 5);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), [0, 2, 4, 6, 8]);
    }

    #[test]
    fn zero_capacity_queue_rejects_everything() {
        let mut q = MsgQueue::bounded(0);
        assert!(q.is_full());
        assert_eq!(q.push(1), Err(QueueFull(1)));
    }

    proptest! {
        #[test]
        fn bounded_queue_never_exceeds_capacity(
            cap in 1usize..16,
            ops in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let mut q = MsgQueue::bounded(cap);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut next = 0u32;
            for push in ops {
                if push {
                    let accepted = q.push(next).is_ok();
                    if model.len() < cap {
                        prop_assert!(accepted);
                        model.push_back(next);
                    } else {
                        prop_assert!(!accepted);
                    }
                    next += 1;
                } else {
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
                prop_assert!(q.len() <= cap);
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }
}
