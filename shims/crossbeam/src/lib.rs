//! Offline shim for `crossbeam`.
//!
//! Provides `crossbeam::channel::{unbounded, bounded, Sender, Receiver}` —
//! MPMC channels built on `Mutex` + `Condvar`. Both endpoints are `Clone`;
//! `recv` unblocks with `Err(RecvError)` once every sender is dropped and
//! the queue drains, which is the disconnect contract the workspace's
//! worker loops (`while let Ok(x) = rx.recv()`) rely on. Bounded channels
//! additionally expose `try_send`, which reports `TrySendError::Full`
//! instead of blocking — the backpressure primitive the SAL's per-replica
//! write pipeline is built on.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the channels are built on `std::sync` and `std::time` so that this shim depends on nothing"
)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        /// Woken when a bounded queue frees a slot.
        space: Condvar,
        /// `None` = unbounded.
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    fn channel_with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel_with_capacity(None)
    }

    /// Creates a bounded MPMC channel holding at most `cap` queued values.
    /// `send` blocks while full; `try_send` returns [`TrySendError::Full`].
    /// A capacity of 0 is rounded up to 1 (the real crate's rendezvous
    /// semantics are not needed by this workspace).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel_with_capacity(Some(cap.max(1)))
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The (bounded) queue is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            // Checked under the queue lock so a receiver that disconnected
            // before we enqueued is observed; otherwise the value would be
            // pushed into a queue nobody reads while send reports Ok.
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                drop(queue);
                return Err(SendError(value));
            }
            if let Some(cap) = self.shared.capacity {
                while queue.len() >= cap {
                    queue = self
                        .shared
                        .space
                        .wait(queue)
                        .unwrap_or_else(|p| p.into_inner());
                    if self.shared.receivers.load(Ordering::Acquire) == 0 {
                        drop(queue);
                        return Err(SendError(value));
                    }
                }
            }
            queue.push_back(value);
            drop(queue);
            self.shared.ready.notify_one();
            Ok(())
        }

        /// Non-blocking send. On a full bounded queue returns
        /// [`TrySendError::Full`] immediately instead of waiting.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                drop(queue);
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.shared.capacity {
                if queue.len() >= cap {
                    drop(queue);
                    return Err(TrySendError::Full(value));
                }
            }
            queue.push_back(value);
            drop(queue);
            self.shared.ready.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: take and release the queue lock before
                // waking, so the count change cannot land between a
                // receiver's senders check and its condvar wait (which
                // would make it miss this notify and block forever).
                drop(self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()));
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = queue.pop_front() {
                    drop(queue);
                    self.shared.space.notify_one();
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            match queue.pop_front() {
                Some(v) => {
                    drop(queue);
                    self.shared.space.notify_one();
                    Ok(v)
                }
                None if self.shared.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = queue.pop_front() {
                    drop(queue);
                    self.shared.space.notify_one();
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (q, r) = self
                    .shared
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                queue = q;
                if r.timed_out() {
                    return match queue.pop_front() {
                        Some(v) => {
                            drop(queue);
                            self.shared.space.notify_one();
                            Ok(v)
                        }
                        None => Err(RecvTimeoutError::Timeout),
                    };
                }
            }
        }

        /// Blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }

        /// Non-blocking iterator over currently queued values.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }

        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Order the final decrement with senders' check-under-lock:
                // any send that already holds the queue lock completes its
                // enqueue first; any later send observes zero receivers.
                drop(self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()));
                // Wake senders blocked on a full bounded queue so they can
                // observe the disconnect instead of waiting forever.
                self.shared.space.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_unblocks_receiver() {
        let (tx, rx) = unbounded::<u32>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn mpmc_all_items_delivered_once() {
        let (tx, rx) = unbounded::<u64>();
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let tx = tx.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(p * 100 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            }));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_try_send_reports_full_and_drains() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        h.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn bounded_blocked_send_observes_receiver_disconnect() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(h.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    fn try_send_to_dropped_receiver_disconnects() {
        let (tx, rx) = bounded(4);
        drop(rx);
        assert_eq!(tx.try_send(7), Err(TrySendError::Disconnected(7)));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn iter_drains_until_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }
}
