//! Offline stand-in for `crossbeam`, providing the MPMC [`channel`]
//! module the serve daemon's dispatcher and worker pool use. Implemented
//! over a mutex-guarded deque — not lock-free, but correct, and each
//! message is a request or a batch of them, so queue overhead is noise.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
    }

    /// The sending half; cloneable (MPMC).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    /// (Our subset never reports this — queues are unbounded and
    /// receivers outlive senders in every call site — but the type keeps
    /// the API shape.)
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] once the channel is empty and
    /// every sender has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`] when no value is ready.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on a channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    impl<T> Sender<T> {
        /// Enqueue a value; never blocks.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(value);
            drop(q);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender gone: wake all blocked receivers so they
                // can observe disconnection.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue a value, blocking until one is available or every
        /// sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Dequeue a value without blocking. The `tybec serve`
        /// dispatcher drains the queue with this after a blocking
        /// [`recv`][Receiver::recv] to micro-batch concurrent requests.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Dequeue a value, blocking at most `timeout`.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, _timed_out) =
                    self.shared.ready.wait_timeout(q, left).unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fifo_single_thread() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn try_recv_distinguishes_empty_from_disconnected() {
        let (tx, rx) = channel::unbounded();
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use std::time::Duration;
        let (tx, rx) = channel::unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn workers_drain_everything() {
        let (tx, rx) = channel::unbounded::<u64>();
        for v in 0..100 {
            tx.send(v).unwrap();
        }
        drop(tx);
        let total = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rx = rx.clone();
                let total = &total;
                s.spawn(move || {
                    while let Ok(v) = rx.recv() {
                        total.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(total.into_inner(), (0..100).sum::<u64>());
    }
}
