//! Offline compatibility shim for the `crossbeam` API subset this
//! workspace uses: `channel` (unbounded MPMC-shaped channels) and `queue`
//! (a lock-free multi-producer queue).
//!
//! See `compat/README.md` for why these shims exist. The channel was
//! originally a `std::sync::mpsc` wrapper whose receiver serialized every
//! `recv` through one `Mutex`; it is now built on [`queue::MpscQueue`], so
//! sends are lock-free and a receive only touches a (normally uncontended)
//! mutex to keep cloned receivers FIFO-consistent. Senders take a lock only
//! when a receiver is actually parked — never on the busy path.

pub mod queue {
    //! A lock-free multi-producer queue (crossbeam-style).
    //!
    //! Producers CAS-push nodes onto an intrusive Treiber stack; a consumer
    //! takes *every* queued node in one atomic swap and reverses the chain
    //! into arrival (FIFO) order. Reclamation needs no epochs or hazard
    //! pointers: a node is only freed by the drain that unlinked it, and a
    //! swap takes the whole list at once so there is no ABA window.

    use std::ptr;
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

    struct Node<T> {
        value: T,
        next: *mut Node<T>,
    }

    /// Lock-free unbounded multi-producer queue. Any thread may push;
    /// [`MpscQueue::drain`] atomically takes everything queued so far (two
    /// concurrent drains split the elements rather than corrupting state,
    /// though FIFO order is only meaningful with a single consumer).
    pub struct MpscQueue<T> {
        /// LIFO intake stack; drain reverses it into FIFO order.
        head: AtomicPtr<Node<T>>,
        /// Upper bound on queued elements: bumped before the push CAS,
        /// decremented per drained batch, so it never underflows and is
        /// exact whenever no push is mid-flight.
        len: AtomicUsize,
    }

    unsafe impl<T: Send> Send for MpscQueue<T> {}
    unsafe impl<T: Send> Sync for MpscQueue<T> {}

    impl<T> Default for MpscQueue<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> MpscQueue<T> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            MpscQueue {
                head: AtomicPtr::new(ptr::null_mut()),
                len: AtomicUsize::new(0),
            }
        }

        /// Enqueues `value`. Lock-free: at most a few CAS retries under
        /// contention, no blocking, no allocation beyond the node itself.
        pub fn push(&self, value: T) {
            self.len.fetch_add(1, Ordering::SeqCst);
            let node = Box::into_raw(Box::new(Node {
                value,
                next: ptr::null_mut(),
            }));
            let mut head = self.head.load(Ordering::Relaxed);
            loop {
                unsafe { (*node).next = head };
                match self.head.compare_exchange_weak(
                    head,
                    node,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(observed) => head = observed,
                }
            }
        }

        /// True when nothing is queued (exact at the instant of the load).
        pub fn is_empty(&self) -> bool {
            self.head.load(Ordering::SeqCst).is_null()
        }

        /// Queued elements; an upper bound while pushes are mid-flight.
        pub fn len(&self) -> usize {
            self.len.load(Ordering::Acquire)
        }

        /// Atomically takes every queued element, yielding them in arrival
        /// (FIFO) order. Returns an empty iterator when the queue is empty.
        pub fn drain(&self) -> Drain<T> {
            let mut node = self.head.swap(ptr::null_mut(), Ordering::SeqCst);
            // Reverse the LIFO chain in place into FIFO order.
            let mut prev: *mut Node<T> = ptr::null_mut();
            let mut count = 0usize;
            while !node.is_null() {
                let next = unsafe { (*node).next };
                unsafe { (*node).next = prev };
                prev = node;
                node = next;
                count += 1;
            }
            if count > 0 {
                self.len.fetch_sub(count, Ordering::Release);
            }
            Drain {
                node: prev,
                remaining: count,
            }
        }
    }

    impl<T> Drop for MpscQueue<T> {
        fn drop(&mut self) {
            for _ in self.drain() {}
        }
    }

    /// Owning iterator over one [`MpscQueue::drain`] batch; frees each node
    /// as it yields, and any un-iterated remainder on drop.
    pub struct Drain<T> {
        node: *mut Node<T>,
        remaining: usize,
    }

    unsafe impl<T: Send> Send for Drain<T> {}

    impl<T> Iterator for Drain<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            if self.node.is_null() {
                return None;
            }
            // The drain owns the whole unlinked chain exclusively.
            let boxed = unsafe { Box::from_raw(self.node) };
            self.node = boxed.next;
            self.remaining -= 1;
            Some(boxed.value)
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.remaining, Some(self.remaining))
        }
    }

    impl<T> ExactSizeIterator for Drain<T> {}

    impl<T> Drop for Drain<T> {
        fn drop(&mut self) {
            for _ in self.by_ref() {}
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn drain_yields_fifo_order() {
            let q = MpscQueue::new();
            for i in 0..10 {
                q.push(i);
            }
            assert_eq!(q.len(), 10);
            let got: Vec<i32> = q.drain().collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
        }

        #[test]
        fn partial_drain_iteration_frees_remainder() {
            let q = MpscQueue::new();
            for i in 0..100 {
                q.push(Arc::new(i));
            }
            let mut drain = q.drain();
            let first = drain.next().unwrap();
            assert_eq!(*first, 0);
            drop(drain); // the other 99 nodes must be freed, not leaked
            assert!(q.is_empty());
        }

        #[test]
        fn concurrent_producers_lose_nothing() {
            let q = Arc::new(MpscQueue::new());
            let producers = 8;
            let per = 2_000;
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..per {
                            q.push(p * per + i);
                        }
                    })
                })
                .collect();
            let mut got = Vec::new();
            while got.len() < producers * per {
                got.extend(q.drain());
            }
            for h in handles {
                h.join().unwrap();
            }
            got.sort_unstable();
            assert_eq!(got, (0..producers * per).collect::<Vec<_>>());
            // Per-producer FIFO: already checked globally by the sort plus
            // the single-producer test; here just confirm emptiness.
            assert!(q.is_empty());
        }

        #[test]
        fn drop_frees_queued_elements() {
            let q = MpscQueue::new();
            let marker = Arc::new(());
            for _ in 0..5 {
                q.push(Arc::clone(&marker));
            }
            drop(q);
            assert_eq!(Arc::strong_count(&marker), 1);
        }
    }
}

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    use crate::queue::MpscQueue;

    /// Longest a receiver parks before re-polling. A missed wakeup (a
    /// pathological scheduling race the sleeper handshake already guards
    /// against) therefore costs bounded latency, never a hang.
    const MAX_PARK: Duration = Duration::from_millis(10);

    struct Shared<T> {
        /// Lock-free intake: senders never block here.
        intake: MpscQueue<T>,
        /// Consumer-side reorder buffer. Drained intake batches land here
        /// so cloned receivers stay FIFO-consistent; doubles as the condvar
        /// mutex for parked receivers.
        stash: Mutex<VecDeque<T>>,
        available: Condvar,
        /// Messages in flight (intake + stash). A send bumps it *before*
        /// enqueueing, so a receive never finds it lower than the messages
        /// it can take: an upper bound while a send is mid-flight, exact
        /// when quiescent.
        queued: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Receivers currently parked (or about to park) on `available`.
        sleepers: AtomicUsize,
    }

    impl<T> Shared<T> {
        /// Pops the next message in FIFO order; caller holds the stash.
        fn pop(&self, stash: &mut VecDeque<T>) -> Option<T> {
            if let Some(v) = stash.pop_front() {
                return Some(v);
            }
            stash.extend(self.intake.drain());
            stash.pop_front()
        }

        fn took(&self) {
            // `send` counted this message before enqueueing it, so the
            // counter is at least one here. Counting after enqueueing would
            // let a receive overtake the bump and leave the counter one too
            // high for good, with `is_empty` false on an empty queue.
            self.queued.fetch_sub(1, Ordering::AcqRel);
        }

        /// Wakes parked receivers; takes the stash lock only when someone
        /// is actually parked, so the busy path never contends on it.
        fn wake(&self) {
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Locking pairs with the sleeper's check-then-wait: after
                // this acquires, the sleeper is either inside `wait` (the
                // notify lands) or has not re-checked yet (it will see the
                // message).
                drop(self.stash.lock().unwrap_or_else(PoisonError::into_inner));
                self.available.notify_all();
            }
        }
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel. Cloneable: clones share
    /// the queue and each message is consumed by exactly one of them.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Receiver")
                .field("queued", &self.len())
                .finish()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: blocked receivers must observe the
                // disconnect rather than park forever.
                self.shared.wake();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            intake: MpscQueue::new(),
            stash: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queued: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            sleepers: AtomicUsize::new(0),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`. Lock-free unless a receiver is parked (then
        /// one uncontended lock/unlock pairs with its sleep handshake).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            self.shared.queued.fetch_add(1, Ordering::AcqRel);
            self.shared.intake.push(value);
            self.shared.wake();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_inner(None).map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut stash = self
                .shared
                .stash
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match self.shared.pop(&mut stash) {
                Some(v) => {
                    self.shared.took();
                    Ok(v)
                }
                None if self.shared.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_inner(Some(Instant::now() + timeout))
        }

        /// The one receive loop: pop, observe disconnect, honor the
        /// deadline, park. `deadline: None` blocks until a message or
        /// disconnect.
        fn recv_inner(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let shared = &*self.shared;
            let mut stash = shared.stash.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = shared.pop(&mut stash) {
                    shared.took();
                    return Ok(v);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    // A sender may push then drop; the pop above already
                    // drained, so empty + no senders is final.
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let mut park = MAX_PARK;
                if let Some(deadline) = deadline {
                    if now >= deadline {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    park = park.min(deadline - now);
                }
                // Sleeper handshake: register, then re-check the intake.
                // A send that missed the registration has already pushed,
                // so the re-check sees it; a send that sees it will take
                // the stash lock (released by `wait_timeout`) and notify.
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                if !shared.intake.is_empty() {
                    shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let (guard, _timed_out) = shared
                    .available
                    .wait_timeout(stash, park)
                    .unwrap_or_else(PoisonError::into_inner);
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                stash = guard;
            }
        }

        /// Number of messages currently queued (approximate under
        /// concurrent send/recv, exact when quiescent).
        pub fn len(&self) -> usize {
            self.shared.queued.load(Ordering::Acquire)
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator that ends when every sender is dropped.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Iterator over received messages (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trip_and_iter() {
            let (tx, rx) = unbounded();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let got: Vec<i32> = rx.iter().collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }

        #[test]
        fn timeout_and_disconnect() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(2)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(2)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn cloned_receivers_share_the_queue() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            tx.send(1u8).unwrap();
            tx.send(2u8).unwrap();
            let a = rx.recv().unwrap();
            let b = rx2.recv().unwrap();
            let mut got = vec![a, b];
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        }

        #[test]
        fn send_fails_after_receiver_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn drained_backlog_survives_sender_drop() {
            let (tx, rx) = unbounded();
            tx.send(1u8).unwrap();
            tx.send(2u8).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert!(rx.recv().is_err());
        }

        #[test]
        fn parked_receiver_wakes_on_send() {
            let (tx, rx) = unbounded();
            let waiter = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(20));
            let start = Instant::now();
            tx.send(42u8).unwrap();
            assert_eq!(waiter.join().unwrap(), Ok(42));
            // The wakeup must be prompt (handshake), not a timeout expiry.
            assert!(start.elapsed() < Duration::from_secs(1));
        }

        #[test]
        fn many_senders_one_receiver_fifo_per_sender() {
            let (tx, rx) = unbounded();
            let senders = 4;
            let per = 1_000;
            let handles: Vec<_> = (0..senders)
                .map(|s| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..per {
                            tx.send((s, i)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut last = vec![-1i64; senders];
            let mut count = 0;
            while let Ok((s, i)) = rx.recv() {
                assert!(i as i64 > last[s], "sender {s} reordered");
                last[s] = i as i64;
                count += 1;
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(count, senders * per);
        }

        /// A receiver polling while senders push must leave the count at
        /// zero once it has taken everything: a count that drifts upward
        /// makes `is_empty` false forever, and a closed in-process
        /// transport is then never seen as drained.
        #[test]
        fn queued_count_returns_to_zero_under_racing_receives() {
            let (tx, rx) = unbounded();
            let (senders, per) = (2, 50_000);
            let handles: Vec<_> = (0..senders)
                .map(|_| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..per {
                            tx.send(i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut count = 0;
            loop {
                match rx.try_recv() {
                    Ok(_) => count += 1,
                    Err(TryRecvError::Empty) => std::hint::spin_loop(),
                    Err(TryRecvError::Disconnected) => break,
                }
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(count, senders * per);
            assert_eq!(rx.len(), 0);
            assert!(rx.is_empty());
        }
    }
}
