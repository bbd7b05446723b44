//! Virtio-style shared-memory ring transport.
//!
//! This is the para-virtual transport AvA uses between a guest VM and the
//! hypervisor router. Unlike the in-process channel, every message's frame
//! is *actually serialized* into a byte ring shared between producer and
//! consumer, and the hypervisor accounts for every payload byte that
//! crosses — the property §3 relies on for interposition. Payloads do not
//! enter the ring: they are immutable, guest-owned buffers passed by
//! descriptor, the way virtio indirect descriptors work. The frame carries
//! a descriptor (tag + length) per `Value::Bytes`
//! ([`Message::encode_indirect`]); the buffers themselves — refcounted
//! handles, never host pointers a guest could forge — ride in a
//! per-direction descriptor table both ring ends share, and the receiver
//! re-attaches them while decoding. The server therefore executes on the
//! very allocation the guest made.
//!
//! Each direction is a single-producer/single-consumer byte ring guarded by
//! monotonically increasing head/tail counters (`Acquire`/`Release`
//! atomics). Blocking uses a mutex+condvar doorbell, standing in for the
//! guest's doorbell write and the hypervisor's interrupt injection.
//!
//! Frame layout inside the ring:
//!
//! ```text
//! [u64 deliver_at_nanos (LE)] [u32 len_and_flags (LE)] [len bytes]
//! ```
//!
//! `deliver_at_nanos` is relative to the ring's shared epoch and implements
//! the transport [`CostModel`]'s delivery latency. The top bit of
//! `len_and_flags` marks a *fragment*: frames larger than a quarter of the
//! ring are split into chained fragments (the software analogue of virtio
//! descriptor chains), so arbitrarily large frames flow through a
//! fixed-size ring. The next bit marks the last fragment of a frame that
//! owns a descriptor-table entry. That entry is published under the same
//! tail store as the fragment, so it becomes visible exactly with its
//! frame: a send that fails on a dead ring leaves nothing behind, and a
//! frame whose descriptors do not match its entry is refused as
//! [`TransportError::Poisoned`], never decoded with a wrong buffer.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_telemetry::MetricSet;
use ava_wire::{Message, WireError};
use bytes::{Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};

use crate::error::{Result, TransportError};
use crate::latency::{wait_until, CostModel};
use crate::stats::{StatsCell, TransportStats};
use crate::Transport;

/// Frame header size: u64 deliver-at + u32 length.
const HEADER: usize = 12;

/// Top bit of the length word: more fragments follow.
const MORE_FRAGMENTS: u32 = 1 << 31;

/// Length-word bit: this is the last fragment of a frame whose buffers sit
/// in the descriptor table.
const INDIRECT: u32 = 1 << 30;

/// The length bits of the length word.
const LEN_MASK: u32 = INDIRECT - 1;

/// Configuration for a shared-memory ring pair.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Capacity in bytes of each direction's ring.
    pub capacity: usize,
    /// Cost model applied to each crossing.
    pub model: CostModel,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            capacity: 1 << 20,
            model: CostModel::paravirtual(),
        }
    }
}

/// One SPSC byte ring.
struct Ring {
    /// Shared byte storage. Interior mutability is required because both
    /// producer and consumer hold `&Ring`.
    data: Box<[UnsafeCell<u8>]>,
    /// Monotonic count of bytes consumed.
    head: AtomicUsize,
    /// Monotonic count of bytes produced.
    tail: AtomicUsize,
    /// Set when either side closes in an orderly fashion.
    closed: AtomicBool,
    /// Set when a peer vanishes abruptly (crash). Unlike `closed`, frames
    /// still in the ring are considered lost and both sides observe
    /// [`TransportError::Disconnected`].
    disconnected: AtomicBool,
    /// The descriptor table: the buffers of each published frame flagged
    /// [`INDIRECT`], one entry per frame, in ring order.
    table: Mutex<VecDeque<Vec<Bytes>>>,
    /// Doorbell: wakes a consumer waiting for data.
    doorbell: Mutex<()>,
    doorbell_cv: Condvar,
    /// Wakes a producer waiting for free space.
    space: Mutex<()>,
    space_cv: Condvar,
    /// Epoch that `deliver_at_nanos` values are relative to.
    epoch: Instant,
}

// SAFETY: `Ring` is shared by exactly one producer and one consumer thread.
// The producer writes only bytes in `[tail, tail + n)` and publishes them
// with a `Release` store of `tail`; the consumer reads them only after an
// `Acquire` load of `tail` observes the new value, and symmetrically for
// `head`. Each byte is therefore never accessed mutably by one thread while
// the other reads it, and the Acquire/Release pairs provide the required
// happens-before edges for the data written through the `UnsafeCell`s.
// Every other field (atomics, the descriptor table and doorbells behind
// their mutexes, condvars, the epoch) is `Sync` on its own.
unsafe impl Sync for Ring {}
// SAFETY: all fields are owned values; sending the Arc'd ring between
// threads moves no thread-affine state.
unsafe impl Send for Ring {}

/// One frame (or fragment) popped off a ring.
struct Fragment {
    deliver_at_nanos: u64,
    bytes: Vec<u8>,
    more: bool,
    /// The frame's descriptor-table entry, carried by its last fragment.
    entry: Option<Vec<Bytes>>,
}

impl Ring {
    fn new(capacity: usize, epoch: Instant) -> Arc<Self> {
        let data: Box<[UnsafeCell<u8>]> = (0..capacity).map(|_| UnsafeCell::new(0)).collect();
        Arc::new(Ring {
            data,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            disconnected: AtomicBool::new(false),
            table: Mutex::new(VecDeque::new()),
            doorbell: Mutex::new(()),
            doorbell_cv: Condvar::new(),
            space: Mutex::new(()),
            space_cv: Condvar::new(),
            epoch,
        })
    }

    fn capacity(&self) -> usize {
        self.data.len()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.doorbell_cv.notify_all();
        self.space_cv.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn disconnect(&self) {
        self.disconnected.store(true, Ordering::Release);
        // In-flight frames are lost, and so are the buffers they reference.
        // Set before the clear: a producer checks the flag under this lock.
        self.table.lock().clear();
        self.doorbell_cv.notify_all();
        self.space_cv.notify_all();
    }

    /// Kills a ring whose frames and descriptor table disagree: nothing
    /// after the bad frame can be trusted to pair with the right buffers.
    fn poison(&self) -> TransportError {
        self.disconnect();
        TransportError::Poisoned
    }

    /// Returns the error a dead ring should surface, if any. A hard
    /// disconnect shadows an orderly close: if both happened, the failure
    /// is what callers must react to.
    fn dead(&self) -> Option<TransportError> {
        if self.disconnected.load(Ordering::Acquire) {
            Some(TransportError::Disconnected)
        } else if self.is_closed() {
            Some(TransportError::Closed)
        } else {
            None
        }
    }

    /// Copies `src` into the ring at absolute position `pos`, wrapping.
    fn write_bytes(&self, pos: usize, src: &[u8]) {
        let cap = self.capacity();
        let start = pos % cap;
        let first = src.len().min(cap - start);
        // SAFETY: per the `Sync` argument above, the producer exclusively
        // owns `[tail, tail + n)` until it publishes `tail`; `pos..pos+len`
        // lies inside that window (checked by the caller's space
        // accounting), so no other thread accesses these bytes now.
        unsafe {
            let base = self.data.as_ptr() as *mut u8;
            std::ptr::copy_nonoverlapping(src.as_ptr(), base.add(start), first);
            if first < src.len() {
                std::ptr::copy_nonoverlapping(src.as_ptr().add(first), base, src.len() - first);
            }
        }
    }

    /// Copies `dst.len()` bytes out of the ring from absolute position `pos`.
    fn read_bytes(&self, pos: usize, dst: &mut [u8]) {
        let cap = self.capacity();
        let start = pos % cap;
        let first = dst.len().min(cap - start);
        // SAFETY: the consumer exclusively owns `[head, tail)` after an
        // Acquire load of `tail`; the caller checked `pos..pos+len` lies in
        // that window, so the producer is not writing these bytes.
        unsafe {
            let base = self.data.as_ptr() as *const u8;
            std::ptr::copy_nonoverlapping(base.add(start), dst.as_mut_ptr(), first);
            if first < dst.len() {
                std::ptr::copy_nonoverlapping(base, dst.as_mut_ptr().add(first), dst.len() - first);
            }
        }
    }

    /// Producer: appends one frame (or fragment), blocking while the ring
    /// is full. `entry` — the frame's buffers, passed with its last
    /// fragment — is published together with the fragment.
    fn push_frame(
        &self,
        deliver_at_nanos: u64,
        bytes: &[u8],
        more: bool,
        entry: Option<Vec<Bytes>>,
    ) -> Result<()> {
        let need = HEADER + bytes.len();
        if need > self.capacity() {
            return Err(TransportError::FrameTooLarge {
                size: need,
                limit: self.capacity(),
            });
        }
        // Wait for space. A dead peer (closed or disconnected) surfaces as
        // an error even while the ring is full — the classic "ring full
        // with a dead consumer" wedge must not block forever.
        loop {
            if let Some(err) = self.dead() {
                return Err(err);
            }
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Relaxed);
            let used = tail - head;
            if self.capacity() - used >= need {
                break;
            }
            let mut guard = self.space.lock();
            // Re-check under the lock to avoid a lost wakeup.
            let head = self.head.load(Ordering::Acquire);
            let used = self.tail.load(Ordering::Relaxed) - head;
            if self.capacity() - used >= need || self.dead().is_some() {
                continue;
            }
            self.space_cv
                .wait_for(&mut guard, Duration::from_millis(50));
        }
        let tail = self.tail.load(Ordering::Relaxed);
        let mut len_word = bytes.len() as u32;
        if more {
            len_word |= MORE_FRAGMENTS;
        }
        if entry.is_some() {
            len_word |= INDIRECT;
        }
        let mut header = [0u8; HEADER];
        header[..8].copy_from_slice(&deliver_at_nanos.to_le_bytes());
        header[8..].copy_from_slice(&len_word.to_le_bytes());
        self.write_bytes(tail, &header);
        self.write_bytes(tail + HEADER, bytes);
        match entry {
            // The entry and its frame become visible together, and never on
            // a dead ring: `disconnect` clears the table under this lock.
            Some(entry) => {
                let mut table = self.table.lock();
                if let Some(err) = self.dead() {
                    return Err(err);
                }
                table.push_back(entry);
                self.tail.store(tail + need, Ordering::Release);
            }
            None => self.tail.store(tail + need, Ordering::Release),
        }
        // Ring the doorbell.
        {
            let _guard = self.doorbell.lock();
            self.doorbell_cv.notify_one();
        }
        Ok(())
    }

    /// Consumer: pops one frame (or fragment) if available.
    fn try_pop_frame(&self) -> Result<Option<Fragment>> {
        // A hard disconnect loses in-flight frames: error out even if bytes
        // remain in the ring, so a consumer never acts on traffic from a
        // peer that crashed mid-conversation.
        if self.disconnected.load(Ordering::Acquire) {
            return Err(TransportError::Disconnected);
        }
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if tail - head < HEADER {
            if self.is_closed() {
                return Err(TransportError::Closed);
            }
            return Ok(None);
        }
        let mut header = [0u8; HEADER];
        self.read_bytes(head, &mut header);
        let deliver_at_nanos = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
        let len_word = u32::from_le_bytes(header[8..].try_into().expect("4 bytes"));
        let len = (len_word & LEN_MASK) as usize;
        if tail - head < HEADER + len {
            // Frame not fully published yet (cannot happen with Release
            // ordering on tail, but be defensive).
            return Ok(None);
        }
        let entry = if len_word & INDIRECT == 0 {
            None
        } else {
            // Bound first: the guard must be gone before `poison` relocks.
            let popped = self.table.lock().pop_front();
            Some(popped.ok_or_else(|| self.poison())?)
        };
        let mut bytes = vec![0u8; len];
        self.read_bytes(head + HEADER, &mut bytes);
        self.head.store(head + HEADER + len, Ordering::Release);
        {
            let _guard = self.space.lock();
            self.space_cv.notify_one();
        }
        Ok(Some(Fragment {
            deliver_at_nanos,
            bytes,
            more: len_word & MORE_FRAGMENTS != 0,
            entry,
        }))
    }

    /// Consumer: pops one frame, blocking up to `timeout` (`None` = forever).
    fn pop_frame(&self, timeout: Option<Duration>) -> Result<Option<Fragment>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(frame) = self.try_pop_frame()? {
                return Ok(Some(frame));
            }
            let mut guard = self.doorbell.lock();
            // Re-check under the lock so a frame pushed between the check
            // and the wait is not missed.
            let head = self.head.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::Acquire);
            if tail - head >= HEADER {
                continue;
            }
            if let Some(err) = self.dead() {
                return Err(err);
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Ok(None);
                    }
                    self.doorbell_cv.wait_for(&mut guard, d - now);
                    let now = Instant::now();
                    if now >= d && self.try_pop_frame()?.is_none() {
                        return Ok(None);
                    }
                }
                None => {
                    self.doorbell_cv
                        .wait_for(&mut guard, Duration::from_millis(50));
                }
            }
        }
    }
}

/// One endpoint of a shared-memory transport pair.
pub struct ShmemTransport {
    tx_ring: Arc<Ring>,
    rx_ring: Arc<Ring>,
    model: CostModel,
    stats: Arc<StatsCell>,
    /// Frame encode buffer, reused across sends. Its lock serializes
    /// senders (the ring itself is single-producer).
    send_frame: Mutex<BytesMut>,
    /// Serializes receivers.
    recv_lock: Mutex<()>,
}

/// Creates a connected shared-memory pair.
pub fn pair(config: RingConfig) -> (ShmemTransport, ShmemTransport) {
    let epoch = Instant::now();
    let ab = Ring::new(config.capacity, epoch);
    let ba = Ring::new(config.capacity, epoch);
    let endpoint = |tx_ring, rx_ring| ShmemTransport {
        tx_ring,
        rx_ring,
        model: config.model,
        stats: StatsCell::new(),
        send_frame: Mutex::new(BytesMut::new()),
        recv_lock: Mutex::new(()),
    };
    (endpoint(Arc::clone(&ab), Arc::clone(&ba)), endpoint(ba, ab))
}

impl ShmemTransport {
    /// Simulates an abrupt peer crash: both directions observe
    /// [`TransportError::Disconnected`] and any in-flight frames are lost,
    /// together with the buffers they reference.
    /// Contrast with [`Transport::close`], which is an orderly shutdown.
    pub fn disconnect(&self) {
        self.tx_ring.disconnect();
        self.rx_ring.disconnect();
    }

    /// Largest single fragment: a quarter of the ring, so a chained
    /// message cannot monopolize it.
    fn max_fragment(&self) -> usize {
        (self.tx_ring.capacity() / 4)
            .saturating_sub(HEADER)
            .clamp(1, LEN_MASK as usize)
    }

    /// Reassembles any remaining fragments after the first, then decodes,
    /// re-attaching the frame's buffers from its descriptor-table entry.
    fn finish_recv(&self, first: Fragment) -> Result<Message> {
        let Fragment {
            deliver_at_nanos,
            mut bytes,
            mut more,
            mut entry,
        } = first;
        let mut ring_bytes = HEADER + bytes.len();
        while more {
            match self.rx_ring.pop_frame(None)? {
                Some(next) => {
                    bytes.extend_from_slice(&next.bytes);
                    ring_bytes += HEADER + next.bytes.len();
                    more = next.more;
                    entry = next.entry;
                }
                None => return Err(TransportError::Closed),
            }
        }
        let deliver_at = self.rx_ring.epoch + Duration::from_nanos(deliver_at_nanos);
        wait_until(deliver_at);
        let msg = Message::decode_indirect(Bytes::from(bytes), entry.unwrap_or_default()).map_err(
            |e| match e {
                WireError::DescriptorMismatch => self.rx_ring.poison(),
                other => TransportError::Decode(other),
            },
        )?;
        self.stats.on_recv(msg.payload_bytes(), ring_bytes);
        Ok(msg)
    }
}

impl Transport for ShmemTransport {
    fn send(&self, msg: &Message) -> Result<()> {
        let mut frame = self.send_frame.lock();
        frame.clear();
        let mut refs = Vec::new();
        msg.encode_indirect(&mut frame, &mut refs);
        let payload_bytes = msg.payload_bytes();
        let now = Instant::now();
        let deliver_at = self.model.deliver_at(now, payload_bytes);
        let deliver_nanos = deliver_at
            .saturating_duration_since(self.tx_ring.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let max = self.max_fragment();
        let mut entry = (!refs.is_empty()).then_some(refs);
        let mut chunks = frame.chunks(max).peekable();
        while let Some(chunk) = chunks.next() {
            let more = chunks.peek().is_some();
            let entry = if more { None } else { entry.take() };
            self.tx_ring.push_frame(deliver_nanos, chunk, more, entry)?;
        }
        let ring_bytes = frame.len() + HEADER * frame.len().div_ceil(max);
        self.stats.on_send(payload_bytes, ring_bytes);
        wait_until(now + self.model.sender_overhead);
        Ok(())
    }

    fn recv(&self) -> Result<Message> {
        let _guard = self.recv_lock.lock();
        match self.rx_ring.pop_frame(None)? {
            Some(first) => self.finish_recv(first),
            None => Err(TransportError::Closed),
        }
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        let _guard = self.recv_lock.lock();
        match self.rx_ring.try_pop_frame()? {
            Some(first) => self.finish_recv(first).map(Some),
            None => Ok(None),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        let _guard = self.recv_lock.lock();
        match self.rx_ring.pop_frame(Some(timeout))? {
            Some(first) => self.finish_recv(first).map(Some),
            None => Ok(None),
        }
    }

    fn close(&self) {
        self.tx_ring.close();
        self.rx_ring.close();
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn register_telemetry(&self, registry: &ava_telemetry::Registry, prefix: &str) {
        self.stats
            .register(registry, &format!("transport.{prefix}"));
    }
}

impl Drop for ShmemTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_wire::{CallMode, CallRequest, ControlMessage, Value, MAX_BATCH_CALLS};

    fn ring_pair(capacity: usize) -> (ShmemTransport, ShmemTransport) {
        pair(RingConfig {
            capacity,
            model: CostModel::free(),
        })
    }

    fn free_pair() -> (ShmemTransport, ShmemTransport) {
        ring_pair(1 << 16)
    }

    fn request(id: u64, args: Vec<Value>) -> CallRequest {
        CallRequest {
            call_id: id,
            fn_id: 9,
            mode: CallMode::Sync,
            args,
            budget_us: 0,
        }
    }

    /// A call carrying a `bytes`-long buffer, which passes by reference.
    fn call(id: u64, bytes: usize) -> Message {
        Message::Call(request(
            id,
            vec![Value::Bytes(Bytes::from(vec![0xabu8; bytes]))],
        ))
    }

    fn text(id: u64, len: usize) -> String {
        (0..len)
            .map(|i| char::from(b'a' + ((i as u64 + id) % 26) as u8))
            .collect()
    }

    /// A payload-free call whose frame is about `len` bytes: strings are
    /// encoded inline, so it occupies the ring the way a buffer used to.
    fn str_call(id: u64, len: usize) -> Message {
        Message::Call(request(id, vec![Value::Str(text(id, len))]))
    }

    #[test]
    fn round_trip_single_message() {
        let (a, b) = free_pair();
        let msg = call(7, 100);
        a.send(&msg).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got, msg);
        let (Message::Call(sent), Message::Call(received)) = (&msg, &got) else {
            panic!("{got:?}");
        };
        assert_eq!(
            sent.args[0].as_bytes().unwrap().as_ptr(),
            received.args[0].as_bytes().unwrap().as_ptr(),
            "the payload was copied"
        );
    }

    #[test]
    fn many_messages_preserve_order_and_content() {
        let (a, b) = free_pair();
        let sender = std::thread::spawn(move || {
            for i in 0..500 {
                a.send(&call(i, (i as usize * 7) % 300)).unwrap();
            }
            a // keep alive until joined
        });
        for i in 0..500 {
            match b.recv().unwrap() {
                Message::Call(req) => {
                    assert_eq!(req.call_id, i);
                    assert_eq!(req.args[0].payload_bytes(), (i as usize * 7) % 300);
                }
                other => panic!("{other:?}"),
            }
        }
        sender.join().unwrap();
    }

    #[test]
    fn wraparound_is_exercised() {
        // Ring far smaller than total traffic forces many wraps; also use
        // frames larger than half the ring to hit the split-copy path.
        let (a, b) = ring_pair(4096);
        let sender = std::thread::spawn(move || {
            for i in 0..200 {
                a.send(&str_call(i, 1500)).unwrap();
            }
            a
        });
        for i in 0..200 {
            match b.recv().unwrap() {
                Message::Call(req) => {
                    assert_eq!(req.call_id, i);
                    assert_eq!(req.args[0].as_str().unwrap(), text(i, 1500));
                }
                other => panic!("{other:?}"),
            }
        }
        sender.join().unwrap();
    }

    #[test]
    fn oversized_messages_fragment_and_reassemble() {
        // 4 KiB ring, a ~80 KiB list of handles: must chain ~80 fragments.
        let (a, b) = ring_pair(4096);
        let handles = (0..24_000).map(Value::Handle).collect();
        let msg = Message::Call(request(1, vec![Value::List(handles)]));
        assert!(msg.encode().len() > 64 * 1024);
        let expected = msg.clone();
        let sender = std::thread::spawn(move || {
            a.send(&msg).unwrap();
            a
        });
        assert_eq!(b.recv().unwrap(), expected);
        sender.join().unwrap();
    }

    #[test]
    fn interleaved_large_and_small_messages() {
        // A full batch (~32 KiB of frame) every third message.
        let full_batch = |id: u64| {
            Message::Batch(
                (0..MAX_BATCH_CALLS as u64)
                    .map(|k| request(id, vec![Value::Handle(k)]))
                    .collect(),
            )
        };
        assert!(full_batch(0).encode().len() > 24 * 1024);
        let (a, b) = ring_pair(8192);
        let sender = std::thread::spawn(move || {
            for i in 0..20 {
                let msg = if i % 3 == 0 {
                    full_batch(i)
                } else {
                    str_call(i, 16)
                };
                a.send(&msg).unwrap();
            }
            a
        });
        for i in 0..20 {
            match b.recv().unwrap() {
                Message::Batch(reqs) => {
                    assert_eq!(i % 3, 0);
                    assert_eq!(reqs.len(), MAX_BATCH_CALLS);
                    assert!(reqs.iter().all(|r| r.call_id == i));
                }
                Message::Call(req) => {
                    assert_ne!(i % 3, 0);
                    assert_eq!(req.call_id, i);
                    assert_eq!(req.payload_bytes(), 16);
                }
                other => panic!("{other:?}"),
            }
        }
        sender.join().unwrap();
    }

    #[test]
    fn full_ring_blocks_until_drained() {
        let (a, b) = ring_pair(2048);
        // Fill with ~4 frames of ~400 bytes; the 6th send must block until
        // the receiver drains.
        let sender = std::thread::spawn(move || {
            for i in 0..10 {
                a.send(&str_call(i, 400)).unwrap();
            }
            a
        });
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..10 {
            match b.recv().unwrap() {
                Message::Call(req) => assert_eq!(req.call_id, i),
                other => panic!("{other:?}"),
            }
        }
        sender.join().unwrap();
    }

    #[test]
    fn recv_timeout_expires_empty() {
        let (_a, b) = free_pair();
        let got = b.recv_timeout(Duration::from_millis(20)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let (a, b) = free_pair();
        let waiter = std::thread::spawn(move || b.recv());
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        assert_eq!(waiter.join().unwrap().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn recv_timeout_and_hard_disconnect_are_distinct() {
        // Benign timeout: Ok(None). Hard disconnect: Err(Disconnected).
        // Orderly close: Err(Closed). Three different answers so callers
        // can retry, recover, or shut down respectively.
        let (a, b) = free_pair();
        assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), None);
        a.disconnect();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            TransportError::Disconnected
        );
        let (c, d) = free_pair();
        c.close();
        assert_eq!(
            d.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn disconnect_discards_in_flight_frames() {
        let (a, b) = free_pair();
        a.send(&call(1, 16)).unwrap();
        a.disconnect();
        // The frame is in the ring, but a crashed peer's traffic must not
        // be delivered as if nothing happened.
        assert_eq!(b.recv().unwrap_err(), TransportError::Disconnected);
    }

    #[test]
    fn disconnect_drops_queued_buffers_and_close_keeps_them() {
        let (a, b) = free_pair();
        a.send(&call(1, 4096)).unwrap();
        a.send(&call(2, 4096)).unwrap();
        assert_eq!(a.tx_ring.table.lock().len(), 2);
        a.disconnect();
        assert!(a.tx_ring.table.lock().is_empty());
        assert_eq!(b.recv().unwrap_err(), TransportError::Disconnected);

        // An orderly close keeps what was published before it receivable.
        let (c, d) = free_pair();
        c.send(&call(3, 4096)).unwrap();
        c.close();
        assert_eq!(c.tx_ring.table.lock().len(), 1);
        assert_eq!(d.recv().unwrap(), call(3, 4096));
        assert_eq!(d.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn an_entry_becomes_visible_only_with_its_frame() {
        let (a, b) = ring_pair(2048);
        // Fill the ring to the last byte so the next frame must wait.
        a.tx_ring
            .push_frame(0, &[0u8; 2048 - HEADER], false, None)
            .unwrap();
        let a = Arc::new(a);
        let sender = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || a.send(&call(1, 1 << 20)))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            a.tx_ring.table.lock().is_empty(),
            "entry published ahead of its frame"
        );
        b.disconnect();
        assert_eq!(
            sender.join().unwrap().unwrap_err(),
            TransportError::Disconnected
        );
        assert!(
            a.tx_ring.table.lock().is_empty(),
            "a failed send left its buffers behind"
        );
        // A ring that is already dead refuses the send the same way.
        let (c, d) = free_pair();
        d.close();
        assert_eq!(c.send(&call(2, 64)).unwrap_err(), TransportError::Closed);
        assert!(c.tx_ring.table.lock().is_empty());
    }

    #[test]
    fn mismatched_descriptors_are_poisoned_never_decoded() {
        let msg = call(1, 32);
        let mut frame = BytesMut::new();
        let mut refs = Vec::new();
        msg.encode_indirect(&mut frame, &mut refs);
        let buf = refs[0].clone();
        let short = Bytes::from(vec![0xabu8; 31]);
        for entry in [
            None,                         // descriptor, but no entry
            Some(vec![]),                 // entry one buffer short
            Some(vec![buf.clone(), buf]), // entry one buffer over
            Some(vec![short]),            // entry of the wrong length
        ] {
            let (a, b) = free_pair();
            a.tx_ring.push_frame(0, &frame, false, entry).unwrap();
            a.send(&msg).unwrap();
            assert_eq!(b.recv().unwrap_err(), TransportError::Poisoned);
            // The ring is dead from then on: the well-formed frame behind
            // the bad one is not paired with anything.
            assert_eq!(b.recv().unwrap_err(), TransportError::Disconnected);
            assert!(a.tx_ring.table.lock().is_empty());
        }
        // A frame flagged as owning an entry, with the table empty.
        let (a, b) = free_pair();
        a.tx_ring.push_frame(0, &frame, false, Some(refs)).unwrap();
        a.tx_ring.table.lock().clear();
        assert_eq!(b.recv().unwrap_err(), TransportError::Poisoned);
    }

    #[test]
    fn ring_full_with_dead_consumer_errors_instead_of_blocking() {
        let (a, b) = ring_pair(2048);
        // Fill the ring with no consumer draining it, then kill the
        // consumer. The blocked producer must unwedge with an error.
        let producer = std::thread::spawn(move || {
            let mut result = Ok(());
            for i in 0..50 {
                result = a.send(&str_call(i, 400));
                if result.is_err() {
                    break;
                }
            }
            result
        });
        std::thread::sleep(Duration::from_millis(50));
        b.disconnect();
        assert_eq!(
            producer.join().unwrap().unwrap_err(),
            TransportError::Disconnected
        );
    }

    #[test]
    fn disconnect_wakes_blocked_receiver() {
        let (a, b) = free_pair();
        let waiter = std::thread::spawn(move || b.recv());
        std::thread::sleep(Duration::from_millis(20));
        a.disconnect();
        assert_eq!(
            waiter.join().unwrap().unwrap_err(),
            TransportError::Disconnected
        );
    }

    #[test]
    fn delivery_latency_is_applied() {
        let model = CostModel {
            delivery_latency: Duration::from_millis(4),
            ..CostModel::free()
        };
        let (a, b) = pair(RingConfig {
            capacity: 1 << 16,
            model,
        });
        let start = Instant::now();
        a.send(&Message::Control(ControlMessage::Ping(1))).unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn frame_bytes_are_counted() {
        // One 64 KiB buffer (by reference) and one 40 KiB string (inline,
        // three fragments through this ring).
        let (a, b) = free_pair();
        a.send(&call(1, 64 * 1024)).unwrap();
        a.send(&str_call(2, 40 * 1024)).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        let s = a.stats();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(
            s.payload_bytes_sent,
            104 * 1024,
            "payload accounting counts by-reference buffers"
        );
        let ring_bytes = a.tx_ring.tail.load(Ordering::Acquire) as u64;
        assert_eq!(
            s.frame_bytes_sent, ring_bytes,
            "frame bytes are exactly what the ring carried"
        );
        assert!(ring_bytes < 41 * 1024, "the buffer entered the ring");
        let r = b.stats();
        assert_eq!(r.messages_received, 2);
        assert_eq!(r.frame_bytes_received, ring_bytes);
        assert_eq!(r.payload_bytes_received, s.payload_bytes_sent);
    }

    #[test]
    fn bidirectional_traffic() {
        let (a, b) = free_pair();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                let msg = b.recv().unwrap();
                if let Message::Call(req) = msg {
                    b.send(&Message::Control(ControlMessage::Pong(req.call_id)))
                        .unwrap();
                }
            }
            b
        });
        for i in 0..100 {
            a.send(&call(i, 32)).unwrap();
            match a.recv().unwrap() {
                Message::Control(ControlMessage::Pong(id)) => assert_eq!(id, i),
                other => panic!("{other:?}"),
            }
        }
        t.join().unwrap();
    }
}
