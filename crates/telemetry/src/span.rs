//! Per-call spans: one record per forwarded API invocation, with stage
//! timestamps contributed by every tier it crosses.
//!
//! The guest library opens a span keyed by the wire `(vm_id, call_id)`
//! pair; the router stamps `queued`/`forwarded`/`replied`, the API server
//! stamps `executed`. All timestamps are nanoseconds since the owning
//! registry's epoch, so a single call's end-to-end latency decomposes
//! exactly into per-tier segments (the stage deltas telescope).
//!
//! ```text
//!  guest_start ── sent ── queued ── forwarded ── executed ── replied ── guest_end
//!  |  marshal  | transport | queue  |  server    |  reply    | return  |
//! ```

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hash::IntMap;

/// Identifies one call across tiers: `(vm_id, call_id)`.
pub type SpanKey = (u32, u64);

/// The active-span map, locked on every stage stamp of every call.
type ActiveMap = IntMap<SpanKey, SpanRecord>;

/// Lifecycle stages a span passes through, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Guest: call entered the guest library (before marshaling).
    GuestStart,
    /// Guest: request handed to the transport.
    Sent,
    /// Router: request ingested from the guest channel.
    Queued,
    /// Router: request forwarded to the API server.
    Forwarded,
    /// Server: dispatch against the silo finished.
    Executed,
    /// Router: reply pumped back toward the guest.
    Replied,
    /// Guest: reply consumed, call returns to the application.
    GuestEnd,
}

/// One call's cross-tier timeline. All times are nanoseconds since the
/// registry epoch; `None` means the stage was not observed (that tier was
/// not instrumented, or the call bypassed it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// VM the call belongs to (0 when unattributed).
    pub vm: u32,
    /// Wire call id (unique per VM).
    pub call_id: u64,
    /// Function id as seen by the guest when opening the span.
    pub fn_id: Option<u32>,
    /// Function id as seen by the server when executing — must agree with
    /// `fn_id` for a healthy stack.
    pub server_fn_id: Option<u32>,
    /// Stage timestamps.
    pub guest_start: Option<u64>,
    /// Request handed to the transport by the guest.
    pub sent: Option<u64>,
    /// Request ingested by the router.
    pub queued: Option<u64>,
    /// Request forwarded to the API server.
    pub forwarded: Option<u64>,
    /// Server dispatch completed.
    pub executed: Option<u64>,
    /// Reply pumped back by the router.
    pub replied: Option<u64>,
    /// Reply consumed by the guest.
    pub guest_end: Option<u64>,
}

impl SpanRecord {
    fn delta(a: Option<u64>, b: Option<u64>) -> Option<u64> {
        Some(b?.saturating_sub(a?))
    }

    /// Guest-side marshal + verification time (`guest_start → sent`).
    pub fn guest_marshal(&self) -> Option<u64> {
        Self::delta(self.guest_start, self.sent)
    }

    /// Guest→router transport time (`sent → queued`).
    pub fn transport_out(&self) -> Option<u64> {
        Self::delta(self.sent, self.queued)
    }

    /// Router queueing + policy time (`queued → forwarded`).
    pub fn router_queue(&self) -> Option<u64> {
        Self::delta(self.queued, self.forwarded)
    }

    /// Server execution time including the router→server hop
    /// (`forwarded → executed`).
    pub fn server_execute(&self) -> Option<u64> {
        Self::delta(self.forwarded, self.executed)
    }

    /// Server→router reply time (`executed → replied`).
    pub fn reply_path(&self) -> Option<u64> {
        Self::delta(self.executed, self.replied)
    }

    /// Router→guest return transport time (`replied → guest_end`).
    pub fn transport_back(&self) -> Option<u64> {
        Self::delta(self.replied, self.guest_end)
    }

    /// End-to-end latency observed by the guest
    /// (`guest_start → guest_end`).
    pub fn total(&self) -> Option<u64> {
        Self::delta(self.guest_start, self.guest_end)
    }

    /// The stage timestamps that were observed, in lifecycle order.
    pub fn observed_stages(&self) -> Vec<(Stage, u64)> {
        [
            (Stage::GuestStart, self.guest_start),
            (Stage::Sent, self.sent),
            (Stage::Queued, self.queued),
            (Stage::Forwarded, self.forwarded),
            (Stage::Executed, self.executed),
            (Stage::Replied, self.replied),
            (Stage::GuestEnd, self.guest_end),
        ]
        .into_iter()
        .filter_map(|(s, t)| Some((s, t?)))
        .collect()
    }

    /// True if every observed stage pair is in lifecycle order.
    pub fn stages_ordered(&self) -> bool {
        self.observed_stages().windows(2).all(|w| w[0].1 <= w[1].1)
    }
}

/// Default cap on in-flight (active) spans; excess openings are dropped
/// and counted rather than growing without bound.
const ACTIVE_CAP: usize = 1 << 16;

/// Default cap on retained completed spans.
const COMPLETED_CAP: usize = 1 << 16;

/// Shards of the active-span map. Stamps for one call come from three
/// threads (guest, router, server) but *different* calls are in flight
/// simultaneously; hashing the key across shards keeps the per-stamp
/// critical section from serializing the whole stack on one mutex.
const ACTIVE_SHARDS: usize = 16;

/// Cap on deferred stamps awaiting a fold; excess stamps are dropped and
/// counted, bounding memory if nothing ever folds.
const DEFERRED_CAP: u64 = 1 << 16;

/// A stage stamp recorded via [`SpanTable::stage_deferred`], parked on
/// the lock-free intake until the next fold.
struct DeferredStamp {
    key: SpanKey,
    stage: Stage,
    nanos: u64,
    fn_id: Option<u32>,
}

/// Intrusive node of the deferred-stamp Treiber stack.
struct StampNode {
    stamp: DeferredStamp,
    next: *mut StampNode,
}

/// Concurrent store of active and completed spans.
pub struct SpanTable {
    active: [Mutex<ActiveMap>; ACTIVE_SHARDS],
    /// Total records across all `active` shards (cap enforcement without
    /// locking every shard).
    active_count: AtomicU64,
    completed: Mutex<Vec<SpanRecord>>,
    /// Spans dropped because a cap was hit.
    dropped: AtomicU64,
    /// Lock-free intake of stamps pushed by [`SpanTable::stage_deferred`]
    /// (newest first; reversed to push order at fold time).
    deferred: AtomicPtr<StampNode>,
    /// Upper bound on nodes in `deferred`.
    deferred_len: AtomicU64,
    /// Serializes folds so one fold cannot interleave another's chain —
    /// a producer's per-call stamp order must survive the fold.
    fold_lock: Mutex<()>,
}

impl Default for SpanTable {
    fn default() -> Self {
        SpanTable {
            active: std::array::from_fn(|_| Mutex::new(ActiveMap::default())),
            active_count: AtomicU64::new(0),
            completed: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            deferred: AtomicPtr::new(std::ptr::null_mut()),
            deferred_len: AtomicU64::new(0),
            fold_lock: Mutex::new(()),
        }
    }
}

impl Drop for SpanTable {
    fn drop(&mut self) {
        let mut node = *self.deferred.get_mut();
        while !node.is_null() {
            // Safety: nodes are uniquely owned by the intake once pushed,
            // and `&mut self` excludes concurrent pushers and folders.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
        }
    }
}

impl SpanTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard holding `key`'s record. Consecutive call ids spread
    /// across shards, so back-to-back calls never contend.
    fn shard(&self, key: SpanKey) -> &Mutex<ActiveMap> {
        let h = key.1 ^ u64::from(key.0).rotate_left(32);
        &self.active[(h as usize) % ACTIVE_SHARDS]
    }

    /// Records `stage` at time `nanos` for the span `key`, creating the
    /// record on first touch. `fn_id` attributes the function at the
    /// recording tier (guest on open, server on execute).
    ///
    /// A `GuestEnd` stamp folds the deferred intake first, so any
    /// router-side stamps parked there (the router pushes `Replied`
    /// *before* relaying the reply, hence before the guest can get here)
    /// land on the record before it completes.
    pub fn stage(&self, key: SpanKey, stage: Stage, nanos: u64, fn_id: Option<u32>) {
        if stage == Stage::GuestEnd {
            self.fold_deferred();
        }
        self.stage_inner(key, stage, nanos, fn_id);
    }

    fn stage_inner(&self, key: SpanKey, stage: Stage, nanos: u64, fn_id: Option<u32>) {
        let mut active = self.shard(key).lock().expect("span table poisoned");
        let record = match active.get_mut(&key) {
            Some(r) => r,
            None => {
                if self.active_count.load(Ordering::Relaxed) >= ACTIVE_CAP as u64 {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                self.active_count.fetch_add(1, Ordering::Relaxed);
                let r = active.entry(key).or_default();
                r.vm = key.0;
                r.call_id = key.1;
                r
            }
        };
        match stage {
            Stage::GuestStart => {
                record.guest_start = Some(nanos);
                record.fn_id = fn_id.or(record.fn_id);
            }
            Stage::Sent => record.sent = Some(nanos),
            Stage::Queued => record.queued = Some(nanos),
            Stage::Forwarded => record.forwarded = Some(nanos),
            Stage::Executed => {
                record.executed = Some(nanos);
                record.server_fn_id = fn_id.or(record.server_fn_id);
            }
            Stage::Replied => record.replied = Some(nanos),
            Stage::GuestEnd => record.guest_end = Some(nanos),
        }
        // A span completes when the guest consumes the reply, or — for
        // traffic injected below the guest library (raw transport tests,
        // unattributed probes) — when the router pumps the reply back and
        // no guest ever opened the span.
        let done = match stage {
            Stage::GuestEnd => true,
            Stage::Replied => record.guest_start.is_none(),
            _ => false,
        };
        if done {
            let record = active.remove(&key).expect("record exists");
            drop(active);
            self.active_count.fetch_sub(1, Ordering::Relaxed);
            let mut completed = self.completed.lock().expect("span table poisoned");
            if completed.len() >= COMPLETED_CAP {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                completed.push(record);
            }
        }
    }

    /// Records `stage` without touching any shard mutex: the stamp is
    /// pushed onto a lock-free intake and applied at the next fold (a
    /// guest-end stamp or a read API). Meant for the router's data path,
    /// where a per-stamp lock would serialize call forwarding against
    /// telemetry readers and the other tiers' stamps.
    pub fn stage_deferred(&self, key: SpanKey, stage: Stage, nanos: u64, fn_id: Option<u32>) {
        if self.deferred_len.fetch_add(1, Ordering::SeqCst) >= DEFERRED_CAP {
            self.deferred_len.fetch_sub(1, Ordering::SeqCst);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let node = Box::into_raw(Box::new(StampNode {
            stamp: DeferredStamp {
                key,
                stage,
                nanos,
                fn_id,
            },
            next: std::ptr::null_mut(),
        }));
        let mut head = self.deferred.load(Ordering::SeqCst);
        loop {
            // Safety: `node` came from Box::into_raw above and is not yet
            // shared; it becomes shared only once the CAS publishes it.
            unsafe { (*node).next = head };
            match self.deferred.compare_exchange_weak(
                head,
                node,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(current) => head = current,
            }
        }
    }

    /// Applies every parked deferred stamp to the span records, in each
    /// producer's push order. Cheap when the intake is empty (one atomic
    /// load); folds are serialized against each other.
    pub fn fold_deferred(&self) {
        if self.deferred.load(Ordering::SeqCst).is_null() {
            return;
        }
        let _guard = self.fold_lock.lock().expect("span table poisoned");
        let mut head = self.deferred.swap(std::ptr::null_mut(), Ordering::SeqCst);
        // Reverse the LIFO chain so stamps apply in push order.
        let mut prev: *mut StampNode = std::ptr::null_mut();
        let mut count = 0u64;
        while !head.is_null() {
            // Safety: the swap above transferred exclusive ownership of
            // the whole chain to this fold.
            let next = unsafe { (*head).next };
            unsafe { (*head).next = prev };
            prev = head;
            head = next;
            count += 1;
        }
        self.deferred_len.fetch_sub(count, Ordering::SeqCst);
        let mut node = prev;
        while !node.is_null() {
            // Safety: each node is applied and freed exactly once.
            let boxed = unsafe { Box::from_raw(node) };
            let s = boxed.stamp;
            self.stage_inner(s.key, s.stage, s.nanos, s.fn_id);
            node = boxed.next;
        }
    }

    /// Discards the active record for `key` (e.g. a call that failed
    /// before reaching the wire).
    pub fn abandon(&self, key: SpanKey) {
        let removed = self
            .shard(key)
            .lock()
            .expect("span table poisoned")
            .remove(&key);
        if removed.is_some() {
            self.active_count.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Number of spans currently in flight.
    pub fn active_len(&self) -> usize {
        self.active_count.load(Ordering::Relaxed) as usize
    }

    /// Spans dropped due to capacity limits.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the completed spans without consuming them. Folds the
    /// deferred intake first so readers see every stamp pushed so far.
    pub fn completed(&self) -> Vec<SpanRecord> {
        self.fold_deferred();
        self.completed.lock().expect("span table poisoned").clone()
    }

    /// Drains and returns the completed spans (after folding deferred
    /// stamps, like [`SpanTable::completed`]).
    pub fn take_completed(&self) -> Vec<SpanRecord> {
        self.fold_deferred();
        std::mem::take(&mut *self.completed.lock().expect("span table poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lifecycle_completes_on_guest_end() {
        let t = SpanTable::new();
        let key = (1, 42);
        t.stage(key, Stage::GuestStart, 10, Some(7));
        t.stage(key, Stage::Sent, 20, None);
        t.stage(key, Stage::Queued, 30, None);
        t.stage(key, Stage::Forwarded, 40, None);
        t.stage(key, Stage::Executed, 50, Some(7));
        t.stage(key, Stage::Replied, 60, None);
        assert_eq!(t.active_len(), 1, "guest has not consumed the reply yet");
        t.stage(key, Stage::GuestEnd, 70, None);
        assert_eq!(t.active_len(), 0);
        let done = t.take_completed();
        assert_eq!(done.len(), 1);
        let span = &done[0];
        assert_eq!(span.fn_id, Some(7));
        assert_eq!(span.server_fn_id, Some(7));
        assert!(span.stages_ordered());
        assert_eq!(span.total(), Some(60));
        let segments = span.guest_marshal().unwrap()
            + span.transport_out().unwrap()
            + span.router_queue().unwrap()
            + span.server_execute().unwrap()
            + span.reply_path().unwrap()
            + span.transport_back().unwrap();
        assert_eq!(segments, span.total().unwrap(), "segments telescope");
    }

    #[test]
    fn guestless_span_completes_on_replied() {
        let t = SpanTable::new();
        let key = (3, 1);
        t.stage(key, Stage::Queued, 5, None);
        t.stage(key, Stage::Forwarded, 6, None);
        t.stage(key, Stage::Executed, 7, Some(2));
        t.stage(key, Stage::Replied, 8, None);
        assert_eq!(t.active_len(), 0);
        assert_eq!(t.take_completed().len(), 1);
    }

    #[test]
    fn abandon_discards_active() {
        let t = SpanTable::new();
        t.stage((1, 1), Stage::GuestStart, 1, Some(0));
        t.abandon((1, 1));
        assert_eq!(t.active_len(), 0);
        assert!(t.take_completed().is_empty());
    }

    #[test]
    fn deferred_stamps_fold_before_guest_end_completes() {
        let t = SpanTable::new();
        let key = (1, 9);
        t.stage(key, Stage::GuestStart, 10, Some(4));
        t.stage(key, Stage::Sent, 20, None);
        // Router-side stamps go through the lock-free intake.
        t.stage_deferred(key, Stage::Queued, 30, None);
        t.stage_deferred(key, Stage::Forwarded, 40, None);
        t.stage_deferred(key, Stage::Replied, 60, None);
        // Nothing folded yet: the record is active and missing them.
        assert_eq!(t.active_len(), 1);
        t.stage(key, Stage::GuestEnd, 70, None);
        let done = t.take_completed();
        assert_eq!(done.len(), 1);
        let span = &done[0];
        assert_eq!(span.queued, Some(30));
        assert_eq!(span.forwarded, Some(40));
        assert_eq!(span.replied, Some(60));
        assert!(span.stages_ordered());
    }

    #[test]
    fn read_apis_fold_deferred_guestless_spans() {
        let t = SpanTable::new();
        let key = (2, 5);
        t.stage_deferred(key, Stage::Queued, 1, None);
        t.stage_deferred(key, Stage::Forwarded, 2, None);
        t.stage_deferred(key, Stage::Replied, 3, None);
        // A guestless span completes on Replied — but only once folded.
        let done = t.completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].replied, Some(3));
        assert_eq!(t.active_len(), 0);
    }

    #[test]
    fn concurrent_deferred_pushers_lose_nothing() {
        use std::sync::Arc;
        let t = Arc::new(SpanTable::new());
        let threads: Vec<_> = (0..4u32)
            .map(|vm| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for call in 0..500u64 {
                        let key = (vm, call);
                        t.stage_deferred(key, Stage::Queued, call * 2, None);
                        t.stage_deferred(key, Stage::Forwarded, call * 2 + 1, None);
                        t.stage_deferred(key, Stage::Replied, call * 2 + 2, None);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let done = t.take_completed();
        assert_eq!(done.len(), 4 * 500, "every guestless span completed");
        assert!(done.iter().all(|s| s.stages_ordered()));
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn out_of_order_stamp_detected() {
        let r = SpanRecord {
            queued: Some(10),
            forwarded: Some(5),
            ..Default::default()
        };
        assert!(!r.stages_ordered());
    }
}
