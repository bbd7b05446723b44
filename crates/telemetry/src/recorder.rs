//! Flight recorder: a fixed-capacity ring buffer of structured events.
//!
//! Spans answer "where did *this call's* time go"; the flight recorder
//! answers "what *happened*" — retries, cache-miss NACKs, injected
//! faults, server crashes and respawns, journal replays, rebalances and
//! placement changes, SLO violations. Each tier emits [`Event`]s through
//! its [`Telemetry`](crate::Telemetry) handle; the recorder keeps the
//! most recent [`FlightRecorder::capacity`] of them, overwriting the
//! oldest when full (true flight-recorder semantics: after an incident
//! the tail of history is what matters). Every overwrite and every
//! recorded event is counted, so exporters can state exactly how much
//! history was shed.
//!
//! Recording is one short mutex-guarded ring push — no allocation, no
//! clock read (the caller stamps the time), bounded memory — cheap
//! enough to leave on in production alongside the span fast path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default event capacity (events retained before overwrite).
pub const DEFAULT_EVENT_CAP: usize = 1 << 14;

/// The stack tier that emitted an event. Each tier is one track in the
/// exported trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Guest library (stub side of the forwarded API).
    Guest,
    /// Hypervisor router.
    Router,
    /// Per-VM API server.
    Server,
    /// Transport layer (including fault injection).
    Transport,
    /// Shared device pool.
    Pool,
    /// Recovery / rebalance supervisor.
    Supervisor,
}

impl Tier {
    /// Stable lowercase name (used in trace track names).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Guest => "guest",
            Tier::Router => "router",
            Tier::Server => "server",
            Tier::Transport => "transport",
            Tier::Pool => "pool",
            Tier::Supervisor => "supervisor",
        }
    }
}

/// What happened. The `arg` field of [`Event`] carries the kind-specific
/// payload documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Guest: a call entered the stub. `arg` = function id.
    CallStart,
    /// Guest: a call returned to the application. `arg` = function id.
    CallFinish,
    /// Guest: a timed-out call was re-sent. `arg` = attempt number
    /// (1 = first retry).
    Retry,
    /// Guest: a call exhausted its deadline budget. `arg` = attempts used.
    DeadlineExceeded,
    /// Server: payload cache miss forced a NACK back to the guest.
    /// `arg` = cache epoch.
    CacheMissNack,
    /// Server: payload cache epoch bumped (teardown/restore). `arg` = new
    /// epoch.
    CacheEpoch,
    /// Transport: the fault injector fired. `arg` = action discriminant
    /// (0 drop, 1 duplicate, 2 delay, 3 corrupt, 4 disconnect).
    FaultInjected,
    /// Supervisor: a VM's API server was observed crashed.
    ServerCrash,
    /// Supervisor: a replacement server was spawned. `arg` = respawn
    /// count for the VM.
    ServerRespawn,
    /// Supervisor: journal replay restored state. `arg` = calls replayed.
    JournalReplay,
    /// Pool: a VM migrated between slots. `arg` = `src << 32 | dst`.
    Rebalance,
    /// Pool: a VM was placed on a slot at attach. `arg` = slot index.
    Placement,
    /// Supervisor: an SLO objective went into violation. `arg` =
    /// objective discriminant (0 p99 latency, 1 retry rate, 2 queue
    /// depth).
    SloViolation,
    /// Server: a cold buffer was evicted to the host-side store under
    /// memory pressure. `arg` = buffer size in bytes.
    SwapOut,
    /// Server: a swapped-out buffer was faulted back onto the device on
    /// touch. `arg` = buffer size in bytes.
    FaultIn,
    /// Server: an allocation was refused because it would exceed the VM's
    /// device-memory quota. `arg` = requested size in bytes.
    QuotaReject,
    /// Router: admission control shed a call (queue depth/age limit,
    /// open breaker, or brownout priority shedding). `arg` = reason
    /// discriminant (0 queue depth, 1 queue age, 2 breaker, 3 brownout,
    /// 4 concurrency cap).
    Shed,
    /// Router or server: a call's deadline budget expired while queued
    /// and it was discarded instead of executed. `arg` = the expired
    /// budget in microseconds as stamped on the frame.
    DeadlineDrop,
    /// Router: a tenant's circuit breaker opened (quarantine). `arg` =
    /// consecutive failures observed.
    BreakerOpen,
    /// Router: a tenant's circuit breaker closed after a successful
    /// half-open probe. `arg` = probes used.
    BreakerClose,
    /// Supervisor: brownout stage changed. `arg` = new stage (0 = exit
    /// brownout, higher = deeper degradation).
    Brownout,
}

impl EventKind {
    /// Stable snake_case name (used in trace/event exports).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CallStart => "call_start",
            EventKind::CallFinish => "call_finish",
            EventKind::Retry => "retry",
            EventKind::DeadlineExceeded => "deadline_exceeded",
            EventKind::CacheMissNack => "cache_miss_nack",
            EventKind::CacheEpoch => "cache_epoch",
            EventKind::FaultInjected => "fault_injected",
            EventKind::ServerCrash => "server_crash",
            EventKind::ServerRespawn => "server_respawn",
            EventKind::JournalReplay => "journal_replay",
            EventKind::Rebalance => "rebalance",
            EventKind::Placement => "placement",
            EventKind::SloViolation => "slo_violation",
            EventKind::SwapOut => "swap_out",
            EventKind::FaultIn => "fault_in",
            EventKind::QuotaReject => "quota_reject",
            EventKind::Shed => "shed",
            EventKind::DeadlineDrop => "deadline_drop",
            EventKind::BreakerOpen => "breaker_open",
            EventKind::BreakerClose => "breaker_close",
            EventKind::Brownout => "brownout",
        }
    }
}

/// One recorded occurrence. `Copy` and fixed-size so ring pushes never
/// allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the owning registry's epoch.
    pub nanos: u64,
    /// Emitting tier.
    pub tier: Tier,
    /// What happened.
    pub kind: EventKind,
    /// VM the event is attributed to (0 when unattributed).
    pub vm: u32,
    /// Wire call id, when the event concerns a specific call (else 0).
    pub call_id: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub arg: u64,
}

/// Packs a rebalance source/destination pair into an [`Event::arg`].
pub fn pack_slots(src: usize, dst: usize) -> u64 {
    ((src as u64) << 32) | (dst as u64 & 0xffff_ffff)
}

/// Unpacks a [`pack_slots`] payload.
pub fn unpack_slots(arg: u64) -> (usize, usize) {
    ((arg >> 32) as usize, (arg & 0xffff_ffff) as usize)
}

struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest event when the ring is full; next write slot
    /// otherwise.
    head: usize,
}

/// Fixed-capacity, overwrite-oldest event ring.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    cap: usize,
    /// Events overwritten before being read.
    overwritten: AtomicU64,
    /// Total events ever recorded.
    total: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_EVENT_CAP)
    }
}

impl FlightRecorder {
    /// Creates a recorder retaining at most `cap` events (min 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(cap),
                head: 0,
            }),
            cap,
            overwritten: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends `event`, overwriting the oldest when full.
    pub fn record(&self, event: Event) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("recorder poisoned");
        if ring.buf.len() < self.cap {
            ring.buf.push(event);
        } else {
            let head = ring.head;
            ring.buf[head] = event;
            ring.head = (head + 1) % self.cap;
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("recorder poisoned").buf.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events shed to overwrite since creation.
    pub fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Total events recorded since creation.
    pub fn total_recorded(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Copies the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let ring = self.ring.lock().expect("recorder poisoned");
        let mut out = Vec::with_capacity(ring.buf.len());
        if ring.buf.len() == self.cap {
            out.extend_from_slice(&ring.buf[ring.head..]);
            out.extend_from_slice(&ring.buf[..ring.head]);
        } else {
            out.extend_from_slice(&ring.buf);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(nanos: u64) -> Event {
        Event {
            nanos,
            tier: Tier::Guest,
            kind: EventKind::Retry,
            vm: 1,
            call_id: nanos,
            arg: 0,
        }
    }

    #[test]
    fn records_in_order_below_capacity() {
        let r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(ev(i));
        }
        let got: Vec<u64> = r.events().iter().map(|e| e.nanos).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.overwritten(), 0);
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let r = FlightRecorder::new(4);
        for i in 0..7 {
            r.record(ev(i));
        }
        let got: Vec<u64> = r.events().iter().map(|e| e.nanos).collect();
        assert_eq!(got, vec![3, 4, 5, 6], "keeps the most recent tail");
        assert_eq!(r.overwritten(), 3);
        assert_eq!(r.total_recorded(), 7);
    }

    #[test]
    fn slot_packing_round_trips() {
        assert_eq!(unpack_slots(pack_slots(3, 1)), (3, 1));
        assert_eq!(unpack_slots(pack_slots(0, 0)), (0, 0));
        assert_eq!(
            unpack_slots(pack_slots(usize::MAX & 0xffff_ffff, 7)),
            (0xffff_ffff, 7)
        );
    }
}
