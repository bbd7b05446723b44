//! The invocation router (§4.1, §4.3).
//!
//! The router is the hypervisor-resident component that restores
//! *interposition* to API remoting: every forwarded call crosses a
//! hypervisor-owned transport, where the router verifies it, applies
//! resource policies (rate limiting, scheduling, quotas) and only then
//! hands it to the per-VM API server. Replies flow back the same way.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_spec::ApiDescriptor;
use ava_telemetry::{metric_set, Counter, Gauge, MetricSet, Stage, Telemetry};
use ava_transport::{BoxedTransport, TransportError};
use ava_wire::{CallMode, CallReply, CallRequest, ControlMessage, Message, ReplyStatus, VmId};
use crossbeam::channel::{Receiver, TryRecvError};

use crate::policy::{BreakerConfig, BreakerState, CircuitBreaker, SchedulerKind, VmPolicy};
use ava_telemetry::EventKind;
use ava_telemetry::Tier;

metric_set! {
    /// Per-VM counters exposed by the router.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct VmStats;
    /// The router mutates these shared atomics; the [`Hypervisor`] reads
    /// the very same cells for stats and quiescence, and a telemetry
    /// [`ava_telemetry::Registry`] (when attached) under `router.vm<N>.*`
    /// names.
    ///
    /// [`Hypervisor`]: crate::Hypervisor
    #[derive(Clone)]
    pub(crate) struct VmMetrics {
        /// Calls forwarded to the API server.
        forwarded: Counter,
        /// Calls rejected by policy.
        rejected: Counter,
        /// Replies returned to the guest.
        replies: Counter,
        /// Guest→host payload bytes seen.
        bytes_in: Counter,
        /// Host→guest payload bytes seen.
        bytes_out: Counter,
        /// Guest→host payload bytes that never crossed the transport because
        /// the transfer cache elided them (`bytes_in` counts only what moved,
        /// so interposition-level accounting stays truthful).
        bytes_elided: Counter,
        /// Buffer arguments that arrived as `CachedBytes` digests.
        cache_hits: Counter,
        /// `CacheMiss` NACKs relayed back to the guest.
        cache_misses: Counter,
        /// Estimated device time consumed, in microseconds (from the spec's
        /// `resource(device_time_us, ...)` annotations).
        est_device_time_us: Gauge,
        /// Estimated device memory allocated, in bytes (cumulative; §4.3's
        /// usage approximations are deliberately coarse).
        est_device_mem: Gauge,
        /// Sync calls forwarded and not yet answered (async calls are
        /// never counted: the server answers them only on failure).
        outstanding: Counter,
        /// Sync calls answered with [`ReplyStatus::Unavailable`] because the
        /// lane's server is permanently gone.
        unavailable_replies: Counter,
        /// Calls shed at admission (queue-depth limit, open breaker, or
        /// brownout) with an [`ReplyStatus::Overloaded`] reply.
        shed: Counter,
        /// Queued calls dropped at dequeue because their deadline budget
        /// expired while waiting.
        deadline_drops: Counter,
        /// Queued calls dropped at dequeue for exceeding the queue-age limit.
        age_drops: Counter,
        /// Times this lane's circuit breaker opened.
        breaker_opens: Counter,
    }
}

/// Commands sent to the router thread.
pub(crate) enum RouterCmd {
    /// Attach a VM: its guest-side and server-side transports plus policy.
    AddVm {
        /// VM identifier.
        vm_id: VmId,
        /// Router end of the guest channel.
        guest: BoxedTransport,
        /// Router end of the server channel.
        server: BoxedTransport,
        /// Resource policy for this VM.
        policy: VmPolicy,
        /// Device-pool slot this VM's server is bound to, if the stack
        /// runs a shared pool. Lanes on the same slot share the slot's
        /// in-flight budget ([`RouterConfig::slot_inflight`]).
        slot: Option<usize>,
        /// The lane's counters, shared with the hypervisor.
        metrics: Box<VmMetrics>,
    },
    /// Stop forwarding guest→server traffic for a VM (replies still pump).
    Pause(VmId),
    /// Resume a paused VM.
    Resume(VmId),
    /// Remove a VM entirely.
    Remove(VmId),
    /// Replace a lane's server-side transport after the supervisor
    /// respawned a crashed API server. Clears any down/unavailable state;
    /// queued calls start flowing to the new server.
    ReattachServer {
        /// VM identifier.
        vm_id: VmId,
        /// Router end of the new server channel.
        server: BoxedTransport,
    },
    /// Declare a VM's server permanently gone: queued and future sync
    /// calls are answered with [`ReplyStatus::Unavailable`] immediately
    /// instead of waiting on a reply that can never come.
    MarkUnavailable(VmId),
    /// Rebind a lane to a different device-pool slot (used by live
    /// rebalancing, after the VM's server was migrated onto the
    /// destination slot's device).
    SetSlot {
        /// VM identifier.
        vm_id: VmId,
        /// New slot, or `None` to detach the lane from pool accounting.
        slot: Option<usize>,
    },
    /// Set the brownout degradation stage. Stage 0 restores normal
    /// operation; stage ≥ 1 collapses forward-run coalescing (queued work
    /// drains with minimal added batching latency) and halves the
    /// admission queue-depth limits; the `shed` list names tenants
    /// (lowest priority first, chosen by the supervisor) whose traffic is
    /// shed entirely with [`ReplyStatus::Overloaded`] until the stage
    /// drops again.
    SetBrownout {
        /// New degradation stage (0 = normal).
        stage: u8,
        /// VMs whose traffic is shed at this stage.
        shed: Vec<VmId>,
    },
    /// Attach a telemetry registry: per-VM counters register under
    /// `router.vm<N>.*` and sync calls get Queued/Forwarded/Replied span
    /// stamps. Applies to existing lanes and any added later.
    SetTelemetry(Telemetry),
    /// Stop the router.
    Shutdown,
}

/// Most calls forwarded per scheduling round, so reply pumping stays
/// responsive under load.
const MAX_FORWARD_PER_ROUND: usize = 64;

/// Most consecutive same-lane calls coalesced into one router→server
/// frame. Async calls coalesce freely; sync calls stay bounded by the
/// slot in-flight budget. Brownout drops the run to one call.
const FORWARD_RUN_MAX: usize = 32;

/// Shared scheduling state for one device-pool slot: the totals of its
/// lanes' ledgers. Admission checks and the `pool.slot<N>.queue_depth`
/// gauge are O(1) atomic reads, with no scan over lanes.
#[derive(Clone, Default)]
struct SlotEntry {
    /// Sync calls forwarded and unanswered across the slot's lanes (the
    /// quantity [`RouterConfig::slot_inflight`] bounds).
    outstanding: Counter,
    /// Queued (ingested, not yet forwarded) calls across the slot's
    /// lanes; registered directly as the slot's queue-depth gauge, so
    /// there is no separate refresh pass.
    depth: Gauge,
}

/// One lane's counts: its queue and the call ids of the sync calls it has
/// forwarded and not yet seen answered. Its methods are the only code that
/// changes the lane's `outstanding` cell or its slot's totals, so a slot's
/// depth and outstanding are always the sums over its lanes' ledgers.
struct Ledger {
    queue: VecDeque<QueuedCall>,
    /// Forwarded sync calls awaiting their reply. Each one blocks a guest
    /// thread, so a lane has a few in flight at most and a scan beats a
    /// map.
    inflight: Vec<u64>,
    /// The lane's `outstanding` cell: always `inflight.len()`.
    outstanding: Counter,
    /// The cells of the device-pool slot the lane's server is bound to;
    /// `None` when the VM has a private device (the pre-pool topology).
    slot: Option<SlotEntry>,
}

impl Ledger {
    fn new(outstanding: Counter, slot: Option<SlotEntry>) -> Self {
        Ledger {
            queue: VecDeque::new(),
            inflight: Vec::new(),
            outstanding,
            slot,
        }
    }

    fn in_flight(&self) -> u64 {
        self.inflight.len() as u64
    }

    fn add_depth(&self, delta: f64) {
        if let Some(s) = &self.slot {
            s.depth.add(delta);
        }
    }

    fn enqueue(&mut self, req: CallRequest) {
        self.add_depth(1.0);
        self.queue.push_back(QueuedCall {
            req,
            enqueued_at: Instant::now(),
        });
    }

    fn dequeue(&mut self) -> Option<QueuedCall> {
        let call = self.queue.pop_front()?;
        self.add_depth(-1.0);
        Some(call)
    }

    /// Counts a run's sync calls in flight. Async calls are
    /// fire-and-forget: the server replies to them only on failure, so
    /// they are never counted. A call id already in flight (a guest
    /// resend) is counted once.
    fn forward(&mut self, run: &[CallRequest]) {
        let before = self.inflight.len();
        for req in run.iter().filter(|r| r.mode == CallMode::Sync) {
            if !self.inflight.contains(&req.call_id) {
                self.inflight.push(req.call_id);
            }
        }
        let added = (self.inflight.len() - before) as u64;
        self.outstanding.add(added);
        if let Some(s) = &self.slot {
            s.outstanding.add(added);
        }
    }

    /// Settles the call a reply answers. A reply whose id was never
    /// counted (an async failure, an async `CacheMiss` NACK or deadline
    /// discard) settles nothing, and an id settles at most once.
    fn settle(&mut self, call_id: u64) {
        if let Some(i) = self.inflight.iter().position(|&id| id == call_id) {
            self.inflight.swap_remove(i);
            self.outstanding.dec_saturating();
            if let Some(s) = &self.slot {
                s.outstanding.dec_saturating();
            }
        }
    }

    /// Takes back a run the server never received and puts it at the
    /// front of the queue in order (nothing newer was forwarded, so order
    /// is preserved). The dequeue already deducted queue wait from each
    /// call's budget, so restarting the wait clock keeps budget accounting
    /// consistent.
    fn requeue(&mut self, run: Vec<CallRequest>) {
        for req in run.into_iter().rev() {
            if req.mode == CallMode::Sync {
                self.settle(req.call_id);
            }
            self.add_depth(1.0);
            self.queue.push_front(QueuedCall {
                req,
                enqueued_at: Instant::now(),
            });
        }
    }

    /// Forgets every in-flight call: the replies died with the lane's old
    /// server. Keeping them would charge the slot for calls that can never
    /// complete, starving its slot-mates under the in-flight cap.
    fn discharge(&mut self) {
        let n = self.in_flight();
        self.inflight.clear();
        self.outstanding.sub_saturating(n);
        if let Some(s) = &self.slot {
            s.outstanding.sub_saturating(n);
        }
    }

    /// Moves the lane's queued and in-flight charges to another slot's
    /// cells (`None`: off pool accounting).
    fn rebind(&mut self, slot: Option<SlotEntry>) {
        let (depth, n) = (self.queue.len() as f64, self.in_flight());
        if let Some(old) = &self.slot {
            old.depth.add(-depth);
            old.outstanding.sub_saturating(n);
        }
        if let Some(new) = &slot {
            new.depth.add(depth);
            new.outstanding.add(n);
        }
        self.slot = slot;
    }
}

metric_set! {
    /// Aggregate overload counters, registered as `overload.*` so operators
    /// see stack-wide shedding without summing per-VM cells. Every lane
    /// holds a clone of the same cells.
    #[derive(Clone)]
    struct OverloadMetrics {
        sheds: Counter,
        deadline_drops: Counter,
        age_drops: Counter,
        breaker_opens: Counter,
        brownout_stage: Gauge,
    }
}

/// Why a call was shed at admission ([`EventKind::Shed`] `arg` payload).
mod shed_reason {
    pub const QUEUE_DEPTH: u64 = 0;
    pub const QUEUE_AGE: u64 = 1;
    pub const BREAKER: u64 = 2;
    pub const BROWNOUT: u64 = 3;
}

/// One guest call waiting in a lane queue, stamped with its arrival time
/// so age limits and deadline budgets can be enforced at dequeue.
struct QueuedCall {
    req: CallRequest,
    enqueued_at: Instant,
}

struct Lane {
    vm_id: VmId,
    guest: BoxedTransport,
    server: BoxedTransport,
    policy: VmPolicy,
    ledger: Ledger,
    paused: bool,
    closed: bool,
    /// The server transport failed; forwarding is suspended until the
    /// supervisor either reattaches a respawned server or gives up.
    server_down: bool,
    /// The supervisor gave up on this lane's server: answer sync calls
    /// with `Unavailable` instead of queueing them.
    unavailable: bool,
    /// Per-tenant circuit breaker, when the router is configured with one.
    breaker: Option<CircuitBreaker>,
    /// Call id of the in-flight half-open probe, if any (so an aged-out
    /// or expired probe releases the half-open admission slot).
    probe_call_id: Option<u64>,
    /// Brownout is shedding this tenant's traffic entirely.
    brownout_shed: bool,
    metrics: VmMetrics,
    overload: OverloadMetrics,
    telemetry: Telemetry,
}

/// Router configuration.
pub struct RouterConfig {
    /// Scheduling algorithm across VMs.
    pub scheduler: SchedulerKind,
    /// Descriptor used to evaluate resource-cost annotations; `None`
    /// disables cost estimation (all calls cost 1).
    pub descriptor: Option<Arc<ApiDescriptor>>,
    /// Maximum sync calls in flight per device-pool slot, across every
    /// lane bound to that slot. Small values keep the scheduler in
    /// control (a slot's device serializes anyway — deep server-side
    /// queues would just launder scheduling decisions made early); must
    /// be ≥ 1 or a pooled slot could never forward at all.
    pub slot_inflight: usize,
    /// Per-VM admission limit: a call arriving while the lane already
    /// queues this many is shed with [`ReplyStatus::Overloaded`].
    /// `None` disables per-VM depth admission.
    pub max_queue_depth: Option<usize>,
    /// Per-slot aggregate admission limit across all lanes bound to the
    /// slot. `None` disables per-slot depth admission.
    pub max_slot_queue_depth: Option<usize>,
    /// Maximum time a call may wait in a lane queue before being dropped
    /// stale at dequeue (answered `Overloaded`). `None` disables age
    /// dropping; deadline budgets stamped on the frame still apply.
    pub max_queue_age: Option<Duration>,
    /// Per-tenant circuit-breaker tuning; `None` disables breakers.
    pub breaker: Option<BreakerConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            scheduler: SchedulerKind::Fifo,
            descriptor: None,
            slot_inflight: 2,
            max_queue_depth: None,
            max_slot_queue_depth: None,
            max_queue_age: None,
            breaker: None,
        }
    }
}

/// Queue-depth admission limits in effect this loop iteration.
struct AdmissionLimits {
    max_queue_depth: Option<usize>,
    max_slot_queue_depth: Option<usize>,
}

impl AdmissionLimits {
    /// The configured limits, halved (floor 1) while a brownout stage is
    /// active, so the stack sheds earlier instead of queueing deeper while
    /// degraded.
    fn at_stage(config: &RouterConfig, stage: u8) -> Self {
        let limit = |l: Option<usize>| l.map(|l| if stage >= 1 { (l / 2).max(1) } else { l });
        AdmissionLimits {
            max_queue_depth: limit(config.max_queue_depth),
            max_slot_queue_depth: limit(config.max_slot_queue_depth),
        }
    }
}

/// The router thread's state. [`Router::run`] repeats one loop: apply
/// control commands, ingest guest traffic, forward a scheduling round,
/// pump replies, and back off when nothing moved.
#[derive(Default)]
pub(crate) struct Router {
    config: RouterConfig,
    lanes: Vec<Lane>,
    /// Each device-pool slot's cells, indexed by slot: in-flight budgets
    /// and the router-owned `pool.slot<N>.queue_depth` gauges, changed
    /// only through the lanes' ledgers.
    slots: Vec<SlotEntry>,
    telemetry: Telemetry,
    /// Stack-wide overload counters (`overload.*`).
    overload: OverloadMetrics,
    /// Current brownout degradation stage (0 = normal).
    brownout_stage: u8,
    /// Round-robin start position.
    rr_cursor: usize,
    idle_spins: u32,
}

impl Router {
    pub(crate) fn new(config: RouterConfig) -> Self {
        Router {
            config,
            ..Router::default()
        }
    }

    /// Runs the router loop until [`RouterCmd::Shutdown`], or until the
    /// command sender is dropped without one (the owning stack died):
    /// routing for nobody, forever, helps no one.
    pub(crate) fn run(mut self, cmds: Receiver<RouterCmd>) {
        loop {
            let mut progressed = false;
            loop {
                match cmds.try_recv() {
                    Ok(cmd) => {
                        progressed = true;
                        if !self.apply(cmd) {
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            progressed |= self.ingest();
            progressed |= self.forward_round();
            progressed |= self.pump_replies();
            self.idle(progressed);
        }
    }

    /// Applies one control command; `false` means stop.
    fn apply(&mut self, cmd: RouterCmd) -> bool {
        match cmd {
            RouterCmd::AddVm {
                vm_id,
                guest,
                server,
                policy,
                slot,
                metrics,
            } => self.add_lane(vm_id, guest, server, policy, slot, *metrics),
            RouterCmd::Pause(id) => self.with_lane(id, |lane| lane.paused = true),
            RouterCmd::Resume(id) => self.with_lane(id, |lane| lane.paused = false),
            RouterCmd::Remove(id) => {
                // Hand the slot back the lane's queued and in-flight share.
                self.with_lane(id, |lane| lane.ledger.rebind(None));
                self.lanes.retain(|l| l.vm_id != id);
            }
            RouterCmd::ReattachServer { vm_id, server } => self.with_lane(vm_id, |lane| {
                lane.server = server;
                lane.server_down = false;
                lane.unavailable = false;
                lane.ledger.discharge();
            }),
            RouterCmd::MarkUnavailable(id) => self.with_lane(id, |lane| {
                lane.unavailable = true;
                lane.server_down = true;
                lane.ledger.discharge();
                while let Some(queued) = lane.ledger.dequeue() {
                    lane.release_probe(queued.req.call_id);
                    lane.fail_unavailable(&queued.req);
                }
            }),
            RouterCmd::SetSlot { vm_id, slot } => {
                let entry = slot.map(|s| self.slot_entry(s));
                self.with_lane(vm_id, |lane| lane.ledger.rebind(entry));
            }
            RouterCmd::SetBrownout { stage, shed } => self.set_brownout(stage, &shed),
            RouterCmd::SetTelemetry(t) => self.set_telemetry(t),
            RouterCmd::Shutdown => return false,
        }
        true
    }

    /// The cells of pool slot `s`, growing the table (and registering new
    /// gauges) on first sight of a slot index.
    fn slot_entry(&mut self, s: usize) -> SlotEntry {
        while self.slots.len() <= s {
            let e = SlotEntry::default();
            if let Some(registry) = self.telemetry.registry() {
                registry.register_gauge(
                    &format!("pool.slot{}.queue_depth", self.slots.len()),
                    &e.depth,
                );
            }
            self.slots.push(e);
        }
        self.slots[s].clone()
    }

    /// Runs `f` on the lane of `vm_id`, if it is attached.
    fn with_lane(&mut self, vm_id: VmId, f: impl FnOnce(&mut Lane)) {
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.vm_id == vm_id) {
            f(lane);
        }
    }

    fn add_lane(
        &mut self,
        vm_id: VmId,
        guest: BoxedTransport,
        server: BoxedTransport,
        policy: VmPolicy,
        slot: Option<usize>,
        metrics: VmMetrics,
    ) {
        let telemetry = self.telemetry.with_vm(vm_id);
        telemetry.register_vm("router", &metrics);
        // Materialize the slot entry (and its gauge) up front so an idle
        // slot still reads zero.
        let slot = slot.map(|s| self.slot_entry(s));
        self.lanes.push(Lane {
            vm_id,
            guest,
            server,
            policy,
            ledger: Ledger::new(metrics.outstanding.clone(), slot),
            paused: false,
            closed: false,
            server_down: false,
            unavailable: false,
            breaker: self.config.breaker.map(CircuitBreaker::new),
            probe_call_id: None,
            brownout_shed: false,
            metrics,
            overload: self.overload.clone(),
            telemetry,
        });
    }

    fn set_brownout(&mut self, stage: u8, shed: &[VmId]) {
        self.brownout_stage = stage;
        self.overload.brownout_stage.set(f64::from(stage));
        for lane in self.lanes.iter_mut() {
            let shed_now = stage > 0 && shed.contains(&lane.vm_id);
            if shed_now && !lane.brownout_shed {
                // Traffic already queued was admitted before the stage
                // change; only new arrivals shed.
                lane.telemetry
                    .event(Tier::Router, EventKind::Brownout, 0, u64::from(stage));
            }
            lane.brownout_shed = shed_now;
        }
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        for lane in self.lanes.iter_mut() {
            lane.telemetry = self.telemetry.with_vm(lane.vm_id);
            lane.telemetry.register_vm("router", &lane.metrics);
        }
        if let Some(registry) = self.telemetry.registry() {
            for (s, e) in self.slots.iter().enumerate() {
                registry.register_gauge(&format!("pool.slot{s}.queue_depth"), &e.depth);
            }
            self.overload.register(registry, "overload");
        }
    }

    /// Ingests guest traffic into per-lane queues.
    fn ingest(&mut self) -> bool {
        let admission = AdmissionLimits::at_stage(&self.config, self.brownout_stage);
        let mut progressed = false;
        for lane in self.lanes.iter_mut().filter(|l| !l.closed) {
            progressed |= lane.ingest(&admission);
        }
        progressed
    }

    /// Scheduling rounds: pick an admissible lane, then forward a run of
    /// consecutive calls from its queue as ONE router→server frame. One
    /// frame per run means one modelled doorbell (sender overhead) per run
    /// instead of per call.
    fn forward_round(&mut self) -> bool {
        let slot_inflight = self.config.slot_inflight.max(1) as u64;
        // Brownout collapses run coalescing: queued work drains with
        // minimal added batching latency while the stack is degraded.
        let run_max = if self.brownout_stage >= 1 {
            1
        } else {
            FORWARD_RUN_MAX
        };
        let mut progressed = false;
        let mut forwarded = 0usize;
        while forwarded < MAX_FORWARD_PER_ROUND {
            let now = Instant::now();
            let Some(idx) = self.pick_lane(now, slot_inflight) else {
                break;
            };
            self.rr_cursor = (idx + 1) % self.lanes.len();
            progressed = true;
            let cap = run_max.min(MAX_FORWARD_PER_ROUND - forwarded);
            let lane = &mut self.lanes[idx];
            let run = lane.take_run(now, cap, slot_inflight, &self.config);
            // An empty run: everything popped this pick was dropped or
            // rejected by policy.
            if !run.is_empty() {
                forwarded += run.len();
                lane.send_run(run);
            }
        }
        progressed
    }

    /// Picks the next lane to service, honouring pause state, rate limits,
    /// per-slot in-flight budgets and the configured scheduler. Returns an
    /// index into `lanes`. Slot budgets are O(1) atomic reads of the lanes'
    /// slot cells — no per-pick scan.
    fn pick_lane(&mut self, now: Instant, slot_inflight: u64) -> Option<usize> {
        let admissible = |lane: &mut Lane| {
            lane.ready(slot_inflight)
                && lane
                    .policy
                    .rate_limit
                    .as_mut()
                    .is_none_or(|rl| rl.try_admit_at(now))
        };
        let n = self.lanes.len();
        let lanes = &mut self.lanes;
        let idx = match self.config.scheduler {
            // Round-robin across lanes; FIFO within a lane.
            SchedulerKind::Fifo => {
                return (0..n)
                    .map(|off| (self.rr_cursor + off) % n)
                    .find(|&idx| admissible(&mut lanes[idx]));
            }
            // Least weighted estimated device time first. Device-time
            // estimates accumulate per lane, so on a shared slot this
            // arbitrates real device occupancy between slot-mates.
            SchedulerKind::FairShare => best_ready(lanes, slot_inflight, |lane| {
                lane.metrics.est_device_time_us.get() / f64::from(lane.policy.weight.max(1))
            })?,
            SchedulerKind::Priority => {
                best_ready(lanes, slot_inflight, |lane| Reverse(lane.policy.priority))?
            }
        };
        admissible(&mut lanes[idx]).then_some(idx)
    }

    /// Pumps replies server→guest.
    fn pump_replies(&mut self) -> bool {
        let mut progressed = false;
        // A down lane has nothing to pump, and re-polling a dead transport
        // would re-report the failure every round (a busy spin).
        for lane in self.lanes.iter_mut().filter(|l| !l.server_down) {
            progressed |= lane.pump_replies();
        }
        progressed
    }

    /// Idle backoff: escalate toward 300 µs sleeps so an idle router does
    /// not burn a core (which would perturb co-located work), at the price
    /// of up to ~300 µs extra latency on the first call after an idle
    /// period.
    fn idle(&mut self, progressed: bool) {
        if progressed {
            self.idle_spins = 0;
        } else {
            self.idle_spins = (self.idle_spins + 1).min(30);
            if self.idle_spins > 3 {
                std::thread::sleep(Duration::from_micros(u64::from(self.idle_spins) * 10));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl Lane {
    /// Whether the lane could forward now, its rate limit aside.
    fn ready(&self, slot_inflight: u64) -> bool {
        let slot = self.ledger.slot.as_ref();
        // The per-tenant concurrency cap (bulkhead) bounds a lane's own
        // in-flight calls, independent of the slot-wide budget it shares.
        let cap = self.policy.max_inflight.map(u64::from);
        !self.paused
            && !self.closed
            && !self.server_down
            && !self.ledger.queue.is_empty()
            && slot.is_none_or(|s| s.outstanding.get() < slot_inflight)
            && cap.is_none_or(|cap| self.ledger.in_flight() < cap)
    }

    /// Drains the guest transport into the lane's queue.
    fn ingest(&mut self, admission: &AdmissionLimits) -> bool {
        let mut progressed = false;
        loop {
            match self.guest.try_recv() {
                Ok(Some(Message::Call(req))) => self.admit(req, admission),
                Ok(Some(Message::Batch(reqs))) => {
                    // Batched calls get the same per-call accounting and
                    // span stamps as singly-sent ones: the batch is a
                    // transport framing detail, not a different kind of
                    // traffic.
                    for req in reqs {
                        self.admit(req, admission);
                    }
                }
                Ok(Some(Message::Control(ControlMessage::Ping(v)))) => {
                    // The router itself answers liveness probes — a
                    // visible demonstration of interposition.
                    let _ = self.guest.send(&Message::Control(ControlMessage::Pong(v)));
                }
                Ok(Some(Message::Control(hb @ ControlMessage::Heartbeat(_)))) => {
                    // Heartbeats probe the *server*, not the router:
                    // forward them through so the ack round-trips the
                    // whole lane (the reply pump relays the ack back).
                    if self.server.send(&Message::Control(hb)).is_err() {
                        self.server_down = true;
                    }
                }
                Ok(Some(Message::Control(ControlMessage::Shutdown))) => {
                    self.closed = true;
                    let _ = self
                        .server
                        .send(&Message::Control(ControlMessage::Shutdown));
                    return true;
                }
                // Unexpected traffic from a guest (e.g. a Reply) is
                // dropped; guests cannot inject server-bound control
                // this way.
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(TransportError::Closed) => {
                    self.closed = true;
                    break;
                }
                Err(_) => break,
            }
            progressed = true;
        }
        progressed
    }

    /// Ingests one guest call into the queue with uniform per-call
    /// accounting: moved and elided byte counts, cache-hit counting, and
    /// the `Queued` span stamp for sync calls (batched or not). Only sync
    /// calls carry spans: async successes are reply-suppressed, so their
    /// spans could never complete.
    ///
    /// Admission control runs here, before any queueing: brownout-shed
    /// tenants, depth limits (per VM and per slot) and the tenant's
    /// circuit breaker each shed with [`ReplyStatus::Overloaded`] instead
    /// of letting the queue absorb load the stack cannot serve in time.
    /// Depth checks run before the breaker so a shed never wastes the one
    /// half-open probe slot.
    fn admit(&mut self, req: CallRequest, admission: &AdmissionLimits) {
        if self.unavailable {
            // The server is permanently gone. Answering immediately —
            // rather than queueing toward a reply that can never come — is
            // what bounds the guest's failure latency to its own deadline
            // instead of a full retry budget.
            self.fail_unavailable(&req);
            return;
        }
        if self.brownout_shed {
            self.shed(&req, shed_reason::BROWNOUT);
            return;
        }
        let lane_full = admission
            .max_queue_depth
            .is_some_and(|limit| self.ledger.queue.len() >= limit);
        let slot_full = match (admission.max_slot_queue_depth, self.ledger.slot.as_ref()) {
            (Some(limit), Some(s)) => s.depth.get() >= limit as f64,
            _ => false,
        };
        if lane_full || slot_full {
            self.shed(&req, shed_reason::QUEUE_DEPTH);
            return;
        }
        if let Some(br) = &mut self.breaker {
            let now = Instant::now();
            let half_open = br.state_at(now) == BreakerState::HalfOpen;
            if !br.admit_at(now) {
                self.shed(&req, shed_reason::BREAKER);
                return;
            }
            if half_open {
                self.probe_call_id = Some(req.call_id);
            }
        }
        self.metrics.bytes_in.add(req.payload_bytes() as u64);
        self.metrics.bytes_elided.add(req.elided_bytes() as u64);
        self.metrics.cache_hits.add(req.cached_count() as u64);
        if req.mode == CallMode::Sync {
            self.telemetry
                .span_stage_deferred(req.call_id, Stage::Queued, None);
        }
        self.ledger.enqueue(req);
    }

    /// Pops the next run to forward: up to `cap` consecutive queued calls.
    /// Async calls coalesce freely; sync calls are bounded by the slot's
    /// in-flight budget, and the lane's rate limit admits each member
    /// after the first (which `pick_lane` admitted) individually.
    fn take_run(
        &mut self,
        now: Instant,
        cap: usize,
        slot_inflight: u64,
        config: &RouterConfig,
    ) -> Vec<CallRequest> {
        // Sync calls admitted into this run beyond what the slot's
        // in-flight budget already allows would launder the cap.
        let mut sync_budget = self.ledger.slot.as_ref().map_or(u64::MAX, |s| {
            slot_inflight.saturating_sub(s.outstanding.get())
        });
        let mut run = Vec::with_capacity(cap.min(self.ledger.queue.len()));
        while run.len() < cap {
            let Some(front) = self.ledger.queue.front() else {
                break;
            };
            // Expiry gates run before any admission spend: a call whose
            // deadline budget lapsed while queued — or that overstayed the
            // queue-age limit — is dropped, never forwarded. The guest has
            // already given up on it; executing it would burn device time
            // on dead work.
            let wait = now.saturating_duration_since(front.enqueued_at);
            let wait_us = wait.as_micros().min(u128::from(u64::MAX)) as u64;
            let budget_expired = front.req.budget_us > 0 && wait_us >= front.req.budget_us;
            let age_expired = config.max_queue_age.is_some_and(|limit| wait >= limit);
            let is_sync = front.req.mode == CallMode::Sync;
            if budget_expired || age_expired {
                let dropped = self.ledger.dequeue().expect("front checked");
                self.drop_expired(&dropped.req, budget_expired);
                continue;
            }
            if is_sync && sync_budget == 0 {
                break;
            }
            if !run.is_empty() {
                if let Some(rl) = &mut self.policy.rate_limit {
                    if !rl.try_admit_at(now) {
                        break;
                    }
                }
            }
            let QueuedCall { mut req, .. } = self.ledger.dequeue().expect("front checked");
            // Re-stamp the remaining budget: the next tier (the server)
            // measures elapsed time from *its* frame arrival, so the queue
            // wait spent here must come off the budget now. Expiry was
            // checked above, so at least 1 µs remains.
            if req.budget_us > 0 {
                req.budget_us -= wait_us;
            }
            if !self.verify(&req, config.descriptor.as_deref()) {
                self.metrics.rejected.inc();
                self.answer(&req, ReplyStatus::PolicyRejected);
                continue;
            }
            if is_sync {
                sync_budget -= 1;
            }
            run.push(req);
        }
        run
    }

    /// Verifies a call against the API descriptor and accounts its
    /// estimated cost; `false` refuses an unknown function id.
    /// Device-memory quotas are enforced at the server (it owns the
    /// authoritative residency accounting, including swapped bytes); the
    /// router only keeps the cost estimates.
    fn verify(&self, req: &CallRequest, descriptor: Option<&ApiDescriptor>) -> bool {
        let Some(desc) = descriptor else {
            return true;
        };
        let Some(func) = desc.by_id(req.fn_id) else {
            return false;
        };
        if func.resources.is_empty() {
            return true;
        }
        let env = desc.env_for(func, &req.args);
        for res in &func.resources {
            if let Ok(v) = res.amount.eval(&env, &desc.types) {
                match res.resource.as_str() {
                    "device_time_us" => self.metrics.est_device_time_us.add(v as f64),
                    "device_mem" => self.metrics.est_device_mem.add(v as f64),
                    _ => {}
                }
            }
        }
        true
    }

    /// Sends a run to the server as one frame, moved rather than cloned:
    /// the in-process hop hands the very allocation over.
    fn send_run(&mut self, mut run: Vec<CallRequest>) {
        // Stamp Forwarded before the send: the modelled sender overhead
        // means the server could otherwise execute (and stamp) before this
        // thread resumes. A failed send leaves a harmless early stamp — the
        // requeued call overwrites it when it is actually forwarded.
        // Stamps ride the lock-free deferred intake: no mutex on the
        // forwarding path.
        for req in run.iter().filter(|r| r.mode == CallMode::Sync) {
            self.telemetry
                .span_stage_deferred(req.call_id, Stage::Forwarded, None);
        }
        // Count before the send, for the same reason: stats and quiescence
        // read these cells from other threads, and must never see a call
        // executed that the lane has not counted as forwarded (and, if
        // sync, outstanding).
        let n = run.len() as u64;
        self.metrics.forwarded.add(n);
        self.ledger.forward(&run);
        let msg = if run.len() == 1 {
            Message::Call(run.pop().expect("len checked"))
        } else {
            Message::Batch(run)
        };
        if let Err((_, msg)) = self.server.send_owned(msg) {
            // The run never reached the server: take back its counts,
            // requeue it and suspend the lane for the supervisor to
            // reattach or fail it.
            self.metrics.forwarded.sub_saturating(n);
            self.server_down = true;
            self.ledger.requeue(match msg {
                Message::Call(req) => vec![req],
                Message::Batch(reqs) => reqs,
                _ => unreachable!("runs are Call or Batch frames"),
            });
        }
    }

    /// Relays the server's traffic to the guest.
    fn pump_replies(&mut self) -> bool {
        let mut progressed = false;
        loop {
            match self.server.try_recv() {
                Ok(Some(Message::Reply(rep))) => self.relay_reply(rep),
                Ok(Some(other)) => {
                    let _ = self.guest.send_owned(other);
                }
                Ok(None) => break,
                Err(e) if e.is_failure() => {
                    // The server vanished abruptly; any in-flight replies
                    // are gone. Suspend forwarding and let the supervisor
                    // decide between reattach and giving up.
                    self.server_down = true;
                    return true;
                }
                Err(_) => break,
            }
            progressed = true;
        }
        progressed
    }

    /// Accounts one server reply and relays it to the guest.
    fn relay_reply(&mut self, rep: CallReply) {
        self.metrics.replies.inc();
        self.ledger.settle(rep.call_id);
        self.metrics.bytes_out.add(rep.payload_bytes() as u64);
        if rep.status == ReplyStatus::CacheMiss {
            self.metrics.cache_misses.inc();
        }
        // Circuit breaker: a TransportError reply is the poison signal
        // (server-side marshal/execute breakage); every other status —
        // including the server's own Overloaded deadline discards — is a
        // live server and counts as success. Overload is deliberately not
        // conflated with poison: a saturated tenant must shed, not
        // quarantine.
        if let Some(br) = &mut self.breaker {
            if rep.status == ReplyStatus::TransportError {
                if br.on_failure_at(Instant::now()) {
                    self.metrics.breaker_opens.inc();
                    self.overload.breaker_opens.inc();
                    self.telemetry.event(
                        Tier::Router,
                        EventKind::BreakerOpen,
                        rep.call_id,
                        u64::from(br.consecutive_failures()),
                    );
                }
            } else if br.on_success() {
                self.telemetry.event(
                    Tier::Router,
                    EventKind::BreakerClose,
                    rep.call_id,
                    u64::from(br.probes_used()),
                );
            }
            if self.probe_call_id == Some(rep.call_id) {
                self.probe_call_id = None;
            }
        }
        // Deferred stamp, pushed before the relay below: the guest's
        // GuestEnd fold is therefore guaranteed to see it.
        self.telemetry
            .span_stage_deferred(rep.call_id, Stage::Replied, None);
        let _ = self.guest.send_owned(Message::Reply(rep));
    }

    /// Answers a call on the server's behalf with a bare `status` reply.
    /// Sync calls get their `Replied` stamp first, as a relayed reply
    /// would.
    fn answer(&self, req: &CallRequest, status: ReplyStatus) {
        if req.mode == CallMode::Sync {
            self.telemetry
                .span_stage_deferred(req.call_id, Stage::Replied, None);
        }
        let _ = self.guest.send(&Message::Reply(CallReply {
            call_id: req.call_id,
            status,
            ret: ava_wire::Value::Unit,
            outputs: Vec::new(),
        }));
    }

    /// Sheds one call with [`ReplyStatus::Overloaded`]. Unlike
    /// [`Lane::fail_unavailable`], async calls get the reply too: shed
    /// accounting must reconcile end to end — the guest's observed
    /// rejections and the router's shed counters describe the same set of
    /// calls.
    fn shed(&self, req: &CallRequest, reason: u64) {
        self.metrics.shed.inc();
        self.overload.sheds.inc();
        self.telemetry
            .event(Tier::Router, EventKind::Shed, req.call_id, reason);
        self.answer(req, ReplyStatus::Overloaded);
    }

    /// Drops a queued call whose deadline budget (or queue-age limit)
    /// lapsed while it waited, answering [`ReplyStatus::Overloaded`]. The
    /// call never reaches the server, so the journal never records it and
    /// a later guest retry with a fresh budget is not dedup-dropped.
    fn drop_expired(&mut self, req: &CallRequest, budget_expired: bool) {
        self.release_probe(req.call_id);
        let (kind, arg) = if budget_expired {
            self.metrics.deadline_drops.inc();
            self.overload.deadline_drops.inc();
            (EventKind::DeadlineDrop, req.budget_us)
        } else {
            self.metrics.age_drops.inc();
            self.overload.age_drops.inc();
            (EventKind::Shed, shed_reason::QUEUE_AGE)
        };
        self.telemetry.event(Tier::Router, kind, req.call_id, arg);
        self.answer(req, ReplyStatus::Overloaded);
    }

    /// Answers one call with [`ReplyStatus::Unavailable`] (sync calls only
    /// — async calls are fire-and-forget and simply dropped; the guest
    /// learns of the failure on its next sync call at the latest).
    fn fail_unavailable(&self, req: &CallRequest) {
        if req.mode == CallMode::Sync {
            self.metrics.unavailable_replies.inc();
            self.answer(req, ReplyStatus::Unavailable);
        }
    }

    /// A half-open probe that will never be forwarded releases the
    /// breaker's admission slot, so the next arrival can probe instead.
    fn release_probe(&mut self, call_id: u64) {
        if self.probe_call_id == Some(call_id) {
            self.probe_call_id = None;
            if let Some(br) = &mut self.breaker {
                br.probe_abandoned();
            }
        }
    }
}

/// The ready lane with the smallest `key`, the first one on ties.
fn best_ready<K: PartialOrd>(
    lanes: &[Lane],
    slot_inflight: u64,
    key: impl Fn(&Lane) -> K,
) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (idx, lane) in lanes.iter().enumerate() {
        if !lane.ready(slot_inflight) {
            continue;
        }
        let k = key(lane);
        if best.as_ref().is_none_or(|(_, b)| k < *b) {
            best = Some((idx, k));
        }
    }
    best.map(|(idx, _)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_transport::{CostModel, TransportKind};
    use ava_wire::Value;

    fn pair() -> (BoxedTransport, BoxedTransport) {
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap()
    }

    fn request(call_id: u64, mode: CallMode) -> CallRequest {
        CallRequest {
            call_id,
            fn_id: 0,
            mode,
            args: vec![Value::U32(1)],
            budget_us: 0,
        }
    }

    #[test]
    fn a_reply_settles_only_its_own_counted_call_once() {
        let slot = SlotEntry::default();
        let mut ledger = Ledger::new(Counter::default(), Some(slot.clone()));
        ledger.forward(&[
            request(1, CallMode::Async),
            request(2, CallMode::Sync),
            request(3, CallMode::Sync),
        ]);
        // A resend of a call still in flight is not counted twice.
        ledger.forward(&[request(2, CallMode::Sync)]);
        assert_eq!((ledger.in_flight(), slot.outstanding.get()), (2, 2));
        ledger.settle(1); // async failure: never counted
        ledger.settle(9); // unknown id
        assert_eq!((ledger.in_flight(), slot.outstanding.get()), (2, 2));
        ledger.settle(2);
        ledger.settle(2); // a second reply for the same call
        assert_eq!((ledger.in_flight(), slot.outstanding.get()), (1, 1));
        assert_eq!(ledger.outstanding.get(), 1);
    }

    /// One VM as the test drives it: its guest end, its server end (gone
    /// while "crashed") with the calls that server holds unanswered and
    /// the sync call ids it has received, and the slot the test last bound
    /// it to.
    struct Vm {
        id: VmId,
        guest: BoxedTransport,
        server: Option<BoxedTransport>,
        held: Vec<CallRequest>,
        received: Vec<u64>,
        slot: Option<usize>,
    }

    /// Moves what the router has forwarded into the server's held calls.
    fn drain(vm: &mut Vm) {
        let Some(server) = &vm.server else { return };
        while let Ok(Some(msg)) = server.try_recv() {
            let reqs = match msg {
                Message::Call(req) => vec![req],
                Message::Batch(reqs) => reqs,
                _ => continue,
            };
            for req in reqs {
                if req.mode == CallMode::Sync {
                    vm.received.push(req.call_id);
                }
                vm.held.push(req);
            }
        }
    }

    fn attach(router: &mut Router, id: VmId, slot: Option<usize>) -> Vm {
        let (guest, router_guest) = pair();
        let (router_server, server) = pair();
        router.apply(RouterCmd::AddVm {
            vm_id: id,
            guest: router_guest,
            server: router_server,
            policy: VmPolicy::default(),
            slot,
            metrics: Box::default(),
        });
        Vm {
            id,
            guest,
            server: Some(server),
            held: Vec::new(),
            received: Vec::new(),
            slot,
        }
    }

    /// Each slot's depth and outstanding equal the sums over the lanes
    /// bound to it, each lane's `outstanding` cell equals its ledger, a
    /// lane counts only sync calls a server received, and a live lane
    /// counts every sync call its server holds unanswered.
    fn assert_in_step(router: &Router, vms: &mut [Vm], op: usize) {
        vms.iter_mut().for_each(drain);
        for (s, entry) in router.slots.iter().enumerate() {
            let (mut depth, mut outstanding) = (0, 0);
            for lane in &router.lanes {
                let vm = vms.iter().find(|vm| vm.id == lane.vm_id).unwrap();
                if vm.slot == Some(s) {
                    depth += lane.ledger.queue.len();
                    outstanding += lane.ledger.in_flight();
                }
            }
            assert_eq!(entry.depth.get(), depth as f64, "op {op}: slot {s} depth");
            assert_eq!(
                entry.outstanding.get(),
                outstanding,
                "op {op}: slot {s} outstanding"
            );
        }
        for lane in &router.lanes {
            let vm = vms.iter().find(|vm| vm.id == lane.vm_id).unwrap();
            assert_eq!(
                lane.metrics.outstanding.get(),
                lane.ledger.in_flight(),
                "op {op}: vm {} outstanding",
                vm.id
            );
            for id in &lane.ledger.inflight {
                assert!(
                    vm.received.contains(id),
                    "op {op}: vm {} counts call {id}, which no server received",
                    vm.id
                );
            }
            if !lane.server_down {
                for req in vm.held.iter().filter(|r| r.mode == CallMode::Sync) {
                    assert!(
                        lane.ledger.inflight.contains(&req.call_id),
                        "op {op}: vm {} does not count held call {}",
                        vm.id,
                        req.call_id
                    );
                }
            }
        }
    }

    #[test]
    fn slot_totals_stay_the_sum_of_their_lanes() {
        for seed in 1..=8u64 {
            let mut rng = seed;
            let mut next = move |n: u64| {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (rng >> 33) % n
            };
            let mut router = Router::new(RouterConfig {
                slot_inflight: 1,
                ..RouterConfig::default()
            });
            let slot_of = |k: u64| (k < 3).then_some(k as usize);
            let mut vms: Vec<Vm> = (1..=3)
                .map(|id| attach(&mut router, id, slot_of(u64::from(id) % 3)))
                .collect();
            let (mut next_vm, mut next_call) = (4, 1u64);
            for op in 0..1500 {
                let i = next(vms.len() as u64) as usize;
                match next(12) {
                    0..=2 => {
                        let mode = if next(2) == 0 {
                            CallMode::Sync
                        } else {
                            CallMode::Async
                        };
                        let reqs: Vec<_> = (0..=next(3))
                            .map(|_| {
                                next_call += 1;
                                request(next_call, mode)
                            })
                            .collect();
                        let _ = vms[i].guest.send(&Message::Batch(reqs));
                    }
                    3..=5 => {
                        router.ingest();
                        router.forward_round();
                        router.pump_replies();
                    }
                    6 => {
                        // The server answers one held call: sync calls get
                        // a reply, async ones only a failure reply.
                        let vm = &mut vms[i];
                        drain(vm);
                        let Some(server) = &vm.server else { continue };
                        if !vm.held.is_empty() {
                            let req = vm.held.remove(next(vm.held.len() as u64) as usize);
                            let reply = if req.mode == CallMode::Sync && next(2) == 0 {
                                CallReply::overloaded(req.call_id)
                            } else {
                                CallReply::transport_error(req.call_id)
                            };
                            let _ = server.send(&Message::Reply(reply));
                        }
                        while let Ok(Some(_)) = vm.guest.try_recv() {}
                    }
                    7 => {
                        let slot = slot_of(next(4));
                        vms[i].slot = slot;
                        router.apply(RouterCmd::SetSlot {
                            vm_id: vms[i].id,
                            slot,
                        });
                    }
                    8 => {
                        // The server crashes; held calls die with it.
                        drain(&mut vms[i]);
                        vms[i].server = None;
                        vms[i].held.clear();
                    }
                    9 => {
                        let (router_server, server) = pair();
                        vms[i].server = Some(server);
                        vms[i].held.clear();
                        vms[i].received.clear();
                        router.apply(RouterCmd::ReattachServer {
                            vm_id: vms[i].id,
                            server: router_server,
                        });
                    }
                    10 => {
                        router.apply(RouterCmd::MarkUnavailable(vms[i].id));
                    }
                    _ => {
                        router.apply(RouterCmd::Remove(vms[i].id));
                        vms[i] = attach(&mut router, next_vm, slot_of(next(4)));
                        next_vm += 1;
                    }
                }
                assert_in_step(&router, &mut vms, op);
            }
        }
    }
}
