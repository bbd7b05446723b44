//! The invocation router (§4.1, §4.3).
//!
//! The router is the hypervisor-resident component that restores
//! *interposition* to API remoting: every forwarded call crosses a
//! hypervisor-owned transport, where the router verifies it, applies
//! resource policies (rate limiting, scheduling, quotas) and only then
//! hands it to the per-VM API server. Replies flow back the same way.

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
        /// Calls currently forwarded but not yet answered.
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

/// Shared scheduling state for one device-pool slot, maintained
/// incrementally on the ingest/forward/reply paths. Admission checks and
/// the `pool.slot<N>.queue_depth` gauge are O(1) atomic reads — the
/// pre-overhaul router instead rebuilt a HashMap of slot budgets on every
/// scheduling pick and rescanned every lane per loop iteration to refresh
/// the gauges.
#[derive(Default)]
struct SlotEntry {
    /// Sync calls forwarded and unanswered across the slot's lanes (the
    /// quantity [`RouterConfig::slot_inflight`] bounds).
    outstanding: Counter,
    /// Queued (ingested, not yet forwarded) calls across the slot's
    /// lanes; registered directly as the slot's queue-depth gauge, so
    /// there is no separate refresh pass.
    depth: Gauge,
}

#[derive(Default)]
struct SlotTable {
    slots: Vec<SlotEntry>,
}

impl SlotTable {
    /// The entry for `slot`, growing the table (and registering new
    /// gauges) on first sight of a slot index.
    fn entry(&mut self, slot: usize, telemetry: &Telemetry) -> &SlotEntry {
        while self.slots.len() <= slot {
            let e = SlotEntry::default();
            if let Some(registry) = telemetry.registry() {
                registry.register_gauge(
                    &format!("pool.slot{}.queue_depth", self.slots.len()),
                    &e.depth,
                );
            }
            self.slots.push(e);
        }
        &self.slots[slot]
    }

    fn get(&self, slot: usize) -> Option<&SlotEntry> {
        self.slots.get(slot)
    }

    /// Re-registers every slot gauge (after telemetry attaches late).
    fn register_all(&self, telemetry: &Telemetry) {
        if let Some(registry) = telemetry.registry() {
            for (s, e) in self.slots.iter().enumerate() {
                registry.register_gauge(&format!("pool.slot{s}.queue_depth"), &e.depth);
            }
        }
    }

    /// Adjusts a slot's queued-call depth by `delta`.
    fn add_depth(&mut self, slot: Option<usize>, delta: f64, telemetry: &Telemetry) {
        if let Some(s) = slot {
            self.entry(s, telemetry).depth.add(delta);
        }
    }

    /// Removes `n` from a slot's outstanding count (server reattach or
    /// give-up: the lane's in-flight calls died with the old server).
    fn release_outstanding(&mut self, slot: Option<usize>, n: u64, telemetry: &Telemetry) {
        if let Some(s) = slot {
            let entry = self.entry(s, telemetry);
            for _ in 0..n {
                entry.outstanding.dec_saturating();
            }
        }
    }
}

metric_set! {
    /// Aggregate overload counters, registered as `overload.*` so operators
    /// see stack-wide shedding without summing per-VM cells.
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
    queue: VecDeque<QueuedCall>,
    /// Device-pool slot the lane's server is bound to; `None` when the VM
    /// has a private device (the pre-pool topology).
    slot: Option<usize>,
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
    telemetry: Telemetry,
}

/// Router configuration.
pub struct RouterConfig {
    /// Scheduling algorithm across VMs.
    pub scheduler: SchedulerKind,
    /// Descriptor used to evaluate resource-cost annotations; `None`
    /// disables cost estimation (all calls cost 1).
    pub descriptor: Option<Arc<ApiDescriptor>>,
    /// Maximum calls forwarded per scheduling round (keeps reply pumping
    /// responsive under load).
    pub max_forward_per_round: usize,
    /// Maximum sync calls in flight per device-pool slot, across every
    /// lane bound to that slot. Small values keep the scheduler in
    /// control (a slot's device serializes anyway — deep server-side
    /// queues would just launder scheduling decisions made early); must
    /// be ≥ 1 or a pooled slot could never forward at all.
    pub slot_inflight: usize,
    /// Maximum consecutive same-lane calls coalesced into one
    /// router→server frame. Async calls coalesce freely; sync calls stay
    /// bounded by the slot in-flight budget. 1 restores call-at-a-time
    /// forwarding.
    pub forward_batch_max: usize,
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
            max_forward_per_round: 64,
            slot_inflight: 2,
            forward_batch_max: 32,
            max_queue_depth: None,
            max_slot_queue_depth: None,
            max_queue_age: None,
            breaker: None,
        }
    }
}

/// Runs the router loop until [`RouterCmd::Shutdown`].
pub(crate) fn run_router(config: RouterConfig, cmds: Receiver<RouterCmd>) {
    let mut lanes: Vec<Lane> = Vec::new();
    let mut telemetry = Telemetry::disabled();
    let mut rr_cursor = 0usize; // round-robin start position
    let mut idle_spins = 0u32;
    // Shared per-slot scheduling state: in-flight budgets and the
    // router-owned `pool.slot<N>.queue_depth` gauges, both maintained
    // incrementally instead of recomputed by scans.
    let mut slots = SlotTable::default();
    // Stack-wide overload counters (`overload.*`) and the current
    // brownout degradation stage (0 = normal).
    let overload = OverloadMetrics::default();
    let mut brownout_stage = 0u8;

    loop {
        let mut progressed = false;

        // 1. Process control-plane commands.
        loop {
            let cmd = match cmds.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Empty) => break,
                // The command sender was dropped without an explicit
                // Shutdown (the owning stack died): exit instead of
                // routing for nobody, forever.
                Err(TryRecvError::Disconnected) => return,
            };
            progressed = true;
            match cmd {
                RouterCmd::AddVm {
                    vm_id,
                    guest,
                    server,
                    policy,
                    slot,
                    metrics,
                } => {
                    let metrics = *metrics;
                    let lane_telemetry = telemetry.with_vm(vm_id);
                    lane_telemetry.register_vm("router", &metrics);
                    if let Some(s) = slot {
                        // Materialize the slot entry (and its gauge) up
                        // front so an idle slot still reads zero.
                        let _ = slots.entry(s, &telemetry);
                    }
                    lanes.push(Lane {
                        vm_id,
                        guest,
                        server,
                        policy,
                        queue: VecDeque::new(),
                        slot,
                        paused: false,
                        closed: false,
                        server_down: false,
                        unavailable: false,
                        breaker: config.breaker.map(CircuitBreaker::new),
                        probe_call_id: None,
                        brownout_shed: false,
                        metrics,
                        telemetry: lane_telemetry,
                    });
                }
                RouterCmd::Pause(id) => {
                    if let Some(lane) = lanes.iter_mut().find(|l| l.vm_id == id) {
                        lane.paused = true;
                    }
                }
                RouterCmd::Resume(id) => {
                    if let Some(lane) = lanes.iter_mut().find(|l| l.vm_id == id) {
                        lane.paused = false;
                    }
                }
                RouterCmd::Remove(id) => {
                    if let Some(lane) = lanes.iter().find(|l| l.vm_id == id) {
                        slots.add_depth(lane.slot, -(lane.queue.len() as f64), &telemetry);
                        slots.release_outstanding(
                            lane.slot,
                            lane.metrics.outstanding.get(),
                            &telemetry,
                        );
                    }
                    lanes.retain(|l| l.vm_id != id);
                }
                RouterCmd::ReattachServer { vm_id, server } => {
                    if let Some(lane) = lanes.iter_mut().find(|l| l.vm_id == vm_id) {
                        lane.server = server;
                        lane.server_down = false;
                        lane.unavailable = false;
                        // In-flight replies died with the old server. Reset
                        // the outstanding count or the lane's slot would be
                        // charged for calls that can never complete —
                        // starving its slot-mates under the in-flight cap.
                        let stale = lane.metrics.outstanding.take();
                        slots.release_outstanding(lane.slot, stale, &telemetry);
                    }
                }
                RouterCmd::MarkUnavailable(id) => {
                    if let Some(lane) = lanes.iter_mut().find(|l| l.vm_id == id) {
                        lane.unavailable = true;
                        lane.server_down = true;
                        let stale = lane.metrics.outstanding.take();
                        slots.release_outstanding(lane.slot, stale, &telemetry);
                        fail_queued_unavailable(lane, &mut slots, &telemetry);
                    }
                }
                RouterCmd::SetSlot { vm_id, slot } => {
                    if let Some(lane) = lanes.iter_mut().find(|l| l.vm_id == vm_id) {
                        // Move the lane's queued and in-flight charges to
                        // the destination slot's cells.
                        let depth = lane.queue.len() as f64;
                        let outstanding = lane.metrics.outstanding.get();
                        slots.add_depth(lane.slot, -depth, &telemetry);
                        slots.release_outstanding(lane.slot, outstanding, &telemetry);
                        lane.slot = slot;
                        slots.add_depth(lane.slot, depth, &telemetry);
                        if let Some(s) = lane.slot {
                            slots.entry(s, &telemetry).outstanding.add(outstanding);
                        }
                    }
                }
                RouterCmd::SetBrownout { stage, shed } => {
                    brownout_stage = stage;
                    overload.brownout_stage.set(f64::from(stage));
                    for lane in lanes.iter_mut() {
                        let shed_now = stage > 0 && shed.contains(&lane.vm_id);
                        if shed_now && !lane.brownout_shed {
                            // Traffic already queued was admitted before
                            // the stage change; only new arrivals shed.
                            lane.telemetry.event(
                                Tier::Router,
                                EventKind::Brownout,
                                0,
                                u64::from(stage),
                            );
                        }
                        lane.brownout_shed = shed_now;
                    }
                }
                RouterCmd::SetTelemetry(t) => {
                    telemetry = t;
                    for lane in lanes.iter_mut() {
                        lane.telemetry = telemetry.with_vm(lane.vm_id);
                        lane.telemetry.register_vm("router", &lane.metrics);
                    }
                    slots.register_all(&telemetry);
                    if let Some(registry) = telemetry.registry() {
                        overload.register(registry, "overload");
                    }
                }
                RouterCmd::Shutdown => return,
            }
        }

        // 2. Ingest guest traffic into per-lane queues. Brownout stage ≥ 1
        // halves the configured queue-depth admission limits so the stack
        // starts shedding earlier while degraded.
        let admission = AdmissionLimits {
            max_queue_depth: brownout_limit(config.max_queue_depth, brownout_stage),
            max_slot_queue_depth: brownout_limit(config.max_slot_queue_depth, brownout_stage),
        };
        for lane in lanes.iter_mut() {
            if lane.closed {
                continue;
            }
            loop {
                match lane.guest.try_recv() {
                    Ok(Some(Message::Call(req))) => {
                        ingest_request(lane, req, &mut slots, &telemetry, &admission, &overload);
                        progressed = true;
                    }
                    Ok(Some(Message::Batch(reqs))) => {
                        // Batched calls get the same per-call accounting
                        // and span stamps as singly-sent ones: the batch is
                        // a transport framing detail, not a different kind
                        // of traffic.
                        for req in reqs {
                            ingest_request(
                                lane, req, &mut slots, &telemetry, &admission, &overload,
                            );
                        }
                        progressed = true;
                    }
                    Ok(Some(Message::Control(ControlMessage::Ping(v)))) => {
                        // The router itself answers liveness probes — a
                        // visible demonstration of interposition.
                        let _ = lane.guest.send(&Message::Control(ControlMessage::Pong(v)));
                        progressed = true;
                    }
                    Ok(Some(Message::Control(hb @ ControlMessage::Heartbeat(_)))) => {
                        // Heartbeats probe the *server*, not the router:
                        // forward them through so the ack round-trips the
                        // whole lane (the reply pump relays the ack back).
                        if lane.server.send(&Message::Control(hb)).is_err() {
                            lane.server_down = true;
                        }
                        progressed = true;
                    }
                    Ok(Some(Message::Control(ControlMessage::Shutdown))) => {
                        lane.closed = true;
                        let _ = lane
                            .server
                            .send(&Message::Control(ControlMessage::Shutdown));
                        progressed = true;
                        break;
                    }
                    Ok(Some(other)) => {
                        // Unexpected traffic from a guest (e.g. a Reply) is
                        // dropped after note-taking; guests cannot inject
                        // server-bound control this way.
                        let _ = other;
                        progressed = true;
                    }
                    Ok(None) => break,
                    Err(TransportError::Closed) => {
                        lane.closed = true;
                        break;
                    }
                    Err(_) => break,
                }
            }
        }

        // 3. Scheduling rounds: pick an admissible lane, then forward a
        // run of consecutive calls from its queue as ONE router→server
        // frame. Async calls coalesce freely; sync calls are bounded by
        // the slot's in-flight budget and the lane's rate limit admits
        // each member individually. One frame per run means one modelled
        // doorbell (sender overhead) per run instead of per call.
        let config_sched = config.scheduler;
        let slot_inflight = config.slot_inflight.max(1);
        // Brownout collapses run coalescing: queued work drains with
        // minimal added batching latency while the stack is degraded.
        let run_max = if brownout_stage >= 1 {
            1
        } else {
            config.forward_batch_max.max(1)
        };
        let mut forwarded_round = 0usize;
        while forwarded_round < config.max_forward_per_round {
            let now = Instant::now();
            let candidate = pick_lane(
                &mut lanes,
                config_sched,
                rr_cursor,
                now,
                slot_inflight,
                &slots,
            );
            let Some(idx) = candidate else { break };
            rr_cursor = (idx + 1).max(1) % lanes.len().max(1);
            let lane = &mut lanes[idx];
            progressed = true;

            // Sync calls admitted into this run beyond what the slot's
            // in-flight budget already allows would launder the cap.
            let mut sync_budget = match lane.slot {
                Some(s) => (slot_inflight as u64)
                    .saturating_sub(slots.entry(s, &telemetry).outstanding.get()),
                None => u64::MAX,
            };
            let take_cap = run_max.min(config.max_forward_per_round - forwarded_round);
            let mut outgoing = Vec::with_capacity(take_cap.min(lane.queue.len()));
            while outgoing.len() < take_cap {
                let Some(front) = lane.queue.front() else {
                    break;
                };
                // Expiry gates run before any admission spend: a call
                // whose deadline budget lapsed while queued — or that
                // overstayed the queue-age limit — is dropped, never
                // forwarded. The guest has already given up on it;
                // executing it would burn device time on dead work.
                let wait = now.saturating_duration_since(front.enqueued_at);
                let wait_us = wait.as_micros().min(u128::from(u64::MAX)) as u64;
                let budget_expired = front.req.budget_us > 0 && wait_us >= front.req.budget_us;
                let age_expired = config.max_queue_age.is_some_and(|limit| wait >= limit);
                if budget_expired || age_expired {
                    let dropped = lane.queue.pop_front().expect("front checked");
                    slots.add_depth(lane.slot, -1.0, &telemetry);
                    drop_expired(lane, &dropped.req, budget_expired, &overload);
                    continue;
                }
                let is_sync = front.req.mode == CallMode::Sync;
                if is_sync && sync_budget == 0 {
                    break;
                }
                // The first member was admitted by pick_lane; each
                // additional one spends its own rate-limit token.
                if !outgoing.is_empty() {
                    if let Some(rl) = &mut lane.policy.rate_limit {
                        if !rl.try_admit_at(now) {
                            break;
                        }
                    }
                }
                let QueuedCall { mut req, .. } = lane.queue.pop_front().expect("front checked");
                slots.add_depth(lane.slot, -1.0, &telemetry);
                // Re-stamp the remaining budget: the next tier (the
                // server) measures elapsed time from *its* frame arrival,
                // so the queue wait spent here must come off the budget
                // now. Expiry was checked above, so at least 1 µs remains.
                if req.budget_us > 0 {
                    req.budget_us -= wait_us;
                }

                // Verify and cost-account against the API descriptor.
                let mut reject = false;
                if let Some(desc) = &config.descriptor {
                    match desc.by_id(req.fn_id) {
                        Some(func) if func.resources.is_empty() => {}
                        Some(func) => {
                            let env = desc.env_for(func, &req.args);
                            for res in &func.resources {
                                if let Ok(v) = res.amount.eval(&env, &desc.types) {
                                    match res.resource.as_str() {
                                        "device_time_us" => {
                                            lane.metrics.est_device_time_us.add(v as f64)
                                        }
                                        "device_mem" => lane.metrics.est_device_mem.add(v as f64),
                                        _ => {}
                                    }
                                }
                            }
                            // Device-memory quotas are enforced at the
                            // server (it owns the authoritative residency
                            // accounting, including swapped bytes); the
                            // router only keeps the cost estimates.
                        }
                        None => reject = true, // unknown function id: refuse
                    }
                }

                if reject {
                    lane.metrics.rejected.inc();
                    if req.mode == CallMode::Sync {
                        lane.telemetry
                            .span_stage_deferred(req.call_id, Stage::Replied, None);
                    }
                    let reply = CallReply {
                        call_id: req.call_id,
                        status: ReplyStatus::PolicyRejected,
                        ret: ava_wire::Value::Unit,
                        outputs: vec![],
                    };
                    let _ = lane.guest.send(&Message::Reply(reply));
                    continue;
                }
                if is_sync {
                    sync_budget -= 1;
                }
                outgoing.push(req);
            }
            if outgoing.is_empty() {
                // Everything popped this pick was rejected by policy.
                continue;
            }
            forwarded_round += outgoing.len();

            // Stamp Forwarded before the send: the modelled sender
            // overhead means the server could otherwise execute (and
            // stamp) before this thread resumes. A failed send leaves a
            // harmless early stamp — the requeued call overwrites it when
            // it is actually forwarded. Stamps ride the lock-free
            // deferred intake: no mutex on the forwarding path.
            let mut sync_count = 0u64;
            for req in &outgoing {
                if req.mode == CallMode::Sync {
                    sync_count += 1;
                    lane.telemetry
                        .span_stage_deferred(req.call_id, Stage::Forwarded, None);
                }
            }
            let n = outgoing.len() as u64;
            let msg = if outgoing.len() == 1 {
                Message::Call(outgoing.pop().expect("len checked"))
            } else {
                Message::Batch(outgoing)
            };
            // Count before the send, for the same reason: stats and
            // quiescence read these cells from other threads, and must
            // never see a call executed that the lane has not counted as
            // forwarded (and, if sync, outstanding). Async calls are
            // fire-and-forget: the server only replies on failure, so they
            // are not tracked as outstanding.
            lane.metrics.forwarded.add(n);
            lane.metrics.outstanding.add(sync_count);
            if let Some(s) = lane.slot {
                slots.entry(s, &telemetry).outstanding.add(sync_count);
            }
            // The run is moved, not cloned: the in-process hop to the
            // server hands the very allocation over.
            if let Err((_, msg)) = lane.server.send_owned(msg) {
                // The run never reached the server: take back its
                // counts, requeue it at the front in order (nothing
                // newer was forwarded, so order is preserved) and
                // suspend the lane for the supervisor to reattach or
                // fail it.
                for _ in 0..n {
                    lane.metrics.forwarded.dec_saturating();
                }
                for _ in 0..sync_count {
                    lane.metrics.outstanding.dec_saturating();
                }
                slots.release_outstanding(lane.slot, sync_count, &telemetry);
                lane.server_down = true;
                let reqs = match msg {
                    Message::Call(req) => vec![req],
                    Message::Batch(reqs) => reqs,
                    _ => unreachable!("runs are Call or Batch frames"),
                };
                // The dequeue already deducted queue wait from each
                // call's budget, so restarting the wait clock here
                // keeps budget accounting consistent.
                for req in reqs.into_iter().rev() {
                    slots.add_depth(lane.slot, 1.0, &telemetry);
                    lane.queue.push_front(QueuedCall {
                        req,
                        enqueued_at: Instant::now(),
                    });
                }
            }
        }

        // 4. Pump replies server→guest.
        for lane in lanes.iter_mut() {
            if lane.server_down {
                // Nothing to pump, and re-polling a dead transport would
                // re-report the failure every round (a busy spin).
                continue;
            }
            loop {
                match lane.server.try_recv() {
                    Ok(Some(Message::Reply(rep))) => {
                        lane.metrics.replies.inc();
                        let prev = lane.metrics.outstanding.get();
                        lane.metrics.outstanding.dec_saturating();
                        if prev > 0 {
                            if let Some(s) = lane.slot {
                                slots.entry(s, &telemetry).outstanding.dec_saturating();
                            }
                        }
                        lane.metrics.bytes_out.add(rep.payload_bytes() as u64);
                        if rep.status == ReplyStatus::CacheMiss {
                            lane.metrics.cache_misses.inc();
                        }
                        // Circuit breaker: a TransportError reply is the
                        // poison signal (server-side marshal/execute
                        // breakage); every other status — including the
                        // server's own Overloaded deadline discards — is
                        // a live server and counts as success. Overload
                        // is deliberately not conflated with poison: a
                        // saturated tenant must shed, not quarantine.
                        if let Some(br) = &mut lane.breaker {
                            if rep.status == ReplyStatus::TransportError {
                                if br.on_failure_at(Instant::now()) {
                                    lane.metrics.breaker_opens.inc();
                                    overload.breaker_opens.inc();
                                    lane.telemetry.event(
                                        Tier::Router,
                                        EventKind::BreakerOpen,
                                        rep.call_id,
                                        u64::from(br.consecutive_failures()),
                                    );
                                }
                            } else if br.on_success() {
                                lane.telemetry.event(
                                    Tier::Router,
                                    EventKind::BreakerClose,
                                    rep.call_id,
                                    u64::from(br.probes_used()),
                                );
                            }
                            if lane.probe_call_id == Some(rep.call_id) {
                                lane.probe_call_id = None;
                            }
                        }
                        // Deferred stamp, pushed before the relay below:
                        // the guest's GuestEnd fold is therefore
                        // guaranteed to see it.
                        lane.telemetry
                            .span_stage_deferred(rep.call_id, Stage::Replied, None);
                        let _ = lane.guest.send_owned(Message::Reply(rep));
                        progressed = true;
                    }
                    Ok(Some(other)) => {
                        let _ = lane.guest.send_owned(other);
                        progressed = true;
                    }
                    Ok(None) => break,
                    Err(e) if e.is_failure() => {
                        // The server vanished abruptly; any in-flight
                        // replies are gone. Suspend forwarding and let the
                        // supervisor decide between reattach and giving up.
                        lane.server_down = true;
                        progressed = true;
                        break;
                    }
                    Err(_) => break,
                }
            }
        }

        // (Per-slot queue-depth gauges need no refresh pass: the slot
        // table's depth cells ARE the registered gauges, updated at each
        // ingest and forward.)

        // 5. Idle backoff: escalate toward 1 ms sleeps so an idle router
        // does not burn a core (which would perturb co-located work), at
        // the price of up to ~1 ms extra latency on the first call after
        // an idle period.
        if progressed {
            idle_spins = 0;
        } else {
            idle_spins = (idle_spins + 1).min(30);
            if idle_spins > 3 {
                std::thread::sleep(Duration::from_micros(u64::from(idle_spins) * 10));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Queue-depth admission limits in effect this loop iteration (the
/// configured limits, halved while a brownout stage is active).
struct AdmissionLimits {
    max_queue_depth: Option<usize>,
    max_slot_queue_depth: Option<usize>,
}

/// Halves a depth limit (floor 1) while a brownout stage is active, so
/// the stack sheds earlier instead of queueing deeper while degraded.
fn brownout_limit(limit: Option<usize>, stage: u8) -> Option<usize> {
    limit.map(|l| if stage >= 1 { (l / 2).max(1) } else { l })
}

/// Ingests one guest call into a lane's queue with uniform per-call
/// accounting: moved and elided byte counts, cache-hit counting, and the
/// `Queued` span stamp for sync calls (batched or not). Only sync calls
/// carry spans: async successes are reply-suppressed, so their spans could
/// never complete.
///
/// Admission control runs here, before any queueing: brownout-shed
/// tenants, depth limits (per VM and per slot) and the tenant's circuit
/// breaker each shed with [`ReplyStatus::Overloaded`] instead of letting
/// the queue absorb load the stack cannot serve in time. Depth checks run
/// before the breaker so a shed never wastes the one half-open probe slot.
fn ingest_request(
    lane: &mut Lane,
    req: CallRequest,
    slots: &mut SlotTable,
    telemetry: &Telemetry,
    admission: &AdmissionLimits,
    overload: &OverloadMetrics,
) {
    if lane.unavailable {
        // The server is permanently gone. Answering immediately — rather
        // than queueing toward a reply that can never come — is what
        // bounds the guest's failure latency to its own deadline instead
        // of a full retry budget.
        fail_unavailable(lane, &req);
        return;
    }
    if lane.brownout_shed {
        fail_overloaded(lane, &req, shed_reason::BROWNOUT, overload);
        return;
    }
    if admission
        .max_queue_depth
        .is_some_and(|limit| lane.queue.len() >= limit)
    {
        fail_overloaded(lane, &req, shed_reason::QUEUE_DEPTH, overload);
        return;
    }
    if let (Some(limit), Some(s)) = (admission.max_slot_queue_depth, lane.slot) {
        if slots.entry(s, telemetry).depth.get() >= limit as f64 {
            fail_overloaded(lane, &req, shed_reason::QUEUE_DEPTH, overload);
            return;
        }
    }
    if let Some(br) = &mut lane.breaker {
        let now = Instant::now();
        let half_open = br.state_at(now) == BreakerState::HalfOpen;
        if !br.admit_at(now) {
            fail_overloaded(lane, &req, shed_reason::BREAKER, overload);
            return;
        }
        if half_open {
            lane.probe_call_id = Some(req.call_id);
        }
    }
    lane.metrics.bytes_in.add(req.payload_bytes() as u64);
    lane.metrics.bytes_elided.add(req.elided_bytes() as u64);
    lane.metrics.cache_hits.add(req.cached_count() as u64);
    if req.mode == CallMode::Sync {
        lane.telemetry
            .span_stage_deferred(req.call_id, Stage::Queued, None);
    }
    slots.add_depth(lane.slot, 1.0, telemetry);
    lane.queue.push_back(QueuedCall {
        req,
        enqueued_at: Instant::now(),
    });
}

/// Sheds one call with [`ReplyStatus::Overloaded`]. Unlike
/// [`fail_unavailable`], async calls get the reply too: shed accounting
/// must reconcile end to end — the guest's observed rejections and the
/// router's shed counters describe the same set of calls.
fn fail_overloaded(lane: &mut Lane, req: &CallRequest, reason: u64, overload: &OverloadMetrics) {
    lane.metrics.shed.inc();
    overload.sheds.inc();
    lane.telemetry
        .event(Tier::Router, EventKind::Shed, req.call_id, reason);
    if req.mode == CallMode::Sync {
        lane.telemetry
            .span_stage_deferred(req.call_id, Stage::Replied, None);
    }
    let _ = lane
        .guest
        .send(&Message::Reply(CallReply::overloaded(req.call_id)));
}

/// Drops a queued call whose deadline budget (or queue-age limit) lapsed
/// while it waited. The call never reaches the server, so the journal
/// never records it and a later guest retry with a fresh budget is not
/// dedup-dropped. A dropped half-open probe releases the breaker's
/// admission slot so the next arrival can probe instead.
fn drop_expired(
    lane: &mut Lane,
    req: &CallRequest,
    budget_expired: bool,
    overload: &OverloadMetrics,
) {
    if lane.probe_call_id == Some(req.call_id) {
        lane.probe_call_id = None;
        if let Some(br) = &mut lane.breaker {
            br.probe_abandoned();
        }
    }
    if budget_expired {
        lane.metrics.deadline_drops.inc();
        overload.deadline_drops.inc();
        lane.telemetry.event(
            Tier::Router,
            EventKind::DeadlineDrop,
            req.call_id,
            req.budget_us,
        );
    } else {
        lane.metrics.age_drops.inc();
        overload.age_drops.inc();
        lane.telemetry.event(
            Tier::Router,
            EventKind::Shed,
            req.call_id,
            shed_reason::QUEUE_AGE,
        );
    }
    if req.mode == CallMode::Sync {
        lane.telemetry
            .span_stage_deferred(req.call_id, Stage::Replied, None);
    }
    let _ = lane
        .guest
        .send(&Message::Reply(CallReply::overloaded(req.call_id)));
}

/// Answers one call with [`ReplyStatus::Unavailable`] (sync calls only —
/// async calls are fire-and-forget and simply dropped; the guest learns of
/// the failure on its next sync call at the latest).
fn fail_unavailable(lane: &mut Lane, req: &CallRequest) {
    if req.mode != CallMode::Sync {
        return;
    }
    lane.metrics.unavailable_replies.inc();
    lane.telemetry
        .span_stage_deferred(req.call_id, Stage::Replied, None);
    let reply = CallReply {
        call_id: req.call_id,
        status: ReplyStatus::Unavailable,
        ret: ava_wire::Value::Unit,
        outputs: vec![],
    };
    let _ = lane.guest.send(&Message::Reply(reply));
}

/// Fails every queued call on a lane whose server was declared gone.
fn fail_queued_unavailable(lane: &mut Lane, slots: &mut SlotTable, telemetry: &Telemetry) {
    while let Some(queued) = lane.queue.pop_front() {
        slots.add_depth(lane.slot, -1.0, telemetry);
        if lane.probe_call_id == Some(queued.req.call_id) {
            lane.probe_call_id = None;
            if let Some(br) = &mut lane.breaker {
                br.probe_abandoned();
            }
        }
        fail_unavailable(lane, &queued.req);
    }
}

/// Picks the next lane to service, honouring pause state, rate limits,
/// per-slot in-flight budgets and the configured scheduler. Returns an
/// index into `lanes`. Slot budgets are O(1) atomic reads against the
/// incrementally-maintained slot table — no per-pick scan.
fn pick_lane(
    lanes: &mut [Lane],
    scheduler: SchedulerKind,
    rr_cursor: usize,
    now: Instant,
    slot_inflight: usize,
    slots: &SlotTable,
) -> Option<usize> {
    let n = lanes.len();
    if n == 0 {
        return None;
    }
    let slot_free = |slot: Option<usize>| -> bool {
        slot.is_none_or(|s| {
            slots
                .get(s)
                .map(|e| e.outstanding.get() < slot_inflight as u64)
                .unwrap_or(true)
        })
    };
    // The per-tenant concurrency cap (bulkhead) bounds a lane's own
    // in-flight calls, independent of the slot-wide budget it shares.
    let under_cap = |lane: &Lane| -> bool {
        lane.policy
            .max_inflight
            .is_none_or(|cap| lane.metrics.outstanding.get() < u64::from(cap))
    };
    let ready = |lane: &Lane| -> bool {
        !lane.paused
            && !lane.closed
            && !lane.server_down
            && !lane.queue.is_empty()
            && slot_free(lane.slot)
            && under_cap(lane)
    };
    let admissible = |lane: &mut Lane, now: Instant| -> bool {
        if !(!lane.paused
            && !lane.closed
            && !lane.server_down
            && !lane.queue.is_empty()
            && slot_free(lane.slot)
            && under_cap(lane))
        {
            return false;
        }
        match &mut lane.policy.rate_limit {
            Some(rl) => rl.try_admit_at(now),
            None => true,
        }
    };
    match scheduler {
        SchedulerKind::Fifo => {
            // Round-robin across lanes; FIFO within a lane.
            for off in 0..n {
                let idx = (rr_cursor + off) % n;
                if admissible(&mut lanes[idx], now) {
                    return Some(idx);
                }
            }
            None
        }
        SchedulerKind::FairShare => {
            // Least weighted estimated device time first. Device-time
            // estimates accumulate per lane, so on a shared slot this
            // arbitrates real device occupancy between slot-mates.
            let mut best: Option<(usize, f64)> = None;
            for (idx, lane) in lanes.iter().enumerate() {
                if !ready(lane) {
                    continue;
                }
                let score =
                    lane.metrics.est_device_time_us.get() / f64::from(lane.policy.weight.max(1));
                if best.map(|(_, s)| score < s).unwrap_or(true) {
                    best = Some((idx, score));
                }
            }
            let (idx, _) = best?;
            if admissible(&mut lanes[idx], now) {
                Some(idx)
            } else {
                None
            }
        }
        SchedulerKind::Priority => {
            let mut best: Option<(usize, u8)> = None;
            for (idx, lane) in lanes.iter().enumerate() {
                if !ready(lane) {
                    continue;
                }
                let p = lane.policy.priority;
                if best.map(|(_, bp)| p > bp).unwrap_or(true) {
                    best = Some((idx, p));
                }
            }
            let (idx, _) = best?;
            if admissible(&mut lanes[idx], now) {
                Some(idx)
            } else {
                None
            }
        }
    }
}
