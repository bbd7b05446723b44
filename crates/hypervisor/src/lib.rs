//! `ava-hypervisor` — simulated VMs and the hypervisor-resident router.
//!
//! AvA forwards API calls over hypervisor-managed transport so the
//! hypervisor can "monitor and control all device accesses and collaborate
//! with the CPU scheduler" (§3). This crate provides:
//!
//! * [`Hypervisor`] — owns the router thread; VMs attach to it and receive
//!   a guest-side transport (to link into the guest library) plus a
//!   host-side transport (to hand to the per-VM API server);
//! * [`router`] — the interposition point: verification, rate limiting,
//!   cross-VM scheduling, accounting, pause/resume for migration;
//! * [`policy`] — token-bucket rate limiter, scheduler kinds, per-VM
//!   policies.

#![warn(clippy::too_many_lines)]

pub mod policy;
pub mod router;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_spec::ApiDescriptor;
use ava_transport::{BoxedTransport, CostModel, FaultInjector, FaultPlan, TransportKind};
use ava_wire::VmId;
use crossbeam::channel::{unbounded, Sender};

pub use policy::{
    BreakerConfig, BreakerState, CircuitBreaker, PlacementPolicy, PolicyDefaults, RateLimiter,
    SchedulerKind, VmPolicy,
};
pub use router::{RouterConfig, VmStats};

use router::{RouterCmd, VmMetrics};

/// Error type for hypervisor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypervisorError {
    /// The router thread has exited.
    RouterGone,
    /// Transport construction failed.
    Transport(String),
    /// The VM id is unknown.
    UnknownVm(VmId),
    /// Timed out waiting for a condition (e.g. quiescence before
    /// migration).
    Timeout,
}

impl std::fmt::Display for HypervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RouterGone => write!(f, "router thread is gone"),
            Self::Transport(m) => write!(f, "transport error: {m}"),
            Self::UnknownVm(id) => write!(f, "unknown VM {id}"),
            Self::Timeout => write!(f, "timed out"),
        }
    }
}

impl std::error::Error for HypervisorError {}

/// What a newly attached VM receives.
pub struct VmConnection {
    /// The VM's identifier.
    pub vm_id: VmId,
    /// Guest-side endpoint: link this into the guest library.
    pub guest: BoxedTransport,
    /// Host-side endpoint: hand this to the VM's API server.
    pub server: BoxedTransport,
}

/// The simulated hypervisor: owns the router thread.
pub struct Hypervisor {
    cmd_tx: Sender<RouterCmd>,
    handle: Option<std::thread::JoinHandle<()>>,
    next_vm: AtomicU32,
    /// Each attached lane's counters. The router thread updates the same
    /// cells, so stats and quiescence are read here directly and never
    /// wait on the router.
    lanes: parking_lot::Mutex<HashMap<VmId, VmMetrics>>,
}

impl Hypervisor {
    /// Starts a hypervisor with the given scheduler and API descriptor
    /// (used for cost estimation and call verification).
    pub fn new(scheduler: SchedulerKind, descriptor: Option<Arc<ApiDescriptor>>) -> Self {
        Hypervisor::with_config(RouterConfig {
            scheduler,
            descriptor,
            ..RouterConfig::default()
        })
    }

    /// Starts a hypervisor with full router configuration (per-slot
    /// in-flight budgets, forwarding round size, …).
    pub fn with_config(config: RouterConfig) -> Self {
        let (cmd_tx, cmd_rx) = unbounded();
        let handle = std::thread::Builder::new()
            .name("ava-router".into())
            .spawn(move || router::Router::new(config).run(cmd_rx))
            .expect("spawn router thread");
        Hypervisor {
            cmd_tx,
            handle: Some(handle),
            next_vm: AtomicU32::new(1),
            lanes: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a telemetry registry: the router registers per-VM
    /// `router.vm<N>.*` counters (existing and future lanes) and stamps
    /// span stages for sync calls.
    pub fn set_telemetry(
        &self,
        telemetry: ava_telemetry::Telemetry,
    ) -> Result<(), HypervisorError> {
        self.cmd_tx
            .send(RouterCmd::SetTelemetry(telemetry))
            .map_err(|_| HypervisorError::RouterGone)
    }

    /// Attaches a VM using `kind` as the guest↔hypervisor transport with
    /// cost model `model`; the router↔server hop is an in-process channel
    /// (both live on the host).
    pub fn add_vm(
        &self,
        policy: VmPolicy,
        kind: TransportKind,
        model: CostModel,
    ) -> Result<VmConnection, HypervisorError> {
        self.add_vm_full(policy, kind, model, None, None, None)
    }

    /// The full attachment variant: an optional device-pool slot binding
    /// plus deterministic fault injection on the guest channel. Lanes
    /// bound to the same slot share its in-flight budget and show up in
    /// `pool.slot<N>.*` telemetry. `guest_tx_plan` faults frames the guest
    /// sends (calls), `guest_rx_plan` faults frames the router sends back
    /// (replies) — each direction draws from its own seeded schedule, so a
    /// chaos run is reproducible from the two seeds alone.
    pub fn add_vm_full(
        &self,
        policy: VmPolicy,
        kind: TransportKind,
        model: CostModel,
        slot: Option<usize>,
        guest_tx_plan: Option<FaultPlan>,
        guest_rx_plan: Option<FaultPlan>,
    ) -> Result<VmConnection, HypervisorError> {
        let vm_id = self.next_vm.fetch_add(1, Ordering::Relaxed);
        let (guest_end, router_guest_end) = ava_transport::pair(kind, model)
            .map_err(|e| HypervisorError::Transport(e.to_string()))?;
        let guest_end = match guest_tx_plan {
            Some(plan) => FaultInjector::wrap(guest_end, plan),
            None => guest_end,
        };
        let router_guest_end = match guest_rx_plan {
            Some(plan) => FaultInjector::wrap(router_guest_end, plan),
            None => router_guest_end,
        };
        let (router_server_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free())
                .map_err(|e| HypervisorError::Transport(e.to_string()))?;
        let metrics = VmMetrics::default();
        self.cmd_tx
            .send(RouterCmd::AddVm {
                vm_id,
                guest: router_guest_end,
                server: router_server_end,
                policy,
                slot,
                metrics: Box::new(metrics.clone()),
            })
            .map_err(|_| HypervisorError::RouterGone)?;
        self.lanes.lock().insert(vm_id, metrics);
        Ok(VmConnection {
            vm_id,
            guest: guest_end,
            server: server_end,
        })
    }

    /// Replaces a VM's router↔server transport after its API server was
    /// respawned: the router resumes forwarding (queued calls first) and
    /// the returned endpoint is handed to the new server. Clears any
    /// unavailable state on the lane.
    pub fn reattach_server(&self, vm_id: VmId) -> Result<BoxedTransport, HypervisorError> {
        let (router_server_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free())
                .map_err(|e| HypervisorError::Transport(e.to_string()))?;
        self.cmd_tx
            .send(RouterCmd::ReattachServer {
                vm_id,
                server: router_server_end,
            })
            .map_err(|_| HypervisorError::RouterGone)?;
        Ok(server_end)
    }

    /// Declares a VM's server permanently gone: the router answers queued
    /// and future sync calls with `Unavailable` immediately, so guests
    /// fail fast instead of burning their whole retry budget.
    pub fn mark_unavailable(&self, vm_id: VmId) -> Result<(), HypervisorError> {
        self.cmd_tx
            .send(RouterCmd::MarkUnavailable(vm_id))
            .map_err(|_| HypervisorError::RouterGone)
    }

    /// Rebinds a VM's lane to a different device-pool slot (`None`
    /// detaches it from pool accounting). Used by live rebalancing after
    /// the VM's server has been rebuilt on the destination slot's device.
    pub fn set_vm_slot(&self, vm_id: VmId, slot: Option<usize>) -> Result<(), HypervisorError> {
        self.cmd_tx
            .send(RouterCmd::SetSlot { vm_id, slot })
            .map_err(|_| HypervisorError::RouterGone)
    }

    /// Sets the brownout degradation stage (0 = normal operation). At
    /// stage ≥ 1 the router collapses forward-run coalescing and halves
    /// its queue-depth admission limits; tenants in `shed` (chosen lowest
    /// priority first by the caller) have their traffic shed entirely
    /// with `Overloaded` replies until the stage drops.
    pub fn set_brownout(&self, stage: u8, shed: Vec<VmId>) -> Result<(), HypervisorError> {
        self.cmd_tx
            .send(RouterCmd::SetBrownout { stage, shed })
            .map_err(|_| HypervisorError::RouterGone)
    }

    /// Pauses guest→server forwarding for a VM (used before migration).
    pub fn pause_vm(&self, vm_id: VmId) -> Result<(), HypervisorError> {
        self.cmd_tx
            .send(RouterCmd::Pause(vm_id))
            .map_err(|_| HypervisorError::RouterGone)
    }

    /// Resumes a paused VM.
    pub fn resume_vm(&self, vm_id: VmId) -> Result<(), HypervisorError> {
        self.cmd_tx
            .send(RouterCmd::Resume(vm_id))
            .map_err(|_| HypervisorError::RouterGone)
    }

    /// Detaches a VM.
    pub fn remove_vm(&self, vm_id: VmId) -> Result<(), HypervisorError> {
        self.lanes.lock().remove(&vm_id);
        self.cmd_tx
            .send(RouterCmd::Remove(vm_id))
            .map_err(|_| HypervisorError::RouterGone)
    }

    /// Snapshot of a VM's router statistics, read from the lane's cells
    /// without a round trip through the router thread.
    pub fn vm_stats(&self, vm_id: VmId) -> Result<VmStats, HypervisorError> {
        self.lanes
            .lock()
            .get(&vm_id)
            .map(VmMetrics::snapshot)
            .ok_or(HypervisorError::UnknownVm(vm_id))
    }

    /// Waits until a paused VM has no outstanding forwarded *sync* calls —
    /// the quiescence point at which the server's state can be
    /// snapshotted for migration (§4.3). Async calls are never counted
    /// (the server answers them only on failure); those already forwarded
    /// are drained by the server's halt, which executes what its channel
    /// holds before it stops. Reads the lane's `outstanding` cell, so a
    /// router busy elsewhere cannot stall it. A call the router forwards
    /// before it applies the pause still reaches the VM's server channel,
    /// which a relocation keeps: the rebuilt server executes it.
    pub fn wait_quiescent(&self, vm_id: VmId, timeout: Duration) -> Result<(), HypervisorError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.vm_stats(vm_id)?.outstanding == 0 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(HypervisorError::Timeout);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for Hypervisor {
    fn drop(&mut self) {
        let _ = self.cmd_tx.send(RouterCmd::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_wire::{CallMode, CallReply, CallRequest, ControlMessage, Message, ReplyStatus, Value};

    fn call(id: u64) -> Message {
        Message::Call(CallRequest {
            call_id: id,
            fn_id: 0,
            mode: CallMode::Sync,
            args: vec![Value::U32(1)],
            budget_us: 0,
        })
    }

    fn async_call(id: u64) -> Message {
        Message::Call(CallRequest {
            call_id: id,
            fn_id: 0,
            mode: CallMode::Async,
            args: vec![Value::U32(1)],
            budget_us: 0,
        })
    }

    fn ok_reply(id: u64) -> Message {
        Message::Reply(CallReply {
            call_id: id,
            status: ReplyStatus::Ok,
            ret: Value::I32(0),
            outputs: vec![],
        })
    }

    /// Plays a server by hand: receives until `n` calls arrived, whether
    /// the router forwarded them singly or as one run, and returns their
    /// ids in arrival order.
    fn recv_call_ids(server: &BoxedTransport, n: usize) -> Vec<u64> {
        let mut ids = Vec::new();
        while ids.len() < n {
            match server.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(Message::Call(req)) => ids.push(req.call_id),
                Some(Message::Batch(reqs)) => ids.extend(reqs.iter().map(|r| r.call_id)),
                other => panic!("after {ids:?}: {other:?}"),
            }
        }
        ids
    }

    /// Receives the next reply the router relays to a guest.
    fn recv_reply(guest: &BoxedTransport) -> CallReply {
        match guest.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Message::Reply(rep)) => rep,
            other => panic!("{other:?}"),
        }
    }

    /// Echo server: answers every call with an Ok reply carrying the id.
    fn spawn_echo(server: BoxedTransport) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while let Ok(msg) = server.recv() {
                match msg {
                    Message::Call(req) => {
                        let reply = CallReply {
                            call_id: req.call_id,
                            status: ReplyStatus::Ok,
                            ret: Value::I32(0),
                            outputs: vec![],
                        };
                        if server.send(&Message::Reply(reply)).is_err() {
                            break;
                        }
                    }
                    Message::Batch(reqs) => {
                        let mut dead = false;
                        for req in reqs {
                            let reply = CallReply {
                                call_id: req.call_id,
                                status: ReplyStatus::Ok,
                                ret: Value::I32(0),
                                outputs: vec![],
                            };
                            if server.send(&Message::Reply(reply)).is_err() {
                                dead = true;
                                break;
                            }
                        }
                        if dead {
                            break;
                        }
                    }
                    Message::Control(ControlMessage::Heartbeat(v))
                        if server
                            .send(&Message::Control(ControlMessage::HeartbeatAck(v)))
                            .is_err() =>
                    {
                        break;
                    }
                    Message::Control(ControlMessage::Shutdown) => break,
                    _ => {}
                }
            }
        })
    }

    #[test]
    fn calls_flow_guest_to_server_and_back() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let echo = spawn_echo(conn.server);
        for i in 0..50 {
            conn.guest.send(&call(i)).unwrap();
        }
        for i in 0..50 {
            match conn.guest.recv().unwrap() {
                Message::Reply(rep) => {
                    assert_eq!(rep.call_id, i);
                    assert_eq!(rep.status, ReplyStatus::Ok);
                }
                other => panic!("{other:?}"),
            }
        }
        let stats = hv.vm_stats(conn.vm_id).unwrap();
        assert_eq!(stats.forwarded, 50);
        assert_eq!(stats.replies, 50);
        assert_eq!(stats.outstanding, 0);
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn stats_and_quiescence_never_wait_on_the_router() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        // The router sleeps in every send to the guest: each reply holds
        // the router thread for `hold`.
        let hold = Duration::from_secs(1);
        let replies = FaultPlan {
            delay_rate: 1.0,
            delay: hold,
            ..FaultPlan::quiet(1)
        };
        let conn = hv
            .add_vm_full(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
                None,
                None,
                Some(replies),
            )
            .unwrap();
        let echo = spawn_echo(conn.server);
        conn.guest.send(&call(1)).unwrap();
        // Time for the router to take the echo's reply and fall asleep
        // sending it on.
        std::thread::sleep(hold / 10);

        let asked = Instant::now();
        let stats = hv.vm_stats(conn.vm_id).unwrap();
        hv.pause_vm(conn.vm_id).unwrap();
        hv.wait_quiescent(conn.vm_id, 2 * hold).unwrap();
        let answered = asked.elapsed();
        assert!(answered < hold / 10, "answered after {answered:?}");
        // The router really was held: the reply has not reached the guest.
        assert!(conn.guest.try_recv().unwrap().is_none());
        assert_eq!((stats.replies, stats.outstanding), (1, 0));
        assert!(matches!(conn.guest.recv().unwrap(), Message::Reply(_)));

        hv.resume_vm(conn.vm_id).unwrap();
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn async_failure_reply_leaves_the_sync_call_outstanding() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        conn.guest.send(&async_call(1)).unwrap();
        conn.guest.send(&call(2)).unwrap();
        assert_eq!(recv_call_ids(&conn.server, 2), [1, 2]);
        // The server fails the async call and holds the sync one.
        conn.server
            .send(&Message::Reply(CallReply::transport_error(1)))
            .unwrap();
        assert_eq!(recv_reply(&conn.guest).call_id, 1);
        assert_eq!(hv.vm_stats(conn.vm_id).unwrap().outstanding, 1);
        // Only the sync call's own reply settles it.
        conn.server.send(&ok_reply(2)).unwrap();
        assert_eq!(recv_reply(&conn.guest).call_id, 2);
        assert_eq!(hv.vm_stats(conn.vm_id).unwrap().outstanding, 0);
    }

    #[test]
    fn async_failure_reply_does_not_free_the_slot_budget() {
        let hv = Hypervisor::with_config(RouterConfig {
            slot_inflight: 1,
            ..RouterConfig::default()
        });
        let attach = || {
            hv.add_vm_full(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
                Some(0),
                None,
                None,
            )
            .unwrap()
        };
        let (a, b) = (attach(), attach());
        // Lane A's server fails its async call and holds its sync call,
        // which takes the slot's whole one-call budget.
        a.guest.send(&async_call(1)).unwrap();
        a.guest.send(&call(2)).unwrap();
        assert_eq!(recv_call_ids(&a.server, 2), [1, 2]);
        a.server
            .send(&Message::Reply(CallReply::transport_error(1)))
            .unwrap();
        assert_eq!(recv_reply(&a.guest).call_id, 1);
        // A sync call on the slot-mate must wait for the held call.
        b.guest.send(&call(3)).unwrap();
        assert_eq!(
            b.server.recv_timeout(Duration::from_millis(100)).unwrap(),
            None,
            "a second sync call went past the slot's in-flight budget"
        );
        a.server.send(&ok_reply(2)).unwrap();
        assert_eq!(recv_reply(&a.guest).call_id, 2);
        assert_eq!(recv_call_ids(&b.server, 1), [3]);
    }

    #[test]
    fn router_answers_pings_itself() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        conn.guest
            .send(&Message::Control(ControlMessage::Ping(77)))
            .unwrap();
        match conn.guest.recv().unwrap() {
            Message::Control(ControlMessage::Pong(v)) => assert_eq!(v, 77),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pause_holds_calls_and_resume_releases_them() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let echo = spawn_echo(conn.server);
        hv.pause_vm(conn.vm_id).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        conn.guest.send(&call(1)).unwrap();
        assert_eq!(
            conn.guest.recv_timeout(Duration::from_millis(50)).unwrap(),
            None,
            "call must be held while paused"
        );
        hv.resume_vm(conn.vm_id).unwrap();
        match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Message::Reply(rep)) => assert_eq!(rep.call_id, 1),
            other => panic!("{other:?}"),
        }
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn rate_limit_delays_but_delivers() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        // 100 calls/s, burst 1: 10 calls should take >= ~90 ms.
        let conn = hv
            .add_vm(
                VmPolicy::with_rate_limit(100.0, 1),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let echo = spawn_echo(conn.server);
        let start = Instant::now();
        for i in 0..10 {
            conn.guest.send(&call(i)).unwrap();
        }
        for _ in 0..10 {
            match conn.guest.recv().unwrap() {
                Message::Reply(_) => {}
                other => panic!("{other:?}"),
            }
        }
        assert!(
            start.elapsed() >= Duration::from_millis(80),
            "rate limiting too weak: {:?}",
            start.elapsed()
        );
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn wait_quiescent_observes_outstanding_drain() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let echo = spawn_echo(conn.server);
        for i in 0..20 {
            conn.guest.send(&call(i)).unwrap();
        }
        hv.pause_vm(conn.vm_id).unwrap();
        hv.wait_quiescent(conn.vm_id, Duration::from_secs(5))
            .unwrap();
        let stats = hv.vm_stats(conn.vm_id).unwrap();
        assert_eq!(stats.outstanding, 0);
        // Calls not yet forwarded stay queued while paused; resume and
        // drain everything.
        hv.resume_vm(conn.vm_id).unwrap();
        let mut got = 0;
        while got < 20 {
            match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(Message::Reply(_)) => got += 1,
                Some(other) => panic!("{other:?}"),
                None => panic!("timed out after {got} replies"),
            }
        }
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn heartbeats_round_trip_through_the_router() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let echo = spawn_echo(conn.server);
        conn.guest
            .send(&Message::Control(ControlMessage::Heartbeat(9)))
            .unwrap();
        match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Message::Control(ControlMessage::HeartbeatAck(v))) => assert_eq!(v, 9),
            other => panic!("{other:?}"),
        }
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn unavailable_lane_answers_sync_calls_immediately() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        // The server "crashes" before ever answering, and the supervisor
        // gives up on it.
        drop(conn.server);
        hv.mark_unavailable(conn.vm_id).unwrap();
        conn.guest.send(&call(1)).unwrap();
        match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Message::Reply(rep)) => {
                assert_eq!(rep.call_id, 1);
                assert_eq!(rep.status, ReplyStatus::Unavailable);
            }
            other => panic!("{other:?}"),
        }
        let stats = hv.vm_stats(conn.vm_id).unwrap();
        assert_eq!(stats.unavailable_replies, 1);
    }

    #[test]
    fn reattach_revives_a_dead_lane_without_losing_queued_calls() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        // Crash the server, then issue calls: forwarding the run fails, the
        // router gets it back and requeues it, and the lane suspends.
        drop(conn.server);
        conn.guest
            .send(&Message::Batch(
                (1..=3)
                    .map(|id| CallRequest {
                        call_id: id,
                        fn_id: 0,
                        mode: CallMode::Sync,
                        args: vec![Value::U32(1)],
                        budget_us: 0,
                    })
                    .collect(),
            ))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // Respawn: attach a fresh server transport; the queued run flows,
        // in its original order.
        let new_server = hv.reattach_server(conn.vm_id).unwrap();
        let echo = spawn_echo(new_server);
        for id in 1..=3 {
            match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(Message::Reply(rep)) => {
                    assert_eq!(rep.call_id, id);
                    assert_eq!(rep.status, ReplyStatus::Ok);
                }
                other => panic!("{other:?}"),
            }
        }
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    /// Poison server: answers every call with a TransportError reply (the
    /// breaker's failure signal).
    fn spawn_poison(server: BoxedTransport) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while let Ok(msg) = server.recv() {
                match msg {
                    Message::Call(req)
                        if server
                            .send(&Message::Reply(CallReply::transport_error(req.call_id)))
                            .is_err() =>
                    {
                        break;
                    }
                    Message::Batch(reqs) => {
                        for req in reqs {
                            let _ = server
                                .send(&Message::Reply(CallReply::transport_error(req.call_id)));
                        }
                    }
                    Message::Control(ControlMessage::Shutdown) => break,
                    _ => {}
                }
            }
        })
    }

    #[test]
    fn queue_depth_admission_sheds_with_overloaded() {
        let hv = Hypervisor::with_config(RouterConfig {
            max_queue_depth: Some(2),
            ..RouterConfig::default()
        });
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        // Pause forwarding so the queue actually fills.
        hv.pause_vm(conn.vm_id).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        for i in 0..5 {
            conn.guest.send(&call(i)).unwrap();
        }
        // First 2 queue; the remaining 3 are shed at admission.
        for _ in 0..3 {
            match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(Message::Reply(rep)) => assert_eq!(rep.status, ReplyStatus::Overloaded),
                other => panic!("{other:?}"),
            }
        }
        let stats = hv.vm_stats(conn.vm_id).unwrap();
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.forwarded, 0);
    }

    #[test]
    fn expired_budget_is_dropped_at_dequeue_not_forwarded() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let echo = spawn_echo(conn.server);
        hv.pause_vm(conn.vm_id).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        // 1 ms of budget, then left in the queue for ~20 ms.
        conn.guest
            .send(&Message::Call(CallRequest {
                call_id: 1,
                fn_id: 0,
                mode: CallMode::Sync,
                args: vec![Value::U32(1)],
                budget_us: 1_000,
            }))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        hv.resume_vm(conn.vm_id).unwrap();
        match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Message::Reply(rep)) => {
                assert_eq!(rep.call_id, 1);
                assert_eq!(rep.status, ReplyStatus::Overloaded);
            }
            other => panic!("{other:?}"),
        }
        let stats = hv.vm_stats(conn.vm_id).unwrap();
        assert_eq!(stats.deadline_drops, 1);
        assert_eq!(
            stats.forwarded, 0,
            "expired work must never reach the server"
        );
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn brownout_sheds_listed_tenants_and_recovers() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let echo = spawn_echo(conn.server);
        hv.set_brownout(2, vec![conn.vm_id]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        conn.guest.send(&call(1)).unwrap();
        match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Message::Reply(rep)) => assert_eq!(rep.status, ReplyStatus::Overloaded),
            other => panic!("{other:?}"),
        }
        // Stage 0 restores normal service.
        hv.set_brownout(0, vec![]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        conn.guest.send(&call(2)).unwrap();
        match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Message::Reply(rep)) => assert_eq!(rep.status, ReplyStatus::Ok),
            other => panic!("{other:?}"),
        }
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn breaker_opens_on_poison_replies_and_sheds_new_calls() {
        let hv = Hypervisor::with_config(RouterConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 3,
                open_for: Duration::from_secs(60),
                probe_successes: 1,
            }),
            ..RouterConfig::default()
        });
        let conn = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let poison = spawn_poison(conn.server);
        for i in 0..3 {
            conn.guest.send(&call(i)).unwrap();
            match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
                Some(Message::Reply(rep)) => assert_eq!(rep.status, ReplyStatus::TransportError),
                other => panic!("{other:?}"),
            }
        }
        // Third failure opened the breaker; the next call sheds at
        // admission without touching the server.
        conn.guest.send(&call(10)).unwrap();
        match conn.guest.recv_timeout(Duration::from_secs(5)).unwrap() {
            Some(Message::Reply(rep)) => {
                assert_eq!(rep.call_id, 10);
                assert_eq!(rep.status, ReplyStatus::Overloaded);
            }
            other => panic!("{other:?}"),
        }
        let stats = hv.vm_stats(conn.vm_id).unwrap();
        assert_eq!(stats.breaker_opens, 1);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.forwarded, 3);
        conn.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        poison.join().unwrap();
    }

    #[test]
    fn unknown_vm_stats_error() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        assert_eq!(hv.vm_stats(999), Err(HypervisorError::UnknownVm(999)));
    }

    #[test]
    fn two_vms_are_independent_lanes() {
        let hv = Hypervisor::new(SchedulerKind::Fifo, None);
        let a = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let b = hv
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        assert_ne!(a.vm_id, b.vm_id);
        let ea = spawn_echo(a.server);
        let eb = spawn_echo(b.server);
        a.guest.send(&call(1)).unwrap();
        b.guest.send(&call(2)).unwrap();
        assert!(matches!(a.guest.recv().unwrap(), Message::Reply(r) if r.call_id == 1));
        assert!(matches!(b.guest.recv().unwrap(), Message::Reply(r) if r.call_id == 2));
        a.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        b.guest
            .send(&Message::Control(ControlMessage::Shutdown))
            .unwrap();
        ea.join().unwrap();
        eb.join().unwrap();
    }
}
