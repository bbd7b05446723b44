//! The assembled AvA stack: hypervisor + router + per-VM guest libraries
//! and API servers, wired over a chosen transport.
//!
//! [`ApiStack`] is API-agnostic: it is parameterized by a descriptor and a
//! handler factory (one fresh handler per VM, preserving the paper's
//! process-level isolation between guests). The OpenCL and MVNC
//! convenience constructors live in the crate root.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

use ava_guest::{GuestConfig, GuestLibrary};
use ava_hypervisor::{
    BreakerConfig, Hypervisor, HypervisorError, PlacementPolicy, RouterConfig, SchedulerKind,
    VmPolicy, VmStats,
};
use ava_server::{
    shared_handler, ApiHandler, ApiServer, CallJournal, HandlerOutput, JournalEntry, MemoryManager,
    MemoryStats, MigrationImage, ServerStats, SharedHandler,
};
use ava_spec::{ApiDescriptor, FunctionDesc};
use ava_telemetry::{
    metric_set, pack_slots, EventKind, Gauge, MetricSet, Registry, SloConfig, SloMonitor,
    SloSubject, SloViolation, Telemetry, Tier,
};
use ava_transport::{CostModel, FaultPlan, Transport, TransportError, TransportKind};
use ava_wire::{ControlMessage, Message, Value, VmId};
use parking_lot::Mutex;

/// Stack-level errors.
#[derive(Debug)]
pub enum StackError {
    /// Hypervisor/router failure.
    Hypervisor(HypervisorError),
    /// Transport construction failure.
    Transport(TransportError),
    /// Server-side failure (e.g. during migration restore).
    Server(ava_server::ServerError),
    /// The VM id is unknown to this stack.
    UnknownVm(VmId),
    /// The operation requires a device pool (`StackConfig::pool_size > 0`).
    NotPooled,
    /// The pool-slot index is out of range.
    UnknownSlot(usize),
    /// The VM was declared permanently unavailable: its respawn budget is
    /// exhausted, or a relocation failed and could not be rolled back.
    Unavailable(VmId),
}

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Hypervisor(e) => write!(f, "hypervisor: {e}"),
            Self::Transport(e) => write!(f, "transport: {e}"),
            Self::Server(e) => write!(f, "server: {e}"),
            Self::UnknownVm(id) => write!(f, "unknown VM {id}"),
            Self::NotPooled => write!(f, "stack has no device pool (pool_size is 0)"),
            Self::UnknownSlot(slot) => write!(f, "pool slot {slot} out of range"),
            Self::Unavailable(id) => write!(f, "VM {id} is permanently unavailable"),
        }
    }
}

impl std::error::Error for StackError {}

impl From<HypervisorError> for StackError {
    fn from(e: HypervisorError) -> Self {
        StackError::Hypervisor(e)
    }
}

impl From<ava_server::ServerError> for StackError {
    fn from(e: ava_server::ServerError) -> Self {
        StackError::Server(e)
    }
}

/// Result alias for stack operations.
pub type Result<T> = std::result::Result<T, StackError>;

/// Supervisor-driven brownout policy: staged degradation under sustained
/// SLO burn (requires [`StackConfig::slo`] and attached telemetry).
///
/// Stage 1 trades throughput for latency — the router collapses batching
/// and halves its admission limits. Stage 2 additionally sheds the
/// lowest-priority tenants outright so the rest keep their SLO. Both
/// stages unwind automatically once the burn clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Consecutive violating SLO windows before entering stage 1.
    pub stage1_burn: u64,
    /// Consecutive violating windows before escalating to stage 2.
    pub stage2_burn: u64,
    /// Most tenants stage 2 may shed (lowest [`VmPolicy::priority`]
    /// first, ties broken by lowest VM id).
    pub max_shed: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            stage1_burn: 2,
            stage2_burn: 4,
            max_shed: 1,
        }
    }
}

/// Stack configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackConfig {
    /// Guest↔hypervisor transport kind.
    pub transport: TransportKind,
    /// Cost model for the guest↔hypervisor transport.
    pub cost_model: CostModel,
    /// Cross-VM scheduler in the router.
    pub scheduler: SchedulerKind,
    /// Guest-library behaviour (batching).
    pub guest: GuestConfig,
    /// How many times the supervisor respawns a crashed API server before
    /// declaring the VM permanently unavailable.
    pub max_respawns: u32,
    /// How often the supervisor sweeps for dead API-server threads.
    pub supervision_interval: Duration,
    /// Number of shared devices in the pool. `0` (the default) preserves
    /// the historical behaviour: every VM gets a private device instance,
    /// and no placement or rebalancing ever happens. With `pool_size = N`,
    /// the stack constructs `N` shared handler instances up front and every
    /// attached VM is bound to one of them — VMs sharing a slot contend for
    /// that device's execution time for real (its handler mutex serializes
    /// them).
    pub pool_size: usize,
    /// How newly attached VMs are bound to pool slots (ignored when
    /// `pool_size` is 0).
    pub placement: PlacementPolicy,
    /// Router-side cap on sync calls in flight per pool slot (across all
    /// the slot's VMs). Keeps scheduling decisions in the router instead of
    /// laundering them through deep server-side queues.
    pub slot_inflight: usize,
    /// When set, the supervisor watches per-slot device time and migrates
    /// one VM from the hottest to the coolest slot whenever the hottest
    /// slot consumed at least this many more milliseconds of device time
    /// than the coolest over the last [`StackConfig::rebalance_interval`].
    /// `None` (the default) disables the watchdog; `rebalance_vm` is still
    /// available for explicit migration.
    pub rebalance_threshold_ms: Option<f64>,
    /// How often the load watchdog evaluates slot imbalance.
    pub rebalance_interval: Duration,
    /// Service-level objectives, evaluated by the supervisor on the
    /// [`StackConfig::rebalance_interval`] cadence once telemetry is
    /// attached ([`ApiStack::set_telemetry`]). A slot in violation is
    /// treated as hot by the rebalance watchdog even when the raw
    /// device-time gap alone would not trigger a migration. `None`
    /// disables SLO monitoring.
    pub slo: Option<SloConfig>,
    /// Soft per-slot (or per private device) ceiling on *resident* device
    /// memory, in bytes. When an allocation would push a device past this
    /// ceiling, the server proactively LRU-evicts cold buffers to the
    /// host-side swap store before dispatching — graceful overcommit
    /// instead of device OOM. `None` (the default) leaves eviction purely
    /// reactive (device OOM retry).
    pub device_mem_capacity: Option<u64>,
    /// Stack-wide default per-VM device-memory quota, in bytes: the most a
    /// VM may *own* (resident + swapped) before allocations are answered
    /// with `QuotaExceeded`. A per-VM [`VmPolicy::device_mem_quota`]
    /// overrides it. `None` (the default) leaves VMs unquota'd.
    pub device_mem_quota: Option<u64>,
    /// Router admission control: most calls queued per VM lane before new
    /// arrivals are shed with `Overloaded`. `None` (the default) admits
    /// unboundedly.
    pub max_queue_depth: Option<usize>,
    /// Router admission control: most sync calls queued across all of a
    /// pool slot's VMs before further arrivals to that slot are shed.
    pub max_slot_queue_depth: Option<usize>,
    /// Oldest a queued call may grow before the router drops it at
    /// dequeue instead of forwarding already-stale work.
    pub max_queue_age: Option<Duration>,
    /// Per-lane circuit breaker: after this many consecutive
    /// transport-failed replies the lane's traffic is shed until a
    /// half-open probe succeeds. `None` (the default) disables breakers.
    pub breaker: Option<BreakerConfig>,
    /// Staged brownout under sustained SLO burn, driven by the
    /// supervisor. `None` (the default) disables it; requires
    /// [`StackConfig::slo`].
    pub brownout: Option<BrownoutConfig>,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            transport: TransportKind::SharedMemory,
            cost_model: CostModel::paravirtual(),
            scheduler: SchedulerKind::Fifo,
            guest: GuestConfig::default(),
            max_respawns: 3,
            supervision_interval: Duration::from_millis(5),
            pool_size: 0,
            placement: PlacementPolicy::default(),
            slot_inflight: 2,
            rebalance_threshold_ms: None,
            rebalance_interval: Duration::from_millis(100),
            slo: None,
            device_mem_capacity: None,
            device_mem_quota: None,
            max_queue_depth: None,
            max_slot_queue_depth: None,
            max_queue_age: None,
            breaker: None,
            brownout: None,
        }
    }
}

metric_set! {
    /// Crash-recovery statistics for the whole stack.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RecoveryStats;
    /// Registered into the telemetry registry as `recovery.*`. They live at
    /// stack level — not on the [`ApiServer`] — precisely because they must
    /// survive the servers they describe.
    struct RecoveryCounters {
        /// API servers respawned after a crash.
        respawns: Counter,
        /// Journaled calls re-executed to rebuild crashed servers.
        replayed_calls: Counter,
        /// Recoveries abandoned (respawn budget exhausted or the router is
        /// gone); the VM was marked unavailable.
        failed: Counter,
    }
}

/// Wraps a slot's handler so every dispatch is timed into the slot's
/// `pool.slot<N>.device_time_ms` gauge. The wrapper sits *inside* the
/// slot's shared mutex, so the measured interval is exactly the device
/// occupancy the mutex serializes.
struct TimedHandler {
    inner: Box<dyn ApiHandler>,
    device_time_ms: Gauge,
}

impl ApiHandler for TimedHandler {
    fn dispatch(
        &mut self,
        func: &FunctionDesc,
        args: &[Value],
    ) -> ava_server::Result<HandlerOutput> {
        let start = Instant::now();
        let out = self.inner.dispatch(func, args);
        self.device_time_ms.add(start.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn swappable_kinds(&self) -> &[&str] {
        self.inner.swappable_kinds()
    }

    fn snapshot_object(&mut self, kind: &str, silo: u64) -> Option<Vec<u8>> {
        self.inner.snapshot_object(kind, silo)
    }

    fn restore_object(&mut self, kind: &str, silo: u64, data: &[u8]) -> bool {
        self.inner.restore_object(kind, silo, data)
    }

    fn drop_object(&mut self, kind: &str, silo: u64) -> bool {
        self.inner.drop_object(kind, silo)
    }

    fn ret_indicates_oom(&self, func: &FunctionDesc, ret: &Value) -> bool {
        self.inner.ret_indicates_oom(func, ret)
    }
}

/// One shared device in the pool: the [`Home`] every server bound to this
/// slot executes against, plus load gauges. Its accountant is the memory
/// half of the slot's load.
struct PoolSlot {
    home: Home,
    device_time_ms: Gauge,
    vms: Gauge,
}

/// Load/occupancy snapshot of one pool slot (see [`ApiStack::pool_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolSlotStats {
    /// Wall-clock milliseconds of device time dispatched on this slot so
    /// far (time spent inside the slot's handler, under its mutex).
    pub device_time_ms: f64,
    /// VMs currently bound to this slot.
    pub vms: u32,
}

/// The shared-device pool: `pool_size` slots plus the VM→slot binding map.
struct PoolState {
    slots: Vec<PoolSlot>,
    placements: Mutex<HashMap<VmId, usize>>,
    rr_cursor: AtomicUsize,
}

impl PoolState {
    fn new<F>(size: usize, slot_factory: &F, mem_capacity: Option<u64>) -> Self
    where
        F: Fn(usize) -> Box<dyn ApiHandler> + ?Sized,
    {
        let slots = (0..size)
            .map(|i| {
                let device_time_ms = Gauge::new();
                let handler = shared_handler(Box::new(TimedHandler {
                    inner: slot_factory(i),
                    device_time_ms: device_time_ms.clone(),
                }));
                PoolSlot {
                    home: Home {
                        slot: Some(i),
                        handler,
                        memory: Arc::new(MemoryManager::new(mem_capacity)),
                    },
                    device_time_ms,
                    vms: Gauge::new(),
                }
            })
            .collect();
        PoolState {
            slots,
            placements: Mutex::new(HashMap::new()),
            rr_cursor: AtomicUsize::new(0),
        }
    }

    fn register(&self, registry: &Registry) {
        for (i, slot) in self.slots.iter().enumerate() {
            registry.register_gauge(
                &format!("pool.slot{i}.device_time_ms"),
                &slot.device_time_ms,
            );
            registry.register_gauge(&format!("pool.slot{i}.vms"), &slot.vms);
            slot.home.memory.register(registry, &format!("slot{i}"));
        }
    }

    /// Chooses the slot for a newly attached VM.
    fn place(&self, policy: PlacementPolicy, hypervisor: &Hypervisor) -> usize {
        match policy {
            PlacementPolicy::RoundRobin => {
                self.rr_cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len()
            }
            PlacementPolicy::Packed => {
                // Fill the most occupied slot first (ties: lowest index),
                // maximizing idle slots.
                (0..self.slots.len())
                    .max_by(|&a, &b| {
                        self.slots[a]
                            .vms
                            .get()
                            .partial_cmp(&self.slots[b].vms.get())
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(b.cmp(&a))
                    })
                    .unwrap_or(0)
            }
            PlacementPolicy::LeastLoaded => {
                // Estimated device time already routed to each slot's VMs
                // (from the router's per-VM accounting), weighted by the
                // slot's resident device memory: a slot whose working set
                // is near eviction pressure scores worse than its compute
                // queue alone suggests. With no memory tracked the factor
                // is 1 and the ordering degenerates to time-only. Ties
                // broken by fewest VMs, then lowest index.
                let placements = self.placements.lock();
                let mut load = vec![0.0f64; self.slots.len()];
                for (&vm, &slot) in placements.iter() {
                    if let Ok(stats) = hypervisor.vm_stats(vm) {
                        load[slot] += stats.est_device_time_us;
                    }
                }
                let score: Vec<f64> = load
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        let resident = self.slots[i].home.memory.resident_bytes() as f64;
                        (1.0 + t) * (1.0 + resident)
                    })
                    .collect();
                (0..self.slots.len())
                    .min_by(|&a, &b| {
                        score[a]
                            .partial_cmp(&score[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| {
                                self.slots[a]
                                    .vms
                                    .get()
                                    .partial_cmp(&self.slots[b].vms.get())
                                    .unwrap_or(std::cmp::Ordering::Equal)
                            })
                            .then(a.cmp(&b))
                    })
                    .unwrap_or(0)
            }
        }
    }

    fn slot_of(&self, vm: VmId) -> Option<usize> {
        self.placements.lock().get(&vm).copied()
    }

    /// The [`Home`] slot `slot` offers its VMs; `None` when out of range.
    fn home(&self, slot: usize) -> Option<Home> {
        self.slots.get(slot).map(|s| s.home.clone())
    }

    /// Moves a VM's binding to `to` (`None` takes it off the pool),
    /// keeping the placement map and the per-slot occupancy gauges in step.
    fn rebind(&self, vm: VmId, to: Option<usize>) {
        let mut placements = self.placements.lock();
        let from = match to {
            Some(slot) => placements.insert(vm, slot),
            None => placements.remove(&vm),
        };
        if let Some(slot) = from {
            self.slots[slot].vms.add(-1.0);
        }
        if let Some(slot) = to {
            self.slots[slot].vms.add(1.0);
        }
    }
}

/// Where a VM's server executes: the device handler it dispatches against
/// and the residency accountant it reports into. Pooled VMs share their
/// slot's pair (quota and capacity pressure see the device's true
/// footprint); private VMs own both.
#[derive(Clone)]
struct Home {
    /// The pool slot the pair belongs to; `None` for a private device.
    slot: Option<usize>,
    handler: SharedHandler,
    memory: Arc<MemoryManager>,
}

/// Per-VM host-side runtime: the serving thread plus shared server state.
struct VmRuntime {
    stop: Arc<AtomicBool>,
    /// Simulated-crash flag: when set, the serving thread exits abruptly —
    /// no backlog drain, in-flight frames abandoned — exactly as if the
    /// API-server process had died.
    crashed: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    server: Arc<Mutex<ApiServer>>,
    transport: Arc<dyn Transport>,
    /// Transfer-cache epoch; bumped on migration so both ends drop their
    /// payload caches (the restored server starts with an empty mirror).
    cache_epoch: u64,
    /// Every call this VM's server executed, in order. Owned here — not by
    /// the server — because it must survive the server it describes: after
    /// a crash, replaying it is the only way to rebuild device state.
    journal: Arc<StdMutex<CallJournal>>,
    /// Respawns consumed so far (against [`StackConfig::max_respawns`]).
    respawns: u32,
    /// The device and residency accountant this VM's server runs against.
    /// Owned here — like the journal — because relocation must rebuild the
    /// VM on (or roll it back onto) a home that outlives any one server.
    home: Home,
    /// Effective device-memory quota (policy override or stack default),
    /// re-applied to every server rebuilt for this VM.
    mem_quota: Option<u64>,
    /// Scheduling priority from the VM's policy, kept here so the
    /// supervisor's brownout stage 2 can pick the lowest-priority
    /// tenants to shed without a round-trip through the router.
    priority: u8,
}

impl VmRuntime {
    /// Stops the serving thread after it drains its delivered backlog.
    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Cut the serve loop's receive short rather than wait out its poll.
        self.transport.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn spawn(&mut self) {
        let stop = Arc::new(AtomicBool::new(false));
        let crashed = Arc::new(AtomicBool::new(false));
        self.stop = Arc::clone(&stop);
        self.crashed = Arc::clone(&crashed);
        let server = Arc::clone(&self.server);
        let transport = Arc::clone(&self.transport);
        self.thread = Some(
            std::thread::Builder::new()
                .name("ava-api-server".into())
                .spawn(move || serve_loop(&server, transport.as_ref(), &stop, &crashed))
                .expect("spawn API server thread"),
        );
    }
}

/// Serves one VM's calls until stop/shutdown (lock taken per message so
/// stats and migration can observe the server from other threads). On stop
/// the already-delivered backlog is drained first so migration never loses
/// in-flight calls; on a simulated crash the loop exits immediately,
/// abandoning the backlog, so recovery is exercised honestly.
fn serve_loop(
    server: &Mutex<ApiServer>,
    transport: &dyn Transport,
    stop: &AtomicBool,
    crashed: &AtomicBool,
) {
    loop {
        if crashed.load(Ordering::Acquire) {
            return;
        }
        if stop.load(Ordering::Acquire) {
            while let Ok(Some(msg)) = transport.try_recv() {
                if server.lock().serve_one(transport, msg).is_err() {
                    break;
                }
            }
            return;
        }
        match transport.recv_timeout(Duration::from_millis(2)) {
            Ok(Some(msg)) => {
                if server.lock().serve_one(transport, msg).is_err() {
                    return;
                }
            }
            Ok(None) => {}
            Err(_) => return,
        }
    }
}

/// Where [`StackCore::relocate`] reads the VM's state from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StateSource {
    /// A live server, moved on purpose: pause the lane, wait for
    /// quiescence, halt the server (draining its backlog), then take its
    /// `RecordLog` image plus buffer payloads ([`ApiServer::snapshot`]).
    Snapshot,
    /// A dead server: sever its channel, reap its thread, and re-execute
    /// the VM's call journal ([`ApiServer::replay_journal`]); the router
    /// gets a new router↔server channel.
    Journal,
}

/// Where [`StackCore::relocate`] rebuilds the VM's server.
enum Target {
    /// Pool slot `i`'s shared device and accountant.
    Slot(usize),
    /// A caller-supplied private device, with a new private accountant.
    /// A pooled VM leaves the pool.
    Private(Box<dyn ApiHandler>),
    /// Where the VM already lives: its slot's device if pooled, otherwise
    /// a fresh instance from the stack's factory (a private device dies
    /// with its server). The accountant is kept either way.
    Same,
}

/// A VM's state as captured from a [`StateSource`], ready to be rebuilt on
/// a [`Home`].
enum Captured {
    Image(MigrationImage),
    Journal(Vec<JournalEntry>),
}

/// How long a planned relocation waits for the paused lane to drain.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

/// The state [`ApiStack`] and its supervisor thread share: everything
/// needed to attach a VM, notice a dead API server, and relocate either.
struct StackCore {
    hypervisor: Hypervisor,
    descriptor: Arc<ApiDescriptor>,
    config: StackConfig,
    handler_factory: Box<dyn Fn(usize) -> Box<dyn ApiHandler> + Send + Sync>,
    vms: Mutex<HashMap<VmId, VmRuntime>>,
    telemetry: Mutex<Telemetry>,
    recovery: RecoveryCounters,
    pool: Option<PoolState>,
    /// SLO monitor, populated by `ApiStack::set_telemetry` (objectives
    /// need the registry to window over).
    slo: Mutex<Option<Arc<SloMonitor>>>,
}

impl StackCore {
    /// The supervisor thread: crash sweep every
    /// [`StackConfig::supervision_interval`], SLO/brownout/load watchdog
    /// every [`StackConfig::rebalance_interval`].
    fn run(&self, stop: &AtomicBool) {
        let mut last_check = Instant::now();
        let mut last_time: Vec<f64> = self
            .pool
            .as_ref()
            .map(|p| vec![0.0; p.slots.len()])
            .unwrap_or_default();
        let mut brownout_stage: u8 = 0;
        let mut brownout_shed: Vec<VmId> = Vec::new();
        while !stop.load(Ordering::Acquire) {
            std::thread::sleep(self.config.supervision_interval);
            self.sweep();
            if last_check.elapsed() >= self.config.rebalance_interval {
                last_check = Instant::now();
                // SLO windows close on the watchdog cadence: the monitor
                // diffs this scrape against the previous one, and the
                // violations feed straight into the rebalance decision.
                let monitor = self.slo.lock().clone();
                let violations = match &monitor {
                    Some(m) => {
                        let placements: Vec<(VmId, usize)> = self
                            .pool
                            .as_ref()
                            .map(|p| p.placements.lock().iter().map(|(&v, &s)| (v, s)).collect())
                            .unwrap_or_default();
                        m.evaluate(&placements)
                    }
                    None => Vec::new(),
                };
                if let Some(bw) = self.config.brownout {
                    self.drive_brownout(bw, &violations, &mut brownout_stage, &mut brownout_shed);
                }
                self.maybe_rebalance(&mut last_time, &violations);
            }
        }
    }

    /// Brownout state machine, evaluated on the watchdog cadence. The
    /// stage follows the worst SLO burn across subjects: `stage1_burn`
    /// consecutive violating windows collapse batching and halve the
    /// router's admission limits; `stage2_burn` additionally sheds the
    /// lowest-priority tenants. Any clean window unwinds fully — the
    /// router re-admits shed tenants and restores its limits.
    fn drive_brownout(
        &self,
        cfg: BrownoutConfig,
        violations: &[SloViolation],
        stage: &mut u8,
        shed: &mut Vec<VmId>,
    ) {
        let burn = violations.iter().map(|v| v.burn).max().unwrap_or(0);
        let want_stage: u8 = if burn >= cfg.stage2_burn {
            2
        } else if burn >= cfg.stage1_burn {
            1
        } else {
            0
        };
        let want_shed: Vec<VmId> = if want_stage >= 2 {
            let vms = self.vms.lock();
            let mut by_prio: Vec<(u8, VmId)> =
                vms.iter().map(|(&vm, rt)| (rt.priority, vm)).collect();
            drop(vms);
            by_prio.sort_unstable();
            by_prio
                .into_iter()
                .take(cfg.max_shed)
                .map(|(_, vm)| vm)
                .collect()
        } else {
            Vec::new()
        };
        if (want_stage != *stage || want_shed != *shed)
            && self
                .hypervisor
                .set_brownout(want_stage, want_shed.clone())
                .is_ok()
        {
            *stage = want_stage;
            *shed = want_shed;
        }
    }

    /// Load watchdog: compares per-slot device time consumed over the last
    /// interval and migrates one VM (lowest id) from the hottest slot to
    /// the coolest when the gap exceeds the threshold. A slot in SLO
    /// violation is treated as hot regardless of the raw device-time gap —
    /// service quality is the contract; device time is only its proxy.
    /// Only acts when the hot slot has at least two VMs — a lone hot VM
    /// gains nothing from moving to an idle device of equal speed.
    fn maybe_rebalance(&self, last: &mut [f64], violations: &[SloViolation]) {
        let Some(pool) = &self.pool else {
            return;
        };
        // Device time consumed over the window, weighted by resident
        // memory (1 + MiB resident): a slot under memory pressure is
        // hotter than its compute delta alone says, because every further
        // allocation there pays eviction/fault-in latency. With nothing
        // resident the weight is 1 and this is the raw device-time delta.
        let deltas: Vec<f64> = pool
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let cur = s.device_time_ms.get();
                let d = cur - last[i];
                last[i] = cur;
                let resident_mib = s.home.memory.resident_bytes() as f64 / (1u64 << 20) as f64;
                d * (1.0 + resident_mib)
            })
            .collect();
        let violating = violations.iter().find_map(|v| match v.subject {
            SloSubject::Slot(s) if s < deltas.len() => Some(s),
            _ => None,
        });
        let hot = match violating {
            Some(slot) => slot,
            None => {
                let Some(threshold) = self.config.rebalance_threshold_ms else {
                    return;
                };
                let Some(hot) = (0..deltas.len()).max_by(|&a, &b| {
                    deltas[a]
                        .partial_cmp(&deltas[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                }) else {
                    return;
                };
                let Some(cold) = (0..deltas.len()).min_by(|&a, &b| {
                    deltas[a]
                        .partial_cmp(&deltas[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                }) else {
                    return;
                };
                if hot == cold || deltas[hot] - deltas[cold] < threshold {
                    return;
                }
                hot
            }
        };
        let Some(cold) = (0..deltas.len()).filter(|&i| i != hot).min_by(|&a, &b| {
            deltas[a]
                .partial_cmp(&deltas[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        }) else {
            return;
        };
        let victim = {
            let placements = pool.placements.lock();
            if placements.values().filter(|&&s| s == hot).count() < 2 {
                return;
            }
            placements
                .iter()
                .filter(|&(_, &s)| s == hot)
                .map(|(&vm, _)| vm)
                .min()
        };
        if let Some(vm) = victim {
            let _ = self.relocate(vm, StateSource::Snapshot, Target::Slot(cold));
        }
    }

    /// Runs `f` on an attached VM's runtime.
    fn with_vm<T>(&self, vm: VmId, f: impl FnOnce(&VmRuntime) -> T) -> Result<T> {
        let vms = self.vms.lock();
        vms.get(&vm).map(f).ok_or(StackError::UnknownVm(vm))
    }

    /// One pass over every VM: a serving thread that exited without being
    /// asked to stop is a crashed server, and gets rebuilt in place from
    /// its journal.
    fn sweep(&self) {
        let crashed: Vec<VmId> = self
            .vms
            .lock()
            .iter()
            .filter(|(_, runtime)| {
                runtime.thread.as_ref().is_some_and(|t| t.is_finished())
                    && !runtime.stop.load(Ordering::Acquire)
            })
            .map(|(&vm, _)| vm)
            .collect();
        for vm in crashed {
            let _ = self.relocate(vm, StateSource::Journal, Target::Same);
        }
    }

    /// A private device: `handler` behind its own mutex, with its own
    /// residency accountant.
    fn private_home(&self, handler: Box<dyn ApiHandler>) -> Home {
        Home {
            slot: None,
            handler: shared_handler(handler),
            memory: Arc::new(MemoryManager::new(self.config.device_mem_capacity)),
        }
    }

    /// Builds and configures a VM's API server on `home` — the one place
    /// that decides what a server is wired with, for a first attach
    /// (`from` is `None`) and for every relocation alike. Fails only when
    /// an image cannot be replayed onto `home`'s device.
    fn build_server(
        &self,
        vm: VmId,
        home: &Home,
        mem_quota: Option<u64>,
        journal: &Arc<StdMutex<CallJournal>>,
        from: Option<&Captured>,
    ) -> Result<ApiServer> {
        let descriptor = Arc::clone(&self.descriptor);
        let handler = Arc::clone(&home.handler);
        let mut server = match from {
            Some(Captured::Image(image)) => ApiServer::restore_with(descriptor, handler, image)?,
            _ => ApiServer::with_shared(descriptor, handler),
        };
        let telemetry = self.telemetry.lock().with_vm(vm);
        server.set_telemetry(telemetry.clone());
        // The server's payload mirror must match the guest's transfer cache
        // exactly (same capacity, same eligibility floor) — the stack is
        // the single source of truth for both.
        server.set_payload_cache(
            self.config.guest.payload_cache_entries,
            self.config.guest.payload_cache_min_bytes,
        );
        // Pooled accountants are registered per slot (`mem.slot<N>.*`) by
        // `PoolState::register`; a private one takes over the VM's own
        // scope whenever it is installed.
        if let (None, Some(registry)) = (home.slot, telemetry.registry()) {
            home.memory.register(registry, &format!("vm{vm}"));
        }
        // A restored server re-registers every surviving buffer (and
        // re-parks still-swapped ones) with the accountant here; the quota
        // travels with the VM.
        server.set_memory(Arc::clone(&home.memory), vm);
        server.set_mem_quota(mem_quota);
        if let Some(Captured::Journal(entries)) = from {
            // Replay runs with accountant and quota already attached, so
            // residency — and every quota verdict — is rematerialized
            // exactly as the original execution produced it.
            let replayed = server.replay_journal(entries);
            self.recovery.replayed_calls.add(replayed);
            telemetry.event(Tier::Supervisor, EventKind::JournalReplay, 0, replayed);
        }
        // Attached only now, so replayed calls are not journaled a second
        // time. The journal keeps accumulating across relocations: a later
        // crash still replays the full execution and re-mints the same
        // wire handles.
        server.set_journal(Arc::clone(journal));
        Ok(server)
    }

    /// Gives up on a VM: guests fail fast with `Unavailable` instead of
    /// hanging on a lane nobody serves.
    fn abandon(&self, vm: VmId) {
        self.recovery.failed.inc();
        let _ = self.hypervisor.mark_unavailable(vm);
    }

    /// The one relocation path (§4.3): stop the VM's server, capture its
    /// state from `source`, free what it held on the source device, rebuild
    /// it on `target`, re-point the router lane. The guest's transport and
    /// wire handles survive unchanged. Returns the migration image a
    /// [`StateSource::Snapshot`] took.
    ///
    /// A planned move never strands the VM: the lane it paused is resumed
    /// on every exit path, and a target that cannot take the image gets
    /// the VM rolled back onto its source (see [`StackCore::rehome`]).
    fn relocate(
        &self,
        vm: VmId,
        source: StateSource,
        target: Target,
    ) -> Result<Option<MigrationImage>> {
        let dest = match target {
            Target::Slot(slot) => {
                let pool = self.pool.as_ref().ok_or(StackError::NotPooled)?;
                Some(pool.home(slot).ok_or(StackError::UnknownSlot(slot))?)
            }
            Target::Private(handler) => Some(self.private_home(handler)),
            Target::Same => None,
        };
        self.with_vm(vm, |_| ())?;
        if source == StateSource::Journal {
            return self.rehome(vm, source, dest);
        }
        self.hypervisor.pause_vm(vm)?;
        let moved = self
            .hypervisor
            .wait_quiescent(vm, QUIESCE_TIMEOUT)
            .map_err(StackError::from)
            .and_then(|()| self.rehome(vm, source, dest));
        let resumed = self.hypervisor.resume_vm(vm);
        let image = moved?;
        resumed?;
        Ok(image)
    }

    /// The body of [`StackCore::relocate`], run with the lane paused and
    /// drained (planned) or its server dead (crash). `dest` is the resolved
    /// target; `None` rebuilds in place.
    fn rehome(
        &self,
        vm: VmId,
        source: StateSource,
        dest: Option<Home>,
    ) -> Result<Option<MigrationImage>> {
        let mut vms = self.vms.lock();
        let runtime = vms.get_mut(&vm).ok_or(StackError::UnknownVm(vm))?;
        let telemetry = self.telemetry.lock().with_vm(vm);

        let captured = match source {
            StateSource::Snapshot => {
                runtime.halt();
                let mut server = runtime.server.lock();
                let image = server.snapshot();
                // Frees this VM's objects on the source device (slot-mates
                // hold their own handle tables) and its residency
                // registrations — before the restore, because a "fresh"
                // target may sit on the same physical device and must not
                // hold the VM's footprint twice.
                server.teardown();
                Captured::Image(image)
            }
            StateSource::Journal => {
                // Sever the old channel first: the router parks the lane
                // and requeues in-flight calls instead of writing into a
                // channel nobody will ever read again.
                runtime.transport.close();
                if let Some(t) = runtime.thread.take() {
                    let _ = t.join();
                }
                telemetry.event(Tier::Supervisor, EventKind::ServerCrash, 0, 0);
                if runtime.respawns >= self.config.max_respawns {
                    self.abandon(vm);
                    return Err(StackError::Unavailable(vm));
                }
                runtime.respawns += 1;
                // The dead server's residency registrations describe state
                // that died with it (on a pool its orphaned device objects
                // linger until slot teardown — the price of sharing).
                runtime.home.memory.free_all(vm);
                let journal = runtime
                    .journal
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                Captured::Journal(journal.entries().to_vec())
            }
        };

        let dest = dest.unwrap_or_else(|| {
            let mut home = runtime.home.clone();
            if home.slot.is_none() {
                home.handler = shared_handler((self.handler_factory)(0));
            }
            home
        });
        let build = |home| {
            self.build_server(
                vm,
                home,
                runtime.mem_quota,
                &runtime.journal,
                Some(&captured),
            )
        };
        let (home, server, outcome) = match build(&dest) {
            Ok(server) => (dest, server, Ok(())),
            // The target could not take the VM, but its state is still in
            // hand and the source device has room for it again: put it
            // back, and hand the caller the error plus a VM that works.
            Err(e) => match build(&runtime.home) {
                Ok(server) => (runtime.home.clone(), server, Err(e)),
                Err(_) => {
                    self.abandon(vm);
                    return Err(e);
                }
            },
        };

        if source == StateSource::Journal {
            let transport = self
                .hypervisor
                .reattach_server(vm)
                .inspect_err(|_| self.abandon(vm))?;
            if let Some(registry) = telemetry.registry() {
                transport.register_telemetry(registry, &format!("vm{vm}.server"));
            }
            runtime.transport = Arc::from(transport);
        }
        runtime.server = Arc::new(Mutex::new(server));
        // The rebuilt server's payload mirror is empty; a new epoch makes
        // the guest drop its digest cache instead of eating a NACK per
        // payload. (The NACK/resend path would heal it regardless — replay
        // only ever sees bytes materialized before recording.)
        runtime.cache_epoch += 1;
        let _ = runtime
            .transport
            .send(&Message::Control(ControlMessage::CacheEpoch(
                runtime.cache_epoch,
            )));
        if source == StateSource::Journal {
            telemetry.event(
                Tier::Supervisor,
                EventKind::ServerRespawn,
                0,
                u64::from(runtime.respawns),
            );
            // Counted only now — replay counters settled, server not yet
            // serving — so an observer woken by `recovery.respawns` reads
            // final numbers.
            self.recovery.respawns.inc();
        }
        runtime.spawn();

        let (from, to) = (runtime.home.slot, home.slot);
        runtime.home = home;
        if from != to {
            // The VM's objects now live on another device: the router must
            // charge its calls there (or to no slot at all).
            self.hypervisor.set_vm_slot(vm, to)?;
            if let Some(pool) = &self.pool {
                pool.rebind(vm, to);
            }
            if let (Some(src), Some(dst)) = (from, to) {
                telemetry.event(Tier::Pool, EventKind::Rebalance, 0, pack_slots(src, dst));
            }
        }
        outcome.map(|()| match captured {
            Captured::Image(image) => Some(image),
            Captured::Journal(_) => None,
        })
    }
}

/// An assembled AvA stack for one API.
pub struct ApiStack {
    core: Arc<StackCore>,
    supervisor_stop: Arc<AtomicBool>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl ApiStack {
    /// Builds a stack for `descriptor`; `handler_factory` produces one
    /// fresh API handler per attached VM (and per crash recovery) when the
    /// stack has no pool, or one per pool slot when it does.
    pub fn new<F>(descriptor: Arc<ApiDescriptor>, handler_factory: F, config: StackConfig) -> Self
    where
        F: Fn() -> Box<dyn ApiHandler> + Send + Sync + 'static,
    {
        ApiStack::new_indexed(descriptor, move |_| handler_factory(), config)
    }

    /// Like [`ApiStack::new`], but the factory receives the pool-slot
    /// index it is building a device for — the constructor for pools of
    /// *distinct* physical devices (`pool_size` slots are built eagerly,
    /// indices `0..pool_size`). With `pool_size = 0` the index is always 0.
    pub fn new_indexed<F>(
        descriptor: Arc<ApiDescriptor>,
        handler_factory: F,
        config: StackConfig,
    ) -> Self
    where
        F: Fn(usize) -> Box<dyn ApiHandler> + Send + Sync + 'static,
    {
        let hypervisor = Hypervisor::with_config(RouterConfig {
            scheduler: config.scheduler,
            descriptor: Some(Arc::clone(&descriptor)),
            slot_inflight: config.slot_inflight,
            max_queue_depth: config.max_queue_depth,
            max_slot_queue_depth: config.max_slot_queue_depth,
            max_queue_age: config.max_queue_age,
            breaker: config.breaker,
            ..RouterConfig::default()
        });
        let pool = (config.pool_size > 0).then(|| {
            PoolState::new(
                config.pool_size,
                &handler_factory,
                config.device_mem_capacity,
            )
        });
        let core = Arc::new(StackCore {
            hypervisor,
            descriptor,
            config,
            handler_factory: Box::new(handler_factory),
            vms: Mutex::new(HashMap::new()),
            telemetry: Mutex::new(Telemetry::disabled()),
            recovery: RecoveryCounters::default(),
            pool,
            slo: Mutex::new(None),
        });
        let supervisor_stop = Arc::new(AtomicBool::new(false));
        let (supervised, stop) = (Arc::clone(&core), Arc::clone(&supervisor_stop));
        let supervisor = std::thread::Builder::new()
            .name("ava-supervisor".into())
            .spawn(move || supervised.run(&stop))
            .expect("spawn supervisor thread");
        ApiStack {
            core,
            supervisor_stop,
            supervisor: Some(supervisor),
        }
    }

    /// Attaches a unified telemetry registry to every tier: router counters
    /// and span stamps, stack-level `recovery.*` counters, plus
    /// guest/server/transport instrumentation for each VM attached from now
    /// on. Call before [`ApiStack::attach_vm`].
    pub fn set_telemetry(&self, registry: Registry) -> Result<()> {
        self.core.recovery.register(&registry, "recovery");
        if let Some(pool) = &self.core.pool {
            pool.register(&registry);
        }
        // SLO objectives window over the registry, so the monitor can only
        // come alive once one is attached.
        if let Some(slo_config) = self.core.config.slo.filter(SloConfig::any_enabled) {
            *self.core.slo.lock() = Some(Arc::new(SloMonitor::new(registry.clone(), slo_config)));
        }
        let telemetry = Telemetry::new(registry);
        *self.core.telemetry.lock() = telemetry.clone();
        self.core.hypervisor.set_telemetry(telemetry)?;
        Ok(())
    }

    /// The latest SLO-evaluation window's violations; empty when no SLO is
    /// configured, telemetry is not attached, or every objective is met.
    /// The rebalance watchdog consults the same list before migrating.
    pub fn slo_violations(&self) -> Vec<SloViolation> {
        self.core
            .slo
            .lock()
            .as_ref()
            .map(|m| m.violations())
            .unwrap_or_default()
    }

    /// Renders the attached registry as a text report; `None` when
    /// telemetry was never attached.
    pub fn telemetry_report(&self) -> Option<String> {
        self.core.telemetry.lock().report()
    }

    /// Renders the attached registry as Chrome-trace / Perfetto JSON;
    /// `None` when telemetry was never attached.
    pub fn export_trace(&self) -> Option<String> {
        self.core.telemetry.lock().export_trace()
    }

    /// Renders the attached registry as Prometheus text exposition;
    /// `None` when telemetry was never attached.
    pub fn export_prometheus(&self) -> Option<String> {
        self.core.telemetry.lock().export_prometheus()
    }

    /// The API descriptor this stack serves.
    pub fn descriptor(&self) -> &Arc<ApiDescriptor> {
        &self.core.descriptor
    }

    /// The hypervisor (for pause/resume/stats).
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.core.hypervisor
    }

    /// The configuration this stack was built with.
    pub fn config(&self) -> &StackConfig {
        &self.core.config
    }

    /// Ids of every currently attached VM, ascending. The daemon-facing
    /// listing primitive: control planes enumerate their tenants' VMs
    /// through this instead of tracking attach/detach themselves.
    pub fn vm_ids(&self) -> Vec<VmId> {
        let mut ids: Vec<VmId> = self.core.vms.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Boots a VM: attaches it to the router, starts its API server, and
    /// returns the guest library its applications link against.
    pub fn attach_vm(&self, policy: VmPolicy) -> Result<(VmId, Arc<GuestLibrary>)> {
        self.attach_vm_with_faults(policy, None, None)
    }

    /// Like [`ApiStack::attach_vm`], but with deterministic fault injection
    /// on the guest↔hypervisor channel (chaos testing): `guest_tx_plan`
    /// faults the frames the guest sends (calls), `guest_rx_plan` the
    /// frames it receives (replies). Each direction draws from its own
    /// seeded schedule, so a chaos run is reproducible from the seeds.
    pub fn attach_vm_with_faults(
        &self,
        policy: VmPolicy,
        guest_tx_plan: Option<FaultPlan>,
        guest_rx_plan: Option<FaultPlan>,
    ) -> Result<(VmId, Arc<GuestLibrary>)> {
        let core = &self.core;
        // Pooled stacks bind the VM to a slot chosen by the placement
        // policy: its server executes against that slot's shared handler
        // and accountant, and the router accounts the lane against the
        // slot's in-flight budget. Private stacks keep a fresh device per
        // VM, as ever.
        let home = match &core.pool {
            Some(pool) => {
                let slot = pool.place(core.config.placement, &core.hypervisor);
                pool.home(slot).expect("placement picks an existing slot")
            }
            None => core.private_home((core.handler_factory)(0)),
        };
        // Per-VM policy quota beats the stack default.
        let mem_quota = policy.device_mem_quota.or(core.config.device_mem_quota);
        let priority = policy.priority;
        let conn = core.hypervisor.add_vm_full(
            policy,
            core.config.transport,
            core.config.cost_model,
            home.slot,
            guest_tx_plan,
            guest_rx_plan,
        )?;
        let vm = conn.vm_id;
        let telemetry = core.telemetry.lock().with_vm(vm);
        if let Some(registry) = telemetry.registry() {
            conn.guest
                .register_telemetry(registry, &format!("vm{vm}.guest"));
            conn.server
                .register_telemetry(registry, &format!("vm{vm}.server"));
        }
        let journal = Arc::new(StdMutex::new(CallJournal::new()));
        let server = core.build_server(vm, &home, mem_quota, &journal, None)?;
        let slot = home.slot;
        let mut runtime = VmRuntime {
            stop: Arc::new(AtomicBool::new(true)),
            crashed: Arc::new(AtomicBool::new(false)),
            thread: None,
            server: Arc::new(Mutex::new(server)),
            transport: Arc::from(conn.server),
            cache_epoch: 0,
            journal,
            respawns: 0,
            home,
            mem_quota,
            priority,
        };
        runtime.spawn();
        core.vms.lock().insert(vm, runtime);
        if let (Some(pool), Some(slot)) = (&core.pool, slot) {
            pool.rebind(vm, Some(slot));
            telemetry.event(Tier::Pool, EventKind::Placement, 0, slot as u64);
        }
        let mut lib =
            GuestLibrary::new(Arc::clone(&core.descriptor), conn.guest, core.config.guest);
        lib.attach_telemetry(telemetry);
        Ok((vm, Arc::new(lib)))
    }

    /// The pool slot a VM is bound to; `None` for private-device stacks
    /// (or unknown VMs).
    pub fn vm_slot(&self, vm: VmId) -> Option<usize> {
        self.core.pool.as_ref().and_then(|p| p.slot_of(vm))
    }

    /// Per-slot load statistics; empty for private-device stacks.
    pub fn pool_stats(&self) -> Vec<PoolSlotStats> {
        self.core
            .pool
            .as_ref()
            .map(|pool| {
                pool.slots
                    .iter()
                    .map(|s| PoolSlotStats {
                        device_time_ms: s.device_time_ms.get(),
                        vms: s.vms.get().max(0.0) as u32,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Live-migrates a VM to pool slot `dst` (§4.3 applied to load
    /// rebalancing): snapshot relocation onto the destination slot's
    /// shared device. A no-op when the VM is already on `dst`. Fails with
    /// [`StackError::NotPooled`] on private stacks.
    pub fn rebalance_vm(&self, vm: VmId, dst: usize) -> Result<()> {
        if self.vm_slot(vm) == Some(dst) {
            return Ok(());
        }
        self.core
            .relocate(vm, StateSource::Snapshot, Target::Slot(dst))?;
        Ok(())
    }

    /// Router-side statistics for a VM.
    pub fn vm_router_stats(&self, vm: VmId) -> Result<VmStats> {
        Ok(self.core.hypervisor.vm_stats(vm)?)
    }

    /// Forces a brownout stage on the router (stage 0 exits). Traffic
    /// from `shed` VMs is refused with `Overloaded` while the stage
    /// holds. The supervisor drives this automatically when
    /// [`StackConfig::brownout`] is set; this hook exists for tests,
    /// benches, and operator overrides.
    pub fn set_brownout(&self, stage: u8, shed: Vec<VmId>) -> Result<()> {
        Ok(self.core.hypervisor.set_brownout(stage, shed)?)
    }

    /// Server-side statistics for a VM.
    pub fn vm_server_stats(&self, vm: VmId) -> Result<ServerStats> {
        self.core
            .with_vm(vm, |runtime| runtime.server.lock().stats())
    }

    /// Estimated live device memory held by a VM's server.
    pub fn vm_live_device_mem(&self, vm: VmId) -> Result<u64> {
        self.core
            .with_vm(vm, |runtime| runtime.server.lock().live_device_mem())
    }

    /// Residency/swap statistics from the memory manager a VM reports
    /// into. For pooled VMs this is the *slot's* accountant, so the totals
    /// cover every VM sharing that device; [`ApiStack::vm_owned_device_mem`]
    /// gives the single-VM footprint.
    pub fn vm_memory_stats(&self, vm: VmId) -> Result<MemoryStats> {
        self.core.with_vm(vm, |runtime| runtime.home.memory.stats())
    }

    /// Bytes of device memory a VM currently *owns* (resident + swapped) —
    /// the footprint its quota is enforced against.
    pub fn vm_owned_device_mem(&self, vm: VmId) -> Result<u64> {
        self.core
            .with_vm(vm, |runtime| runtime.home.memory.vm_bytes(vm))
    }

    /// Per-slot residency/swap statistics; empty for private-device stacks.
    pub fn pool_memory_stats(&self) -> Vec<MemoryStats> {
        self.core
            .pool
            .as_ref()
            .map(|pool| pool.slots.iter().map(|s| s.home.memory.stats()).collect())
            .unwrap_or_default()
    }

    /// Detaches a VM: stops its server and frees every device object the
    /// guest left behind — on a pool the device outlives the VM, so nobody
    /// else ever could.
    pub fn detach_vm(&self, vm: VmId) -> Result<()> {
        let mut vms = self.core.vms.lock();
        let mut runtime = vms.remove(&vm).ok_or(StackError::UnknownVm(vm))?;
        runtime.halt();
        // Also releases the VM's residency accounting (and any host-store
        // swap payloads it still owned) from its device's accountant.
        runtime.server.lock().teardown();
        self.core.hypervisor.remove_vm(vm)?;
        if let Some(pool) = &self.core.pool {
            pool.rebind(vm, None);
        }
        Ok(())
    }

    /// Migrates a VM's API state to a new host backend (§4.3): snapshot
    /// relocation onto `target_handler`'s private device. A pooled VM
    /// leaves the pool. Returns the image that was moved. On failure the
    /// VM keeps running on its source device.
    pub fn migrate_vm<F>(&self, vm: VmId, target_handler: F) -> Result<MigrationImage>
    where
        F: FnOnce() -> Box<dyn ApiHandler>,
    {
        let target = Target::Private(target_handler());
        let image = self.core.relocate(vm, StateSource::Snapshot, target)?;
        Ok(image.expect("a snapshot relocation returns its image"))
    }

    /// Live-migrates a VM onto a fresh device instance built by the
    /// stack's own handler factory — the control-plane form of
    /// [`ApiStack::migrate_vm`], for callers (like the `avad` daemon) that
    /// cannot supply a handler closure over the wire. Pooled VMs leave
    /// the pool, exactly as with an explicit target handler.
    pub fn migrate_vm_fresh(&self, vm: VmId) -> Result<()> {
        self.migrate_vm(vm, || (self.core.handler_factory)(0))?;
        Ok(())
    }

    /// Wipes a VM's server-side payload cache while leaving the guest's
    /// digest cache untouched — a deliberate desync. Test hook for
    /// exercising the `CacheMiss` NACK/resend convergence path end-to-end.
    pub fn desync_vm_payload_cache(&self, vm: VmId) -> Result<()> {
        self.core
            .with_vm(vm, |runtime| runtime.server.lock().clear_payload_cache())
    }

    /// Kills a VM's API server mid-flight, abandoning all server state —
    /// the crash the supervisor exists to heal. Test hook for recovery
    /// paths: the serving thread exits without draining, frames in flight
    /// on the severed channel are lost, and the supervisor rebuilds the
    /// server by journal replay.
    pub fn crash_vm_server(&self, vm: VmId) -> Result<()> {
        self.core.with_vm(vm, |runtime| {
            runtime.crashed.store(true, Ordering::Release);
            runtime.transport.close();
        })
    }

    /// Crash-recovery statistics (respawns, replayed calls, abandoned
    /// recoveries) for the whole stack.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.core.recovery.snapshot()
    }

    /// A snapshot of a VM's execution journal. Its call ids being unique
    /// ([`CallJournal::call_ids_unique`]) is the at-most-once guarantee
    /// made observable: no call ever executed device-side twice, however
    /// many duplicate frames the transport delivered.
    pub fn vm_journal(&self, vm: VmId) -> Result<CallJournal> {
        self.core.with_vm(vm, |runtime| {
            let journal = runtime
                .journal
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            journal.clone()
        })
    }
}

impl Drop for ApiStack {
    fn drop(&mut self) {
        self.supervisor_stop.store(true, Ordering::Release);
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
        for (_, runtime) in self.core.vms.lock().iter_mut() {
            runtime.halt();
        }
    }
}
