//! The assembled AvA stack: hypervisor + router + per-VM guest libraries
//! and API servers, wired over a chosen transport.
//!
//! [`ApiStack`] is API-agnostic: it is parameterized by a descriptor and a
//! handler factory (one fresh handler per VM, preserving the paper's
//! process-level isolation between guests). The OpenCL and MVNC
//! convenience constructors live in the crate root.
//!
//! Two modules hold the machinery: `lifecycle` builds, serves and
//! relocates each VM's API server; `supervisor` owns the device pool and
//! the thread that recovers crashed servers and watches load.

#![warn(clippy::too_many_lines)]

mod lifecycle;
mod supervisor;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use ava_guest::{GuestConfig, GuestLibrary};
use ava_hypervisor::{
    BreakerConfig, Hypervisor, HypervisorError, PlacementPolicy, RouterConfig, SchedulerKind,
    VmPolicy, VmStats,
};
use ava_server::{ApiHandler, CallJournal, MemoryStats, MigrationImage, ServerStats};
use ava_spec::ApiDescriptor;
use ava_telemetry::{
    metric_set, EventKind, MetricSet, Registry, SloConfig, SloMonitor, SloViolation, Telemetry,
    Tier,
};
use ava_transport::{CostModel, FaultPlan, TransportError, TransportKind};
use ava_wire::VmId;
use parking_lot::Mutex;

use lifecycle::{lock, Stop, Target, VmRuntime};
use supervisor::{PoolState, Wake};

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
    /// stack level — not on the [`ava_server::ApiServer`] — precisely
    /// because they must survive the servers they describe.
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

/// Load/occupancy snapshot of one pool slot (see [`ApiStack::pool_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolSlotStats {
    /// Wall-clock milliseconds of device time dispatched on this slot so
    /// far (time spent inside the slot's handler, under its mutex).
    pub device_time_ms: f64,
    /// VMs currently bound to this slot.
    pub vms: u32,
}

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
    /// Wakes the supervisor thread: serve threads report unrequested
    /// exits here, and dropping the stack stops it.
    wakes: Sender<Wake>,
}

impl StackCore {
    /// Runs `f` on an attached VM's runtime.
    fn with_vm<T>(&self, vm: VmId, f: impl FnOnce(&VmRuntime) -> T) -> Result<T> {
        let vms = self.vms.lock();
        vms.get(&vm).map(f).ok_or(StackError::UnknownVm(vm))
    }
}

/// An assembled AvA stack for one API.
pub struct ApiStack {
    core: Arc<StackCore>,
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
        });
        let pool = (config.pool_size > 0).then(|| {
            PoolState::new(
                config.pool_size,
                &handler_factory,
                config.device_mem_capacity,
            )
        });
        let (wakes, woken) = mpsc::channel();
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
            wakes,
        });
        let supervised = Arc::clone(&core);
        let supervisor = std::thread::Builder::new()
            .name("ava-supervisor".into())
            .spawn(move || supervised.run(&woken))
            .expect("spawn supervisor thread");
        ApiStack {
            core,
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
        let server = core.build_server(vm, &home, mem_quota, &journal)?;
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
        runtime.spawn(vm, &core.wakes);
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
        self.core.relocate(vm, Stop::Planned, Target::Slot(dst))
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
    /// leaves the pool. Returns the image that was moved (a copy of the
    /// journal's new base). On failure the VM keeps running on its source
    /// device.
    pub fn migrate_vm<F>(&self, vm: VmId, target_handler: F) -> Result<MigrationImage>
    where
        F: FnOnce() -> Box<dyn ApiHandler>,
    {
        self.core
            .relocate(vm, Stop::Planned, Target::Private(target_handler()))?;
        self.core
            .with_vm(vm, |runtime| lock(&runtime.journal).base().clone())
    }

    /// Live-migrates a VM onto a fresh device instance built by the
    /// stack's own handler factory — the control-plane form of
    /// [`ApiStack::migrate_vm`], for callers (like the `avad` daemon) that
    /// cannot supply a handler closure over the wire. Pooled VMs leave
    /// the pool, exactly as with an explicit target handler.
    pub fn migrate_vm_fresh(&self, vm: VmId) -> Result<()> {
        let target = Target::Private((self.core.handler_factory)(0));
        self.core.relocate(vm, Stop::Planned, target)
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
    /// server from the journal (restore its base, replay its suffix).
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

    /// A snapshot of a VM's journal: the base its last planned move took,
    /// plus every call executed since. Its call ids being unique
    /// ([`CallJournal::call_ids_unique`]) is the at-most-once guarantee
    /// made observable: no call ever executed device-side twice, however
    /// many duplicate frames the transport delivered.
    pub fn vm_journal(&self, vm: VmId) -> Result<CallJournal> {
        self.core
            .with_vm(vm, |runtime| lock(&runtime.journal).clone())
    }
}

impl Drop for ApiStack {
    fn drop(&mut self) {
        let _ = self.core.wakes.send(Wake::Stop);
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
        for (_, runtime) in self.core.vms.lock().iter_mut() {
            runtime.halt();
        }
    }
}
