//! Placement and supervision: the device pool a stack's VMs are bound
//! to, and the supervisor thread that recovers crashed API servers and
//! runs the SLO, brownout and load watchdog.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use ava_hypervisor::{Hypervisor, PlacementPolicy};
use ava_server::{shared_handler, ApiHandler, HandlerOutput, MemoryManager, SharedHandler};
use ava_spec::FunctionDesc;
use ava_telemetry::{Gauge, Registry, SloSubject, SloViolation};
use ava_wire::{Value, VmId};
use parking_lot::Mutex;

use super::lifecycle::{Stop, Target};
use super::{BrownoutConfig, StackCore};

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
}

/// One shared device in the pool: the [`Home`] every server bound to this
/// slot executes against, plus load gauges. Its accountant is the memory
/// half of the slot's load.
pub(super) struct PoolSlot {
    pub(super) home: Home,
    pub(super) device_time_ms: Gauge,
    pub(super) vms: Gauge,
}

/// The shared-device pool: `pool_size` slots plus the VM→slot binding map.
pub(super) struct PoolState {
    pub(super) slots: Vec<PoolSlot>,
    pub(super) placements: Mutex<HashMap<VmId, usize>>,
    rr_cursor: AtomicUsize,
}

impl PoolState {
    pub(super) fn new<F>(size: usize, slot_factory: &F, mem_capacity: Option<u64>) -> Self
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

    pub(super) fn register(&self, registry: &Registry) {
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
    pub(super) fn place(&self, policy: PlacementPolicy, hypervisor: &Hypervisor) -> usize {
        match policy {
            PlacementPolicy::RoundRobin => {
                self.rr_cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len()
            }
            PlacementPolicy::Packed => {
                // Fill the most occupied slot first (ties: lowest index),
                // maximizing idle slots.
                (0..self.slots.len())
                    .max_by(|&a, &b| self.by_vms(a, b).then(b.cmp(&a)))
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
                            .total_cmp(&score[b])
                            .then_with(|| self.by_vms(a, b))
                            .then(a.cmp(&b))
                    })
                    .unwrap_or(0)
            }
        }
    }

    /// Orders slots `a` and `b` by how many VMs each holds.
    fn by_vms(&self, a: usize, b: usize) -> std::cmp::Ordering {
        self.slots[a].vms.get().total_cmp(&self.slots[b].vms.get())
    }

    pub(super) fn slot_of(&self, vm: VmId) -> Option<usize> {
        self.placements.lock().get(&vm).copied()
    }

    /// The [`Home`] slot `slot` offers its VMs; `None` when out of range.
    pub(super) fn home(&self, slot: usize) -> Option<Home> {
        self.slots.get(slot).map(|s| s.home.clone())
    }

    /// Moves a VM's binding to `to` (`None` takes it off the pool),
    /// keeping the placement map and the per-slot occupancy gauges in step.
    pub(super) fn rebind(&self, vm: VmId, to: Option<usize>) {
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
pub(super) struct Home {
    /// The pool slot the pair belongs to; `None` for a private device.
    pub(super) slot: Option<usize>,
    pub(super) handler: SharedHandler,
    pub(super) memory: Arc<MemoryManager>,
}

/// What wakes the supervisor before its next watchdog tick.
pub(super) enum Wake {
    /// A serve thread returned without being asked to stop.
    Exited(VmId, ThreadId),
    /// The stack is being dropped.
    Stop,
}

impl StackCore {
    /// The supervisor thread: rebuilds a crashed server as soon as its
    /// serve thread reports the exit, and runs the SLO/brownout/load
    /// watchdog every `StackConfig::rebalance_interval`.
    pub(super) fn run(&self, wakes: &Receiver<Wake>) {
        let interval = self.config.rebalance_interval;
        let mut next_tick = Instant::now() + interval;
        let mut last_time: Vec<f64> = self
            .pool
            .as_ref()
            .map(|p| vec![0.0; p.slots.len()])
            .unwrap_or_default();
        let mut brownout_stage: u8 = 0;
        let mut brownout_shed: Vec<VmId> = Vec::new();
        loop {
            match wakes.recv_timeout(next_tick.saturating_duration_since(Instant::now())) {
                Ok(Wake::Exited(vm, thread)) => self.recover_if_crashed(vm, thread),
                Ok(Wake::Stop) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    next_tick = Instant::now() + interval;
                    // SLO windows close on the watchdog cadence: the
                    // monitor diffs this scrape against the previous one,
                    // and the violations feed straight into the rebalance
                    // decision.
                    let monitor = self.slo.lock().clone();
                    let violations = match &monitor {
                        Some(m) => {
                            let placements: Vec<(VmId, usize)> = self
                                .pool
                                .as_ref()
                                .map(|p| {
                                    p.placements.lock().iter().map(|(&v, &s)| (v, s)).collect()
                                })
                                .unwrap_or_default();
                            m.evaluate(&placements)
                        }
                        None => Vec::new(),
                    };
                    if let Some(bw) = self.config.brownout {
                        self.drive_brownout(
                            bw,
                            &violations,
                            &mut brownout_stage,
                            &mut brownout_shed,
                        );
                    }
                    self.maybe_rebalance(&mut last_time, &violations);
                }
            }
        }
    }

    /// A serve thread returned on its own. If it is still the VM's serve
    /// thread and nobody asked it to stop, the server crashed and is
    /// rebuilt in place. (The thread identity, not `is_finished`, is the
    /// test: the notifying thread may not have finished yet, and a VM
    /// relocated since the exit already runs a newer thread.)
    fn recover_if_crashed(&self, vm: VmId, thread: ThreadId) {
        let crashed = self
            .with_vm(vm, |runtime| {
                runtime
                    .thread
                    .as_ref()
                    .is_some_and(|t| t.thread().id() == thread)
                    && !runtime.stop.load(Ordering::Acquire)
            })
            .unwrap_or(false);
        if crashed {
            let _ = self.relocate(vm, Stop::Crashed, Target::Same);
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
        let by_delta = |&a: &usize, &b: &usize| deltas[a].total_cmp(&deltas[b]);
        let slots = 0..deltas.len();
        let hot = match violating {
            Some(slot) => slot,
            None => {
                let Some(threshold) = self.config.rebalance_threshold_ms else {
                    return;
                };
                let (Some(hot), Some(cold)) = (
                    slots.clone().max_by(by_delta),
                    slots.clone().min_by(by_delta),
                ) else {
                    return;
                };
                if hot == cold || deltas[hot] - deltas[cold] < threshold {
                    return;
                }
                hot
            }
        };
        let Some(cold) = slots.filter(|&i| i != hot).min_by(by_delta) else {
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
            let _ = self.relocate(vm, Stop::Planned, Target::Slot(cold));
        }
    }
}
