//! The VM lifecycle: the serving thread of each VM's API server, and the
//! one way a server is built — restore the journal's base, replay its
//! suffix — whether for a first attach, a planned move, a rollback onto
//! the source, or a crash respawn.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex as StdMutex, MutexGuard, PoisonError};
use std::time::Duration;

use ava_server::{serve_with, shared_handler, ApiHandler, ApiServer, CallJournal, MemoryManager};
use ava_telemetry::{pack_slots, EventKind, Telemetry, Tier};
use ava_transport::Transport;
use ava_wire::{ControlMessage, Message, VmId};
use parking_lot::Mutex;

use super::supervisor::{Home, Wake};
use super::{Result, StackCore, StackError};

/// Per-VM host-side runtime: the serving thread plus shared server state.
pub(super) struct VmRuntime {
    pub(super) stop: Arc<AtomicBool>,
    /// Simulated-crash flag: when set, the serving thread exits abruptly —
    /// no backlog drain, in-flight frames abandoned — exactly as if the
    /// API-server process had died.
    pub(super) crashed: Arc<AtomicBool>,
    pub(super) thread: Option<std::thread::JoinHandle<()>>,
    pub(super) server: Arc<Mutex<ApiServer>>,
    pub(super) transport: Arc<dyn Transport>,
    /// Transfer-cache epoch; bumped on every rebuild so both ends drop
    /// their payload caches (the rebuilt server starts with an empty
    /// mirror).
    pub(super) cache_epoch: u64,
    /// The VM's recoverable state: a base image plus every call executed
    /// since. Owned here — not by the server — because it must survive
    /// the server it describes: every server for this VM is rebuilt from
    /// it.
    pub(super) journal: Arc<StdMutex<CallJournal>>,
    /// Respawns consumed so far (against `StackConfig::max_respawns`).
    pub(super) respawns: u32,
    /// The device and residency accountant this VM's server runs against.
    /// Owned here — like the journal — because relocation must rebuild the
    /// VM on (or roll it back onto) a home that outlives any one server.
    pub(super) home: Home,
    /// Effective device-memory quota (policy override or stack default),
    /// re-applied to every server rebuilt for this VM.
    pub(super) mem_quota: Option<u64>,
    /// Scheduling priority from the VM's policy, kept here so the
    /// supervisor's brownout stage 2 can pick the lowest-priority
    /// tenants to shed without a round-trip through the router.
    pub(super) priority: u8,
}

impl VmRuntime {
    /// Stops the serving thread after it drains its delivered backlog.
    pub(super) fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Cut the serve loop's receive short rather than wait out its poll.
        self.transport.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Starts VM `vm`'s serving thread. It locks the server per frame, so
    /// stats and migration can observe it from other threads. A simulated
    /// crash stops it at the next frame, and the transport the crash closed
    /// ends an idle wait: the backlog is abandoned, so recovery is
    /// exercised honestly. A thread that returns without being asked to
    /// stop reports itself on `wakes`: the supervisor treats any such exit
    /// as a crash.
    pub(super) fn spawn(&mut self, vm: VmId, wakes: &Sender<Wake>) {
        let stop = Arc::new(AtomicBool::new(false));
        let crashed = Arc::new(AtomicBool::new(false));
        self.stop = Arc::clone(&stop);
        self.crashed = Arc::clone(&crashed);
        let server = Arc::clone(&self.server);
        let transport = Arc::clone(&self.transport);
        let wakes = wakes.clone();
        self.thread = Some(
            std::thread::Builder::new()
                .name("ava-api-server".into())
                .spawn(move || {
                    serve_with(transport.as_ref(), &stop, |msg| {
                        if crashed.load(Ordering::Acquire) {
                            return Err(());
                        }
                        server.lock().serve_one(transport.as_ref(), msg)
                    });
                    if !stop.load(Ordering::Acquire) {
                        let _ = wakes.send(Wake::Exited(vm, std::thread::current().id()));
                    }
                })
                .expect("spawn API server thread"),
        );
    }
}

/// Locks a VM's journal. A panic while it was held cannot leave it half
/// written (appends are single pushes), so a poisoned lock is still read.
pub(super) fn lock(journal: &StdMutex<CallJournal>) -> MutexGuard<'_, CallJournal> {
    journal.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How [`StackCore::relocate`] stops the VM's old server.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Stop {
    /// A live server, moved on purpose: pause the lane, wait for
    /// quiescence, halt the server (draining its backlog), snapshot it
    /// into the journal's new base and free it from the source device.
    Planned,
    /// A dead server: sever its channel, reap its thread and charge a
    /// respawn; the router gets a new router↔server channel.
    Crashed,
}

/// Where [`StackCore::relocate`] rebuilds the VM's server.
pub(super) enum Target {
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

/// How long a planned relocation waits for the paused lane to drain.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

impl StackCore {
    /// A private device: `handler` behind its own mutex, with its own
    /// residency accountant.
    pub(super) fn private_home(&self, handler: Box<dyn ApiHandler>) -> Home {
        Home {
            slot: None,
            handler: shared_handler(handler),
            memory: Arc::new(MemoryManager::new(self.config.device_mem_capacity)),
        }
    }

    /// Builds and configures a VM's API server on `home` from its journal
    /// — the one place that decides what a server is wired with, for a
    /// first attach and every relocation alike: restore the base, wire
    /// the server, replay the suffix, attach the journal. Fails only when
    /// the base cannot be restored onto `home`'s device.
    pub(super) fn build_server(
        &self,
        vm: VmId,
        home: &Home,
        mem_quota: Option<u64>,
        journal: &Arc<StdMutex<CallJournal>>,
    ) -> Result<ApiServer> {
        let log = lock(journal);
        let mut server = ApiServer::restore_with(
            Arc::clone(&self.descriptor),
            Arc::clone(&home.handler),
            log.base(),
        )?;
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
        // Replay runs with accountant and quota already attached, so
        // residency — and every quota verdict — is rematerialized exactly
        // as the original execution produced it.
        let replayed = server.replay_journal(log.entries());
        drop(log);
        if replayed > 0 {
            self.recovery.replayed_calls.add(replayed);
            telemetry.event(Tier::Supervisor, EventKind::JournalReplay, 0, replayed);
        }
        // Attached only now, so replayed calls are not journaled a second
        // time.
        server.set_journal(Arc::clone(journal));
        Ok(server)
    }

    /// Gives up on a VM: guests fail fast with `Unavailable` instead of
    /// hanging on a lane nobody serves.
    fn abandon(&self, vm: VmId) {
        self.recovery.failed.inc();
        let _ = self.hypervisor.mark_unavailable(vm);
    }

    /// The one relocation path (§4.3): stop the VM's server as `stop`
    /// says, rebuild it on `target` from its journal, re-point the router
    /// lane. The guest's transport and wire handles survive unchanged.
    ///
    /// A planned move never strands the VM: the lane it paused is resumed
    /// on every exit path, and a target that cannot take the VM gets it
    /// rolled back onto its source (see [`StackCore::rehome`]).
    pub(super) fn relocate(&self, vm: VmId, stop: Stop, target: Target) -> Result<()> {
        let dest = match target {
            Target::Slot(slot) => {
                let pool = self.pool.as_ref().ok_or(StackError::NotPooled)?;
                Some(pool.home(slot).ok_or(StackError::UnknownSlot(slot))?)
            }
            Target::Private(handler) => Some(self.private_home(handler)),
            Target::Same => None,
        };
        self.with_vm(vm, |_| ())?;
        if stop == Stop::Crashed {
            return self.rehome(vm, stop, dest);
        }
        self.hypervisor.pause_vm(vm)?;
        let moved = self
            .hypervisor
            .wait_quiescent(vm, QUIESCE_TIMEOUT)
            .map_err(StackError::from)
            .and_then(|()| self.rehome(vm, stop, dest));
        let resumed = self.hypervisor.resume_vm(vm);
        moved?;
        resumed?;
        Ok(())
    }

    /// The body of [`StackCore::relocate`], run with the lane paused and
    /// drained (planned) or its server dead (crash). `dest` is the resolved
    /// target; `None` rebuilds in place.
    fn rehome(&self, vm: VmId, stop: Stop, dest: Option<Home>) -> Result<()> {
        let mut vms = self.vms.lock();
        let runtime = vms.get_mut(&vm).ok_or(StackError::UnknownVm(vm))?;
        let telemetry = self.telemetry.lock().with_vm(vm);

        match stop {
            Stop::Planned => {
                runtime.halt();
                let mut server = runtime.server.lock();
                let image = server.snapshot();
                // Frees this VM's objects on the source device (slot-mates
                // hold their own handle tables) and its residency
                // registrations — before the restore, because a "fresh"
                // target may sit on the same physical device and must not
                // hold the VM's footprint twice.
                server.teardown();
                drop(server);
                lock(&runtime.journal).rebase(image);
            }
            Stop::Crashed => self.reap(vm, runtime, &telemetry)?,
        }

        let dest = dest.unwrap_or_else(|| {
            let mut home = runtime.home.clone();
            if home.slot.is_none() {
                home.handler = shared_handler((self.handler_factory)(0));
            }
            home
        });
        let build = |home| self.build_server(vm, home, runtime.mem_quota, &runtime.journal);
        let (home, server, outcome) = match build(&dest) {
            Ok(server) => (dest, server, Ok(())),
            // The target could not take the VM, but its journal is intact
            // and the source device has room for it again: put it back,
            // and hand the caller the error plus a VM that works.
            Err(e) => match build(&runtime.home) {
                Ok(server) => (runtime.home.clone(), server, Err(e)),
                Err(_) => {
                    self.abandon(vm);
                    return Err(e);
                }
            },
        };

        if stop == Stop::Crashed {
            let transport = self
                .hypervisor
                .reattach_server(vm)
                .inspect_err(|_| self.abandon(vm))?;
            if let Some(registry) = telemetry.registry() {
                transport.register_telemetry(registry, &format!("vm{vm}.server"));
            }
            runtime.transport = Arc::from(transport);
            telemetry.event(
                Tier::Supervisor,
                EventKind::ServerRespawn,
                0,
                u64::from(runtime.respawns),
            );
            // Counted only now — replay counters settled, server not yet
            // serving (and the VM table locked until it is) — so an
            // observer woken by `recovery.respawns` reads final numbers.
            self.recovery.respawns.inc();
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
        runtime.spawn(vm, &self.wakes);
        self.settle(vm, runtime, home, &telemetry)?;
        outcome
    }

    /// The crash stop sequence: sever the dead server's channel, reap its
    /// thread, charge a respawn — abandoning the VM once the budget is
    /// spent — and clear the residency the dead server registered.
    fn reap(&self, vm: VmId, runtime: &mut VmRuntime, telemetry: &Telemetry) -> Result<()> {
        // Sever the old channel first: the router parks the lane and
        // requeues in-flight calls instead of writing into a channel
        // nobody will ever read again.
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
        // The dead server's residency registrations describe state that
        // died with it (on a pool its orphaned device objects linger until
        // slot teardown — the price of sharing).
        runtime.home.memory.free_all(vm);
        Ok(())
    }

    /// Records that the VM now lives on `home`. If its slot changed, the
    /// router lane, the placement map and the occupancy gauges follow.
    fn settle(
        &self,
        vm: VmId,
        runtime: &mut VmRuntime,
        home: Home,
        telemetry: &Telemetry,
    ) -> Result<()> {
        let (from, to) = (runtime.home.slot, home.slot);
        runtime.home = home;
        if from == to {
            return Ok(());
        }
        // The VM's objects now live on another device: the router must
        // charge its calls there (or to no slot at all).
        self.hypervisor.set_vm_slot(vm, to)?;
        if let Some(pool) = &self.pool {
            pool.rebind(vm, to);
        }
        if let (Some(src), Some(dst)) = (from, to) {
            telemetry.event(Tier::Pool, EventKind::Rebalance, 0, pack_slots(src, dst));
        }
        Ok(())
    }
}
