//! The API-agnostic server runtime.
//!
//! One [`ApiServer`] exists per guest VM (the paper's process-level
//! isolation: each VM's device context lives in its own server). The
//! runtime is driven by the lowered [`ApiDescriptor`]: it translates
//! handles, evaluates resource annotations, records calls for migration,
//! performs buffer-granularity swapping, and delegates API execution to
//! the CAvA-generated [`ApiHandler`].
//!
//! Guest calls, journal replay, image replay and fault-in share one
//! execution core: `dispatch_evicting` (the device-OOM retry loop),
//! `make_room` (capacity pressure), `translate_outputs` (minting or
//! re-binding wire handles) and `record_call` (the record bookkeeping).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ava_spec::{ApiDescriptor, ElemKind, FunctionDesc, RecordCategory, RetDesc, Transfer};
use ava_telemetry::{metric_set, EventKind, Histogram, Stage, Telemetry, Tier};
use ava_transport::Transport;
use ava_wire::{
    digest64, CallId, CallMode, CallReply, CallRequest, ControlMessage, DigestLru, FnId, Message,
    ReplyStatus, Value, VmId,
};

use crate::error::{Result, ServerError};
use crate::handler::{shared_handler, ApiHandler, HandlerOutput, SharedHandler};
use crate::handles::{HandleState, HandleTable};
use crate::memory::MemoryManager;
use crate::record::{CallJournal, JournalEntry, MigrationImage, RecordLog, REPLY_CACHE_CAP};

/// Most victims one eviction loop (device OOM or capacity pressure) takes
/// before giving up and proceeding.
const MAX_EVICTIONS: usize = 64;

metric_set! {
    /// Server execution statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServerStats;
    struct ServerCounters {
        /// Calls executed.
        calls: Counter,
        /// Calls that failed at the transport level.
        transport_errors: Counter,
        /// Objects swapped out.
        swap_outs: Counter,
        /// Objects swapped back in.
        swap_ins: Counter,
        /// Buffer arguments rematerialized from the payload cache.
        payload_cache_hits: Counter,
        /// `CacheMiss` NACKs sent (each forces a full guest resend).
        payload_cache_misses: Counter,
        /// Duplicate call frames whose re-execution was suppressed (guest
        /// retries and transport-duplicated frames answered from the reply
        /// cache instead of running twice).
        duplicates_suppressed: Counter,
        /// Allocations refused for exceeding the VM's device-memory quota
        /// (each answered with a clean `QuotaExceeded` reply, not executed).
        quota_rejects: Counter,
        /// Calls discarded unexecuted because their deadline budget lapsed
        /// before dispatch (in transit, or behind earlier members of the same
        /// batch). Discards never advance the at-most-once highwater mark and
        /// never reach the journal, so a guest retry with a fresh budget
        /// executes instead of being dedup-dropped.
        expired_discards: Counter,
    }
}

/// The per-VM API server.
pub struct ApiServer {
    desc: Arc<ApiDescriptor>,
    /// The execution backend. Private servers own the only reference; in a
    /// device pool every server of a slot clones the same [`SharedHandler`],
    /// and dispatches serialize on its mutex (real device contention).
    handler: SharedHandler,
    /// One entry per wire handle: its silo handle or parked payload, its
    /// estimated bytes and LRU stamp.
    handles: HandleTable,
    records: RecordLog,
    /// LRU clock for swap victim selection — the stack's one LRU (each
    /// handle entry keeps its stamp); the [`MemoryManager`] only keeps
    /// residency books.
    use_clock: u64,
    /// The handles a call reaches (see `reach`), kept between calls so
    /// the per-call path reuses one allocation.
    reached: Vec<u64>,
    counters: ServerCounters,
    telemetry: Telemetry,
    /// Per-function execute histograms (`server.execute.<fn>`), indexed by
    /// `FnId` — resolved once at attach so the dispatch path never formats
    /// metric names.
    fn_hists: Vec<Histogram>,
    /// Mirror of the guest's transfer cache: digest → materialized payload
    /// (stored as `Value::Bytes` so hits clone cheaply into argument
    /// position). Same capacity and eligibility floor as the guest's, so
    /// both caches evolve in lockstep on an ordered transport.
    rx_cache: DigestLru<Value>,
    /// Smallest buffer eligible for caching; must match the guest.
    rx_cache_min_bytes: usize,
    /// Calls held back while a `CacheMiss` resend is outstanding —
    /// execution order must match send order, so nothing behind the NACKed
    /// call may run before its retransmission arrives. Each keeps its
    /// frame-arrival instant: a held call's deadline budget keeps burning
    /// while it waits.
    held: VecDeque<(CallRequest, Instant)>,
    /// The call id whose full-payload resend we are waiting for.
    stalled_on: Option<CallId>,
    /// Highest call id ever executed. Guest call ids are issued in
    /// strictly increasing order and executed in issue order (the guest
    /// serializes its sends and the transport preserves ordering), so any
    /// frame at or below this mark is a retry or a duplicated frame and
    /// must not run again.
    highwater: Option<CallId>,
    /// Recent sync replies, answered verbatim to duplicate frames.
    reply_cache: VecDeque<CallReply>,
    /// Crash-recovery journal, shared with the supervising stack; every
    /// executed call is appended with its materialized request and reply.
    journal: Option<Arc<Mutex<CallJournal>>>,
    /// Device-memory residency accounting, shared per device (slot-wide
    /// on pools); a private one without capacity until
    /// [`ApiServer::set_memory`] replaces it.
    memory: Arc<MemoryManager>,
    /// This server's VM id within the memory manager's accounting.
    mem_vm: VmId,
    /// Hard per-VM device-memory quota over the VM's total footprint
    /// (resident *and* swapped — swapping must not launder quota).
    mem_quota: Option<u64>,
}

/// The serve loop: hands each frame from `transport` to `serve_one` until
/// the transport fails or closes, `serve_one` fails, or `stop` becomes
/// true. On stop the already-delivered backlog is drained first so no
/// in-flight call is lost (migration relies on this). A caller that shares
/// its server with other threads locks it inside `serve_one`, per frame.
pub fn serve_with(
    transport: &dyn Transport,
    stop: &AtomicBool,
    mut serve_one: impl FnMut(Message) -> std::result::Result<(), ()>,
) {
    loop {
        if stop.load(Ordering::Acquire) {
            while let Ok(Some(msg)) = transport.try_recv() {
                if serve_one(msg).is_err() {
                    break;
                }
            }
            return;
        }
        match transport.recv_timeout(Duration::from_millis(2)) {
            Ok(Some(msg)) => {
                if serve_one(msg).is_err() {
                    return;
                }
            }
            Ok(None) => {}
            Err(_) => return,
        }
    }
}

/// Every wire handle a call produced, with its kind, in canonical order
/// (return value first, then outputs in parameter order, list elements
/// in sequence).
type Produced = Vec<(u64, String)>;

/// `(ret, outputs, produced)` from one dispatch.
type TranslatedOutputs = (Value, Vec<(u32, Value)>, Produced);

impl ApiServer {
    /// Creates a server for one VM with a private handler (its own device).
    pub fn new(desc: Arc<ApiDescriptor>, handler: Box<dyn ApiHandler>) -> Self {
        ApiServer::with_shared(desc, shared_handler(handler))
    }

    /// Creates a server bound to an existing (possibly shared) handler —
    /// the device-pool path, where several VMs' servers execute against
    /// one slot and contend on its mutex.
    pub fn with_shared(desc: Arc<ApiDescriptor>, handler: SharedHandler) -> Self {
        ApiServer {
            desc,
            handler,
            handles: HandleTable::new(),
            records: RecordLog::default(),
            use_clock: 0,
            reached: Vec::new(),
            counters: ServerCounters::default(),
            telemetry: Telemetry::disabled(),
            fn_hists: Vec::new(),
            rx_cache: DigestLru::new(0),
            rx_cache_min_bytes: 0,
            held: VecDeque::new(),
            stalled_on: None,
            highwater: None,
            reply_cache: VecDeque::new(),
            journal: None,
            memory: Arc::new(MemoryManager::new(None)),
            mem_vm: 0,
            mem_quota: None,
        }
    }

    /// Attaches the VM's journal. Every subsequently executed call is
    /// appended to its suffix (materialized request plus reply); the
    /// supervisor keeps the journal outside the server so it survives a
    /// crash, and rebuilds a server from it by restoring its base and
    /// replaying the suffix via [`ApiServer::replay_journal`].
    pub fn set_journal(&mut self, journal: Arc<Mutex<CallJournal>>) {
        self.journal = Some(journal);
    }

    /// Replaces the device-memory manager with one shared with every
    /// other server on the same device, under this server's VM id within
    /// it. Buffers the server already tracks are registered immediately,
    /// so attaching after a restore re-materializes the residency
    /// accounting.
    pub fn set_memory(&mut self, memory: Arc<MemoryManager>, vm: VmId) {
        for (wire, entry) in self.handles.iter() {
            let Some(bytes) = entry.bytes else { continue };
            memory.alloc(vm, wire, bytes);
            if let HandleState::Swapped { data } = &entry.state {
                memory.note_evicted(vm, wire, Arc::clone(data));
            }
        }
        self.memory = memory;
        self.mem_vm = vm;
    }

    /// Sets (or clears) the hard per-VM device-memory quota. Enforced on
    /// `record(alloc)` calls against the VM's total tracked footprint;
    /// over-quota allocations are answered `QuotaExceeded` unexecuted.
    pub fn set_mem_quota(&mut self, quota: Option<u64>) {
        self.mem_quota = quota;
    }

    /// Configures the payload mirror cache. `entries` and `min_bytes` must
    /// match the guest library's transfer-cache configuration — the two
    /// caches stay consistent only when both sides apply the same
    /// insert/touch sequence over the same capacity. Resets any existing
    /// cache contents.
    pub fn set_payload_cache(&mut self, entries: usize, min_bytes: usize) {
        self.rx_cache = DigestLru::new(entries);
        self.rx_cache_min_bytes = min_bytes;
    }

    /// Drops every cached payload (epoch change — reconnect or migration).
    /// Also used by tests to force a guest/server cache desync and exercise
    /// the NACK/resend path.
    pub fn clear_payload_cache(&mut self) {
        self.rx_cache.clear();
    }

    /// Attaches a telemetry handle (tagged with this server's VM id):
    /// execution counters register under `server.vm<N>.*`, per-function
    /// execute latency lands in `server.execute.<fn>` histograms, and sync
    /// calls get their Executed span stamp.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        telemetry.register_vm("server", &self.counters);
        self.fn_hists = telemetry
            .registry()
            .map(|r| {
                self.desc
                    .functions
                    .iter()
                    .map(|f| r.histogram(&format!("server.execute.{}", f.name)))
                    .collect()
            })
            .unwrap_or_default();
        self.telemetry = telemetry;
    }

    /// Execution statistics.
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }

    /// Calls currently recorded for migration.
    pub fn recorded_calls(&self) -> usize {
        self.records.len()
    }

    /// Estimated device memory currently live (excludes swapped objects).
    pub fn live_device_mem(&self) -> u64 {
        self.handles
            .iter()
            .filter(|(_, e)| matches!(e.state, HandleState::Live(_)))
            .filter_map(|(_, e)| e.bytes)
            .sum()
    }

    /// Estimated device memory the VM owns in total, resident plus
    /// swapped — the footprint the quota is enforced against.
    pub fn owned_device_mem(&self) -> u64 {
        self.handles.iter().filter_map(|(_, e)| e.bytes).sum()
    }

    /// Serves calls from `transport` until the peer shuts down or `stop`
    /// becomes true (see [`serve_with`]).
    pub fn serve(&mut self, transport: &dyn Transport, stop: &AtomicBool) {
        serve_with(transport, stop, |msg| self.serve_one(transport, msg));
    }

    /// Processes one message; `Err` means "stop serving" (there is no
    /// payload to carry — the caller only tears the loop down).
    #[allow(clippy::result_unit_err)]
    pub fn serve_one(
        &mut self,
        transport: &dyn Transport,
        msg: Message,
    ) -> std::result::Result<(), ()> {
        // Frame arrival is the reference point for deadline budgets: the
        // guest (or the router, re-stamping at dequeue) measured the
        // budget when the frame left the previous tier, so elapsed time
        // here — including time spent behind earlier members of the same
        // batch — counts against it.
        let arrived = Instant::now();
        match msg {
            Message::Call(req) => self.ingest_call(transport, req, arrived),
            Message::Batch(reqs) => {
                for req in reqs {
                    self.ingest_call(transport, req, arrived)?;
                }
                Ok(())
            }
            Message::Control(ControlMessage::Shutdown) => Err(()),
            Message::Control(ControlMessage::Ping(v)) => {
                let _ = transport.send(&Message::Control(ControlMessage::Pong(v)));
                Ok(())
            }
            Message::Control(ControlMessage::Heartbeat(v)) => {
                let _ = transport.send(&Message::Control(ControlMessage::HeartbeatAck(v)));
                Ok(())
            }
            Message::Control(ControlMessage::CacheEpoch(epoch)) => {
                self.rx_cache.clear();
                self.telemetry
                    .event(Tier::Server, EventKind::CacheEpoch, 0, epoch);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Admits one call into the execution order. While a `CacheMiss`
    /// resend is outstanding, every other call is held back — the server
    /// must execute calls in the order the guest issued them, and the
    /// NACKed call logically precedes everything sent after it.
    fn ingest_call(
        &mut self,
        transport: &dyn Transport,
        req: CallRequest,
        arrived: Instant,
    ) -> std::result::Result<(), ()> {
        if let Some(waiting) = self.stalled_on {
            if req.call_id != waiting {
                self.held.push_back((req, arrived));
                return Ok(());
            }
            self.stalled_on = None;
        }
        self.try_execute(transport, req, arrived)?;
        // Drain the held backlog until it runs dry or a held call itself
        // opens a new stall.
        while self.stalled_on.is_none() {
            let Some((next, next_arrived)) = self.held.pop_front() else {
                break;
            };
            self.try_execute(transport, next, next_arrived)?;
        }
        Ok(())
    }

    /// Resolves transfer-cache references, then executes and replies. On
    /// an unresolvable `CachedBytes` the call is NACKed and the server
    /// stalls awaiting the full-payload resend.
    fn try_execute(
        &mut self,
        transport: &dyn Transport,
        mut req: CallRequest,
        arrived: Instant,
    ) -> std::result::Result<(), ()> {
        // At-most-once dedup, checked before the payload cache is touched:
        // a duplicate frame must neither re-execute (device side effects
        // would double-apply) nor re-insert its buffers into the mirror
        // cache (the guest's cache applied them exactly once).
        if self.already_executed(req.call_id) {
            self.counters.duplicates_suppressed.inc();
            if req.mode == CallMode::Sync {
                // Answer from the reply cache. An evicted entry stays
                // silent: the guest serializes sync calls, so a reply that
                // old has no waiter left — its original either arrived or
                // the caller has long since given up.
                if let Some(reply) = self.cached_reply(req.call_id) {
                    if transport.send_owned(Message::Reply(reply)).is_err() {
                        return Err(());
                    }
                }
            }
            return Ok(());
        }
        // Deadline enforcement: a call whose remaining budget lapsed — in
        // transit, behind earlier members of this frame, or while held for
        // a cache resend — is discarded unexecuted. Crucially this takes
        // NO execution bookkeeping: the highwater mark stays put and the
        // journal never sees the call, so the guest's retry (stamped with
        // a fresh budget) executes instead of being dedup-dropped.
        if req.budget_us > 0 {
            let elapsed_us = arrived.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            if elapsed_us >= req.budget_us {
                self.counters.expired_discards.inc();
                self.telemetry.event(
                    Tier::Server,
                    EventKind::DeadlineDrop,
                    req.call_id,
                    req.budget_us,
                );
                // Both modes are answered (unlike normal async success
                // suppression) so guest- and stack-side overload counts
                // reconcile.
                if transport
                    .send_owned(Message::Reply(CallReply::overloaded(req.call_id)))
                    .is_err()
                {
                    return Err(());
                }
                return Ok(());
            }
        }
        if !self.resolve_cached_args(&mut req) {
            self.counters.payload_cache_misses.inc();
            self.telemetry
                .event(Tier::Server, EventKind::CacheMissNack, req.call_id, 0);
            self.stalled_on = Some(req.call_id);
            let nack = CallReply {
                call_id: req.call_id,
                status: ReplyStatus::CacheMiss,
                ret: Value::Unit,
                outputs: Vec::new(),
            };
            if transport.send_owned(Message::Reply(nack)).is_err() {
                return Err(());
            }
            return Ok(());
        }
        let reply = self.respond(&req);
        let send = self.should_reply(req.fn_id, req.mode, &reply);
        // The journal is the request's last owner: it moves in, uncloned.
        self.note_executed(req, &reply);
        if send && transport.send_owned(Message::Reply(reply)).is_err() {
            return Err(());
        }
        Ok(())
    }

    /// True when `call_id` was already executed, by this server or by the
    /// pre-crash/pre-migration incarnation whose state it inherited.
    fn already_executed(&self, call_id: CallId) -> bool {
        self.highwater.is_some_and(|h| call_id <= h)
    }

    /// The cached reply for `call_id`, if it has not been evicted.
    fn cached_reply(&self, call_id: CallId) -> Option<CallReply> {
        self.reply_cache
            .iter()
            .rev()
            .find(|r| r.call_id == call_id)
            .cloned()
    }

    /// Post-execution bookkeeping of a served call: the at-most-once step,
    /// then the append to the crash journal. `CacheMiss` NACKs never reach
    /// here: a NACKed call did not execute, so its retransmission must not
    /// be treated as a duplicate.
    fn note_executed(&mut self, request: CallRequest, reply: &CallReply) {
        self.mark_executed(&request, reply);
        if let Some(journal) = &self.journal {
            if let Ok(mut j) = journal.lock() {
                j.record(request, reply.clone());
            }
        }
    }

    /// The at-most-once step of every executed call, served or replayed
    /// from the journal: advance the highwater mark and cache the reply
    /// for duplicate suppression (sync only — async duplicates are
    /// suppressed silently).
    fn mark_executed(&mut self, request: &CallRequest, reply: &CallReply) {
        let id = request.call_id;
        self.highwater = Some(self.highwater.map_or(id, |h| h.max(id)));
        if request.mode == CallMode::Sync {
            self.reply_cache.push_back(reply.clone());
            while self.reply_cache.len() > REPLY_CACHE_CAP {
                self.reply_cache.pop_front();
            }
        }
    }

    /// Re-executes journaled calls, in order, on top of the state this
    /// server was restored to (the journal's base, see
    /// [`CallJournal`]). The suffix holds *all* calls executed since the
    /// base (not just `record`-annotated ones), so a deterministic handler
    /// reconstructs complete device state, including kernel-mutated
    /// buffers. Wire-handle minting is a deterministic counter that the
    /// restore left where the original server's restore left it, so
    /// replaying the same execution sequence re-mints the same wire
    /// handles and the guest's outstanding handles stay valid. Also primes
    /// the highwater mark and reply cache from the journal so guest
    /// retries of pre-crash calls stay suppressed. Returns the number of
    /// calls replayed.
    pub fn replay_journal(&mut self, entries: &[JournalEntry]) -> u64 {
        for entry in entries {
            let _ = self.respond(&entry.request);
            self.mark_executed(&entry.request, &entry.reply);
        }
        entries.len() as u64
    }

    /// Rewrites `req` in place: received eligible buffers are inserted
    /// into the mirror cache, and `CachedBytes` references are replaced by
    /// their materialized payloads. Returns false when a reference cannot
    /// be resolved. Runs *before* execution and recording, so the record
    /// log — and therefore migration replay — only ever sees real bytes,
    /// never digests.
    fn resolve_cached_args(&mut self, req: &mut CallRequest) -> bool {
        for arg in req.args.iter_mut() {
            match arg {
                Value::Bytes(b)
                    if b.len() >= self.rx_cache_min_bytes && self.rx_cache.capacity() > 0 =>
                {
                    self.rx_cache.insert(digest64(b), Value::Bytes(b.clone()));
                }
                Value::CachedBytes { digest, .. } => match self.rx_cache.get(*digest) {
                    Some(cached) => {
                        let materialized = cached.clone();
                        self.counters.payload_cache_hits.inc();
                        *arg = materialized;
                    }
                    None => return false,
                },
                _ => {}
            }
        }
        true
    }

    /// Asynchronously-forwarded calls are fire-and-forget: the server only
    /// replies when something went wrong (the guest synthesizes success
    /// immediately and receives failures as deferred errors, §4.2). This
    /// halves message traffic for async-heavy call streams.
    fn should_reply(&self, fn_id: FnId, mode: CallMode, reply: &CallReply) -> bool {
        if mode == CallMode::Sync || reply.status != ReplyStatus::Ok {
            return true;
        }
        match self.desc.by_id(fn_id) {
            Some(f) if matches!(f.ret, RetDesc::Status { .. }) => !f.succeeded(&reply.ret),
            // Async forwarding of non-status functions is rejected at
            // lowering time; reply defensively if one slips through.
            _ => true,
        }
    }

    /// Executes one call and builds its reply.
    pub fn handle_call(&mut self, req: CallRequest) -> CallReply {
        self.respond(&req)
    }

    /// [`ApiServer::handle_call`] by reference, so the serve path can hand
    /// the request on to the journal and replay needs no copy of it.
    fn respond(&mut self, req: &CallRequest) -> CallReply {
        let enabled = self.telemetry.enabled();
        let start = if enabled {
            self.telemetry.now_nanos()
        } else {
            0
        };
        let result = self.execute(req);
        if enabled {
            // One clock read serves the histogram and the span stamp.
            let end = self.telemetry.now_nanos();
            if let Some(h) = self.fn_hists.get(req.fn_id as usize) {
                h.record(end.saturating_sub(start));
            }
            if req.mode == CallMode::Sync {
                self.telemetry
                    .span_stage_at(req.call_id, Stage::Executed, end, Some(req.fn_id));
            }
        }
        match result {
            Ok((ret, outputs)) => {
                self.counters.calls.inc();
                CallReply {
                    call_id: req.call_id,
                    status: ReplyStatus::Ok,
                    ret,
                    outputs,
                }
            }
            Err(ServerError::QuotaExceeded { requested, .. }) => {
                // A clean policy refusal, not a failure: the call did not
                // execute, the lane stays healthy, and the guest gets a
                // dedicated status it can surface without retrying.
                self.counters.quota_rejects.inc();
                self.memory.count_quota_reject();
                self.telemetry
                    .event(Tier::Server, EventKind::QuotaReject, req.call_id, requested);
                CallReply {
                    call_id: req.call_id,
                    status: ReplyStatus::QuotaExceeded,
                    ret: Value::Unit,
                    outputs: Vec::new(),
                }
            }
            Err(_e) => {
                self.counters.transport_errors.inc();
                CallReply::transport_error(req.call_id)
            }
        }
    }

    fn execute(&mut self, req: &CallRequest) -> Result<(Value, Vec<(u32, Value)>)> {
        // Borrow the descriptor through a cheap Arc clone so `func` does
        // not alias `self` (avoids cloning the FunctionDesc per call).
        let desc = Arc::clone(&self.desc);
        let func = desc
            .by_id(req.fn_id)
            .ok_or(ServerError::UnknownFunction(req.fn_id))?;

        // Quota enforcement, decided before any side effect (no eviction,
        // no swap-in, no dispatch) so a refused call leaves the server
        // untouched.
        let alloc_bytes = self.alloc_bytes(func, &req.args);
        if let (Some(bytes), Some(quota)) = (alloc_bytes, self.mem_quota) {
            if self.owned_device_mem() + bytes > quota {
                return Err(ServerError::QuotaExceeded {
                    requested: bytes,
                    quota,
                });
            }
        }

        // Everything the call reaches is pinned against eviction, by
        // capacity pressure and by device OOM alike: no victim is ever an
        // object this very call is about to dispatch on.
        let (needed, arg_count) = self.reach(func, &req.args);
        if let Some(bytes) = alloc_bytes {
            self.make_room(bytes, &needed)?;
        }
        // Each reached handle is touched once: the dependency closure
        // here, the arguments (in parameter order) by `translate_args`
        // below, so arguments end up more recent than their closure.
        for &wire in &needed[arg_count..] {
            self.touch(wire);
        }
        for &wire in &needed {
            if self.handles.is_swapped(wire) {
                self.fault_in(wire, &needed)?;
            }
        }
        let silo_args = self.translate_args(func, &req.args)?;
        let out = self.dispatch_evicting(func, &silo_args, &needed)?;
        self.reached = needed;

        let destroyed = out.destroyed;
        let (ret, outputs, produced) = self.translate_outputs(func, out, None)?;
        if !func.succeeded(&ret) {
            return Ok((ret, outputs));
        }
        // Deallocations retire the handle's entry, records and residency
        // — unless the handler reported the object survived (refcounted
        // releases).
        for (param, arg) in func.params.iter().zip(req.args.iter()) {
            if let (Transfer::Handle { deallocates, .. }, Value::Handle(wire)) =
                (&param.transfer, arg)
            {
                if *deallocates && destroyed.unwrap_or(true) {
                    self.handles.remove(*wire);
                    self.records.cancel(*wire);
                    self.memory.free(self.mem_vm, *wire);
                }
            }
        }
        self.record_call(func, &req.args, produced, alloc_bytes);
        Ok((ret, outputs))
    }

    /// The handles a call reaches: its handle arguments (deduplicated, in
    /// parameter order), then, transitively, the handles held in their
    /// live slots — a kernel drags in the buffers bound to it now, not
    /// the ones it was once bound to. Returns the set, in the buffer
    /// `self.reached` keeps, and how many leading entries are arguments.
    fn reach(&mut self, func: &FunctionDesc, args: &[Value]) -> (Vec<u64>, usize) {
        let mut needed = std::mem::take(&mut self.reached);
        needed.clear();
        for (param, arg) in func.params.iter().zip(args.iter()) {
            if let (Transfer::Handle { .. }, Value::Handle(wire)) = (&param.transfer, arg) {
                if !needed.contains(wire) {
                    needed.push(*wire);
                }
            }
        }
        let arg_count = needed.len();
        let mut i = 0;
        while i < needed.len() {
            for wire in self.records.held_by(needed[i]) {
                if !needed.contains(&wire) {
                    needed.push(wire);
                }
            }
            i += 1;
        }
        (needed, arg_count)
    }

    /// Dispatches `func`, taking the handler lock once per attempt — not
    /// across the eviction loop: swap-out re-enters the handler and the
    /// mutex is not reentrant. On device OOM it evicts the
    /// least-recently-used victim outside `pinned` and retries, at most
    /// [`MAX_EVICTIONS`] times; the last output is returned either way.
    fn dispatch_evicting(
        &mut self,
        func: &FunctionDesc,
        args: &[Value],
        pinned: &[u64],
    ) -> Result<HandlerOutput> {
        let mut evictions = 0;
        loop {
            let out = {
                let out = self.handler.lock().dispatch(func, args)?;
                if !out.device_oom {
                    return Ok(out);
                }
                out
            };
            if evictions == MAX_EVICTIONS || !self.evict_lru(pinned)? {
                return Ok(out);
            }
            evictions += 1;
        }
    }

    /// Proactive LRU eviction: evicts victims outside `pinned` until
    /// `bytes` more fit under the device's resident capacity. Only this
    /// VM's objects are eligible; if the pressure comes from a neighbour
    /// on a shared slot, device OOM in `dispatch_evicting` remains the
    /// backstop. The ceiling is soft: when only pinned (or no) candidates
    /// remain, the call proceeds over it and later calls drain the excess.
    fn make_room(&mut self, bytes: u64, pinned: &[u64]) -> Result<()> {
        let mut evictions = 0;
        while evictions < MAX_EVICTIONS && self.memory.over_capacity(bytes) {
            if !self.evict_lru(pinned)? {
                break;
            }
            evictions += 1;
        }
        Ok(())
    }

    /// Estimated device bytes of a `record(alloc)` call, from its
    /// `resource(device_mem, ...)` annotation.
    fn alloc_bytes(&self, func: &FunctionDesc, args: &[Value]) -> Option<u64> {
        if func.record != Some(RecordCategory::Alloc) {
            return None;
        }
        let env = self.desc.env_for(func, args);
        for res in &func.resources {
            if res.resource == "device_mem" {
                if let Ok(v) = res.amount.eval(&env, &self.desc.types) {
                    return u64::try_from(v).ok();
                }
            }
        }
        None
    }

    /// Translates wire-form arguments to silo form: a wire handle, alone
    /// or in a handle list, becomes its silo handle once the handle table
    /// confirms its kind; everything else passes through. Shapes are not
    /// checked here: the router checks them against the spec
    /// (`FunctionDesc::verify_args`), and a server driven without one
    /// leaves a misshapen value to the binding's reader to refuse.
    fn translate_args(&mut self, func: &FunctionDesc, args: &[Value]) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(args.len());
        for (param, arg) in func.params.iter().zip(args.iter()) {
            let translated = match (&param.transfer, arg) {
                (Transfer::Handle { kind, .. }, Value::Handle(wire)) => {
                    self.translate_handle(*wire, kind)?
                }
                (
                    Transfer::Buffer {
                        elem: ElemKind::Handle { kind },
                        ..
                    },
                    Value::List(items),
                ) => Value::List(
                    items
                        .iter()
                        .map(|item| match item {
                            Value::Handle(wire) => self.translate_handle(*wire, kind),
                            other => Ok(other.clone()),
                        })
                        .collect::<Result<_>>()?,
                ),
                (_, other) => other.clone(),
            };
            out.push(translated);
        }
        Ok(out)
    }

    /// One wire handle of `kind` as its silo handle, touched for the LRU.
    fn translate_handle(&mut self, wire: u64, kind: &str) -> Result<Value> {
        let silo = self.handles.to_silo(wire, kind)?;
        self.touch(wire);
        Ok(Value::Handle(silo))
    }

    /// Translates handler outputs (silo handles) back to wire form and
    /// returns `(ret, outputs, produced)`. A guest call (`rebind: None`)
    /// mints a fresh wire handle per produced silo handle; image replay
    /// passes the record's `produced` list, whose original wire handles
    /// are re-bound in order, and the dispatch must have produced exactly
    /// as many.
    fn translate_outputs(
        &mut self,
        func: &FunctionDesc,
        out: HandlerOutput,
        rebind: Option<&[(u64, String)]>,
    ) -> Result<TranslatedOutputs> {
        let mut produced: Produced = Vec::new();
        let mut seen = 0;
        let handles = &mut self.handles;
        let mut wire_for = |kind: &String, silo: u64| {
            let wire = match rebind {
                None => {
                    let wire = handles.insert(kind, silo);
                    produced.push((wire, kind.clone()));
                    wire
                }
                Some(original) => original.get(seen).map_or(0, |(wire, kind)| {
                    handles.bind(*wire, kind, silo);
                    *wire
                }),
            };
            seen += 1;
            wire
        };
        let ret = match (&func.ret, out.ret) {
            (RetDesc::Handle { kind }, Value::Handle(silo)) => Value::Handle(wire_for(kind, silo)),
            (_, other) => other,
        };
        let mut outputs = Vec::with_capacity(out.outputs.len());
        for (idx, value) in out.outputs {
            let param = func.params.get(idx as usize).ok_or_else(|| {
                ServerError::BadArguments(format!("handler produced output for bad index {idx}"))
            })?;
            let translated = match (&param.transfer, value) {
                (
                    Transfer::OutElement {
                        elem: ElemKind::Handle { kind },
                        ..
                    },
                    Value::Handle(silo),
                ) => Value::Handle(wire_for(kind, silo)),
                (
                    Transfer::Buffer {
                        elem: ElemKind::Handle { kind },
                        ..
                    },
                    Value::List(items),
                ) => Value::List(
                    items
                        .into_iter()
                        .map(|item| match item {
                            Value::Handle(silo) => Value::Handle(wire_for(kind, silo)),
                            other => other,
                        })
                        .collect(),
                ),
                (_, other) => other,
            };
            outputs.push((idx, translated));
        }
        if let Some(original) = rebind {
            if seen != original.len() {
                return Err(ServerError::Replay(format!(
                    "replaying `{}` produced {seen} handle(s), original produced {}",
                    func.name,
                    original.len()
                )));
            }
            produced = original.to_vec();
        }
        Ok((ret, outputs, produced))
    }

    /// The record step of a succeeded call, executed or replayed from an
    /// image: an allocation's estimated bytes go on its handle entry and
    /// to the accountant, and the call joins the record log as its spec
    /// says.
    fn record_call(
        &mut self,
        func: &FunctionDesc,
        args: &[Value],
        produced: Produced,
        alloc_bytes: Option<u64>,
    ) {
        if let (Some((wire, _)), Some(bytes)) = (produced.first(), alloc_bytes) {
            if let Some(entry) = self.handles.get_mut(*wire) {
                entry.bytes = Some(bytes);
            }
            self.memory.alloc(self.mem_vm, *wire, bytes);
        }
        self.records.record(func, args, produced);
    }

    fn touch(&mut self, wire: u64) {
        self.use_clock += 1;
        if let Some(entry) = self.handles.get_mut(wire) {
            entry.last_use = self.use_clock;
        }
    }

    // ---- Buffer-granularity swapping (§4.3) -----------------------------

    /// Swaps out the least-recently-used swappable object.
    #[cfg(test)]
    pub(crate) fn swap_out_one_victim(&mut self) -> Result<bool> {
        self.evict_lru(&[])
    }

    /// Swaps out the least-recently-used swappable object outside
    /// `pinned`, the objects the in-flight call is about to dispatch on.
    /// Without the pin, a call whose working set exceeds the device could
    /// evict a buffer it faulted in moments earlier and dispatch against a
    /// hole. Returns false when only pinned (or no) candidates remain.
    fn evict_lru(&mut self, pinned: &[u64]) -> Result<bool> {
        let victim = {
            let handler = self.handler.lock();
            let kinds = handler.swappable_kinds();
            // Ties (never-used objects) go to the earliest swappable kind,
            // then the lowest wire handle.
            self.handles
                .iter()
                .filter_map(|(wire, e)| {
                    let rank = kinds.iter().position(|k| *k == e.kind)?;
                    // Only objects we can recreate (tracked alloc) are
                    // eligible.
                    let eligible = matches!(e.state, HandleState::Live(_))
                        && !pinned.contains(&wire)
                        && self.records.alloc_record_for(wire).is_some();
                    eligible.then_some((e.last_use, rank, wire, &e.kind))
                })
                .min()
                .map(|(_, _, wire, kind)| (wire, kind.clone()))
        };
        let Some((wire, kind)) = victim else {
            return Ok(false);
        };
        self.swap_out(wire, &kind)?;
        Ok(true)
    }

    /// Swaps out a specific object: snapshot payload, free the device
    /// object, park the payload host-side.
    pub(crate) fn swap_out(&mut self, wire: u64, kind: &str) -> Result<()> {
        let silo = self.handles.to_silo(wire, kind)?;
        let data = {
            let mut handler = self.handler.lock();
            let data = handler
                .snapshot_object(kind, silo)
                .ok_or_else(|| ServerError::Swap(format!("object {wire:#x} has no payload")))?;
            if !handler.drop_object(kind, silo) {
                return Err(ServerError::Swap(format!("cannot drop object {wire:#x}")));
            }
            data
        };
        let bytes = self.est_bytes(wire).unwrap_or(data.len() as u64);
        // Park the payload through the memory manager so identical
        // content (same digest) swapped by any VM on this device is held
        // once, and residency accounting moves the bytes host-side.
        let data = self.memory.note_evicted(self.mem_vm, wire, Arc::new(data));
        self.handles.mark_swapped(wire, data)?;
        self.counters.swap_outs.inc();
        self.telemetry
            .event(Tier::Server, EventKind::SwapOut, 0, bytes);
        Ok(())
    }

    /// Swaps an object back in with nothing pinned.
    #[cfg(test)]
    pub(crate) fn swap_in(&mut self, wire: u64) -> Result<()> {
        self.fault_in(wire, &[])
    }

    /// Swaps an object back in: replays its allocation call and restores
    /// the parked payload. It runs under the same capacity pressure a
    /// fresh allocation faces — without eviction here, one scan over an
    /// overcommitted working set would end fully resident — and neither
    /// that nor the re-allocation's device OOM ever victimizes `pinned`.
    fn fault_in(&mut self, wire: u64, pinned: &[u64]) -> Result<()> {
        let bytes = self.est_bytes(wire);
        self.make_room(bytes.unwrap_or(0), pinned)?;
        let (fn_id, args) = self
            .records
            .alloc_record_for(wire)
            .map(|r| (r.fn_id, r.args.clone()))
            .ok_or_else(|| ServerError::Swap(format!("no alloc record for {wire:#x}")))?;
        let desc = Arc::clone(&self.desc);
        let func = desc
            .by_id(fn_id)
            .ok_or(ServerError::UnknownFunction(fn_id))?;
        let silo_args = self.translate_args(func, &args)?;
        // The wire handle being faulted in is not live and therefore never
        // its own victim.
        let out = self.dispatch_evicting(func, &silo_args, pinned)?;
        let (kind, silo) = match (&func.ret, out.ret) {
            (RetDesc::Handle { kind }, Value::Handle(silo)) => (kind, silo),
            _ => {
                return Err(ServerError::Swap(format!(
                    "replayed allocation for {wire:#x} returned no handle"
                )))
            }
        };
        let data = self.handles.mark_live(wire, silo)?;
        if !self.handler.lock().restore_object(kind, silo, &data) {
            return Err(ServerError::Swap(format!(
                "payload restore failed for {wire:#x}"
            )));
        }
        self.memory.note_faulted(self.mem_vm, wire);
        self.counters.swap_ins.inc();
        self.telemetry.event(
            Tier::Server,
            EventKind::FaultIn,
            0,
            bytes.unwrap_or(data.len() as u64),
        );
        Ok(())
    }

    /// The estimated device bytes of `wire`, if it has an estimate.
    fn est_bytes(&self, wire: u64) -> Option<u64> {
        self.handles.get(wire).and_then(|e| e.bytes)
    }

    // ---- VM migration (§4.3) ---------------------------------------------

    /// Produces a migration image: the record log plus payload snapshots
    /// of every live object that has one. The server keeps running; pair
    /// with router pause + quiescence for a consistent image.
    pub fn snapshot(&mut self) -> MigrationImage {
        let mut buffers = Vec::new();
        let mut handler = self.handler.lock();
        for (wire, entry) in self.handles.entries() {
            match &entry.state {
                HandleState::Live(silo) => {
                    if let Some(data) = handler.snapshot_object(&entry.kind, *silo) {
                        buffers.push((wire, data));
                    }
                }
                HandleState::Swapped { data } => buffers.push((wire, data.as_ref().clone())),
            }
        }
        drop(handler);
        MigrationImage {
            records: self.records.replay_order().cloned().collect(),
            buffers,
            replies: self.reply_cache.iter().cloned().collect(),
            highwater: self.highwater,
        }
    }

    /// Tears down every tracked device object (the source side of a
    /// migration frees device resources after snapshotting).
    pub fn teardown(&mut self) {
        let mut handler = self.handler.lock();
        for (_, entry) in self.handles.entries() {
            if let HandleState::Live(silo) = entry.state {
                handler.drop_object(&entry.kind, silo);
            }
        }
        drop(handler);
        self.memory.free_all(self.mem_vm);
    }

    /// Reconstructs a server on a (possibly different) host by replaying
    /// the image's records against `handler` — a fresh device, or a pool
    /// slot's device that other VMs keep using concurrently — then
    /// restoring buffer payloads. Wire handles are preserved, so the
    /// guest's handles remain valid after migration.
    pub fn restore_with(
        desc: Arc<ApiDescriptor>,
        handler: SharedHandler,
        image: &MigrationImage,
    ) -> Result<ApiServer> {
        let mut server = ApiServer::with_shared(desc, handler);
        if let Err(e) = server.replay_image(image) {
            // Free what the partial replay created: the handler may be a
            // pool slot's shared device, where nobody else ever could.
            server.teardown();
            return Err(e);
        }
        Ok(server)
    }

    /// Replays `image` into this (empty) server: records first, then
    /// buffer payloads, then the at-most-once state.
    fn replay_image(&mut self, image: &MigrationImage) -> Result<()> {
        let desc = Arc::clone(&self.desc);
        for record in &image.records {
            let func = desc
                .by_id(record.fn_id)
                .ok_or(ServerError::UnknownFunction(record.fn_id))?;
            let silo_args = self.translate_args(func, &record.args)?;
            // A plain dispatch, no eviction: a restore onto a device too
            // small for the image must fail and free what it created.
            let out = self.handler.lock().dispatch(func, &silo_args)?;
            let (_, _, produced) = self.translate_outputs(func, out, Some(&record.produced))?;
            let alloc_bytes = self.alloc_bytes(func, &record.args);
            self.record_call(func, &record.args, produced, alloc_bytes);
        }
        for (wire, data) in &image.buffers {
            let entry = self.handles.get(*wire).ok_or(ServerError::Replay(format!(
                "image has payload for untracked handle {wire:#x}"
            )))?;
            let HandleState::Live(silo) = entry.state else {
                return Err(ServerError::Replay(format!(
                    "handle {wire:#x} unexpectedly swapped during restore"
                )));
            };
            if !self.handler.lock().restore_object(&entry.kind, silo, data) {
                return Err(ServerError::Replay(format!(
                    "payload restore failed for {wire:#x}"
                )));
            }
        }
        // Carry the at-most-once state across the migration so guest
        // retries straddling it are still answered, never re-executed.
        self.reply_cache = image.replies.iter().cloned().collect();
        self.highwater = image.highwater;
        Ok(())
    }
}
