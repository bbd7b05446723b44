//! The API-agnostic server runtime.
//!
//! One [`ApiServer`] exists per guest VM (the paper's process-level
//! isolation: each VM's device context lives in its own server). The
//! runtime is driven by the lowered [`ApiDescriptor`]: it translates
//! handles, evaluates resource annotations, records calls for migration,
//! performs buffer-granularity swapping, and delegates API execution to
//! the CAvA-generated [`ApiHandler`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ava_spec::{ApiDescriptor, ElemKind, FunctionDesc, RecordCategory, RetDesc, Transfer};
use ava_telemetry::{metric_set, EventKind, Histogram, IntMap, Stage, Telemetry, Tier};
use ava_transport::Transport;
use ava_wire::{
    digest64, CallId, CallMode, CallReply, CallRequest, ControlMessage, DigestLru, Message,
    ReplyStatus, Value, VmId,
};

use crate::error::{Result, ServerError};
use crate::handler::{shared_handler, ApiHandler, HandlerOutput, SharedHandler};
use crate::handles::{HandleState, HandleTable};
use crate::memory::MemoryManager;
use crate::record::{CallJournal, JournalEntry, MigrationImage, RecordLog};

/// How many recent sync replies are kept for duplicate suppression. The
/// guest library serializes sync calls, so a retry can only ever chase the
/// most recent executions; 64 leaves generous slack for batched traffic.
const REPLY_CACHE_CAP: usize = 64;

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
    handles: HandleTable,
    records: RecordLog,
    /// Estimated device bytes per allocated wire handle (from
    /// `resource(device_mem, ...)` annotations).
    mem_sizes: IntMap<u64, u64>,
    /// Object→object references learned from modify records (e.g. a
    /// kernel binding a mem buffer via `clSetKernelArgMem`): dispatching
    /// a call that names the referrer must fault the referents back in
    /// too, because the device will touch them without their handles ever
    /// appearing in the argument list.
    deps: IntMap<u64, Vec<u64>>,
    /// LRU clock for swap victim selection — the stack's one LRU; the
    /// [`MemoryManager`] only keeps residency books.
    use_clock: u64,
    last_use: IntMap<u64, u64>,
    /// The handles a call reaches (see `execute`), kept between calls so
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
    /// on pools). `None` leaves the legacy OOM-only swapping behaviour.
    memory: Option<Arc<MemoryManager>>,
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

/// `(ret, outputs, produced-handle registrations)` from one dispatch.
type TranslatedOutputs = (Value, Vec<(u32, Value)>, Vec<(u64, String)>);

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
            records: RecordLog::new(),
            mem_sizes: IntMap::default(),
            deps: IntMap::default(),
            use_clock: 0,
            last_use: IntMap::default(),
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
            memory: None,
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

    /// Attaches the device-memory manager (shared with every other server
    /// on the same device) and this server's VM id within it. Buffers the
    /// server already tracks are registered immediately, so attaching
    /// after a restore re-materializes the residency accounting.
    pub fn set_memory(&mut self, memory: Arc<MemoryManager>, vm: VmId) {
        for (wire, bytes) in &self.mem_sizes {
            memory.alloc(vm, *wire, *bytes);
            if let Some(HandleState::Swapped { data }) = self.handles.get(*wire).map(|e| &e.state) {
                memory.note_evicted(vm, *wire, Arc::clone(data));
            }
        }
        self.memory = Some(memory);
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

    /// Renders the attached registry as a text report; `None` when
    /// telemetry is disabled.
    pub fn telemetry_report(&self) -> Option<String> {
        self.telemetry.report()
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
        self.mem_sizes
            .iter()
            .filter(|(w, _)| !self.handles.is_swapped(**w))
            .map(|(_, sz)| *sz)
            .sum()
    }

    /// Estimated device memory the VM owns in total, resident plus
    /// swapped — the footprint the quota is enforced against.
    pub fn owned_device_mem(&self) -> u64 {
        self.mem_sizes.values().sum()
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

    /// Post-execution bookkeeping: advance the at-most-once highwater
    /// mark, cache the reply for duplicate suppression (sync only — async
    /// duplicates are suppressed silently), and append to the crash
    /// journal. `CacheMiss` NACKs never reach here: a NACKed call did not
    /// execute, so its retransmission must not be treated as a duplicate.
    fn note_executed(&mut self, request: CallRequest, reply: &CallReply) {
        self.highwater = Some(match self.highwater {
            Some(h) => h.max(reply.call_id),
            None => reply.call_id,
        });
        if request.mode == CallMode::Sync {
            self.remember_reply(reply.clone());
        }
        if let Some(journal) = &self.journal {
            if let Ok(mut j) = journal.lock() {
                j.record(request, reply.clone());
            }
        }
    }

    fn remember_reply(&mut self, reply: CallReply) {
        self.reply_cache.push_back(reply);
        while self.reply_cache.len() > REPLY_CACHE_CAP {
            self.reply_cache.pop_front();
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
        let mut replayed = 0;
        for entry in entries {
            let _ = self.respond(&entry.request);
            self.highwater = Some(match self.highwater {
                Some(h) => h.max(entry.request.call_id),
                None => entry.request.call_id,
            });
            if entry.request.mode == CallMode::Sync {
                self.remember_reply(entry.reply.clone());
            }
            replayed += 1;
        }
        replayed
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
    pub fn should_reply(
        &self,
        fn_id: ava_wire::FnId,
        mode: ava_wire::CallMode,
        reply: &CallReply,
    ) -> bool {
        if mode == ava_wire::CallMode::Sync || reply.status != ReplyStatus::Ok {
            return true;
        }
        match self.desc.by_id(fn_id).map(|f| &f.ret) {
            Some(RetDesc::Status { success, .. }) => reply.ret.as_i64() != Some(*success),
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
            if req.mode == ava_wire::CallMode::Sync {
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
                if let Some(mm) = &self.memory {
                    mm.count_quota_reject();
                }
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
        if req.args.len() != func.params.len() {
            return Err(ServerError::BadArguments(format!(
                "`{}` expects {} args, got {}",
                func.name,
                func.params.len(),
                req.args.len()
            )));
        }

        // Quota enforcement and capacity pressure, decided before any
        // side effect (no swap-in, no dispatch) so a refused call leaves
        // the server untouched.
        let alloc_bytes = if func.record == Some(RecordCategory::Alloc) {
            self.estimate_mem(func, &req.args)
        } else {
            None
        };
        if let (Some(bytes), Some(quota)) = (alloc_bytes, self.mem_quota) {
            if self.owned_device_mem() + bytes > quota {
                return Err(ServerError::QuotaExceeded {
                    requested: bytes,
                    quota,
                });
            }
        }
        // Proactive LRU eviction: keep the device's resident set under the
        // configured capacity. Only this VM's objects are eligible victims;
        // if the pressure comes from a neighbour on a shared slot, the
        // device-OOM retry loop below remains the backstop.
        if let Some(bytes) = alloc_bytes {
            if let Some(mm) = self.memory.clone() {
                let mut evictions = 0;
                while mm.over_capacity(bytes) && evictions < 64 {
                    if !self.swap_out_one_victim()? {
                        break;
                    }
                    evictions += 1;
                }
            }
        }

        // Swap-in every evicted object this call will reach: the handle
        // arguments themselves plus their recorded dependency closure (a
        // kernel drags in its bound buffers — the device touches them
        // without their handles appearing in the argument list). Each
        // fault-in runs under the same proactive capacity pressure a
        // fresh allocation faces, because without eviction here one scan
        // over an overcommitted working set would end fully resident;
        // the needed set is pinned, so LRU never victimizes an object
        // this very call is about to use.
        //
        // Each reached handle is touched once: the dependency closure
        // here, the arguments (in parameter order) by `translate_args`
        // below, so arguments end up more recent than their closure.
        let mut needed = std::mem::take(&mut self.reached);
        needed.clear();
        for (param, arg) in func.params.iter().zip(req.args.iter()) {
            if let Transfer::Handle { .. } = &param.transfer {
                if let Value::Handle(wire) = arg {
                    if !needed.contains(wire) {
                        needed.push(*wire);
                    }
                }
            }
        }
        let arg_count = needed.len();
        let mut i = 0;
        while i < needed.len() {
            if let Some(refs) = self.deps.get(&needed[i]) {
                for &r in refs {
                    if !needed.contains(&r) {
                        needed.push(r);
                    }
                }
            }
            i += 1;
        }
        for &wire in &needed[arg_count..] {
            self.touch(wire);
        }
        for &wire in &needed {
            if self.handles.is_swapped(wire) {
                if let Some(mm) = self.memory.clone() {
                    let bytes = self.mem_sizes.get(&wire).copied().unwrap_or(0);
                    let mut evictions = 0;
                    while mm.over_capacity(bytes) && evictions < 64 {
                        if !self.swap_out_one_victim_excluding(&needed)? {
                            break;
                        }
                        evictions += 1;
                    }
                }
                self.swap_in(wire)?;
            }
        }
        self.reached = needed;

        let silo_args = self.translate_args(func, &req.args)?;

        // Dispatch, with OOM-triggered swap-out retries for allocations.
        // The handler lock is held per attempt, not across the eviction
        // loop: swap-out re-enters the handler and the mutex is not
        // reentrant.
        let (mut out, mut oom) = self.dispatch(func, &silo_args)?;
        let mut evictions = 0;
        while oom && evictions < 64 {
            if !self.swap_out_one_victim()? {
                break;
            }
            evictions += 1;
            (out, oom) = self.dispatch(func, &silo_args)?;
        }

        // Translate handle outputs to wire handles.
        let destroyed = out.destroyed;
        let (ret, outputs, produced) = self.translate_outputs(func, out)?;

        let call_succeeded = match (&func.ret, &ret) {
            (RetDesc::Status { success, .. }, v) => v.as_i64() == Some(*success),
            (RetDesc::Handle { .. }, Value::Null) => false,
            _ => true,
        };

        if call_succeeded {
            // Deallocations: retire handle-table entries and cancel
            // records — unless the handler reported the object survived
            // (refcounted releases).
            for (param, arg) in func.params.iter().zip(req.args.iter()) {
                let deallocates = matches!(
                    &param.transfer,
                    Transfer::Handle {
                        deallocates: true,
                        ..
                    }
                ) && destroyed.unwrap_or(true);
                if deallocates {
                    if let Value::Handle(wire) = arg {
                        self.handles.remove(*wire);
                        self.records.cancel_for_handle(*wire);
                        self.mem_sizes.remove(wire);
                        self.last_use.remove(wire);
                        self.deps.remove(wire);
                        // Residency accounting must not outlive the
                        // object: releases (including refcounted releases
                        // that really destroy) retire the buffer's bytes.
                        if let Some(mm) = &self.memory {
                            mm.free(self.mem_vm, *wire);
                        }
                    }
                }
            }

            // Record for migration.
            match func.record {
                Some(RecordCategory::Config)
                | Some(RecordCategory::Alloc)
                | Some(RecordCategory::Modify) => {
                    let category = func.record.expect("checked above");
                    if category == RecordCategory::Alloc {
                        if let Some((wire, _)) = produced.first() {
                            if let Some(bytes) = alloc_bytes {
                                self.mem_sizes.insert(*wire, bytes);
                                if let Some(mm) = &self.memory {
                                    mm.alloc(self.mem_vm, *wire, bytes);
                                }
                            }
                        }
                    }
                    if category == RecordCategory::Modify {
                        self.note_deps(func, &req.args);
                    }
                    self.records
                        .record(req.fn_id, req.args.clone(), category, produced);
                }
                Some(RecordCategory::Dealloc) | None => {}
            }
        }

        Ok((ret, outputs))
    }

    /// One dispatch under one handler lock: the output plus whether it
    /// reports device OOM.
    fn dispatch(&self, func: &FunctionDesc, args: &[Value]) -> Result<(HandlerOutput, bool)> {
        let mut handler = self.handler.lock();
        let out = handler.dispatch(func, args)?;
        let oom = handler.ret_indicates_oom(func, &out.ret);
        Ok((out, oom))
    }

    fn estimate_mem(&self, func: &FunctionDesc, args: &[Value]) -> Option<u64> {
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

    /// Translates wire-form arguments to silo form (wire handles → silo
    /// handles); everything else passes through.
    fn translate_args(&mut self, func: &FunctionDesc, args: &[Value]) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(args.len());
        for (param, arg) in func.params.iter().zip(args.iter()) {
            let translated = match (&param.transfer, arg) {
                (Transfer::Handle { kind, .. }, Value::Handle(wire)) => {
                    let silo = self.handles.to_silo(*wire, kind)?;
                    self.touch(*wire);
                    Value::Handle(silo)
                }
                (Transfer::Handle { .. }, Value::Null) if param.nullable => Value::Null,
                (Transfer::Handle { .. }, other) => {
                    return Err(ServerError::BadArguments(format!(
                        "parameter `{}` expects a handle, got {other:?}",
                        param.name
                    )))
                }
                (
                    Transfer::Buffer {
                        elem: ElemKind::Handle { kind },
                        ..
                    },
                    Value::List(items),
                ) => {
                    let mut translated = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            Value::Handle(wire) => {
                                let silo = self.handles.to_silo(*wire, kind)?;
                                self.touch(*wire);
                                translated.push(Value::Handle(silo));
                            }
                            other => {
                                return Err(ServerError::BadArguments(format!(
                                    "handle list for `{}` contains {other:?}",
                                    param.name
                                )))
                            }
                        }
                    }
                    Value::List(translated)
                }
                (_, other) => other.clone(),
            };
            out.push(translated);
        }
        Ok(out)
    }

    /// Translates handler outputs (silo handles) back to wire form;
    /// returns `(ret, outputs, produced)` where `produced` lists every
    /// minted wire handle with its kind, in canonical order (return value
    /// first, then outputs in parameter order, list elements in sequence).
    fn translate_outputs(
        &mut self,
        func: &FunctionDesc,
        out: HandlerOutput,
    ) -> Result<TranslatedOutputs> {
        let mut produced: Vec<(u64, String)> = Vec::new();
        let ret = match (&func.ret, out.ret) {
            (RetDesc::Handle { kind }, Value::Handle(silo)) => {
                let wire = self.handles.insert(kind, silo);
                produced.push((wire, kind.clone()));
                Value::Handle(wire)
            }
            (RetDesc::Handle { .. }, Value::Null) => Value::Null,
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
                ) => {
                    let wire = self.handles.insert(kind, silo);
                    produced.push((wire, kind.clone()));
                    Value::Handle(wire)
                }
                (
                    Transfer::Buffer {
                        elem: ElemKind::Handle { kind },
                        ..
                    },
                    Value::List(items),
                ) => {
                    let mut translated = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            Value::Handle(silo) => {
                                let wire = self.handles.insert(kind, silo);
                                produced.push((wire, kind.clone()));
                                translated.push(Value::Handle(wire));
                            }
                            other => translated.push(other),
                        }
                    }
                    Value::List(translated)
                }
                (_, other) => other,
            };
            outputs.push((idx, translated));
        }
        Ok((ret, outputs, produced))
    }

    /// Learns object→object references from a modify-record call: the
    /// first handle parameter is the modified object, every further handle
    /// parameter something it now references (`clSetKernelArgMem` binding
    /// a buffer into a kernel is the canonical case). A later dispatch
    /// naming the referrer swaps these referents back in first. Stale
    /// entries are harmless — a dependency that is live stays put, one
    /// that was deallocated is no longer swapped and is skipped.
    fn note_deps(&mut self, func: &FunctionDesc, args: &[Value]) {
        let mut referrer: Option<u64> = None;
        for (param, arg) in func.params.iter().zip(args.iter()) {
            if let (Transfer::Handle { .. }, Value::Handle(wire)) = (&param.transfer, arg) {
                match referrer {
                    None => referrer = Some(*wire),
                    Some(holder) => {
                        let refs = self.deps.entry(holder).or_default();
                        if !refs.contains(wire) {
                            refs.push(*wire);
                        }
                    }
                }
            }
        }
    }

    fn touch(&mut self, wire: u64) {
        self.use_clock += 1;
        self.last_use.insert(wire, self.use_clock);
    }

    // ---- Buffer-granularity swapping (§4.3) -----------------------------

    /// Swaps out the least-recently-used swappable object. Returns false
    /// if no victim exists.
    pub fn swap_out_one_victim(&mut self) -> Result<bool> {
        self.swap_out_one_victim_excluding(&[])
    }

    /// [`ApiServer::swap_out_one_victim`], but never victimizing `pinned`
    /// wires — the objects the in-flight call is about to dispatch on.
    /// Without the pin, a call whose working set exceeds the resident
    /// capacity could evict a buffer it faulted in moments earlier and
    /// dispatch against a hole. Returns false when only pinned (or no)
    /// candidates remain; the capacity ceiling is soft, so the caller
    /// simply proceeds over it and lets later calls drain the excess.
    fn swap_out_one_victim_excluding(&mut self, pinned: &[u64]) -> Result<bool> {
        let kinds: Vec<String> = self
            .handler
            .lock()
            .swappable_kinds()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut victim: Option<(u64, String)> = None;
        let mut best_clock = u64::MAX;
        for kind in &kinds {
            for wire in self.handles.live_of_kind(kind) {
                // Only objects we can recreate (tracked alloc) are eligible.
                if self.records.alloc_record_for(wire).is_none() {
                    continue;
                }
                if pinned.contains(&wire) {
                    continue;
                }
                let clock = self.last_use.get(&wire).copied().unwrap_or(0);
                if clock < best_clock {
                    best_clock = clock;
                    victim = Some((wire, kind.clone()));
                }
            }
        }
        let Some((wire, kind)) = victim else {
            return Ok(false);
        };
        self.swap_out(wire, &kind)?;
        Ok(true)
    }

    /// Swaps out a specific object: snapshot payload, free the device
    /// object, park the payload host-side.
    pub fn swap_out(&mut self, wire: u64, kind: &str) -> Result<()> {
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
        let bytes = self
            .mem_sizes
            .get(&wire)
            .copied()
            .unwrap_or(data.len() as u64);
        // Park the payload through the memory manager so identical
        // content (same digest) swapped by any VM on this device is held
        // once, and residency accounting moves the bytes host-side.
        let data = Arc::new(data);
        let data = match &self.memory {
            Some(mm) => mm.note_evicted(self.mem_vm, wire, data),
            None => data,
        };
        self.handles.mark_swapped(wire, data)?;
        self.counters.swap_outs.inc();
        self.telemetry
            .event(Tier::Server, EventKind::SwapOut, 0, bytes);
        Ok(())
    }

    /// Swaps an object back in by replaying its allocation call and
    /// restoring the parked payload.
    pub fn swap_in(&mut self, wire: u64) -> Result<()> {
        let record = self
            .records
            .alloc_record_for(wire)
            .cloned()
            .ok_or_else(|| ServerError::Swap(format!("no alloc record for {wire:#x}")))?;
        let func = self
            .desc
            .by_id(record.fn_id)
            .cloned()
            .ok_or(ServerError::UnknownFunction(record.fn_id))?;
        let silo_args = self.translate_args(&func, &record.args)?;
        // Re-allocation may itself hit device OOM; evict other victims
        // until it fits (the wire handle being swapped in is not live and
        // therefore never selected as its own victim).
        let (mut out, mut oom) = self.dispatch(&func, &silo_args)?;
        let mut evictions = 0;
        while oom && evictions < 64 {
            if !self.swap_out_one_victim()? {
                break;
            }
            evictions += 1;
            (out, oom) = self.dispatch(&func, &silo_args)?;
        }
        let (kind, silo) = match (&func.ret, &out.ret) {
            (RetDesc::Handle { kind }, Value::Handle(silo)) => (kind.clone(), *silo),
            _ => {
                return Err(ServerError::Swap(format!(
                    "replayed allocation for {wire:#x} returned no handle"
                )))
            }
        };
        let data = self.handles.mark_live(wire, silo)?;
        if !self.handler.lock().restore_object(&kind, silo, &data) {
            return Err(ServerError::Swap(format!(
                "payload restore failed for {wire:#x}"
            )));
        }
        if let Some(mm) = &self.memory {
            mm.note_faulted(self.mem_vm, wire);
        }
        self.counters.swap_ins.inc();
        let bytes = self
            .mem_sizes
            .get(&wire)
            .copied()
            .unwrap_or(data.len() as u64);
        self.telemetry
            .event(Tier::Server, EventKind::FaultIn, 0, bytes);
        Ok(())
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
        let live: Vec<(String, u64)> = self
            .handles
            .entries()
            .into_iter()
            .filter_map(|(_, entry)| match entry.state {
                HandleState::Live(silo) => Some((entry.kind.clone(), silo)),
                HandleState::Swapped { .. } => None,
            })
            .collect();
        let mut handler = self.handler.lock();
        for (kind, silo) in live {
            handler.drop_object(&kind, silo);
        }
        drop(handler);
        if let Some(mm) = &self.memory {
            mm.free_all(self.mem_vm);
        }
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
        for record in &image.records {
            let func = self
                .desc
                .by_id(record.fn_id)
                .cloned()
                .ok_or(ServerError::UnknownFunction(record.fn_id))?;
            let silo_args = self.translate_args(&func, &record.args)?;
            let out = self.handler.lock().dispatch(&func, &silo_args)?;
            // Collect the silo handles the replayed call produced, in the
            // same canonical order the original recording used, and
            // re-bind the guest's original wire handles to them.
            let new_silos = collect_produced_silos(&func, &out);
            if new_silos.len() != record.produced.len() {
                return Err(ServerError::Replay(format!(
                    "replaying `{}` produced {} handle(s), original produced {}",
                    func.name,
                    new_silos.len(),
                    record.produced.len()
                )));
            }
            for ((wire, kind), silo) in record.produced.iter().zip(new_silos) {
                self.handles.bind(*wire, kind, silo);
            }
            if record.category == RecordCategory::Alloc {
                if let Some((wire, _)) = record.produced.first() {
                    if let Some(bytes) = self.estimate_mem(&func, &record.args) {
                        self.mem_sizes.insert(*wire, bytes);
                    }
                }
            }
            if record.category == RecordCategory::Modify {
                self.note_deps(&func, &record.args);
            }
            self.records.record(
                record.fn_id,
                record.args.clone(),
                record.category,
                record.produced.clone(),
            );
        }
        // Restore payloads.
        for (wire, data) in &image.buffers {
            let entry = self
                .handles
                .get(*wire)
                .cloned()
                .ok_or(ServerError::Replay(format!(
                    "image has payload for untracked handle {wire:#x}"
                )))?;
            match entry.state {
                HandleState::Live(silo) => {
                    if !self.handler.lock().restore_object(&entry.kind, silo, data) {
                        return Err(ServerError::Replay(format!(
                            "payload restore failed for {wire:#x}"
                        )));
                    }
                }
                HandleState::Swapped { .. } => {
                    return Err(ServerError::Replay(format!(
                        "handle {wire:#x} unexpectedly swapped during restore"
                    )))
                }
            }
        }
        // Carry the at-most-once state across the migration so guest
        // retries straddling it are still answered, never re-executed.
        self.reply_cache = image.replies.iter().cloned().collect();
        self.highwater = image.highwater;
        Ok(())
    }
}

/// Walks a handler output in canonical order (return value first, then
/// outputs in parameter order, list elements in sequence), collecting
/// every silo handle it produced.
fn collect_produced_silos(func: &FunctionDesc, out: &HandlerOutput) -> Vec<u64> {
    let mut silos = Vec::new();
    if let (RetDesc::Handle { .. }, Value::Handle(silo)) = (&func.ret, &out.ret) {
        silos.push(*silo);
    }
    for (idx, value) in &out.outputs {
        match (func.params.get(*idx as usize).map(|p| &p.transfer), value) {
            (
                Some(Transfer::OutElement {
                    elem: ElemKind::Handle { .. },
                    ..
                }),
                Value::Handle(silo),
            ) => silos.push(*silo),
            (
                Some(Transfer::Buffer {
                    elem: ElemKind::Handle { .. },
                    ..
                }),
                Value::List(items),
            ) => {
                for item in items {
                    if let Value::Handle(silo) = item {
                        silos.push(*silo);
                    }
                }
            }
            _ => {}
        }
    }
    silos
}
