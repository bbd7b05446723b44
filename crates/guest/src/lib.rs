//! `ava-guest` — the guest-side AvA runtime (the "guest library" of
//! Figure 3).
//!
//! A CAvA-generated guest library is a thin typed veneer over this runtime:
//! each intercepted API call is marshaled according to the lowered
//! [`ApiDescriptor`] and forwarded over the hypervisor-managed transport.
//! The runtime implements the §4.2 semantics:
//!
//! * **sync/async policy** — the spec's `sync; / async; / if (...) sync;
//!   else async;` annotations are evaluated against the actual arguments;
//! * **transparently-async calls** — synchronous API functions annotated
//!   `async` return their success value immediately; a later failure is
//!   delivered by the next synchronous call (the paper's explicitly noted
//!   fidelity loss);
//! * **API batching** — rCUDA-style: consecutive async calls coalesce into
//!   one transport crossing, flushed by the next synchronous call;
//! * **client-side verification** — buffer arguments are checked against
//!   the spec's size expressions before anything crosses the transport.

mod error;

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_spec::{ApiDescriptor, ElemKind, EvalEnv, FunctionDesc, RetDesc, ScalarKind, Transfer};
use ava_telemetry::{metric_set, EventKind, Histogram, Stage, Telemetry, Tier};
use ava_transport::BoxedTransport;
use ava_wire::{
    digest64, CallId, CallMode, CallReply, CallRequest, ControlMessage, DigestLru, FnId, Message,
    ReplyStatus, Value, MAX_BATCH_CALLS,
};
use parking_lot::Mutex;

pub use error::GuestError;

/// Result alias for guest-side calls.
pub type Result<T> = std::result::Result<T, GuestError>;

/// Completed call: the API return value plus output-parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct CallResult {
    /// The function's return value (wire form; handles are wire handles).
    pub ret: Value,
    /// Output parameter values as `(param index, value)`.
    pub outputs: Vec<(u32, Value)>,
}

impl CallResult {
    /// The output value for parameter `idx`, if present.
    pub fn output(&self, idx: u32) -> Option<&Value> {
        self.outputs.iter().find(|(i, _)| *i == idx).map(|(_, v)| v)
    }
}

/// Guest-library configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestConfig {
    /// Maximum calls coalesced into one batch; 0 disables batching.
    /// Legacy knob — [`GuestConfig::batch_max_calls`] takes precedence
    /// whenever it is non-zero.
    pub batch_max: usize,
    /// Adaptive-batching size limit: the batch flushes as one wire frame
    /// (one doorbell) once it holds this many calls. 0 defers to
    /// [`GuestConfig::batch_max`]; both zero disables batching. Values are
    /// clamped to the protocol's per-frame cap.
    pub batch_max_calls: usize,
    /// Adaptive-batching age limit in microseconds: a batch older than
    /// this flushes before the next call joins it, bounding the latency a
    /// coalesced async call can sit unsent. 0 disables age-based flushing
    /// (batches flush only on size, sync barrier, or explicit
    /// [`GuestLibrary::flush`]).
    pub batch_max_delay_us: u64,
    /// Entries in the content-addressed transfer cache (digests of buffer
    /// payloads already pushed over this connection); 0 disables elision.
    /// The server mirrors this capacity, so both caches evolve in lockstep.
    pub payload_cache_entries: usize,
    /// Smallest buffer (bytes) eligible for transfer-cache elision. Tiny
    /// buffers cost more to digest than to send; must match the server.
    pub payload_cache_min_bytes: usize,
    /// Per-attempt reply deadline for synchronous calls. A call that sees
    /// no reply within this window is retried (same call id — the server
    /// deduplicates), up to [`GuestConfig::max_retries`] times and never
    /// past a total budget of twice this deadline. `None` waits forever,
    /// the pre-fault-tolerance behaviour.
    pub call_deadline: Option<Duration>,
    /// Maximum resends of a timed-out or transiently-failed call.
    pub max_retries: u32,
    /// Initial backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
}

impl Default for GuestConfig {
    fn default() -> Self {
        GuestConfig {
            batch_max: 0,
            batch_max_calls: 0,
            batch_max_delay_us: 0,
            payload_cache_entries: 0,
            payload_cache_min_bytes: 64,
            call_deadline: None,
            max_retries: 3,
            retry_backoff: Duration::from_millis(2),
        }
    }
}

/// Bookkeeping for an async call whose reply has not been consumed yet.
struct PendingCall {
    call_id: CallId,
    fn_id: FnId,
    /// Full-payload copy kept for `CacheMiss` resends; `None` when the
    /// transfer cache is disabled or the call carried no eligible buffers.
    resend: Option<CallRequest>,
    /// Wire-form copy of the request as sent, kept while batching is
    /// enabled so a sync-call retry can re-deliver a dropped batch as a
    /// unit. Cheap: buffer payloads are refcounted [`bytes::Bytes`].
    wire: Option<CallRequest>,
}

struct Inner {
    next_call_id: CallId,
    /// Async calls whose replies have not been consumed yet, in call-id
    /// order: ids only grow, and each sync reply retires a prefix.
    pending: VecDeque<PendingCall>,
    /// First asynchronous failure awaiting delivery.
    deferred_error: Option<Value>,
    /// Batched (not yet sent) async calls.
    batch: Vec<CallRequest>,
    /// When the oldest call in `batch` joined it; drives age-based flush.
    batch_started: Option<Instant>,
    /// Digests of eligible buffers already pushed over this connection.
    tx_cache: DigestLru<()>,
}

metric_set! {
    /// Counters describing guest-side behaviour.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct GuestStats;
    struct GuestCounters {
        /// Calls forwarded synchronously.
        sync_calls: Counter,
        /// Calls forwarded asynchronously.
        async_calls: Counter,
        /// Transport crossings saved by batching.
        batched_calls: Counter,
        /// Call-carrying wire frames handed to the transport (each one is a
        /// doorbell ring; retries and cache-miss resends are not counted).
        doorbells: Counter,
        /// Deferred errors delivered on later synchronous calls.
        deferred_errors_delivered: Counter,
        /// Buffer arguments elided by the transfer cache.
        payload_cache_hits: Counter,
        /// `CacheMiss` NACKs that forced a full resend.
        payload_cache_misses: Counter,
        /// Payload bytes that never crossed the transport thanks to elision.
        bytes_elided: Counter,
        /// Calls resent after a reply deadline or transient send failure.
        retries: Counter,
        /// Calls abandoned with [`GuestError::DeadlineExceeded`].
        deadline_exceeded: Counter,
        /// `Overloaded` replies observed (sync and async): calls the stack
        /// shed under overload protection. Retries that later succeed still
        /// count each shed reply, so this reconciles against the router's
        /// shed counters, not against surfaced errors.
        overloaded: Counter,
    }
}

/// The descriptor-driven guest library runtime.
pub struct GuestLibrary {
    desc: Arc<ApiDescriptor>,
    transport: BoxedTransport,
    config: GuestConfig,
    counters: GuestCounters,
    telemetry: Telemetry,
    /// Per-VM end-to-end latency histogram (`guest.vm<N>.e2e_ns`),
    /// resolved once at attach so the per-call path never formats names.
    e2e_hist: Option<Histogram>,
    /// Per-function latency histograms (`guest.call.<fn>`), indexed by
    /// `FnId` (`descriptor.functions[i].id == i`) — same reasoning.
    fn_hists: Vec<Histogram>,
    inner: Mutex<Inner>,
}

impl GuestLibrary {
    /// Creates a guest library over a hypervisor-provided transport.
    pub fn new(desc: Arc<ApiDescriptor>, transport: BoxedTransport, config: GuestConfig) -> Self {
        GuestLibrary {
            desc,
            transport,
            config,
            counters: GuestCounters::default(),
            telemetry: Telemetry::disabled(),
            e2e_hist: None,
            fn_hists: Vec::new(),
            inner: Mutex::new(Inner {
                next_call_id: 1,
                pending: VecDeque::new(),
                deferred_error: None,
                batch: Vec::new(),
                batch_started: None,
                tx_cache: DigestLru::new(config.payload_cache_entries),
            }),
        }
    }

    /// The descriptor this library marshals against.
    pub fn descriptor(&self) -> &Arc<ApiDescriptor> {
        &self.desc
    }

    /// Attaches a telemetry handle (tagged with this guest's VM id via
    /// [`Telemetry::with_vm`]): the [`GuestStats`] counters register into
    /// the shared registry, sync calls get cross-tier spans, and per-call
    /// latency lands in `guest.call.<fn>` histograms. Call before sharing
    /// the library; the attached endpoint's transport counters are
    /// registered by the stack that owns it.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        telemetry.register_vm("guest", &self.counters);
        self.e2e_hist = telemetry
            .registry()
            .map(|r| r.histogram(&format!("guest.vm{}.e2e_ns", telemetry.vm())));
        self.fn_hists = telemetry
            .registry()
            .map(|r| {
                self.desc
                    .functions
                    .iter()
                    .map(|f| r.histogram(&format!("guest.call.{}", f.name)))
                    .collect()
            })
            .unwrap_or_default();
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled unless
    /// [`GuestLibrary::attach_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Renders the attached registry as a text report; `None` when
    /// telemetry is disabled.
    pub fn telemetry_report(&self) -> Option<String> {
        self.telemetry.report()
    }

    /// Guest-side behaviour counters.
    pub fn stats(&self) -> GuestStats {
        self.counters.snapshot()
    }

    /// Async calls still tracked for a possible failure reply or resend.
    /// A completed sync call retires every async call issued before it.
    pub fn pending_async(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Invokes `name` with wire-form arguments.
    ///
    /// Input buffers are passed as [`Value::Bytes`]/[`Value::List`];
    /// output-only pointer parameters as [`Value::Null`] (to suppress the
    /// output) or any placeholder value to request it — by convention
    /// `Value::U64(1)` requests an out-element, and out buffers are
    /// requested with `Value::Null`-or-length placeholders the server
    /// sizes via the spec's `buffer(...)` expression.
    pub fn call(&self, name: &str, args: Vec<Value>) -> Result<CallResult> {
        let desc = Arc::clone(&self.desc);
        let func = desc
            .by_name(name)
            .ok_or_else(|| GuestError::UnknownFunction(name.to_string()))?;
        self.call_fn(func, args)
    }

    /// Invokes a function by descriptor (used by generated clients that
    /// cache descriptors).
    pub fn call_fn(&self, func: &FunctionDesc, args: Vec<Value>) -> Result<CallResult> {
        // Captured before the call id exists; stamped as GuestStart once it
        // does, so the span covers marshal/verify work too.
        let entry_nanos = self.telemetry.now_nanos();

        let env = self.desc.env_for(func, &args);
        self.verify_args(func, &args, &env)?;
        let policy_sync = func
            .is_sync_for(&env, &self.desc.types)
            .map_err(|e| GuestError::BadArgument(e.to_string()))?;
        // Transparent asynchrony is only sound when this invocation has no
        // outputs the application could observe (§4.2).
        let is_sync = policy_sync || func.has_output_for(&args);

        let mut inner = self.inner.lock();
        let call_id = inner.next_call_id;
        inner.next_call_id += 1;

        if !is_sync {
            self.counters.async_calls.inc();
            let (wire_args, resend) =
                self.prepare_args(&mut inner, call_id, func.id, is_sync, args);
            let req = CallRequest {
                call_id,
                fn_id: func.id,
                mode: CallMode::Async,
                args: wire_args,
                budget_us: initial_budget_us(&self.config),
            };
            let batch_limit = self.batch_limit();
            inner.pending.push_back(PendingCall {
                call_id,
                fn_id: func.id,
                resend,
                // A retry can only ever fire when a deadline is armed, so
                // the wire copy is dead weight without one.
                wire: (batch_limit > 0 && self.config.call_deadline.is_some()).then(|| req.clone()),
            });
            if batch_limit > 0 {
                // A batch that aged past the delay budget flushes before
                // this call joins, so coalescing never holds a call back
                // longer than the configured bound.
                if self.age_flush_due(&inner) {
                    self.flush_batch(&mut inner)?;
                }
                if inner.batch.is_empty() {
                    inner.batch_started = Some(Instant::now());
                    inner.batch.reserve(batch_limit);
                }
                inner.batch.push(req);
                self.counters.batched_calls.inc();
                if inner.batch.len() >= batch_limit {
                    self.flush_batch(&mut inner)?;
                }
            } else {
                self.counters.doorbells.inc();
                self.send_with_retry(&Message::Call(req))?;
            }
            // Async calls get no span (success replies are suppressed, so
            // the span could never complete) — only the immediate-return
            // latency the application observes.
            if self.telemetry.enabled() {
                let spent = self.telemetry.now_nanos().saturating_sub(entry_nanos);
                if let Some(h) = self.fn_hists.get(func.id as usize) {
                    h.record(spent);
                }
            }
            // Synthesize the success value immediately.
            let ret = synthesized_success(func);
            return Ok(CallResult {
                ret,
                outputs: Vec::new(),
            });
        }

        // Synchronous path: any batched asyncs ride in the same frame as
        // this call — one transport crossing, one doorbell — instead of a
        // separate flush followed by a second send. The server executes
        // batch members in order, so ordering holds exactly as before.
        self.counters.sync_calls.inc();
        let (wire_args, resend) = self.prepare_args(&mut inner, call_id, func.id, is_sync, args);
        let sync_req = CallRequest {
            call_id,
            fn_id: func.id,
            mode: CallMode::Sync,
            args: wire_args,
            budget_us: initial_budget_us(&self.config),
        };
        let call_msg = if inner.batch.is_empty() {
            Message::Call(sync_req.clone())
        } else {
            inner.batch_started = None;
            let mut batch = std::mem::take(&mut inner.batch);
            batch.push(sync_req.clone());
            Message::Batch(batch)
        };
        self.counters.doorbells.inc();
        self.telemetry
            .span_stage_at(call_id, Stage::GuestStart, entry_nanos, Some(func.id));
        self.telemetry.event_at(
            Tier::Guest,
            EventKind::CallStart,
            call_id,
            u64::from(func.id),
            entry_nanos,
        );
        // Stamped before the send: `send` blocks on modelled sender
        // overhead, so the router may ingest (Queued) before it returns —
        // stamping after would break sent ≤ queued monotonicity.
        self.telemetry.span_stage(call_id, Stage::Sent, None);
        if let Err(e) = self.send_with_retry(&call_msg) {
            self.telemetry.span_abandon(call_id);
            return Err(e);
        }

        // Collect replies until ours arrives, consuming async failure
        // replies on the way (the in-order server guarantees they precede
        // ours; successful async calls are reply-suppressed).
        //
        // With a deadline configured, each attempt waits at most
        // `call_deadline` for the reply and then resends the *same*
        // request: the server deduplicates by call id, so a retry whose
        // original merely sat in a queue cannot execute twice. The whole
        // call never outlives twice the deadline.
        let budget = self
            .config
            .call_deadline
            .map(|d| (Instant::now() + d * 2, d));
        let mut attempt_deadline = budget.map(|(hard, d)| (Instant::now() + d).min(hard));
        let mut attempts_left = self.config.max_retries;
        let mut backoff = self.config.retry_backoff;
        let reply = loop {
            let received = match attempt_deadline {
                None => match self.transport.recv() {
                    Ok(m) => Some(m),
                    Err(e) => {
                        self.telemetry.span_abandon(call_id);
                        return Err(map_transport_err(&e));
                    }
                },
                Some(ad) => {
                    let remaining = ad.saturating_duration_since(Instant::now());
                    match self.transport.recv_timeout(remaining) {
                        Ok(m) => m,
                        Err(e) => {
                            self.telemetry.span_abandon(call_id);
                            return Err(map_transport_err(&e));
                        }
                    }
                }
            };
            let msg = match received {
                Some(m) => m,
                None => {
                    // This attempt's window expired without our reply.
                    let (hard, per_attempt) = budget.expect("timeout implies a deadline");
                    let now = Instant::now();
                    if attempts_left == 0 || now >= hard {
                        self.counters.deadline_exceeded.inc();
                        let attempts = u64::from(self.config.max_retries - attempts_left);
                        self.telemetry.event(
                            Tier::Guest,
                            EventKind::DeadlineExceeded,
                            call_id,
                            attempts,
                        );
                        self.telemetry.span_abandon(call_id);
                        return Err(GuestError::DeadlineExceeded);
                    }
                    attempts_left -= 1;
                    self.counters.retries.inc();
                    let attempt = u64::from(self.config.max_retries - attempts_left);
                    self.telemetry
                        .event(Tier::Guest, EventKind::Retry, call_id, attempt);
                    std::thread::sleep(backoff.min(hard.saturating_duration_since(now)));
                    backoff = backoff.saturating_mul(2);
                    // Abandon the first attempt's span and open a fresh one
                    // for the resend: the router will re-stamp
                    // Queued/Forwarded for the retried request, and letting
                    // those land on the original record would corrupt its
                    // stage ordering (the retry's Queued after the
                    // original's Replied).
                    self.telemetry.span_abandon(call_id);
                    self.telemetry
                        .span_stage(call_id, Stage::GuestStart, Some(func.id));
                    self.telemetry.span_stage(call_id, Stage::Sent, None);
                    // A dropped batch is retried as a unit: still-pending
                    // async calls older than this sync call ride along, and
                    // the server's call-id highwater dedup keeps any member
                    // that did execute from running twice. The frame is
                    // restamped with the *remaining* budget — stamping the
                    // original deadline would let the stack spend time this
                    // call no longer has.
                    let retry_msg = rebuild_retry_frame(
                        &inner,
                        &sync_req,
                        remaining_budget_us(hard, per_attempt),
                    );
                    if let Err(e) = self.transport.send(&retry_msg) {
                        self.telemetry.span_abandon(call_id);
                        return Err(map_transport_err(&e));
                    }
                    attempt_deadline = Some((Instant::now() + per_attempt).min(hard));
                    continue;
                }
            };
            match msg {
                Message::Reply(rep) if rep.call_id == call_id => {
                    if rep.status == ReplyStatus::CacheMiss {
                        // The server could not rematerialize an elided
                        // buffer; retransmit the full payload (repairing
                        // both caches) and keep waiting for the real reply.
                        if let Some(full) = &resend {
                            self.counters.payload_cache_misses.inc();
                            repair_cache(
                                &mut inner.tx_cache,
                                &full.args,
                                self.config.payload_cache_min_bytes,
                            );
                            let mut full = full.clone();
                            if let Some((hard, per_attempt)) = budget {
                                full.budget_us = remaining_budget_us(hard, per_attempt);
                            }
                            if let Err(e) = self.transport.send(&Message::Call(full)) {
                                self.telemetry.span_abandon(call_id);
                                return Err(map_transport_err(&e));
                            }
                            // The NACKed call never executed; give the
                            // resend a fresh attempt window.
                            if let Some((hard, per_attempt)) = budget {
                                attempt_deadline = Some((Instant::now() + per_attempt).min(hard));
                            }
                        } else {
                            // A NACK with nothing to resend means the two
                            // sides disagree about what was elided.
                            self.telemetry.span_abandon(call_id);
                            return Err(GuestError::Protocol(format!(
                                "spurious cache-miss NACK for `{}`",
                                func.name
                            )));
                        }
                        continue;
                    }
                    if rep.status == ReplyStatus::Overloaded {
                        // The stack shed this call before execution. Back
                        // off and resend within the deadline budget; when
                        // the budget or retry allowance runs out, surface
                        // Overloaded (not retryable — pushing harder into
                        // an overloaded stack only deepens the overload).
                        self.counters.overloaded.inc();
                        let now = Instant::now();
                        let can_retry =
                            attempts_left > 0 && budget.map(|(hard, _)| now < hard).unwrap_or(true);
                        if !can_retry {
                            self.telemetry.span_abandon(call_id);
                            return Err(GuestError::Overloaded);
                        }
                        attempts_left -= 1;
                        self.counters.retries.inc();
                        let attempt = u64::from(self.config.max_retries - attempts_left);
                        self.telemetry
                            .event(Tier::Guest, EventKind::Retry, call_id, attempt);
                        let pause = match budget {
                            Some((hard, _)) => backoff.min(hard.saturating_duration_since(now)),
                            None => backoff,
                        };
                        std::thread::sleep(pause);
                        backoff = backoff.saturating_mul(2);
                        self.telemetry.span_abandon(call_id);
                        self.telemetry
                            .span_stage(call_id, Stage::GuestStart, Some(func.id));
                        self.telemetry.span_stage(call_id, Stage::Sent, None);
                        let retry_budget = match budget {
                            Some((hard, per_attempt)) => remaining_budget_us(hard, per_attempt),
                            None => 0,
                        };
                        let retry_msg = rebuild_retry_frame(&inner, &sync_req, retry_budget);
                        if let Err(e) = self.transport.send(&retry_msg) {
                            self.telemetry.span_abandon(call_id);
                            return Err(map_transport_err(&e));
                        }
                        if let Some((hard, per_attempt)) = budget {
                            attempt_deadline = Some((Instant::now() + per_attempt).min(hard));
                        }
                        continue;
                    }
                    break rep;
                }
                Message::Reply(rep) => self.consume_async_reply(&mut inner, rep),
                Message::Control(ControlMessage::CacheEpoch(_)) => {
                    // Reconnect/migration: every previously pushed payload
                    // is gone from the server; start the mirror over.
                    inner.tx_cache.clear();
                }
                _ => {}
            }
        };
        // Close the span before the status branches below: rejected calls
        // still completed a full round trip worth measuring. One clock
        // read serves the span stamp, the histograms and the finish event.
        if self.telemetry.enabled() {
            let end_nanos = self.telemetry.now_nanos();
            self.telemetry
                .span_stage_at(call_id, Stage::GuestEnd, end_nanos, None);
            let spent = end_nanos.saturating_sub(entry_nanos);
            if let Some(h) = self.fn_hists.get(func.id as usize) {
                h.record(spent);
            }
            if let Some(h) = &self.e2e_hist {
                h.record(spent);
            }
            self.telemetry.event_at(
                Tier::Guest,
                EventKind::CallFinish,
                call_id,
                u64::from(func.id),
                end_nanos,
            );
        }
        // The server processes in order, so every async call sent before
        // this sync call has completed; forget its bookkeeping.
        while inner.pending.front().is_some_and(|p| p.call_id < call_id) {
            inner.pending.pop_front();
        }

        match reply.status {
            ReplyStatus::Ok => {}
            ReplyStatus::PolicyRejected => return Err(GuestError::PolicyRejected),
            ReplyStatus::TransportError => {
                return Err(GuestError::Protocol(format!(
                    "server failed to execute `{}`",
                    func.name
                )))
            }
            // Consumed inside the receive loop; escaping here means the
            // resend machinery failed to converge.
            ReplyStatus::CacheMiss => {
                return Err(GuestError::Protocol(format!(
                    "unresolved cache-miss NACK for `{}`",
                    func.name
                )))
            }
            // The router answers for a lane whose server is gone and
            // unrecoverable: fail cleanly instead of hanging.
            ReplyStatus::Unavailable => return Err(GuestError::Unavailable),
            ReplyStatus::QuotaExceeded => return Err(GuestError::QuotaExceeded),
            // Consumed inside the receive loop (retried with backoff);
            // escaping here means the retry machinery failed to converge.
            ReplyStatus::Overloaded => return Err(GuestError::Overloaded),
        }

        // Deliver a deferred async failure through this call's status
        // return, as §4.2 describes (at the cost of fidelity).
        let mut ret = reply.ret;
        if let Some(deferred) = inner.deferred_error.take() {
            if matches!(func.ret, RetDesc::Status { .. }) && ret_is_success(func, &ret) {
                ret = deferred;
                self.counters.deferred_errors_delivered.inc();
            } else {
                inner.deferred_error = Some(deferred);
            }
        }
        Ok(CallResult {
            ret,
            outputs: reply.outputs,
        })
    }

    /// The effective batch size limit: `batch_max_calls` wins over the
    /// legacy `batch_max`, and both are clamped to the protocol's
    /// per-frame cap so the guest can never build an undecodable frame.
    fn batch_limit(&self) -> usize {
        let limit = if self.config.batch_max_calls > 0 {
            self.config.batch_max_calls
        } else {
            self.config.batch_max
        };
        limit.min(MAX_BATCH_CALLS)
    }

    /// True when the open batch has outlived `batch_max_delay_us`.
    fn age_flush_due(&self, inner: &Inner) -> bool {
        self.config.batch_max_delay_us > 0
            && !inner.batch.is_empty()
            && inner.batch_started.is_some_and(|t| {
                t.elapsed() >= Duration::from_micros(self.config.batch_max_delay_us)
            })
    }

    /// Flushes any coalesced-but-unsent async calls immediately. Useful
    /// when the application knows it is about to go idle and no sync call
    /// will arrive to act as a flush barrier.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_batch(&mut inner)
    }

    /// Sends any batched calls as a single transport crossing. A batch of
    /// one goes out as a plain `Call` — single calls never pay the batch
    /// framing overhead.
    fn flush_batch(&self, inner: &mut Inner) -> Result<()> {
        if inner.batch.is_empty() {
            return Ok(());
        }
        inner.batch_started = None;
        let mut batch = std::mem::take(&mut inner.batch);
        let msg = if batch.len() == 1 {
            Message::Call(batch.pop().expect("len checked"))
        } else {
            Message::Batch(batch)
        };
        self.counters.doorbells.inc();
        self.send_with_retry(&msg)
    }

    /// Sends one message, retrying transient failures with bounded
    /// exponential backoff. Fatal errors (orderly close, hard disconnect,
    /// poison) are not retried — the endpoint is gone. Resending a frame
    /// the peer already received is safe: the server deduplicates calls by
    /// call id.
    fn send_with_retry(&self, msg: &Message) -> Result<()> {
        let mut attempts_left = self.config.max_retries;
        let mut backoff = self.config.retry_backoff;
        loop {
            match self.transport.send(msg) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_fatal() || attempts_left == 0 => {
                    return Err(map_transport_err(&e));
                }
                Err(_) => {
                    attempts_left -= 1;
                    self.counters.retries.inc();
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
    }

    /// Probes end-to-end liveness: sends a heartbeat through the router to
    /// the API server and waits up to `timeout` for the acknowledgement.
    /// `Ok(false)` means the heartbeat went unanswered — the server is
    /// dead, wedged, or its lane is down — while `Err` means this guest's
    /// own transport is gone. Async failure replies and cache-epoch
    /// announcements arriving in the window are consumed as usual.
    pub fn probe_liveness(&self, timeout: Duration) -> Result<bool> {
        let mut inner = self.inner.lock();
        // Heartbeat nonces share the call-id namespace so they stay unique
        // per connection; the skipped call id is harmless (ids only ever
        // need to be strictly increasing).
        let nonce = inner.next_call_id;
        inner.next_call_id += 1;
        self.send_with_retry(&Message::Control(ControlMessage::Heartbeat(nonce)))?;
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(false);
            }
            match self.transport.recv_timeout(remaining) {
                Ok(Some(Message::Control(ControlMessage::HeartbeatAck(n)))) if n == nonce => {
                    return Ok(true);
                }
                Ok(Some(Message::Reply(rep))) => self.consume_async_reply(&mut inner, rep),
                Ok(Some(Message::Control(ControlMessage::CacheEpoch(_)))) => {
                    inner.tx_cache.clear();
                }
                Ok(_) => {}
                Err(e) => return Err(map_transport_err(&e)),
            }
        }
    }

    /// Runs transfer-cache elision over `args`. Returns the wire-form
    /// arguments plus — whenever the cache is enabled — a full-payload copy
    /// of the request, kept so a `CacheMiss` NACK can be answered with a
    /// retransmission.
    fn prepare_args(
        &self,
        inner: &mut Inner,
        call_id: CallId,
        fn_id: FnId,
        is_sync: bool,
        args: Vec<Value>,
    ) -> (Vec<Value>, Option<CallRequest>) {
        if self.config.payload_cache_entries == 0 {
            return (args, None);
        }
        let min = self.config.payload_cache_min_bytes;
        let wire_args: Vec<Value> = args
            .iter()
            .map(|arg| match arg {
                Value::Bytes(b) if b.len() >= min => {
                    let digest = digest64(b);
                    if inner.tx_cache.get(digest).is_some() {
                        self.counters.payload_cache_hits.inc();
                        self.counters.bytes_elided.add(b.len() as u64);
                        Value::CachedBytes {
                            digest,
                            len: b.len() as u64,
                        }
                    } else {
                        inner.tx_cache.insert(digest, ());
                        arg.clone()
                    }
                }
                other => other.clone(),
            })
            .collect();
        let resend = CallRequest {
            call_id,
            fn_id,
            mode: if is_sync {
                CallMode::Sync
            } else {
                CallMode::Async
            },
            args,
            budget_us: initial_budget_us(&self.config),
        };
        (wire_args, Some(resend))
    }

    /// Processes a reply to an earlier asynchronous call: a `CacheMiss`
    /// NACK triggers a full-payload retransmission (the call has not
    /// executed and stays pending); any failure is remembered for deferred
    /// delivery.
    fn consume_async_reply(&self, inner: &mut Inner, rep: CallReply) {
        let pending = inner
            .pending
            .binary_search_by_key(&rep.call_id, |p| p.call_id)
            .ok();
        if rep.status == ReplyStatus::CacheMiss {
            let full = pending.and_then(|i| inner.pending[i].resend.clone());
            if let Some(full) = full {
                self.counters.payload_cache_misses.inc();
                repair_cache(
                    &mut inner.tx_cache,
                    &full.args,
                    self.config.payload_cache_min_bytes,
                );
                let _ = self.transport.send(&Message::Call(full));
            }
            return;
        }
        // Shed async calls DO get an Overloaded reply (the router answers
        // both modes for overload, unlike Unavailable) precisely so this
        // counter can reconcile against the router's shed accounting.
        if rep.status == ReplyStatus::Overloaded {
            self.counters.overloaded.inc();
        }
        let Some(PendingCall { fn_id, .. }) = pending.and_then(|i| inner.pending.remove(i)) else {
            return;
        };
        if inner.deferred_error.is_some() {
            return; // Keep the first failure.
        }
        let Some(func) = self.desc.by_id(fn_id) else {
            return;
        };
        let failed = rep.status != ReplyStatus::Ok || !ret_is_success(func, &rep.ret);
        if failed {
            let err_value = if rep.status == ReplyStatus::Ok {
                rep.ret
            } else {
                // Transport/policy failure of an async call: synthesize a
                // generic failure status if the return type allows it.
                match func.ret {
                    RetDesc::Status {
                        kind: ScalarKind::I32,
                        ..
                    } => Value::I32(-9999),
                    RetDesc::Status { .. } => Value::I64(-9999),
                    _ => return,
                }
            };
            inner.deferred_error = Some(err_value);
        }
    }

    /// Client-side argument verification against the descriptor; `env`
    /// binds `args` to `func`'s parameter names.
    fn verify_args(&self, func: &FunctionDesc, args: &[Value], env: &EvalEnv<'_>) -> Result<()> {
        if args.len() != func.params.len() {
            return Err(GuestError::BadArgument(format!(
                "`{}` takes {} arguments, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        for (param, arg) in func.params.iter().zip(args.iter()) {
            match (&param.transfer, arg) {
                (Transfer::Scalar(_), v)
                    if v.as_i64().is_some() || matches!(v, Value::F32(_) | Value::F64(_)) => {}
                (Transfer::Handle { .. }, Value::Handle(_)) => {}
                (Transfer::Handle { .. }, Value::Null) if param.nullable => {}
                (Transfer::Str, Value::Str(_)) => {}
                (Transfer::Str, Value::Null) if param.nullable => {}
                (Transfer::Callback | Transfer::Opaque, _) => {}
                (Transfer::OutElement { .. }, _) => {}
                (Transfer::Buffer { len, elem }, value) => {
                    let is_out_only = matches!(param.direction, ava_spec::Direction::Out);
                    if value.is_null() {
                        continue; // permissible for nullable/out buffers
                    }
                    let expected = len
                        .eval_size(env, &self.desc.types)
                        .map_err(|e| GuestError::BadArgument(e.to_string()))?;
                    match (elem, value) {
                        (ElemKind::Handle { .. }, Value::List(items)) => {
                            if items.len() != expected {
                                return Err(GuestError::BadArgument(format!(
                                    "`{}`: handle list has {} entries, spec says {}",
                                    param.name,
                                    items.len(),
                                    expected
                                )));
                            }
                        }
                        (ElemKind::Bytes { elem_size }, Value::Bytes(bytes)) => {
                            if !is_out_only && bytes.len() != expected * elem_size {
                                return Err(GuestError::BadArgument(format!(
                                    "`{}`: buffer is {} bytes, spec expression \
                                     gives {}",
                                    param.name,
                                    bytes.len(),
                                    expected * elem_size
                                )));
                            }
                        }
                        (_, Value::U64(_)) if is_out_only => {}
                        (_, other) => {
                            return Err(GuestError::BadArgument(format!(
                                "`{}`: unexpected value shape {other:?}",
                                param.name
                            )))
                        }
                    }
                }
                (_, other) => {
                    return Err(GuestError::BadArgument(format!(
                        "`{}`: unexpected value shape {other:?}",
                        param.name
                    )))
                }
            }
        }
        Ok(())
    }
}

/// Maps a transport error onto the guest error taxonomy: peer *failures*
/// (hard disconnect, poisoned state) become [`GuestError::Unavailable`];
/// everything else stays a transient [`GuestError::Transport`].
fn map_transport_err(e: &ava_transport::TransportError) -> GuestError {
    if e.is_failure() {
        GuestError::Unavailable
    } else {
        GuestError::Transport(e.to_string())
    }
}

/// The synthesized immediate return for a transparently-async call.
fn synthesized_success(func: &FunctionDesc) -> Value {
    match func.ret {
        RetDesc::Status { kind, success } => match kind {
            ScalarKind::I32 => Value::I32(success as i32),
            ScalarKind::I64 => Value::I64(success),
            ScalarKind::U32 => Value::U32(success as u32),
            ScalarKind::U64 => Value::U64(success as u64),
            ScalarKind::Bool => Value::Bool(success != 0),
            ScalarKind::F32 => Value::F32(success as f32),
            ScalarKind::F64 => Value::F64(success as f64),
        },
        _ => Value::Unit,
    }
}

/// Re-inserts the digests of every cache-eligible buffer in `args` after a
/// `CacheMiss` resend: the server inserts them on receipt, so doing the same
/// here keeps the two caches mirrored.
fn repair_cache(cache: &mut DigestLru<()>, args: &[Value], min_bytes: usize) {
    for arg in args {
        if let Value::Bytes(b) = arg {
            if b.len() >= min_bytes {
                cache.insert(digest64(b), ());
            }
        }
    }
}

/// The frame for a sync-call retry. Any still-pending async calls older
/// than the sync call are re-delivered in the same batch (in call-id
/// order) so a batch dropped in transit is retried as a unit; members the
/// server already executed are deduplicated by its call-id highwater.
///
/// Every member is restamped with `budget_us` — the budget *remaining*
/// now, not the original per-call deadline. The frame leaves the guest at
/// this instant, and downstream tiers measure their queue wait against the
/// stamp; carrying the original deadline would grant retried calls time
/// the application is no longer willing to wait.
fn rebuild_retry_frame(inner: &Inner, sync_req: &CallRequest, budget_us: u64) -> Message {
    let mut sync_req = sync_req.clone();
    sync_req.budget_us = budget_us;
    let mut riders: Vec<CallRequest> = inner
        .pending
        .iter()
        .take_while(|p| p.call_id < sync_req.call_id)
        .filter_map(|p| p.wire.clone())
        .map(|mut r| {
            r.budget_us = budget_us;
            r
        })
        .collect();
    if riders.is_empty() {
        return Message::Call(sync_req);
    }
    riders.push(sync_req);
    Message::Batch(riders)
}

/// `Duration` → whole microseconds, saturating.
fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The deadline budget stamped on a freshly-sent call: the per-attempt
/// deadline (a frame older than one attempt window is already being
/// retried, so downstream work on it is wasted), floored at 1 µs because 0
/// on the wire means "no deadline". `None` deadline stamps 0.
fn initial_budget_us(config: &GuestConfig) -> u64 {
    config.call_deadline.map_or(0, |d| duration_us(d).max(1))
}

/// The budget for a retry frame: the per-attempt window, clipped to what
/// is left of the hard 2×deadline budget (floored at 1 µs — the caller
/// only retries while inside the hard budget).
fn remaining_budget_us(hard: Instant, per_attempt: Duration) -> u64 {
    let left = hard
        .saturating_duration_since(Instant::now())
        .min(per_attempt);
    duration_us(left).max(1)
}

/// True if `ret` equals the function's declared success value (non-status
/// returns always count as success).
fn ret_is_success(func: &FunctionDesc, ret: &Value) -> bool {
    match &func.ret {
        RetDesc::Status { success, .. } => ret.as_i64() == Some(*success),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_spec::{compile_spec, LowerOptions, MapResolver};
    use ava_transport::{CostModel, TransportKind};
    use ava_wire::ControlMessage;

    const SPEC: &str = r#"
api("toy", 1);
#define TOY_OK 0
#define TOY_FAIL -7
typedef int toy_status;
typedef struct _toy_buf *toy_buf;
type(toy_status) { success(TOY_OK); }
toy_status toy_init(unsigned int flags) { sync; }
toy_buf toy_create(size_t size) { }
toy_status toy_poke(toy_buf buf, unsigned int v) { async; }
toy_status toy_write(toy_buf buf, const void *data, size_t data_size) {
  async;
  parameter(data) { buffer(data_size); }
}
toy_status toy_read(toy_buf buf, void *out, size_t out_size) {
  parameter(out) { out; buffer(out_size); }
}
toy_status toy_store(toy_buf buf, const void *data, size_t data_size) {
  sync;
  parameter(data) { buffer(data_size); }
}
"#;

    fn descriptor() -> Arc<ApiDescriptor> {
        Arc::new(compile_spec(SPEC, &MapResolver::new(), LowerOptions::default()).unwrap())
    }

    /// A scripted fake server: executes calls with canned behaviour.
    fn spawn_server(
        server: BoxedTransport,
        fail_poke: bool,
    ) -> std::thread::JoinHandle<Vec<CallRequest>> {
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Ok(msg) = server.recv() {
                let reqs = match msg {
                    Message::Call(req) => vec![req],
                    Message::Batch(reqs) => reqs,
                    Message::Control(ControlMessage::Shutdown) => break,
                    Message::Control(ControlMessage::Heartbeat(n)) => {
                        let ack = Message::Control(ControlMessage::HeartbeatAck(n));
                        if server.send(&ack).is_err() {
                            return seen;
                        }
                        continue;
                    }
                    _ => continue,
                };
                for req in reqs {
                    let mode = req.mode;
                    let (ret, outputs) = match req.fn_id {
                        0 => (Value::I32(0), vec![]),                              // toy_init
                        1 => (Value::Handle(0x4000_0001), vec![]),                 // toy_create
                        2 => (Value::I32(if fail_poke { -7 } else { 0 }), vec![]), // toy_poke
                        3 => (Value::I32(0), vec![]),                              // toy_write
                        4 => {
                            let n = req.args[2].as_u64().unwrap_or(0) as usize;
                            (
                                Value::I32(0),
                                vec![(1u32, Value::Bytes(vec![0xEE; n].into()))],
                            )
                        }
                        _ => (Value::I32(-1), vec![]),
                    };
                    seen.push(req);
                    let reply = ava_wire::CallReply {
                        call_id: seen.last().expect("just pushed").call_id,
                        status: ReplyStatus::Ok,
                        ret,
                        outputs,
                    };
                    let _ = mode;
                    if server.send(&Message::Reply(reply)).is_err() {
                        return seen;
                    }
                }
            }
            seen
        })
    }

    fn setup(
        fail_poke: bool,
        batch: usize,
    ) -> (GuestLibrary, std::thread::JoinHandle<Vec<CallRequest>>) {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let server = spawn_server(server_end, fail_poke);
        let lib = GuestLibrary::new(
            descriptor(),
            guest_end,
            GuestConfig {
                batch_max: batch,
                ..GuestConfig::default()
            },
        );
        (lib, server)
    }

    fn shutdown(lib: GuestLibrary) {
        // Dropping the transport closes the channel and stops the server.
        drop(lib);
    }

    #[test]
    fn sync_call_round_trips() {
        let (lib, server) = setup(false, 0);
        let result = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(result.ret, Value::I32(0));
        assert_eq!(lib.stats().sync_calls, 1);
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn handle_return_flows_back() {
        let (lib, server) = setup(false, 0);
        let result = lib.call("toy_create", vec![Value::U64(64)]).unwrap();
        assert_eq!(result.ret, Value::Handle(0x4000_0001));
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn async_call_returns_synthesized_success_immediately() {
        let (lib, server) = setup(false, 0);
        let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
        let result = lib
            .call("toy_poke", vec![h.clone(), Value::U32(5)])
            .unwrap();
        assert_eq!(result.ret, Value::I32(0), "synthesized TOY_OK");
        assert_eq!(lib.stats().async_calls, 1);
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn async_failure_is_delivered_by_next_sync_call() {
        let (lib, server) = setup(true, 0);
        let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
        // Async poke fails server-side with TOY_FAIL (-7), but the guest
        // sees immediate success.
        let r = lib
            .call("toy_poke", vec![h.clone(), Value::U32(1)])
            .unwrap();
        assert_eq!(r.ret, Value::I32(0));
        // The next synchronous status call delivers the deferred error.
        let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(r.ret, Value::I32(-7), "deferred error surfaces here");
        assert_eq!(lib.stats().deferred_errors_delivered, 1);
        // And it is delivered exactly once.
        let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(r.ret, Value::I32(0));
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn out_buffer_comes_back() {
        let (lib, server) = setup(false, 0);
        let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
        let r = lib
            .call("toy_read", vec![h, Value::Null, Value::U64(4)])
            .unwrap();
        assert_eq!(
            r.output(1).unwrap(),
            &Value::Bytes(vec![0xEE, 0xEE, 0xEE, 0xEE].into())
        );
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn batching_coalesces_async_calls() {
        let (lib, server) = setup(false, 16);
        let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
        for i in 0..5 {
            lib.call("toy_poke", vec![h.clone(), Value::U32(i)])
                .unwrap();
        }
        assert_eq!(lib.pending_async(), 5);
        // A sync call flushes the batch and orders after it.
        lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(lib.stats().batched_calls, 5);
        assert_eq!(lib.pending_async(), 0, "the sync reply retired them all");
        shutdown(lib);
        let seen = server.join().unwrap();
        // Server saw create, then the 5 pokes, then init — in order.
        let names: Vec<u32> = seen.iter().map(|r| r.fn_id).collect();
        assert_eq!(names, vec![1, 2, 2, 2, 2, 2, 0]);
    }

    #[test]
    fn batch_flushes_when_full() {
        let (lib, server) = setup(false, 2);
        let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
        lib.call("toy_poke", vec![h.clone(), Value::U32(0)])
            .unwrap();
        lib.call("toy_poke", vec![h.clone(), Value::U32(1)])
            .unwrap();
        // Batch max is 2: both pokes must already be on the wire without
        // any sync call. Give the server a moment, then check stats only
        // (transport visibility is covered by the ordering test above).
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(lib.stats().batched_calls, 2);
        shutdown(lib);
        let seen = server.join().unwrap();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn buffer_size_verification_catches_mismatch() {
        let (lib, server) = setup(false, 0);
        let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
        // data_size says 4 but we pass 3 bytes.
        let err = lib
            .call(
                "toy_write",
                vec![h, Value::Bytes(vec![1, 2, 3].into()), Value::U64(4)],
            )
            .unwrap_err();
        assert!(matches!(err, GuestError::BadArgument(_)), "{err}");
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn unknown_function_rejected_locally() {
        let (lib, server) = setup(false, 0);
        assert!(matches!(
            lib.call("toy_nonexistent", vec![]).unwrap_err(),
            GuestError::UnknownFunction(_)
        ));
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn wrong_arity_rejected_locally() {
        let (lib, server) = setup(false, 0);
        assert!(matches!(
            lib.call("toy_init", vec![]).unwrap_err(),
            GuestError::BadArgument(_)
        ));
        shutdown(lib);
        server.join().unwrap();
    }

    /// The shape of one observed call-carrying frame: `(was_batch, fn_ids)`.
    type FrameLog = Vec<(bool, Vec<u32>)>;

    /// Records the shape of every call-carrying frame as
    /// `(was_batch, fn_ids)` in arrival order, replying to each member.
    fn spawn_frame_server(server: BoxedTransport) -> std::thread::JoinHandle<FrameLog> {
        std::thread::spawn(move || {
            let mut frames = Vec::new();
            while let Ok(msg) = server.recv() {
                let (was_batch, reqs) = match msg {
                    Message::Call(req) => (false, vec![req]),
                    Message::Batch(reqs) => (true, reqs),
                    Message::Control(ControlMessage::Shutdown) => break,
                    _ => continue,
                };
                frames.push((was_batch, reqs.iter().map(|r| r.fn_id).collect()));
                for req in reqs {
                    let ret = match req.fn_id {
                        1 => Value::Handle(0x4000_0001), // toy_create
                        _ => Value::I32(0),
                    };
                    let reply = ava_wire::CallReply {
                        call_id: req.call_id,
                        status: ReplyStatus::Ok,
                        ret,
                        outputs: vec![],
                    };
                    if server.send(&Message::Reply(reply)).is_err() {
                        return frames;
                    }
                }
            }
            frames
        })
    }

    fn setup_frames(config: GuestConfig) -> (GuestLibrary, std::thread::JoinHandle<FrameLog>) {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let server = spawn_frame_server(server_end);
        let lib = GuestLibrary::new(descriptor(), guest_end, config);
        (lib, server)
    }

    #[test]
    fn sync_call_rides_in_the_batch_frame() {
        let (lib, server) = setup_frames(GuestConfig {
            batch_max_calls: 16,
            ..GuestConfig::default()
        });
        let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
        for i in 0..3 {
            lib.call("toy_poke", vec![h.clone(), Value::U32(i)])
                .unwrap();
        }
        lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(lib.stats().doorbells, 2, "create + one coalesced frame");
        shutdown(lib);
        let frames = server.join().unwrap();
        // The sync init shares a single frame with the three pokes.
        assert_eq!(frames, vec![(false, vec![1]), (true, vec![2, 2, 2, 0])]);
    }

    #[test]
    fn explicit_flush_drains_partial_batches() {
        let (lib, server) = setup_frames(GuestConfig {
            batch_max_calls: 16,
            ..GuestConfig::default()
        });
        let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
        lib.call("toy_poke", vec![h.clone(), Value::U32(0)])
            .unwrap();
        lib.flush().unwrap();
        lib.call("toy_poke", vec![h.clone(), Value::U32(1)])
            .unwrap();
        lib.call("toy_poke", vec![h.clone(), Value::U32(2)])
            .unwrap();
        lib.flush().unwrap();
        lib.flush().unwrap(); // a second flush of an empty batch is a no-op
        assert_eq!(lib.stats().doorbells, 3);
        // A trailing sync call (on an empty batch) both proves single
        // calls skip batch framing and serializes against the server
        // before shutdown.
        lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        shutdown(lib);
        let frames = server.join().unwrap();
        // A flushed batch of one goes out as a plain call (no batch
        // framing penalty for singles); two or more as a batch.
        assert_eq!(
            frames,
            vec![
                (false, vec![1]),
                (false, vec![2]),
                (true, vec![2, 2]),
                (false, vec![0])
            ]
        );
    }

    #[test]
    fn stale_batch_age_flushes_before_the_next_call_joins() {
        let (lib, server) = setup_frames(GuestConfig {
            batch_max_calls: 16,
            batch_max_delay_us: 500,
            ..GuestConfig::default()
        });
        let h = Value::Handle(0x77); // scripted server: any handle works
        lib.call("toy_poke", vec![h.clone(), Value::U32(0)])
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        lib.call("toy_poke", vec![h.clone(), Value::U32(1)])
            .unwrap();
        lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        shutdown(lib);
        let frames = server.join().unwrap();
        // The first poke aged out and went alone; the second coalesced
        // with the flushing sync call.
        assert_eq!(frames, vec![(false, vec![2]), (true, vec![2, 0])]);
    }

    /// A lossy server that swallows the first `drop_frames` call-carrying
    /// frames whole (batches included), then executes with call-id
    /// highwater dedup — replying only to sync members, like the real
    /// server suppresses async successes.
    fn spawn_lossy_batch_server(
        server: BoxedTransport,
        drop_frames: usize,
    ) -> std::thread::JoinHandle<Vec<CallId>> {
        std::thread::spawn(move || {
            let mut dropped = 0usize;
            let mut highwater = 0u64;
            let mut executed = Vec::new();
            while let Ok(msg) = server.recv() {
                let reqs = match msg {
                    Message::Call(req) => vec![req],
                    Message::Batch(reqs) => reqs,
                    _ => continue,
                };
                if dropped < drop_frames {
                    dropped += 1;
                    continue;
                }
                for req in reqs {
                    if req.call_id > highwater {
                        highwater = req.call_id;
                        executed.push(req.call_id);
                    }
                    let reply = ava_wire::CallReply {
                        call_id: req.call_id,
                        status: ReplyStatus::Ok,
                        ret: Value::I32(0),
                        outputs: vec![],
                    };
                    if req.mode == CallMode::Sync && server.send(&Message::Reply(reply)).is_err() {
                        return executed;
                    }
                }
            }
            executed
        })
    }

    #[test]
    fn dropped_batch_is_retried_as_a_unit() {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let server = spawn_lossy_batch_server(server_end, 1);
        let config = GuestConfig {
            batch_max_calls: 16,
            ..deadline_config(40, 3)
        };
        let lib = GuestLibrary::new(descriptor(), guest_end, config);
        let h = Value::Handle(0x77);
        lib.call("toy_poke", vec![h.clone(), Value::U32(1)])
            .unwrap();
        lib.call("toy_poke", vec![h.clone(), Value::U32(2)])
            .unwrap();
        // The sync call coalesces with both pokes; the whole frame is
        // dropped in transit and must be re-delivered as one unit.
        let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(r.ret, Value::I32(0));
        assert!(lib.stats().retries >= 1, "the dropped batch forced a retry");
        shutdown(lib);
        let executed = server.join().unwrap();
        assert_eq!(executed.len(), 3, "both pokes and the init executed");
        let mut uniq = executed.clone();
        uniq.dedup();
        assert_eq!(uniq, executed, "retry-as-a-unit never double-executes");
    }

    /// A scripted server that mirrors the transfer-cache protocol: inserts
    /// received eligible buffers, rematerializes `CachedBytes`, NACKs on
    /// miss, and optionally wipes its cache after `wipe_after` executions
    /// to force a desync.
    fn spawn_cache_server(
        server: BoxedTransport,
        entries: usize,
        min: usize,
        wipe_after: Option<usize>,
    ) -> std::thread::JoinHandle<Vec<CallRequest>> {
        std::thread::spawn(move || {
            let mut rx: DigestLru<Vec<u8>> = DigestLru::new(entries);
            let mut seen = Vec::new();
            let mut executed = 0usize;
            while let Ok(msg) = server.recv() {
                let reqs = match msg {
                    Message::Call(req) => vec![req],
                    Message::Batch(reqs) => reqs,
                    Message::Control(ControlMessage::Shutdown) => break,
                    _ => continue,
                };
                for mut req in reqs {
                    seen.push(req.clone());
                    let mut missed = false;
                    for arg in req.args.iter_mut() {
                        match arg {
                            Value::Bytes(b) if b.len() >= min => {
                                rx.insert(digest64(b), b.to_vec());
                            }
                            Value::CachedBytes { digest, .. } => match rx.get(*digest) {
                                Some(data) => *arg = Value::Bytes(data.clone().into()),
                                None => {
                                    missed = true;
                                    break;
                                }
                            },
                            _ => {}
                        }
                    }
                    if missed {
                        let nack = ava_wire::CallReply {
                            call_id: req.call_id,
                            status: ReplyStatus::CacheMiss,
                            ret: Value::Unit,
                            outputs: vec![],
                        };
                        if server.send(&Message::Reply(nack)).is_err() {
                            return seen;
                        }
                        continue;
                    }
                    executed += 1;
                    if wipe_after == Some(executed) {
                        rx.clear();
                    }
                    let ret = match req.fn_id {
                        1 => Value::Handle(0x4000_0001), // toy_create
                        _ => Value::I32(0),              // toy_init / toy_store / toy_write
                    };
                    let reply = ava_wire::CallReply {
                        call_id: req.call_id,
                        status: ReplyStatus::Ok,
                        ret,
                        outputs: vec![],
                    };
                    if server.send(&Message::Reply(reply)).is_err() {
                        return seen;
                    }
                }
            }
            seen
        })
    }

    fn setup_cached(
        entries: usize,
        wipe_after: Option<usize>,
    ) -> (GuestLibrary, std::thread::JoinHandle<Vec<CallRequest>>) {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let config = GuestConfig {
            batch_max: 0,
            payload_cache_entries: entries,
            payload_cache_min_bytes: 8,
            ..GuestConfig::default()
        };
        let server = spawn_cache_server(server_end, entries, 8, wipe_after);
        let lib = GuestLibrary::new(descriptor(), guest_end, config);
        (lib, server)
    }

    #[test]
    fn repeated_buffer_is_elided_on_the_wire() {
        let (lib, server) = setup_cached(8, None);
        let h = lib.call("toy_create", vec![Value::U64(64)]).unwrap().ret;
        let data = vec![7u8; 32];
        for _ in 0..3 {
            let r = lib
                .call(
                    "toy_store",
                    vec![h.clone(), Value::Bytes(data.clone().into()), Value::U64(32)],
                )
                .unwrap();
            assert_eq!(r.ret, Value::I32(0));
        }
        let stats = lib.stats();
        assert_eq!(stats.payload_cache_hits, 2, "second and third sends hit");
        assert_eq!(stats.payload_cache_misses, 0);
        assert_eq!(stats.bytes_elided, 64);
        shutdown(lib);
        let seen = server.join().unwrap();
        // On the wire: create, store(full), store(elided), store(elided).
        let stores: Vec<&CallRequest> = seen.iter().filter(|r| r.fn_id == 5).collect();
        assert_eq!(stores.len(), 3);
        assert!(matches!(stores[0].args[1], Value::Bytes(_)));
        assert!(matches!(stores[1].args[1], Value::CachedBytes { .. }));
        assert!(matches!(stores[2].args[1], Value::CachedBytes { .. }));
    }

    #[test]
    fn small_buffers_are_never_elided() {
        let (lib, server) = setup_cached(8, None);
        let h = lib.call("toy_create", vec![Value::U64(64)]).unwrap().ret;
        let tiny = vec![1u8; 4]; // below the 8-byte eligibility floor
        for _ in 0..2 {
            lib.call(
                "toy_store",
                vec![h.clone(), Value::Bytes(tiny.clone().into()), Value::U64(4)],
            )
            .unwrap();
        }
        assert_eq!(lib.stats().payload_cache_hits, 0);
        shutdown(lib);
        let seen = server.join().unwrap();
        assert!(seen
            .iter()
            .filter(|r| r.fn_id == 5)
            .all(|r| matches!(r.args[1], Value::Bytes(_))));
    }

    #[test]
    fn forced_server_eviction_heals_via_nack_resend() {
        // The server wipes its payload cache after the second execution
        // (create + first store), desynchronizing the mirrors. The next
        // elided store must NACK, resend, and still succeed.
        let (lib, server) = setup_cached(8, Some(2));
        let h = lib.call("toy_create", vec![Value::U64(64)]).unwrap().ret;
        let data = vec![9u8; 16];
        for _ in 0..3 {
            let r = lib
                .call(
                    "toy_store",
                    vec![h.clone(), Value::Bytes(data.clone().into()), Value::U64(16)],
                )
                .unwrap();
            assert_eq!(r.ret, Value::I32(0), "store succeeds despite desync");
        }
        let stats = lib.stats();
        assert_eq!(stats.payload_cache_misses, 1, "exactly one NACK round");
        // Store #2 hit (elided, then NACKed + resent); store #3 hit again
        // after both caches were repaired by the resend.
        assert_eq!(stats.payload_cache_hits, 2);
        shutdown(lib);
        let seen = server.join().unwrap();
        let stores: Vec<&CallRequest> = seen.iter().filter(|r| r.fn_id == 5).collect();
        // full, elided (NACKed), full resend, elided.
        assert_eq!(stores.len(), 4);
        assert!(matches!(stores[0].args[1], Value::Bytes(_)));
        assert!(matches!(stores[1].args[1], Value::CachedBytes { .. }));
        assert!(matches!(stores[2].args[1], Value::Bytes(_)));
        assert!(matches!(stores[3].args[1], Value::CachedBytes { .. }));
    }

    /// A lossy scripted server: swallows the first `drop_first` Call
    /// frames (modelling dropped requests), then answers every request —
    /// deduplicating by call id the way the real server does, so retried
    /// calls are answered but counted as one execution.
    fn spawn_flaky_server(
        server: BoxedTransport,
        drop_first: usize,
    ) -> std::thread::JoinHandle<u64> {
        std::thread::spawn(move || {
            let mut dropped = 0usize;
            let mut highwater = 0u64;
            let mut executed = 0u64;
            loop {
                let req = match server.recv() {
                    Ok(Message::Call(req)) => req,
                    Ok(_) => continue,
                    Err(_) => break,
                };
                if dropped < drop_first {
                    dropped += 1;
                    continue;
                }
                if req.call_id > highwater {
                    highwater = req.call_id;
                    executed += 1;
                }
                let reply = ava_wire::CallReply {
                    call_id: req.call_id,
                    status: ReplyStatus::Ok,
                    ret: Value::I32(0),
                    outputs: vec![],
                };
                if server.send(&Message::Reply(reply)).is_err() {
                    break;
                }
            }
            executed
        })
    }

    fn deadline_config(deadline_ms: u64, retries: u32) -> GuestConfig {
        GuestConfig {
            call_deadline: Some(std::time::Duration::from_millis(deadline_ms)),
            max_retries: retries,
            retry_backoff: std::time::Duration::from_millis(1),
            ..GuestConfig::default()
        }
    }

    #[test]
    fn dropped_request_is_retried_and_succeeds() {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let server = spawn_flaky_server(server_end, 1);
        let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(40, 3));
        let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(r.ret, Value::I32(0));
        assert!(lib.stats().retries >= 1, "the dropped frame forced a retry");
        shutdown(lib);
        assert_eq!(server.join().unwrap(), 1, "retry must not double-execute");
    }

    #[test]
    fn silent_server_fails_within_twice_the_deadline() {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        // A server that reads but never replies: the worst kind of hang.
        let server = std::thread::spawn(move || while server_end.recv().is_ok() {});
        let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(30, 5));
        let start = std::time::Instant::now();
        let err = lib.call("toy_init", vec![Value::U32(0)]).unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(err, GuestError::DeadlineExceeded);
        assert!(err.is_retryable());
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "2x30ms budget blown: took {elapsed:?}"
        );
        assert_eq!(lib.stats().deadline_exceeded, 1);
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn unavailable_reply_surfaces_as_unavailable() {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let server = std::thread::spawn(move || {
            while let Ok(msg) = server_end.recv() {
                if let Message::Call(req) = msg {
                    let reply = ava_wire::CallReply {
                        call_id: req.call_id,
                        status: ReplyStatus::Unavailable,
                        ret: Value::Unit,
                        outputs: vec![],
                    };
                    if server_end.send(&Message::Reply(reply)).is_err() {
                        break;
                    }
                }
            }
        });
        let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(1000, 0));
        let err = lib.call("toy_init", vec![Value::U32(0)]).unwrap_err();
        assert_eq!(err, GuestError::Unavailable);
        assert!(!err.is_retryable());
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn overloaded_replies_retry_then_surface() {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        // A saturated stack: every attempt is shed with Overloaded.
        let server = std::thread::spawn(move || {
            while let Ok(msg) = server_end.recv() {
                let reqs = match msg {
                    Message::Call(req) => vec![req],
                    Message::Batch(reqs) => reqs,
                    _ => continue,
                };
                for req in reqs {
                    if server_end
                        .send(&Message::Reply(ava_wire::CallReply::overloaded(
                            req.call_id,
                        )))
                        .is_err()
                    {
                        return;
                    }
                }
            }
        });
        let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(200, 2));
        let err = lib.call("toy_init", vec![Value::U32(0)]).unwrap_err();
        assert_eq!(err, GuestError::Overloaded);
        assert!(!err.is_retryable());
        let stats = lib.stats();
        assert_eq!(stats.retries, 2, "both retry slots spent backing off");
        assert_eq!(stats.overloaded, 3, "every shed attempt was counted");
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn overloaded_then_ok_recovers_within_budget() {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        // Transient overload: the first attempt sheds, the retry lands.
        let server = std::thread::spawn(move || {
            let mut shed_done = false;
            while let Ok(msg) = server_end.recv() {
                if let Message::Call(req) = msg {
                    let reply = if shed_done {
                        ava_wire::CallReply {
                            call_id: req.call_id,
                            status: ReplyStatus::Ok,
                            ret: Value::I32(0),
                            outputs: vec![],
                        }
                    } else {
                        shed_done = true;
                        ava_wire::CallReply::overloaded(req.call_id)
                    };
                    if server_end.send(&Message::Reply(reply)).is_err() {
                        break;
                    }
                }
            }
        });
        let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(200, 3));
        let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(r.ret, Value::I32(0));
        let stats = lib.stats();
        assert_eq!(stats.overloaded, 1);
        assert_eq!(stats.retries, 1);
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn retry_frame_carries_remaining_budget_not_original_deadline() {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        // Drop the first frame so the guest retries after one attempt
        // window, and record the budget stamped on every frame seen.
        let server = std::thread::spawn(move || {
            let mut budgets: Vec<u64> = Vec::new();
            let mut dropped = false;
            while let Ok(msg) = server_end.recv() {
                if let Message::Call(req) = msg {
                    budgets.push(req.budget_us);
                    if !dropped {
                        dropped = true;
                        continue;
                    }
                    let reply = ava_wire::CallReply {
                        call_id: req.call_id,
                        status: ReplyStatus::Ok,
                        ret: Value::I32(0),
                        outputs: vec![],
                    };
                    if server_end.send(&Message::Reply(reply)).is_err() {
                        break;
                    }
                }
            }
            budgets
        });
        let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(50, 3));
        lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        shutdown(lib);
        let budgets = server.join().unwrap();
        assert!(budgets.len() >= 2, "expected original + retry frames");
        assert_eq!(budgets[0], 50_000, "fresh call carries the full deadline");
        assert!(
            budgets[1] > 0 && budgets[1] < budgets[0],
            "retry must carry the shrunken remaining budget, got {} then {}",
            budgets[0],
            budgets[1]
        );
    }

    #[test]
    fn liveness_probe_distinguishes_live_from_dead_servers() {
        let (lib, server) = setup(false, 0);
        assert_eq!(
            lib.probe_liveness(std::time::Duration::from_secs(1)),
            Ok(true)
        );
        shutdown(lib);
        server.join().unwrap();

        // A server that reads but never acks: the probe times out false.
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let server = std::thread::spawn(move || while server_end.recv().is_ok() {});
        let lib = GuestLibrary::new(descriptor(), guest_end, GuestConfig::default());
        assert_eq!(
            lib.probe_liveness(std::time::Duration::from_millis(20)),
            Ok(false)
        );
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn duplicate_replies_are_ignored() {
        let (guest_end, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        // A server that answers every sync call twice (a duplicated reply
        // frame): the stale copy must not confuse the next call.
        let server = std::thread::spawn(move || {
            while let Ok(msg) = server_end.recv() {
                if let Message::Call(req) = msg {
                    let reply = ava_wire::CallReply {
                        call_id: req.call_id,
                        status: ReplyStatus::Ok,
                        ret: Value::I32(0),
                        outputs: vec![],
                    };
                    if server_end.send(&Message::Reply(reply.clone())).is_err()
                        || server_end.send(&Message::Reply(reply)).is_err()
                    {
                        break;
                    }
                }
            }
        });
        let lib = GuestLibrary::new(descriptor(), guest_end, GuestConfig::default());
        for _ in 0..3 {
            let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
            assert_eq!(r.ret, Value::I32(0));
        }
        shutdown(lib);
        server.join().unwrap();
    }

    #[test]
    fn async_cache_miss_resends_from_pending() {
        // Async toy_write is elided, the server NACKs it, and the guest —
        // blocked inside the next sync call — resends the full payload
        // from its pending map.
        let (lib, server) = setup_cached(8, Some(2));
        let h = lib.call("toy_create", vec![Value::U64(64)]).unwrap().ret;
        let data = vec![3u8; 24];
        // First write seeds both caches (create + write = 2 executions,
        // after which the server wipes its cache).
        lib.call(
            "toy_write",
            vec![h.clone(), Value::Bytes(data.clone().into()), Value::U64(24)],
        )
        .unwrap();
        // Second write is elided but the server's cache is gone: NACK.
        lib.call(
            "toy_write",
            vec![h.clone(), Value::Bytes(data.clone().into()), Value::U64(24)],
        )
        .unwrap();
        // The sync call pumps the NACK and the resend.
        let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(r.ret, Value::I32(0), "no deferred error: write succeeded");
        let stats = lib.stats();
        assert_eq!(stats.payload_cache_misses, 1);
        shutdown(lib);
        let seen = server.join().unwrap();
        let writes: Vec<&CallRequest> = seen.iter().filter(|r| r.fn_id == 3).collect();
        // full, elided (NACKed), full resend.
        assert_eq!(writes.len(), 3);
        assert!(matches!(writes[0].args[1], Value::Bytes(_)));
        assert!(matches!(writes[1].args[1], Value::CachedBytes { .. }));
        assert!(matches!(writes[2].args[1], Value::Bytes(_)));
    }
}
