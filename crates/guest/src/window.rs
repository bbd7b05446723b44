//! The call window: the calls the guest has issued and not yet retired,
//! and the one place that decides what is sent and resent, when, and with
//! which deadline budget — one send policy, one receive pump, one retry
//! step for missed deadlines and `Overloaded` sheds, one full resend for
//! every `CacheMiss`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ava_spec::{FunctionDesc, RetDesc};
use ava_telemetry::{EventKind, Stage, Tier};
use ava_wire::{
    CallId, CallMode, CallReply, CallRequest, ControlMessage, FnId, Message, ReplyStatus, Value,
    MAX_BATCH_CALLS,
};

use crate::cache::TxCache;
use crate::verify::async_failure;
use crate::{CallResult, GuestConfig, GuestError, GuestLibrary, Result};

/// Bookkeeping for an async call whose reply has not been consumed yet.
struct PendingCall {
    call_id: CallId,
    fn_id: FnId,
    /// Full-payload copy for a `CacheMiss` resend (transfer cache on).
    resend: Option<CallRequest>,
    /// The request as sent, kept while batching under a deadline so a
    /// deadline retry can re-deliver a lost batch as a unit. Cheap: buffer
    /// payloads are refcounted.
    wire: Option<CallRequest>,
}

/// The guest's call window (see the module docs).
pub(crate) struct Window {
    next_call_id: CallId,
    /// Async calls whose replies have not been consumed yet, in call-id
    /// order: ids only grow, and each sync reply retires a prefix.
    pending: VecDeque<PendingCall>,
    /// Batched (not yet sent) async calls.
    batch: Vec<CallRequest>,
    /// When the oldest call in `batch` joined it; drives age-based flush.
    batch_started: Option<Instant>,
    /// First asynchronous failure awaiting delivery.
    deferred_error: Option<Value>,
    tx_cache: TxCache,
}

impl Window {
    pub(crate) fn new(config: &GuestConfig) -> Self {
        Window {
            next_call_id: 1,
            pending: VecDeque::new(),
            batch: Vec::new(),
            batch_started: None,
            deferred_error: None,
            tx_cache: TxCache::new(config),
        }
    }

    /// Allocates the next call id (heartbeat nonces share the namespace).
    pub(crate) fn next_id(&mut self) -> CallId {
        self.next_call_id += 1;
        self.next_call_id - 1
    }

    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Closes the open batch into one frame, `last` (a sync call) appended.
    /// A frame of one call goes out as a plain `Call`, without the batch
    /// framing; the server executes batch members in order.
    fn close_batch(&mut self, last: Option<&CallRequest>) -> Option<Message> {
        if self.batch.is_empty() {
            return last.cloned().map(Message::Call);
        }
        self.batch_started = None;
        let mut batch = std::mem::take(&mut self.batch);
        batch.extend(last.cloned());
        Some(match batch.len() {
            1 => Message::Call(batch.pop().expect("len checked")),
            _ => Message::Batch(batch),
        })
    }

    /// The frame for a sync-call retry. Still-pending async calls older
    /// than the sync call ride along in call-id order, so a batch lost in
    /// transit is retried as a unit; members the server already executed
    /// are deduplicated by its call-id highwater. Every member carries the
    /// budget *remaining* now: the original deadline would grant retried
    /// calls time the application is no longer willing to wait.
    fn retry_frame(&self, sync_req: &CallRequest, budget_us: u64) -> Message {
        let restamp = |r: &CallRequest| CallRequest {
            budget_us,
            ..r.clone()
        };
        let mut riders: Vec<CallRequest> = self
            .pending
            .iter()
            .take_while(|p| p.call_id < sync_req.call_id)
            .filter_map(|p| p.wire.as_ref().map(restamp))
            .collect();
        if riders.is_empty() {
            return Message::Call(restamp(sync_req));
        }
        riders.push(restamp(sync_req));
        Message::Batch(riders)
    }
}

/// A sync call's deadline bookkeeping. With a deadline, each attempt waits
/// at most `call_deadline` and the call never outlives twice that; without
/// one, attempts wait forever and only the retry allowance bounds retries.
struct AttemptClock {
    /// End of the hard budget, and the per-attempt window.
    budget: Option<(Instant, Duration)>,
    attempt_ends: Option<Instant>,
    retries_left: u32,
    /// Pause before the next retry; doubles per retry.
    backoff: Duration,
}

impl AttemptClock {
    /// Starts the clock under `deadline` as the first attempt leaves.
    fn start(config: &GuestConfig, deadline: Option<Duration>) -> Self {
        let budget = deadline.map(|d| (Instant::now() + d * 2, d));
        AttemptClock {
            budget,
            attempt_ends: budget.map(|(hard, d)| hard - d),
            retries_left: config.max_retries,
            backoff: config.retry_backoff,
        }
    }

    /// The budget for a frame sent now: the attempt window, clipped to what
    /// is left of the hard budget.
    fn budget_us(&self) -> u64 {
        let left =
            |(hard, d): (Instant, Duration)| hard.saturating_duration_since(Instant::now()).min(d);
        stamp_us(self.budget.map(left))
    }

    /// Opens a fresh attempt window, clipped to the hard budget.
    fn rearm(&mut self) {
        self.attempt_ends = self.budget.map(|(hard, d)| (Instant::now() + d).min(hard));
    }

    /// Spends one retry, returning the pause to back off first; `None`
    /// once the allowance or the hard budget is spent.
    fn next_retry(&mut self) -> Option<Duration> {
        let left = self
            .budget
            .map(|(hard, _)| hard.saturating_duration_since(Instant::now()));
        if self.retries_left == 0 || left.is_some_and(|l| l.is_zero()) {
            return None;
        }
        self.retries_left -= 1;
        let pause = left.map_or(self.backoff, |l| self.backoff.min(l));
        self.backoff = self.backoff.saturating_mul(2);
        Some(pause)
    }
}

/// The `budget_us` stamp for a call with `left` to live (a fresh call: one
/// attempt window). 0 on the wire means "no deadline", so a deadline
/// stamps at least 1 µs.
fn stamp_us(left: Option<Duration>) -> u64 {
    left.map_or(0, |d| {
        u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1)
    })
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

impl GuestLibrary {
    /// Builds a call's wire request, payloads the server holds elided, and
    /// — with the transfer cache on — its full-payload copy.
    fn marshal(
        &self,
        w: &mut Window,
        call_id: CallId,
        fn_id: FnId,
        mode: CallMode,
        args: Vec<Value>,
    ) -> (CallRequest, Option<CallRequest>) {
        let (wire_args, full) = w.tx_cache.prepare(args, &self.counters);
        let budget_us = stamp_us(self.config.call_deadline);
        let request = |args| CallRequest {
            call_id,
            fn_id,
            mode,
            args,
            budget_us,
        };
        (request(wire_args), full.map(request))
    }

    /// Issues an async call: tracks it as pending, then sends it alone or,
    /// with batching on, joins it to the open batch. The age limit is
    /// checked only here, as a call joins: a stale batch flushes first.
    pub(crate) fn submit_async(
        &self,
        w: &mut Window,
        fn_id: FnId,
        call_id: CallId,
        args: Vec<Value>,
    ) -> Result<()> {
        self.counters.async_calls.inc();
        let (req, resend) = self.marshal(w, call_id, fn_id, CallMode::Async, args);
        // `batch_max_calls` wins over the legacy `batch_max`; both are
        // clamped so the guest can never build an undecodable frame.
        let limit = match self.config.batch_max_calls {
            0 => self.config.batch_max,
            n => n,
        }
        .min(MAX_BATCH_CALLS);
        // Only a deadline retry re-delivers riders (see `retry`).
        let wire = (limit > 0 && self.config.call_deadline.is_some()).then(|| req.clone());
        w.pending.push_back(PendingCall {
            call_id,
            fn_id,
            resend,
            wire,
        });
        if limit == 0 {
            return self.send_frame(&Message::Call(req));
        }
        let max_delay_us = self.config.batch_max_delay_us;
        if max_delay_us > 0
            && w.batch_started
                .is_some_and(|t| t.elapsed() >= Duration::from_micros(max_delay_us))
        {
            self.flush_batch(w)?;
        }
        if w.batch.is_empty() {
            w.batch_started = Some(Instant::now());
            w.batch.reserve(limit);
        }
        w.batch.push(req);
        self.counters.batched_calls.inc();
        if w.batch.len() >= limit {
            self.flush_batch(w)?;
        }
        Ok(())
    }

    /// Sends the open batch, if any, as one frame.
    pub(crate) fn flush_batch(&self, w: &mut Window) -> Result<()> {
        match w.close_batch(None) {
            Some(msg) => self.send_frame(&msg),
            None => Ok(()),
        }
    }

    /// Sends a call-carrying frame the application caused: one doorbell.
    fn send_frame(&self, msg: &Message) -> Result<()> {
        self.counters.doorbells.inc();
        self.send(msg)
    }

    /// The one send policy: retries transient failures with the retry
    /// allowance and backoff of a deadline-free [`AttemptClock`]; fatal
    /// errors (orderly close, hard disconnect, poison) end the endpoint and
    /// are not retried. Resending a frame the peer already received is
    /// safe: the server deduplicates by call id.
    pub(crate) fn send(&self, msg: &Message) -> Result<()> {
        let mut clock = AttemptClock::start(&self.config, None);
        loop {
            let Err(e) = self.transport.send(msg) else {
                return Ok(());
            };
            match clock.next_retry().filter(|_| !e.is_fatal()) {
                Some(pause) => {
                    self.counters.retries.inc();
                    std::thread::sleep(pause);
                }
                None => return Err(map_transport_err(&e)),
            }
        }
    }

    /// Sends a sync call, the open batch's calls riding ahead of it in the
    /// same frame (one crossing, one doorbell), and waits for its reply,
    /// resending on every trigger. The caller abandons the span on error.
    pub(crate) fn exchange(
        &self,
        w: &mut Window,
        func: &FunctionDesc,
        call_id: CallId,
        args: Vec<Value>,
        entry: u64,
    ) -> Result<CallReply> {
        self.counters.sync_calls.inc();
        let (sync_req, resend) = self.marshal(w, call_id, func.id, CallMode::Sync, args);
        let fn_id = u64::from(func.id);
        self.telemetry
            .span_stage_at(call_id, Stage::GuestStart, entry, Some(func.id));
        self.telemetry
            .event_at(Tier::Guest, EventKind::CallStart, call_id, fn_id, entry);
        // Stamped before the send: `send` blocks on modelled sender
        // overhead, so the router may ingest (Queued) before it returns.
        self.telemetry.span_stage(call_id, Stage::Sent, None);
        let frame = w.close_batch(Some(&sync_req)).expect("holds the sync call");
        self.send_frame(&frame)?;

        let mut clock = AttemptClock::start(&self.config, self.config.call_deadline);
        loop {
            let Some(msg) = self.pump(w, clock.attempt_ends, Some(call_id))? else {
                self.retry(w, &mut clock, &sync_req, GuestError::DeadlineExceeded)?;
                continue;
            };
            let Message::Reply(rep) = msg else { continue };
            match rep.status {
                ReplyStatus::CacheMiss => {
                    // Nothing to resend: the sides disagree on what was elided.
                    let mut full = resend.clone().ok_or_else(|| {
                        GuestError::Protocol(format!(
                            "spurious cache-miss NACK for `{}`",
                            func.name
                        ))
                    })?;
                    full.budget_us = clock.budget_us();
                    self.resend_full(w, full)?;
                    // The NACKed call never executed: a fresh window.
                    clock.rearm();
                }
                ReplyStatus::Overloaded => {
                    self.counters.overloaded.inc();
                    self.retry(w, &mut clock, &sync_req, GuestError::Overloaded)?;
                }
                _ => return Ok(rep),
            }
        }
    }

    /// The one retry step, for a missed deadline and an `Overloaded` shed:
    /// backs off, reopens the span and resends the sync call with its
    /// still-pending riders under the remaining budget, or fails with
    /// `exhausted` once the allowance or the hard budget is spent. A shed
    /// batch's riders get their own `Overloaded` replies, which retire them
    /// as a deferred error before this step runs.
    fn retry(
        &self,
        w: &Window,
        clock: &mut AttemptClock,
        sync_req: &CallRequest,
        exhausted: GuestError,
    ) -> Result<()> {
        let call_id = sync_req.call_id;
        let made = u64::from(self.config.max_retries - clock.retries_left);
        let Some(pause) = clock.next_retry() else {
            if exhausted == GuestError::DeadlineExceeded {
                self.counters.deadline_exceeded.inc();
                self.telemetry
                    .event(Tier::Guest, EventKind::DeadlineExceeded, call_id, made);
            }
            return Err(exhausted);
        };
        self.counters.retries.inc();
        self.telemetry
            .event(Tier::Guest, EventKind::Retry, call_id, made + 1);
        std::thread::sleep(pause);
        // A fresh span for the resend: the router re-stamps Queued and
        // Forwarded for it, which would corrupt the previous attempt's
        // stage ordering.
        self.telemetry.span_abandon(call_id);
        self.telemetry
            .span_stage(call_id, Stage::GuestStart, Some(sync_req.fn_id));
        self.telemetry.span_stage(call_id, Stage::Sent, None);
        self.send(&w.retry_frame(sync_req, clock.budget_us()))?;
        clock.rearm();
        Ok(())
    }

    /// Answers a `CacheMiss` NACK, sync or async: the server could not
    /// rematerialize an elided buffer, so the full payload goes again and
    /// the mirror relearns its digests, as the server does on receipt.
    fn resend_full(&self, w: &mut Window, full: CallRequest) -> Result<()> {
        self.counters.payload_cache_misses.inc();
        w.tx_cache.repair(&full.args);
        self.send(&Message::Call(full))
    }

    /// The one receive pump: waits until `until` (forever when `None`) and
    /// returns the next message the window does not consume itself — the
    /// reply to `wanted`, or a control message — or `None` once `until`
    /// passes. Replies to async calls (the in-order server sends them
    /// ahead of the sync reply) and cache epochs are consumed on the way.
    pub(crate) fn pump(
        &self,
        w: &mut Window,
        until: Option<Instant>,
        wanted: Option<CallId>,
    ) -> Result<Option<Message>> {
        loop {
            let received = match until {
                None => self.transport.recv().map(Some),
                Some(t) => self
                    .transport
                    .recv_timeout(t.saturating_duration_since(Instant::now())),
            };
            match received.map_err(|e| map_transport_err(&e))? {
                Some(Message::Reply(rep)) if Some(rep.call_id) != wanted => {
                    self.consume_async_reply(w, rep)?;
                }
                // Reconnect/migration: the server's payload cache is gone.
                Some(Message::Control(ControlMessage::CacheEpoch(_))) => w.tx_cache.clear(),
                other => return Ok(other),
            }
        }
    }

    /// Retires a completed sync call. The server processes in order, so
    /// every async call sent before it has completed: their bookkeeping
    /// goes. A non-`Ok` status becomes the call's error; otherwise a
    /// deferred async failure is delivered through a status return that
    /// would report success, as §4.2 describes (at the cost of fidelity).
    pub(crate) fn retire(
        &self,
        w: &mut Window,
        func: &FunctionDesc,
        rep: CallReply,
    ) -> Result<CallResult> {
        while w.pending.front().is_some_and(|p| p.call_id < rep.call_id) {
            w.pending.pop_front();
        }
        let protocol = |what: &str| Err(GuestError::Protocol(format!("{what} `{}`", func.name)));
        match rep.status {
            ReplyStatus::Ok => {}
            ReplyStatus::PolicyRejected => return Err(GuestError::PolicyRejected),
            ReplyStatus::TransportError => return protocol("server failed to execute"),
            // The router answers for a lane whose server is gone and
            // unrecoverable: fail cleanly instead of hanging.
            ReplyStatus::Unavailable => return Err(GuestError::Unavailable),
            ReplyStatus::QuotaExceeded => return Err(GuestError::QuotaExceeded),
            // Consumed by `exchange`; escaping it means its resends failed
            // to converge.
            ReplyStatus::CacheMiss => return protocol("unresolved cache-miss NACK for"),
            ReplyStatus::Overloaded => return Err(GuestError::Overloaded),
        }
        let mut ret = rep.ret;
        let status = matches!(func.ret, RetDesc::Status { .. });
        if let Some(deferred) = w.deferred_error.take_if(|_| status && func.succeeded(&ret)) {
            ret = deferred;
            self.counters.deferred_errors_delivered.inc();
        }
        Ok(CallResult {
            ret,
            outputs: rep.outputs,
        })
    }

    /// Processes a reply to an async call: a `CacheMiss` NACK is answered
    /// with a full resend (the call stays pending); any other reply retires
    /// the call, and the first failure is kept for deferred delivery.
    fn consume_async_reply(&self, w: &mut Window, rep: CallReply) -> Result<()> {
        let pending = w
            .pending
            .binary_search_by_key(&rep.call_id, |p| p.call_id)
            .ok();
        if rep.status == ReplyStatus::CacheMiss {
            return match pending.and_then(|i| w.pending[i].resend.clone()) {
                Some(full) => self.resend_full(w, full),
                None => Ok(()),
            };
        }
        // Shed async calls DO get an Overloaded reply (unlike Unavailable)
        // so this counter reconciles against the router's shed accounting.
        if rep.status == ReplyStatus::Overloaded {
            self.counters.overloaded.inc();
        }
        let Some(p) = pending.and_then(|i| w.pending.remove(i)) else {
            return Ok(());
        };
        if w.deferred_error.is_none() {
            w.deferred_error = self.desc.by_id(p.fn_id).and_then(|f| async_failure(f, rep));
        }
        Ok(())
    }
}
