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
//!
//! Modules follow a call's seams: `verify` (argument checks, the sync/async
//! decision and the values the guest answers with itself), `cache`
//! (transfer-cache elision), `window` (the open batch, the pending async
//! calls, and every send, resend and receive) and `error`.

#![warn(clippy::too_many_lines)]

mod cache;
mod error;
mod verify;
mod window;

use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_spec::{ApiDescriptor, FunctionDesc};
use ava_telemetry::{metric_set, EventKind, Histogram, Stage, Telemetry, Tier};
use ava_transport::BoxedTransport;
use ava_wire::{CallId, ControlMessage, Message, Value};
use parking_lot::Mutex;

pub use error::GuestError;
use verify::{check_call, synthesized_success};
use window::Window;

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
    /// this flushes before the next call joins it. The age is checked only
    /// when a call joins, so an idle application's batch waits for the
    /// next call, a sync barrier or an explicit [`GuestLibrary::flush`].
    /// 0 disables age-based flushing.
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
    window: Mutex<Window>,
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
            window: Mutex::new(Window::new(&config)),
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
        self.window.lock().pending_len()
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
    /// cache descriptors): verify → window → wait for the reply → retire.
    pub fn call_fn(&self, func: &FunctionDesc, args: Vec<Value>) -> Result<CallResult> {
        // Captured before the call id exists; stamped as GuestStart once it
        // does, so the span covers marshal/verify work too.
        let entry = self.telemetry.now_nanos();
        let is_sync = check_call(&self.desc, func, &args)?;
        let mut w = self.window.lock();
        let call_id = w.next_id();
        if !is_sync {
            self.submit_async(&mut w, func.id, call_id, args)?;
            self.record_call(func, None, entry);
            return Ok(CallResult {
                ret: synthesized_success(func),
                outputs: Vec::new(),
            });
        }
        let reply = self
            .exchange(&mut w, func, call_id, args, entry)
            .inspect_err(|_| self.telemetry.span_abandon(call_id))?;
        self.record_call(func, Some(call_id), entry);
        self.retire(&mut w, func, reply)
    }

    /// Records the latency the application observed. A sync call's span
    /// closes here too, before its status is examined: rejected calls
    /// still completed a round trip worth measuring. Async calls get no
    /// span (success replies are suppressed, so it could never complete).
    fn record_call(&self, func: &FunctionDesc, span: Option<CallId>, entry: u64) {
        if !self.telemetry.enabled() {
            return;
        }
        let end = self.telemetry.now_nanos();
        let spent = end.saturating_sub(entry);
        if let Some(h) = self.fn_hists.get(func.id as usize) {
            h.record(spent);
        }
        let Some(call_id) = span else { return };
        self.telemetry
            .span_stage_at(call_id, Stage::GuestEnd, end, None);
        if let Some(h) = &self.e2e_hist {
            h.record(spent);
        }
        let fn_id = u64::from(func.id);
        self.telemetry
            .event_at(Tier::Guest, EventKind::CallFinish, call_id, fn_id, end);
    }

    /// Flushes any coalesced-but-unsent async calls immediately. Useful
    /// when the application knows it is about to go idle and no sync call
    /// will arrive to act as a flush barrier.
    pub fn flush(&self) -> Result<()> {
        let mut w = self.window.lock();
        self.flush_batch(&mut w)
    }

    /// Probes end-to-end liveness: sends a heartbeat through the router to
    /// the API server and waits up to `timeout` for the acknowledgement.
    /// `Ok(false)` means the heartbeat went unanswered — the server is
    /// dead, wedged, or its lane is down — while `Err` means this guest's
    /// own transport is gone. Async failure replies and cache-epoch
    /// announcements arriving in the window are consumed as usual.
    pub fn probe_liveness(&self, timeout: Duration) -> Result<bool> {
        let mut w = self.window.lock();
        // A skipped call id is harmless: ids need only strictly increase.
        let nonce = w.next_id();
        self.send(&Message::Control(ControlMessage::Heartbeat(nonce)))?;
        let until = Some(Instant::now() + timeout);
        loop {
            match self.pump(&mut w, until, None)? {
                None => return Ok(false),
                Some(Message::Control(ControlMessage::HeartbeatAck(n))) if n == nonce => {
                    return Ok(true)
                }
                Some(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests;
