//! `ava-telemetry` — end-to-end observability for the AvA remoting stack.
//!
//! AvA's value proposition is interposing the API boundary; this crate
//! makes the interposition *measurable*. It provides:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s and log2-bucketed
//!   latency [`Histogram`]s (p50/p95/p99/max), cloneable behind an `Arc`
//!   into guest library, hypervisor router and API server;
//! * per-call [`span`]s keyed by the wire `(vm_id, call_id)`: each tier
//!   stamps its lifecycle stage, so one call's end-to-end latency
//!   decomposes exactly into guest-marshal / transport / router-queue /
//!   server-execute segments (the paper's Fig. 5 question — call
//!   frequency vs. data movement — answered without hand-instrumented
//!   binaries);
//! * [`metric_set!`](crate::metric_set!), the one declaration of a
//!   component's counters and gauges, their registry names and its
//!   snapshot struct;
//! * exporters rendering a [`Snapshot`] as an aligned text table or JSON.
//!
//! Metric names follow `tier.subsystem.name` (see DESIGN.md
//! "Observability").
//!
//! # Zero cost when disabled
//!
//! Components hold a [`Telemetry`] handle, which is a cheap `Option` over
//! the registry. The default handle is disabled: every recording method
//! is an inlineable no-op (one branch, no clock reads, no allocation), so
//! compiling telemetry in does not tax the forwarding fast path.

pub mod export;
pub mod hash;
pub mod histogram;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod span;

pub use hash::{IntHasher, IntMap};
pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::MetricSet;
pub use recorder::{pack_slots, unpack_slots, Event, EventKind, FlightRecorder, Tier};
pub use registry::{Counter, Gauge, Registry, Snapshot};
pub use slo::{SloConfig, SloMonitor, SloObjective, SloSubject, SloViolation};
pub use span::{SpanKey, SpanRecord, SpanTable, Stage};

/// A tier's handle onto the shared registry; disabled by default.
///
/// The handle carries the VM id it is attributed to, so span keys from
/// different tiers of the same VM agree ([`Telemetry::with_vm`]).
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Option<Registry>,
    vm: u32,
}

impl Telemetry {
    /// A disabled handle: all recording is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle over `registry`, attributed to VM 0.
    pub fn new(registry: Registry) -> Self {
        Telemetry {
            registry: Some(registry),
            vm: 0,
        }
    }

    /// True if a registry is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// A clone of this handle attributed to `vm` (span keys are
    /// `(vm, call_id)`).
    pub fn with_vm(&self, vm: u32) -> Self {
        Telemetry {
            registry: self.registry.clone(),
            vm,
        }
    }

    /// The VM this handle attributes spans to.
    pub fn vm(&self) -> u32 {
        self.vm
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// Nanoseconds since the registry epoch; 0 when disabled (callers
    /// must not branch on this — use [`Telemetry::enabled`]).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        match &self.registry {
            Some(r) => r.now_nanos(),
            None => 0,
        }
    }

    /// Stamps `stage` for the call `call_id` at the current instant.
    #[inline]
    pub fn span_stage(&self, call_id: u64, stage: Stage, fn_id: Option<u32>) {
        if let Some(r) = &self.registry {
            r.spans()
                .stage((self.vm, call_id), stage, r.now_nanos(), fn_id);
        }
    }

    /// Stamps `stage` at an explicit `nanos` timestamp (from
    /// [`Telemetry::now_nanos`]) — used when the instant of interest
    /// precedes the moment the call id becomes known.
    #[inline]
    pub fn span_stage_at(&self, call_id: u64, stage: Stage, nanos: u64, fn_id: Option<u32>) {
        if let Some(r) = &self.registry {
            r.spans().stage((self.vm, call_id), stage, nanos, fn_id);
        }
    }

    /// Stamps `stage` at the current instant through the span table's
    /// lock-free deferred intake — no shard mutex on the caller's path.
    /// Used on the router data path; the stamp becomes visible at the
    /// next fold (guest-end stamp or span read).
    #[inline]
    pub fn span_stage_deferred(&self, call_id: u64, stage: Stage, fn_id: Option<u32>) {
        if let Some(r) = &self.registry {
            r.spans()
                .stage_deferred((self.vm, call_id), stage, r.now_nanos(), fn_id);
        }
    }

    /// Discards an open span (call failed before crossing the wire).
    #[inline]
    pub fn span_abandon(&self, call_id: u64) {
        if let Some(r) = &self.registry {
            r.spans().abandon((self.vm, call_id));
        }
    }

    /// Registers `set`'s cells under `{tier}.vm<N>.*`, where `N` is this
    /// handle's VM; a no-op when disabled.
    pub fn register_vm(&self, tier: &str, set: &impl MetricSet) {
        if let Some(r) = &self.registry {
            set.register(r, &format!("{tier}.vm{}", self.vm));
        }
    }

    /// Records a flight-recorder event stamped with the current instant
    /// and this handle's VM attribution. No-op when disabled.
    #[inline]
    pub fn event(&self, tier: Tier, kind: EventKind, call_id: u64, arg: u64) {
        if let Some(r) = &self.registry {
            r.recorder().record(Event {
                nanos: r.now_nanos(),
                tier,
                kind,
                vm: self.vm,
                call_id,
                arg,
            });
        }
    }

    /// Records a flight-recorder event at an explicit `nanos` timestamp
    /// (from [`Telemetry::now_nanos`]) — lets a hot path reuse a clock
    /// read it already made for a span stamp. No-op when disabled.
    #[inline]
    pub fn event_at(&self, tier: Tier, kind: EventKind, call_id: u64, arg: u64, nanos: u64) {
        if let Some(r) = &self.registry {
            r.recorder().record(Event {
                nanos,
                tier,
                kind,
                vm: self.vm,
                call_id,
                arg,
            });
        }
    }

    /// Renders the attached registry as a text report, or `None` when
    /// disabled.
    pub fn report(&self) -> Option<String> {
        self.registry.as_ref().map(|r| r.snapshot().render_text())
    }

    /// Renders the attached registry as Chrome-trace JSON
    /// ([`export::trace_json`]), or `None` when disabled.
    pub fn export_trace(&self) -> Option<String> {
        self.registry
            .as_ref()
            .map(|r| export::trace_json(&r.snapshot()))
    }

    /// Renders the attached registry as Prometheus text exposition
    /// ([`export::prometheus`]), or `None` when disabled.
    pub fn export_prometheus(&self) -> Option<String> {
        self.registry
            .as_ref()
            .map(|r| export::prometheus(&r.snapshot()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    metric_set! {
        struct Counters {
            sync_calls: Counter,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.span_stage(1, Stage::GuestStart, Some(0));
        t.event(Tier::Guest, EventKind::Retry, 1, 0);
        t.register_vm("guest", &Counters::default());
        assert!(t.report().is_none());
    }

    #[test]
    fn vm_attribution_flows_into_span_keys() {
        let r = Registry::new();
        let guest = Telemetry::new(r.clone()).with_vm(3);
        guest.span_stage(7, Stage::GuestStart, Some(1));
        guest.span_stage(7, Stage::GuestEnd, None);
        let spans = r.snapshot().spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].vm, 3);
        assert_eq!(spans[0].call_id, 7);
    }

    #[test]
    fn report_renders_when_enabled() {
        let r = Registry::new();
        let t = Telemetry::new(r.clone()).with_vm(2);
        t.register_vm("guest", &Counters::default());
        r.counter("guest.vm2.sync_calls").add(2);
        let report = t.report().unwrap();
        assert!(report.contains("guest.vm2.sync_calls"));
    }
}
