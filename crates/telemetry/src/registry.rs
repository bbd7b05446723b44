//! The unified metrics registry shared by guest, router and server.
//!
//! A [`Registry`] is a named collection of [`Counter`]s, [`Gauge`]s and
//! [`Histogram`]s plus a cross-tier [`SpanTable`], cloneable (cheap `Arc`
//! clone) into every tier of the stack. Metric names follow the
//! `tier.subsystem.name` convention (`guest.calls.sync`,
//! `router.vm1.forwarded`, `server.execute.clFinish`, …).
//!
//! Components declare their counters and gauges with
//! [`metric_set!`](crate::metric_set!), which registers the component's
//! *own* storage into the registry ([`Registry::register_counter`]), so
//! the component's snapshot API and the registry read the same atomics —
//! no duplicated bookkeeping.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::recorder::{Event, FlightRecorder};
use crate::span::{SpanRecord, SpanTable};

/// A shareable monotonic counter.
#[derive(Clone, Default, Debug)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero (used for in-flight gauges such
    /// as outstanding-call counts).
    pub fn dec_saturating(&self) {
        let _ = self
            .inner
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }

    /// Returns the value and resets to zero.
    pub fn take(&self) -> u64 {
        self.inner.swap(0, Ordering::Relaxed)
    }
}

/// A shareable `f64` cell (stored as bits in an atomic), for estimated
/// quantities like device time that accumulate fractionally.
#[derive(Clone, Debug)]
pub struct Gauge {
    inner: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            inner: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` (compare-and-swap loop; contention here is negligible).
    pub fn add(&self, v: f64) {
        let _ = self
            .inner
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.inner.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.inner.load(Ordering::Relaxed))
    }
}

struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: SpanTable,
    recorder: FlightRecorder,
    epoch: Instant,
}

/// The cross-tier metrics registry. Cloning shares the same store.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry; its epoch anchors all span timestamps.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: SpanTable::new(),
                recorder: FlightRecorder::default(),
                epoch: Instant::now(),
            }),
        }
    }

    /// Nanoseconds since this registry's epoch (the span clock).
    pub fn now_nanos(&self) -> u64 {
        self.inner
            .epoch
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().expect("registry poisoned");
        counters.entry(name.to_string()).or_default().clone()
    }

    /// Registers existing counter storage under `name`; the registry and
    /// the owner then observe the same atomics.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        let mut counters = self.inner.counters.lock().expect("registry poisoned");
        counters.insert(name.to_string(), counter.clone());
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock().expect("registry poisoned");
        gauges.entry(name.to_string()).or_default().clone()
    }

    /// Registers existing gauge storage under `name`.
    pub fn register_gauge(&self, name: &str, gauge: &Gauge) {
        let mut gauges = self.inner.gauges.lock().expect("registry poisoned");
        gauges.insert(name.to_string(), gauge.clone());
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut hists = self.inner.histograms.lock().expect("registry poisoned");
        hists.entry(name.to_string()).or_default().clone()
    }

    /// The cross-tier span store.
    pub fn spans(&self) -> &SpanTable {
        &self.inner.spans
    }

    /// The cross-tier flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Non-destructive snapshot of every metric and the completed spans.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .inner
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            spans: self.inner.spans.completed(),
            events: self.inner.recorder.events(),
            events_overwritten: self.inner.recorder.overwritten(),
            spans_dropped: self.inner.spans.dropped(),
        }
    }
}

/// A point-in-time export of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Completed spans.
    pub spans: Vec<SpanRecord>,
    /// Flight-recorder events, oldest first.
    pub events: Vec<Event>,
    /// Events shed by the recorder ring (overwrite-oldest).
    pub events_overwritten: u64,
    /// Spans dropped at the span-table capacity caps.
    pub spans_dropped: u64,
}

/// Mean of an optional-segment extractor over a span set, in nanoseconds.
fn segment_mean(spans: &[SpanRecord], f: impl Fn(&SpanRecord) -> Option<u64>) -> Option<f64> {
    let values: Vec<u64> = spans.iter().filter_map(&f).collect();
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<u64>() as f64 / values.len() as f64)
    }
}

impl Snapshot {
    /// Aggregates the completed spans into named per-tier segments (mean
    /// nanoseconds), in pipeline order. Only observed segments appear.
    pub fn segment_breakdown(&self) -> Vec<(&'static str, f64)> {
        let spans: Vec<SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.total().is_some())
            .cloned()
            .collect();
        let mut out = Vec::new();
        type Segment = (&'static str, fn(&SpanRecord) -> Option<u64>);
        let segments: [Segment; 6] = [
            ("guest_marshal", SpanRecord::guest_marshal),
            ("transport_out", SpanRecord::transport_out),
            ("router_queue", SpanRecord::router_queue),
            ("server_execute", SpanRecord::server_execute),
            ("reply_path", SpanRecord::reply_path),
            ("transport_back", SpanRecord::transport_back),
        ];
        for (name, f) in segments {
            if let Some(mean) = segment_mean(&spans, f) {
                out.push((name, mean));
            }
        }
        out
    }

    /// Mean end-to-end latency across completed spans with a total.
    pub fn span_total_mean(&self) -> Option<f64> {
        segment_mean(&self.spans, SpanRecord::total)
    }

    /// Renders the snapshot as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            let w = self.counters.keys().map(String::len).max().unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<w$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            let w = self.gauges.keys().map(String::len).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<w$}  {v:.1}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("== histograms (ns) ==\n");
            let w = self
                .histograms
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(0)
                .max(4);
            out.push_str(&format!(
                "{:<w$}  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}\n",
                "name", "count", "p50", "p95", "p99", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{:<w$}  {:>10}  {:>12}  {:>12}  {:>12}  {:>12}\n",
                    name,
                    h.count,
                    h.percentile(0.50),
                    h.percentile(0.95),
                    h.percentile(0.99),
                    h.max
                ));
            }
        }
        let breakdown = self.segment_breakdown();
        if !breakdown.is_empty() {
            out.push_str("== span breakdown (mean ns per call) ==\n");
            let total: f64 = breakdown.iter().map(|(_, v)| v).sum();
            for (name, v) in &breakdown {
                out.push_str(&format!(
                    "{name:<16}  {v:>12.0}  {:>5.1}%\n",
                    100.0 * v / total.max(1e-9)
                ));
            }
            if let Some(e2e) = self.span_total_mean() {
                out.push_str(&format!(
                    "{:<16}  {:>12.0}  (segment sum {:.0}, {} spans)\n",
                    "end_to_end",
                    e2e,
                    total,
                    self.spans.len()
                ));
            }
        }
        out
    }

    /// Renders the snapshot as JSON (for `BENCH_*.json`-style trajectory
    /// tracking). Metric names are plain identifiers, so only minimal
    /// string escaping is needed.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        out.push_str(
            &self
                .counters
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", esc(k), v))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("},\"gauges\":{");
        out.push_str(
            &self
                .gauges
                .iter()
                .map(|(k, v)| format!("\"{}\":{:.3}", esc(k), v))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("},\"histograms\":{");
        out.push_str(
            &self
                .histograms
                .iter()
                .map(|(k, h)| {
                    format!(
                        "\"{}\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{},\"mean\":{:.1}}}",
                        esc(k),
                        h.count,
                        h.percentile(0.50),
                        h.percentile(0.95),
                        h.percentile(0.99),
                        h.max,
                        h.mean()
                    )
                })
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("},\"span_breakdown_ns\":{");
        out.push_str(
            &self
                .segment_breakdown()
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v:.1}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("},\"spans_completed\":");
        out.push_str(&self.spans.len().to_string());
        if let Some(e2e) = self.span_total_mean() {
            out.push_str(&format!(",\"span_end_to_end_mean_ns\":{e2e:.1}"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a.b.c").inc();
        r.counter("a.b.c").add(2);
        assert_eq!(r.counter("a.b.c").get(), 3);
    }

    #[test]
    fn registered_counter_shares_storage() {
        let r = Registry::new();
        let own = Counter::new();
        r.register_counter("guest.calls.sync", &own);
        own.add(5);
        assert_eq!(r.counter("guest.calls.sync").get(), 5);
        r.counter("guest.calls.sync").inc();
        assert_eq!(own.get(), 6, "registry writes show up in the owner");
    }

    #[test]
    fn gauge_accumulates_fractions() {
        let g = Gauge::new();
        g.add(0.25);
        g.add(0.5);
        assert!((g.get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn render_text_lists_metrics() {
        let r = Registry::new();
        r.counter("guest.calls.sync").add(3);
        r.histogram("guest.call.clFinish").record(1000);
        let text = r.snapshot().render_text();
        assert!(text.contains("guest.calls.sync"));
        assert!(text.contains("guest.call.clFinish"));
        assert!(text.contains("p95"));
    }

    #[test]
    fn render_json_is_wellformed_enough() {
        let r = Registry::new();
        r.counter("a").inc();
        r.histogram("h").record(5);
        let json = r.snapshot().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"count\":1"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }

    #[test]
    fn segment_breakdown_sums_to_total() {
        let r = Registry::new();
        let key = (1, 9);
        let s = r.spans();
        s.stage(key, Stage::GuestStart, 100, Some(1));
        s.stage(key, Stage::Sent, 150, None);
        s.stage(key, Stage::Queued, 250, None);
        s.stage(key, Stage::Forwarded, 300, None);
        s.stage(key, Stage::Executed, 900, Some(1));
        s.stage(key, Stage::Replied, 950, None);
        s.stage(key, Stage::GuestEnd, 1100, None);
        let snap = r.snapshot();
        let sum: f64 = snap.segment_breakdown().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 1000.0);
        assert_eq!(snap.span_total_mean(), Some(1000.0));
    }
}
