//! Sliding-window SLO evaluation over the registry.
//!
//! An [`SloMonitor`] is driven periodically (the stack's supervisor
//! thread calls [`SloMonitor::evaluate`] each sweep). Every evaluation
//! scrapes the cumulative registry and differences it against the
//! previous scrape, so each window covers exactly the traffic between
//! two sweeps — windowed p99 comes from histogram *bucket deltas*,
//! windowed retry rate from counter deltas, and queue depth is read
//! directly from the live gauges. Objectives come from [`SloConfig`];
//! a breach produces an [`SloViolation`], bumps the subject's burn
//! gauge (`slo.vm<N>.*` / `slo.slot<N>.*` — consecutive violating
//! windows), and emits an [`EventKind::SloViolation`] flight-recorder
//! event so the timeline shows *when* service quality degraded.
//!
//! Violations are evaluated per **VM** (the guest's contractual view)
//! and per **slot** (aggregated over the VMs placed there) — the slot
//! view is what the rebalance watchdog consults before migrating.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::histogram::{HistogramSnapshot, BUCKETS};
use crate::recorder::{Event, EventKind, Tier};
use crate::registry::Registry;

/// SLO targets; `None` disables the corresponding objective.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloConfig {
    /// Per-VM and per-slot p99 end-to-end latency target (nanoseconds),
    /// evaluated over each window's `guest.vm<N>.e2e_ns` bucket deltas.
    pub p99_e2e_ns: Option<u64>,
    /// Maximum retries per issued call over a window (e.g. `0.05`).
    pub max_retry_rate: Option<f64>,
    /// Maximum instantaneous per-slot queue depth.
    pub max_queue_depth: Option<f64>,
    /// Minimum calls in a window before latency/rate objectives are
    /// judged — tiny samples produce garbage percentiles.
    pub min_window_calls: u64,
}

impl SloConfig {
    /// A config with the given p99 target and a sane minimum sample size.
    pub fn p99(p99_e2e_ns: u64) -> Self {
        SloConfig {
            p99_e2e_ns: Some(p99_e2e_ns),
            min_window_calls: 16,
            ..Default::default()
        }
    }

    /// True if at least one objective is set.
    pub fn any_enabled(&self) -> bool {
        self.p99_e2e_ns.is_some() || self.max_retry_rate.is_some() || self.max_queue_depth.is_some()
    }
}

/// What entity breached an objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloSubject {
    /// A guest VM, by id.
    Vm(u32),
    /// A pool slot, by index.
    Slot(usize),
}

/// Which objective was breached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloObjective {
    /// Windowed p99 end-to-end latency above target.
    P99Latency,
    /// Windowed retry rate above target.
    RetryRate,
    /// Instantaneous queue depth above target.
    QueueDepth,
}

impl SloObjective {
    /// Stable snake_case name (used in burn gauge names).
    pub fn name(self) -> &'static str {
        match self {
            SloObjective::P99Latency => "p99_e2e",
            SloObjective::RetryRate => "retry_rate",
            SloObjective::QueueDepth => "queue_depth",
        }
    }

    fn discriminant(self) -> u64 {
        match self {
            SloObjective::P99Latency => 0,
            SloObjective::RetryRate => 1,
            SloObjective::QueueDepth => 2,
        }
    }
}

/// One objective breach observed in the latest window.
#[derive(Clone, Debug, PartialEq)]
pub struct SloViolation {
    /// Breaching entity.
    pub subject: SloSubject,
    /// Breached objective.
    pub objective: SloObjective,
    /// Observed value (ns for latency, ratio for rates, depth for
    /// queues).
    pub observed: f64,
    /// Configured target.
    pub target: f64,
    /// Consecutive windows (including this one) the breach has held.
    pub burn: u64,
}

#[derive(Default)]
struct WindowState {
    /// Previous cumulative per-VM e2e histograms.
    prev_hists: BTreeMap<u32, HistogramSnapshot>,
    /// Previous cumulative per-VM (retries, calls).
    prev_counts: BTreeMap<u32, (u64, u64)>,
    /// Consecutive violating windows per (subject, objective).
    burn: BTreeMap<(SloSubject, SloObjective), u64>,
    /// Latest evaluation's violations.
    violations: Vec<SloViolation>,
}

/// Evaluates SLO objectives over consecutive registry scrapes.
pub struct SloMonitor {
    registry: Registry,
    config: SloConfig,
    state: Mutex<WindowState>,
}

/// Bucket-wise difference `now - prev` of two cumulative histogram
/// snapshots; `max` is clamped to the cumulative max (exact windowed max
/// is unknowable from deltas, and the clamp only tightens percentiles).
fn hist_delta(now: &HistogramSnapshot, prev: Option<&HistogramSnapshot>) -> HistogramSnapshot {
    match prev {
        None => now.clone(),
        Some(p) => HistogramSnapshot {
            buckets: std::array::from_fn(|i| now.buckets[i].saturating_sub(p.buckets[i])),
            count: now.count.saturating_sub(p.count),
            sum: now.sum.saturating_sub(p.sum),
            max: now.max,
        },
    }
}

fn merge_into(acc: &mut HistogramSnapshot, h: &HistogramSnapshot) {
    for i in 0..BUCKETS {
        acc.buckets[i] += h.buckets[i];
    }
    acc.count += h.count;
    acc.sum += h.sum;
    acc.max = acc.max.max(h.max);
}

fn empty_hist() -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: [0; BUCKETS],
        count: 0,
        sum: 0,
        max: 0,
    }
}

/// Parses the `<N>` out of `guest.vm<N>.e2e_ns`.
fn e2e_vm(name: &str) -> Option<u32> {
    name.strip_prefix("guest.vm")?
        .strip_suffix(".e2e_ns")?
        .parse()
        .ok()
}

impl SloMonitor {
    /// Creates a monitor over `registry` with the given targets.
    pub fn new(registry: Registry, config: SloConfig) -> Self {
        SloMonitor {
            registry,
            config,
            state: Mutex::new(WindowState::default()),
        }
    }

    /// The configured targets.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Latest window's violations (empty until the first breach).
    pub fn violations(&self) -> Vec<SloViolation> {
        self.state
            .lock()
            .expect("slo monitor poisoned")
            .violations
            .clone()
    }

    /// Evaluates one window. `placements` maps each live VM to its pool
    /// slot (empty when the stack runs without a pool) — it scopes the
    /// per-slot aggregation. Returns the violations found this window.
    pub fn evaluate(&self, placements: &[(u32, usize)]) -> Vec<SloViolation> {
        let snapshot = self.registry.snapshot();
        let mut state = self.state.lock().expect("slo monitor poisoned");
        let mut breaches: Vec<(SloSubject, SloObjective, f64, f64)> = Vec::new();

        // Windowed per-VM e2e latency histograms, and their per-slot
        // aggregates.
        let mut slot_hists: BTreeMap<usize, HistogramSnapshot> = BTreeMap::new();
        for (name, hist) in &snapshot.histograms {
            let Some(vm) = e2e_vm(name) else { continue };
            let window = hist_delta(hist, state.prev_hists.get(&vm));
            state.prev_hists.insert(vm, hist.clone());
            if let Some(slot) = placements.iter().find(|(v, _)| *v == vm).map(|(_, s)| *s) {
                merge_into(slot_hists.entry(slot).or_insert_with(empty_hist), &window);
            }
            if let Some(target) = self.config.p99_e2e_ns {
                if window.count >= self.config.min_window_calls.max(1) {
                    let p99 = window.percentile(0.99);
                    if p99 > target {
                        breaches.push((
                            SloSubject::Vm(vm),
                            SloObjective::P99Latency,
                            p99 as f64,
                            target as f64,
                        ));
                    }
                }
            }
        }
        if let Some(target) = self.config.p99_e2e_ns {
            for (slot, window) in &slot_hists {
                if window.count >= self.config.min_window_calls.max(1) {
                    let p99 = window.percentile(0.99);
                    if p99 > target {
                        breaches.push((
                            SloSubject::Slot(*slot),
                            SloObjective::P99Latency,
                            p99 as f64,
                            target as f64,
                        ));
                    }
                }
            }
        }

        // Windowed per-VM retry rate.
        if let Some(target) = self.config.max_retry_rate {
            for (vm, _) in placements {
                let retries = snapshot
                    .counters
                    .get(&format!("guest.vm{vm}.retries"))
                    .copied()
                    .unwrap_or(0);
                let calls = snapshot
                    .counters
                    .get(&format!("guest.vm{vm}.sync_calls"))
                    .copied()
                    .unwrap_or(0)
                    + snapshot
                        .counters
                        .get(&format!("guest.vm{vm}.async_calls"))
                        .copied()
                        .unwrap_or(0);
                let (prev_retries, prev_calls) =
                    state.prev_counts.get(vm).copied().unwrap_or((0, 0));
                state.prev_counts.insert(*vm, (retries, calls));
                let d_calls = calls.saturating_sub(prev_calls);
                let d_retries = retries.saturating_sub(prev_retries);
                if d_calls >= self.config.min_window_calls.max(1) {
                    let rate = d_retries as f64 / d_calls as f64;
                    if rate > target {
                        breaches.push((SloSubject::Vm(*vm), SloObjective::RetryRate, rate, target));
                    }
                }
            }
        }

        // Instantaneous per-slot queue depth.
        if let Some(target) = self.config.max_queue_depth {
            for (name, depth) in &snapshot.gauges {
                let Some(slot) = name
                    .strip_prefix("pool.slot")
                    .and_then(|r| r.strip_suffix(".queue_depth"))
                    .and_then(|r| r.parse::<usize>().ok())
                else {
                    continue;
                };
                if *depth > target {
                    breaches.push((
                        SloSubject::Slot(slot),
                        SloObjective::QueueDepth,
                        *depth,
                        target,
                    ));
                }
            }
        }

        // Burn accounting: consecutive violating windows per objective.
        // Subjects that stopped violating reset to zero (and clear their
        // gauge); new breaches bump and emit a recorder event.
        let breached_keys: Vec<(SloSubject, SloObjective)> =
            breaches.iter().map(|(s, o, _, _)| (*s, *o)).collect();
        let cleared: Vec<(SloSubject, SloObjective)> = state
            .burn
            .keys()
            .filter(|k| !breached_keys.contains(k))
            .copied()
            .collect();
        for key in cleared {
            state.burn.remove(&key);
            self.registry
                .gauge(&Self::burn_gauge_name(key.0, key.1))
                .set(0.0);
        }
        let mut violations = Vec::with_capacity(breaches.len());
        for (subject, objective, observed, target) in breaches {
            let burn = state.burn.entry((subject, objective)).or_insert(0);
            *burn += 1;
            self.registry
                .gauge(&Self::burn_gauge_name(subject, objective))
                .set(*burn as f64);
            let (vm, arg_slot) = match subject {
                SloSubject::Vm(v) => (v, 0u64),
                SloSubject::Slot(s) => (0, s as u64),
            };
            self.registry.recorder().record(Event {
                nanos: self.registry.now_nanos(),
                tier: Tier::Supervisor,
                kind: EventKind::SloViolation,
                vm,
                call_id: arg_slot,
                arg: objective.discriminant(),
            });
            violations.push(SloViolation {
                subject,
                objective,
                observed,
                target,
                burn: *burn,
            });
        }
        state.violations = violations.clone();
        violations
    }

    fn burn_gauge_name(subject: SloSubject, objective: SloObjective) -> String {
        match subject {
            SloSubject::Vm(v) => format!("slo.vm{v}.{}_burn", objective.name()),
            SloSubject::Slot(s) => format!("slo.slot{s}.{}_burn", objective.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_e2e(r: &Registry, vm: u32, value_ns: u64, n: usize) {
        let h = r.histogram(&format!("guest.vm{vm}.e2e_ns"));
        for _ in 0..n {
            h.record(value_ns);
        }
    }

    #[test]
    fn quiet_stack_has_no_violations() {
        let r = Registry::new();
        let m = SloMonitor::new(r.clone(), SloConfig::p99(1_000_000));
        record_e2e(&r, 1, 10_000, 64);
        assert!(m.evaluate(&[(1, 0)]).is_empty());
        assert!(m.violations().is_empty());
    }

    #[test]
    fn slow_window_flips_vm_and_slot_p99() {
        let r = Registry::new();
        let m = SloMonitor::new(r.clone(), SloConfig::p99(100_000));
        // Fast first window establishes the baseline scrape.
        record_e2e(&r, 1, 10_000, 64);
        assert!(m.evaluate(&[(1, 0)]).is_empty());
        // Slow second window: deltas are all 8ms samples.
        record_e2e(&r, 1, 8_000_000, 64);
        let v = m.evaluate(&[(1, 0)]);
        assert!(
            v.iter()
                .any(|x| x.subject == SloSubject::Vm(1) && x.objective == SloObjective::P99Latency),
            "vm violation expected: {v:?}"
        );
        assert!(
            v.iter().any(|x| x.subject == SloSubject::Slot(0)),
            "slot violation expected: {v:?}"
        );
        // Burn gauge is live in the registry and the recorder saw it.
        let snap = r.snapshot();
        assert_eq!(snap.gauges["slo.vm1.p99_e2e_burn"], 1.0);
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == EventKind::SloViolation));
        // A fast third window clears the burn.
        record_e2e(&r, 1, 10_000, 64);
        assert!(m.evaluate(&[(1, 0)]).is_empty());
        assert_eq!(r.snapshot().gauges["slo.vm1.p99_e2e_burn"], 0.0);
    }

    #[test]
    fn small_windows_are_not_judged() {
        let r = Registry::new();
        let mut config = SloConfig::p99(100);
        config.min_window_calls = 32;
        let m = SloMonitor::new(r.clone(), config);
        record_e2e(&r, 2, 1_000_000, 8); // violating values, tiny sample
        assert!(m.evaluate(&[(2, 0)]).is_empty());
    }

    #[test]
    fn queue_depth_is_instantaneous() {
        let r = Registry::new();
        let config = SloConfig {
            max_queue_depth: Some(4.0),
            ..Default::default()
        };
        let m = SloMonitor::new(r.clone(), config);
        r.gauge("pool.slot1.queue_depth").set(9.0);
        let v = m.evaluate(&[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].subject, SloSubject::Slot(1));
        assert_eq!(v[0].objective, SloObjective::QueueDepth);
        assert_eq!(v[0].observed, 9.0);
    }

    #[test]
    fn retry_rate_uses_window_deltas() {
        let r = Registry::new();
        let config = SloConfig {
            max_retry_rate: Some(0.1),
            min_window_calls: 10,
            ..Default::default()
        };
        let m = SloMonitor::new(r.clone(), config);
        r.counter("guest.vm3.sync_calls").add(100);
        r.counter("guest.vm3.retries").add(50);
        // First window: 50/100 over target.
        assert_eq!(m.evaluate(&[(3, 0)]).len(), 1);
        // Second window adds clean traffic only: delta rate is 0.
        r.counter("guest.vm3.sync_calls").add(100);
        assert!(m.evaluate(&[(3, 0)]).is_empty());
    }
}
