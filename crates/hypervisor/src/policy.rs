//! Per-VM resource policies: rate limiting and scheduling weights (§4.3).

use std::time::{Duration, Instant};

/// Token-bucket rate limiter over forwarded API calls.
///
/// This is the baseline enforcement the paper says even an unrefined
/// specification gets ("command rate-limiting", §3).
#[derive(Debug, Clone)]
pub struct RateLimiter {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl RateLimiter {
    /// A limiter allowing `calls_per_sec` sustained, with a burst of
    /// `burst` calls.
    pub fn new(calls_per_sec: f64, burst: u32) -> Self {
        RateLimiter {
            capacity: f64::from(burst).max(1.0),
            tokens: f64::from(burst).max(1.0),
            refill_per_sec: calls_per_sec.max(0.0),
            last: Instant::now(),
        }
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        self.last = now;
    }

    /// Attempts to admit one call now; returns false when rate-limited.
    pub fn try_admit(&mut self) -> bool {
        self.try_admit_at(Instant::now())
    }

    /// Deterministic variant for tests.
    pub fn try_admit_at(&mut self, now: Instant) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Time until the next token becomes available (zero if one is ready).
    pub fn next_ready_in(&mut self, now: Instant) -> Duration {
        self.refill(now);
        if self.tokens >= 1.0 || self.refill_per_sec <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64((1.0 - self.tokens) / self.refill_per_sec)
    }
}

/// Circuit-breaker tuning for one tenant's lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failed calls (faulted replies or lost forwards) that
    /// open the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before a half-open probe is
    /// allowed through.
    pub open_for: Duration,
    /// Consecutive successful probes required to close from half-open.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 8,
            open_for: Duration::from_millis(50),
            probe_successes: 2,
        }
    }
}

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all traffic admitted.
    Closed,
    /// Quarantined: all traffic shed until the open window elapses.
    Open,
    /// Probing: one call at a time admitted; successes close the
    /// breaker, any failure re-opens it.
    HalfOpen,
}

/// Per-tenant circuit breaker (open → half-open probe → close).
///
/// The router drives it from observed call outcomes: a reply with a
/// fault status or a lost forward is a failure, an `Ok`/`CacheMiss`
/// reply is a success. While open, every call from the tenant is shed
/// with `Overloaded` so a poisoned VM cannot keep a slot busy failing;
/// after [`BreakerConfig::open_for`] one probe call is let through at a
/// time until [`BreakerConfig::probe_successes`] in a row close it.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_hits: u32,
    /// Probes admitted (cumulative, for the close event payload).
    probes_used: u32,
    opened_at: Option<Instant>,
    /// A half-open probe is in flight; admit nothing else.
    probe_inflight: bool,
    /// Times the breaker transitioned to open (cumulative).
    opens: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_hits: 0,
            probes_used: 0,
            opened_at: None,
            probe_inflight: false,
            opens: 0,
        }
    }

    /// Current state, advancing open → half-open when the window elapsed.
    pub fn state_at(&mut self, now: Instant) -> BreakerState {
        if self.state == BreakerState::Open {
            if let Some(at) = self.opened_at {
                if now.duration_since(at) >= self.config.open_for {
                    self.state = BreakerState::HalfOpen;
                    self.probe_hits = 0;
                    self.probe_inflight = false;
                }
            }
        }
        self.state
    }

    /// Whether a call from this tenant may be admitted right now. In
    /// half-open, admits exactly one probe at a time (the caller must
    /// report its outcome via [`CircuitBreaker::on_success`] /
    /// [`CircuitBreaker::on_failure_at`]).
    pub fn admit_at(&mut self, now: Instant) -> bool {
        match self.state_at(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    false
                } else {
                    self.probe_inflight = true;
                    self.probes_used += 1;
                    true
                }
            }
        }
    }

    /// Records a successful call outcome. Returns `true` when this
    /// success closed the breaker (for the `breaker_close` event).
    pub fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.probe_inflight = false;
            self.probe_hits += 1;
            if self.probe_hits >= self.config.probe_successes.max(1) {
                self.state = BreakerState::Closed;
                return true;
            }
        }
        false
    }

    /// Records a failed call outcome. Returns `true` when this failure
    /// opened (or re-opened) the breaker (for the `breaker_open` event).
    pub fn on_failure_at(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = Some(now);
                self.probe_inflight = false;
                self.opens += 1;
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold.max(1) {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(now);
                    self.opens += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }

    /// Releases the half-open probe slot without an outcome: the probe
    /// call was dropped before execution (expired in queue, lane flushed),
    /// so neither success nor failure is known. The next admitted call
    /// becomes the probe instead of the breaker deadlocking half-open.
    pub fn probe_abandoned(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_inflight = false;
        }
    }

    /// Consecutive failures observed while closed (event payload).
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Probes admitted since creation (event payload).
    pub fn probes_used(&self) -> u32 {
        self.probes_used
    }

    /// Times the breaker has opened since creation.
    pub fn opens(&self) -> u64 {
        self.opens
    }
}

/// Layered defaults for building a [`VmPolicy`] from configuration.
///
/// Control planes compose policies from several sources — a stack-wide
/// default section, a per-tenant config block, and per-request overrides —
/// each of which may set only some fields. `overlay` merges two layers
/// (the receiver wins wherever it has a value) and `build` produces the
/// final policy, falling back to [`VmPolicy::default`] semantics for
/// anything still unset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyDefaults {
    /// Sustained call rate (calls/sec) and burst size.
    pub rate_limit: Option<(f64, u32)>,
    /// Fair-share weight.
    pub weight: Option<u32>,
    /// Priority level.
    pub priority: Option<u8>,
    /// Device-memory quota in bytes.
    pub device_mem_quota: Option<u64>,
    /// Concurrency cap (calls in flight).
    pub max_inflight: Option<u32>,
}

impl PolicyDefaults {
    /// Merges `self` over `base`: every field set here wins, everything
    /// else falls through to the base layer.
    pub fn overlay(&self, base: &PolicyDefaults) -> PolicyDefaults {
        PolicyDefaults {
            rate_limit: self.rate_limit.or(base.rate_limit),
            weight: self.weight.or(base.weight),
            priority: self.priority.or(base.priority),
            device_mem_quota: self.device_mem_quota.or(base.device_mem_quota),
            max_inflight: self.max_inflight.or(base.max_inflight),
        }
    }

    /// Builds the effective [`VmPolicy`], with unset fields taking the
    /// policy defaults (weight 1, priority 0, no limits).
    pub fn build(&self) -> VmPolicy {
        VmPolicy {
            rate_limit: self
                .rate_limit
                .map(|(rate, burst)| RateLimiter::new(rate, burst)),
            weight: self.weight.unwrap_or(1).max(1),
            priority: self.priority.unwrap_or(0),
            device_mem_quota: self.device_mem_quota,
            max_inflight: self.max_inflight.map(|n| n.max(1)),
        }
    }
}

/// Scheduling algorithm the router applies across VMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Forward in arrival order.
    #[default]
    Fifo,
    /// Pick the VM with the least weighted estimated device time.
    FairShare,
    /// Strict priority (higher `VmPolicy::priority` first), FIFO within.
    Priority,
}

/// How a stack assigns newly attached VMs to device-pool slots.
///
/// Placement only matters when the pool is smaller than the VM count:
/// every VM bound to the same slot shares that slot's physical device and
/// contends for its execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Cycle through slots in order; even VM counts spread evenly.
    #[default]
    RoundRobin,
    /// Bind to the slot with the least estimated load — outstanding
    /// device time weighted by the slot's resident device memory, so a
    /// slot whose working set is near eviction pressure is avoided even
    /// when its compute queue is short (ties broken by fewest VMs, then
    /// lowest index).
    LeastLoaded,
    /// Fill one slot before using the next — maximizes idle slots, for
    /// consolidation/power experiments.
    Packed,
}

/// Per-VM policy configuration.
#[derive(Debug, Clone)]
pub struct VmPolicy {
    /// Sustained call-rate limit, if any.
    pub rate_limit: Option<RateLimiter>,
    /// Fair-share weight (higher = entitled to more device time).
    pub weight: u32,
    /// Priority level for [`SchedulerKind::Priority`].
    pub priority: u8,
    /// Device-memory quota in bytes, if enforced. The quota is enforced
    /// at the API server against the VM's *owned* footprint (resident
    /// plus swapped bytes, so swap-out cannot launder it); over-quota
    /// allocations are answered with a clean `QuotaExceeded` reply and
    /// never executed. Overrides any stack-wide default quota.
    pub device_mem_quota: Option<u64>,
    /// Concurrency cap: maximum calls from this VM in flight to its API
    /// server at once, if enforced. Excess calls wait in the lane queue
    /// (and age out under admission control) instead of monopolizing the
    /// slot's in-flight budget.
    pub max_inflight: Option<u32>,
}

impl VmPolicy {
    /// Policy with a device-memory quota (bytes).
    pub fn with_device_mem_quota(quota: u64) -> Self {
        VmPolicy {
            device_mem_quota: Some(quota),
            ..Default::default()
        }
    }
}

impl Default for VmPolicy {
    fn default() -> Self {
        VmPolicy {
            rate_limit: None,
            weight: 1,
            priority: 0,
            device_mem_quota: None,
            max_inflight: None,
        }
    }
}

impl VmPolicy {
    /// Policy with a call-rate limit.
    pub fn with_rate_limit(calls_per_sec: f64, burst: u32) -> Self {
        VmPolicy {
            rate_limit: Some(RateLimiter::new(calls_per_sec, burst)),
            ..Default::default()
        }
    }

    /// Policy with a fair-share weight.
    pub fn with_weight(weight: u32) -> Self {
        VmPolicy {
            weight: weight.max(1),
            ..Default::default()
        }
    }

    /// Policy with a priority level.
    pub fn with_priority(priority: u8) -> Self {
        VmPolicy {
            priority,
            ..Default::default()
        }
    }

    /// Policy with a concurrency cap.
    pub fn with_max_inflight(max_inflight: u32) -> Self {
        VmPolicy {
            max_inflight: Some(max_inflight.max(1)),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_burst_then_throttles() {
        let start = Instant::now();
        let mut rl = RateLimiter::new(10.0, 3);
        assert!(rl.try_admit_at(start));
        assert!(rl.try_admit_at(start));
        assert!(rl.try_admit_at(start));
        assert!(!rl.try_admit_at(start));
        // After 100 ms one token refills at 10/s.
        assert!(rl.try_admit_at(start + Duration::from_millis(110)));
        assert!(!rl.try_admit_at(start + Duration::from_millis(115)));
    }

    #[test]
    fn bucket_caps_at_capacity() {
        let start = Instant::now();
        let mut rl = RateLimiter::new(1000.0, 2);
        // A long idle period must not accumulate more than `burst` tokens.
        let later = start + Duration::from_secs(10);
        assert!(rl.try_admit_at(later));
        assert!(rl.try_admit_at(later));
        assert!(!rl.try_admit_at(later));
    }

    #[test]
    fn next_ready_estimates_wait() {
        let start = Instant::now();
        let mut rl = RateLimiter::new(10.0, 1);
        assert!(rl.try_admit_at(start));
        let wait = rl.next_ready_in(start);
        assert!(wait > Duration::from_millis(50) && wait <= Duration::from_millis(100));
    }

    #[test]
    fn zero_rate_never_refills() {
        let start = Instant::now();
        let mut rl = RateLimiter::new(0.0, 1);
        assert!(rl.try_admit_at(start));
        assert!(!rl.try_admit_at(start + Duration::from_secs(60)));
        assert_eq!(
            rl.next_ready_in(start + Duration::from_secs(60)),
            Duration::ZERO
        );
    }

    #[test]
    fn defaults_overlay_prefers_upper_layer() {
        let stack = PolicyDefaults {
            rate_limit: Some((100.0, 10)),
            weight: Some(1),
            priority: None,
            device_mem_quota: Some(1 << 20),
            max_inflight: None,
        };
        let tenant = PolicyDefaults {
            rate_limit: None,
            weight: Some(4),
            priority: Some(2),
            device_mem_quota: None,
            max_inflight: Some(8),
        };
        let merged = tenant.overlay(&stack);
        assert_eq!(merged.rate_limit, Some((100.0, 10)), "falls through");
        assert_eq!(merged.weight, Some(4), "tenant wins");
        assert_eq!(merged.priority, Some(2));
        assert_eq!(merged.device_mem_quota, Some(1 << 20));
        assert_eq!(merged.max_inflight, Some(8));
    }

    #[test]
    fn defaults_build_fills_policy_defaults() {
        let built = PolicyDefaults::default().build();
        assert!(built.rate_limit.is_none());
        assert_eq!(built.weight, 1);
        assert_eq!(built.priority, 0);
        assert_eq!(built.device_mem_quota, None);
        assert_eq!(built.max_inflight, None);

        let built = PolicyDefaults {
            rate_limit: Some((50.0, 5)),
            weight: Some(0),
            priority: Some(3),
            device_mem_quota: Some(4096),
            max_inflight: Some(0),
        }
        .build();
        assert!(built.rate_limit.is_some());
        assert_eq!(built.weight, 1, "weight floors at 1");
        assert_eq!(built.priority, 3);
        assert_eq!(built.device_mem_quota, Some(4096));
        assert_eq!(built.max_inflight, Some(1), "inflight floors at 1");
    }

    #[test]
    fn policy_constructors() {
        assert!(VmPolicy::with_rate_limit(5.0, 2).rate_limit.is_some());
        assert_eq!(VmPolicy::with_weight(0).weight, 1);
        assert_eq!(VmPolicy::with_priority(9).priority, 9);
        assert_eq!(VmPolicy::with_max_inflight(0).max_inflight, Some(1));
    }

    fn breaker(threshold: u32, open_ms: u64, probes: u32) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_for: Duration::from_millis(open_ms),
            probe_successes: probes,
        })
    }

    #[test]
    fn breaker_opens_after_consecutive_failures() {
        let start = Instant::now();
        let mut br = breaker(3, 10, 1);
        assert!(br.admit_at(start));
        assert!(!br.on_failure_at(start));
        assert!(!br.on_failure_at(start));
        assert!(br.on_failure_at(start), "third failure opens");
        assert_eq!(br.state_at(start), BreakerState::Open);
        assert!(!br.admit_at(start));
        assert_eq!(br.opens(), 1);
    }

    #[test]
    fn success_resets_failure_streak() {
        let start = Instant::now();
        let mut br = breaker(3, 10, 1);
        br.on_failure_at(start);
        br.on_failure_at(start);
        br.on_success();
        assert!(!br.on_failure_at(start), "streak restarted after success");
        assert_eq!(br.state_at(start), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let start = Instant::now();
        let mut br = breaker(1, 10, 2);
        assert!(br.on_failure_at(start));
        assert!(!br.admit_at(start), "open sheds everything");
        let later = start + Duration::from_millis(11);
        assert!(br.admit_at(later), "half-open admits one probe");
        assert!(!br.admit_at(later), "only one probe in flight");
        assert!(!br.on_success(), "one success is not enough for probes=2");
        assert!(br.admit_at(later), "second probe admitted");
        assert!(br.on_success(), "second success closes");
        assert_eq!(br.state_at(later), BreakerState::Closed);
        assert_eq!(br.probes_used(), 2);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let start = Instant::now();
        let mut br = breaker(1, 10, 1);
        br.on_failure_at(start);
        let later = start + Duration::from_millis(11);
        assert!(br.admit_at(later));
        assert!(br.on_failure_at(later), "probe failure re-opens");
        assert_eq!(br.state_at(later), BreakerState::Open);
        assert!(!br.admit_at(later));
        // A second open window elapses: probing resumes.
        let much_later = later + Duration::from_millis(11);
        assert!(br.admit_at(much_later));
        assert!(br.on_success());
        assert_eq!(br.state_at(much_later), BreakerState::Closed);
        assert_eq!(br.opens(), 2);
    }
}
