//! Schema-validated `avad` configuration.
//!
//! The daemon layer is deliberately thin: every semantic knob here maps
//! onto an existing engine type ([`StackConfig`], [`RouterConfig`]'s
//! admission fields, [`BrownoutConfig`], [`SloConfig`],
//! [`PolicyDefaults`]) — the config file adds *no* behaviour of its own.
//! Validation is mandatory and total: `AvadConfig::from_str` collects
//! **every** schema and cross-field violation instead of bailing at the
//! first, so `avad --check-config` prints the whole repair list at once.
//!
//! [`RouterConfig`]: ava_hypervisor::RouterConfig

use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::time::Duration;

use ava_core::{BrownoutConfig, PolicyDefaults, StackConfig};
use ava_hypervisor::{BreakerConfig, PlacementPolicy, SchedulerKind};
use ava_telemetry::SloConfig;
use ava_transport::{CostModel, TransportKind};

use crate::toml::{self, TomlTable, TomlValue};

/// Maximum per-VM overcommit the config accepts: a quota may promise at
/// most this many times the device's resident capacity (the swap store
/// absorbs the difference; beyond this the fault-in path only thrashes).
pub const MAX_QUOTA_OVERCOMMIT: u64 = 8;

/// One config violation: the offending key path plus an actionable
/// message. `Display` renders `path: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Dotted config path (`stack.slot_inflight`).
    pub path: String,
    /// What is wrong and what would fix it.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Compares two secrets without short-circuiting on the first differing
/// byte: every byte position up to the longer length is visited and
/// folded into one accumulator, so match time does not reveal how long a
/// correct prefix the candidate had.
fn constant_time_eq(expected: &str, candidate: &str) -> bool {
    let a = expected.as_bytes();
    let b = candidate.as_bytes();
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

fn violation(out: &mut Vec<Violation>, path: impl Into<String>, message: impl Into<String>) {
    out.push(Violation {
        path: path.into(),
        message: message.into(),
    });
}

/// `[daemon]` — the HTTP front door itself.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonSection {
    /// Listen address (`host:port`; port 0 binds a scratch port).
    pub listen: String,
    /// Where the flight-recorder trace is flushed on graceful shutdown
    /// (Chrome-trace JSON). `None` skips the flush.
    pub flight_record: Option<String>,
    /// Enables the test-only surface: `POST /vms/{id}/crash` and fault
    /// plans on VM creation. Production configs leave this off.
    pub enable_test_hooks: bool,
    /// How long shutdown waits for in-flight HTTP requests to finish
    /// before detaching VMs.
    pub drain_timeout_ms: u64,
}

impl Default for DaemonSection {
    fn default() -> Self {
        DaemonSection {
            listen: "127.0.0.1:7680".to_string(),
            flight_record: None,
            enable_test_hooks: false,
            drain_timeout_ms: 2_000,
        }
    }
}

/// `[stack]` — engine topology ([`StackConfig`] minus guest behaviour).
#[derive(Debug, Clone, PartialEq)]
pub struct StackSection {
    /// Which API the daemon serves (`opencl`).
    pub api: String,
    /// Guest↔hypervisor transport: `inproc`, `shmem`, or `tcp`.
    pub transport: String,
    /// Transport cost model: `free`, `paravirtual`, or `network`.
    pub cost_model: String,
    /// Cross-VM scheduler: `fifo`, `fair_share`, or `priority`.
    pub scheduler: String,
    /// Shared-device pool size; 0 = private device per VM.
    pub pool_size: u64,
    /// Placement policy: `round_robin`, `least_loaded`, or `packed`.
    pub placement: String,
    /// Per-slot sync in-flight budget.
    pub slot_inflight: u64,
    /// Supervisor respawn budget per VM.
    pub max_respawns: u64,
    /// Load-watchdog migration threshold (ms of device-time gap per
    /// interval); unset disables the watchdog.
    pub rebalance_threshold_ms: Option<f64>,
    /// Watchdog / SLO evaluation cadence.
    pub rebalance_interval_ms: u64,
    /// Soft per-device resident-memory ceiling in bytes.
    pub device_mem_capacity: Option<u64>,
    /// Stack-wide default per-VM device-memory quota in bytes.
    pub device_mem_quota: Option<u64>,
}

impl Default for StackSection {
    fn default() -> Self {
        let d = StackConfig::default();
        StackSection {
            api: "opencl".to_string(),
            transport: "shmem".to_string(),
            cost_model: "paravirtual".to_string(),
            scheduler: "fifo".to_string(),
            pool_size: 0,
            placement: "round_robin".to_string(),
            slot_inflight: d.slot_inflight as u64,
            max_respawns: u64::from(d.max_respawns),
            rebalance_threshold_ms: None,
            rebalance_interval_ms: d.rebalance_interval.as_millis() as u64,
            device_mem_capacity: None,
            device_mem_quota: None,
        }
    }
}

/// `[guest]` — guest-library behaviour ([`ava_core::GuestConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GuestSection {
    /// Adaptive-batching size limit (calls per frame); 0 disables.
    pub batch_max_calls: u64,
    /// Adaptive-batching age limit in µs; 0 disables age flushing.
    pub batch_max_delay_us: u64,
    /// Transfer-cache entries; 0 disables payload elision.
    pub payload_cache_entries: u64,
    /// Smallest payload eligible for elision, bytes.
    pub payload_cache_min_bytes: u64,
    /// Per-attempt sync-call deadline in ms; unset waits forever.
    pub call_deadline_ms: Option<u64>,
    /// Retry budget for timed-out calls.
    pub max_retries: u64,
    /// Initial retry backoff in ms (doubles per attempt).
    pub retry_backoff_ms: u64,
}

impl Default for GuestSection {
    fn default() -> Self {
        let d = ava_core::GuestConfig::default();
        GuestSection {
            batch_max_calls: d.batch_max_calls as u64,
            batch_max_delay_us: d.batch_max_delay_us,
            payload_cache_entries: d.payload_cache_entries as u64,
            payload_cache_min_bytes: d.payload_cache_min_bytes as u64,
            call_deadline_ms: None,
            max_retries: u64::from(d.max_retries),
            retry_backoff_ms: d.retry_backoff.as_millis() as u64,
        }
    }
}

/// `[admission]` — router overload protection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionSection {
    /// Per-VM queue-depth shed limit.
    pub max_queue_depth: Option<u64>,
    /// Per-slot aggregate queue-depth shed limit.
    pub max_slot_queue_depth: Option<u64>,
    /// Oldest a queued call may grow before being dropped, ms.
    pub max_queue_age_ms: Option<u64>,
}

/// `[breaker]` — per-tenant circuit breakers (present = enabled).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSection {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u64,
    /// Open window before a half-open probe, ms.
    pub open_for_ms: u64,
    /// Consecutive probe successes that close it.
    pub probe_successes: u64,
}

impl Default for BreakerSection {
    fn default() -> Self {
        let d = BreakerConfig::default();
        BreakerSection {
            failure_threshold: u64::from(d.failure_threshold),
            open_for_ms: d.open_for.as_millis() as u64,
            probe_successes: u64::from(d.probe_successes),
        }
    }
}

/// `[slo]` — service-level objectives (present = monitored).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSection {
    /// p99 end-to-end latency target, µs.
    pub p99_e2e_us: Option<u64>,
    /// Maximum retries per issued call over a window (0..=1).
    pub max_retry_rate: Option<f64>,
    /// Maximum instantaneous per-slot queue depth.
    pub max_queue_depth: Option<f64>,
    /// Minimum calls per window before latency objectives are judged.
    pub min_window_calls: u64,
}

impl Default for SloSection {
    fn default() -> Self {
        SloSection {
            p99_e2e_us: None,
            max_retry_rate: None,
            max_queue_depth: None,
            min_window_calls: 16,
        }
    }
}

/// `[brownout]` — staged degradation (present = enabled; requires `[slo]`).
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutSection {
    /// Consecutive violating SLO windows before stage 1.
    pub stage1_burn: u64,
    /// Consecutive violating windows before stage 2.
    pub stage2_burn: u64,
    /// Most tenants stage 2 may shed.
    pub max_shed: u64,
}

impl Default for BrownoutSection {
    fn default() -> Self {
        let d = BrownoutConfig::default();
        BrownoutSection {
            stage1_burn: d.stage1_burn,
            stage2_burn: d.stage2_burn,
            max_shed: d.max_shed as u64,
        }
    }
}

/// Shared shape of `[policy]` (stack-wide defaults) and the policy
/// fields of `[tenants.*]` (per-tenant overrides).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicySection {
    /// Sustained call-rate limit, calls/sec.
    pub rate_limit: Option<f64>,
    /// Burst size for the rate limiter.
    pub rate_burst: Option<u64>,
    /// Fair-share weight.
    pub weight: Option<u64>,
    /// Priority level.
    pub priority: Option<u64>,
    /// Concurrency cap.
    pub max_inflight: Option<u64>,
    /// Device-memory quota, bytes.
    pub device_mem_quota: Option<u64>,
}

impl PolicySection {
    /// Lowers to the engine's layered-defaults type.
    pub fn defaults(&self) -> PolicyDefaults {
        PolicyDefaults {
            rate_limit: self.rate_limit.map(|rate| {
                (
                    rate,
                    self.rate_burst.unwrap_or(16).min(u64::from(u32::MAX)) as u32,
                )
            }),
            weight: self.weight.map(|w| w.min(u64::from(u32::MAX)) as u32),
            priority: self.priority.map(|p| p.min(u64::from(u8::MAX)) as u8),
            device_mem_quota: self.device_mem_quota,
            max_inflight: self.max_inflight.map(|n| n.min(u64::from(u32::MAX)) as u32),
        }
    }
}

/// `[tenants.<name>]` — one authenticated tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSection {
    /// Bearer token presented in `Authorization` headers.
    pub token: String,
    /// Admins may manage every VM and request shutdown.
    pub admin: bool,
    /// Per-tenant policy overrides (overlay the `[policy]` defaults).
    pub policy: PolicySection,
}

/// The whole validated configuration file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AvadConfig {
    /// `[daemon]`.
    pub daemon: DaemonSection,
    /// `[stack]`.
    pub stack: StackSection,
    /// `[guest]`.
    pub guest: GuestSection,
    /// `[admission]`.
    pub admission: AdmissionSection,
    /// `[breaker]`, when present.
    pub breaker: Option<BreakerSection>,
    /// `[slo]`, when present.
    pub slo: Option<SloSection>,
    /// `[brownout]`, when present.
    pub brownout: Option<BrownoutSection>,
    /// `[policy]` stack-wide tenant-policy defaults.
    pub policy: PolicySection,
    /// `[tenants.*]`, by tenant name.
    pub tenants: BTreeMap<String, TenantSection>,
}

/// Typed field extraction over one table, collecting violations and
/// flagging unknown keys when finished.
struct Sect<'a> {
    path: String,
    table: TomlTable,
    out: &'a mut Vec<Violation>,
}

impl<'a> Sect<'a> {
    fn new(path: impl Into<String>, table: TomlTable, out: &'a mut Vec<Violation>) -> Self {
        Sect {
            path: path.into(),
            table,
            out,
        }
    }

    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn string(&mut self, key: &str) -> Option<String> {
        match self.table.remove(key)? {
            TomlValue::Str(s) => Some(s),
            other => {
                let path = self.key_path(key);
                violation(
                    self.out,
                    path,
                    format!("expected a string, got {}", other.type_name()),
                );
                None
            }
        }
    }

    fn u64(&mut self, key: &str) -> Option<u64> {
        match self.table.remove(key)? {
            TomlValue::Int(i) if i >= 0 => Some(i as u64),
            TomlValue::Int(i) => {
                let path = self.key_path(key);
                violation(self.out, path, format!("must be >= 0 (got {i})"));
                None
            }
            other => {
                let path = self.key_path(key);
                violation(
                    self.out,
                    path,
                    format!("expected an integer, got {}", other.type_name()),
                );
                None
            }
        }
    }

    fn f64(&mut self, key: &str) -> Option<f64> {
        match self.table.remove(key)? {
            TomlValue::Float(v) => Some(v),
            TomlValue::Int(i) => Some(i as f64),
            other => {
                let path = self.key_path(key);
                violation(
                    self.out,
                    path,
                    format!("expected a number, got {}", other.type_name()),
                );
                None
            }
        }
    }

    fn bool(&mut self, key: &str) -> Option<bool> {
        match self.table.remove(key)? {
            TomlValue::Bool(b) => Some(b),
            other => {
                let path = self.key_path(key);
                violation(
                    self.out,
                    path,
                    format!("expected a boolean, got {}", other.type_name()),
                );
                None
            }
        }
    }

    fn finish(self) {
        for key in self.table.keys() {
            let path = if self.path.is_empty() {
                key.clone()
            } else {
                format!("{}.{key}", self.path)
            };
            violation(
                self.out,
                path,
                format!("unknown key `{key}` (check the DESIGN.md §13 schema)"),
            );
        }
    }
}

fn read_policy_fields(sect: &mut Sect<'_>) -> PolicySection {
    PolicySection {
        rate_limit: sect.f64("rate_limit"),
        rate_burst: sect.u64("rate_burst"),
        weight: sect.u64("weight"),
        priority: sect.u64("priority"),
        max_inflight: sect.u64("max_inflight"),
        device_mem_quota: sect.u64("device_mem_quota"),
    }
}

impl AvadConfig {
    /// Parses and fully validates a config file's contents. On failure
    /// the error carries **every** violation found — TOML syntax, schema
    /// (types, unknown keys/sections), and cross-field rules.
    #[allow(clippy::should_implement_trait)] // error type is Vec<Violation>, not a FromStr Err
    pub fn from_str(src: &str) -> Result<AvadConfig, Vec<Violation>> {
        let (config, mut violations) = Self::parse_lenient(src)?;
        violations.extend(config.validate());
        if violations.is_empty() {
            Ok(config)
        } else {
            Err(violations)
        }
    }

    /// Reads and validates a config file from disk.
    pub fn load(path: &std::path::Path) -> Result<AvadConfig, Vec<Violation>> {
        let src = std::fs::read_to_string(path).map_err(|e| {
            vec![Violation {
                path: path.display().to_string(),
                message: format!("cannot read config file: {e}"),
            }]
        })?;
        Self::from_str(&src)
    }

    /// Schema extraction with best-effort recovery: bad fields fall back
    /// to their defaults so cross-field validation can still inspect the
    /// rest. A hard TOML syntax error is unrecoverable.
    fn parse_lenient(src: &str) -> Result<(AvadConfig, Vec<Violation>), Vec<Violation>> {
        let mut doc = toml::parse(src).map_err(|e| {
            vec![Violation {
                path: "toml".to_string(),
                message: e.to_string(),
            }]
        })?;
        let mut out = Vec::new();
        let mut config = AvadConfig::default();

        let top = doc.remove("").unwrap_or_default();
        Sect::new("", top, &mut out).finish(); // top-level keys are unknown by definition

        if let Some(table) = doc.remove("daemon") {
            let mut s = Sect::new("daemon", table, &mut out);
            let d = &mut config.daemon;
            if let Some(v) = s.string("listen") {
                d.listen = v;
            }
            d.flight_record = s.string("flight_record");
            if let Some(v) = s.bool("enable_test_hooks") {
                d.enable_test_hooks = v;
            }
            if let Some(v) = s.u64("drain_timeout_ms") {
                d.drain_timeout_ms = v;
            }
            s.finish();
        }

        if let Some(table) = doc.remove("stack") {
            let mut s = Sect::new("stack", table, &mut out);
            let t = &mut config.stack;
            if let Some(v) = s.string("api") {
                t.api = v;
            }
            if let Some(v) = s.string("transport") {
                t.transport = v;
            }
            if let Some(v) = s.string("cost_model") {
                t.cost_model = v;
            }
            if let Some(v) = s.string("scheduler") {
                t.scheduler = v;
            }
            if let Some(v) = s.u64("pool_size") {
                t.pool_size = v;
            }
            if let Some(v) = s.string("placement") {
                t.placement = v;
            }
            if let Some(v) = s.u64("slot_inflight") {
                t.slot_inflight = v;
            }
            if let Some(v) = s.u64("max_respawns") {
                t.max_respawns = v;
            }
            t.rebalance_threshold_ms = s.f64("rebalance_threshold_ms");
            if let Some(v) = s.u64("rebalance_interval_ms") {
                t.rebalance_interval_ms = v;
            }
            t.device_mem_capacity = s.u64("device_mem_capacity");
            t.device_mem_quota = s.u64("device_mem_quota");
            s.finish();
        }

        if let Some(table) = doc.remove("guest") {
            let mut s = Sect::new("guest", table, &mut out);
            let g = &mut config.guest;
            if let Some(v) = s.u64("batch_max_calls") {
                g.batch_max_calls = v;
            }
            if let Some(v) = s.u64("batch_max_delay_us") {
                g.batch_max_delay_us = v;
            }
            if let Some(v) = s.u64("payload_cache_entries") {
                g.payload_cache_entries = v;
            }
            if let Some(v) = s.u64("payload_cache_min_bytes") {
                g.payload_cache_min_bytes = v;
            }
            g.call_deadline_ms = s.u64("call_deadline_ms");
            if let Some(v) = s.u64("max_retries") {
                g.max_retries = v;
            }
            if let Some(v) = s.u64("retry_backoff_ms") {
                g.retry_backoff_ms = v;
            }
            s.finish();
        }

        if let Some(table) = doc.remove("admission") {
            let mut s = Sect::new("admission", table, &mut out);
            config.admission = AdmissionSection {
                max_queue_depth: s.u64("max_queue_depth"),
                max_slot_queue_depth: s.u64("max_slot_queue_depth"),
                max_queue_age_ms: s.u64("max_queue_age_ms"),
            };
            s.finish();
        }

        if let Some(table) = doc.remove("breaker") {
            let mut s = Sect::new("breaker", table, &mut out);
            let mut b = BreakerSection::default();
            if let Some(v) = s.u64("failure_threshold") {
                b.failure_threshold = v;
            }
            if let Some(v) = s.u64("open_for_ms") {
                b.open_for_ms = v;
            }
            if let Some(v) = s.u64("probe_successes") {
                b.probe_successes = v;
            }
            s.finish();
            config.breaker = Some(b);
        }

        if let Some(table) = doc.remove("slo") {
            let mut s = Sect::new("slo", table, &mut out);
            let mut slo = SloSection {
                p99_e2e_us: s.u64("p99_e2e_us"),
                max_retry_rate: s.f64("max_retry_rate"),
                max_queue_depth: s.f64("max_queue_depth"),
                ..SloSection::default()
            };
            if let Some(v) = s.u64("min_window_calls") {
                slo.min_window_calls = v;
            }
            s.finish();
            config.slo = Some(slo);
        }

        if let Some(table) = doc.remove("brownout") {
            let mut s = Sect::new("brownout", table, &mut out);
            let mut b = BrownoutSection::default();
            if let Some(v) = s.u64("stage1_burn") {
                b.stage1_burn = v;
            }
            if let Some(v) = s.u64("stage2_burn") {
                b.stage2_burn = v;
            }
            if let Some(v) = s.u64("max_shed") {
                b.max_shed = v;
            }
            s.finish();
            config.brownout = Some(b);
        }

        if let Some(table) = doc.remove("policy") {
            let mut s = Sect::new("policy", table, &mut out);
            config.policy = read_policy_fields(&mut s);
            s.finish();
        }

        // `[tenants]` itself holds no keys; each `[tenants.<name>]` is one
        // tenant. Any other leftover section is unknown.
        if let Some(table) = doc.remove("tenants") {
            Sect::new("tenants", table, &mut out).finish();
        }
        let tenant_names: Vec<String> = doc
            .keys()
            .filter_map(|k| k.strip_prefix("tenants.").map(str::to_string))
            .collect();
        for name in tenant_names {
            let table = doc.remove(&format!("tenants.{name}")).unwrap_or_default();
            let path = format!("tenants.{name}");
            let mut s = Sect::new(path.clone(), table, &mut out);
            let mut tenant = TenantSection {
                token: s.string("token").unwrap_or_default(),
                admin: s.bool("admin").unwrap_or(false),
                policy: PolicySection::default(),
            };
            tenant.policy = read_policy_fields(&mut s);
            s.finish();
            config.tenants.insert(name, tenant);
        }

        for section in doc.keys() {
            violation(
                &mut out,
                section.clone(),
                format!("unknown section `[{section}]`"),
            );
        }
        Ok((config, out))
    }

    /// Cross-field validation. Returns every broken rule (empty = valid).
    pub fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let check_enum = |out: &mut Vec<Violation>, path: &str, val: &str, allowed: &[&str]| {
            if !allowed.contains(&val) {
                violation(
                    out,
                    path,
                    format!("`{val}` is not one of {}", allowed.join(", ")),
                );
            }
        };
        check_enum(&mut out, "stack.api", &self.stack.api, &["opencl"]);
        check_enum(
            &mut out,
            "stack.transport",
            &self.stack.transport,
            &["inproc", "shmem", "tcp"],
        );
        check_enum(
            &mut out,
            "stack.cost_model",
            &self.stack.cost_model,
            &["free", "paravirtual", "network"],
        );
        check_enum(
            &mut out,
            "stack.scheduler",
            &self.stack.scheduler,
            &["fifo", "fair_share", "priority"],
        );
        check_enum(
            &mut out,
            "stack.placement",
            &self.stack.placement,
            &["round_robin", "least_loaded", "packed"],
        );

        if self.daemon.listen.parse::<SocketAddr>().is_err() {
            violation(
                &mut out,
                "daemon.listen",
                format!(
                    "`{}` is not a socket address (expected host:port, e.g. 127.0.0.1:7680)",
                    self.daemon.listen
                ),
            );
        }

        if self.stack.slot_inflight == 0 {
            violation(
                &mut out,
                "stack.slot_inflight",
                "must be >= 1 or a pooled slot can never forward a call",
            );
        }
        if let Some(depth) = self.admission.max_queue_depth {
            if depth < self.stack.slot_inflight {
                violation(
                    &mut out,
                    "admission.max_queue_depth",
                    format!(
                        "must be >= stack.slot_inflight ({} < {}): admission would shed calls \
                         before the slot's in-flight budget can even fill",
                        depth, self.stack.slot_inflight
                    ),
                );
            }
        }
        if let (Some(slot), Some(vm)) = (
            self.admission.max_slot_queue_depth,
            self.admission.max_queue_depth,
        ) {
            if slot < vm {
                violation(
                    &mut out,
                    "admission.max_slot_queue_depth",
                    format!(
                        "must be >= admission.max_queue_depth ({slot} < {vm}): the slot-wide cap \
                         would starve every lane below its own per-VM allowance"
                    ),
                );
            }
        }

        if let Some(capacity) = self.stack.device_mem_capacity {
            let limit = capacity.saturating_mul(MAX_QUOTA_OVERCOMMIT);
            let check_quota = |out: &mut Vec<Violation>, path: String, quota: u64| {
                if quota > limit {
                    violation(
                        out,
                        path,
                        format!(
                            "quota {quota} exceeds {MAX_QUOTA_OVERCOMMIT}x the device \
                             capacity ({capacity}): beyond {limit} bytes the swap path can \
                             only thrash; raise stack.device_mem_capacity or lower the quota"
                        ),
                    );
                }
            };
            if let Some(q) = self.stack.device_mem_quota {
                check_quota(&mut out, "stack.device_mem_quota".to_string(), q);
            }
            for (name, tenant) in &self.tenants {
                if let Some(q) = tenant.policy.device_mem_quota {
                    check_quota(&mut out, format!("tenants.{name}.device_mem_quota"), q);
                }
            }
        }

        if self.brownout.is_some() {
            let slo_live = self.slo.as_ref().is_some_and(|s| {
                s.p99_e2e_us.is_some() || s.max_retry_rate.is_some() || s.max_queue_depth.is_some()
            });
            if !slo_live {
                violation(
                    &mut out,
                    "brownout",
                    "brownout requires an [slo] section with at least one objective — \
                     the supervisor stages degradation off SLO burn, so without an SLO \
                     the brownout can never engage",
                );
            }
        }
        if let Some(b) = &self.brownout {
            if b.stage1_burn == 0 {
                violation(&mut out, "brownout.stage1_burn", "must be >= 1");
            }
            if b.stage2_burn < b.stage1_burn {
                violation(
                    &mut out,
                    "brownout.stage2_burn",
                    format!(
                        "must be >= brownout.stage1_burn ({} < {}): stage 2 escalates from \
                         stage 1, it cannot trigger first",
                        b.stage2_burn, b.stage1_burn
                    ),
                );
            }
            if b.max_shed == 0 {
                violation(
                    &mut out,
                    "brownout.max_shed",
                    "must be >= 1: a stage 2 that may shed nobody is stage 1",
                );
            }
        }

        if let Some(slo) = &self.slo {
            if let Some(rate) = slo.max_retry_rate {
                if !(0.0..=1.0).contains(&rate) {
                    violation(
                        &mut out,
                        "slo.max_retry_rate",
                        format!("must be within 0.0..=1.0 (got {rate})"),
                    );
                }
            }
        }

        if let Some(deadline_ms) = self.guest.call_deadline_ms {
            if deadline_ms == 0 {
                violation(
                    &mut out,
                    "guest.call_deadline_ms",
                    "must be >= 1 when set (0 would expire every call on arrival); \
                     omit the key to disable deadlines",
                );
            } else if self.guest.batch_max_delay_us >= deadline_ms * 1_000 {
                violation(
                    &mut out,
                    "guest.batch_max_delay_us",
                    format!(
                        "must be < guest.call_deadline_ms ({} us >= {} ms): a batch \
                         allowed to sit past the call deadline guarantees spurious retries",
                        self.guest.batch_max_delay_us, deadline_ms
                    ),
                );
            }
        }

        if self.stack.rebalance_threshold_ms.is_some() && self.stack.pool_size < 2 {
            violation(
                &mut out,
                "stack.rebalance_threshold_ms",
                format!(
                    "the load watchdog needs a pool of at least 2 slots to migrate \
                     between (stack.pool_size is {})",
                    self.stack.pool_size
                ),
            );
        }

        let mut seen_tokens: BTreeMap<&str, &str> = BTreeMap::new();
        for (name, tenant) in &self.tenants {
            if tenant.token.is_empty() {
                violation(
                    &mut out,
                    format!("tenants.{name}.token"),
                    "token must be a non-empty string",
                );
                continue;
            }
            if let Some(first) = seen_tokens.insert(&tenant.token, name) {
                violation(
                    &mut out,
                    format!("tenants.{name}.token"),
                    format!("token collides with tenants.{first} — tokens must be unique"),
                );
            }
            if let Some(rate) = tenant.policy.rate_limit {
                if rate <= 0.0 {
                    violation(
                        &mut out,
                        format!("tenants.{name}.rate_limit"),
                        format!("must be > 0 calls/sec (got {rate})"),
                    );
                }
            }
        }
        if let Some(rate) = self.policy.rate_limit {
            if rate <= 0.0 {
                violation(
                    &mut out,
                    "policy.rate_limit",
                    format!("must be > 0 calls/sec (got {rate})"),
                );
            }
        }

        out
    }

    /// Lowers to the engine's [`StackConfig`]. Only call on a validated
    /// config; unrecognized enum strings fall back to defaults here.
    pub fn stack_config(&self) -> StackConfig {
        let transport = match self.stack.transport.as_str() {
            "inproc" => TransportKind::InProcess,
            "tcp" => TransportKind::Tcp,
            _ => TransportKind::SharedMemory,
        };
        let cost_model = match self.stack.cost_model.as_str() {
            "free" => CostModel::free(),
            "network" => CostModel::network(),
            _ => CostModel::paravirtual(),
        };
        let scheduler = match self.stack.scheduler.as_str() {
            "fair_share" => SchedulerKind::FairShare,
            "priority" => SchedulerKind::Priority,
            _ => SchedulerKind::Fifo,
        };
        let placement = match self.stack.placement.as_str() {
            "least_loaded" => PlacementPolicy::LeastLoaded,
            "packed" => PlacementPolicy::Packed,
            _ => PlacementPolicy::RoundRobin,
        };
        let guest = ava_core::GuestConfig {
            batch_max: 0,
            batch_max_calls: self.guest.batch_max_calls as usize,
            batch_max_delay_us: self.guest.batch_max_delay_us,
            payload_cache_entries: self.guest.payload_cache_entries as usize,
            payload_cache_min_bytes: self.guest.payload_cache_min_bytes as usize,
            call_deadline: self.guest.call_deadline_ms.map(Duration::from_millis),
            max_retries: self.guest.max_retries.min(u64::from(u32::MAX)) as u32,
            retry_backoff: Duration::from_millis(self.guest.retry_backoff_ms),
        };
        let slo = self.slo.as_ref().map(|s| SloConfig {
            p99_e2e_ns: s.p99_e2e_us.map(|us| us.saturating_mul(1_000)),
            max_retry_rate: s.max_retry_rate,
            max_queue_depth: s.max_queue_depth,
            min_window_calls: s.min_window_calls,
        });
        StackConfig {
            transport,
            cost_model,
            scheduler,
            guest,
            max_respawns: self.stack.max_respawns.min(u64::from(u32::MAX)) as u32,
            pool_size: self.stack.pool_size as usize,
            placement,
            slot_inflight: self.stack.slot_inflight as usize,
            rebalance_threshold_ms: self.stack.rebalance_threshold_ms,
            rebalance_interval: Duration::from_millis(self.stack.rebalance_interval_ms),
            slo,
            device_mem_capacity: self.stack.device_mem_capacity,
            device_mem_quota: self.stack.device_mem_quota,
            max_queue_depth: self.admission.max_queue_depth.map(|v| v as usize),
            max_slot_queue_depth: self.admission.max_slot_queue_depth.map(|v| v as usize),
            max_queue_age: self.admission.max_queue_age_ms.map(Duration::from_millis),
            breaker: self.breaker.as_ref().map(|b| BreakerConfig {
                failure_threshold: b.failure_threshold.min(u64::from(u32::MAX)) as u32,
                open_for: Duration::from_millis(b.open_for_ms),
                probe_successes: b.probe_successes.min(u64::from(u32::MAX)) as u32,
            }),
            brownout: self.brownout.as_ref().map(|b| BrownoutConfig {
                stage1_burn: b.stage1_burn,
                stage2_burn: b.stage2_burn,
                max_shed: b.max_shed as usize,
            }),
        }
    }

    /// The effective policy defaults for `tenant`: tenant overrides
    /// overlaid on the stack-wide `[policy]` section, with the stack's
    /// default memory quota as the base layer.
    pub fn tenant_defaults(&self, tenant: &str) -> PolicyDefaults {
        let mut base = self.policy.defaults();
        base.device_mem_quota = base.device_mem_quota.or(self.stack.device_mem_quota);
        match self.tenants.get(tenant) {
            Some(t) => t.policy.defaults().overlay(&base),
            None => base,
        }
    }

    /// Resolves a bearer token to its tenant. Comparison is
    /// constant-time per candidate so a network attacker cannot guess a
    /// token byte-by-byte off the auth boundary's timing.
    pub fn tenant_by_token(&self, token: &str) -> Option<(&str, &TenantSection)> {
        self.tenants
            .iter()
            .find(|(_, t)| !t.token.is_empty() && constant_time_eq(&t.token, token))
            .map(|(name, t)| (name.as_str(), t))
    }

    /// Serializes back to TOML such that `from_str` reproduces `self`
    /// exactly (property-tested).
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let s = |v: &str| toml::write_str(v);
        let f = |v: f64| toml::write_float(v);

        writeln!(out, "[daemon]").unwrap();
        writeln!(out, "listen = {}", s(&self.daemon.listen)).unwrap();
        if let Some(path) = &self.daemon.flight_record {
            writeln!(out, "flight_record = {}", s(path)).unwrap();
        }
        writeln!(out, "enable_test_hooks = {}", self.daemon.enable_test_hooks).unwrap();
        writeln!(out, "drain_timeout_ms = {}", self.daemon.drain_timeout_ms).unwrap();

        writeln!(out, "\n[stack]").unwrap();
        writeln!(out, "api = {}", s(&self.stack.api)).unwrap();
        writeln!(out, "transport = {}", s(&self.stack.transport)).unwrap();
        writeln!(out, "cost_model = {}", s(&self.stack.cost_model)).unwrap();
        writeln!(out, "scheduler = {}", s(&self.stack.scheduler)).unwrap();
        writeln!(out, "pool_size = {}", self.stack.pool_size).unwrap();
        writeln!(out, "placement = {}", s(&self.stack.placement)).unwrap();
        writeln!(out, "slot_inflight = {}", self.stack.slot_inflight).unwrap();
        writeln!(out, "max_respawns = {}", self.stack.max_respawns).unwrap();
        if let Some(v) = self.stack.rebalance_threshold_ms {
            writeln!(out, "rebalance_threshold_ms = {}", f(v)).unwrap();
        }
        writeln!(
            out,
            "rebalance_interval_ms = {}",
            self.stack.rebalance_interval_ms
        )
        .unwrap();
        if let Some(v) = self.stack.device_mem_capacity {
            writeln!(out, "device_mem_capacity = {v}").unwrap();
        }
        if let Some(v) = self.stack.device_mem_quota {
            writeln!(out, "device_mem_quota = {v}").unwrap();
        }

        writeln!(out, "\n[guest]").unwrap();
        writeln!(out, "batch_max_calls = {}", self.guest.batch_max_calls).unwrap();
        writeln!(
            out,
            "batch_max_delay_us = {}",
            self.guest.batch_max_delay_us
        )
        .unwrap();
        writeln!(
            out,
            "payload_cache_entries = {}",
            self.guest.payload_cache_entries
        )
        .unwrap();
        writeln!(
            out,
            "payload_cache_min_bytes = {}",
            self.guest.payload_cache_min_bytes
        )
        .unwrap();
        if let Some(v) = self.guest.call_deadline_ms {
            writeln!(out, "call_deadline_ms = {v}").unwrap();
        }
        writeln!(out, "max_retries = {}", self.guest.max_retries).unwrap();
        writeln!(out, "retry_backoff_ms = {}", self.guest.retry_backoff_ms).unwrap();

        let a = &self.admission;
        if a.max_queue_depth.is_some()
            || a.max_slot_queue_depth.is_some()
            || a.max_queue_age_ms.is_some()
        {
            writeln!(out, "\n[admission]").unwrap();
            if let Some(v) = a.max_queue_depth {
                writeln!(out, "max_queue_depth = {v}").unwrap();
            }
            if let Some(v) = a.max_slot_queue_depth {
                writeln!(out, "max_slot_queue_depth = {v}").unwrap();
            }
            if let Some(v) = a.max_queue_age_ms {
                writeln!(out, "max_queue_age_ms = {v}").unwrap();
            }
        }

        if let Some(b) = &self.breaker {
            writeln!(out, "\n[breaker]").unwrap();
            writeln!(out, "failure_threshold = {}", b.failure_threshold).unwrap();
            writeln!(out, "open_for_ms = {}", b.open_for_ms).unwrap();
            writeln!(out, "probe_successes = {}", b.probe_successes).unwrap();
        }

        if let Some(slo) = &self.slo {
            writeln!(out, "\n[slo]").unwrap();
            if let Some(v) = slo.p99_e2e_us {
                writeln!(out, "p99_e2e_us = {v}").unwrap();
            }
            if let Some(v) = slo.max_retry_rate {
                writeln!(out, "max_retry_rate = {}", f(v)).unwrap();
            }
            if let Some(v) = slo.max_queue_depth {
                writeln!(out, "max_queue_depth = {}", f(v)).unwrap();
            }
            writeln!(out, "min_window_calls = {}", slo.min_window_calls).unwrap();
        }

        if let Some(b) = &self.brownout {
            writeln!(out, "\n[brownout]").unwrap();
            writeln!(out, "stage1_burn = {}", b.stage1_burn).unwrap();
            writeln!(out, "stage2_burn = {}", b.stage2_burn).unwrap();
            writeln!(out, "max_shed = {}", b.max_shed).unwrap();
        }

        let write_policy = |out: &mut String, p: &PolicySection| {
            if let Some(v) = p.rate_limit {
                writeln!(out, "rate_limit = {}", f(v)).unwrap();
            }
            if let Some(v) = p.rate_burst {
                writeln!(out, "rate_burst = {v}").unwrap();
            }
            if let Some(v) = p.weight {
                writeln!(out, "weight = {v}").unwrap();
            }
            if let Some(v) = p.priority {
                writeln!(out, "priority = {v}").unwrap();
            }
            if let Some(v) = p.max_inflight {
                writeln!(out, "max_inflight = {v}").unwrap();
            }
            if let Some(v) = p.device_mem_quota {
                writeln!(out, "device_mem_quota = {v}").unwrap();
            }
        };

        if self.policy != PolicySection::default() {
            writeln!(out, "\n[policy]").unwrap();
            write_policy(&mut out, &self.policy);
        }

        for (name, tenant) in &self.tenants {
            writeln!(out, "\n[tenants.{name}]").unwrap();
            writeln!(out, "token = {}", s(&tenant.token)).unwrap();
            writeln!(out, "admin = {}", tenant.admin).unwrap();
            write_policy(&mut out, &tenant.policy);
        }

        out
    }
}
