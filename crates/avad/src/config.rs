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
//! Each `[section]` is declared once, as a list of documented
//! `key: Type = default` entries (an integer key may add `, in lo..=hi`).
//! That one list yields the section's struct, its `Default`, its reader
//! (type and unknown-key violations), its range check (run by
//! [`AvadConfig::validate`]) and its TOML writer. The allowed strings of
//! each enum key live in one table of `(name, engine value)` pairs that
//! both `validate` and [`AvadConfig::stack_config`] read.
//!
//! [`RouterConfig`]: ava_hypervisor::RouterConfig

#![warn(clippy::too_many_lines)]

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::net::SocketAddr;
use std::ops::RangeInclusive;
use std::time::Duration;

use ava_core::{BrownoutConfig, GuestConfig, PolicyDefaults, StackConfig};
use ava_hypervisor::{BreakerConfig, PlacementPolicy, SchedulerKind};
use ava_telemetry::SloConfig;
use ava_transport::{CostModel, TransportKind};

use crate::toml::{self, TomlDoc, TomlTable, TomlValue};

/// Maximum per-VM overcommit the config accepts: a quota may promise at
/// most this many times the device's resident capacity (the swap store
/// absorbs the difference; beyond this the fault-in path only thrashes).
pub const MAX_QUOTA_OVERCOMMIT: u64 = 8;

/// Declared ranges: keys that must not be 0, and keys the engine stores
/// in a narrower integer.
const POSITIVE: RangeInclusive<u64> = 1..=u64::MAX;
const U8: RangeInclusive<u64> = 0..=u8::MAX as u64;
const U32: RangeInclusive<u64> = 0..=u32::MAX as u64;
const POSITIVE_U32: RangeInclusive<u64> = 1..=u32::MAX as u64;

/// `stack.api`: the daemon serves the one API its stack is built for.
const APIS: &[(&str, ())] = &[("opencl", ())];

/// `stack.transport`.
const TRANSPORTS: &[(&str, TransportKind)] = &[
    ("inproc", TransportKind::InProcess),
    ("shmem", TransportKind::SharedMemory),
    ("tcp", TransportKind::Tcp),
];

/// `stack.cost_model`.
const COST_MODELS: &[(&str, CostModel)] = &[
    ("free", CostModel::free()),
    ("paravirtual", CostModel::paravirtual()),
    ("network", CostModel::network()),
];

/// `stack.scheduler`.
const SCHEDULERS: &[(&str, SchedulerKind)] = &[
    ("fifo", SchedulerKind::Fifo),
    ("fair_share", SchedulerKind::FairShare),
    ("priority", SchedulerKind::Priority),
];

/// `stack.placement`.
const PLACEMENTS: &[(&str, PlacementPolicy)] = &[
    ("round_robin", PlacementPolicy::RoundRobin),
    ("least_loaded", PlacementPolicy::LeastLoaded),
    ("packed", PlacementPolicy::Packed),
];

/// The engine value `name` stands for in `table`. Reaching an unknown
/// name means the config skipped [`AvadConfig::validate`].
fn engine_value<T: Copy>(table: &[(&str, T)], path: &str, name: &str) -> T {
    let found = table.iter().find(|(n, _)| *n == name);
    found.map_or_else(
        || panic!("{path} = `{name}` reached stack_config without validation"),
        |&(_, v)| v,
    )
}

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

fn key_path(section: &str, key: &str) -> String {
    if section.is_empty() {
        key.to_string()
    } else {
        format!("{section}.{key}")
    }
}

/// One table being read: declared keys are taken out of it, violations
/// collect in `out`, and whatever is left when finished is unknown.
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

    fn reject(&mut self, key: &str, message: String) {
        violation(self.out, key_path(&self.path, key), message);
    }

    /// Takes `key` out of the table: `None` when it is absent or of the
    /// wrong type (the latter recorded as a violation).
    fn take<T: Value>(&mut self, key: &str) -> Option<T> {
        let raw = self.table.remove(key)?;
        T::from_toml(raw).map_err(|m| self.reject(key, m)).ok()
    }

    fn finish(self) {
        for key in self.table.keys() {
            violation(
                self.out,
                key_path(&self.path, key),
                format!("unknown key `{key}` (check the DESIGN.md §13 schema)"),
            );
        }
    }
}

/// A type a declared key can hold.
trait Value: Sized {
    /// The value `raw` holds, or why it holds none.
    fn from_toml(raw: TomlValue) -> Result<Self, String>;

    /// The value as TOML text; `None` leaves the key out.
    fn render(&self) -> Option<String>;

    /// Why the value lies outside `bounds`; only integers have bounds.
    fn bounds_error(&self, _bounds: &RangeInclusive<u64>) -> Option<String> {
        None
    }
}

fn expected<T>(what: &str, raw: &TomlValue) -> Result<T, String> {
    Err(format!("expected {what}, got {}", raw.type_name()))
}

impl Value for String {
    fn from_toml(raw: TomlValue) -> Result<Self, String> {
        match raw {
            TomlValue::Str(v) => Ok(v),
            other => expected("a string", &other),
        }
    }

    fn render(&self) -> Option<String> {
        Some(toml::write_str(self))
    }
}

impl Value for u64 {
    fn from_toml(raw: TomlValue) -> Result<Self, String> {
        match raw {
            TomlValue::Int(i) if i >= 0 => Ok(i as u64),
            TomlValue::Int(i) => Err(format!("must be >= 0 (got {i})")),
            other => expected("an integer", &other),
        }
    }

    fn render(&self) -> Option<String> {
        Some(self.to_string())
    }

    fn bounds_error(&self, bounds: &RangeInclusive<u64>) -> Option<String> {
        if self < bounds.start() {
            Some(format!("must be >= {} (got {self})", bounds.start()))
        } else if self > bounds.end() {
            Some(format!("must be <= {} (got {self})", bounds.end()))
        } else {
            None
        }
    }
}

impl Value for f64 {
    fn from_toml(raw: TomlValue) -> Result<Self, String> {
        match raw {
            TomlValue::Float(v) => Ok(v),
            TomlValue::Int(i) => Ok(i as f64),
            other => expected("a number", &other),
        }
    }

    fn render(&self) -> Option<String> {
        Some(toml::write_float(*self))
    }
}

impl Value for bool {
    fn from_toml(raw: TomlValue) -> Result<Self, String> {
        match raw {
            TomlValue::Bool(b) => Ok(b),
            other => expected("a boolean", &other),
        }
    }

    fn render(&self) -> Option<String> {
        Some(self.to_string())
    }
}

/// An optional key: absent or rejected reads as `None`, and `None` is
/// not written.
impl<T: Value> Value for Option<T> {
    fn from_toml(raw: TomlValue) -> Result<Self, String> {
        T::from_toml(raw).map(Some)
    }

    fn render(&self) -> Option<String> {
        self.as_ref().and_then(Value::render)
    }

    fn bounds_error(&self, bounds: &RangeInclusive<u64>) -> Option<String> {
        self.as_ref()?.bounds_error(bounds)
    }
}

fn write_key(out: &mut String, key: &str, value: &impl Value) {
    if let Some(text) = value.render() {
        writeln!(out, "{key} = {text}").expect("writing to a String cannot fail");
    }
}

/// A section declared with `config_section!`.
trait Section {
    /// Reads every declared key out of `s`; an absent or rejected key
    /// keeps its default.
    fn read(s: &mut Sect<'_>) -> Self
    where
        Self: Sized;

    /// Appends one `key = value` line per key that has a value, in
    /// declaration order.
    fn write(&self, out: &mut String);

    /// Each key whose value lies outside its declared range, with the
    /// `must be …` reason.
    fn bounds_errors(&self) -> Vec<(&'static str, String)>;

    /// True when the section declares `key`.
    fn declares(key: &str) -> bool
    where
        Self: Sized;
}

/// Declares one `[section]` of the schema. Each entry is a documented
/// `key: Type = default`, optionally followed by `, in lo..=hi` for an
/// integer key's accepted range. A trailing `.. field: Other` embeds
/// another declared section whose keys share this table (`[tenants.*]`
/// carries the `[policy]` keys). From that one list come the public
/// struct, its `Default` and its `Section` reader, writer and range
/// check.
macro_rules! config_section {
    (@bounds) => { 0..=u64::MAX };
    (@bounds $bounds:expr) => { $bounds };

    (
        $(#[$meta:meta])*
        pub struct $Section:ident {
            $(
                $(#[$doc:meta])*
                $key:ident: $ty:ty = $default:expr $(, in $bounds:expr)?;
            )*
            $(
                ..
                $(#[$flat_doc:meta])*
                $flat:ident: $Flat:ty;
            )?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $Section {
            $($(#[$doc])* pub $key: $ty,)*
            $($(#[$flat_doc])* pub $flat: $Flat,)?
        }

        impl Default for $Section {
            fn default() -> Self {
                $Section {
                    $($key: $default,)*
                    $($flat: <$Flat>::default(),)?
                }
            }
        }

        impl Section for $Section {
            fn read(s: &mut Sect<'_>) -> Self {
                let mut section = Self::default();
                $(
                    if let Some(value) = s.take::<$ty>(stringify!($key)) {
                        section.$key = value;
                    }
                )*
                $(section.$flat = <$Flat as Section>::read(s);)?
                section
            }

            fn write(&self, out: &mut String) {
                $(write_key(out, stringify!($key), &self.$key);)*
                $(self.$flat.write(out);)?
            }

            fn bounds_errors(&self) -> Vec<(&'static str, String)> {
                let mut errors = Vec::new();
                $(
                    let bounds = config_section!(@bounds $($bounds)?);
                    if let Some(message) = self.$key.bounds_error(&bounds) {
                        errors.push((stringify!($key), message));
                    }
                )*
                $(errors.extend(self.$flat.bounds_errors());)?
                errors
            }

            fn declares(key: &str) -> bool {
                [$(stringify!($key)),*].contains(&key)
                    $(|| <$Flat as Section>::declares(key))?
            }
        }
    };
}

config_section! {
    /// `[daemon]` — the HTTP front door itself.
    pub struct DaemonSection {
        /// Listen address (`host:port`; port 0 binds a scratch port).
        listen: String = "127.0.0.1:7680".to_string();
        /// Where the flight-recorder trace is flushed on graceful shutdown
        /// (Chrome-trace JSON). `None` skips the flush.
        flight_record: Option<String> = None;
        /// Enables the test-only surface: `POST /vms/{id}/crash` and fault
        /// plans on VM creation. Production configs leave this off.
        enable_test_hooks: bool = false;
        /// How long shutdown waits for in-flight HTTP requests to finish
        /// before detaching VMs.
        drain_timeout_ms: u64 = 2_000;
    }
}

config_section! {
    /// `[stack]` — engine topology ([`StackConfig`] minus guest behaviour).
    pub struct StackSection {
        /// Which API the daemon serves (`opencl`).
        api: String = "opencl".to_string();
        /// Guest↔hypervisor transport: `inproc`, `shmem`, or `tcp`.
        transport: String = "shmem".to_string();
        /// Transport cost model: `free`, `paravirtual`, or `network`.
        cost_model: String = "paravirtual".to_string();
        /// Cross-VM scheduler: `fifo`, `fair_share`, or `priority`.
        scheduler: String = "fifo".to_string();
        /// Shared-device pool size; 0 = private device per VM.
        pool_size: u64 = 0;
        /// Placement policy: `round_robin`, `least_loaded`, or `packed`.
        placement: String = "round_robin".to_string();
        /// Per-slot sync in-flight budget; at least 1, or a pooled slot
        /// can never forward a call.
        slot_inflight: u64 = StackConfig::default().slot_inflight as u64, in POSITIVE;
        /// Supervisor respawn budget per VM.
        max_respawns: u64 = u64::from(StackConfig::default().max_respawns), in U32;
        /// Load-watchdog migration threshold (ms of device-time gap per
        /// interval); unset disables the watchdog.
        rebalance_threshold_ms: Option<f64> = None;
        /// Watchdog / SLO evaluation cadence.
        rebalance_interval_ms: u64 = StackConfig::default().rebalance_interval.as_millis() as u64;
        /// Soft per-device resident-memory ceiling in bytes.
        device_mem_capacity: Option<u64> = None;
        /// Stack-wide default per-VM device-memory quota in bytes.
        device_mem_quota: Option<u64> = None;
    }
}

config_section! {
    /// `[guest]` — guest-library behaviour ([`ava_core::GuestConfig`]).
    pub struct GuestSection {
        /// Adaptive-batching size limit (calls per frame); 0 disables.
        batch_max_calls: u64 = GuestConfig::default().batch_max_calls as u64;
        /// Adaptive-batching age limit in µs; 0 disables age flushing.
        batch_max_delay_us: u64 = GuestConfig::default().batch_max_delay_us;
        /// Transfer-cache entries; 0 disables payload elision.
        payload_cache_entries: u64 = GuestConfig::default().payload_cache_entries as u64;
        /// Smallest payload eligible for elision, bytes.
        payload_cache_min_bytes: u64 = GuestConfig::default().payload_cache_min_bytes as u64;
        /// Per-attempt sync-call deadline in ms; unset waits forever.
        call_deadline_ms: Option<u64> = None;
        /// Retry budget for timed-out calls.
        max_retries: u64 = u64::from(GuestConfig::default().max_retries), in U32;
        /// Initial retry backoff in ms (doubles per attempt).
        retry_backoff_ms: u64 = GuestConfig::default().retry_backoff.as_millis() as u64;
    }
}

config_section! {
    /// `[admission]` — router overload protection.
    pub struct AdmissionSection {
        /// Per-VM queue-depth shed limit.
        max_queue_depth: Option<u64> = None;
        /// Per-slot aggregate queue-depth shed limit.
        max_slot_queue_depth: Option<u64> = None;
        /// Oldest a queued call may grow before being dropped, ms.
        max_queue_age_ms: Option<u64> = None;
    }
}

config_section! {
    /// `[breaker]` — per-tenant circuit breakers (present = enabled).
    pub struct BreakerSection {
        /// Consecutive failures that open the breaker.
        failure_threshold: u64 = u64::from(BreakerConfig::default().failure_threshold), in U32;
        /// Open window before a half-open probe, ms.
        open_for_ms: u64 = BreakerConfig::default().open_for.as_millis() as u64;
        /// Consecutive probe successes that close it.
        probe_successes: u64 = u64::from(BreakerConfig::default().probe_successes), in U32;
    }
}

config_section! {
    /// `[slo]` — service-level objectives (present = monitored).
    pub struct SloSection {
        /// p99 end-to-end latency target, µs.
        p99_e2e_us: Option<u64> = None;
        /// Maximum retries per issued call over a window (0..=1).
        max_retry_rate: Option<f64> = None;
        /// Maximum instantaneous per-slot queue depth.
        max_queue_depth: Option<f64> = None;
        /// Minimum calls per window before latency objectives are judged.
        min_window_calls: u64 = 16;
    }
}

config_section! {
    /// `[brownout]` — staged degradation (present = enabled; requires `[slo]`).
    pub struct BrownoutSection {
        /// Consecutive violating SLO windows before stage 1.
        stage1_burn: u64 = BrownoutConfig::default().stage1_burn, in POSITIVE;
        /// Consecutive violating windows before stage 2.
        stage2_burn: u64 = BrownoutConfig::default().stage2_burn;
        /// Most tenants stage 2 may shed; at least 1, or stage 2 is
        /// stage 1.
        max_shed: u64 = BrownoutConfig::default().max_shed as u64, in POSITIVE;
    }
}

config_section! {
    /// Shared shape of `[policy]` (stack-wide defaults) and the policy
    /// fields of `[tenants.*]` (per-tenant overrides).
    pub struct PolicySection {
        /// Sustained call-rate limit, calls/sec.
        rate_limit: Option<f64> = None;
        /// Burst size for the rate limiter.
        rate_burst: Option<u64> = None, in POSITIVE_U32;
        /// Fair-share weight.
        weight: Option<u64> = None, in POSITIVE_U32;
        /// Priority level.
        priority: Option<u64> = None, in U8;
        /// Concurrency cap.
        max_inflight: Option<u64> = None, in POSITIVE_U32;
        /// Device-memory quota, bytes.
        device_mem_quota: Option<u64> = None;
    }
}

config_section! {
    /// `[tenants.<name>]` — one authenticated tenant.
    pub struct TenantSection {
        /// Bearer token presented in `Authorization` headers.
        token: String = String::new();
        /// Admins may manage every VM and request shutdown.
        admin: bool = false;
        ..
        /// Per-tenant policy overrides (overlay the `[policy]` defaults).
        policy: PolicySection;
    }
}

/// `v` as the engine's `u32`, saturating; a validated config is in range.
fn saturate_u32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

impl PolicySection {
    /// The first key of `keys` that `[policy]` does not declare.
    pub(crate) fn unknown_key<'k>(mut keys: impl Iterator<Item = &'k str>) -> Option<&'k str> {
        keys.find(|key| !<Self as Section>::declares(key))
    }

    /// The first declared range the section breaks, as
    /// `policy.<key> must be …`.
    pub(crate) fn range_error(&self) -> Option<String> {
        let (key, message) = self.bounds_errors().into_iter().next()?;
        Some(format!("policy.{key} {message}"))
    }

    /// Lowers to the engine's layered-defaults type. A rate limit without
    /// a burst gets a burst of 16.
    pub fn defaults(&self) -> PolicyDefaults {
        PolicyDefaults {
            rate_limit: self
                .rate_limit
                .map(|rate| (rate, saturate_u32(self.rate_burst.unwrap_or(16)))),
            weight: self.weight.map(saturate_u32),
            priority: self.priority.map(|p| u8::try_from(p).unwrap_or(u8::MAX)),
            device_mem_quota: self.device_mem_quota,
            max_inflight: self.max_inflight.map(saturate_u32),
        }
    }
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

/// Reads `[path]` out of `doc` when the file has it.
fn read_section<T: Section + Default>(
    doc: &mut TomlDoc,
    path: &str,
    out: &mut Vec<Violation>,
) -> Option<T> {
    let mut s = Sect::new(path, doc.remove(path)?, out);
    let section = T::read(&mut s);
    s.finish();
    Some(section)
}

fn check_enum<T>(out: &mut Vec<Violation>, path: &str, name: &str, table: &[(&str, T)]) {
    if !table.iter().any(|(n, _)| *n == name) {
        let allowed: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        violation(
            out,
            path,
            format!("`{name}` is not one of {}", allowed.join(", ")),
        );
    }
}

fn check_rate(out: &mut Vec<Violation>, path: String, rate: Option<f64>) {
    if let Some(rate) = rate.filter(|r| *r <= 0.0) {
        violation(out, path, format!("must be > 0 calls/sec (got {rate})"));
    }
}

impl AvadConfig {
    /// Parses and fully validates a config file's contents. On failure
    /// the error carries **every** violation found — TOML syntax, schema
    /// (types, ranges, unknown keys/sections), and cross-field rules.
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
        let top = doc.remove("").unwrap_or_default();
        Sect::new("", top, &mut out).finish(); // top-level keys are unknown by definition

        let doc = &mut doc;
        let config = AvadConfig {
            daemon: read_section(doc, "daemon", &mut out).unwrap_or_default(),
            stack: read_section(doc, "stack", &mut out).unwrap_or_default(),
            guest: read_section(doc, "guest", &mut out).unwrap_or_default(),
            admission: read_section(doc, "admission", &mut out).unwrap_or_default(),
            breaker: read_section(doc, "breaker", &mut out),
            slo: read_section(doc, "slo", &mut out),
            brownout: read_section(doc, "brownout", &mut out),
            policy: read_section(doc, "policy", &mut out).unwrap_or_default(),
            tenants: Self::read_tenants(doc, &mut out),
        };
        for section in doc.keys() {
            violation(
                &mut out,
                section.clone(),
                format!("unknown section `[{section}]`"),
            );
        }
        Ok((config, out))
    }

    /// `[tenants]` itself holds no keys; each `[tenants.<name>]` is one
    /// tenant.
    fn read_tenants(
        doc: &mut TomlDoc,
        out: &mut Vec<Violation>,
    ) -> BTreeMap<String, TenantSection> {
        if let Some(table) = doc.remove("tenants") {
            Sect::new("tenants", table, out).finish();
        }
        let names: Vec<String> = doc
            .keys()
            .filter_map(|k| k.strip_prefix("tenants.").map(str::to_string))
            .collect();
        names
            .into_iter()
            .map(|name| {
                let tenant = read_section(doc, &format!("tenants.{name}"), out);
                (name, tenant.unwrap_or_default())
            })
            .collect()
    }

    /// Cross-field validation. Returns every broken rule (empty = valid).
    pub fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        self.check_bounds(&mut out);
        self.check_domains(&mut out);
        self.check_admission(&mut out);
        self.check_quotas(&mut out);
        self.check_degradation(&mut out);
        self.check_timing(&mut out);
        self.check_tenants(&mut out);
        out
    }

    /// Every key against its declared range. A section `to_toml` leaves
    /// out holds its defaults, which are in range.
    fn check_bounds(&self, out: &mut Vec<Violation>) {
        for (path, section) in self.sections() {
            for (key, message) in section.bounds_errors() {
                violation(out, format!("{path}.{key}"), message);
            }
        }
    }

    /// Enum keys and the listen address.
    fn check_domains(&self, out: &mut Vec<Violation>) {
        let s = &self.stack;
        check_enum(out, "stack.api", &s.api, APIS);
        check_enum(out, "stack.transport", &s.transport, TRANSPORTS);
        check_enum(out, "stack.cost_model", &s.cost_model, COST_MODELS);
        check_enum(out, "stack.scheduler", &s.scheduler, SCHEDULERS);
        check_enum(out, "stack.placement", &s.placement, PLACEMENTS);
        if self.daemon.listen.parse::<SocketAddr>().is_err() {
            violation(
                out,
                "daemon.listen",
                format!(
                    "`{}` is not a socket address (expected host:port, e.g. 127.0.0.1:7680)",
                    self.daemon.listen
                ),
            );
        }
    }

    /// The slot budget and the admission caps stacked on it.
    fn check_admission(&self, out: &mut Vec<Violation>) {
        if let Some(depth) = self.admission.max_queue_depth {
            if depth < self.stack.slot_inflight {
                violation(
                    out,
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
                    out,
                    "admission.max_slot_queue_depth",
                    format!(
                        "must be >= admission.max_queue_depth ({slot} < {vm}): the slot-wide cap \
                         would starve every lane below its own per-VM allowance"
                    ),
                );
            }
        }
    }

    /// Every quota against the overcommit envelope of the device capacity.
    fn check_quotas(&self, out: &mut Vec<Violation>) {
        let tenant_quotas = self.tenants.iter().map(|(name, tenant)| {
            (
                format!("tenants.{name}.device_mem_quota"),
                tenant.policy.device_mem_quota,
            )
        });
        let stack_quota = (
            "stack.device_mem_quota".to_string(),
            self.stack.device_mem_quota,
        );
        for (path, quota) in std::iter::once(stack_quota).chain(tenant_quotas) {
            if let Some(message) = quota.and_then(|q| self.quota_error(q)) {
                violation(out, path, message);
            }
        }
    }

    /// Why a per-VM `quota` lies outside the overcommit envelope of
    /// `stack.device_mem_capacity`, when it does. A request body's quota
    /// obeys the same envelope as the config file's.
    pub(crate) fn quota_error(&self, quota: u64) -> Option<String> {
        let capacity = self.stack.device_mem_capacity?;
        let limit = capacity.saturating_mul(MAX_QUOTA_OVERCOMMIT);
        (quota > limit).then(|| {
            format!(
                "quota {quota} exceeds {MAX_QUOTA_OVERCOMMIT}x the device \
                 capacity ({capacity}): beyond {limit} bytes the swap path can \
                 only thrash; raise stack.device_mem_capacity or lower the quota"
            )
        })
    }

    /// Brownout stages and the SLO they burn against.
    fn check_degradation(&self, out: &mut Vec<Violation>) {
        if let Some(b) = &self.brownout {
            let slo_live = self.slo.as_ref().is_some_and(|s| {
                s.p99_e2e_us.is_some() || s.max_retry_rate.is_some() || s.max_queue_depth.is_some()
            });
            if !slo_live {
                violation(
                    out,
                    "brownout",
                    "brownout requires an [slo] section with at least one objective — \
                     the supervisor stages degradation off SLO burn, so without an SLO \
                     the brownout can never engage",
                );
            }
            if b.stage2_burn < b.stage1_burn {
                violation(
                    out,
                    "brownout.stage2_burn",
                    format!(
                        "must be >= brownout.stage1_burn ({} < {}): stage 2 escalates from \
                         stage 1, it cannot trigger first",
                        b.stage2_burn, b.stage1_burn
                    ),
                );
            }
        }
        let retry_rate = self.slo.as_ref().and_then(|s| s.max_retry_rate);
        if let Some(rate) = retry_rate.filter(|r| !(0.0..=1.0).contains(r)) {
            violation(
                out,
                "slo.max_retry_rate",
                format!("must be within 0.0..=1.0 (got {rate})"),
            );
        }
    }

    /// The call deadline against batching, and the watchdog against the
    /// pool it migrates within.
    fn check_timing(&self, out: &mut Vec<Violation>) {
        if let Some(deadline_ms) = self.guest.call_deadline_ms {
            if deadline_ms == 0 {
                violation(
                    out,
                    "guest.call_deadline_ms",
                    "must be >= 1 when set (0 would expire every call on arrival); \
                     omit the key to disable deadlines",
                );
            } else if self.guest.batch_max_delay_us >= deadline_ms * 1_000 {
                violation(
                    out,
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
                out,
                "stack.rebalance_threshold_ms",
                format!(
                    "the load watchdog needs a pool of at least 2 slots to migrate \
                     between (stack.pool_size is {})",
                    self.stack.pool_size
                ),
            );
        }
    }

    /// Tenant tokens and every rate limit.
    fn check_tenants(&self, out: &mut Vec<Violation>) {
        let mut seen_tokens: BTreeMap<&str, &str> = BTreeMap::new();
        for (name, tenant) in &self.tenants {
            if tenant.token.is_empty() {
                violation(
                    out,
                    format!("tenants.{name}.token"),
                    "token must be a non-empty string",
                );
                continue;
            }
            if let Some(first) = seen_tokens.insert(&tenant.token, name) {
                violation(
                    out,
                    format!("tenants.{name}.token"),
                    format!("token collides with tenants.{first} — tokens must be unique"),
                );
            }
            check_rate(
                out,
                format!("tenants.{name}.rate_limit"),
                tenant.policy.rate_limit,
            );
        }
        check_rate(out, "policy.rate_limit".to_string(), self.policy.rate_limit);
    }

    /// Lowers to the engine's [`StackConfig`].
    ///
    /// # Panics
    ///
    /// On an enum string outside its domain, which
    /// [`validate`](Self::validate) rejects: only call on a validated
    /// config.
    pub fn stack_config(&self) -> StackConfig {
        let s = &self.stack;
        let g = &self.guest;
        let guest = GuestConfig {
            batch_max: 0,
            batch_max_calls: g.batch_max_calls as usize,
            batch_max_delay_us: g.batch_max_delay_us,
            payload_cache_entries: g.payload_cache_entries as usize,
            payload_cache_min_bytes: g.payload_cache_min_bytes as usize,
            call_deadline: g.call_deadline_ms.map(Duration::from_millis),
            max_retries: saturate_u32(g.max_retries),
            retry_backoff: Duration::from_millis(g.retry_backoff_ms),
        };
        StackConfig {
            transport: engine_value(TRANSPORTS, "stack.transport", &s.transport),
            cost_model: engine_value(COST_MODELS, "stack.cost_model", &s.cost_model),
            scheduler: engine_value(SCHEDULERS, "stack.scheduler", &s.scheduler),
            guest,
            max_respawns: saturate_u32(s.max_respawns),
            pool_size: s.pool_size as usize,
            placement: engine_value(PLACEMENTS, "stack.placement", &s.placement),
            slot_inflight: s.slot_inflight as usize,
            rebalance_threshold_ms: s.rebalance_threshold_ms,
            rebalance_interval: Duration::from_millis(s.rebalance_interval_ms),
            slo: self.slo.as_ref().map(|s| SloConfig {
                p99_e2e_ns: s.p99_e2e_us.map(|us| us.saturating_mul(1_000)),
                max_retry_rate: s.max_retry_rate,
                max_queue_depth: s.max_queue_depth,
                min_window_calls: s.min_window_calls,
            }),
            device_mem_capacity: s.device_mem_capacity,
            device_mem_quota: s.device_mem_quota,
            max_queue_depth: self.admission.max_queue_depth.map(|v| v as usize),
            max_slot_queue_depth: self.admission.max_slot_queue_depth.map(|v| v as usize),
            max_queue_age: self.admission.max_queue_age_ms.map(Duration::from_millis),
            breaker: self.breaker.as_ref().map(|b| BreakerConfig {
                failure_threshold: saturate_u32(b.failure_threshold),
                open_for: Duration::from_millis(b.open_for_ms),
                probe_successes: saturate_u32(b.probe_successes),
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

    /// The sections `to_toml` writes, by path: `[daemon]`, `[stack]` and
    /// `[guest]` always, `[admission]` and `[policy]` when they differ
    /// from their defaults, the optional sections when present, then
    /// each tenant.
    fn sections(&self) -> Vec<(String, &dyn Section)> {
        let mut sections: Vec<(String, &dyn Section)> = vec![
            ("daemon".to_string(), &self.daemon),
            ("stack".to_string(), &self.stack),
            ("guest".to_string(), &self.guest),
        ];
        if self.admission != AdmissionSection::default() {
            sections.push(("admission".to_string(), &self.admission));
        }
        if let Some(b) = &self.breaker {
            sections.push(("breaker".to_string(), b));
        }
        if let Some(slo) = &self.slo {
            sections.push(("slo".to_string(), slo));
        }
        if let Some(b) = &self.brownout {
            sections.push(("brownout".to_string(), b));
        }
        if self.policy != PolicySection::default() {
            sections.push(("policy".to_string(), &self.policy));
        }
        for (name, tenant) in &self.tenants {
            sections.push((format!("tenants.{name}"), tenant));
        }
        sections
    }

    /// Serializes back to TOML such that `from_str` reproduces `self`
    /// exactly (property-tested).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for (path, section) in self.sections() {
            if !out.is_empty() {
                out.push('\n');
            }
            writeln!(out, "[{path}]").expect("writing to a String cannot fail");
            section.write(&mut out);
        }
        out
    }
}
