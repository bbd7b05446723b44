//! Golden tests for the config schema's two text surfaces: what
//! `to_toml` writes (for the defaults and for a config with every key
//! set) and the exact violation list a file breaking every schema rule
//! kind produces. A change to a key's name, order, default, type check or
//! message shows up here byte for byte.

use std::collections::BTreeMap;

use avad::config::{
    AdmissionSection, AvadConfig, BreakerSection, BrownoutSection, DaemonSection, GuestSection,
    PolicySection, SloSection, StackSection, TenantSection,
};

const DEFAULT_TOML: &str = "\
[daemon]
listen = \"127.0.0.1:7680\"
enable_test_hooks = false
drain_timeout_ms = 2000

[stack]
api = \"opencl\"
transport = \"shmem\"
cost_model = \"paravirtual\"
scheduler = \"fifo\"
pool_size = 0
placement = \"round_robin\"
slot_inflight = 2
max_respawns = 3
rebalance_interval_ms = 100

[guest]
batch_max_calls = 0
batch_max_delay_us = 0
payload_cache_entries = 0
payload_cache_min_bytes = 64
max_retries = 3
retry_backoff_ms = 2
";

const FULL_TOML: &str = "\
[daemon]
listen = \"0.0.0.0:9000\"
flight_record = \"trace \\\"a\\\".json\"
enable_test_hooks = true
drain_timeout_ms = 750

[stack]
api = \"opencl\"
transport = \"tcp\"
cost_model = \"network\"
scheduler = \"priority\"
pool_size = 4
placement = \"packed\"
slot_inflight = 3
max_respawns = 7
rebalance_threshold_ms = 2.5
rebalance_interval_ms = 40
device_mem_capacity = 1000000
device_mem_quota = 500000

[guest]
batch_max_calls = 12
batch_max_delay_us = 150
payload_cache_entries = 64
payload_cache_min_bytes = 512
call_deadline_ms = 25
max_retries = 5
retry_backoff_ms = 9

[admission]
max_queue_depth = 32
max_slot_queue_depth = 96
max_queue_age_ms = 400

[breaker]
failure_threshold = 6
open_for_ms = 120
probe_successes = 2

[slo]
p99_e2e_us = 5000
max_retry_rate = 0.25
max_queue_depth = 12.0
min_window_calls = 20

[brownout]
stage1_burn = 2
stage2_burn = 5
max_shed = 3

[policy]
rate_limit = 250.5
rate_burst = 40
weight = 2
priority = 3
max_inflight = 6
device_mem_quota = 250000

[tenants.alpha]
token = \"alpha-token\"
admin = true
rate_limit = 100.0
rate_burst = 8
weight = 4
priority = 255
max_inflight = 2
device_mem_quota = 100000

[tenants.beta]
token = \"beta-token\"
admin = false
";

const KITCHEN_SINK: &str = "\
top_level = 1

[daemon]
listen = 42
enable_test_hooks = \"yes\"
daemon_typo = 1

[stack]
api = \"cuda\"
transport = \"carrier-pigeon\"
cost_model = \"cheap\"
scheduler = \"lottery\"
pool_size = \"four\"
placement = \"random\"
slot_inflight = -3
rebalance_threshold_ms = \"fast\"
stack_typo = 1

[guest]
guest_typo = 1

[admission]
admission_typo = 1

[breaker]
breaker_typo = 1

[slo]
slo_typo = 1

[brownout]
brownout_typo = 1

[policy]
policy_typo = 1

[tenants]
tenants_typo = 1

[tenants.a]
token = \"a\"
tenant_typo = 1

[turbo]
x = 1
";

const KITCHEN_SINK_VIOLATIONS: &[&str] = &[
    "top_level: unknown key `top_level` (check the DESIGN.md §13 schema)",
    "daemon.listen: expected a string, got integer",
    "daemon.enable_test_hooks: expected a boolean, got string",
    "daemon.daemon_typo: unknown key `daemon_typo` (check the DESIGN.md §13 schema)",
    "stack.pool_size: expected an integer, got string",
    "stack.slot_inflight: must be >= 0 (got -3)",
    "stack.rebalance_threshold_ms: expected a number, got string",
    "stack.stack_typo: unknown key `stack_typo` (check the DESIGN.md §13 schema)",
    "guest.guest_typo: unknown key `guest_typo` (check the DESIGN.md §13 schema)",
    "admission.admission_typo: unknown key `admission_typo` (check the DESIGN.md §13 schema)",
    "breaker.breaker_typo: unknown key `breaker_typo` (check the DESIGN.md §13 schema)",
    "slo.slo_typo: unknown key `slo_typo` (check the DESIGN.md §13 schema)",
    "brownout.brownout_typo: unknown key `brownout_typo` (check the DESIGN.md §13 schema)",
    "policy.policy_typo: unknown key `policy_typo` (check the DESIGN.md §13 schema)",
    "tenants.tenants_typo: unknown key `tenants_typo` (check the DESIGN.md §13 schema)",
    "tenants.a.tenant_typo: unknown key `tenant_typo` (check the DESIGN.md §13 schema)",
    "turbo: unknown section `[turbo]`",
    "stack.api: `cuda` is not one of opencl",
    "stack.transport: `carrier-pigeon` is not one of inproc, shmem, tcp",
    "stack.cost_model: `cheap` is not one of free, paravirtual, network",
    "stack.scheduler: `lottery` is not one of fifo, fair_share, priority",
    "stack.placement: `random` is not one of round_robin, least_loaded, packed",
    "brownout: brownout requires an [slo] section with at least one objective — \
     the supervisor stages degradation off SLO burn, so without an SLO \
     the brownout can never engage",
];

fn full_config() -> AvadConfig {
    let mut tenants = BTreeMap::new();
    tenants.insert(
        "alpha".to_string(),
        TenantSection {
            token: "alpha-token".to_string(),
            admin: true,
            policy: PolicySection {
                rate_limit: Some(100.0),
                rate_burst: Some(8),
                weight: Some(4),
                priority: Some(255),
                max_inflight: Some(2),
                device_mem_quota: Some(100_000),
            },
        },
    );
    tenants.insert(
        "beta".to_string(),
        TenantSection {
            token: "beta-token".to_string(),
            admin: false,
            policy: PolicySection::default(),
        },
    );
    AvadConfig {
        daemon: DaemonSection {
            listen: "0.0.0.0:9000".to_string(),
            flight_record: Some("trace \"a\".json".to_string()),
            enable_test_hooks: true,
            drain_timeout_ms: 750,
        },
        stack: StackSection {
            api: "opencl".to_string(),
            transport: "tcp".to_string(),
            cost_model: "network".to_string(),
            scheduler: "priority".to_string(),
            pool_size: 4,
            placement: "packed".to_string(),
            slot_inflight: 3,
            max_respawns: 7,
            rebalance_threshold_ms: Some(2.5),
            rebalance_interval_ms: 40,
            device_mem_capacity: Some(1_000_000),
            device_mem_quota: Some(500_000),
        },
        guest: GuestSection {
            batch_max_calls: 12,
            batch_max_delay_us: 150,
            payload_cache_entries: 64,
            payload_cache_min_bytes: 512,
            call_deadline_ms: Some(25),
            max_retries: 5,
            retry_backoff_ms: 9,
        },
        admission: AdmissionSection {
            max_queue_depth: Some(32),
            max_slot_queue_depth: Some(96),
            max_queue_age_ms: Some(400),
        },
        breaker: Some(BreakerSection {
            failure_threshold: 6,
            open_for_ms: 120,
            probe_successes: 2,
        }),
        slo: Some(SloSection {
            p99_e2e_us: Some(5_000),
            max_retry_rate: Some(0.25),
            max_queue_depth: Some(12.0),
            min_window_calls: 20,
        }),
        brownout: Some(BrownoutSection {
            stage1_burn: 2,
            stage2_burn: 5,
            max_shed: 3,
        }),
        policy: PolicySection {
            rate_limit: Some(250.5),
            rate_burst: Some(40),
            weight: Some(2),
            priority: Some(3),
            max_inflight: Some(6),
            device_mem_quota: Some(250_000),
        },
        tenants,
    }
}

#[test]
fn default_config_serializes_to_golden_toml() {
    assert_eq!(AvadConfig::default().to_toml(), DEFAULT_TOML);
}

#[test]
fn full_config_serializes_to_golden_toml_and_round_trips() {
    let config = full_config();
    assert_eq!(config.to_toml(), FULL_TOML);
    assert_eq!(AvadConfig::from_str(FULL_TOML), Ok(config));
}

#[test]
fn kitchen_sink_file_reports_exact_violations() {
    let found: Vec<String> = AvadConfig::from_str(KITCHEN_SINK)
        .expect_err("the kitchen-sink file must not validate")
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(found, KITCHEN_SINK_VIOLATIONS);
}
