//! End-to-end tests over the real HTTP surface: an in-process daemon on
//! a scratch port, driven through `TcpStream` exactly as an external
//! tenant would — auth, lifecycle, workload execution (checksums
//! bit-identical to a native run), migration, crash recovery, metrics,
//! and graceful shutdown with a flight-recorder flush.

use std::time::Duration;

use ava_core::{opencl_stack, OpenClClient, StackConfig, VmPolicy};
use ava_workloads::{opencl_workloads, silo_with_all_kernels, FrontDoor, Scale};
use avad::{AvadConfig, Daemon, DaemonHandle};

/// The test daemon config: a 2-slot pool, two tenants (one admin), test
/// hooks on, guest deadlines tight enough that crash recovery is fast.
fn test_config(flight_record: Option<&str>) -> AvadConfig {
    let toml = format!(
        r#"
[daemon]
listen = "127.0.0.1:0"
enable_test_hooks = true
drain_timeout_ms = 3000
{}

[stack]
cost_model = "free"
pool_size = 2
slot_inflight = 2

[guest]
call_deadline_ms = 200
max_retries = 5
retry_backoff_ms = 1

[tenants.ops]
token = "ops-token"
admin = true

[tenants.alice]
token = "alice-token"
weight = 2
max_inflight = 8
"#,
        flight_record.map_or(String::new(), |p| format!("flight_record = \"{p}\"")),
    );
    AvadConfig::from_str(&toml).expect("test config validates")
}

fn boot(flight_record: Option<&str>) -> (DaemonHandle, FrontDoor, FrontDoor) {
    let handle = Daemon::start(test_config(flight_record)).expect("daemon boots");
    let ops = FrontDoor::new(handle.addr().to_string(), "ops-token");
    let alice = FrontDoor::new(handle.addr().to_string(), "alice-token");
    (handle, ops, alice)
}

/// The native oracle: the same workload run against a plain in-process
/// stack. Checksums are deterministic, so the daemon's value must match
/// bit-for-bit.
fn native_checksum(workload: &str) -> f64 {
    let stack = opencl_stack(silo_with_all_kernels(Scale::Test), StackConfig::default()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    opencl_workloads(Scale::Test)
        .into_iter()
        .find(|w| w.name() == workload)
        .unwrap()
        .run(&client)
        .unwrap()
}

#[test]
fn health_and_metrics_need_no_auth() {
    let (handle, _ops, _alice) = boot(None);
    let anon = FrontDoor::new(handle.addr().to_string(), "");
    let health = anon.health().unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    assert_eq!(health.field("status").as_deref(), Some("ok"));
    let metrics = anon.metrics().unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("ava_frontdoor_scrapes_total"),
        "scrape counter missing:\n{:.400}",
        metrics.body
    );
    handle.stop();
}

#[test]
fn api_endpoints_reject_missing_and_bogus_tokens() {
    let (handle, ops, _alice) = boot(None);
    for token in ["", "wrong-token"] {
        let anon = FrontDoor::new(handle.addr().to_string(), token);
        let reply = anon.list_vms().unwrap();
        assert_eq!(reply.status, 401, "token {token:?}: {}", reply.body);
    }
    // A valid token works, and the 401s were counted.
    assert_eq!(ops.list_vms().unwrap().status, 200);
    let metrics = ops.metrics().unwrap();
    assert!(
        metrics.body.contains("ava_frontdoor_unauthorized_total 2"),
        "unauthorized counter:\n{}",
        metrics
            .body
            .lines()
            .filter(|l| l.contains("frontdoor"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    handle.stop();
}

#[test]
fn tenants_cannot_touch_each_others_vms_but_admins_can() {
    let (handle, ops, alice) = boot(None);
    let created = alice.create_vm("{\"name\":\"private\"}").unwrap();
    assert_eq!(created.status, 201, "{}", created.body);
    let vm = created.field_u64("id").unwrap();

    // A second non-admin tenant would get 403; ops is admin and succeeds.
    let stats = ops.vm_stats(vm).unwrap();
    assert_eq!(stats.status, 200, "{}", stats.body);

    // Alice sees her VM in the listing; the canary VM is never listed.
    let listing = alice.list_vms().unwrap();
    assert!(listing.body.contains("\"private\""), "{}", listing.body);
    assert_eq!(
        listing.body.matches("\"id\":").count(),
        1,
        "{}",
        listing.body
    );

    // Unknown VM id → 404 (not 403: existence of tenant VMs is public
    // only through ownership).
    assert_eq!(alice.vm_stats(999).unwrap().status, 404);
    handle.stop();
}

#[test]
fn lifecycle_create_run_migrate_rebalance_delete() {
    let (handle, ops, alice) = boot(None);
    let oracle = native_checksum("kmeans");

    let created = alice.create_vm("{\"name\":\"worker\"}").unwrap();
    assert_eq!(created.status, 201, "{}", created.body);
    let vm = created.field_u64("id").unwrap();

    // Run through the front door: checksum must equal the native run's.
    let run = alice.run_workload(vm, "kmeans", 2).unwrap();
    assert_eq!(run.status, 200, "{}", run.body);
    let checksums = run.array_field("checksums").unwrap();
    assert_eq!(checksums.len(), 2);
    for c in &checksums {
        assert_eq!(c.parse::<f64>().unwrap(), oracle, "checksum drift: {c}");
    }

    // Unknown workload → 404 with the known list.
    let bad = alice.run_workload(vm, "mining", 1).unwrap();
    assert_eq!(bad.status, 404);
    assert!(bad.body.contains("kmeans"), "{}", bad.body);

    // Rebalance to both pool slots explicitly (live migration between
    // slots; the VM stays pooled).
    for slot in [1u64, 0] {
        let moved = alice.rebalance_vm(vm, slot).unwrap();
        assert_eq!(moved.status, 200, "{}", moved.body);
        let stats = alice.vm_stats(vm).unwrap();
        assert_eq!(stats.field_u64("slot"), Some(slot), "{}", stats.body);
    }

    // Migrate (snapshot restore onto a fresh private device — the VM
    // leaves the pool, so its slot becomes null) and run again.
    let migrated = alice.migrate_vm(vm).unwrap();
    assert_eq!(migrated.status, 200, "{}", migrated.body);
    let stats = alice.vm_stats(vm).unwrap();
    assert_eq!(
        stats.field("slot").as_deref(),
        Some("null"),
        "{}",
        stats.body
    );
    let rerun = alice.run_workload(vm, "kmeans", 1).unwrap();
    assert_eq!(rerun.status, 200, "{}", rerun.body);
    assert_eq!(
        rerun.array_field("checksums").unwrap()[0]
            .parse::<f64>()
            .unwrap(),
        oracle
    );

    // Stats carry router/server counters that moved.
    let stats = alice.vm_stats(vm).unwrap();
    assert!(stats.field_u64("runs").unwrap() >= 3, "{}", stats.body);
    assert!(stats.body.contains("\"forwarded\":"), "{}", stats.body);

    // Delete; the VM is gone from the listing and subsequent calls 404.
    let deleted = alice.delete_vm(vm).unwrap();
    assert_eq!(deleted.status, 200, "{}", deleted.body);
    assert_eq!(alice.vm_stats(vm).unwrap().status, 404);
    assert_eq!(ops.metrics().unwrap().status, 200);
    handle.stop();
}

#[test]
fn crash_hook_recovers_and_health_stays_up() {
    let (handle, _ops, alice) = boot(None);
    let oracle = native_checksum("backprop");
    let created = alice.create_vm("{\"name\":\"crashy\"}").unwrap();
    let vm = created.field_u64("id").unwrap();

    let first = alice.run_workload(vm, "backprop", 1).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);

    // Kill the VM's API server mid-life; the supervisor respawns it and
    // replays the journal, so the next run still matches the oracle.
    assert_eq!(alice.crash_vm(vm).unwrap().status, 200);
    let after = alice.run_workload(vm, "backprop", 1).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(
        after.array_field("checksums").unwrap()[0]
            .parse::<f64>()
            .unwrap(),
        oracle
    );

    // The canary is isolated from tenant crashes: health never wavered.
    let health = alice.health().unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    handle.stop();
}

#[test]
fn policy_overrides_flow_from_request_to_server() {
    let (handle, _ops, alice) = boot(None);
    // A request-level memory quota far too small for the data-heavy nn
    // workload: its buffer allocations must be refused by the server's
    // quota accountant — proof the per-request policy override flowed
    // through the defaults layering down to the device. Every field here
    // *tightens* alice's configured envelope (weight 2, inflight 8,
    // otherwise unlimited), so the request is accepted.
    let created = alice
        .create_vm("{\"name\":\"limited\",\"policy\":{\"device_mem_quota\":1024,\"rate_limit\":1000.0,\"weight\":1}}")
        .unwrap();
    assert_eq!(created.status, 201, "{}", created.body);
    let vm = created.field_u64("id").unwrap();
    let run = alice.run_workload(vm, "nn", 1).unwrap();
    assert_eq!(run.status, 500, "quota should refuse nn: {}", run.body);
    let stats = alice.vm_stats(vm).unwrap();
    let quota_rejects = stats.field_u64("quota_rejects").unwrap_or(0);
    assert!(quota_rejects > 0, "quota never engaged: {}", stats.body);
    handle.stop();
}

/// The request body is the least-trusted policy layer: a non-admin
/// tenant may only tighten its operator-configured limits. Loosening
/// attempts (the self-escalation path) are refused with 403, while an
/// admin's overrides still win over config.
#[test]
fn tenants_cannot_loosen_their_configured_policy() {
    let (handle, ops, alice) = boot(None);
    // alice is configured with weight = 2, max_inflight = 8.
    for (body, field) in [
        ("{\"policy\":{\"weight\":3}}", "weight"),
        ("{\"policy\":{\"max_inflight\":64}}", "max_inflight"),
        ("{\"policy\":{\"priority\":5}}", "priority"),
    ] {
        let refused = alice.create_vm(body).unwrap();
        assert_eq!(refused.status, 403, "{field}: {}", refused.body);
        assert!(
            refused.body.contains(field),
            "{field} not named: {}",
            refused.body
        );
    }
    // Nothing leaked into the VM table.
    let listing = alice.list_vms().unwrap();
    assert_eq!(
        listing.body.matches("\"id\":").count(),
        0,
        "{}",
        listing.body
    );

    // Tightening the same fields is accepted.
    let ok = alice
        .create_vm("{\"policy\":{\"weight\":2,\"max_inflight\":4}}")
        .unwrap();
    assert_eq!(ok.status, 201, "{}", ok.body);

    // Admins speak for the operator: the same loosening request wins.
    let admin = ops.create_vm("{\"policy\":{\"weight\":9}}").unwrap();
    assert_eq!(admin.status, 201, "{}", admin.body);
    handle.stop();
}

/// A daemon refuses to boot from a config that fails validation, even
/// one built in code rather than parsed.
#[test]
fn daemon_refuses_an_invalid_config() {
    let mut config = AvadConfig::default();
    config.daemon.listen = "127.0.0.1:0".to_string();
    config.stack.transport = "carrier-pigeon".to_string();
    config.policy.weight = Some(0);
    let err = Daemon::start(config)
        .err()
        .expect("invalid config must not boot");
    assert!(err.contains("stack.transport"), "{err}");
    assert!(err.contains("policy.weight: must be >= 1 (got 0)"), "{err}");
}

/// Request-body policies obey the ranges `--check-config` enforces on
/// config files — even for admins — instead of being clamped.
#[test]
fn out_of_range_request_policies_are_refused() {
    let (handle, ops, _alice) = boot(None);
    for (body, message) in [
        (
            "{\"policy\":{\"priority\":300}}",
            "policy.priority must be <= 255 (got 300)",
        ),
        (
            "{\"policy\":{\"weight\":0}}",
            "policy.weight must be >= 1 (got 0)",
        ),
        (
            "{\"policy\":{\"max_inflight\":0}}",
            "policy.max_inflight must be >= 1 (got 0)",
        ),
        (
            "{\"policy\":{\"rate_limit\":10.0,\"rate_burst\":0}}",
            "policy.rate_burst must be >= 1 (got 0)",
        ),
    ] {
        let refused = ops.create_vm(body).unwrap();
        assert_eq!(refused.status, 400, "{body}: {}", refused.body);
        assert!(refused.body.contains(message), "{body}: {}", refused.body);
    }
    let listing = ops.list_vms().unwrap();
    assert_eq!(
        listing.body.matches("\"id\":").count(),
        0,
        "{}",
        listing.body
    );
    // The top of the priority range is accepted.
    let ok = ops.create_vm("{\"policy\":{\"priority\":255}}").unwrap();
    assert_eq!(ok.status, 201, "{}", ok.body);
    handle.stop();
}

/// A misspelt request-body policy key is refused by name, as the same
/// typo in a config file's `[policy]` is, instead of silently running the
/// VM on its defaults.
#[test]
fn unknown_request_policy_keys_are_refused() {
    let (handle, ops, _alice) = boot(None);
    let refused = ops.create_vm("{\"policy\":{\"weigth\":5}}").unwrap();
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert!(
        refused.body.contains("unknown key `policy.weigth`"),
        "{}",
        refused.body
    );
    let listing = ops.list_vms().unwrap();
    assert_eq!(
        listing.body.matches("\"id\":").count(),
        0,
        "{}",
        listing.body
    );
    handle.stop();
}

#[test]
fn shutdown_endpoint_drains_detaches_and_flushes_trace() {
    let dir = std::env::temp_dir().join(format!("avad_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let (handle, ops, alice) = boot(Some(trace_path.to_str().unwrap()));

    let created = alice.create_vm("{\"name\":\"short-lived\"}").unwrap();
    let vm = created.field_u64("id").unwrap();
    assert_eq!(alice.run_workload(vm, "nw", 1).unwrap().status, 200);

    // Non-admin shutdown is refused; admin shutdown drains.
    assert_eq!(alice.shutdown().unwrap().status, 403);
    let accepted = ops.shutdown().unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    handle.join();

    // The daemon is gone from the socket and the trace was flushed.
    let trace = std::fs::read_to_string(&trace_path).expect("flight record flushed");
    assert!(trace.contains("traceEvents"), "{:.200}", trace);
    assert!(
        ops.health().is_err() || !ops.health().unwrap().ok(),
        "daemon still answering after shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Request-supplied quotas obey the same 8x overcommit envelope that
/// `--check-config` enforces on config-file quotas — even for admins.
#[test]
fn request_quotas_are_bounded_by_the_overcommit_envelope() {
    let config = AvadConfig::from_str(
        "[daemon]\nlisten = \"127.0.0.1:0\"\n\
         [stack]\ncost_model = \"free\"\ndevice_mem_capacity = 1048576\n",
    )
    .unwrap();
    let handle = Daemon::start(config).unwrap();
    let anon = FrontDoor::new(handle.addr().to_string(), "");
    // 9x the capacity: past the envelope, refused outright.
    let refused = anon
        .create_vm("{\"policy\":{\"device_mem_quota\":9437184}}")
        .unwrap();
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert!(
        refused.body.contains("device_mem_quota"),
        "{}",
        refused.body
    );
    // 8x exactly: the envelope's edge is allowed.
    let ok = anon
        .create_vm("{\"policy\":{\"device_mem_quota\":8388608}}")
        .unwrap();
    assert_eq!(ok.status, 201, "{}", ok.body);
    handle.stop();
}

#[test]
fn open_mode_without_tenants_accepts_anonymous_admins() {
    let config = AvadConfig::from_str(
        "[daemon]\nlisten = \"127.0.0.1:0\"\n[stack]\ncost_model = \"free\"\n",
    )
    .unwrap();
    let handle = Daemon::start(config).unwrap();
    let anon = FrontDoor::new(handle.addr().to_string(), "");
    let created = anon.create_vm("{}").unwrap();
    assert_eq!(created.status, 201, "{}", created.body);
    let vm = created.field_u64("id").unwrap();
    assert_eq!(anon.run_workload(vm, "pathfinder", 1).unwrap().status, 200);
    assert_eq!(anon.delete_vm(vm).unwrap().status, 200);
    handle.stop();
}

/// Fault hooks are refused when test hooks are off — the production
/// surface cannot be chaos-injected.
#[test]
fn fault_injection_requires_test_hooks() {
    let config = AvadConfig::from_str(
        "[daemon]\nlisten = \"127.0.0.1:0\"\n[stack]\ncost_model = \"free\"\n",
    )
    .unwrap();
    let handle = Daemon::start(config).unwrap();
    let anon = FrontDoor::new(handle.addr().to_string(), "");
    let refused = anon.create_vm("{\"faults\":{\"seed\":7}}").unwrap();
    assert_eq!(refused.status, 403, "{}", refused.body);
    let created = anon.create_vm("{}").unwrap();
    assert_eq!(created.status, 201);
    let vm = created.field_u64("id").unwrap();
    assert_eq!(anon.crash_vm(vm).unwrap().status, 403);
    handle.stop();
}

/// Liveness probes answer within the configured window even while a
/// workload is in flight on another VM.
#[test]
fn health_answers_during_load() {
    let (handle, _ops, alice) = boot(None);
    let created = alice.create_vm("{\"name\":\"busy\"}").unwrap();
    let vm = created.field_u64("id").unwrap();
    let bg_alice = alice.clone();
    let bg = std::thread::spawn(move || bg_alice.run_workload(vm, "gaussian", 2));
    for _ in 0..5 {
        let health = alice.health().unwrap();
        assert_eq!(health.status, 200, "{}", health.body);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(bg.join().unwrap().unwrap().status, 200);
    handle.stop();
}
