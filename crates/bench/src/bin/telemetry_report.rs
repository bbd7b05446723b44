//! Telemetry export demonstration: a scripted two-VM pool scenario that
//! deliberately exercises every flight-recorder event class — dropped
//! replies (guest retries), an API-server crash (respawn + journal
//! replay), an explicit live migration (rebalance), and an unmeetable SLO
//! (violation events + burn gauges) — then prints the registry as text.
//! CI runs it to check that the exporters produce non-trivial artifacts;
//! the per-layer span budget comes from avabench (`bench/avabench`).
//!
//! Usage: `telemetry_report [--trace FILE] [--prom FILE]`
//!
//! * `--trace FILE` writes Chrome-trace/Perfetto JSON of the run.
//! * `--prom FILE` writes Prometheus text exposition of the run.

use std::time::{Duration, Instant};

use ava_core::{opencl_pool_stack, GuestConfig, OpenClClient, PlacementPolicy, StackConfig};
use ava_hypervisor::VmPolicy;
use ava_telemetry::{export, Registry, SloConfig, Snapshot};
use ava_transport::{CostModel, FaultAction, FaultPlan, TransportKind};
use ava_wire::Message;
use ava_workloads::{opencl_workloads, silo_with_all_kernels, Scale};

/// A pooled run that deterministically drives every recorder event class:
/// two VMs packed onto slot 0, dropped replies on VM A (retries), a crash
/// of VM B's API server (respawn + journal replay + cache-epoch bump), an
/// explicit migration of VM B (rebalance + placement), and a 1 ns p99
/// target no workload can meet (SLO violations + burn gauges).
fn run_pool_scenario() -> Snapshot {
    let scale = Scale::Test;
    let config = StackConfig {
        transport: TransportKind::InProcess,
        cost_model: CostModel::free(),
        placement: PlacementPolicy::Packed,
        guest: GuestConfig {
            call_deadline: Some(Duration::from_millis(50)),
            max_retries: 5,
            retry_backoff: Duration::from_millis(1),
            payload_cache_entries: 32,
            ..GuestConfig::default()
        },
        supervision_interval: Duration::from_millis(2),
        rebalance_interval: Duration::from_millis(25),
        slo: Some(SloConfig::p99(1)),
        ..StackConfig::default()
    };
    let silos = vec![silo_with_all_kernels(scale), silo_with_all_kernels(scale)];
    let stack = opencl_pool_stack(silos, config).expect("pool stack builds");
    let registry = Registry::new();
    stack
        .set_telemetry(registry.clone())
        .expect("telemetry attaches");

    // VM A: every reply on a `seq % 20 == 7` frame is dropped, forcing the
    // guest to retry that call (the server's at-most-once cache absorbs
    // the resend) — same schedule as the chaos acceptance test.
    let rx_plan = FaultPlan::quiet(11).rule(
        |seq, msg| matches!(msg, Message::Reply(_)) && seq % 20 == 7,
        FaultAction::Drop,
    );
    let (_vm_a, lib_a) = stack
        .attach_vm_with_faults(VmPolicy::default(), None, Some(rx_plan))
        .expect("vm A attaches");
    let (vm_b, lib_b) = stack.attach_vm(VmPolicy::default()).expect("vm B attaches");
    let client_a = OpenClClient::new(lib_a);
    let client_b = OpenClClient::new(lib_b);

    for wl in opencl_workloads(scale) {
        wl.run(&client_a).expect("workload runs on vm A");
    }
    let first = |client: &OpenClClient| {
        let mut wls = opencl_workloads(scale);
        wls.truncate(1);
        for wl in wls {
            wl.run(client).expect("workload runs on vm B");
        }
    };
    first(&client_b);

    // Kill B's API server; the supervisor replays its journal.
    stack.crash_vm_server(vm_b).expect("crash injects");
    let deadline = Instant::now() + Duration::from_secs(10);
    while stack.recovery_stats().respawns == 0 {
        assert!(
            Instant::now() < deadline,
            "supervisor never respawned the crashed server"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Post-crash traffic proves the replayed server works and re-warms the
    // payload caches (the respawned mirror starts cold, so elided sends
    // NACK with CacheMiss first).
    first(&client_b);

    // Explicit live migration to the other slot: rebalance + placement
    // events on the pool track.
    let src = stack.vm_slot(vm_b).expect("vm B is pooled");
    stack
        .rebalance_vm(vm_b, 1 - src)
        .expect("rebalance succeeds");

    // Let the supervisor evaluate at least one SLO window (the 1 ns p99
    // target is unmeetable, so violations and burn gauges appear).
    let deadline = Instant::now() + Duration::from_secs(10);
    while stack.slo_violations().is_empty() {
        assert!(
            Instant::now() < deadline,
            "SLO monitor never flagged the unmeetable p99 target"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    registry.snapshot()
}

fn main() {
    let (mut trace, mut prom) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = Some(it.next().expect("--trace requires a file path")),
            "--prom" => prom = Some(it.next().expect("--prom requires a file path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: telemetry_report [--trace FILE] [--prom FILE]");
                std::process::exit(2);
            }
        }
    }

    let snapshot = run_pool_scenario();
    print!("{}", snapshot.render_text());
    if let Some(path) = &trace {
        std::fs::write(path, export::trace_json(&snapshot)).expect("trace file writes");
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = &prom {
        std::fs::write(path, export::prometheus(&snapshot)).expect("prometheus file writes");
        eprintln!("wrote Prometheus exposition to {path}");
    }
}
