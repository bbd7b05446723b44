//! End-to-end telemetry tests: a real workload through the full stack
//! with a registry attached, checking that cross-tier spans are coherent
//! and that the four replaced stats structs still agree with the registry.

use ava_core::{
    opencl_pool_stack, opencl_stack, GuestStats, OpenClClient, RecoveryStats, StackConfig,
};
use ava_hypervisor::{VmPolicy, VmStats};
use ava_server::ServerStats;
use ava_telemetry::{Registry, Snapshot};
use ava_transport::{CostModel, TransportKind};
use simcl::types::*;
use simcl::{ClApi, SimCl};

fn fast_config() -> StackConfig {
    StackConfig {
        transport: TransportKind::SharedMemory,
        cost_model: CostModel::free(),
        ..StackConfig::default()
    }
}

/// A small vector-add pipeline (sync-heavy: every buffer read is sync).
fn run_workload(api: &dyn ClApi, n: usize) {
    let platform = api.get_platform_ids().unwrap()[0];
    let device = api.get_device_ids(platform, DeviceType::Gpu).unwrap()[0];
    let ctx = api.create_context(device).unwrap();
    let queue = api
        .create_command_queue(ctx, device, QueueProps { profiling: false })
        .unwrap();
    let program = api
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    api.build_program(program, "").unwrap();
    let kernel = api.create_kernel(program, "saxpy").unwrap();
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let bx = api
        .create_buffer(
            ctx,
            MemFlags::read_only(),
            4 * n,
            Some(&simcl::mem::f32_to_bytes(&x)),
        )
        .unwrap();
    let by = api
        .create_buffer(
            ctx,
            MemFlags::read_write(),
            4 * n,
            Some(&simcl::mem::f32_to_bytes(&x)),
        )
        .unwrap();
    api.set_kernel_arg(kernel, 0, KernelArg::Mem(bx)).unwrap();
    api.set_kernel_arg(kernel, 1, KernelArg::Mem(by)).unwrap();
    api.set_kernel_arg(kernel, 2, KernelArg::from_f32(2.0))
        .unwrap();
    api.set_kernel_arg(kernel, 3, KernelArg::from_u32(n as u32))
        .unwrap();
    api.enqueue_nd_range_kernel(queue, kernel, [n, 1, 1], None, &[], false)
        .unwrap();
    let mut out = vec![0u8; 4 * n];
    api.enqueue_read_buffer(queue, by, true, 0, &mut out, &[], false)
        .unwrap();
    api.finish(queue).unwrap();
}

#[test]
fn spans_are_stage_ordered_and_tiers_agree() {
    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let registry = Registry::new();
    stack.set_telemetry(registry.clone()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    run_workload(&client, 256);

    let snapshot = registry.snapshot();
    let full: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.guest_start.is_some())
        .collect();
    assert!(
        full.len() >= 5,
        "expected several completed sync spans, got {}",
        full.len()
    );
    for span in &full {
        // Each tier stamped its stage in lifecycle order.
        assert!(span.stages_ordered(), "stages out of order: {span:?}");
        let q = span.queued.expect("router stamped Queued");
        let f = span.forwarded.expect("router stamped Forwarded");
        let x = span.executed.expect("server stamped Executed");
        let r = span.replied.expect("router stamped Replied");
        assert!(q <= f && f <= x && x <= r, "{span:?}");
        // Guest and server describe the same wire call.
        assert_eq!(
            span.fn_id, span.server_fn_id,
            "guest and server disagree on what call {} was",
            span.call_id
        );
        // Telescoping segments: the six deltas sum exactly to the total.
        let segments: u64 = [
            span.guest_marshal(),
            span.transport_out(),
            span.router_queue(),
            span.server_execute(),
            span.reply_path(),
            span.transport_back(),
        ]
        .iter()
        .map(|s| s.expect("full span has every segment"))
        .sum();
        assert_eq!(Some(segments), span.total());
    }
    // No span leaked in the active table (every sync call completed).
    assert_eq!(registry.spans().active_len(), 0);
}

#[test]
fn registry_counters_match_legacy_stats_views() {
    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let registry = Registry::new();
    stack.set_telemetry(registry.clone()).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib.clone());
    run_workload(&client, 128);

    let snapshot = registry.snapshot();
    let counter = |name: &str| *snapshot.counters.get(name).unwrap_or(&0);

    let guest = lib.stats();
    assert_eq!(
        counter(&format!("guest.vm{vm}.sync_calls")),
        guest.sync_calls
    );
    assert_eq!(
        counter(&format!("guest.vm{vm}.async_calls")),
        guest.async_calls
    );

    let router = stack.vm_router_stats(vm).unwrap();
    assert_eq!(
        counter(&format!("router.vm{vm}.forwarded")),
        router.forwarded
    );
    assert_eq!(counter(&format!("router.vm{vm}.replies")), router.replies);

    let server = stack.vm_server_stats(vm).unwrap();
    assert_eq!(counter(&format!("server.vm{vm}.calls")), server.calls);

    // Per-function histograms exist for the sync entry points.
    assert!(snapshot
        .histograms
        .keys()
        .any(|k| k.starts_with("guest.call.")));
    assert!(snapshot
        .histograms
        .keys()
        .any(|k| k.starts_with("server.execute.")));

    // The rendered report mentions every tier.
    let report = stack.telemetry_report().unwrap();
    for tier in ["guest.", "router.", "server.", "transport."] {
        assert!(report.contains(tier), "report is missing {tier}*: {report}");
    }
}

/// A snapshot-struct field type and the registry cell kind it mirrors:
/// `u64` fields are counters, `f64` fields are gauges.
trait CellValue: Copy + PartialEq + std::fmt::Debug {
    fn read(snapshot: &Snapshot, name: &str) -> Option<Self>;
}

impl CellValue for u64 {
    fn read(snapshot: &Snapshot, name: &str) -> Option<u64> {
        snapshot.counters.get(name).copied()
    }
}

impl CellValue for f64 {
    fn read(snapshot: &Snapshot, name: &str) -> Option<f64> {
        snapshot.gauges.get(name).copied()
    }
}

fn assert_cell<T: CellValue>(snapshot: &Snapshot, prefix: &str, field: &str, value: T) {
    let name = format!("{prefix}.{field}");
    assert_eq!(T::read(snapshot, &name), Some(value), "{name}");
}

/// Destructures a stats struct (exhaustively, unless the pattern ends in
/// `..`) and asserts every named field equals the registry cell
/// `{prefix}.{field}`.
macro_rules! assert_fields_are_cells {
    ($snapshot:expr, $prefix:expr, $Ty:ident { $($field:ident,)* .. } = $stats:expr) => {{
        let $Ty { $($field,)* .. } = $stats;
        $( assert_cell(&$snapshot, $prefix, stringify!($field), $field); )*
    }};
    ($snapshot:expr, $prefix:expr, $Ty:ident { $($field:ident),* $(,)? } = $stats:expr) => {{
        let $Ty { $($field),* } = $stats;
        $( assert_cell(&$snapshot, $prefix, stringify!($field), $field); )*
    }};
}

/// Every counter a one-slot pool stack with one VM registers, sorted.
/// Renaming a cell is a breaking change for dashboards and avabench.
const GOLDEN_COUNTERS: &[&str] = &[
    "guest.vm1.async_calls",
    "guest.vm1.batched_calls",
    "guest.vm1.bytes_elided",
    "guest.vm1.deadline_exceeded",
    "guest.vm1.deferred_errors_delivered",
    "guest.vm1.doorbells",
    "guest.vm1.overloaded",
    "guest.vm1.payload_cache_hits",
    "guest.vm1.payload_cache_misses",
    "guest.vm1.retries",
    "guest.vm1.sync_calls",
    "mem.slot0.evictions",
    "mem.slot0.faults",
    "overload.age_drops",
    "overload.breaker_opens",
    "overload.deadline_drops",
    "overload.sheds",
    "payload_pool.hits",
    "payload_pool.misses",
    "recovery.failed",
    "recovery.replayed_calls",
    "recovery.respawns",
    "router.vm1.age_drops",
    "router.vm1.breaker_opens",
    "router.vm1.bytes_elided",
    "router.vm1.bytes_in",
    "router.vm1.bytes_out",
    "router.vm1.cache_hits",
    "router.vm1.cache_misses",
    "router.vm1.deadline_drops",
    "router.vm1.forwarded",
    "router.vm1.outstanding",
    "router.vm1.rejected",
    "router.vm1.replies",
    "router.vm1.shed",
    "router.vm1.unavailable_replies",
    "server.vm1.calls",
    "server.vm1.duplicates_suppressed",
    "server.vm1.expired_discards",
    "server.vm1.payload_cache_hits",
    "server.vm1.payload_cache_misses",
    "server.vm1.quota_rejects",
    "server.vm1.swap_ins",
    "server.vm1.swap_outs",
    "server.vm1.transport_errors",
    "transport.vm1.guest.frame_bytes_received",
    "transport.vm1.guest.frame_bytes_sent",
    "transport.vm1.guest.messages_received",
    "transport.vm1.guest.messages_sent",
    "transport.vm1.guest.payload_bytes_received",
    "transport.vm1.guest.payload_bytes_sent",
    "transport.vm1.server.frame_bytes_received",
    "transport.vm1.server.frame_bytes_sent",
    "transport.vm1.server.messages_received",
    "transport.vm1.server.messages_sent",
    "transport.vm1.server.payload_bytes_received",
    "transport.vm1.server.payload_bytes_sent",
];

/// Every gauge the same stack registers, sorted.
const GOLDEN_GAUGES: &[&str] = &[
    "mem.slot0.resident_bytes",
    "mem.slot0.swapped_bytes",
    "overload.brownout_stage",
    "payload_pool.retained_bytes",
    "pool.slot0.device_time_ms",
    "pool.slot0.queue_depth",
    "pool.slot0.vms",
    "router.vm1.est_device_mem",
    "router.vm1.est_device_time_us",
];

#[test]
fn registry_names_and_snapshot_fields_are_golden() {
    let stack = opencl_pool_stack(vec![SimCl::new()], fast_config()).unwrap();
    let registry = Registry::new();
    stack.set_telemetry(registry.clone()).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    assert_eq!(vm, 1);
    let client = OpenClClient::new(lib.clone());
    run_workload(&client, 128);

    let guest = lib.stats();
    let router = stack.vm_router_stats(vm).unwrap();
    let server = stack.vm_server_stats(vm).unwrap();
    let recovery = stack.recovery_stats();
    let snapshot = registry.snapshot();

    let counters: Vec<&str> = snapshot.counters.keys().map(String::as_str).collect();
    let gauges: Vec<&str> = snapshot.gauges.keys().map(String::as_str).collect();
    assert_eq!(counters, GOLDEN_COUNTERS);
    assert_eq!(gauges, GOLDEN_GAUGES);

    assert_fields_are_cells!(
        snapshot,
        "guest.vm1",
        GuestStats {
            sync_calls,
            async_calls,
            batched_calls,
            doorbells,
            deferred_errors_delivered,
            payload_cache_hits,
            payload_cache_misses,
            bytes_elided,
            retries,
            deadline_exceeded,
            overloaded
        } = guest
    );
    assert_fields_are_cells!(
        snapshot,
        "router.vm1",
        VmStats {
            forwarded,
            rejected,
            replies,
            bytes_in,
            bytes_out,
            bytes_elided,
            cache_hits,
            cache_misses,
            est_device_time_us,
            est_device_mem,
            outstanding,
            unavailable_replies,
            shed,
            deadline_drops,
            age_drops,
            breaker_opens
        } = router
    );
    // `recorded` is read from the record log, not a registry cell.
    assert_fields_are_cells!(
        snapshot,
        "server.vm1",
        ServerStats {
            calls,
            transport_errors,
            swap_outs,
            swap_ins,
            payload_cache_hits,
            payload_cache_misses,
            duplicates_suppressed,
            quota_rejects,
            expired_discards,
            ..
        } = server
    );
    assert_fields_are_cells!(
        snapshot,
        "recovery",
        RecoveryStats {
            respawns,
            replayed_calls,
            failed
        } = recovery
    );
    assert!(guest.sync_calls > 0 && router.forwarded > 0 && server.calls > 0);
}

#[test]
fn disabled_telemetry_changes_nothing() {
    // No set_telemetry call: the stack runs exactly as before and exposes
    // no report.
    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib.clone());
    run_workload(&client, 64);
    assert!(stack.telemetry_report().is_none());
    assert!(lib.telemetry_report().is_none());
    assert!(lib.stats().sync_calls > 0);
    assert!(stack.vm_router_stats(vm).unwrap().forwarded > 0);
}
