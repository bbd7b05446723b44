//! End-to-end tests for the shared device pool: placement policies,
//! slot-sharing correctness and the load watchdog. (Explicit rebalancing
//! and pooled crash recovery are cells of `relocation_e2e`'s matrix.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_core::{
    opencl_pool_stack, opencl_stack, OpenClClient, PlacementPolicy, StackConfig, StackError,
};
use ava_hypervisor::VmPolicy;
use ava_transport::{CostModel, TransportKind};
use simcl::types::*;
use simcl::{ClApi, SimCl};

fn pool_config(placement: PlacementPolicy) -> StackConfig {
    StackConfig {
        transport: TransportKind::SharedMemory,
        cost_model: CostModel::free(),
        placement,
        ..StackConfig::default()
    }
}

fn silos(n: usize) -> Vec<SimCl> {
    (0..n).map(|_| SimCl::new()).collect()
}

/// The same saxpy pipeline as `virtualized_e2e`, against any ClApi.
fn run_saxpy(api: &dyn ClApi, n: usize) -> Vec<f32> {
    let platform = api.get_platform_ids().unwrap()[0];
    let device = api.get_device_ids(platform, DeviceType::Gpu).unwrap()[0];
    let ctx = api.create_context(device).unwrap();
    let queue = api
        .create_command_queue(ctx, device, QueueProps::default())
        .unwrap();
    let program = api
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    api.build_program(program, "").unwrap();
    let kernel = api.create_kernel(program, "saxpy").unwrap();

    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y: Vec<f32> = vec![10.0; n];
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
            Some(&simcl::mem::f32_to_bytes(&y)),
        )
        .unwrap();
    api.set_kernel_arg(kernel, 0, KernelArg::Mem(bx)).unwrap();
    api.set_kernel_arg(kernel, 1, KernelArg::Mem(by)).unwrap();
    api.set_kernel_arg(kernel, 2, KernelArg::from_f32(3.0))
        .unwrap();
    api.set_kernel_arg(kernel, 3, KernelArg::from_u32(n as u32))
        .unwrap();
    api.enqueue_nd_range_kernel(queue, kernel, [n, 1, 1], None, &[], false)
        .unwrap();
    let mut out = vec![0u8; 4 * n];
    api.enqueue_read_buffer(queue, by, true, 0, &mut out, &[], false)
        .unwrap();
    api.release_kernel(kernel).unwrap();
    api.release_program(program).unwrap();
    api.release_mem_object(bx).unwrap();
    api.release_mem_object(by).unwrap();
    api.finish(queue).unwrap();
    api.release_command_queue(queue).unwrap();
    api.release_context(ctx).unwrap();
    simcl::mem::bytes_to_f32(&out)
}

#[test]
fn default_config_keeps_private_devices() {
    let stack = opencl_stack(SimCl::new(), pool_config(PlacementPolicy::RoundRobin)).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    assert_eq!(run_saxpy(&client, 64)[1], 13.0);
    // No pool: no slot binding, no pool stats, rebalance refuses.
    assert_eq!(stack.vm_slot(vm), None);
    assert!(stack.pool_stats().is_empty());
    assert!(matches!(
        stack.rebalance_vm(vm, 0),
        Err(StackError::NotPooled)
    ));
}

#[test]
fn two_vms_on_one_slot_match_solo_runs_bit_identically() {
    let n = 512;
    // Oracle: a solo run on a private, non-pooled stack.
    let solo = {
        let stack = opencl_stack(SimCl::new(), pool_config(PlacementPolicy::RoundRobin)).unwrap();
        let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
        run_saxpy(&OpenClClient::new(lib), n)
    };

    // Two VMs pinned to the single slot of a one-device pool, running
    // concurrently: contention must never change results.
    let stack = opencl_pool_stack(silos(1), pool_config(PlacementPolicy::RoundRobin)).unwrap();
    let (vm_a, lib_a) = stack.attach_vm(VmPolicy::default()).unwrap();
    let (vm_b, lib_b) = stack.attach_vm(VmPolicy::default()).unwrap();
    assert_eq!(stack.vm_slot(vm_a), Some(0));
    assert_eq!(stack.vm_slot(vm_b), Some(0));

    let ta = std::thread::spawn(move || run_saxpy(&OpenClClient::new(lib_a), n));
    let tb = std::thread::spawn(move || run_saxpy(&OpenClClient::new(lib_b), n));
    let ra = ta.join().unwrap();
    let rb = tb.join().unwrap();
    assert_eq!(ra, solo);
    assert_eq!(rb, solo);

    let stats = stack.pool_stats();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].vms, 2);
    assert!(
        stats[0].device_time_ms > 0.0,
        "dispatches must be timed into the slot gauge: {stats:?}"
    );
}

#[test]
fn round_robin_placement_cycles_slots() {
    let stack = opencl_pool_stack(silos(3), pool_config(PlacementPolicy::RoundRobin)).unwrap();
    let mut slots = Vec::new();
    for _ in 0..5 {
        let (vm, _lib) = stack.attach_vm(VmPolicy::default()).unwrap();
        slots.push(stack.vm_slot(vm).unwrap());
    }
    assert_eq!(slots, vec![0, 1, 2, 0, 1]);
    let stats = stack.pool_stats();
    assert_eq!(
        stats.iter().map(|s| s.vms).collect::<Vec<_>>(),
        vec![2, 2, 1]
    );
}

#[test]
fn packed_placement_fills_one_slot_first() {
    let stack = opencl_pool_stack(silos(2), pool_config(PlacementPolicy::Packed)).unwrap();
    for _ in 0..3 {
        let (vm, _lib) = stack.attach_vm(VmPolicy::default()).unwrap();
        assert_eq!(stack.vm_slot(vm), Some(0));
    }
    assert_eq!(stack.pool_stats()[0].vms, 3);
    assert_eq!(stack.pool_stats()[1].vms, 0);
}

#[test]
fn least_loaded_placement_spreads_asymmetric_load() {
    let stack = opencl_pool_stack(silos(2), pool_config(PlacementPolicy::LeastLoaded)).unwrap();

    // First VM: everything idle, ties resolve to slot 0. Run heavy work
    // so the router accumulates estimated device time against slot 0.
    let (vm_a, lib_a) = stack.attach_vm(VmPolicy::default()).unwrap();
    assert_eq!(stack.vm_slot(vm_a), Some(0));
    let client_a = OpenClClient::new(lib_a);
    for _ in 0..4 {
        run_saxpy(&client_a, 2048);
    }

    // Second VM must land on the idle slot 1.
    let (vm_b, lib_b) = stack.attach_vm(VmPolicy::default()).unwrap();
    assert_eq!(stack.vm_slot(vm_b), Some(1));

    // A little load on slot 1 — still far less than slot 0 — so the third
    // VM joins slot 1 too (least *load*, not least population).
    run_saxpy(&OpenClClient::new(lib_b), 64);
    let (vm_c, _lib_c) = stack.attach_vm(VmPolicy::default()).unwrap();
    assert_eq!(stack.vm_slot(vm_c), Some(1));
}

#[test]
fn load_watchdog_moves_a_vm_off_the_hot_slot() {
    let mut config = pool_config(PlacementPolicy::Packed);
    config.rebalance_interval = Duration::from_millis(25);
    config.rebalance_threshold_ms = Some(1.0);
    let stack = Arc::new(opencl_pool_stack(silos(2), config).unwrap());

    // Packed placement piles both VMs onto slot 0; slot 1 sits idle.
    let (vm_a, lib_a) = stack.attach_vm(VmPolicy::default()).unwrap();
    let (vm_b, lib_b) = stack.attach_vm(VmPolicy::default()).unwrap();
    assert_eq!(stack.vm_slot(vm_a), Some(0));
    assert_eq!(stack.vm_slot(vm_b), Some(0));

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for lib in [lib_a, lib_b] {
        let stop = Arc::clone(&stop);
        let stack_ref = Arc::clone(&stack);
        workers.push(std::thread::spawn(move || {
            let _ = &stack_ref;
            let client = OpenClClient::new(lib);
            while !stop.load(Ordering::Acquire) {
                assert_eq!(run_saxpy(&client, 256)[1], 13.0);
            }
        }));
    }

    // The hot slot burns real device time every interval while the cold
    // one burns none, so the watchdog must split the pair.
    let deadline = Instant::now() + Duration::from_secs(20);
    let moved = loop {
        let a = stack.vm_slot(vm_a).unwrap();
        let b = stack.vm_slot(vm_b).unwrap();
        if a != b {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap();
    }
    assert!(moved, "watchdog never rebalanced the hot slot");
    let stats = stack.pool_stats();
    assert_eq!(stats[0].vms, 1);
    assert_eq!(stats[1].vms, 1);
}

#[test]
fn slo_violation_flips_api_and_watchdog_migrates_off_the_violating_slot() {
    use ava_telemetry::{Registry, SloConfig, SloObjective, SloSubject};

    let mut config = pool_config(PlacementPolicy::Packed);
    config.rebalance_interval = Duration::from_millis(25);
    // No device-time threshold: any migration must come from the SLO path.
    config.rebalance_threshold_ms = None;
    // A 1 ns p99 target no real call can meet — slot 0 (both VMs packed
    // onto it) enters violation as soon as one window carries traffic.
    config.slo = Some(SloConfig::p99(1));
    let stack = Arc::new(opencl_pool_stack(silos(2), config).unwrap());
    stack.set_telemetry(Registry::new()).unwrap();

    let (vm_a, lib_a) = stack.attach_vm(VmPolicy::default()).unwrap();
    let (vm_b, lib_b) = stack.attach_vm(VmPolicy::default()).unwrap();
    assert_eq!(stack.vm_slot(vm_a), Some(0));
    assert_eq!(stack.vm_slot(vm_b), Some(0));
    // No windows evaluated yet: the API reports a clean slate.
    assert!(stack.slo_violations().is_empty());

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for lib in [lib_a, lib_b] {
        let stop = Arc::clone(&stop);
        let stack_ref = Arc::clone(&stack);
        workers.push(std::thread::spawn(move || {
            let _ = &stack_ref;
            let client = OpenClClient::new(lib);
            while !stop.load(Ordering::Acquire) {
                assert_eq!(run_saxpy(&client, 256)[1], 13.0);
            }
        }));
    }

    // First the monitor must flag slot 0's p99, then the watchdog must
    // treat the violating slot as hot and split the pair — with the
    // threshold disabled, the SLO verdict is the only migration trigger.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut violated = false;
    let moved = loop {
        violated |= stack
            .slo_violations()
            .iter()
            .any(|v| v.subject == SloSubject::Slot(0) && v.objective == SloObjective::P99Latency);
        let a = stack.vm_slot(vm_a).unwrap();
        let b = stack.vm_slot(vm_b).unwrap();
        if violated && a != b {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap();
    }
    assert!(
        violated,
        "SLO monitor never flagged the unmeetable p99 target"
    );
    assert!(moved, "watchdog never migrated a VM off the violating slot");
    let stats = stack.pool_stats();
    assert_eq!(stats[0].vms, 1);
    assert_eq!(stats[1].vms, 1);
}
