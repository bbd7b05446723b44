//! End-to-end tests: full applications running against virtual
//! accelerators through the complete AvA stack (guest library → shared
//! memory transport → router → API server → silo).

use ava_core::{mvnc_stack, opencl_stack, MvncClient, OpenClClient, StackConfig};
use ava_hypervisor::VmPolicy;
use ava_transport::{CostModel, TransportKind};
use simcl::types::*;
use simcl::{ClApi, DeviceConfig, SimCl};
use simnc::{MvncApi, SimNc, Tensor};

fn fast_config() -> StackConfig {
    StackConfig {
        transport: TransportKind::SharedMemory,
        cost_model: CostModel::free(),
        ..StackConfig::default()
    }
}

/// Runs the same saxpy pipeline against any ClApi implementation.
fn run_saxpy(api: &dyn ClApi, n: usize) -> Vec<f32> {
    let platform = api.get_platform_ids().unwrap()[0];
    let device = api.get_device_ids(platform, DeviceType::Gpu).unwrap()[0];
    let ctx = api.create_context(device).unwrap();
    let queue = api
        .create_command_queue(ctx, device, QueueProps { profiling: true })
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

    // Exercise teardown through the remoting path too.
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
fn virtual_opencl_matches_native() {
    let n = 512;
    let native = run_saxpy(&SimCl::new(), n);

    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    let virtualized = run_saxpy(&client, n);

    assert_eq!(native, virtualized);
    for (i, v) in virtualized.iter().enumerate() {
        assert_eq!(*v, 10.0 + 3.0 * i as f32);
    }
}

#[test]
fn async_forwarding_happens_on_the_virtual_path() {
    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    run_saxpy(&client, 64);
    let stats = client.library().stats();
    assert!(
        stats.async_calls >= 4,
        "setKernelArg/enqueue/release should forward async; stats: {stats:?}"
    );
    assert!(stats.sync_calls > 0);
    assert_eq!(stats.deferred_errors_delivered, 0);
}

#[test]
fn device_info_strings_cross_the_wire() {
    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    let platform = client.get_platform_ids().unwrap()[0];
    assert_eq!(
        client
            .get_platform_info(platform, PlatformInfo::Name)
            .unwrap(),
        "AvA SimCL"
    );
    let device = client.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let name = client.get_device_info(device, DeviceInfo::Name).unwrap();
    assert!(name.as_str().unwrap().contains("GTX 1080"));
    let wg = client
        .get_device_info(device, DeviceInfo::MaxWorkGroupSize)
        .unwrap();
    assert_eq!(wg.as_u64().unwrap(), 1024);
}

#[test]
fn api_errors_cross_faithfully() {
    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    let platform = client.get_platform_ids().unwrap()[0];
    let device = client.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = client.create_context(device).unwrap();
    // Zero-sized buffer must produce CL_INVALID_BUFFER_SIZE (-61) exactly.
    let err = client
        .create_buffer(ctx, MemFlags::read_write(), 0, None)
        .unwrap_err();
    assert_eq!(err.0, simcl::status::CL_INVALID_BUFFER_SIZE);
    // Unknown kernel name produces CL_INVALID_PROGRAM_EXECUTABLE (not
    // built) first.
    let program = client
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    let err = client.create_kernel(program, "vector_add").unwrap_err();
    assert_eq!(err.0, simcl::status::CL_INVALID_PROGRAM_EXECUTABLE);
}

#[test]
fn two_vms_share_one_device_with_isolated_handles() {
    let cl = SimCl::new();
    let stack = opencl_stack(cl, fast_config()).unwrap();
    let (vm_a, lib_a) = stack.attach_vm(VmPolicy::default()).unwrap();
    let (vm_b, lib_b) = stack.attach_vm(VmPolicy::default()).unwrap();
    assert_ne!(vm_a, vm_b);
    let a = OpenClClient::new(lib_a);
    let b = OpenClClient::new(lib_b);
    let ra = run_saxpy(&a, 128);
    let rb = run_saxpy(&b, 128);
    assert_eq!(ra, rb);
    let stats_a = stack.vm_router_stats(vm_a).unwrap();
    let stats_b = stack.vm_router_stats(vm_b).unwrap();
    assert!(stats_a.forwarded > 0);
    assert!(stats_b.forwarded > 0);
}

#[test]
fn handles_from_one_vm_are_invalid_in_another() {
    let cl = SimCl::new();
    let stack = opencl_stack(cl, fast_config()).unwrap();
    let (_vm_a, lib_a) = stack.attach_vm(VmPolicy::default()).unwrap();
    let (_vm_b, lib_b) = stack.attach_vm(VmPolicy::default()).unwrap();
    let a = OpenClClient::new(lib_a);
    let b = OpenClClient::new(lib_b);
    let platform = a.get_platform_ids().unwrap()[0];
    let device = a.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx_a = a.create_context(device).unwrap();
    // VM B presents VM A's wire handle: its own server has no entry for
    // it, so the call must fail rather than touch A's object.
    let err = b
        .create_buffer(ctx_a, MemFlags::read_write(), 64, None)
        .unwrap_err();
    assert_eq!(err.0, simcl::status::CL_OUT_OF_RESOURCES);
}

#[test]
fn buffer_swapping_under_device_memory_pressure() {
    // Device holds ~1 MiB; the guest allocates 3 × 512 KiB.
    let cl = SimCl::with_devices(vec![DeviceConfig::small(1 << 20)]);
    let stack = opencl_stack(cl, fast_config()).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    let platform = client.get_platform_ids().unwrap()[0];
    let device = client.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = client.create_context(device).unwrap();
    let queue = client
        .create_command_queue(ctx, device, QueueProps::default())
        .unwrap();

    let half_mb = 512 << 10;
    let marker_a = vec![0xAAu8; half_mb];
    let a = client
        .create_buffer(ctx, MemFlags::read_write(), half_mb, Some(&marker_a))
        .unwrap();
    let b = client
        .create_buffer(
            ctx,
            MemFlags::read_write(),
            half_mb,
            Some(&vec![0xBBu8; half_mb]),
        )
        .unwrap();
    // Third allocation exceeds device memory: AvA swaps the LRU buffer
    // (a) to host memory instead of surfacing OOM to the guest (§4.3).
    let c = client
        .create_buffer(
            ctx,
            MemFlags::read_write(),
            half_mb,
            Some(&vec![0xCCu8; half_mb]),
        )
        .unwrap();
    let stats = stack.vm_server_stats(vm).unwrap();
    assert_eq!(stats.swap_outs, 1, "one buffer must have been evicted");

    // Make room, then touch the swapped buffer: transparent swap-in.
    client.release_mem_object(c).unwrap();
    client.finish(queue).unwrap();
    let mut out = vec![0u8; half_mb];
    client
        .enqueue_read_buffer(queue, a, true, 0, &mut out, &[], false)
        .unwrap();
    assert_eq!(out, marker_a);
    let stats = stack.vm_server_stats(vm).unwrap();
    assert_eq!(stats.swap_ins, 1);
    let _ = b;
}

#[test]
fn virtual_mvnc_inference_matches_native() {
    let network = simnc::inception_v3_like(16, 1, 8, 123);
    let blob = network.to_blob();
    let image = Tensor::zeros(3, 16, 16);

    // Native.
    let nc = SimNc::new(1);
    let dev = nc.open_device("ncs0").unwrap();
    let graph = nc.allocate_graph(dev, &blob).unwrap();
    nc.load_tensor(graph, &image.to_bytes(), 1).unwrap();
    let (native_out, _) = nc.get_result(graph).unwrap();

    // Virtual.
    let stack = mvnc_stack(SimNc::new(1), fast_config()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = MvncClient::new(lib);
    let name = client.get_device_name(0).unwrap();
    assert_eq!(name, "ncs0");
    let vdev = client.open_device(&name).unwrap();
    let vgraph = client.allocate_graph(vdev, &blob).unwrap();
    client.load_tensor(vgraph, &image.to_bytes(), 7).unwrap();
    let (virtual_out, user_param) = client.get_result(vgraph).unwrap();
    assert_eq!(user_param, 7);
    assert_eq!(native_out, virtual_out);
    client.deallocate_graph(vgraph).unwrap();
    client.close_device(vdev).unwrap();
}

#[test]
fn rate_limited_vm_still_completes() {
    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let (_vm, lib) = stack
        .attach_vm(VmPolicy::with_rate_limit(2000.0, 8))
        .unwrap();
    let client = OpenClClient::new(lib);
    let result = run_saxpy(&client, 64);
    assert_eq!(result[1], 13.0);
}

#[test]
fn router_observes_all_traffic() {
    let stack = opencl_stack(SimCl::new(), fast_config()).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);
    run_saxpy(&client, 256);
    // Async tail calls (the final releases) may still be in flight;
    // poll the router until the counts converge.
    let guest = client.library().stats();
    let expected = guest.sync_calls + guest.async_calls;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let stats = loop {
        let stats = stack.vm_router_stats(vm).unwrap();
        if stats.forwarded + stats.rejected >= expected || std::time::Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    // Every call the guest made crossed the router (interposition).
    assert_eq!(stats.forwarded, expected);
    // Data movement was visible to the hypervisor.
    assert!(stats.bytes_in >= 4 * 256, "write payload seen: {stats:?}");
    assert!(stats.bytes_out >= 4 * 256, "read payload seen: {stats:?}");
    // Device-memory estimates accumulated from the spec's annotations.
    assert!(stats.est_device_mem >= 2.0 * 4.0 * 256.0);
}
