//! End-to-end tests of the OpenCL-subset API surface.

use simcl::types::*;
use simcl::{ClApi, ClError, DeviceConfig, SimCl};

fn setup() -> (SimCl, ClContext, ClQueue, ClDevice) {
    let cl = SimCl::new();
    let platform = cl.get_platform_ids().unwrap()[0];
    let device = cl.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = cl.create_context(device).unwrap();
    let queue = cl
        .create_command_queue(ctx, device, QueueProps { profiling: true })
        .unwrap();
    (cl, ctx, queue, device)
}

#[test]
fn platform_and_device_discovery() {
    let (cl, _ctx, _q, device) = setup();
    let platform = cl.get_platform_ids().unwrap()[0];
    assert_eq!(
        cl.get_platform_info(platform, PlatformInfo::Name).unwrap(),
        "AvA SimCL"
    );
    let name = cl.get_device_info(device, DeviceInfo::Name).unwrap();
    assert!(name.as_str().unwrap().contains("GTX 1080"));
    let cus = cl
        .get_device_info(device, DeviceInfo::MaxComputeUnits)
        .unwrap();
    assert_eq!(cus.as_u64().unwrap(), 20);
}

#[test]
fn accelerator_filter_excludes_gpu() {
    let cl = SimCl::new();
    let platform = cl.get_platform_ids().unwrap()[0];
    assert_eq!(
        cl.get_device_ids(platform, DeviceType::Accelerator),
        Err(ClError(simcl::status::CL_DEVICE_NOT_FOUND))
    );
}

#[test]
fn full_saxpy_pipeline() {
    let (cl, ctx, queue, _dev) = setup();
    let program = cl
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    cl.build_program(program, "-cl-fast-math").unwrap();
    let kernel = cl.create_kernel(program, "saxpy").unwrap();

    let n = 1024usize;
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y: Vec<f32> = vec![1.0; n];
    let bx = cl
        .create_buffer(
            ctx,
            MemFlags::read_only(),
            4 * n,
            Some(&simcl::mem::f32_to_bytes(&x)),
        )
        .unwrap();
    let by = cl
        .create_buffer(
            ctx,
            MemFlags::read_write(),
            4 * n,
            Some(&simcl::mem::f32_to_bytes(&y)),
        )
        .unwrap();
    cl.set_kernel_arg(kernel, 0, KernelArg::Mem(bx)).unwrap();
    cl.set_kernel_arg(kernel, 1, KernelArg::Mem(by)).unwrap();
    cl.set_kernel_arg(kernel, 2, KernelArg::from_f32(2.0))
        .unwrap();
    cl.set_kernel_arg(kernel, 3, KernelArg::from_u32(n as u32))
        .unwrap();
    let ev = cl
        .enqueue_nd_range_kernel(queue, kernel, [n, 1, 1], Some([64, 1, 1]), &[], true)
        .unwrap()
        .unwrap();
    cl.wait_for_events(&[ev]).unwrap();
    assert_eq!(cl.get_event_info(ev).unwrap(), EventStatus::Complete);
    let prof = cl.get_event_profiling_info(ev).unwrap();
    assert!(prof.ended >= prof.started);
    cl.release_event(ev).unwrap();

    let mut out = vec![0u8; 4 * n];
    cl.enqueue_read_buffer(queue, by, true, 0, &mut out, &[], false)
        .unwrap();
    let result = simcl::mem::bytes_to_f32(&out);
    for (i, &r) in result.iter().enumerate().take(n) {
        assert_eq!(r, 1.0 + 2.0 * i as f32);
    }
}

#[test]
fn event_wait_list_chains_commands() {
    let (cl, ctx, queue, _dev) = setup();
    let buf = cl
        .create_buffer(ctx, MemFlags::read_write(), 8, None)
        .unwrap();
    let ev1 = cl
        .enqueue_write_buffer(queue, buf, false, 0, &[1u8; 8], &[], true)
        .unwrap()
        .unwrap();
    let ev2 = cl
        .enqueue_write_buffer(queue, buf, false, 0, &[2u8; 4], &[ev1], true)
        .unwrap()
        .unwrap();
    cl.wait_for_events(&[ev2]).unwrap();
    let mut out = [0u8; 8];
    cl.enqueue_read_buffer(queue, buf, true, 0, &mut out, &[], false)
        .unwrap();
    assert_eq!(out, [2, 2, 2, 2, 1, 1, 1, 1]);
}

#[test]
fn copy_buffer_between_objects() {
    let (cl, ctx, queue, _dev) = setup();
    let src = cl
        .create_buffer(
            ctx,
            MemFlags::read_only(),
            8,
            Some(&[9u8, 8, 7, 6, 5, 4, 3, 2]),
        )
        .unwrap();
    let dst = cl
        .create_buffer(ctx, MemFlags::read_write(), 8, None)
        .unwrap();
    cl.enqueue_copy_buffer(queue, src, dst, 2, 0, 4, &[], false)
        .unwrap();
    cl.finish(queue).unwrap();
    let mut out = [0u8; 4];
    cl.enqueue_read_buffer(queue, dst, true, 0, &mut out, &[], false)
        .unwrap();
    assert_eq!(out, [7, 6, 5, 4]);
}

#[test]
fn build_failure_for_unknown_kernel_body() {
    let (cl, ctx, _q, _dev) = setup();
    let program = cl
        .create_program_with_source(ctx, "__kernel void nonexistent_body(__global int *p) {}")
        .unwrap();
    assert_eq!(
        cl.build_program(program, ""),
        Err(ClError(simcl::status::CL_BUILD_PROGRAM_FAILURE))
    );
    let log = cl.get_program_build_info(program).unwrap();
    assert!(log.contains("nonexistent_body"), "{log}");
}

#[test]
fn create_kernel_requires_build() {
    let (cl, ctx, _q, _dev) = setup();
    let program = cl
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    assert_eq!(
        cl.create_kernel(program, "vector_add"),
        Err(ClError(simcl::status::CL_INVALID_PROGRAM_EXECUTABLE))
    );
    cl.build_program(program, "").unwrap();
    assert!(cl.create_kernel(program, "vector_add").is_ok());
    assert_eq!(
        cl.create_kernel(program, "missing"),
        Err(ClError(simcl::status::CL_INVALID_KERNEL_NAME))
    );
}

#[test]
fn rebuild_is_refused_while_the_program_has_kernels() {
    let (cl, ctx, _q, _dev) = setup();
    let program = cl
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    cl.build_program(program, "").unwrap();
    cl.build_program(program, "-O2").unwrap();
    let kernel = cl.create_kernel(program, "vector_add").unwrap();
    let refused = Err(ClError(simcl::status::CL_INVALID_OPERATION));
    assert_eq!(cl.build_program(program, ""), refused);
    assert_eq!(cl.compile_program(program, ""), refused);
    cl.release_kernel(kernel).unwrap();
    cl.build_program(program, "").unwrap();
}

#[test]
fn create_kernels_in_program_returns_all() {
    let (cl, ctx, _q, _dev) = setup();
    let program = cl
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    cl.build_program(program, "").unwrap();
    let kernels = cl.create_kernels_in_program(program).unwrap();
    assert_eq!(kernels.len(), 4);
}

#[test]
fn kernel_arg_validation() {
    let (cl, ctx, _q, _dev) = setup();
    let program = cl
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    cl.build_program(program, "").unwrap();
    let kernel = cl.create_kernel(program, "vector_scale").unwrap();
    let buf = cl
        .create_buffer(ctx, MemFlags::read_write(), 16, None)
        .unwrap();
    // Wrong kind: scalar where buffer expected.
    assert_eq!(
        cl.set_kernel_arg(kernel, 0, KernelArg::from_u32(1)),
        Err(ClError(simcl::status::CL_INVALID_ARG_VALUE))
    );
    // Wrong size scalar.
    assert_eq!(
        cl.set_kernel_arg(kernel, 1, KernelArg::Scalar(vec![0u8; 8])),
        Err(ClError(simcl::status::CL_INVALID_ARG_SIZE))
    );
    // Out-of-range index.
    assert_eq!(
        cl.set_kernel_arg(kernel, 9, KernelArg::from_u32(1)),
        Err(ClError(simcl::status::CL_INVALID_ARG_INDEX))
    );
    // Valid bindings.
    cl.set_kernel_arg(kernel, 0, KernelArg::Mem(buf)).unwrap();
    cl.set_kernel_arg(kernel, 1, KernelArg::from_f32(2.0))
        .unwrap();
    cl.set_kernel_arg(kernel, 2, KernelArg::from_u32(4))
        .unwrap();
}

#[test]
fn enqueue_with_missing_args_fails() {
    let (cl, ctx, queue, _dev) = setup();
    let program = cl
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    cl.build_program(program, "").unwrap();
    let kernel = cl.create_kernel(program, "vector_add").unwrap();
    assert_eq!(
        cl.enqueue_nd_range_kernel(queue, kernel, [4, 1, 1], None, &[], false),
        Err(ClError(simcl::status::CL_INVALID_KERNEL_ARGS))
    );
}

#[test]
fn bad_work_group_sizes_rejected() {
    let (cl, ctx, queue, _dev) = setup();
    let program = cl
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    cl.build_program(program, "").unwrap();
    let kernel = cl.create_kernel(program, "fill").unwrap();
    let buf = cl
        .create_buffer(ctx, MemFlags::read_write(), 64, None)
        .unwrap();
    cl.set_kernel_arg(kernel, 0, KernelArg::Mem(buf)).unwrap();
    cl.set_kernel_arg(kernel, 1, KernelArg::from_f32(0.0))
        .unwrap();
    // Local does not divide global.
    assert_eq!(
        cl.enqueue_nd_range_kernel(queue, kernel, [10, 1, 1], Some([3, 1, 1]), &[], false),
        Err(ClError(simcl::status::CL_INVALID_WORK_GROUP_SIZE))
    );
    // Local exceeds device max.
    assert_eq!(
        cl.enqueue_nd_range_kernel(queue, kernel, [4096, 1, 1], Some([2048, 1, 1]), &[], false),
        Err(ClError(simcl::status::CL_INVALID_WORK_GROUP_SIZE))
    );
    // Zero global size.
    assert_eq!(
        cl.enqueue_nd_range_kernel(queue, kernel, [0, 1, 1], None, &[], false),
        Err(ClError(simcl::status::CL_INVALID_WORK_DIMENSION))
    );
}

#[test]
fn device_memory_accounting_and_oom() {
    let cl = SimCl::with_devices(vec![DeviceConfig::small(1 << 20)]);
    let platform = cl.get_platform_ids().unwrap()[0];
    let device = cl.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = cl.create_context(device).unwrap();
    let a = cl
        .create_buffer(ctx, MemFlags::read_write(), 512 << 10, None)
        .unwrap();
    let _b = cl
        .create_buffer(ctx, MemFlags::read_write(), 400 << 10, None)
        .unwrap();
    assert_eq!(
        cl.create_buffer(ctx, MemFlags::read_write(), 200 << 10, None),
        Err(ClError(simcl::status::CL_MEM_OBJECT_ALLOCATION_FAILURE))
    );
    // Releasing makes room again.
    cl.release_mem_object(a).unwrap();
    assert!(cl
        .create_buffer(ctx, MemFlags::read_write(), 200 << 10, None)
        .is_ok());
}

#[test]
fn refcounts_keep_objects_alive() {
    let (cl, ctx, _q, _dev) = setup();
    let buf = cl
        .create_buffer(ctx, MemFlags::read_write(), 16, None)
        .unwrap();
    cl.retain_mem_object(buf).unwrap();
    cl.release_mem_object(buf).unwrap();
    // Still alive after one release (refcount was 2).
    assert_eq!(cl.get_mem_object_info(buf).unwrap(), 16);
    cl.release_mem_object(buf).unwrap();
    assert!(cl.get_mem_object_info(buf).is_err());
}

#[test]
fn images_are_buffers_with_geometry() {
    let (cl, ctx, queue, _dev) = setup();
    let desc = ImageDesc {
        width: 8,
        height: 4,
        elem_size: 4,
    };
    let img = cl
        .create_image(ctx, MemFlags::read_write(), desc, None)
        .unwrap();
    assert_eq!(cl.get_mem_object_info(img).unwrap(), 128);
    cl.enqueue_write_buffer(queue, img, true, 0, &[1u8; 128], &[], false)
        .unwrap();
    let mut out = [0u8; 16];
    cl.enqueue_read_buffer(queue, img, true, 16, &mut out, &[], false)
        .unwrap();
    assert_eq!(out, [1u8; 16]);
}

#[test]
fn stale_handles_are_rejected() {
    let (cl, ctx, queue, _dev) = setup();
    let buf = cl
        .create_buffer(ctx, MemFlags::read_write(), 4, None)
        .unwrap();
    cl.release_mem_object(buf).unwrap();
    let mut out = [0u8; 4];
    assert_eq!(
        cl.enqueue_read_buffer(queue, buf, true, 0, &mut out, &[], false),
        Err(ClError(simcl::status::CL_INVALID_MEM_OBJECT))
    );
    assert!(cl.get_context_info(ClContext(0xdead)).is_err());
    assert!(cl.finish(ClQueue(0xdead)).is_err());
}

#[test]
fn busy_time_visible_through_profiling_interface() {
    let (cl, ctx, queue, dev) = setup();
    let program = cl
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    cl.build_program(program, "").unwrap();
    let kernel = cl.create_kernel(program, "fill").unwrap();
    let buf = cl
        .create_buffer(ctx, MemFlags::read_write(), 1 << 16, None)
        .unwrap();
    cl.set_kernel_arg(kernel, 0, KernelArg::Mem(buf)).unwrap();
    cl.set_kernel_arg(kernel, 1, KernelArg::from_f32(3.0))
        .unwrap();
    cl.enqueue_nd_range_kernel(queue, kernel, [1 << 14, 1, 1], None, &[], false)
        .unwrap();
    cl.finish(queue).unwrap();
    assert!(cl.device_state(dev).unwrap().busy_nanos() > 0);
}

#[test]
fn two_contexts_are_isolated_namespaces() {
    let (cl, ctx1, _q, dev) = setup();
    let ctx2 = cl.create_context(dev).unwrap();
    let b1 = cl
        .create_buffer(ctx1, MemFlags::read_write(), 8, None)
        .unwrap();
    let b2 = cl
        .create_buffer(ctx2, MemFlags::read_write(), 8, None)
        .unwrap();
    assert_ne!(b1, b2);
    cl.release_context(ctx2).unwrap();
}
