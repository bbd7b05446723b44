//! Every entry point of both bundled APIs, once, through the whole stack.
//!
//! Each test runs one script against the bare silo and against the typed
//! client on a stack, and compares the transcripts: every status and every
//! output the guest sees must match what the silo itself returns. Handles
//! differ between the two (wire vs. silo), so the transcripts record what a
//! handle does, never its value. Also covered: retain/release on each
//! OpenCL handle kind, the bindings' own invalid-parameter codes, and
//! device OOM answered by eviction rather than surfaced to the guest.

use std::sync::Arc;

use ava_core::{
    mvnc_stack_with, opencl_stack, opencl_stack_with, GuestLibrary, LowerOptions, MvncClient,
    OpenClClient, StackConfig,
};
use ava_hypervisor::VmPolicy;
use ava_transport::{CostModel, TransportKind};
use ava_wire::Value;
use simcl::status::{ClResult, CL_INVALID_VALUE, CL_SUCCESS};
use simcl::types::*;
use simcl::{ClApi, DeviceConfig, SimCl};
use simnc::status::{MVNC_INVALID_PARAMETERS, MVNC_OK};
use simnc::{DeviceOption, GraphOption, MvncApi, SimNc, Tensor};

fn config() -> StackConfig {
    StackConfig {
        transport: TransportKind::SharedMemory,
        cost_model: CostModel::free(),
        ..StackConfig::default()
    }
}

/// The two lowerings: the default one forwards some calls asynchronously,
/// the unoptimized one makes every status a round trip.
fn lowerings() -> [LowerOptions; 2] {
    [
        LowerOptions::default(),
        LowerOptions {
            enable_async: false,
            ..LowerOptions::default()
        },
    ]
}

/// A kernel with a `__local` parameter, so `clSetKernelArgLocal` has
/// something to bind.
const SCRATCH_SOURCE: &str = r#"
__kernel void scratch_fill(__global float *out, __local float *scratch, const float value) {
    out[get_global_id(0)] = value;
}
"#;

fn silo() -> SimCl {
    let cl = SimCl::new();
    cl.registry().register_fn("scratch_fill", |inv| {
        let value = inv.scalar_f32(2)?;
        assert_eq!(inv.local_len(1)?, 64);
        for v in simcl::mem::as_f32_mut(inv.buf(0)?) {
            *v = value;
        }
        Ok(())
    });
    cl
}

/// Records one step as `name: result`, where `result` is what the guest
/// can observe (never a raw handle).
struct Transcript(Vec<String>);

impl Transcript {
    fn note(&mut self, name: &str, result: impl std::fmt::Debug) {
        self.0.push(format!("{name}: {result:?}"));
    }
}

/// Retain, release (the handle must still work), then the final release
/// (the handle must be refused) on one object; `probe` exercises it.
fn refcount_steps(
    t: &mut Transcript,
    kind: &str,
    retain: impl Fn() -> ClResult<()>,
    release: impl Fn() -> ClResult<()>,
    probe: impl Fn() -> ClResult<()>,
) {
    t.note(&format!("retain {kind}"), retain());
    t.note(&format!("release {kind}"), release());
    t.note(&format!("{kind} works after release"), probe());
    t.note(&format!("final release {kind}"), release());
    t.note(
        &format!("{kind} refused after final release"),
        probe().is_err(),
    );
}

/// Calls every one of the 42 OpenCL entry points at least once.
fn opencl_script(api: &dyn ClApi) -> Vec<String> {
    let mut t = Transcript(Vec::new());
    let platforms = api.get_platform_ids().unwrap();
    t.note("clGetPlatformIDs", platforms.len());
    let platform = platforms[0];
    for info in [
        PlatformInfo::Name,
        PlatformInfo::Vendor,
        PlatformInfo::Version,
    ] {
        t.note("clGetPlatformInfo", api.get_platform_info(platform, info));
    }
    let devices = api.get_device_ids(platform, DeviceType::All).unwrap();
    t.note("clGetDeviceIDs", devices.len());
    t.note(
        "clGetDeviceIDs(accelerator)",
        api.get_device_ids(platform, DeviceType::Accelerator)
            .map(|d| d.len()),
    );
    let device = devices[0];
    for info in [
        DeviceInfo::Name,
        DeviceInfo::Vendor,
        DeviceInfo::MaxComputeUnits,
        DeviceInfo::MaxWorkGroupSize,
        DeviceInfo::GlobalMemSize,
        DeviceInfo::LocalMemSize,
        DeviceInfo::Type,
    ] {
        t.note("clGetDeviceInfo", api.get_device_info(device, info));
    }

    let ctx = api.create_context(device).unwrap();
    t.note("clGetContextInfo", api.get_context_info(ctx).map(|_| ()));
    let queue = api
        .create_command_queue(ctx, device, QueueProps { profiling: true })
        .unwrap();

    let a_bytes: Vec<u8> = (0..256u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let a = api
        .create_buffer(ctx, MemFlags::read_write(), a_bytes.len(), Some(&a_bytes))
        .unwrap();
    let b = api
        .create_buffer(ctx, MemFlags::read_write(), a_bytes.len(), None)
        .unwrap();
    let c = api
        .create_buffer(ctx, MemFlags::read_write(), a_bytes.len(), None)
        .unwrap();
    let image_desc = ImageDesc {
        width: 8,
        height: 4,
        elem_size: 4,
    };
    let image = api
        .create_image(
            ctx,
            MemFlags::read_write(),
            image_desc,
            Some(&vec![7u8; image_desc.byte_len().unwrap()]),
        )
        .unwrap();
    t.note("clGetMemObjectInfo", api.get_mem_object_info(a));
    t.note("clGetMemObjectInfo(image)", api.get_mem_object_info(image));
    t.note(
        "clCreateProgramWithSource(empty)",
        api.create_program_with_source(ctx, "").map(|_| ()),
    );

    let program = api
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    t.note(
        "clGetProgramBuildInfo(unbuilt)",
        api.get_program_build_info(program),
    );
    t.note("clCompileProgram", api.compile_program(program, "-O1"));
    t.note("clBuildProgram", api.build_program(program, "-O2"));
    t.note("clGetProgramBuildInfo", api.get_program_build_info(program));
    let scratch_program = api.create_program_with_source(ctx, SCRATCH_SOURCE).unwrap();
    t.note(
        "clBuildProgram(scratch)",
        api.build_program(scratch_program, ""),
    );

    let add = api.create_kernel(program, "vector_add").unwrap();
    t.note(
        "clCreateKernel(missing)",
        api.create_kernel(program, "no_such_kernel").map(|_| ()),
    );
    let all = api.create_kernels_in_program(program).unwrap();
    t.note("clCreateKernelsInProgram", all.len());
    for k in all {
        t.note("clReleaseKernel(from program)", api.release_kernel(k));
    }
    t.note(
        "clGetKernelWorkGroupInfo",
        api.get_kernel_work_group_info(add, device),
    );
    let n = 256u32;
    t.note(
        "clSetKernelArgMem",
        api.set_kernel_arg(add, 0, KernelArg::Mem(a)),
    );
    t.note(
        "clSetKernelArgMem",
        api.set_kernel_arg(add, 1, KernelArg::Mem(b)),
    );
    t.note(
        "clSetKernelArgMem",
        api.set_kernel_arg(add, 2, KernelArg::Mem(c)),
    );
    t.note(
        "clSetKernelArg",
        api.set_kernel_arg(add, 3, KernelArg::from_u32(n)),
    );
    let fill = api.create_kernel(scratch_program, "scratch_fill").unwrap();
    t.note(
        "clSetKernelArgMem(fill)",
        api.set_kernel_arg(fill, 0, KernelArg::Mem(image)),
    );
    t.note(
        "clSetKernelArgLocal",
        api.set_kernel_arg(fill, 1, KernelArg::Local(64)),
    );
    t.note(
        "clSetKernelArg(fill)",
        api.set_kernel_arg(fill, 2, KernelArg::from_f32(2.5)),
    );

    let write = api
        .enqueue_write_buffer(queue, b, false, 0, &a_bytes, &[], true)
        .unwrap()
        .expect("event requested");
    let run = api
        .enqueue_nd_range_kernel(queue, add, [n as usize, 1, 1], None, &[write], true)
        .unwrap()
        .expect("event requested");
    t.note(
        "clEnqueueTask",
        api.enqueue_task(queue, fill, &[run], false),
    );
    let copy = api
        .enqueue_copy_buffer(queue, c, a, 0, 0, 512, &[run], true)
        .unwrap()
        .expect("event requested");
    t.note("clFlush", api.flush(queue));
    t.note("clWaitForEvents", api.wait_for_events(&[write, run, copy]));
    let mut out = vec![0u8; a_bytes.len()];
    let read = api
        .enqueue_read_buffer(queue, a, true, 0, &mut out, &[copy], true)
        .unwrap()
        .expect("event requested");
    t.note("clEnqueueReadBuffer(a)", out);
    let mut out = vec![0u8; image_desc.byte_len().unwrap()];
    t.note(
        "clEnqueueReadBuffer(image)",
        api.enqueue_read_buffer(queue, image, true, 0, &mut out, &[], false),
    );
    t.note("clEnqueueReadBuffer(image) data", out);
    t.note("clFinish", api.finish(queue));
    t.note("clGetEventInfo", api.get_event_info(read));
    let prof = api.get_event_profiling_info(run).unwrap();
    t.note(
        "clGetEventProfilingInfo ordered",
        prof.queued <= prof.submitted
            && prof.submitted <= prof.started
            && prof.started <= prof.ended,
    );
    for ev in [write, copy, read] {
        t.note("clReleaseEvent", api.release_event(ev));
    }

    refcount_steps(
        &mut t,
        "cl_event",
        || api.retain_event(run),
        || api.release_event(run),
        || api.get_event_info(run).map(|_| ()),
    );
    refcount_steps(
        &mut t,
        "cl_kernel",
        || api.retain_kernel(add),
        || api.release_kernel(add),
        || api.get_kernel_work_group_info(add, device).map(|_| ()),
    );
    t.note("clReleaseKernel(fill)", api.release_kernel(fill));
    t.note(
        "clReleaseProgram(scratch)",
        api.release_program(scratch_program),
    );
    refcount_steps(
        &mut t,
        "cl_program",
        || api.retain_program(program),
        || api.release_program(program),
        || api.get_program_build_info(program).map(|_| ()),
    );
    t.note("clReleaseMemObject(b)", api.release_mem_object(b));
    t.note("clReleaseMemObject(c)", api.release_mem_object(c));
    t.note("clReleaseMemObject(image)", api.release_mem_object(image));
    refcount_steps(
        &mut t,
        "cl_mem",
        || api.retain_mem_object(a),
        || api.release_mem_object(a),
        || api.get_mem_object_info(a).map(|_| ()),
    );
    refcount_steps(
        &mut t,
        "cl_command_queue",
        || api.retain_command_queue(queue),
        || api.release_command_queue(queue),
        || api.finish(queue),
    );
    refcount_steps(
        &mut t,
        "cl_context",
        || api.retain_context(ctx),
        || api.release_context(ctx),
        || api.get_context_info(ctx).map(|_| ()),
    );
    t.0
}

#[test]
fn every_opencl_entry_point_matches_the_bare_silo() {
    let native = opencl_script(&silo());
    for (step, line) in native.iter().enumerate() {
        if line.contains("refused after final release") {
            assert!(line.ends_with("true"), "native step {step}: {line}");
        }
    }
    for opts in lowerings() {
        let stack = opencl_stack_with(silo(), config(), opts).unwrap();
        let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
        let virt = opencl_script(&OpenClClient::new(lib));
        assert_eq!(native.len(), virt.len());
        for (n, v) in native.iter().zip(&virt) {
            assert_eq!(n, v, "async={}", opts.enable_async);
        }
    }
}

/// Calls every one of the 11 NCSDK entry points at least once.
fn mvnc_script(api: &dyn MvncApi) -> Vec<String> {
    let mut t = Transcript(Vec::new());
    let blob = simnc::inception_v3_like(16, 1, 8, 7).to_blob();
    let name = api.get_device_name(0).unwrap();
    t.note("mvncGetDeviceName", &name);
    t.note(
        "mvncGetDeviceName(missing)",
        api.get_device_name(9).map_err(|e| e.0),
    );
    t.note(
        "mvncOpenDevice(missing)",
        api.open_device("ncs9").map(|_| ()).map_err(|e| e.0),
    );
    let device = api.open_device(&name).unwrap();
    for option in [DeviceOption::ThermalThrottle, DeviceOption::MaxExecutors] {
        t.note(
            "mvncGetDeviceOption",
            api.get_device_option(device, option).map_err(|e| e.0),
        );
    }
    t.note(
        "mvncSetDeviceOption",
        api.set_device_option(device, DeviceOption::MaxExecutors, 2)
            .map_err(|e| e.0),
    );
    t.note(
        "mvncGetDeviceOption(after set)",
        api.get_device_option(device, DeviceOption::MaxExecutors)
            .map_err(|e| e.0),
    );
    let graph = api.allocate_graph(device, &blob).unwrap();
    t.note(
        "mvncSetGraphOption",
        api.set_graph_option(graph, GraphOption::DontBlock, 0)
            .map_err(|e| e.0),
    );
    t.note(
        "mvncGetGraphOption",
        api.get_graph_option(graph, GraphOption::DontBlock)
            .map_err(|e| e.0),
    );
    let image = Tensor::zeros(3, 16, 16).to_bytes();
    t.note(
        "mvncLoadTensor",
        api.load_tensor(graph, &image, 41).map_err(|e| e.0),
    );
    t.note("mvncGetResult", api.get_result(graph).map_err(|e| e.0));
    t.note(
        "mvncDeallocateGraph",
        api.deallocate_graph(graph).map_err(|e| e.0),
    );
    t.note("mvncCloseDevice", api.close_device(device).map_err(|e| e.0));
    t.0
}

#[test]
fn every_mvnc_entry_point_matches_the_bare_silo() {
    let native = mvnc_script(&SimNc::new(1));
    for opts in lowerings() {
        let stack = mvnc_stack_with(SimNc::new(1), config(), opts).unwrap();
        let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
        let virt = mvnc_script(&MvncClient::new(lib));
        assert_eq!(native, virt, "async={}", opts.enable_async);
    }
}

/// Calls `name` with raw wire arguments, as a guest library that skips
/// the typed client would, and returns its status.
fn raw_status(lib: &GuestLibrary, name: &str, args: Vec<Value>) -> i64 {
    let func = lib.descriptor().by_name(name).expect("entry point").clone();
    let r = lib.call_fn(&func, args).expect("call delivered");
    r.ret.as_i64().expect("status return")
}

#[test]
fn unknown_parameter_codes_are_invalid_value() {
    let stack = opencl_stack(silo(), config()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let api = OpenClClient::new(Arc::clone(&lib));
    let platform = api.get_platform_ids().unwrap()[0];
    let device = api.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = api.create_context(device).unwrap();
    let queue = api
        .create_command_queue(ctx, device, QueueProps { profiling: true })
        .unwrap();
    let mem = api
        .create_buffer(ctx, MemFlags::read_write(), 64, None)
        .unwrap();
    let event = api
        .enqueue_write_buffer(queue, mem, true, 0, &[1u8; 64], &[], true)
        .unwrap()
        .expect("event requested");
    let bad = Value::U32(0xBAD);
    let want = Value::U64(1);
    let invalid = i64::from(CL_INVALID_VALUE);
    let info_args = |subject: u64| {
        vec![
            Value::Handle(subject),
            bad.clone(),
            Value::U64(16),
            want.clone(),
            want.clone(),
        ]
    };
    assert_eq!(
        raw_status(&lib, "clGetPlatformInfo", info_args(platform.0)),
        invalid
    );
    assert_eq!(
        raw_status(&lib, "clGetDeviceInfo", info_args(device.0)),
        invalid
    );
    assert_eq!(
        raw_status(
            &lib,
            "clGetEventProfilingInfo",
            vec![Value::Handle(event.0), bad.clone(), want.clone()],
        ),
        invalid
    );
    // The lane is still healthy after the refusals.
    assert_eq!(
        raw_status(&lib, "clGetEventInfo", vec![Value::Handle(event.0), want]),
        i64::from(CL_SUCCESS)
    );
}

#[test]
fn unknown_option_codes_are_invalid_parameters() {
    let stack = mvnc_stack_with(SimNc::new(1), config(), LowerOptions::default()).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let api = MvncClient::new(Arc::clone(&lib));
    let device = api.open_device("ncs0").unwrap();
    let blob = simnc::inception_v3_like(16, 1, 8, 7).to_blob();
    let graph = api.allocate_graph(device, &blob).unwrap();
    let bad = Value::I32(77);
    let want = Value::U64(1);
    let invalid = i64::from(MVNC_INVALID_PARAMETERS);
    for (name, subject) in [
        ("mvncSetGraphOption", graph.0),
        ("mvncSetDeviceOption", device.0),
    ] {
        let args = vec![Value::Handle(subject), bad.clone(), Value::U64(1)];
        assert_eq!(raw_status(&lib, name, args), invalid, "{name}");
    }
    for (name, subject) in [
        ("mvncGetGraphOption", graph.0),
        ("mvncGetDeviceOption", device.0),
    ] {
        let args = vec![Value::Handle(subject), bad.clone(), want.clone()];
        assert_eq!(raw_status(&lib, name, args), invalid, "{name}");
    }
    assert_eq!(
        raw_status(
            &lib,
            "mvncGetGraphOption",
            vec![Value::Handle(graph.0), Value::I32(0), want],
        ),
        i64::from(MVNC_OK)
    );
}

#[test]
fn device_oom_is_answered_by_eviction_and_the_victim_reads_back_intact() {
    // A 1 MiB device and no resident ceiling: only device OOM evicts.
    let cl = SimCl::with_devices(vec![DeviceConfig::small(1 << 20)]);
    let stack = opencl_stack(cl, config()).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let api = OpenClClient::new(lib);
    let platform = api.get_platform_ids().unwrap()[0];
    let device = api.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = api.create_context(device).unwrap();
    let queue = api
        .create_command_queue(ctx, device, QueueProps::default())
        .unwrap();

    let len = 400 << 10;
    let pattern = |seed: u32| -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8 ^ seed as u8)
            .collect()
    };
    let buffers: Vec<(ClMem, Vec<u8>)> = (0..3)
        .map(|seed| {
            let data = pattern(seed);
            let mem = api
                .create_buffer(ctx, MemFlags::read_write(), len, Some(&data))
                .expect("create past device memory succeeds by eviction");
            (mem, data)
        })
        .collect();
    let stats = stack.vm_server_stats(vm).unwrap();
    assert!(stats.swap_outs >= 1, "the third buffer must evict one");

    // Every buffer, the evicted one first, reads back bit-identical; each
    // fault-in meets device OOM again and evicts another.
    for (mem, data) in &buffers {
        let mut out = vec![0u8; len];
        api.enqueue_read_buffer(queue, *mem, true, 0, &mut out, &[], false)
            .unwrap();
        assert!(out == *data, "buffer read back differs after swapping");
    }
    let stats = stack.vm_server_stats(vm).unwrap();
    assert!(stats.swap_ins >= 1, "the evicted buffer must fault back in");
}
