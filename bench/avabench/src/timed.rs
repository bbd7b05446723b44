//! Benchmark-side spans around the API boundary.
//!
//! [`TimedCl`] and [`TimedNc`] implement the same traits as the native
//! silos and the remoting clients and wrap either one, so a traced run
//! records `(function, start, duration, payload bytes)` for every API call
//! an application makes — on the native side and on the AvA side alike —
//! without touching the layers themselves. Untraced runs hand the
//! applications the bare silo or client, so end-to-end metrics never pay
//! for the wrapper.

use std::sync::Mutex;
use std::time::Instant;

use simcl::status::ClResult;
use simcl::types::*;
use simcl::ClApi;
use simnc::{DeviceOption, GraphOption, MvncApi, NcDevice, NcGraph, NcResult};

macro_rules! api_fn_table {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// Every wrapped entry point; the discriminant indexes [`ApiFn::NAMES`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum ApiFn { $($variant),* }

        impl ApiFn {
            pub const NAMES: &'static [&'static str] = &[$($name),*];
        }
    };
}

api_fn_table! {
    GetPlatformIds => "clGetPlatformIDs",
    GetPlatformInfo => "clGetPlatformInfo",
    GetDeviceIds => "clGetDeviceIDs",
    GetDeviceInfo => "clGetDeviceInfo",
    CreateContext => "clCreateContext",
    RetainContext => "clRetainContext",
    ReleaseContext => "clReleaseContext",
    GetContextInfo => "clGetContextInfo",
    CreateCommandQueue => "clCreateCommandQueue",
    RetainCommandQueue => "clRetainCommandQueue",
    ReleaseCommandQueue => "clReleaseCommandQueue",
    CreateBuffer => "clCreateBuffer",
    CreateImage => "clCreateImage",
    RetainMemObject => "clRetainMemObject",
    ReleaseMemObject => "clReleaseMemObject",
    GetMemObjectInfo => "clGetMemObjectInfo",
    CreateProgramWithSource => "clCreateProgramWithSource",
    BuildProgram => "clBuildProgram",
    CompileProgram => "clCompileProgram",
    GetProgramBuildInfo => "clGetProgramBuildInfo",
    RetainProgram => "clRetainProgram",
    ReleaseProgram => "clReleaseProgram",
    CreateKernel => "clCreateKernel",
    CreateKernelsInProgram => "clCreateKernelsInProgram",
    SetKernelArg => "clSetKernelArg",
    GetKernelWorkGroupInfo => "clGetKernelWorkGroupInfo",
    RetainKernel => "clRetainKernel",
    ReleaseKernel => "clReleaseKernel",
    EnqueueNdRangeKernel => "clEnqueueNDRangeKernel",
    EnqueueTask => "clEnqueueTask",
    EnqueueReadBuffer => "clEnqueueReadBuffer",
    EnqueueWriteBuffer => "clEnqueueWriteBuffer",
    EnqueueCopyBuffer => "clEnqueueCopyBuffer",
    Flush => "clFlush",
    Finish => "clFinish",
    WaitForEvents => "clWaitForEvents",
    GetEventInfo => "clGetEventInfo",
    GetEventProfilingInfo => "clGetEventProfilingInfo",
    RetainEvent => "clRetainEvent",
    ReleaseEvent => "clReleaseEvent",
    NcGetDeviceName => "mvncGetDeviceName",
    NcOpenDevice => "mvncOpenDevice",
    NcCloseDevice => "mvncCloseDevice",
    NcAllocateGraph => "mvncAllocateGraph",
    NcDeallocateGraph => "mvncDeallocateGraph",
    NcLoadTensor => "mvncLoadTensor",
    NcGetResult => "mvncGetResult",
    NcSetGraphOption => "mvncSetGraphOption",
    NcGetGraphOption => "mvncGetGraphOption",
    NcSetDeviceOption => "mvncSetDeviceOption",
    NcGetDeviceOption => "mvncGetDeviceOption",
}

/// One API call as the application saw it.
#[derive(Clone, Copy, Debug)]
pub struct CallRec {
    pub func: ApiFn,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub dur_ns: u32,
    /// Buffer payload the call carried, in either direction.
    pub bytes: u32,
}

/// The calls of one application run, in issue order. Applications are
/// single-threaded, so the mutex is never contended; it exists because the
/// API traits require `Sync`.
pub struct CallLog {
    epoch: Instant,
    calls: Mutex<Vec<CallRec>>,
}

impl CallLog {
    pub fn new(epoch: Instant) -> Self {
        CallLog {
            epoch,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn time<T>(&self, func: ApiFn, bytes: usize, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let dur = start.elapsed();
        let rec = CallRec {
            func,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: u32::try_from(dur.as_nanos()).unwrap_or(u32::MAX),
            bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
        };
        self.calls.lock().expect("call log poisoned").push(rec);
        out
    }

    /// Hands over the recorded calls and leaves the log empty.
    pub fn drain(&self) -> Vec<CallRec> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }
}

/// A [`ClApi`] that times every call into `inner`.
pub struct TimedCl<'a> {
    pub inner: &'a dyn ClApi,
    pub log: &'a CallLog,
}

impl ClApi for TimedCl<'_> {
    fn get_platform_ids(&self) -> ClResult<Vec<ClPlatform>> {
        self.log
            .time(ApiFn::GetPlatformIds, 0, || self.inner.get_platform_ids())
    }

    fn get_platform_info(&self, platform: ClPlatform, info: PlatformInfo) -> ClResult<String> {
        self.log.time(ApiFn::GetPlatformInfo, 0, || {
            self.inner.get_platform_info(platform, info)
        })
    }

    fn get_device_ids(&self, platform: ClPlatform, ty: DeviceType) -> ClResult<Vec<ClDevice>> {
        self.log.time(ApiFn::GetDeviceIds, 0, || {
            self.inner.get_device_ids(platform, ty)
        })
    }

    fn get_device_info(&self, device: ClDevice, info: DeviceInfo) -> ClResult<InfoValue> {
        self.log.time(ApiFn::GetDeviceInfo, 0, || {
            self.inner.get_device_info(device, info)
        })
    }

    fn create_context(&self, device: ClDevice) -> ClResult<ClContext> {
        self.log.time(ApiFn::CreateContext, 0, || {
            self.inner.create_context(device)
        })
    }

    fn retain_context(&self, context: ClContext) -> ClResult<()> {
        self.log.time(ApiFn::RetainContext, 0, || {
            self.inner.retain_context(context)
        })
    }

    fn release_context(&self, context: ClContext) -> ClResult<()> {
        self.log.time(ApiFn::ReleaseContext, 0, || {
            self.inner.release_context(context)
        })
    }

    fn get_context_info(&self, context: ClContext) -> ClResult<ClDevice> {
        self.log.time(ApiFn::GetContextInfo, 0, || {
            self.inner.get_context_info(context)
        })
    }

    fn create_command_queue(
        &self,
        context: ClContext,
        device: ClDevice,
        props: QueueProps,
    ) -> ClResult<ClQueue> {
        self.log.time(ApiFn::CreateCommandQueue, 0, || {
            self.inner.create_command_queue(context, device, props)
        })
    }

    fn retain_command_queue(&self, queue: ClQueue) -> ClResult<()> {
        self.log.time(ApiFn::RetainCommandQueue, 0, || {
            self.inner.retain_command_queue(queue)
        })
    }

    fn release_command_queue(&self, queue: ClQueue) -> ClResult<()> {
        self.log.time(ApiFn::ReleaseCommandQueue, 0, || {
            self.inner.release_command_queue(queue)
        })
    }

    fn create_buffer(
        &self,
        context: ClContext,
        flags: MemFlags,
        size: usize,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem> {
        let bytes = host_data.map_or(0, <[u8]>::len);
        self.log.time(ApiFn::CreateBuffer, bytes, || {
            self.inner.create_buffer(context, flags, size, host_data)
        })
    }

    fn create_image(
        &self,
        context: ClContext,
        flags: MemFlags,
        desc: ImageDesc,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem> {
        let bytes = host_data.map_or(0, <[u8]>::len);
        self.log.time(ApiFn::CreateImage, bytes, || {
            self.inner.create_image(context, flags, desc, host_data)
        })
    }

    fn retain_mem_object(&self, mem: ClMem) -> ClResult<()> {
        self.log.time(ApiFn::RetainMemObject, 0, || {
            self.inner.retain_mem_object(mem)
        })
    }

    fn release_mem_object(&self, mem: ClMem) -> ClResult<()> {
        self.log.time(ApiFn::ReleaseMemObject, 0, || {
            self.inner.release_mem_object(mem)
        })
    }

    fn get_mem_object_info(&self, mem: ClMem) -> ClResult<usize> {
        self.log.time(ApiFn::GetMemObjectInfo, 0, || {
            self.inner.get_mem_object_info(mem)
        })
    }

    fn create_program_with_source(&self, context: ClContext, source: &str) -> ClResult<ClProgram> {
        self.log
            .time(ApiFn::CreateProgramWithSource, source.len(), || {
                self.inner.create_program_with_source(context, source)
            })
    }

    fn build_program(&self, program: ClProgram, options: &str) -> ClResult<()> {
        self.log.time(ApiFn::BuildProgram, 0, || {
            self.inner.build_program(program, options)
        })
    }

    fn compile_program(&self, program: ClProgram, options: &str) -> ClResult<()> {
        self.log.time(ApiFn::CompileProgram, 0, || {
            self.inner.compile_program(program, options)
        })
    }

    fn get_program_build_info(&self, program: ClProgram) -> ClResult<String> {
        self.log.time(ApiFn::GetProgramBuildInfo, 0, || {
            self.inner.get_program_build_info(program)
        })
    }

    fn retain_program(&self, program: ClProgram) -> ClResult<()> {
        self.log.time(ApiFn::RetainProgram, 0, || {
            self.inner.retain_program(program)
        })
    }

    fn release_program(&self, program: ClProgram) -> ClResult<()> {
        self.log.time(ApiFn::ReleaseProgram, 0, || {
            self.inner.release_program(program)
        })
    }

    fn create_kernel(&self, program: ClProgram, name: &str) -> ClResult<ClKernel> {
        self.log.time(ApiFn::CreateKernel, 0, || {
            self.inner.create_kernel(program, name)
        })
    }

    fn create_kernels_in_program(&self, program: ClProgram) -> ClResult<Vec<ClKernel>> {
        self.log.time(ApiFn::CreateKernelsInProgram, 0, || {
            self.inner.create_kernels_in_program(program)
        })
    }

    fn set_kernel_arg(&self, kernel: ClKernel, index: u32, arg: KernelArg) -> ClResult<()> {
        self.log.time(ApiFn::SetKernelArg, 0, || {
            self.inner.set_kernel_arg(kernel, index, arg)
        })
    }

    fn get_kernel_work_group_info(&self, kernel: ClKernel, device: ClDevice) -> ClResult<usize> {
        self.log.time(ApiFn::GetKernelWorkGroupInfo, 0, || {
            self.inner.get_kernel_work_group_info(kernel, device)
        })
    }

    fn retain_kernel(&self, kernel: ClKernel) -> ClResult<()> {
        self.log
            .time(ApiFn::RetainKernel, 0, || self.inner.retain_kernel(kernel))
    }

    fn release_kernel(&self, kernel: ClKernel) -> ClResult<()> {
        self.log.time(ApiFn::ReleaseKernel, 0, || {
            self.inner.release_kernel(kernel)
        })
    }

    fn enqueue_nd_range_kernel(
        &self,
        queue: ClQueue,
        kernel: ClKernel,
        global: [usize; 3],
        local: Option<[usize; 3]>,
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>> {
        self.log.time(ApiFn::EnqueueNdRangeKernel, 0, || {
            self.inner
                .enqueue_nd_range_kernel(queue, kernel, global, local, wait, want_event)
        })
    }

    fn enqueue_task(
        &self,
        queue: ClQueue,
        kernel: ClKernel,
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>> {
        self.log.time(ApiFn::EnqueueTask, 0, || {
            self.inner.enqueue_task(queue, kernel, wait, want_event)
        })
    }

    fn enqueue_read_buffer(
        &self,
        queue: ClQueue,
        mem: ClMem,
        blocking: bool,
        offset: usize,
        out: &mut [u8],
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>> {
        self.log.time(ApiFn::EnqueueReadBuffer, out.len(), || {
            self.inner
                .enqueue_read_buffer(queue, mem, blocking, offset, out, wait, want_event)
        })
    }

    fn enqueue_write_buffer(
        &self,
        queue: ClQueue,
        mem: ClMem,
        blocking: bool,
        offset: usize,
        data: &[u8],
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>> {
        self.log.time(ApiFn::EnqueueWriteBuffer, data.len(), || {
            self.inner
                .enqueue_write_buffer(queue, mem, blocking, offset, data, wait, want_event)
        })
    }

    fn enqueue_copy_buffer(
        &self,
        queue: ClQueue,
        src: ClMem,
        dst: ClMem,
        src_offset: usize,
        dst_offset: usize,
        len: usize,
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>> {
        self.log.time(ApiFn::EnqueueCopyBuffer, 0, || {
            self.inner.enqueue_copy_buffer(
                queue, src, dst, src_offset, dst_offset, len, wait, want_event,
            )
        })
    }

    fn flush(&self, queue: ClQueue) -> ClResult<()> {
        self.log.time(ApiFn::Flush, 0, || self.inner.flush(queue))
    }

    fn finish(&self, queue: ClQueue) -> ClResult<()> {
        self.log.time(ApiFn::Finish, 0, || self.inner.finish(queue))
    }

    fn wait_for_events(&self, events: &[ClEvent]) -> ClResult<()> {
        self.log.time(ApiFn::WaitForEvents, 0, || {
            self.inner.wait_for_events(events)
        })
    }

    fn get_event_info(&self, event: ClEvent) -> ClResult<EventStatus> {
        self.log
            .time(ApiFn::GetEventInfo, 0, || self.inner.get_event_info(event))
    }

    fn get_event_profiling_info(&self, event: ClEvent) -> ClResult<ProfilingInfo> {
        self.log.time(ApiFn::GetEventProfilingInfo, 0, || {
            self.inner.get_event_profiling_info(event)
        })
    }

    fn retain_event(&self, event: ClEvent) -> ClResult<()> {
        self.log
            .time(ApiFn::RetainEvent, 0, || self.inner.retain_event(event))
    }

    fn release_event(&self, event: ClEvent) -> ClResult<()> {
        self.log
            .time(ApiFn::ReleaseEvent, 0, || self.inner.release_event(event))
    }
}

/// An [`MvncApi`] that times every call into `inner`.
pub struct TimedNc<'a> {
    pub inner: &'a dyn MvncApi,
    pub log: &'a CallLog,
}

impl MvncApi for TimedNc<'_> {
    fn get_device_name(&self, index: usize) -> NcResult<String> {
        self.log.time(ApiFn::NcGetDeviceName, 0, || {
            self.inner.get_device_name(index)
        })
    }

    fn open_device(&self, name: &str) -> NcResult<NcDevice> {
        self.log
            .time(ApiFn::NcOpenDevice, 0, || self.inner.open_device(name))
    }

    fn close_device(&self, device: NcDevice) -> NcResult<()> {
        self.log
            .time(ApiFn::NcCloseDevice, 0, || self.inner.close_device(device))
    }

    fn allocate_graph(&self, device: NcDevice, graph_blob: &[u8]) -> NcResult<NcGraph> {
        self.log.time(ApiFn::NcAllocateGraph, graph_blob.len(), || {
            self.inner.allocate_graph(device, graph_blob)
        })
    }

    fn deallocate_graph(&self, graph: NcGraph) -> NcResult<()> {
        self.log.time(ApiFn::NcDeallocateGraph, 0, || {
            self.inner.deallocate_graph(graph)
        })
    }

    fn load_tensor(&self, graph: NcGraph, tensor: &[u8], user_param: u64) -> NcResult<()> {
        self.log.time(ApiFn::NcLoadTensor, tensor.len(), || {
            self.inner.load_tensor(graph, tensor, user_param)
        })
    }

    fn get_result(&self, graph: NcGraph) -> NcResult<(Vec<u8>, u64)> {
        // The payload size is only known once the result is back; the
        // bulk-call statistics do not need it (results are class vectors).
        self.log
            .time(ApiFn::NcGetResult, 0, || self.inner.get_result(graph))
    }

    fn set_graph_option(&self, graph: NcGraph, option: GraphOption, value: u64) -> NcResult<()> {
        self.log.time(ApiFn::NcSetGraphOption, 0, || {
            self.inner.set_graph_option(graph, option, value)
        })
    }

    fn get_graph_option(&self, graph: NcGraph, option: GraphOption) -> NcResult<u64> {
        self.log.time(ApiFn::NcGetGraphOption, 0, || {
            self.inner.get_graph_option(graph, option)
        })
    }

    fn set_device_option(
        &self,
        device: NcDevice,
        option: DeviceOption,
        value: u64,
    ) -> NcResult<()> {
        self.log.time(ApiFn::NcSetDeviceOption, 0, || {
            self.inner.set_device_option(device, option, value)
        })
    }

    fn get_device_option(&self, device: NcDevice, option: DeviceOption) -> NcResult<u64> {
        self.log.time(ApiFn::NcGetDeviceOption, 0, || {
            self.inner.get_device_option(device, option)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_name() {
        assert_eq!(ApiFn::NAMES.len(), ApiFn::NcGetDeviceOption as usize + 1);
        assert_eq!(ApiFn::NAMES[ApiFn::Finish as usize], "clFinish");
        assert_eq!(ApiFn::NAMES[ApiFn::NcGetResult as usize], "mvncGetResult");
        assert_eq!(
            ApiFn::NAMES.len(),
            simcl::CL_API_FUNCTION_COUNT + simnc::MVNC_API_FUNCTION_COUNT
        );
    }

    #[test]
    fn wrapper_records_calls_in_issue_order_with_payload_sizes() {
        let cl = simcl::SimCl::new();
        let log = CallLog::new(Instant::now());
        let api = TimedCl {
            inner: &cl,
            log: &log,
        };
        let platform = api.get_platform_ids().unwrap()[0];
        let device = api.get_device_ids(platform, DeviceType::All).unwrap()[0];
        let ctx = api.create_context(device).unwrap();
        let data = [7u8; 128];
        api.create_buffer(ctx, MemFlags::read_write(), 128, Some(&data))
            .unwrap();
        let calls = log.drain();
        let funcs: Vec<ApiFn> = calls.iter().map(|c| c.func).collect();
        assert_eq!(
            funcs,
            [
                ApiFn::GetPlatformIds,
                ApiFn::GetDeviceIds,
                ApiFn::CreateContext,
                ApiFn::CreateBuffer
            ]
        );
        assert_eq!(calls[3].bytes, 128);
        assert!(calls.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(log.drain().is_empty());
    }
}
