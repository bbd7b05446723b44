//! The public OpenCL-subset API surface.
//!
//! [`ClApi`] mirrors the 40 `cl*` entry points the AvA prototype
//! para-virtualized (§5), with C out-parameters and status returns mapped
//! to idiomatic `Result`s. Two implementations exist:
//!
//! * [`crate::SimCl`] — the native silo, executing on the simulated device;
//! * `ava_core::OpenClClient` — the CAvA-generated remoting client, which
//!   forwards every call through the AvA transport/router/server stack.
//!
//! Workloads are written against `&dyn ClApi`, so the same benchmark binary
//! runs native or virtualized — exactly the comparison Figure 5 makes.

use crate::status::ClResult;
use crate::types::{
    ClContext, ClDevice, ClEvent, ClKernel, ClMem, ClPlatform, ClProgram, ClQueue, DeviceInfo,
    DeviceType, EventStatus, ImageDesc, InfoValue, KernelArg, MemFlags, PlatformInfo,
    ProfilingInfo, QueueProps,
};

/// The OpenCL-subset API (see module docs).
pub trait ClApi: Send + Sync {
    // -- Platform and device discovery ------------------------------------

    /// `clGetPlatformIDs`.
    fn get_platform_ids(&self) -> ClResult<Vec<ClPlatform>>;

    /// `clGetPlatformInfo`.
    fn get_platform_info(&self, platform: ClPlatform, info: PlatformInfo) -> ClResult<String>;

    /// `clGetDeviceIDs`.
    fn get_device_ids(&self, platform: ClPlatform, ty: DeviceType) -> ClResult<Vec<ClDevice>>;

    /// `clGetDeviceInfo`.
    fn get_device_info(&self, device: ClDevice, info: DeviceInfo) -> ClResult<InfoValue>;

    // -- Contexts ----------------------------------------------------------

    /// `clCreateContext` (single-device form).
    fn create_context(&self, device: ClDevice) -> ClResult<ClContext>;

    /// `clRetainContext`.
    fn retain_context(&self, context: ClContext) -> ClResult<()>;

    /// `clReleaseContext`.
    fn release_context(&self, context: ClContext) -> ClResult<()>;

    /// `clGetContextInfo` (returns the device of the context).
    fn get_context_info(&self, context: ClContext) -> ClResult<ClDevice>;

    // -- Command queues ------------------------------------------------------

    /// `clCreateCommandQueue`.
    fn create_command_queue(
        &self,
        context: ClContext,
        device: ClDevice,
        props: QueueProps,
    ) -> ClResult<ClQueue>;

    /// `clRetainCommandQueue`.
    fn retain_command_queue(&self, queue: ClQueue) -> ClResult<()>;

    /// `clReleaseCommandQueue`.
    fn release_command_queue(&self, queue: ClQueue) -> ClResult<()>;

    // -- Memory objects ------------------------------------------------------

    /// `clCreateBuffer`. `host_data`, when given, must be `size` bytes and
    /// is copied into the new allocation (`CL_MEM_COPY_HOST_PTR`).
    fn create_buffer(
        &self,
        context: ClContext,
        flags: MemFlags,
        size: usize,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem>;

    /// `clCreateImage` (simple 2D images stored row-major).
    fn create_image(
        &self,
        context: ClContext,
        flags: MemFlags,
        desc: ImageDesc,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem>;

    /// `clRetainMemObject`.
    fn retain_mem_object(&self, mem: ClMem) -> ClResult<()>;

    /// `clReleaseMemObject`.
    fn release_mem_object(&self, mem: ClMem) -> ClResult<()>;

    /// `clGetMemObjectInfo` (returns the byte size).
    fn get_mem_object_info(&self, mem: ClMem) -> ClResult<usize>;

    // -- Programs ------------------------------------------------------------

    /// `clCreateProgramWithSource`.
    fn create_program_with_source(&self, context: ClContext, source: &str) -> ClResult<ClProgram>;

    /// `clBuildProgram`; `CL_INVALID_OPERATION` while the program has
    /// kernels.
    fn build_program(&self, program: ClProgram, options: &str) -> ClResult<()>;

    /// `clCompileProgram` (alias of build in the subset; kept because the
    /// paper's migration example records it as an object-modification call).
    fn compile_program(&self, program: ClProgram, options: &str) -> ClResult<()>;

    /// `clGetProgramBuildInfo` (returns the build log).
    fn get_program_build_info(&self, program: ClProgram) -> ClResult<String>;

    /// `clRetainProgram`.
    fn retain_program(&self, program: ClProgram) -> ClResult<()>;

    /// `clReleaseProgram`.
    fn release_program(&self, program: ClProgram) -> ClResult<()>;

    // -- Kernels -------------------------------------------------------------

    /// `clCreateKernel`.
    fn create_kernel(&self, program: ClProgram, name: &str) -> ClResult<ClKernel>;

    /// `clCreateKernelsInProgram`.
    fn create_kernels_in_program(&self, program: ClProgram) -> ClResult<Vec<ClKernel>>;

    /// `clSetKernelArg`.
    fn set_kernel_arg(&self, kernel: ClKernel, index: u32, arg: KernelArg) -> ClResult<()>;

    /// `clGetKernelWorkGroupInfo` (returns the max work-group size).
    fn get_kernel_work_group_info(&self, kernel: ClKernel, device: ClDevice) -> ClResult<usize>;

    /// `clRetainKernel`.
    fn retain_kernel(&self, kernel: ClKernel) -> ClResult<()>;

    /// `clReleaseKernel`.
    fn release_kernel(&self, kernel: ClKernel) -> ClResult<()>;

    // -- Enqueue -------------------------------------------------------------

    /// `clEnqueueNDRangeKernel`.
    fn enqueue_nd_range_kernel(
        &self,
        queue: ClQueue,
        kernel: ClKernel,
        global: [usize; 3],
        local: Option<[usize; 3]>,
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>>;

    /// `clEnqueueTask` (single work-item kernel).
    fn enqueue_task(
        &self,
        queue: ClQueue,
        kernel: ClKernel,
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>>;

    /// `clEnqueueReadBuffer`.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_read_buffer(
        &self,
        queue: ClQueue,
        mem: ClMem,
        blocking: bool,
        offset: usize,
        out: &mut [u8],
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>>;

    /// `clEnqueueWriteBuffer`.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_write_buffer(
        &self,
        queue: ClQueue,
        mem: ClMem,
        blocking: bool,
        offset: usize,
        data: &[u8],
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>>;

    /// `clEnqueueCopyBuffer`.
    #[allow(clippy::too_many_arguments)]
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
    ) -> ClResult<Option<ClEvent>>;

    // -- Synchronization -------------------------------------------------------

    /// `clFlush`.
    fn flush(&self, queue: ClQueue) -> ClResult<()>;

    /// `clFinish`.
    fn finish(&self, queue: ClQueue) -> ClResult<()>;

    /// `clWaitForEvents`.
    fn wait_for_events(&self, events: &[ClEvent]) -> ClResult<()>;

    /// `clGetEventInfo` (execution status).
    fn get_event_info(&self, event: ClEvent) -> ClResult<EventStatus>;

    /// `clGetEventProfilingInfo`.
    fn get_event_profiling_info(&self, event: ClEvent) -> ClResult<ProfilingInfo>;

    /// `clRetainEvent`.
    fn retain_event(&self, event: ClEvent) -> ClResult<()>;

    /// `clReleaseEvent`.
    fn release_event(&self, event: ClEvent) -> ClResult<()>;
}

/// Number of `cl*` entry points in the subset — the paper's §5 reports
/// para-virtualizing "39 commonly used OpenCL functions"; this subset has
/// one more (`clGetContextInfo`) for round numbers.
pub const CL_API_FUNCTION_COUNT: usize = 40;
