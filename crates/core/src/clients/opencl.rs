//! The OpenCL guest library: a CAvA-generated client that implements the
//! same [`ClApi`] trait as the native silo, but forwards every call through
//! the AvA stack. Swapping `SimCl` for [`OpenClClient`] is all it takes to
//! virtualize an application — the property Figure 5 relies on.

use std::sync::Arc;

use ava_guest::{CallResult, GuestLibrary};
use ava_wire::{copy_payload, FnId, Value};
use simcl::status::{ClError, ClResult, CL_OUT_OF_RESOURCES, CL_SUCCESS};
use simcl::types::*;
use simcl::ClApi;

use super::call_by_id;

use crate::specs::{cl_code as code, Cl, EntryPoint};

/// A placeholder that requests an out-parameter without carrying data.
const WANT: Value = Value::U64(1);

/// The remoting OpenCL client.
pub struct OpenClClient {
    lib: Arc<GuestLibrary>,
    /// `FnId` of every entry point, indexed by [`Cl`].
    fns: Vec<Option<FnId>>,
}

impl OpenClClient {
    /// Wraps a guest library configured with the OpenCL descriptor.
    pub fn new(lib: Arc<GuestLibrary>) -> Self {
        let fns = Cl::resolve(lib.descriptor());
        OpenClClient { lib, fns }
    }

    /// The underlying guest library (for stats inspection).
    pub fn library(&self) -> &Arc<GuestLibrary> {
        &self.lib
    }

    fn call(&self, func: Cl, args: Vec<Value>) -> ClResult<CallResult> {
        call_by_id(&self.lib, self.fns[func as usize], args)
            .map_err(|_| ClError(CL_OUT_OF_RESOURCES))
    }

    /// Checks a status-returning call.
    fn status(result: &CallResult) -> ClResult<()> {
        match result.ret.as_i64() {
            Some(code) if code == i64::from(CL_SUCCESS) => Ok(()),
            Some(code) => Err(ClError(code as i32)),
            None => Err(ClError(CL_OUT_OF_RESOURCES)),
        }
    }

    /// Extracts a created handle from a create-style call.
    fn created(result: &CallResult, errcode_idx: u32) -> ClResult<u64> {
        match result.ret.as_handle() {
            Some(h) => Ok(h),
            None => {
                let code = result
                    .output(errcode_idx)
                    .and_then(Value::as_i64)
                    .unwrap_or(i64::from(CL_OUT_OF_RESOURCES));
                Err(ClError(code as i32))
            }
        }
    }

    fn out_handle(result: &CallResult, idx: u32) -> ClResult<u64> {
        result
            .output(idx)
            .and_then(Value::as_handle)
            .ok_or(ClError(CL_OUT_OF_RESOURCES))
    }

    fn out_u64(result: &CallResult, idx: u32) -> ClResult<u64> {
        result
            .output(idx)
            .and_then(Value::as_u64)
            .ok_or(ClError(CL_OUT_OF_RESOURCES))
    }

    fn out_bytes(result: &CallResult, idx: u32) -> ClResult<&[u8]> {
        result
            .output(idx)
            .and_then(Value::as_bytes)
            .map(|b| b.as_ref())
            .ok_or(ClError(CL_OUT_OF_RESOURCES))
    }

    /// The two-call info idiom shared by all Get*Info entry points.
    fn get_info_raw(&self, func: Cl, subject: u64, param: u32) -> ClResult<Vec<u8>> {
        // First call: ask for the value size.
        let r = self.call(
            func,
            vec![
                Value::Handle(subject),
                Value::U32(param),
                Value::U64(0),
                Value::Null,
                WANT,
            ],
        )?;
        Self::status(&r)?;
        let size = Self::out_u64(&r, 4)?;
        // Second call: fetch the value.
        let r = self.call(
            func,
            vec![
                Value::Handle(subject),
                Value::U32(param),
                Value::U64(size),
                WANT,
                Value::Null,
            ],
        )?;
        Self::status(&r)?;
        Ok(Self::out_bytes(&r, 3)?.to_vec())
    }

    fn event_list(wait: &[ClEvent]) -> (Value, Value) {
        if wait.is_empty() {
            (Value::U32(0), Value::Null)
        } else {
            (
                Value::U32(wait.len() as u32),
                Value::List(wait.iter().map(|e| Value::Handle(e.0)).collect()),
            )
        }
    }

    fn event_out(result: &CallResult, idx: u32, want_event: bool) -> Option<ClEvent> {
        if !want_event {
            return None;
        }
        result.output(idx).and_then(Value::as_handle).map(ClEvent)
    }
}

impl ClApi for OpenClClient {
    fn get_platform_ids(&self) -> ClResult<Vec<ClPlatform>> {
        let r = self.call(Cl::GetPlatformIDs, vec![Value::U32(0), Value::Null, WANT])?;
        Self::status(&r)?;
        let count = Self::out_u64(&r, 2)?;
        let r = self.call(
            Cl::GetPlatformIDs,
            vec![Value::U32(count as u32), WANT, Value::Null],
        )?;
        Self::status(&r)?;
        let list = r
            .output(1)
            .and_then(Value::as_list)
            .ok_or(ClError(CL_OUT_OF_RESOURCES))?;
        Ok(list
            .iter()
            .filter_map(Value::as_handle)
            .map(ClPlatform)
            .collect())
    }

    fn get_platform_info(&self, platform: ClPlatform, info: PlatformInfo) -> ClResult<String> {
        let param = match info {
            PlatformInfo::Name => code::CL_PLATFORM_NAME,
            PlatformInfo::Vendor => code::CL_PLATFORM_VENDOR,
            PlatformInfo::Version => code::CL_PLATFORM_VERSION,
        };
        let raw = self.get_info_raw(Cl::GetPlatformInfo, platform.0, param)?;
        String::from_utf8(raw).map_err(|_| ClError(CL_OUT_OF_RESOURCES))
    }

    fn get_device_ids(&self, platform: ClPlatform, ty: DeviceType) -> ClResult<Vec<ClDevice>> {
        let ty_bits = match ty {
            DeviceType::All => code::CL_DEVICE_TYPE_ALL,
            DeviceType::Gpu => code::CL_DEVICE_TYPE_GPU,
            DeviceType::Accelerator => code::CL_DEVICE_TYPE_ACCELERATOR,
        };
        let r = self.call(
            Cl::GetDeviceIDs,
            vec![
                Value::Handle(platform.0),
                Value::U64(ty_bits),
                Value::U32(0),
                Value::Null,
                WANT,
            ],
        )?;
        Self::status(&r)?;
        let count = Self::out_u64(&r, 4)?;
        let r = self.call(
            Cl::GetDeviceIDs,
            vec![
                Value::Handle(platform.0),
                Value::U64(ty_bits),
                Value::U32(count as u32),
                WANT,
                Value::Null,
            ],
        )?;
        Self::status(&r)?;
        let list = r
            .output(3)
            .and_then(Value::as_list)
            .ok_or(ClError(CL_OUT_OF_RESOURCES))?;
        Ok(list
            .iter()
            .filter_map(Value::as_handle)
            .map(ClDevice)
            .collect())
    }

    fn get_device_info(&self, device: ClDevice, info: DeviceInfo) -> ClResult<InfoValue> {
        let (param, is_string) = match info {
            DeviceInfo::Name => (code::CL_DEVICE_NAME, true),
            DeviceInfo::Vendor => (code::CL_DEVICE_VENDOR, true),
            DeviceInfo::MaxComputeUnits => (code::CL_DEVICE_MAX_COMPUTE_UNITS, false),
            DeviceInfo::MaxWorkGroupSize => (code::CL_DEVICE_MAX_WORK_GROUP_SIZE, false),
            DeviceInfo::GlobalMemSize => (code::CL_DEVICE_GLOBAL_MEM_SIZE, false),
            DeviceInfo::LocalMemSize => (code::CL_DEVICE_LOCAL_MEM_SIZE, false),
            DeviceInfo::Type => (code::CL_DEVICE_TYPE_INFO, false),
        };
        let raw = self.get_info_raw(Cl::GetDeviceInfo, device.0, param)?;
        if is_string {
            Ok(InfoValue::Str(
                String::from_utf8(raw).map_err(|_| ClError(CL_OUT_OF_RESOURCES))?,
            ))
        } else {
            let arr: [u8; 8] = raw.try_into().map_err(|_| ClError(CL_OUT_OF_RESOURCES))?;
            Ok(InfoValue::UInt(u64::from_le_bytes(arr)))
        }
    }

    fn create_context(&self, device: ClDevice) -> ClResult<ClContext> {
        let r = self.call(
            Cl::CreateContext,
            vec![
                Value::U32(1),
                Value::List(vec![Value::Handle(device.0)]),
                Value::Null,   // pfn_notify
                Value::U64(0), // user_data (opaque)
                WANT,          // errcode_ret
            ],
        )?;
        Self::created(&r, 4).map(ClContext)
    }

    fn retain_context(&self, context: ClContext) -> ClResult<()> {
        Self::status(&self.call(Cl::RetainContext, vec![Value::Handle(context.0)])?)
    }

    fn release_context(&self, context: ClContext) -> ClResult<()> {
        Self::status(&self.call(Cl::ReleaseContext, vec![Value::Handle(context.0)])?)
    }

    fn get_context_info(&self, context: ClContext) -> ClResult<ClDevice> {
        let r = self.call(Cl::GetContextInfo, vec![Value::Handle(context.0), WANT])?;
        Self::status(&r)?;
        Self::out_handle(&r, 1).map(ClDevice)
    }

    fn create_command_queue(
        &self,
        context: ClContext,
        device: ClDevice,
        props: QueueProps,
    ) -> ClResult<ClQueue> {
        let r = self.call(
            Cl::CreateCommandQueue,
            vec![
                Value::Handle(context.0),
                Value::Handle(device.0),
                Value::U64(props.to_bits()),
                WANT,
            ],
        )?;
        Self::created(&r, 3).map(ClQueue)
    }

    fn retain_command_queue(&self, queue: ClQueue) -> ClResult<()> {
        Self::status(&self.call(Cl::RetainCommandQueue, vec![Value::Handle(queue.0)])?)
    }

    fn release_command_queue(&self, queue: ClQueue) -> ClResult<()> {
        Self::status(&self.call(Cl::ReleaseCommandQueue, vec![Value::Handle(queue.0)])?)
    }

    fn create_buffer(
        &self,
        context: ClContext,
        flags: MemFlags,
        size: usize,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem> {
        let host = match host_data {
            Some(data) => Value::Bytes(copy_payload(data)),
            None => Value::Null,
        };
        let r = self.call(
            Cl::CreateBuffer,
            vec![
                Value::Handle(context.0),
                Value::U64(flags.to_bits()),
                Value::U64(size as u64),
                host,
                WANT,
            ],
        )?;
        Self::created(&r, 4).map(ClMem)
    }

    fn create_image(
        &self,
        context: ClContext,
        flags: MemFlags,
        desc: ImageDesc,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem> {
        let host = match host_data {
            Some(data) => Value::Bytes(copy_payload(data)),
            None => Value::Null,
        };
        let r = self.call(
            Cl::CreateImage,
            vec![
                Value::Handle(context.0),
                Value::U64(flags.to_bits()),
                Value::U64(desc.width as u64),
                Value::U64(desc.height as u64),
                Value::U64(desc.elem_size as u64),
                host,
                WANT,
            ],
        )?;
        Self::created(&r, 6).map(ClMem)
    }

    fn retain_mem_object(&self, mem: ClMem) -> ClResult<()> {
        Self::status(&self.call(Cl::RetainMemObject, vec![Value::Handle(mem.0)])?)
    }

    fn release_mem_object(&self, mem: ClMem) -> ClResult<()> {
        Self::status(&self.call(Cl::ReleaseMemObject, vec![Value::Handle(mem.0)])?)
    }

    fn get_mem_object_info(&self, mem: ClMem) -> ClResult<usize> {
        let r = self.call(Cl::GetMemObjectInfo, vec![Value::Handle(mem.0), WANT])?;
        Self::status(&r)?;
        Ok(Self::out_u64(&r, 1)? as usize)
    }

    fn create_program_with_source(&self, context: ClContext, source: &str) -> ClResult<ClProgram> {
        let r = self.call(
            Cl::CreateProgramWithSource,
            vec![
                Value::Handle(context.0),
                Value::Str(source.to_string()),
                WANT,
            ],
        )?;
        Self::created(&r, 2).map(ClProgram)
    }

    fn build_program(&self, program: ClProgram, options: &str) -> ClResult<()> {
        Self::status(&self.call(
            Cl::BuildProgram,
            vec![Value::Handle(program.0), Value::Str(options.to_string())],
        )?)
    }

    fn compile_program(&self, program: ClProgram, options: &str) -> ClResult<()> {
        Self::status(&self.call(
            Cl::CompileProgram,
            vec![Value::Handle(program.0), Value::Str(options.to_string())],
        )?)
    }

    fn get_program_build_info(&self, program: ClProgram) -> ClResult<String> {
        let r = self.call(
            Cl::GetProgramBuildInfo,
            vec![Value::Handle(program.0), Value::U64(0), Value::Null, WANT],
        )?;
        Self::status(&r)?;
        let size = Self::out_u64(&r, 3)?;
        let r = self.call(
            Cl::GetProgramBuildInfo,
            vec![
                Value::Handle(program.0),
                Value::U64(size),
                WANT,
                Value::Null,
            ],
        )?;
        Self::status(&r)?;
        String::from_utf8(Self::out_bytes(&r, 2)?.to_vec())
            .map_err(|_| ClError(CL_OUT_OF_RESOURCES))
    }

    fn retain_program(&self, program: ClProgram) -> ClResult<()> {
        Self::status(&self.call(Cl::RetainProgram, vec![Value::Handle(program.0)])?)
    }

    fn release_program(&self, program: ClProgram) -> ClResult<()> {
        Self::status(&self.call(Cl::ReleaseProgram, vec![Value::Handle(program.0)])?)
    }

    fn create_kernel(&self, program: ClProgram, name: &str) -> ClResult<ClKernel> {
        let r = self.call(
            Cl::CreateKernel,
            vec![Value::Handle(program.0), Value::Str(name.to_string()), WANT],
        )?;
        Self::created(&r, 2).map(ClKernel)
    }

    fn create_kernels_in_program(&self, program: ClProgram) -> ClResult<Vec<ClKernel>> {
        let r = self.call(
            Cl::CreateKernelsInProgram,
            vec![Value::Handle(program.0), Value::U32(0), Value::Null, WANT],
        )?;
        Self::status(&r)?;
        let count = Self::out_u64(&r, 3)?;
        let r = self.call(
            Cl::CreateKernelsInProgram,
            vec![
                Value::Handle(program.0),
                Value::U32(count as u32),
                WANT,
                Value::Null,
            ],
        )?;
        Self::status(&r)?;
        let list = r
            .output(2)
            .and_then(Value::as_list)
            .ok_or(ClError(CL_OUT_OF_RESOURCES))?;
        Ok(list
            .iter()
            .filter_map(Value::as_handle)
            .map(ClKernel)
            .collect())
    }

    fn set_kernel_arg(&self, kernel: ClKernel, index: u32, arg: KernelArg) -> ClResult<()> {
        let r = match arg {
            KernelArg::Mem(mem) => self.call(
                Cl::SetKernelArgMem,
                vec![
                    Value::Handle(kernel.0),
                    Value::U32(index),
                    Value::Handle(mem.0),
                ],
            )?,
            KernelArg::Local(size) => self.call(
                Cl::SetKernelArgLocal,
                vec![
                    Value::Handle(kernel.0),
                    Value::U32(index),
                    Value::U64(size as u64),
                ],
            )?,
            KernelArg::Scalar(bytes) => self.call(
                Cl::SetKernelArg,
                vec![
                    Value::Handle(kernel.0),
                    Value::U32(index),
                    Value::U64(bytes.len() as u64),
                    Value::Bytes(bytes.into()),
                ],
            )?,
        };
        Self::status(&r)
    }

    fn get_kernel_work_group_info(&self, kernel: ClKernel, device: ClDevice) -> ClResult<usize> {
        let r = self.call(
            Cl::GetKernelWorkGroupInfo,
            vec![Value::Handle(kernel.0), Value::Handle(device.0), WANT],
        )?;
        Self::status(&r)?;
        Ok(Self::out_u64(&r, 2)? as usize)
    }

    fn retain_kernel(&self, kernel: ClKernel) -> ClResult<()> {
        Self::status(&self.call(Cl::RetainKernel, vec![Value::Handle(kernel.0)])?)
    }

    fn release_kernel(&self, kernel: ClKernel) -> ClResult<()> {
        Self::status(&self.call(Cl::ReleaseKernel, vec![Value::Handle(kernel.0)])?)
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
        let sizes = |dims: [usize; 3]| {
            let mut bytes = Vec::with_capacity(24);
            for d in dims {
                bytes.extend_from_slice(&(d as u64).to_le_bytes());
            }
            Value::Bytes(bytes.into())
        };
        let (n, list) = Self::event_list(wait);
        let r = self.call(
            Cl::EnqueueNDRangeKernel,
            vec![
                Value::Handle(queue.0),
                Value::Handle(kernel.0),
                Value::U32(3),
                Value::Null,
                sizes(global),
                local.map(sizes).unwrap_or(Value::Null),
                n,
                list,
                if want_event { WANT } else { Value::Null },
            ],
        )?;
        Self::status(&r)?;
        Ok(Self::event_out(&r, 8, want_event))
    }

    fn enqueue_task(
        &self,
        queue: ClQueue,
        kernel: ClKernel,
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>> {
        let (n, list) = Self::event_list(wait);
        let r = self.call(
            Cl::EnqueueTask,
            vec![
                Value::Handle(queue.0),
                Value::Handle(kernel.0),
                n,
                list,
                if want_event { WANT } else { Value::Null },
            ],
        )?;
        Self::status(&r)?;
        Ok(Self::event_out(&r, 4, want_event))
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
        let (n, list) = Self::event_list(wait);
        let r = self.call(
            Cl::EnqueueReadBuffer,
            vec![
                Value::Handle(queue.0),
                Value::Handle(mem.0),
                Value::U32(u32::from(blocking)),
                Value::U64(offset as u64),
                Value::U64(out.len() as u64),
                WANT,
                n,
                list,
                if want_event { WANT } else { Value::Null },
            ],
        )?;
        Self::status(&r)?;
        let data = Self::out_bytes(&r, 5)?;
        if data.len() != out.len() {
            return Err(ClError(CL_OUT_OF_RESOURCES));
        }
        out.copy_from_slice(data);
        Ok(Self::event_out(&r, 8, want_event))
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
        let (n, list) = Self::event_list(wait);
        let r = self.call(
            Cl::EnqueueWriteBuffer,
            vec![
                Value::Handle(queue.0),
                Value::Handle(mem.0),
                Value::U32(u32::from(blocking)),
                Value::U64(offset as u64),
                Value::U64(data.len() as u64),
                Value::Bytes(copy_payload(data)),
                n,
                list,
                if want_event { WANT } else { Value::Null },
            ],
        )?;
        Self::status(&r)?;
        Ok(Self::event_out(&r, 8, want_event))
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
        let (n, list) = Self::event_list(wait);
        let r = self.call(
            Cl::EnqueueCopyBuffer,
            vec![
                Value::Handle(queue.0),
                Value::Handle(src.0),
                Value::Handle(dst.0),
                Value::U64(src_offset as u64),
                Value::U64(dst_offset as u64),
                Value::U64(len as u64),
                n,
                list,
                if want_event { WANT } else { Value::Null },
            ],
        )?;
        Self::status(&r)?;
        Ok(Self::event_out(&r, 8, want_event))
    }

    fn flush(&self, queue: ClQueue) -> ClResult<()> {
        Self::status(&self.call(Cl::Flush, vec![Value::Handle(queue.0)])?)
    }

    fn finish(&self, queue: ClQueue) -> ClResult<()> {
        Self::status(&self.call(Cl::Finish, vec![Value::Handle(queue.0)])?)
    }

    fn wait_for_events(&self, events: &[ClEvent]) -> ClResult<()> {
        let (n, list) = Self::event_list(events);
        Self::status(&self.call(Cl::WaitForEvents, vec![n, list])?)
    }

    fn get_event_info(&self, event: ClEvent) -> ClResult<EventStatus> {
        let r = self.call(Cl::GetEventInfo, vec![Value::Handle(event.0), WANT])?;
        Self::status(&r)?;
        let raw = r
            .output(1)
            .and_then(Value::as_i64)
            .ok_or(ClError(CL_OUT_OF_RESOURCES))?;
        Ok(EventStatus::from_cl(raw as i32))
    }

    fn get_event_profiling_info(&self, event: ClEvent) -> ClResult<ProfilingInfo> {
        let fetch = |param: u32| -> ClResult<u64> {
            let r = self.call(
                Cl::GetEventProfilingInfo,
                vec![Value::Handle(event.0), Value::U32(param), WANT],
            )?;
            Self::status(&r)?;
            Self::out_u64(&r, 2)
        };
        Ok(ProfilingInfo {
            queued: fetch(code::CL_PROFILING_COMMAND_QUEUED)?,
            submitted: fetch(code::CL_PROFILING_COMMAND_SUBMIT)?,
            started: fetch(code::CL_PROFILING_COMMAND_START)?,
            ended: fetch(code::CL_PROFILING_COMMAND_END)?,
        })
    }

    fn retain_event(&self, event: ClEvent) -> ClResult<()> {
        Self::status(&self.call(Cl::RetainEvent, vec![Value::Handle(event.0)])?)
    }

    fn release_event(&self, event: ClEvent) -> ClResult<()> {
        Self::status(&self.call(Cl::ReleaseEvent, vec![Value::Handle(event.0)])?)
    }
}
