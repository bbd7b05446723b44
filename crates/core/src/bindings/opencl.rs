//! The OpenCL API-server binding: what CAvA generates to execute forwarded
//! `cl*` calls against the native silo (`simcl`).
//!
//! The binding owns the API-specific knowledge the generic server runtime
//! cannot have: how to unpack each function's arguments, which silo entry
//! point to invoke, how to mirror retain/release reference counts, and how
//! to snapshot/restore/drop `cl_mem` payloads for migration and swapping.

use std::collections::HashMap;

use ava_server::{ApiHandler, HandlerOutput, Result, ServerError};
use ava_spec::FunctionDesc;
use ava_wire::{fill_payload, Value};
use simcl::status::{CL_INVALID_VALUE, CL_MEM_OBJECT_ALLOCATION_FAILURE, CL_SUCCESS};
use simcl::types::*;
use simcl::{ClApi, ClError, SimCl};

use crate::specs::cl_code as code;

/// The OpenCL handler bound to one `SimCl` instance.
pub struct OpenClHandler {
    cl: SimCl,
    /// Mirrored reference counts, silo handle → count. The wire handle
    /// table must only retire entries when the object actually dies.
    refs: HashMap<u64, u32>,
    /// `cl_mem` silo handle → (owning context silo, byte size); needed to
    /// snapshot/restore payloads through an internal queue.
    mem_info: HashMap<u64, (u64, usize)>,
    /// Internal (non-guest-visible) queue per context, for snapshots.
    internal_queues: HashMap<u64, ClQueue>,
    /// Status of the most recent create-style call, for OOM detection.
    last_create_status: i32,
}

impl OpenClHandler {
    /// Creates a handler executing against `cl`.
    pub fn new(cl: SimCl) -> Self {
        OpenClHandler {
            cl,
            refs: HashMap::new(),
            mem_info: HashMap::new(),
            internal_queues: HashMap::new(),
            last_create_status: CL_SUCCESS,
        }
    }

    fn track_new(&mut self, silo: u64) {
        self.refs.insert(silo, 1);
    }

    fn retain(&mut self, silo: u64) {
        *self.refs.entry(silo).or_insert(1) += 1;
    }

    /// Returns true when the object died.
    fn release(&mut self, silo: u64) -> bool {
        match self.refs.get_mut(&silo) {
            Some(count) if *count > 1 => {
                *count -= 1;
                false
            }
            _ => {
                self.refs.remove(&silo);
                true
            }
        }
    }

    fn internal_queue(&mut self, ctx_silo: u64) -> Result<ClQueue> {
        if let Some(q) = self.internal_queues.get(&ctx_silo) {
            return Ok(*q);
        }
        let device = self
            .cl
            .get_context_info(ClContext(ctx_silo))
            .map_err(|e| ServerError::Handler(e.to_string()))?;
        let q = self
            .cl
            .create_command_queue(ClContext(ctx_silo), device, QueueProps::default())
            .map_err(|e| ServerError::Handler(e.to_string()))?;
        self.internal_queues.insert(ctx_silo, q);
        Ok(q)
    }
}

// ---- Argument accessors --------------------------------------------------

fn arg(args: &[Value], i: usize) -> Result<&Value> {
    args.get(i)
        .ok_or_else(|| ServerError::BadArguments(format!("missing argument {i}")))
}

fn handle(args: &[Value], i: usize) -> Result<u64> {
    arg(args, i)?
        .as_handle()
        .ok_or_else(|| ServerError::BadArguments(format!("argument {i} is not a handle")))
}

fn uint(args: &[Value], i: usize) -> Result<u64> {
    arg(args, i)?
        .as_u64()
        .ok_or_else(|| ServerError::BadArguments(format!("argument {i} is not an integer")))
}

fn bytes(args: &[Value], i: usize) -> Result<&[u8]> {
    match arg(args, i)? {
        Value::Bytes(b) => Ok(b),
        other => Err(ServerError::BadArguments(format!(
            "argument {i} is not a buffer: {other:?}"
        ))),
    }
}

fn opt_bytes(args: &[Value], i: usize) -> Result<Option<&[u8]>> {
    match arg(args, i)? {
        Value::Bytes(b) => Ok(Some(b)),
        Value::Null => Ok(None),
        other => Err(ServerError::BadArguments(format!(
            "argument {i} is not a buffer or NULL: {other:?}"
        ))),
    }
}

fn string(args: &[Value], i: usize) -> Result<&str> {
    arg(args, i)?
        .as_str()
        .ok_or_else(|| ServerError::BadArguments(format!("argument {i} is not a string")))
}

fn opt_string(args: &[Value], i: usize) -> Result<&str> {
    match arg(args, i)? {
        Value::Str(s) => Ok(s),
        Value::Null => Ok(""),
        other => Err(ServerError::BadArguments(format!(
            "argument {i} is not a string or NULL: {other:?}"
        ))),
    }
}

fn wants(args: &[Value], i: usize) -> bool {
    args.get(i).map(|v| !v.is_null()).unwrap_or(false)
}

fn events(args: &[Value], i: usize) -> Result<Vec<ClEvent>> {
    match arg(args, i)? {
        Value::Null => Ok(Vec::new()),
        Value::List(items) => items
            .iter()
            .map(|v| {
                v.as_handle()
                    .map(ClEvent)
                    .ok_or_else(|| ServerError::BadArguments("event list holds non-handle".into()))
            })
            .collect(),
        other => Err(ServerError::BadArguments(format!(
            "argument {i} is not an event list: {other:?}"
        ))),
    }
}

fn size_list(args: &[Value], i: usize) -> Result<Option<Vec<usize>>> {
    match arg(args, i)? {
        Value::Null => Ok(None),
        Value::Bytes(b) => {
            if b.len() % 8 != 0 {
                return Err(ServerError::BadArguments(
                    "size_t array has ragged byte length".into(),
                ));
            }
            Ok(Some(
                b.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
                    .collect(),
            ))
        }
        other => Err(ServerError::BadArguments(format!(
            "argument {i} is not a size_t array: {other:?}"
        ))),
    }
}

fn dims(list: &[usize]) -> [usize; 3] {
    let mut out = [1usize; 3];
    for (slot, v) in out.iter_mut().zip(list.iter()) {
        *slot = *v;
    }
    out
}

fn status_ret(code: i32) -> HandlerOutput {
    HandlerOutput::ret(Value::I32(code))
}

fn err_code(e: ClError) -> i32 {
    e.0
}

/// Builds the three standard outputs of a create-style call: the handle
/// return plus an optional errcode output.
fn create_ret(
    result: std::result::Result<u64, ClError>,
    errcode_idx: usize,
    args: &[Value],
) -> (HandlerOutput, i32) {
    let (ret, code) = match result {
        Ok(silo) => (Value::Handle(silo), CL_SUCCESS),
        Err(e) => (Value::Null, err_code(e)),
    };
    let mut out = HandlerOutput::ret(ret);
    if wants(args, errcode_idx) {
        out.outputs.push((errcode_idx as u32, Value::I32(code)));
    }
    (out, code)
}

impl ApiHandler for OpenClHandler {
    fn dispatch(&mut self, func: &FunctionDesc, args: &[Value]) -> Result<HandlerOutput> {
        let cl = self.cl.clone();
        match func.name.as_str() {
            "clGetPlatformIDs" => {
                let num_entries = uint(args, 0)? as usize;
                match cl.get_platform_ids() {
                    Ok(platforms) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 1) {
                            let list: Vec<Value> = platforms
                                .iter()
                                .take(num_entries)
                                .map(|p| Value::Handle(p.0))
                                .collect();
                            out.outputs.push((1, Value::List(list)));
                        }
                        if wants(args, 2) {
                            out.outputs.push((2, Value::U32(platforms.len() as u32)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clGetPlatformInfo" => {
                let platform = ClPlatform(handle(args, 0)?);
                let param = uint(args, 1)? as u32;
                let cap = uint(args, 2)? as usize;
                let info = match param {
                    code::CL_PLATFORM_NAME => PlatformInfo::Name,
                    code::CL_PLATFORM_VENDOR => PlatformInfo::Vendor,
                    code::CL_PLATFORM_VERSION => PlatformInfo::Version,
                    _ => return Ok(status_ret(CL_INVALID_VALUE)),
                };
                match cl.get_platform_info(platform, info) {
                    Ok(text) => {
                        let mut out = status_ret(CL_SUCCESS);
                        let raw = text.into_bytes();
                        if wants(args, 3) {
                            let n = raw.len().min(cap);
                            out.outputs
                                .push((3, Value::Bytes(raw[..n].to_vec().into())));
                        }
                        if wants(args, 4) {
                            out.outputs.push((4, Value::U64(raw.len() as u64)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clGetDeviceIDs" => {
                let platform = ClPlatform(handle(args, 0)?);
                let ty = match uint(args, 1)? {
                    code::CL_DEVICE_TYPE_GPU => DeviceType::Gpu,
                    code::CL_DEVICE_TYPE_ACCELERATOR => DeviceType::Accelerator,
                    _ => DeviceType::All,
                };
                let num_entries = uint(args, 2)? as usize;
                match cl.get_device_ids(platform, ty) {
                    Ok(devices) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 3) {
                            let list: Vec<Value> = devices
                                .iter()
                                .take(num_entries)
                                .map(|d| Value::Handle(d.0))
                                .collect();
                            out.outputs.push((3, Value::List(list)));
                        }
                        if wants(args, 4) {
                            out.outputs.push((4, Value::U32(devices.len() as u32)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clGetDeviceInfo" => {
                let device = ClDevice(handle(args, 0)?);
                let param = uint(args, 1)? as u32;
                let cap = uint(args, 2)? as usize;
                let info = match param {
                    code::CL_DEVICE_NAME => DeviceInfo::Name,
                    code::CL_DEVICE_VENDOR => DeviceInfo::Vendor,
                    code::CL_DEVICE_MAX_COMPUTE_UNITS => DeviceInfo::MaxComputeUnits,
                    code::CL_DEVICE_MAX_WORK_GROUP_SIZE => DeviceInfo::MaxWorkGroupSize,
                    code::CL_DEVICE_GLOBAL_MEM_SIZE => DeviceInfo::GlobalMemSize,
                    code::CL_DEVICE_LOCAL_MEM_SIZE => DeviceInfo::LocalMemSize,
                    code::CL_DEVICE_TYPE_INFO => DeviceInfo::Type,
                    _ => return Ok(status_ret(CL_INVALID_VALUE)),
                };
                match cl.get_device_info(device, info) {
                    Ok(value) => {
                        let raw = match value {
                            InfoValue::Str(s) => s.into_bytes(),
                            InfoValue::UInt(v) => v.to_le_bytes().to_vec(),
                        };
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 3) {
                            let n = raw.len().min(cap);
                            out.outputs
                                .push((3, Value::Bytes(raw[..n].to_vec().into())));
                        }
                        if wants(args, 4) {
                            out.outputs.push((4, Value::U64(raw.len() as u64)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clCreateContext" => {
                let devices = match arg(args, 1)? {
                    Value::List(items) => items
                        .iter()
                        .filter_map(Value::as_handle)
                        .map(ClDevice)
                        .collect::<Vec<_>>(),
                    _ => Vec::new(),
                };
                let result = match devices.first() {
                    Some(device) => cl.create_context(*device).map(|c| c.0),
                    None => Err(ClError(CL_INVALID_VALUE)),
                };
                if let Ok(silo) = result {
                    self.track_new(silo);
                }
                let (out, code) = create_ret(result, 4, args);
                self.last_create_status = code;
                Ok(out)
            }
            "clRetainContext" => {
                self.retain(handle(args, 0)?);
                let r = cl.retain_context(ClContext(handle(args, 0)?));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clReleaseContext" => {
                let silo = handle(args, 0)?;
                let died = self.release(silo);
                let r = cl.release_context(ClContext(silo));
                let mut out = status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS));
                out.destroyed = Some(died);
                if died {
                    if let Some(q) = self.internal_queues.remove(&silo) {
                        let _ = cl.release_command_queue(q);
                    }
                }
                Ok(out)
            }
            "clGetContextInfo" => {
                let ctx = ClContext(handle(args, 0)?);
                match cl.get_context_info(ctx) {
                    Ok(device) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 1) {
                            out.outputs.push((1, Value::Handle(device.0)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clCreateCommandQueue" => {
                let ctx = ClContext(handle(args, 0)?);
                let device = ClDevice(handle(args, 1)?);
                let props = QueueProps::from_bits(uint(args, 2)?);
                let result = cl.create_command_queue(ctx, device, props).map(|q| q.0);
                if let Ok(silo) = result {
                    self.track_new(silo);
                }
                let (out, code) = create_ret(result, 3, args);
                self.last_create_status = code;
                Ok(out)
            }
            "clRetainCommandQueue" => {
                self.retain(handle(args, 0)?);
                let r = cl.retain_command_queue(ClQueue(handle(args, 0)?));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clReleaseCommandQueue" => {
                let silo = handle(args, 0)?;
                let died = self.release(silo);
                let r = cl.release_command_queue(ClQueue(silo));
                let mut out = status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS));
                out.destroyed = Some(died);
                Ok(out)
            }
            "clCreateBuffer" => {
                let ctx = ClContext(handle(args, 0)?);
                let flags = MemFlags::from_bits(uint(args, 1)?);
                let size = uint(args, 2)? as usize;
                let host = opt_bytes(args, 3)?;
                let result = cl.create_buffer(ctx, flags, size, host).map(|m| m.0);
                if let Ok(silo) = result {
                    self.track_new(silo);
                    self.mem_info.insert(silo, (ctx.0, size));
                }
                let (out, code) = create_ret(result, 4, args);
                self.last_create_status = code;
                Ok(out)
            }
            "clCreateImage" => {
                let ctx = ClContext(handle(args, 0)?);
                let flags = MemFlags::from_bits(uint(args, 1)?);
                let desc = ImageDesc {
                    width: uint(args, 2)? as usize,
                    height: uint(args, 3)? as usize,
                    elem_size: uint(args, 4)? as usize,
                };
                let host = opt_bytes(args, 5)?;
                let result = cl.create_image(ctx, flags, desc, host).map(|m| m.0);
                if let Ok(silo) = result {
                    self.track_new(silo);
                    self.mem_info.insert(silo, (ctx.0, desc.byte_len()));
                }
                let (out, code) = create_ret(result, 6, args);
                self.last_create_status = code;
                Ok(out)
            }
            "clRetainMemObject" => {
                self.retain(handle(args, 0)?);
                let r = cl.retain_mem_object(ClMem(handle(args, 0)?));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clReleaseMemObject" => {
                let silo = handle(args, 0)?;
                let died = self.release(silo);
                let r = cl.release_mem_object(ClMem(silo));
                if died {
                    self.mem_info.remove(&silo);
                }
                let mut out = status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS));
                out.destroyed = Some(died);
                Ok(out)
            }
            "clGetMemObjectInfo" => {
                let mem = ClMem(handle(args, 0)?);
                match cl.get_mem_object_info(mem) {
                    Ok(size) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 1) {
                            out.outputs.push((1, Value::U64(size as u64)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clCreateProgramWithSource" => {
                let ctx = ClContext(handle(args, 0)?);
                let source = string(args, 1)?;
                let result = cl.create_program_with_source(ctx, source).map(|p| p.0);
                if let Ok(silo) = result {
                    self.track_new(silo);
                }
                let (out, code) = create_ret(result, 2, args);
                self.last_create_status = code;
                Ok(out)
            }
            "clBuildProgram" | "clCompileProgram" => {
                let program = ClProgram(handle(args, 0)?);
                let options = opt_string(args, 1)?;
                let r = if func.name == "clBuildProgram" {
                    cl.build_program(program, options)
                } else {
                    cl.compile_program(program, options)
                };
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clGetProgramBuildInfo" => {
                let program = ClProgram(handle(args, 0)?);
                let cap = uint(args, 1)? as usize;
                match cl.get_program_build_info(program) {
                    Ok(log) => {
                        let raw = log.into_bytes();
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 2) {
                            let n = raw.len().min(cap);
                            out.outputs
                                .push((2, Value::Bytes(raw[..n].to_vec().into())));
                        }
                        if wants(args, 3) {
                            out.outputs.push((3, Value::U64(raw.len() as u64)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clRetainProgram" => {
                self.retain(handle(args, 0)?);
                let r = cl.retain_program(ClProgram(handle(args, 0)?));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clReleaseProgram" => {
                let silo = handle(args, 0)?;
                let died = self.release(silo);
                let r = cl.release_program(ClProgram(silo));
                let mut out = status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS));
                out.destroyed = Some(died);
                Ok(out)
            }
            "clCreateKernel" => {
                let program = ClProgram(handle(args, 0)?);
                let name = string(args, 1)?;
                let result = cl.create_kernel(program, name).map(|k| k.0);
                if let Ok(silo) = result {
                    self.track_new(silo);
                }
                let (out, code) = create_ret(result, 2, args);
                self.last_create_status = code;
                Ok(out)
            }
            "clCreateKernelsInProgram" => {
                let program = ClProgram(handle(args, 0)?);
                let cap = uint(args, 1)? as usize;
                match cl.create_kernels_in_program(program) {
                    Ok(kernels) => {
                        for k in &kernels {
                            self.track_new(k.0);
                        }
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 2) {
                            let list: Vec<Value> = kernels
                                .iter()
                                .take(cap)
                                .map(|k| Value::Handle(k.0))
                                .collect();
                            out.outputs.push((2, Value::List(list)));
                        }
                        if wants(args, 3) {
                            out.outputs.push((3, Value::U32(kernels.len() as u32)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clRetainKernel" => {
                self.retain(handle(args, 0)?);
                let r = cl.retain_kernel(ClKernel(handle(args, 0)?));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clReleaseKernel" => {
                let silo = handle(args, 0)?;
                let died = self.release(silo);
                let r = cl.release_kernel(ClKernel(silo));
                let mut out = status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS));
                out.destroyed = Some(died);
                Ok(out)
            }
            "clSetKernelArg" => {
                let kernel = ClKernel(handle(args, 0)?);
                let index = uint(args, 1)? as u32;
                let value = bytes(args, 3)?;
                let r = cl.set_kernel_arg(kernel, index, KernelArg::Scalar(value.to_vec()));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clSetKernelArgMem" => {
                let kernel = ClKernel(handle(args, 0)?);
                let index = uint(args, 1)? as u32;
                let mem = ClMem(handle(args, 2)?);
                let r = cl.set_kernel_arg(kernel, index, KernelArg::Mem(mem));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clSetKernelArgLocal" => {
                let kernel = ClKernel(handle(args, 0)?);
                let index = uint(args, 1)? as u32;
                let size = uint(args, 2)? as usize;
                let r = cl.set_kernel_arg(kernel, index, KernelArg::Local(size));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clGetKernelWorkGroupInfo" => {
                let kernel = ClKernel(handle(args, 0)?);
                let device = ClDevice(handle(args, 1)?);
                match cl.get_kernel_work_group_info(kernel, device) {
                    Ok(size) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 2) {
                            out.outputs.push((2, Value::U64(size as u64)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clEnqueueNDRangeKernel" => {
                let queue = ClQueue(handle(args, 0)?);
                let kernel = ClKernel(handle(args, 1)?);
                let global = size_list(args, 4)?
                    .ok_or_else(|| ServerError::BadArguments("global_work_size is NULL".into()))?;
                let local = size_list(args, 5)?;
                let wait = events(args, 7)?;
                let want_event = wants(args, 8);
                let r = cl.enqueue_nd_range_kernel(
                    queue,
                    kernel,
                    dims(&global),
                    local.as_deref().map(dims),
                    &wait,
                    want_event,
                );
                match r {
                    Ok(ev) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if let Some(ev) = ev {
                            self.track_new(ev.0);
                            out.outputs.push((8, Value::Handle(ev.0)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clEnqueueTask" => {
                let queue = ClQueue(handle(args, 0)?);
                let kernel = ClKernel(handle(args, 1)?);
                let wait = events(args, 3)?;
                let want_event = wants(args, 4);
                match cl.enqueue_task(queue, kernel, &wait, want_event) {
                    Ok(ev) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if let Some(ev) = ev {
                            self.track_new(ev.0);
                            out.outputs.push((4, Value::Handle(ev.0)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clEnqueueReadBuffer" => {
                let queue = ClQueue(handle(args, 0)?);
                let mem = ClMem(handle(args, 1)?);
                let blocking = uint(args, 2)? != 0;
                let offset = uint(args, 3)? as usize;
                let size = uint(args, 4)? as usize;
                let wait = events(args, 7)?;
                let want_event = wants(args, 8);
                // A successful read overwrites every byte of the payload;
                // a failed one hands it back to the store unseen.
                match fill_payload(size, |data| {
                    cl.enqueue_read_buffer(queue, mem, blocking, offset, data, &wait, want_event)
                }) {
                    Ok((data, ev)) => {
                        let mut out = status_ret(CL_SUCCESS);
                        out.outputs.push((5, Value::Bytes(data)));
                        if let Some(ev) = ev {
                            self.track_new(ev.0);
                            out.outputs.push((8, Value::Handle(ev.0)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clEnqueueWriteBuffer" => {
                let queue = ClQueue(handle(args, 0)?);
                let mem = ClMem(handle(args, 1)?);
                let blocking = uint(args, 2)? != 0;
                let offset = uint(args, 3)? as usize;
                let data = bytes(args, 5)?;
                let wait = events(args, 7)?;
                let want_event = wants(args, 8);
                match cl.enqueue_write_buffer(queue, mem, blocking, offset, data, &wait, want_event)
                {
                    Ok(ev) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if let Some(ev) = ev {
                            self.track_new(ev.0);
                            out.outputs.push((8, Value::Handle(ev.0)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clEnqueueCopyBuffer" => {
                let queue = ClQueue(handle(args, 0)?);
                let src = ClMem(handle(args, 1)?);
                let dst = ClMem(handle(args, 2)?);
                let src_offset = uint(args, 3)? as usize;
                let dst_offset = uint(args, 4)? as usize;
                let size = uint(args, 5)? as usize;
                let wait = events(args, 7)?;
                let want_event = wants(args, 8);
                match cl.enqueue_copy_buffer(
                    queue, src, dst, src_offset, dst_offset, size, &wait, want_event,
                ) {
                    Ok(ev) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if let Some(ev) = ev {
                            self.track_new(ev.0);
                            out.outputs.push((8, Value::Handle(ev.0)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clFlush" => {
                let r = cl.flush(ClQueue(handle(args, 0)?));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clFinish" => {
                let r = cl.finish(ClQueue(handle(args, 0)?));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clWaitForEvents" => {
                let list = events(args, 1)?;
                let r = cl.wait_for_events(&list);
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clGetEventInfo" => {
                let event = ClEvent(handle(args, 0)?);
                match cl.get_event_info(event) {
                    Ok(status) => {
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 1) {
                            out.outputs.push((1, Value::I32(status.to_cl())));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clGetEventProfilingInfo" => {
                let event = ClEvent(handle(args, 0)?);
                let param = uint(args, 1)? as u32;
                match cl.get_event_profiling_info(event) {
                    Ok(prof) => {
                        let value = match param {
                            code::CL_PROFILING_COMMAND_QUEUED => prof.queued,
                            code::CL_PROFILING_COMMAND_SUBMIT => prof.submitted,
                            code::CL_PROFILING_COMMAND_START => prof.started,
                            code::CL_PROFILING_COMMAND_END => prof.ended,
                            _ => return Ok(status_ret(CL_INVALID_VALUE)),
                        };
                        let mut out = status_ret(CL_SUCCESS);
                        if wants(args, 2) {
                            out.outputs.push((2, Value::U64(value)));
                        }
                        Ok(out)
                    }
                    Err(e) => Ok(status_ret(err_code(e))),
                }
            }
            "clRetainEvent" => {
                self.retain(handle(args, 0)?);
                let r = cl.retain_event(ClEvent(handle(args, 0)?));
                Ok(status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS)))
            }
            "clReleaseEvent" => {
                let silo = handle(args, 0)?;
                let died = self.release(silo);
                let r = cl.release_event(ClEvent(silo));
                let mut out = status_ret(r.err().map(err_code).unwrap_or(CL_SUCCESS));
                out.destroyed = Some(died);
                Ok(out)
            }
            other => Err(ServerError::Handler(format!(
                "unhandled function `{other}`"
            ))),
        }
    }

    fn swappable_kinds(&self) -> &[&str] {
        &["cl_mem"]
    }

    fn snapshot_object(&mut self, kind: &str, silo: u64) -> Option<Vec<u8>> {
        if kind != "cl_mem" {
            return None;
        }
        let (ctx, size) = *self.mem_info.get(&silo)?;
        let queue = self.internal_queue(ctx).ok()?;
        let mut data = vec![0u8; size];
        self.cl
            .enqueue_read_buffer(queue, ClMem(silo), true, 0, &mut data, &[], false)
            .ok()?;
        Some(data)
    }

    fn restore_object(&mut self, kind: &str, silo: u64, data: &[u8]) -> bool {
        if kind != "cl_mem" {
            return false;
        }
        let Some((ctx, size)) = self.mem_info.get(&silo).copied() else {
            return false;
        };
        if data.len() != size {
            return false;
        }
        let Ok(queue) = self.internal_queue(ctx) else {
            return false;
        };
        self.cl
            .enqueue_write_buffer(queue, ClMem(silo), true, 0, data, &[], false)
            .is_ok()
    }

    fn drop_object(&mut self, kind: &str, silo: u64) -> bool {
        let ok = match kind {
            "cl_mem" => {
                self.mem_info.remove(&silo);
                self.cl.release_mem_object(ClMem(silo)).is_ok()
            }
            "cl_context" => {
                if let Some(q) = self.internal_queues.remove(&silo) {
                    let _ = self.cl.release_command_queue(q);
                }
                self.cl.release_context(ClContext(silo)).is_ok()
            }
            "cl_command_queue" => self.cl.release_command_queue(ClQueue(silo)).is_ok(),
            "cl_program" => self.cl.release_program(ClProgram(silo)).is_ok(),
            "cl_kernel" => self.cl.release_kernel(ClKernel(silo)).is_ok(),
            "cl_event" => self.cl.release_event(ClEvent(silo)).is_ok(),
            _ => false,
        };
        if ok {
            self.refs.remove(&silo);
        }
        ok
    }

    fn ret_indicates_oom(&self, func: &FunctionDesc, ret: &Value) -> bool {
        matches!(func.name.as_str(), "clCreateBuffer" | "clCreateImage")
            && ret.is_null()
            && self.last_create_status == CL_MEM_OBJECT_ALLOCATION_FAILURE
    }
}
