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
use simcl::status::{
    CL_INVALID_MEM_OBJECT, CL_INVALID_VALUE, CL_MEM_OBJECT_ALLOCATION_FAILURE, CL_SUCCESS,
};
use simcl::types::*;
use simcl::{ClApi, ClError, ClResult, SimCl};

use super::{done, reply, Args, Entries};
use crate::specs::{cl_code as code, Cl};

/// The OpenCL handler bound to one `SimCl` instance.
pub struct OpenClHandler {
    cl: SimCl,
    entries: Entries<Cl>,
    /// Mirrored reference counts, silo handle → count. The wire handle
    /// table must only retire entries when the object actually dies.
    refs: HashMap<u64, u32>,
    /// `cl_mem` silo handle → (owning context silo, byte size); needed to
    /// snapshot/restore payloads through an internal queue.
    mem_info: HashMap<u64, (u64, usize)>,
    /// Internal (non-guest-visible) queue per context, for snapshots.
    internal_queues: HashMap<u64, ClQueue>,
}

/// The six OpenCL handle kinds, each with the silo's retain and release.
#[derive(Clone, Copy)]
enum Kind {
    Context,
    Queue,
    Mem,
    Program,
    Kernel,
    Event,
}

impl Kind {
    /// The kind the descriptor calls `name`.
    fn named(name: &str) -> Option<Kind> {
        Some(match name {
            "cl_context" => Kind::Context,
            "cl_command_queue" => Kind::Queue,
            "cl_mem" => Kind::Mem,
            "cl_program" => Kind::Program,
            "cl_kernel" => Kind::Kernel,
            "cl_event" => Kind::Event,
            _ => return None,
        })
    }

    fn retain(self, cl: &SimCl, silo: u64) -> ClResult<()> {
        match self {
            Kind::Context => cl.retain_context(ClContext(silo)),
            Kind::Queue => cl.retain_command_queue(ClQueue(silo)),
            Kind::Mem => cl.retain_mem_object(ClMem(silo)),
            Kind::Program => cl.retain_program(ClProgram(silo)),
            Kind::Kernel => cl.retain_kernel(ClKernel(silo)),
            Kind::Event => cl.retain_event(ClEvent(silo)),
        }
    }

    fn release(self, cl: &SimCl, silo: u64) -> ClResult<()> {
        match self {
            Kind::Context => cl.release_context(ClContext(silo)),
            Kind::Queue => cl.release_command_queue(ClQueue(silo)),
            Kind::Mem => cl.release_mem_object(ClMem(silo)),
            Kind::Program => cl.release_program(ClProgram(silo)),
            Kind::Kernel => cl.release_kernel(ClKernel(silo)),
            Kind::Event => cl.release_event(ClEvent(silo)),
        }
    }
}

impl OpenClHandler {
    /// Creates a handler executing against `cl`.
    pub fn new(cl: SimCl) -> Self {
        OpenClHandler {
            cl,
            entries: Entries::new(),
            refs: HashMap::new(),
            mem_info: HashMap::new(),
            internal_queues: HashMap::new(),
        }
    }

    fn track_new(&mut self, silo: u64) {
        self.refs.insert(silo, 1);
    }

    /// `clRetain*`: one more reference, in the mirror and on the silo.
    fn retain(&mut self, kind: Kind, args: Args) -> Result<HandlerOutput> {
        let silo = args.handle(0)?;
        *self.refs.entry(silo).or_insert(1) += 1;
        Ok(done(kind.retain(&self.cl, silo)))
    }

    /// `clRelease*`: one reference less. The reply says whether the
    /// object died, so the wire handle retires only with its last one.
    fn release(&mut self, kind: Kind, args: Args) -> Result<HandlerOutput> {
        let silo = args.handle(0)?;
        let died = match self.refs.get_mut(&silo) {
            Some(count) if *count > 1 => {
                *count -= 1;
                false
            }
            _ => true,
        };
        let result = kind.release(&self.cl, silo);
        if died {
            self.forget(kind, silo);
        }
        Ok(HandlerOutput {
            destroyed: Some(died),
            ..done(result)
        })
    }

    /// Drops what the binding keeps about a dead object: its mirrored
    /// count, a context's snapshot queue and a `cl_mem`'s size record.
    fn forget(&mut self, kind: Kind, silo: u64) {
        self.refs.remove(&silo);
        match kind {
            Kind::Context => {
                if let Some(q) = self.internal_queues.remove(&silo) {
                    let _ = self.cl.release_command_queue(q);
                }
            }
            Kind::Mem => {
                self.mem_info.remove(&silo);
            }
            _ => {}
        }
    }

    fn internal_queue(&mut self, ctx_silo: u64) -> Option<ClQueue> {
        if let Some(q) = self.internal_queues.get(&ctx_silo) {
            return Some(*q);
        }
        let (cl, ctx) = (&self.cl, ClContext(ctx_silo));
        let device = cl.get_context_info(ctx).ok()?;
        let q = cl
            .create_command_queue(ctx, device, QueueProps::default())
            .ok()?;
        self.internal_queues.insert(ctx_silo, q);
        Some(q)
    }

    /// The create entry points that answer with a handle and an errcode.
    fn create(&mut self, entry: Cl, args: Args) -> Result<HandlerOutput> {
        let cl = &self.cl;
        let (result, errcode) = match entry {
            Cl::CreateContext => {
                let device = args.arg(1)?.as_list().unwrap_or_default();
                let result = match device.iter().find_map(Value::as_handle) {
                    Some(device) => cl.create_context(ClDevice(device)).map(|c| c.0),
                    None => Err(ClError(CL_INVALID_VALUE)),
                };
                (result, 4)
            }
            Cl::CreateCommandQueue => {
                let ctx = ClContext(args.handle(0)?);
                let device = ClDevice(args.handle(1)?);
                let props = QueueProps::from_bits(args.uint(2)?);
                (cl.create_command_queue(ctx, device, props).map(|q| q.0), 3)
            }
            Cl::CreateBuffer => {
                let ctx = args.handle(0)?;
                let flags = MemFlags::from_bits(args.uint(1)?);
                let size = args.usize(2)?;
                let result = cl.create_buffer(ClContext(ctx), flags, size, args.opt_bytes(3)?);
                (self.new_mem(result, ctx, size), 4)
            }
            Cl::CreateImage => {
                let ctx = args.handle(0)?;
                let flags = MemFlags::from_bits(args.uint(1)?);
                let desc = ImageDesc {
                    width: args.usize(2)?,
                    height: args.usize(3)?,
                    elem_size: args.usize(4)?,
                };
                let result = cl.create_image(ClContext(ctx), flags, desc, args.opt_bytes(5)?);
                let size = desc.byte_len().unwrap_or(0);
                (self.new_mem(result, ctx, size), 6)
            }
            Cl::CreateProgramWithSource => {
                let ctx = ClContext(args.handle(0)?);
                let source = args.string(1)?;
                (cl.create_program_with_source(ctx, source).map(|p| p.0), 2)
            }
            Cl::CreateKernel => {
                let program = ClProgram(args.handle(0)?);
                (cl.create_kernel(program, args.string(1)?).map(|k| k.0), 2)
            }
            other => unreachable!("{other:?} creates no handle"),
        };
        // The tail all of them share: mirror the new object, answer its
        // handle (or NULL) plus the errcode, and flag device OOM.
        let (ret, code) = match result {
            Ok(silo) => {
                self.track_new(silo);
                (Value::Handle(silo), CL_SUCCESS)
            }
            Err(e) => (Value::Null, e.0),
        };
        let mut out = HandlerOutput {
            device_oom: code == CL_MEM_OBJECT_ALLOCATION_FAILURE,
            ..HandlerOutput::ret(ret)
        };
        args.put(&mut out, errcode, || Value::I32(code));
        Ok(out)
    }

    /// Records a new `cl_mem`'s context and size for snapshots.
    fn new_mem(&mut self, result: ClResult<ClMem>, ctx: u64, size: usize) -> ClResult<u64> {
        let silo = result?.0;
        self.mem_info.insert(silo, (ctx, size));
        Ok(silo)
    }

    /// `clCreateKernelsInProgram`. Kernels the reply does not hand back
    /// (all of them for a count-only call) are released at once: no wire
    /// handle will ever name them.
    fn create_kernels(&mut self, args: Args) -> Result<HandlerOutput> {
        let program = ClProgram(args.handle(0)?);
        let cap = args.usize(1)?;
        let handed = if args.wants(2) { cap } else { 0 };
        let cl = self.cl.clone();
        let created = cl.create_kernels_in_program(program);
        Ok(reply(created, |out, kernels| {
            let (kept, unused) = kernels.split_at(handed.min(kernels.len()));
            for k in unused {
                let _ = cl.release_kernel(*k);
            }
            for k in kept {
                self.track_new(k.0);
            }
            args.put(out, 2, || handle_list(kept.iter().map(|k| k.0)));
            args.put(out, 3, || Value::U32(kernels.len() as u32));
        }))
    }

    fn set_kernel_arg(&self, entry: Cl, args: Args) -> Result<HandlerOutput> {
        let kernel = ClKernel(args.handle(0)?);
        let index = args.uint(1)? as u32;
        let arg = match entry {
            Cl::SetKernelArg => KernelArg::Scalar(args.bytes(3)?.to_vec()),
            Cl::SetKernelArgMem => KernelArg::Mem(ClMem(args.handle(2)?)),
            Cl::SetKernelArgLocal => KernelArg::Local(args.usize(2)?),
            other => unreachable!("{other:?} binds no kernel argument"),
        };
        Ok(done(self.cl.set_kernel_arg(kernel, index, arg)))
    }

    /// The enqueue entry points.
    fn enqueue(&mut self, entry: Cl, args: Args) -> Result<HandlerOutput> {
        let cl = &self.cl;
        let queue = ClQueue(args.handle(0)?);
        if entry == Cl::EnqueueTask {
            let kernel = ClKernel(args.handle(1)?);
            let result = cl.enqueue_task(queue, kernel, &events(args, 3)?, args.wants(4));
            return Ok(self.enqueued(result, 4));
        }
        let wait = events(args, 7)?;
        let want_event = args.wants(8);
        let result = match entry {
            Cl::EnqueueNDRangeKernel => {
                let kernel = ClKernel(args.handle(1)?);
                let global = dims(args, 4)?
                    .ok_or_else(|| ServerError::BadArguments("global_work_size is NULL".into()))?;
                let local = dims(args, 5)?;
                cl.enqueue_nd_range_kernel(queue, kernel, global, local, &wait, want_event)
            }
            Cl::EnqueueReadBuffer | Cl::EnqueueWriteBuffer => {
                let mem = ClMem(args.handle(1)?);
                let blocking = args.uint(2)? != 0;
                let offset = args.usize(3)?;
                if entry == Cl::EnqueueWriteBuffer {
                    let data = args.bytes(5)?;
                    cl.enqueue_write_buffer(queue, mem, blocking, offset, data, &wait, want_event)
                } else {
                    // The payload is sized by the guest's `cb`, so the
                    // range is checked before it is allocated (simcl would
                    // refuse it only after).
                    let cb = args.usize(4)?;
                    let status = match self.mem_info.get(&mem.0) {
                        None => Some(CL_INVALID_MEM_OBJECT),
                        Some(&(_, size)) => offset
                            .checked_add(cb)
                            .is_none_or(|end| end > size)
                            .then_some(CL_INVALID_VALUE),
                    };
                    if let Some(status) = status {
                        return Ok(self.enqueued(Err(ClError(status)), 8));
                    }
                    // A successful read overwrites every byte of the
                    // payload; a failed one hands it back to the store.
                    let read = fill_payload(cb, |buf| {
                        cl.enqueue_read_buffer(queue, mem, blocking, offset, buf, &wait, want_event)
                    });
                    let (data, result) = match read {
                        Ok((data, ev)) => (Some(data), Ok(ev)),
                        Err(e) => (None, Err(e)),
                    };
                    let mut out = self.enqueued(result, 8);
                    out.outputs
                        .splice(0..0, data.map(|data| (5, Value::Bytes(data))));
                    return Ok(out);
                }
            }
            Cl::EnqueueCopyBuffer => {
                let (src, dst) = (ClMem(args.handle(1)?), ClMem(args.handle(2)?));
                let (src_offset, dst_offset) = (args.usize(3)?, args.usize(4)?);
                let size = args.usize(5)?;
                cl.enqueue_copy_buffer(
                    queue, src, dst, src_offset, dst_offset, size, &wait, want_event,
                )
            }
            other => unreachable!("{other:?} is not an enqueue"),
        };
        Ok(self.enqueued(result, 8))
    }

    /// The tail every enqueue shares: its status and, when the guest
    /// asked for one, the new (mirrored) event as out-parameter `event`.
    fn enqueued(&mut self, result: ClResult<Option<ClEvent>>, event: u32) -> HandlerOutput {
        reply(result, |out, ev| {
            if let Some(ev) = ev {
                self.track_new(ev.0);
                out.outputs.push((event, Value::Handle(ev.0)));
            }
        })
    }

    /// The `Get*Info` queries: a value the guest reads in two calls,
    /// first its size, then its bytes.
    fn info(&self, entry: Cl, args: Args) -> Result<HandlerOutput> {
        let cl = &self.cl;
        let subject = args.handle(0)?;
        let (raw, cap, data) = match entry {
            Cl::GetPlatformInfo => {
                let info = match args.uint(1)? as u32 {
                    code::CL_PLATFORM_NAME => Ok(PlatformInfo::Name),
                    code::CL_PLATFORM_VENDOR => Ok(PlatformInfo::Vendor),
                    code::CL_PLATFORM_VERSION => Ok(PlatformInfo::Version),
                    _ => Err(ClError(CL_INVALID_VALUE)),
                };
                let cap = args.usize(2)?;
                let text = info.and_then(|info| cl.get_platform_info(ClPlatform(subject), info));
                (text.map(String::into_bytes), cap, 3)
            }
            Cl::GetDeviceInfo => {
                let info = match args.uint(1)? as u32 {
                    code::CL_DEVICE_NAME => Ok(DeviceInfo::Name),
                    code::CL_DEVICE_VENDOR => Ok(DeviceInfo::Vendor),
                    code::CL_DEVICE_MAX_COMPUTE_UNITS => Ok(DeviceInfo::MaxComputeUnits),
                    code::CL_DEVICE_MAX_WORK_GROUP_SIZE => Ok(DeviceInfo::MaxWorkGroupSize),
                    code::CL_DEVICE_GLOBAL_MEM_SIZE => Ok(DeviceInfo::GlobalMemSize),
                    code::CL_DEVICE_LOCAL_MEM_SIZE => Ok(DeviceInfo::LocalMemSize),
                    code::CL_DEVICE_TYPE_INFO => Ok(DeviceInfo::Type),
                    _ => Err(ClError(CL_INVALID_VALUE)),
                };
                let cap = args.usize(2)?;
                let value = info.and_then(|info| cl.get_device_info(ClDevice(subject), info));
                let raw = value.map(|value| match value {
                    InfoValue::Str(s) => s.into_bytes(),
                    InfoValue::UInt(v) => v.to_le_bytes().to_vec(),
                });
                (raw, cap, 3)
            }
            Cl::GetProgramBuildInfo => {
                let cap = args.usize(1)?;
                let log = cl.get_program_build_info(ClProgram(subject));
                (log.map(String::into_bytes), cap, 2)
            }
            other => unreachable!("{other:?} is not a Get*Info query"),
        };
        // The tail the three share: the value, truncated to the guest's
        // capacity, as out-parameter `data`; its full size as `data + 1`.
        Ok(reply(raw, |out, raw| {
            args.put(out, data, || {
                Value::Bytes(raw[..raw.len().min(cap)].to_vec().into())
            });
            args.put(out, data + 1, || Value::U64(raw.len() as u64));
        }))
    }

    /// The other `Get*` queries.
    fn query(&self, entry: Cl, args: Args) -> Result<HandlerOutput> {
        let cl = &self.cl;
        // A query answering one value, as out-parameter `i`.
        let one = |value: ClResult<Value>, i| reply(value, |out, v| args.put(out, i, || v));
        Ok(match entry {
            Cl::GetPlatformIDs => {
                let n = args.usize(0)?;
                reply(cl.get_platform_ids(), |out, all| {
                    args.put(out, 1, || handle_list(all.iter().take(n).map(|p| p.0)));
                    args.put(out, 2, || Value::U32(all.len() as u32));
                })
            }
            Cl::GetDeviceIDs => {
                let platform = ClPlatform(args.handle(0)?);
                let ty = match args.uint(1)? {
                    code::CL_DEVICE_TYPE_GPU => DeviceType::Gpu,
                    code::CL_DEVICE_TYPE_ACCELERATOR => DeviceType::Accelerator,
                    _ => DeviceType::All,
                };
                let n = args.usize(2)?;
                reply(cl.get_device_ids(platform, ty), |out, all| {
                    args.put(out, 3, || handle_list(all.iter().take(n).map(|d| d.0)));
                    args.put(out, 4, || Value::U32(all.len() as u32));
                })
            }
            Cl::GetContextInfo => {
                let device = cl.get_context_info(ClContext(args.handle(0)?));
                one(device.map(|d| Value::Handle(d.0)), 1)
            }
            Cl::GetMemObjectInfo => {
                let size = cl.get_mem_object_info(ClMem(args.handle(0)?));
                one(size.map(|n| Value::U64(n as u64)), 1)
            }
            Cl::GetKernelWorkGroupInfo => {
                let (kernel, device) = (ClKernel(args.handle(0)?), ClDevice(args.handle(1)?));
                let size = cl.get_kernel_work_group_info(kernel, device);
                one(size.map(|n| Value::U64(n as u64)), 2)
            }
            Cl::GetEventInfo => {
                let status = cl.get_event_info(ClEvent(args.handle(0)?));
                one(status.map(|s| Value::I32(s.to_cl())), 1)
            }
            Cl::GetEventProfilingInfo => {
                let event = ClEvent(args.handle(0)?);
                let param = args.uint(1)? as u32;
                let value = cl
                    .get_event_profiling_info(event)
                    .and_then(|prof| match param {
                        code::CL_PROFILING_COMMAND_QUEUED => Ok(prof.queued),
                        code::CL_PROFILING_COMMAND_SUBMIT => Ok(prof.submitted),
                        code::CL_PROFILING_COMMAND_START => Ok(prof.started),
                        code::CL_PROFILING_COMMAND_END => Ok(prof.ended),
                        _ => Err(ClError(CL_INVALID_VALUE)),
                    });
                one(value.map(Value::U64), 2)
            }
            other => unreachable!("{other:?} is not a query"),
        })
    }
}

fn handle_list(handles: impl Iterator<Item = u64>) -> Value {
    Value::List(handles.map(Value::Handle).collect())
}

fn events(args: Args, i: usize) -> Result<Vec<ClEvent>> {
    args.read(i, "an event list", |v| match v {
        Value::Null => Some(Vec::new()),
        v => v
            .as_list()?
            .iter()
            .map(|e| e.as_handle().map(ClEvent))
            .collect(),
    })
}

/// A `size_t` array as three dimensions (missing ones are 1), or `None`
/// for NULL.
fn dims(args: Args, i: usize) -> Result<Option<[usize; 3]>> {
    args.read(i, "a size_t array", |v| match v {
        Value::Null => Some(None),
        v => {
            let bytes = v.as_bytes().filter(|b| b.len() % 8 == 0)?;
            let mut out = [1usize; 3];
            for (slot, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                *slot = u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize;
            }
            Some(Some(out))
        }
    })
}

impl ApiHandler for OpenClHandler {
    fn dispatch(&mut self, func: &FunctionDesc, args: &[Value]) -> Result<HandlerOutput> {
        let args = Args(args);
        let entry = self.entries.of(func)?;
        let cl = &self.cl;
        match entry {
            Cl::RetainContext => self.retain(Kind::Context, args),
            Cl::RetainCommandQueue => self.retain(Kind::Queue, args),
            Cl::RetainMemObject => self.retain(Kind::Mem, args),
            Cl::RetainProgram => self.retain(Kind::Program, args),
            Cl::RetainKernel => self.retain(Kind::Kernel, args),
            Cl::RetainEvent => self.retain(Kind::Event, args),
            Cl::ReleaseContext => self.release(Kind::Context, args),
            Cl::ReleaseCommandQueue => self.release(Kind::Queue, args),
            Cl::ReleaseMemObject => self.release(Kind::Mem, args),
            Cl::ReleaseProgram => self.release(Kind::Program, args),
            Cl::ReleaseKernel => self.release(Kind::Kernel, args),
            Cl::ReleaseEvent => self.release(Kind::Event, args),
            Cl::CreateContext
            | Cl::CreateCommandQueue
            | Cl::CreateBuffer
            | Cl::CreateImage
            | Cl::CreateProgramWithSource
            | Cl::CreateKernel => self.create(entry, args),
            Cl::CreateKernelsInProgram => self.create_kernels(args),
            Cl::SetKernelArg | Cl::SetKernelArgMem | Cl::SetKernelArgLocal => {
                self.set_kernel_arg(entry, args)
            }
            Cl::EnqueueNDRangeKernel
            | Cl::EnqueueTask
            | Cl::EnqueueReadBuffer
            | Cl::EnqueueWriteBuffer
            | Cl::EnqueueCopyBuffer => self.enqueue(entry, args),
            Cl::BuildProgram => Ok(done(
                cl.build_program(ClProgram(args.handle(0)?), args.opt_string(1)?),
            )),
            Cl::CompileProgram => Ok(done(
                cl.compile_program(ClProgram(args.handle(0)?), args.opt_string(1)?),
            )),
            Cl::Flush => Ok(done(cl.flush(ClQueue(args.handle(0)?)))),
            Cl::Finish => Ok(done(cl.finish(ClQueue(args.handle(0)?)))),
            Cl::WaitForEvents => Ok(done(cl.wait_for_events(&events(args, 1)?))),
            Cl::GetPlatformInfo | Cl::GetDeviceInfo | Cl::GetProgramBuildInfo => {
                self.info(entry, args)
            }
            _ => self.query(entry, args),
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
        let queue = self.internal_queue(ctx)?;
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
        let Some(queue) = self.internal_queue(ctx) else {
            return false;
        };
        self.cl
            .enqueue_write_buffer(queue, ClMem(silo), true, 0, data, &[], false)
            .is_ok()
    }

    fn drop_object(&mut self, kind: &str, silo: u64) -> bool {
        let Some(kind) = Kind::named(kind) else {
            return false;
        };
        let released = kind.release(&self.cl, silo).is_ok();
        self.forget(kind, silo);
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::opencl_descriptor;
    use ava_spec::LowerOptions;

    /// `clCreateKernelsInProgram` creates every kernel on the silo; the
    /// ones the reply does not hand back have no wire handle, so nothing
    /// would ever release them.
    #[test]
    fn kernels_the_reply_does_not_hand_back_are_released() {
        let cl = SimCl::new();
        let platform = cl.get_platform_ids().unwrap()[0];
        let device = cl.get_device_ids(platform, DeviceType::All).unwrap()[0];
        let ctx = cl.create_context(device).unwrap();
        let source = simcl::kernels::builtins::SOURCE;
        let program = cl.create_program_with_source(ctx, source).unwrap();
        cl.build_program(program, "").unwrap();
        let desc = opencl_descriptor(LowerOptions::default()).unwrap();
        let func = desc.by_name("clCreateKernelsInProgram").unwrap();
        let mut handler = OpenClHandler::new(cl.clone());
        let mut call = |num_kernels, kernels, count| {
            let args = [
                Value::Handle(program.0),
                Value::U32(num_kernels),
                kernels,
                count,
            ];
            handler.dispatch(func, &args).unwrap().outputs
        };

        // The count query (`kernels` NULL), then a fetch of one of four.
        let counted = call(0, Value::Null, Value::U64(1));
        assert_eq!(counted, vec![(3, Value::U32(4))]);
        let fetched = call(1, Value::U64(1), Value::Null);
        let [(2, Value::List(kept))] = fetched.as_slice() else {
            panic!("one kernel list expected: {fetched:?}");
        };
        let kept = kept[0].as_handle().unwrap();

        // Only the kernel handed back is mirrored or left on the silo.
        assert_eq!(handler.refs.keys().collect::<Vec<_>>(), vec![&kept]);
        let live: Vec<u64> = (program.0 + 1..program.0 + 16)
            .filter(|&id| cl.retain_kernel(ClKernel(id)).is_ok())
            .collect();
        assert_eq!(live, vec![kept]);
    }

    /// `clEnqueueReadBuffer` sizes its readback payload by the guest's
    /// `cb`. A range past the buffer is answered `CL_INVALID_VALUE` before
    /// anything is allocated: the huge `cb` here is far past any machine's
    /// memory, so allocating it first would abort the host process.
    #[test]
    fn reads_past_the_buffer_are_refused_before_allocating() {
        let cl = SimCl::new();
        let platform = cl.get_platform_ids().unwrap()[0];
        let device = cl.get_device_ids(platform, DeviceType::All).unwrap()[0];
        let ctx = cl.create_context(device).unwrap();
        let queue = cl
            .create_command_queue(ctx, device, QueueProps::default())
            .unwrap();
        let desc = opencl_descriptor(LowerOptions::default()).unwrap();
        let mut handler = OpenClHandler::new(cl);
        let create = desc.by_name("clCreateBuffer").unwrap();
        let flags = MemFlags::default().to_bits();
        let created = handler
            .dispatch(
                create,
                &[
                    Value::Handle(ctx.0),
                    Value::U64(flags),
                    Value::U64(64),
                    Value::Null,
                    Value::Null,
                ],
            )
            .unwrap();
        let mem = created.ret.as_handle().unwrap();
        let read = desc.by_name("clEnqueueReadBuffer").unwrap();
        let mut read_at = |offset: u64, cb: u64| {
            let args = [
                Value::Handle(queue.0),
                Value::Handle(mem),
                Value::U32(1),
                Value::U64(offset),
                Value::U64(cb),
                Value::U64(1),
                Value::U32(0),
                Value::Null,
                Value::Null,
            ];
            handler.dispatch(read, &args).unwrap()
        };

        for (offset, cb) in [(0, 1 << 60), (8, 64), (u64::MAX, 2)] {
            let out = read_at(offset, cb);
            assert_eq!(out.ret, Value::I32(CL_INVALID_VALUE), "{offset}+{cb}");
            assert!(out.outputs.is_empty());
        }
        let out = read_at(8, 56);
        assert_eq!(out.ret, Value::I32(CL_SUCCESS));
        assert!(matches!(&out.outputs[..], [(5, Value::Bytes(b))] if b.len() == 56));
    }
}
