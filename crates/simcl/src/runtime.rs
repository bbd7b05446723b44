//! The native OpenCL-subset runtime (`SimCl`), executing on simulated
//! devices.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::api::ClApi;
use crate::device::{DeviceConfig, DeviceState};
use crate::event::EventCore;
use crate::kernels::KernelRegistry;
use crate::mem::AlignedBuf;
use crate::objects::{
    BoundArg, BuildOutput, ContextObj, EventObj, KernelObj, MemObj, ProgramObj, QueueObj, RefCount,
};
use crate::program::{parse_kernel_signatures, KernelParamKind};
use crate::queue::{run_worker, Command};
use crate::status::*;
use crate::types::*;

/// Handle value of the single platform.
const PLATFORM_ID: u64 = 1;
/// First device handle value.
const DEVICE_BASE: u64 = 0x10;
/// First dynamically allocated object handle value.
const OBJECT_BASE: u64 = 0x1000;

#[derive(Default)]
struct Objects {
    next: u64,
    contexts: HashMap<u64, Arc<ContextObj>>,
    queues: HashMap<u64, Arc<QueueObj>>,
    mems: HashMap<u64, Arc<MemObj>>,
    programs: HashMap<u64, Arc<ProgramObj>>,
    kernels: HashMap<u64, Arc<KernelObj>>,
    events: HashMap<u64, Arc<EventObj>>,
}

impl Objects {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

struct Inner {
    devices: Vec<Arc<DeviceState>>,
    registry: Arc<KernelRegistry>,
    objects: Mutex<Objects>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Stop all queue workers so no threads outlive the runtime.
        let queues: Vec<Arc<QueueObj>> = self.objects.lock().queues.values().cloned().collect();
        for q in queues {
            q.shutdown();
        }
    }
}

/// The native OpenCL-subset silo.
///
/// Cloning is cheap and shares the same device and object state — the
/// equivalent of two threads linking the same vendor library.
#[derive(Clone)]
pub struct SimCl {
    inner: Arc<Inner>,
}

impl SimCl {
    /// Creates a runtime with one default (GTX-1080-class) device and the
    /// built-in kernels registered.
    pub fn new() -> Self {
        Self::with_devices(vec![DeviceConfig::default()])
    }

    /// Creates a runtime with custom devices and the built-in kernels.
    pub fn with_devices(configs: Vec<DeviceConfig>) -> Self {
        Self::with_devices_and_registry(configs, Arc::new(KernelRegistry::new().with_builtins()))
    }

    /// Creates a runtime with custom devices and a caller-supplied kernel
    /// registry (how workload crates install their kernels).
    pub fn with_devices_and_registry(
        configs: Vec<DeviceConfig>,
        registry: Arc<KernelRegistry>,
    ) -> Self {
        let devices = configs
            .into_iter()
            .map(|c| Arc::new(DeviceState::new(c)))
            .collect();
        SimCl {
            inner: Arc::new(Inner {
                devices,
                registry,
                objects: Mutex::new(Objects {
                    next: OBJECT_BASE,
                    ..Objects::default()
                }),
            }),
        }
    }

    /// The kernel registry (for installing additional kernels).
    pub fn registry(&self) -> &Arc<KernelRegistry> {
        &self.inner.registry
    }

    /// Direct access to a device's state (used by schedulers that consult
    /// the profiling interface, §4.3).
    pub fn device_state(&self, device: ClDevice) -> ClResult<Arc<DeviceState>> {
        self.device(device.0)
    }

    fn device(&self, id: u64) -> ClResult<Arc<DeviceState>> {
        let idx = id
            .checked_sub(DEVICE_BASE)
            .ok_or(ClError(CL_INVALID_DEVICE))?;
        self.inner
            .devices
            .get(idx as usize)
            .cloned()
            .ok_or(ClError(CL_INVALID_DEVICE))
    }

    fn ctx(&self, id: u64) -> ClResult<Arc<ContextObj>> {
        self.inner
            .objects
            .lock()
            .contexts
            .get(&id)
            .cloned()
            .ok_or(ClError(CL_INVALID_CONTEXT))
    }

    fn queue(&self, id: u64) -> ClResult<Arc<QueueObj>> {
        self.inner
            .objects
            .lock()
            .queues
            .get(&id)
            .cloned()
            .ok_or(ClError(CL_INVALID_COMMAND_QUEUE))
    }

    fn mem(&self, id: u64) -> ClResult<Arc<MemObj>> {
        self.inner
            .objects
            .lock()
            .mems
            .get(&id)
            .cloned()
            .ok_or(ClError(CL_INVALID_MEM_OBJECT))
    }

    fn prog(&self, id: u64) -> ClResult<Arc<ProgramObj>> {
        self.inner
            .objects
            .lock()
            .programs
            .get(&id)
            .cloned()
            .ok_or(ClError(CL_INVALID_PROGRAM))
    }

    fn kern(&self, id: u64) -> ClResult<Arc<KernelObj>> {
        self.inner
            .objects
            .lock()
            .kernels
            .get(&id)
            .cloned()
            .ok_or(ClError(CL_INVALID_KERNEL))
    }

    fn event(&self, id: u64) -> ClResult<Arc<EventObj>> {
        self.inner
            .objects
            .lock()
            .events
            .get(&id)
            .cloned()
            .ok_or(ClError(CL_INVALID_EVENT))
    }

    fn resolve_wait_list(&self, wait: &[ClEvent]) -> ClResult<Vec<Arc<EventCore>>> {
        wait.iter()
            .map(|e| {
                self.event(e.0)
                    .map(|obj| Arc::clone(&obj.core))
                    .map_err(|_| ClError(CL_INVALID_EVENT_WAIT_LIST))
            })
            .collect()
    }

    /// Registers an event object if the caller asked for one.
    fn register_event(&self, core: Arc<EventCore>, want_event: bool) -> Option<ClEvent> {
        if !want_event {
            return None;
        }
        let mut objects = self.inner.objects.lock();
        let id = objects.fresh_id();
        objects.events.insert(
            id,
            Arc::new(EventObj {
                core,
                refs: RefCount::new(),
            }),
        );
        Some(ClEvent(id))
    }

    fn make_buffer(
        &self,
        context: ClContext,
        flags: MemFlags,
        size: usize,
        image: Option<ImageDesc>,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem> {
        if size == 0 {
            return Err(ClError(CL_INVALID_BUFFER_SIZE));
        }
        if let Some(data) = host_data {
            if data.len() != size {
                return Err(ClError(CL_INVALID_VALUE));
            }
        }
        let ctx = self.ctx(context.0)?;
        ctx.device.alloc(size)?;
        let buf = match host_data {
            Some(data) => AlignedBuf::from_bytes(data),
            None => AlignedBuf::zeroed(size),
        };
        let mut objects = self.inner.objects.lock();
        let id = objects.fresh_id();
        objects.mems.insert(
            id,
            Arc::new(MemObj {
                id,
                ctx: context.0,
                size,
                flags,
                image,
                device: Arc::clone(&ctx.device),
                data: Mutex::new(buf),
                refs: RefCount::new(),
            }),
        );
        Ok(ClMem(id))
    }

    fn snapshot_kernel_args(&self, kernel: &KernelObj) -> ClResult<Vec<BoundArg>> {
        let args = kernel.args.lock();
        if args.len() != kernel.sig.params.len() || args.iter().any(Option::is_none) {
            return Err(ClError(CL_INVALID_KERNEL_ARGS));
        }
        Ok(args
            .iter()
            .map(|a| a.clone().expect("checked above"))
            .collect())
    }

    fn enqueue_kernel_common(
        &self,
        queue: ClQueue,
        kernel: ClKernel,
        global: [usize; 3],
        local: Option<[usize; 3]>,
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>> {
        let q = self.queue(queue.0)?;
        let k = self.kern(kernel.0)?;
        if global.contains(&0) {
            return Err(ClError(CL_INVALID_WORK_DIMENSION));
        }
        let max_wg = q.device.config.max_work_group_size;
        let local = match local {
            Some(l) => {
                if l.contains(&0)
                    || l.iter().product::<usize>() > max_wg
                    || global.iter().zip(l.iter()).any(|(g, l)| g % l != 0)
                {
                    return Err(ClError(CL_INVALID_WORK_GROUP_SIZE));
                }
                l
            }
            None => {
                // Implementation-chosen group size: the largest power of
                // two that divides global[0] and fits the device limit.
                let mut size = 1usize;
                while size * 2 <= max_wg && global[0].is_multiple_of(size * 2) {
                    size *= 2;
                }
                [size, 1, 1]
            }
        };
        let args = self.snapshot_kernel_args(&k)?;
        let wait = self.resolve_wait_list(wait)?;
        let core = Arc::new(EventCore::new(q.props.profiling));
        core.mark_queued(q.device.now_nanos());
        q.tx.send(Command::RunKernel {
            body: Arc::clone(&k.body),
            args,
            global,
            local,
            wait,
            event: Arc::clone(&core),
        })
        .map_err(|_| ClError(CL_INVALID_COMMAND_QUEUE))?;
        Ok(self.register_event(core, want_event))
    }
}

impl Default for SimCl {
    fn default() -> Self {
        Self::new()
    }
}

impl ClApi for SimCl {
    fn get_platform_ids(&self) -> ClResult<Vec<ClPlatform>> {
        Ok(vec![ClPlatform(PLATFORM_ID)])
    }

    fn get_platform_info(&self, platform: ClPlatform, info: PlatformInfo) -> ClResult<String> {
        if platform.0 != PLATFORM_ID {
            return Err(ClError(CL_INVALID_VALUE));
        }
        Ok(match info {
            PlatformInfo::Name => "AvA SimCL".to_string(),
            PlatformInfo::Vendor => "AvA Project".to_string(),
            PlatformInfo::Version => "OpenCL 1.2 simcl".to_string(),
        })
    }

    fn get_device_ids(&self, platform: ClPlatform, ty: DeviceType) -> ClResult<Vec<ClDevice>> {
        if platform.0 != PLATFORM_ID {
            return Err(ClError(CL_INVALID_VALUE));
        }
        let ids: Vec<ClDevice> = self
            .inner
            .devices
            .iter()
            .enumerate()
            .filter(|(_, d)| match ty {
                DeviceType::All => true,
                DeviceType::Gpu => d.config.is_gpu,
                DeviceType::Accelerator => !d.config.is_gpu,
            })
            .map(|(i, _)| ClDevice(DEVICE_BASE + i as u64))
            .collect();
        if ids.is_empty() {
            return Err(ClError(CL_DEVICE_NOT_FOUND));
        }
        Ok(ids)
    }

    fn get_device_info(&self, device: ClDevice, info: DeviceInfo) -> ClResult<InfoValue> {
        let dev = self.device(device.0)?;
        Ok(match info {
            DeviceInfo::Name => InfoValue::Str(dev.config.name.clone()),
            DeviceInfo::Vendor => InfoValue::Str(dev.config.vendor.clone()),
            DeviceInfo::MaxComputeUnits => InfoValue::UInt(dev.config.compute_units as u64),
            DeviceInfo::MaxWorkGroupSize => InfoValue::UInt(dev.config.max_work_group_size as u64),
            DeviceInfo::GlobalMemSize => InfoValue::UInt(dev.config.global_mem_size as u64),
            DeviceInfo::LocalMemSize => InfoValue::UInt(dev.config.local_mem_size as u64),
            DeviceInfo::Type => InfoValue::UInt(if dev.config.is_gpu { 1 << 2 } else { 1 << 3 }),
        })
    }

    fn create_context(&self, device: ClDevice) -> ClResult<ClContext> {
        let dev = self.device(device.0)?;
        let mut objects = self.inner.objects.lock();
        let id = objects.fresh_id();
        objects.contexts.insert(
            id,
            Arc::new(ContextObj {
                device: dev,
                device_id: device.0,
                refs: RefCount::new(),
            }),
        );
        Ok(ClContext(id))
    }

    fn retain_context(&self, context: ClContext) -> ClResult<()> {
        self.ctx(context.0)?.refs.retain();
        Ok(())
    }

    fn release_context(&self, context: ClContext) -> ClResult<()> {
        let obj = self.ctx(context.0)?;
        if obj.refs.release() == 0 {
            self.inner.objects.lock().contexts.remove(&context.0);
        }
        Ok(())
    }

    fn get_context_info(&self, context: ClContext) -> ClResult<ClDevice> {
        Ok(ClDevice(self.ctx(context.0)?.device_id))
    }

    fn create_command_queue(
        &self,
        context: ClContext,
        device: ClDevice,
        props: QueueProps,
    ) -> ClResult<ClQueue> {
        let ctx = self.ctx(context.0)?;
        let dev = self.device(device.0)?;
        if !Arc::ptr_eq(&ctx.device, &dev) {
            return Err(ClError(CL_INVALID_DEVICE));
        }
        let (tx, rx) = crossbeam::channel::unbounded();
        let worker_dev = Arc::clone(&dev);
        let worker = std::thread::Builder::new()
            .name("simcl-queue".into())
            .spawn(move || run_worker(rx, worker_dev))
            .map_err(|_| ClError(CL_OUT_OF_HOST_MEMORY))?;
        let mut objects = self.inner.objects.lock();
        let id = objects.fresh_id();
        objects.queues.insert(
            id,
            Arc::new(QueueObj {
                ctx: context.0,
                device: dev,
                props,
                tx,
                worker: Mutex::new(Some(worker)),
                refs: RefCount::new(),
            }),
        );
        Ok(ClQueue(id))
    }

    fn retain_command_queue(&self, queue: ClQueue) -> ClResult<()> {
        self.queue(queue.0)?.refs.retain();
        Ok(())
    }

    fn release_command_queue(&self, queue: ClQueue) -> ClResult<()> {
        let obj = self.queue(queue.0)?;
        if obj.refs.release() == 0 {
            self.inner.objects.lock().queues.remove(&queue.0);
            obj.shutdown();
        }
        Ok(())
    }

    fn create_buffer(
        &self,
        context: ClContext,
        flags: MemFlags,
        size: usize,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem> {
        self.make_buffer(context, flags, size, None, host_data)
    }

    fn create_image(
        &self,
        context: ClContext,
        flags: MemFlags,
        desc: ImageDesc,
        host_data: Option<&[u8]>,
    ) -> ClResult<ClMem> {
        let size = desc.byte_len().ok_or(ClError(CL_INVALID_IMAGE_SIZE))?;
        self.make_buffer(context, flags, size, Some(desc), host_data)
    }

    fn retain_mem_object(&self, mem: ClMem) -> ClResult<()> {
        self.mem(mem.0)?.refs.retain();
        Ok(())
    }

    fn release_mem_object(&self, mem: ClMem) -> ClResult<()> {
        let obj = self.mem(mem.0)?;
        if obj.refs.release() == 0 {
            self.inner.objects.lock().mems.remove(&mem.0);
            obj.device.free(obj.size);
        }
        Ok(())
    }

    fn get_mem_object_info(&self, mem: ClMem) -> ClResult<usize> {
        Ok(self.mem(mem.0)?.size)
    }

    fn create_program_with_source(&self, context: ClContext, source: &str) -> ClResult<ClProgram> {
        self.ctx(context.0)?;
        if source.is_empty() {
            return Err(ClError(CL_INVALID_VALUE));
        }
        let mut objects = self.inner.objects.lock();
        let id = objects.fresh_id();
        objects.programs.insert(
            id,
            Arc::new(ProgramObj {
                ctx: context.0,
                source: source.to_string(),
                build: Mutex::new(None),
                refs: RefCount::new(),
            }),
        );
        Ok(ClProgram(id))
    }

    fn build_program(&self, program: ClProgram, options: &str) -> ClResult<()> {
        let prog = self.prog(program.0)?;
        // OpenCL forbids rebuilding a program that has kernels attached.
        let kernels = self
            .inner
            .objects
            .lock()
            .kernels
            .values()
            .any(|k| k.program == program.0);
        if kernels {
            return Err(ClError(CL_INVALID_OPERATION));
        }
        let sigs = parse_kernel_signatures(&prog.source);
        let mut log = format!("simcl build (options: {options:?})\n");
        if sigs.is_empty() {
            log.push_str("error: no __kernel entry points found\n");
            *prog.build.lock() = Some(Err(log));
            return Err(ClError(CL_BUILD_PROGRAM_FAILURE));
        }
        let mut missing = Vec::new();
        for sig in &sigs {
            if self.inner.registry.contains(&sig.name) {
                log.push_str(&format!(
                    "kernel `{}`: {} arg(s), device code bound\n",
                    sig.name,
                    sig.params.len()
                ));
            } else {
                missing.push(sig.name.clone());
            }
        }
        if !missing.is_empty() {
            log.push_str(&format!(
                "error: no registered device code for kernel(s): {}\n",
                missing.join(", ")
            ));
            *prog.build.lock() = Some(Err(log));
            return Err(ClError(CL_BUILD_PROGRAM_FAILURE));
        }
        *prog.build.lock() = Some(Ok(BuildOutput { sigs, log }));
        Ok(())
    }

    fn compile_program(&self, program: ClProgram, options: &str) -> ClResult<()> {
        self.build_program(program, options)
    }

    fn get_program_build_info(&self, program: ClProgram) -> ClResult<String> {
        let prog = self.prog(program.0)?;
        let build = prog.build.lock();
        Ok(match &*build {
            Some(Ok(out)) => out.log.clone(),
            Some(Err(log)) => log.clone(),
            None => "not built".to_string(),
        })
    }

    fn retain_program(&self, program: ClProgram) -> ClResult<()> {
        self.prog(program.0)?.refs.retain();
        Ok(())
    }

    fn release_program(&self, program: ClProgram) -> ClResult<()> {
        let obj = self.prog(program.0)?;
        if obj.refs.release() == 0 {
            self.inner.objects.lock().programs.remove(&program.0);
        }
        Ok(())
    }

    fn create_kernel(&self, program: ClProgram, name: &str) -> ClResult<ClKernel> {
        let prog = self.prog(program.0)?;
        let build = prog.build.lock();
        let out = match &*build {
            Some(Ok(out)) => out.clone(),
            _ => return Err(ClError(CL_INVALID_PROGRAM_EXECUTABLE)),
        };
        drop(build);
        let sig = out
            .sigs
            .iter()
            .find(|s| s.name == name)
            .cloned()
            .ok_or(ClError(CL_INVALID_KERNEL_NAME))?;
        let body = self
            .inner
            .registry
            .get(name)
            .ok_or(ClError(CL_INVALID_KERNEL_NAME))?;
        let mut objects = self.inner.objects.lock();
        let id = objects.fresh_id();
        let arg_count = sig.params.len();
        objects.kernels.insert(
            id,
            Arc::new(KernelObj {
                program: program.0,
                name: name.to_string(),
                sig,
                body,
                args: Mutex::new(vec![None; arg_count]),
                refs: RefCount::new(),
            }),
        );
        Ok(ClKernel(id))
    }

    fn create_kernels_in_program(&self, program: ClProgram) -> ClResult<Vec<ClKernel>> {
        let prog = self.prog(program.0)?;
        let names: Vec<String> = match &*prog.build.lock() {
            Some(Ok(out)) => out.sigs.iter().map(|s| s.name.clone()).collect(),
            _ => return Err(ClError(CL_INVALID_PROGRAM_EXECUTABLE)),
        };
        names
            .iter()
            .map(|n| self.create_kernel(program, n))
            .collect()
    }

    fn set_kernel_arg(&self, kernel: ClKernel, index: u32, arg: KernelArg) -> ClResult<()> {
        let k = self.kern(kernel.0)?;
        let idx = index as usize;
        let kind = *k.sig.params.get(idx).ok_or(ClError(CL_INVALID_ARG_INDEX))?;
        let bound = match (kind, arg) {
            (KernelParamKind::GlobalPtr, KernelArg::Mem(m)) => BoundArg::Mem(self.mem(m.0)?),
            (KernelParamKind::LocalPtr, KernelArg::Local(n)) => BoundArg::Local(n),
            (KernelParamKind::Scalar(expect), KernelArg::Scalar(bytes)) => {
                if bytes.len() != expect {
                    return Err(ClError(CL_INVALID_ARG_SIZE));
                }
                BoundArg::Scalar(bytes)
            }
            _ => return Err(ClError(CL_INVALID_ARG_VALUE)),
        };
        k.args.lock()[idx] = Some(bound);
        Ok(())
    }

    fn get_kernel_work_group_info(&self, kernel: ClKernel, device: ClDevice) -> ClResult<usize> {
        self.kern(kernel.0)?;
        Ok(self.device(device.0)?.config.max_work_group_size)
    }

    fn retain_kernel(&self, kernel: ClKernel) -> ClResult<()> {
        self.kern(kernel.0)?.refs.retain();
        Ok(())
    }

    fn release_kernel(&self, kernel: ClKernel) -> ClResult<()> {
        let obj = self.kern(kernel.0)?;
        if obj.refs.release() == 0 {
            self.inner.objects.lock().kernels.remove(&kernel.0);
        }
        Ok(())
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
        self.enqueue_kernel_common(queue, kernel, global, local, wait, want_event)
    }

    fn enqueue_task(
        &self,
        queue: ClQueue,
        kernel: ClKernel,
        wait: &[ClEvent],
        want_event: bool,
    ) -> ClResult<Option<ClEvent>> {
        self.enqueue_kernel_common(queue, kernel, [1, 1, 1], Some([1, 1, 1]), wait, want_event)
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
        let q = self.queue(queue.0)?;
        let m = self.mem(mem.0)?;
        let wait = self.resolve_wait_list(wait)?;
        let core = Arc::new(EventCore::new(q.props.profiling));
        core.mark_queued(q.device.now_nanos());
        let result = Arc::new(Mutex::new(None));
        q.tx.send(Command::ReadBuffer {
            mem: m,
            offset,
            len: out.len(),
            result: Arc::clone(&result),
            wait,
            event: Arc::clone(&core),
        })
        .map_err(|_| ClError(CL_INVALID_COMMAND_QUEUE))?;
        // The caller's output slice is only borrowed for this call, so the
        // copy must land before returning regardless of `blocking`; the
        // event still reflects true completion order. A non-blocking read
        // therefore behaves like a blocking one at the silo level — the
        // AvA layer above still distinguishes them for forwarding policy.
        core.wait()?;
        let bytes = result.lock().take().ok_or(ClError(CL_OUT_OF_RESOURCES))?;
        out.copy_from_slice(&bytes);
        let _ = blocking;
        Ok(self.register_event(core, want_event))
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
        let q = self.queue(queue.0)?;
        let m = self.mem(mem.0)?;
        let wait = self.resolve_wait_list(wait)?;
        let core = Arc::new(EventCore::new(q.props.profiling));
        core.mark_queued(q.device.now_nanos());
        q.tx.send(Command::WriteBuffer {
            mem: m,
            offset,
            data: data.to_vec(),
            wait,
            event: Arc::clone(&core),
        })
        .map_err(|_| ClError(CL_INVALID_COMMAND_QUEUE))?;
        if blocking {
            core.wait()?;
        }
        Ok(self.register_event(core, want_event))
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
        let q = self.queue(queue.0)?;
        let src = self.mem(src.0)?;
        let dst = self.mem(dst.0)?;
        let wait = self.resolve_wait_list(wait)?;
        let core = Arc::new(EventCore::new(q.props.profiling));
        core.mark_queued(q.device.now_nanos());
        q.tx.send(Command::CopyBuffer {
            src,
            dst,
            src_offset,
            dst_offset,
            len,
            wait,
            event: Arc::clone(&core),
        })
        .map_err(|_| ClError(CL_INVALID_COMMAND_QUEUE))?;
        Ok(self.register_event(core, want_event))
    }

    fn flush(&self, queue: ClQueue) -> ClResult<()> {
        // Commands are handed to the worker at enqueue; flush is a no-op
        // beyond validating the handle.
        self.queue(queue.0)?;
        Ok(())
    }

    fn finish(&self, queue: ClQueue) -> ClResult<()> {
        let q = self.queue(queue.0)?;
        let core = Arc::new(EventCore::new(false));
        q.tx.send(Command::Marker {
            event: Arc::clone(&core),
        })
        .map_err(|_| ClError(CL_INVALID_COMMAND_QUEUE))?;
        core.wait()
    }

    fn wait_for_events(&self, events: &[ClEvent]) -> ClResult<()> {
        if events.is_empty() {
            return Err(ClError(CL_INVALID_VALUE));
        }
        for e in events {
            self.event(e.0)?.core.wait()?;
        }
        Ok(())
    }

    fn get_event_info(&self, event: ClEvent) -> ClResult<EventStatus> {
        Ok(self.event(event.0)?.core.status())
    }

    fn get_event_profiling_info(&self, event: ClEvent) -> ClResult<ProfilingInfo> {
        self.event(event.0)?.core.profiling()
    }

    fn retain_event(&self, event: ClEvent) -> ClResult<()> {
        self.event(event.0)?.refs.retain();
        Ok(())
    }

    fn release_event(&self, event: ClEvent) -> ClResult<()> {
        let obj = self.event(event.0)?;
        if obj.refs.release() == 0 {
            self.inner.objects.lock().events.remove(&event.0);
        }
        Ok(())
    }
}
