//! The host boundary refuses what the spec does not allow.
//!
//! A raw VM attaches to a stack's router with its own `ApiServer` and
//! sends frames straight past the guest library: each is valid under the
//! OpenCL descriptor except for one mutation (arity, value shape, buffer,
//! list or cached-payload length, handle kind). Shape, length and arity
//! mutations must be answered `PolicyRejected` by the router without the
//! server seeing them; a handle of the wrong kind is well shaped, so it
//! crosses, and the server's handle table refuses it before any dispatch.
//! Each mutated frame is followed by its valid original, which must run.
//! Meanwhile an honest VM on the same router runs saxpy rounds whose
//! checksums must equal those of the same run on a stack of its own.
//!
//! A well-shaped call whose numbers the host cannot use is refused too:
//! a `clCreateImage` whose size product overflows never reaches the
//! binding, and the VM it came from keeps running.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use ava_core::{opencl_stack, ApiStack, OpenClClient, OpenClHandler, StackConfig};
use ava_guest::GuestError;
use ava_hypervisor::VmPolicy;
use ava_server::{serve_with, ApiHandler, ApiServer, HandlerOutput};
use ava_spec::{ApiDescriptor, FunctionDesc};
use ava_transport::{BoxedTransport, CostModel, TransportKind};
use ava_wire::{
    digest64, CallMode, CallReply, CallRequest, ControlMessage, FnId, Message, ReplyStatus, Value,
    VmId,
};
use proptest::prelude::*;
use simcl::types::*;
use simcl::{ClApi, SimCl};

/// `CL_DEVICE_TYPE_ALL` (`specs/CL/cl.h`).
const CL_DEVICE_TYPE_ALL: u64 = 0xFFFF_FFFF;
/// The out-element / out-buffer placeholder a guest sends to ask for an
/// output.
const WANT: Value = Value::U64(1);
/// Bytes in the raw VM's buffer.
const MEM_BYTES: u64 = 256;
/// The raw server mirrors payloads of at least this many bytes.
const CACHE_MIN_BYTES: usize = 16;

fn config() -> StackConfig {
    StackConfig {
        transport: TransportKind::InProcess,
        cost_model: CostModel::free(),
        ..StackConfig::default()
    }
}

/// Saxpy rounds over a 256-float buffer; one checksum per round.
fn honest_run(api: &dyn ClApi) -> Vec<u64> {
    let n = 256;
    let platform = api.get_platform_ids().unwrap()[0];
    let device = api.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = api.create_context(device).unwrap();
    let queue = api
        .create_command_queue(ctx, device, QueueProps::default())
        .unwrap();
    let program = api
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    api.build_program(program, "").unwrap();
    let kernel = api.create_kernel(program, "saxpy").unwrap();
    let bx = api
        .create_buffer(ctx, MemFlags::read_only(), 4 * n, None)
        .unwrap();
    let by = api
        .create_buffer(ctx, MemFlags::read_write(), 4 * n, None)
        .unwrap();
    api.set_kernel_arg(kernel, 0, KernelArg::Mem(bx)).unwrap();
    api.set_kernel_arg(kernel, 1, KernelArg::Mem(by)).unwrap();
    api.set_kernel_arg(kernel, 3, KernelArg::from_u32(n as u32))
        .unwrap();
    let mut sums = Vec::new();
    for round in 0..8 {
        let x: Vec<f32> = (0..n).map(|i| (i * (round + 1)) as f32).collect();
        let y = vec![round as f32; n];
        let write = |mem, v: &[f32]| {
            let data = simcl::mem::f32_to_bytes(v);
            api.enqueue_write_buffer(queue, mem, true, 0, &data, &[], false)
                .unwrap();
        };
        write(bx, &x);
        write(by, &y);
        api.set_kernel_arg(kernel, 2, KernelArg::from_f32(0.5 + round as f32))
            .unwrap();
        api.enqueue_nd_range_kernel(queue, kernel, [n, 1, 1], None, &[], false)
            .unwrap();
        let mut out = vec![0u8; 4 * n];
        api.enqueue_read_buffer(queue, by, true, 0, &mut out, &[], false)
            .unwrap();
        sums.push(digest64(&out));
    }
    api.finish(queue).unwrap();
    sums
}

/// The honest VM's checksums on a stack with no other VM.
fn solo_checksums() -> &'static [u64] {
    static SOLO: OnceLock<Vec<u64>> = OnceLock::new();
    SOLO.get_or_init(|| {
        let stack = opencl_stack(SimCl::new(), config()).unwrap();
        let (_, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
        honest_run(&OpenClClient::new(lib))
    })
}

/// Counts dispatches before handing them to the real binding.
struct Counting {
    inner: OpenClHandler,
    dispatches: Arc<AtomicU64>,
}

impl ApiHandler for Counting {
    fn dispatch(
        &mut self,
        func: &FunctionDesc,
        args: &[Value],
    ) -> ava_server::Result<HandlerOutput> {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.inner.dispatch(func, args)
    }

    fn swappable_kinds(&self) -> &[&str] {
        self.inner.swappable_kinds()
    }

    fn snapshot_object(&mut self, kind: &str, silo: u64) -> Option<Vec<u8>> {
        self.inner.snapshot_object(kind, silo)
    }

    fn restore_object(&mut self, kind: &str, silo: u64, data: &[u8]) -> bool {
        self.inner.restore_object(kind, silo, data)
    }

    fn drop_object(&mut self, kind: &str, silo: u64) -> bool {
        self.inner.drop_object(kind, silo)
    }
}

/// The wire handles the raw VM's setup created.
struct Objects {
    queue: u64,
    mem: u64,
    /// A built program with no kernels, so it may be rebuilt.
    program: u64,
    kernel: u64,
    event: u64,
}

/// A VM with no guest library: it speaks frames to the router directly,
/// and its server is in reach for counting.
struct RawVm {
    vm_id: VmId,
    guest: BoxedTransport,
    server: Arc<Mutex<ApiServer>>,
    dispatches: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    serving: Option<JoinHandle<()>>,
    desc: Arc<ApiDescriptor>,
    next_call: u64,
}

/// What the raw VM's server has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seen {
    calls: u64,
    transport_errors: u64,
    dispatches: u64,
}

impl RawVm {
    fn attach(stack: &ApiStack) -> RawVm {
        let desc = Arc::clone(stack.descriptor());
        let conn = stack
            .hypervisor()
            .add_vm(
                VmPolicy::default(),
                TransportKind::InProcess,
                CostModel::free(),
            )
            .unwrap();
        let dispatches = Arc::new(AtomicU64::new(0));
        let handler = Counting {
            inner: OpenClHandler::new(SimCl::new()),
            dispatches: Arc::clone(&dispatches),
        };
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(handler));
        server.set_payload_cache(16, CACHE_MIN_BYTES);
        let server = Arc::new(Mutex::new(server));
        let stop = Arc::new(AtomicBool::new(false));
        let serving = {
            let (server, stop, transport) = (Arc::clone(&server), Arc::clone(&stop), conn.server);
            std::thread::spawn(move || {
                serve_with(transport.as_ref(), &stop, |msg| {
                    server.lock().unwrap().serve_one(transport.as_ref(), msg)
                })
            })
        };
        RawVm {
            vm_id: conn.vm_id,
            guest: conn.guest,
            server,
            dispatches,
            stop,
            serving: Some(serving),
            desc,
            next_call: 0,
        }
    }

    fn fn_id(&self, name: &str) -> FnId {
        self.desc.by_name(name).unwrap().id
    }

    fn seen(&self) -> Seen {
        let stats = self.server.lock().unwrap().stats();
        Seen {
            calls: stats.calls,
            transport_errors: stats.transport_errors,
            dispatches: self.dispatches.load(Ordering::Relaxed),
        }
    }

    /// Sends one sync frame and waits for its reply.
    fn call(&mut self, fn_id: FnId, args: Vec<Value>) -> CallReply {
        self.next_call += 1;
        let call_id = self.next_call;
        let req = CallRequest {
            call_id,
            fn_id,
            mode: CallMode::Sync,
            args,
            budget_us: 0,
        };
        self.guest.send(&Message::Call(req)).unwrap();
        loop {
            match self.guest.recv_timeout(Duration::from_secs(10)).unwrap() {
                Some(Message::Reply(rep)) if rep.call_id == call_id => return rep,
                Some(_) => {}
                None => panic!("no reply to call {call_id}"),
            }
        }
    }

    /// A valid call that must succeed; returns the reply.
    fn ok(&mut self, name: &str, args: Vec<Value>) -> CallReply {
        let rep = self.call(self.fn_id(name), args);
        assert_eq!(rep.status, ReplyStatus::Ok, "{name}");
        assert_eq!(rep.ret.as_i64().filter(|&r| r < 0), None, "{name}: {rep:?}");
        rep
    }

    fn handle_out(rep: &CallReply, index: u32) -> u64 {
        match rep.outputs.iter().find(|(i, _)| *i == index) {
            Some((_, Value::List(items))) => items[0].as_handle().unwrap(),
            Some((_, v)) => v.as_handle().unwrap(),
            None => panic!("no output {index} in {rep:?}"),
        }
    }

    /// A program from the built-in source, built, with valid frames.
    fn built_program(&mut self, ctx: u64) -> u64 {
        let source = Value::Str(simcl::kernels::builtins::SOURCE.into());
        let args = vec![Value::Handle(ctx), source, WANT];
        let program = self
            .ok("clCreateProgramWithSource", args)
            .ret
            .as_handle()
            .unwrap();
        self.ok(
            "clBuildProgram",
            vec![Value::Handle(program), Value::Str(String::new())],
        );
        program
    }

    /// Creates the objects the templates name, with valid frames.
    fn setup(&mut self) -> Objects {
        let rep = self.ok("clGetPlatformIDs", vec![Value::U32(1), WANT, Value::Null]);
        let platform = Self::handle_out(&rep, 1);
        let args = vec![
            Value::Handle(platform),
            Value::U64(CL_DEVICE_TYPE_ALL),
            Value::U32(1),
            WANT,
            Value::Null,
        ];
        let device = Self::handle_out(&self.ok("clGetDeviceIDs", args), 3);
        let args = vec![
            Value::U32(1),
            Value::List(vec![Value::Handle(device)]),
            Value::Null,
            Value::U64(0),
            WANT,
        ];
        let ctx = self.ok("clCreateContext", args).ret.as_handle().unwrap();
        let args = vec![
            Value::Handle(ctx),
            Value::Handle(device),
            Value::U64(0),
            WANT,
        ];
        let queue = self
            .ok("clCreateCommandQueue", args)
            .ret
            .as_handle()
            .unwrap();
        let flags = MemFlags::read_write().to_bits();
        let args = vec![
            Value::Handle(ctx),
            Value::U64(flags),
            Value::U64(MEM_BYTES),
            Value::Null,
            WANT,
        ];
        let mem = self.ok("clCreateBuffer", args).ret.as_handle().unwrap();
        let (program, kernels) = (self.built_program(ctx), self.built_program(ctx));
        let args = vec![Value::Handle(kernels), Value::Str("fill".into()), WANT];
        let kernel = self.ok("clCreateKernel", args).ret.as_handle().unwrap();
        let mut write = write_args(queue, mem, 0, vec![7u8; 32]);
        write[8] = WANT;
        let event = Self::handle_out(&self.ok("clEnqueueWriteBuffer", write), 8);
        Objects {
            queue,
            mem,
            program,
            kernel,
            event,
        }
    }

    fn detach(mut self, stack: &ApiStack) {
        stack.hypervisor().remove_vm(self.vm_id).unwrap();
        let _ = self.guest.send(&Message::Control(ControlMessage::Shutdown));
        self.stop.store(true, Ordering::Release);
        if let Some(serving) = self.serving.take() {
            serving.join().unwrap();
        }
    }
}

fn write_args(queue: u64, mem: u64, offset: u64, data: Vec<u8>) -> Vec<Value> {
    vec![
        Value::Handle(queue),
        Value::Handle(mem),
        Value::U32(1),
        Value::U64(offset),
        Value::U64(data.len() as u64),
        Value::Bytes(data.into()),
        Value::U32(0),
        Value::Null,
        Value::Null,
    ]
}

/// One argument mutation; each names the valid call it is applied to.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// One argument too many on a write.
    ArityUp,
    /// One argument too few on a kernel-argument set.
    ArityDown,
    /// The write's `cl_mem` sent as a bare integer.
    HandleToU64,
    /// A read's out-buffer placeholder sent as a handle.
    U64ToHandle,
    /// The write's payload sent as a string.
    BytesToStr,
    /// A build's option string sent as bytes.
    StrToBytes,
    /// The write's payload one byte off its `size`.
    BufferLen(bool),
    /// `clWaitForEvents`'s list one entry off `num_events`.
    ListLen(bool),
    /// A cached write whose elided payload is one byte off its `size`.
    CachedLen(bool),
    /// The write's queue named where its `cl_mem` goes.
    WrongKind,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::ArityUp),
        Just(Mutation::ArityDown),
        Just(Mutation::HandleToU64),
        Just(Mutation::U64ToHandle),
        Just(Mutation::BytesToStr),
        Just(Mutation::StrToBytes),
        any::<bool>().prop_map(Mutation::BufferLen),
        any::<bool>().prop_map(Mutation::ListLen),
        any::<bool>().prop_map(Mutation::CachedLen),
        Just(Mutation::WrongKind),
    ]
}

/// One step of the raw VM: a mutation, at a payload size and offset
/// inside the buffer, with a payload seed.
fn arb_step() -> impl Strategy<Value = (Mutation, u64, u64, u8)> {
    (
        arb_mutation(),
        CACHE_MIN_BYTES as u64..MEM_BYTES / 2,
        0..MEM_BYTES / 2,
        any::<u8>(),
    )
}

/// `len` bytes off by one: one more when `up`, one fewer otherwise.
fn off_by_one(len: u64, up: bool) -> u64 {
    if up {
        len + 1
    } else {
        len - 1
    }
}

/// Sends `step`'s mutated frame, checks it is refused where it must be,
/// then sends the valid original and checks it runs.
fn drive(raw: &mut RawVm, objs: &Objects, step: (Mutation, u64, u64, u8)) {
    let (mutation, len, offset, seed) = step;
    let payload: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
    let write = write_args(objs.queue, objs.mem, offset, payload.clone());
    let read = {
        let mut args = write.clone();
        args[5] = WANT;
        args
    };
    let set_arg = vec![
        Value::Handle(objs.kernel),
        Value::U32(1),
        Value::U64(4),
        Value::Bytes(1.5f32.to_le_bytes().to_vec().into()),
    ];
    let wait = vec![Value::U32(1), Value::List(vec![Value::Handle(objs.event)])];
    let build = vec![Value::Handle(objs.program), Value::Str(String::new())];

    let (name, valid, mutated) = match mutation {
        Mutation::ArityUp => {
            let mut args = write.clone();
            args.push(Value::Null);
            ("clEnqueueWriteBuffer", write, args)
        }
        Mutation::ArityDown => {
            let mut args = set_arg.clone();
            args.pop();
            ("clSetKernelArg", set_arg, args)
        }
        Mutation::HandleToU64 => {
            let mut args = write.clone();
            args[1] = Value::U64(objs.mem);
            ("clEnqueueWriteBuffer", write, args)
        }
        Mutation::U64ToHandle => {
            let mut args = read.clone();
            args[5] = Value::Handle(objs.mem);
            ("clEnqueueReadBuffer", read, args)
        }
        Mutation::BytesToStr => {
            let mut args = write.clone();
            args[5] = Value::Str("x".repeat(len as usize));
            ("clEnqueueWriteBuffer", write, args)
        }
        Mutation::StrToBytes => {
            let mut args = build.clone();
            args[1] = Value::Bytes(Vec::new().into());
            ("clBuildProgram", build, args)
        }
        Mutation::BufferLen(up) => {
            let mut args = write.clone();
            let bytes = vec![seed; off_by_one(len, up) as usize];
            args[5] = Value::Bytes(bytes.into());
            ("clEnqueueWriteBuffer", write, args)
        }
        Mutation::ListLen(up) => {
            let mut args = wait.clone();
            let n = off_by_one(1, up) as usize;
            args[1] = Value::List(vec![Value::Handle(objs.event); n]);
            ("clWaitForEvents", wait, args)
        }
        Mutation::CachedLen(up) => {
            // The full payload first, so the server's mirror holds it and
            // the valid cached frame below resolves.
            raw.ok("clEnqueueWriteBuffer", write.clone());
            let cached = |len| Value::CachedBytes {
                digest: digest64(&payload),
                len,
            };
            let (mut valid, mut args) = (write.clone(), write);
            valid[5] = cached(len);
            args[5] = cached(off_by_one(len, up));
            ("clEnqueueWriteBuffer", valid, args)
        }
        Mutation::WrongKind => {
            let mut args = write.clone();
            args[1] = Value::Handle(objs.queue);
            ("clEnqueueWriteBuffer", write, args)
        }
    };

    let before = raw.seen();
    let rep = raw.call(raw.fn_id(name), mutated);
    let after = raw.seen();
    match mutation {
        Mutation::WrongKind => {
            assert_eq!(rep.status, ReplyStatus::TransportError, "{mutation:?}");
            let refused = Seen {
                transport_errors: before.transport_errors + 1,
                ..before
            };
            assert_eq!(after, refused, "{mutation:?} must not dispatch");
        }
        _ => {
            assert_eq!(rep.status, ReplyStatus::PolicyRejected, "{mutation:?}");
            assert_eq!(after, before, "{mutation:?} reached the server");
        }
    }
    raw.ok(name, valid);
    let ran = raw.seen();
    assert_eq!(ran.calls, after.calls + 1, "{mutation:?}: valid {name}");
    assert_eq!(
        ran.dispatches,
        after.dispatches + 1,
        "{mutation:?}: valid {name}"
    );
}

/// How many of `steps` the router must refuse.
fn shape_mutations(steps: &[(Mutation, u64, u64, u8)]) -> u64 {
    steps
        .iter()
        .filter(|(m, ..)| !matches!(m, Mutation::WrongKind))
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spec_invalid_frames_never_reach_dispatch(
        steps in proptest::collection::vec(arb_step(), 10..20),
    ) {
        let stack = opencl_stack(SimCl::new(), config()).unwrap();
        let (_, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
        let honest = std::thread::spawn(move || honest_run(&OpenClClient::new(lib)));

        let mut raw = RawVm::attach(&stack);
        let objs = raw.setup();
        for &step in &steps {
            drive(&mut raw, &objs, step);
        }
        let lane = stack.hypervisor().vm_stats(raw.vm_id).unwrap();
        prop_assert_eq!(lane.rejected, shape_mutations(&steps));
        raw.detach(&stack);

        let sums = honest.join().unwrap();
        prop_assert_eq!(sums.as_slice(), solo_checksums());
    }
}

/// `clCreateImage` with `width = 2^62 + 16`, `height = 4`, `elem_size = 1`
/// and no host pointer passes the shape check, since a NULL buffer has no
/// length to check. Its `device_mem` estimate overflows, so the router
/// refuses it: no serve thread dies, and the next call on the VM runs.
#[test]
fn an_image_whose_size_overflows_is_refused_before_the_host() {
    let stack = opencl_stack(SimCl::new(), config()).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let cl = OpenClClient::new(Arc::clone(&lib));
    let platform = cl.get_platform_ids().unwrap()[0];
    let device = cl.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = cl.create_context(device).unwrap();
    let args = vec![
        Value::Handle(ctx.raw()),
        Value::U64(MemFlags::read_write().to_bits()),
        Value::U64((1 << 62) + 16),
        Value::U64(4),
        Value::U64(1),
        Value::Null,
        WANT,
    ];
    let err = lib.call("clCreateImage", args).unwrap_err();
    assert!(matches!(err, GuestError::PolicyRejected), "{err:?}");
    assert_eq!(stack.vm_router_stats(vm).unwrap().rejected, 1);
    assert_eq!(stack.recovery_stats().respawns, 0, "a serve thread died");
    let mem = cl
        .create_buffer(ctx, MemFlags::read_write(), 64, None)
        .unwrap();
    cl.release_mem_object(mem).unwrap();
}
