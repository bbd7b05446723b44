//! The host-side cost of one forwarded call, gated by a count instead of a
//! clock: heap allocations per call across guest library, shared-memory
//! ring, router and API server together. Three rows: async
//! `clSetKernelArg` (batched forwarding), sync `clGetMemObjectInfo` (the
//! round trip) and a recurring async upload with the transfer cache on
//! (elision). The argument check the router runs on every call is held
//! to zero allocations on its own.
//!
//! Wall time on a shared box swings by tens of percent; allocation counts
//! repeat. Each allocation stands for per-call bookkeeping, so a change
//! that brings back a per-call clone, map insert or temporary shows up
//! here as a failed budget, with no timing noise to hide behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ava_core::{
    opencl_descriptor, opencl_stack, ApiStack, GuestConfig, GuestLibrary, OpenClClient, StackConfig,
};
use ava_hypervisor::VmPolicy;
use ava_transport::TransportKind;
use ava_wire::Value;
use simcl::types::*;
use simcl::{ClApi, SimCl};

/// Counts every allocation and reallocation, on every thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came from
        // `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serializes the rows: the allocation counter is process-wide, so two
/// rows measuring at once would count each other's calls.
static SERIAL: Mutex<()> = Mutex::new(());

/// The Rodinia workloads' stack: shared-memory ring, paravirtual cost
/// model, 16-call batches. Age flushing is off so every frame carries
/// exactly 16 calls and the count repeats.
fn rodinia_config() -> StackConfig {
    StackConfig {
        transport: TransportKind::SharedMemory,
        guest: GuestConfig {
            batch_max_calls: 16,
            ..GuestConfig::default()
        },
        ..StackConfig::default()
    }
}

/// An attached OpenCL session: the client, its library, a context, a
/// queue and the `saxpy` kernel. Holds the serializing lock until the
/// stack is gone.
struct Session {
    api: OpenClClient,
    lib: Arc<GuestLibrary>,
    ctx: ClContext,
    queue: ClQueue,
    kernel: ClKernel,
    _stack: ApiStack,
    _serial: MutexGuard<'static, ()>,
}

fn session(config: StackConfig) -> Session {
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let stack = opencl_stack(SimCl::new(), config).unwrap();
    let (_vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let api = OpenClClient::new(lib.clone());

    let platform = api.get_platform_ids().unwrap()[0];
    let device = api.get_device_ids(platform, DeviceType::Gpu).unwrap()[0];
    let ctx = api.create_context(device).unwrap();
    let queue = api
        .create_command_queue(ctx, device, QueueProps::default())
        .unwrap();
    let program = api
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    api.build_program(program, "").unwrap();
    let kernel = api.create_kernel(program, "saxpy").unwrap();
    Session {
        api,
        lib,
        ctx,
        queue,
        kernel,
        _stack: stack,
        _serial: serial,
    }
}

impl Session {
    /// Allocations per call of `calls` invocations of `call`, after a
    /// warm-up pass that grows queues, journal and caches to their
    /// working size. A trailing `clFinish` covers every async call, so
    /// all of them have executed when the counter is read. Also returns
    /// the async calls still pending just before that `clFinish`.
    fn allocations_per_call(&self, calls: u64, call: impl Fn(&Self, u64)) -> (f64, usize) {
        let run = || {
            for i in 0..calls {
                call(self, i);
            }
        };
        run();
        self.api.finish(self.queue).unwrap();

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        run();
        let pending = self.lib.pending_async();
        // The sync call covers every async call before it: all executed.
        self.api.finish(self.queue).unwrap();
        let per_call = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / calls as f64;
        assert_eq!(
            self.lib.pending_async(),
            0,
            "a sync reply retires the queue"
        );
        assert_eq!(self.lib.stats().deferred_errors_delivered, 0);
        (per_call, pending)
    }
}

/// Async `clSetKernelArg` calls per measured window.
const CALLS: u64 = 4096;

/// Allocations per forwarded async call, all tiers together. This path
/// measures 7.50 (12.76 before the per-call bookkeeping was cut); the ~9 %
/// slack absorbs background threads and run-boundary jitter.
const BUDGET: f64 = 8.2;

#[test]
fn an_async_call_stays_within_its_allocation_budget() {
    let s = session(rodinia_config());
    // saxpy's scalar parameters: `a` (f32) at 2, `n` (u32) at 3.
    let (per_call, pending) = s.allocations_per_call(CALLS, |s, i| {
        let arg = if i % 2 == 0 {
            KernelArg::from_f32(i as f32)
        } else {
            KernelArg::from_u32(i as u32)
        };
        s.api
            .set_kernel_arg(s.kernel, 2 + (i % 2) as u32, arg)
            .unwrap();
    });
    assert_eq!(pending as u64, CALLS, "one entry per async call");
    assert_eq!(s.lib.stats().async_calls, 2 * CALLS);
    assert!(
        per_call <= BUDGET,
        "{per_call:.2} allocations per async call, budget {BUDGET}"
    );
}

/// Sync `clGetMemObjectInfo` round trips per measured window.
const SYNC_CALLS: u64 = 1024;

/// Allocations per sync round trip, all tiers together: the request and
/// the reply with its output on every hop. This path measures 16.01;
/// ~9 % slack as above.
const SYNC_BUDGET: f64 = 17.5;

#[test]
fn a_sync_call_stays_within_its_allocation_budget() {
    let s = session(rodinia_config());
    let mem = s
        .api
        .create_buffer(s.ctx, MemFlags::read_write(), 256, None)
        .unwrap();
    let (per_call, _) = s.allocations_per_call(SYNC_CALLS, |s, _| {
        assert_eq!(s.api.get_mem_object_info(mem).unwrap(), 256);
    });
    // Each window's calls plus its trailing `clFinish`.
    assert!(s.lib.stats().sync_calls >= 2 * (SYNC_CALLS + 1));
    assert!(
        per_call <= SYNC_BUDGET,
        "{per_call:.2} allocations per sync call, budget {SYNC_BUDGET}"
    );
}

/// Cached uploads per measured window.
const UPLOADS: u64 = 1024;

/// Allocations per recurring async upload with the transfer cache on, as
/// `tenant_mix` runs it: the client's payload copy, the digest lookup that
/// elides it, and the full-payload copy kept for a `CacheMiss` resend.
/// This path measures 9.39; ~9 % slack as above.
const UPLOAD_BUDGET: f64 = 10.2;

#[test]
fn a_cached_upload_stays_within_its_allocation_budget() {
    // `tenant_mix`'s guest: the transfer cache on, bulk uploads eligible.
    let mut config = rodinia_config();
    config.guest.payload_cache_entries = 32;
    config.guest.payload_cache_min_bytes = 4096;
    let s = session(config);
    const SIZE: usize = 8192;
    let mem = s
        .api
        .create_buffer(s.ctx, MemFlags::read_write(), SIZE, None)
        .unwrap();
    // Four recurring payloads: every upload after the first four is elided.
    let payloads: Vec<Vec<u8>> = (0..4u8).map(|k| vec![k; SIZE]).collect();
    let (per_call, pending) = s.allocations_per_call(UPLOADS, |s, i| {
        let data = &payloads[i as usize % payloads.len()];
        s.api
            .enqueue_write_buffer(s.queue, mem, false, 0, data, &[], false)
            .unwrap();
    });
    let stats = s.lib.stats();
    assert_eq!(pending as u64, UPLOADS, "one entry per upload");
    assert_eq!(stats.async_calls, 2 * UPLOADS);
    assert_eq!(stats.payload_cache_hits, 2 * UPLOADS - 4);
    assert!(
        per_call <= UPLOAD_BUDGET,
        "{per_call:.2} allocations per cached upload, budget {UPLOAD_BUDGET}"
    );
}

/// The argument check (`FunctionDesc::verify_args`) the guest and the
/// router run on every call, over the calls the rows above forward, a
/// cached payload and a wait list among them: accepting a call must
/// allocate nothing.
#[test]
fn verifying_an_accepted_call_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let desc = opencl_descriptor();
    let set_arg = vec![
        Value::Handle(1),
        Value::U32(2),
        Value::U64(4),
        Value::Bytes(vec![0; 4].into()),
    ];
    let upload = vec![
        Value::Handle(1),
        Value::Handle(2),
        Value::U32(0),
        Value::U64(0),
        Value::U64(8192),
        Value::CachedBytes {
            digest: 7,
            len: 8192,
        },
        Value::U32(1),
        Value::List(vec![Value::Handle(3)]),
        Value::Null,
    ];
    let info = vec![Value::Handle(1), Value::U64(1)];
    let calls = [
        (desc.by_name("clSetKernelArg").unwrap(), set_arg),
        (desc.by_name("clEnqueueWriteBuffer").unwrap(), upload),
        (desc.by_name("clGetMemObjectInfo").unwrap(), info),
    ];
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        for (func, args) in &calls {
            let env = desc.env_for(func, args);
            func.verify_args(args, &env, &desc.types).unwrap();
        }
    }
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed) - before, 0);
}
