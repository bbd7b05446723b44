//! The host-side cost of one forwarded asynchronous call, gated by a count
//! instead of a clock: heap allocations per async `clSetKernelArg` across
//! guest library, shared-memory ring, router and API server together.
//!
//! Wall time on a shared box swings by tens of percent; allocation counts
//! repeat. Each allocation stands for per-call bookkeeping, so a change
//! that brings back a per-call clone, map insert or temporary shows up
//! here as a failed budget, with no timing noise to hide behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ava_core::{opencl_stack, GuestConfig, OpenClClient, StackConfig};
use ava_hypervisor::VmPolicy;
use ava_transport::TransportKind;
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

/// Async `clSetKernelArg` calls per measured window.
const CALLS: u64 = 4096;

/// Allocations per forwarded async call, all tiers together. This path
/// measures 7.50 (12.76 before the per-call bookkeeping was cut); the ~9 %
/// slack absorbs background threads and run-boundary jitter.
const BUDGET: f64 = 8.2;

#[test]
fn an_async_call_stays_within_its_allocation_budget() {
    // The Rodinia workloads' stack: shared-memory ring, paravirtual cost
    // model, 16-call batches. Age flushing is off so every frame carries
    // exactly 16 calls and the count repeats.
    let config = StackConfig {
        transport: TransportKind::SharedMemory,
        guest: GuestConfig {
            batch_max_calls: 16,
            ..GuestConfig::default()
        },
        ..StackConfig::default()
    };
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

    // saxpy's scalar parameters: `a` (f32) at 2, `n` (u32) at 3.
    let set_args = |calls: u64| {
        for i in 0..calls {
            let arg = if i % 2 == 0 {
                KernelArg::from_f32(i as f32)
            } else {
                KernelArg::from_u32(i as u32)
            };
            api.set_kernel_arg(kernel, 2 + (i % 2) as u32, arg).unwrap();
        }
    };

    // Warm up: queues, journal and caches grow to their working size.
    set_args(CALLS);
    api.finish(queue).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    set_args(CALLS);
    assert_eq!(
        lib.pending_async() as u64,
        CALLS,
        "one entry per async call"
    );
    // The sync call covers every async call before it: all executed.
    api.finish(queue).unwrap();
    let per_call = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64;
    assert_eq!(lib.pending_async(), 0, "a sync reply retires the queue");

    let stats = lib.stats();
    assert_eq!(stats.async_calls, 2 * CALLS);
    assert_eq!(stats.deferred_errors_delivered, 0);
    assert!(
        per_call <= BUDGET,
        "{per_call:.2} allocations per async call, budget {BUDGET}"
    );
}
