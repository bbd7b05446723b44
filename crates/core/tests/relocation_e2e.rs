//! The relocation matrix: one workload, one set of assertions, run across
//! every reachable (stop × target device) cell of the stack's single
//! relocation path, on a private and on a pooled stack. Every cell
//! rebuilds the server the same way: restore the journal's base, replay
//! its suffix.
//!
//! | move            | stop    | journal           | target            |
//! |-----------------|---------|-------------------|-------------------|
//! | `Rebalance(i)`  | planned | rebased on image  | pool slot `i`     |
//! | `Migrate`       | planned | rebased on image  | private (caller's)|
//! | `MigrateFresh`  | planned | rebased on image  | private (factory) |
//! | `Crash`         | crashed | kept              | same              |
//!
//! Every cell asserts the same contract: results bit-identical to native,
//! the guest's wire handles still valid, at-most-once execution, the
//! guest's transfer cache dropped (no `CacheMiss` NACK after the move),
//! the VM's owned device memory unchanged, and pool occupancy consistent.
//! The regression tests below cover what a relocation must do when the
//! target fails, what attach/detach share with it, and a crash after a
//! move; a property test runs generated op sequences with moves
//! interleaved against the bare silo.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ava_core::{
    opencl_pool_stack, opencl_stack, specs, ApiStack, GuestConfig, LowerOptions, OpenClClient,
    OpenClHandler, PlacementPolicy, RecoveryStats, StackConfig, StackError,
};
use ava_hypervisor::VmPolicy;
use ava_server::{ApiHandler, HandlerOutput, ServerError};
use ava_spec::FunctionDesc;
use ava_telemetry::Registry;
use ava_transport::{CostModel, TransportKind};
use ava_wire::{Value, VmId};
use proptest::prelude::*;
use simcl::types::*;
use simcl::{ClApi, ClError, SimCl};

/// Floats per buffer: 1 KiB uploads, above the transfer-cache floor.
const N: usize = 256;
/// Workload steps per cell, split evenly into one leg per move plus one.
const STEPS: usize = 12;

fn config() -> StackConfig {
    StackConfig {
        transport: TransportKind::SharedMemory,
        cost_model: CostModel::free(),
        // Both tenants of a pooled cell land on slot 0, leaving slot 1 as
        // the rebalance destination.
        placement: PlacementPolicy::Packed,
        guest: GuestConfig {
            payload_cache_entries: 64,
            payload_cache_min_bytes: 64,
            ..GuestConfig::default()
        },
        ..StackConfig::default()
    }
}

fn build_stack(pooled: bool) -> ApiStack {
    build_stack_with(pooled, config())
}

fn build_stack_with(pooled: bool, config: StackConfig) -> ApiStack {
    let stack = if pooled {
        opencl_pool_stack(vec![SimCl::new(), SimCl::new()], config)
    } else {
        opencl_stack(SimCl::new(), config)
    };
    stack.unwrap()
}

fn attach(stack: &ApiStack) -> (VmId, OpenClClient) {
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    (vm, OpenClClient::new(lib))
}

/// An accumulating saxpy (`y += 3x` per step) that re-uploads the same `x`
/// every step: the kernel object, its bound arguments and the
/// kernel-mutated `y` are all state a relocation must carry, and the
/// repeated upload is what the transfer cache elides. Every handle is
/// minted in `setup` and reused to the end, so a step after a move only
/// works if the guest's wire handles survived it.
struct Saxpy<'a> {
    api: &'a dyn ClApi,
    ctx: ClContext,
    queue: ClQueue,
    program: ClProgram,
    kernel: ClKernel,
    bx: ClMem,
    by: ClMem,
    x: Vec<u8>,
}

impl<'a> Saxpy<'a> {
    fn setup(api: &'a dyn ClApi) -> Self {
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
        let x: Vec<f32> = (0..N).map(|i| i as f32).collect();
        let bx = api
            .create_buffer(ctx, MemFlags::read_only(), 4 * N, None)
            .unwrap();
        let by = api
            .create_buffer(
                ctx,
                MemFlags::read_write(),
                4 * N,
                Some(&simcl::mem::f32_to_bytes(&vec![10.0; N])),
            )
            .unwrap();
        api.set_kernel_arg(kernel, 0, KernelArg::Mem(bx)).unwrap();
        api.set_kernel_arg(kernel, 1, KernelArg::Mem(by)).unwrap();
        api.set_kernel_arg(kernel, 2, KernelArg::from_f32(3.0))
            .unwrap();
        api.set_kernel_arg(kernel, 3, KernelArg::from_u32(N as u32))
            .unwrap();
        Saxpy {
            api,
            ctx,
            queue,
            program,
            kernel,
            bx,
            by,
            x: simcl::mem::f32_to_bytes(&x),
        }
    }

    /// One upload → kernel → readback round; returns the bytes read.
    fn step(&self) -> Vec<u8> {
        self.api
            .enqueue_write_buffer(self.queue, self.bx, true, 0, &self.x, &[], false)
            .unwrap();
        self.api
            .enqueue_nd_range_kernel(self.queue, self.kernel, [N, 1, 1], None, &[], false)
            .unwrap();
        let mut out = vec![0u8; 4 * N];
        self.api
            .enqueue_read_buffer(self.queue, self.by, true, 0, &mut out, &[], false)
            .unwrap();
        out
    }

    /// A payload-free sync round trip on a pre-move handle. After a move
    /// it is also where the guest meets the new cache epoch, which the
    /// stack queued ahead of the reply.
    fn settle(&self) {
        self.api.finish(self.queue).unwrap();
    }

    fn close(self) {
        self.api.release_kernel(self.kernel).unwrap();
        self.api.release_program(self.program).unwrap();
        self.api.release_mem_object(self.bx).unwrap();
        self.api.release_mem_object(self.by).unwrap();
        self.api.finish(self.queue).unwrap();
        self.api.release_command_queue(self.queue).unwrap();
        self.api.release_context(self.ctx).unwrap();
    }
}

/// What `steps` steps read back on the bare silo.
fn native(steps: usize) -> Vec<Vec<u8>> {
    let silo = SimCl::new();
    let work = Saxpy::setup(&silo);
    let reads = (0..steps).map(|_| work.step()).collect();
    work.close();
    reads
}

#[derive(Clone, Copy, Debug)]
enum Move {
    Rebalance(usize),
    Migrate,
    MigrateFresh,
    Crash,
}

/// Performs one move through the public API and checks what that API
/// promises about it. `x` is the workload's upload payload.
fn relocate(stack: &ApiStack, vm: VmId, mv: Move, x: &[u8]) {
    let slot_before = stack.vm_slot(vm);
    match mv {
        Move::Rebalance(dst) => {
            stack.rebalance_vm(vm, dst).unwrap();
            assert_eq!(stack.vm_slot(vm), Some(dst));
        }
        Move::Migrate => {
            // A second "host": a silo the stack has never seen.
            let host = SimCl::new();
            let image = stack
                .migrate_vm(vm, move || Box::new(OpenClHandler::new(host)))
                .unwrap();
            assert!(!image.records.is_empty());
            assert!(
                x.is_empty() || image.buffers.iter().any(|(_, data)| data == x),
                "the image must carry the uploaded buffer's payload"
            );
            assert_eq!(stack.vm_slot(vm), None, "a migrated VM leaves the pool");
        }
        Move::MigrateFresh => {
            stack.migrate_vm_fresh(vm).unwrap();
            assert_eq!(stack.vm_slot(vm), None, "a migrated VM leaves the pool");
        }
        Move::Crash => {
            let (before, after) = crash(stack, vm);
            assert!(after.replayed_calls > before.replayed_calls);
            assert_eq!(
                stack.vm_slot(vm),
                slot_before,
                "recovery must not move the VM"
            );
        }
    }
}

/// Kills the VM's server and waits for the supervisor to respawn it;
/// returns the recovery counters from before and after.
fn crash(stack: &ApiStack, vm: VmId) -> (RecoveryStats, RecoveryStats) {
    let before = stack.recovery_stats();
    stack.crash_vm_server(vm).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while stack.recovery_stats().respawns == before.respawns {
        assert!(Instant::now() < deadline, "supervisor never respawned");
        std::thread::sleep(Duration::from_millis(1));
    }
    let after = stack.recovery_stats();
    assert_eq!(after.failed, before.failed);
    (before, after)
}

/// Σ `pool_stats().vms` must equal the VMs that still have a slot.
fn assert_pool_consistent(stack: &ApiStack) {
    let placed = stack
        .vm_ids()
        .into_iter()
        .filter(|&vm| stack.vm_slot(vm).is_some())
        .count();
    let occupancy: u32 = stack.pool_stats().iter().map(|s| s.vms).sum();
    assert_eq!(occupancy as usize, placed, "{:?}", stack.pool_stats());
}

/// One matrix cell: the workload runs in `moves.len() + 1` equal legs with
/// one move between each pair, on a quiet lane. On a pooled stack a
/// bystander shares the victim's slot and must never notice.
fn run_cell(pooled: bool, moves: &[Move]) {
    let legs = moves.len() + 1;
    let oracle = native(STEPS);
    let stack = build_stack(pooled);
    stack.set_telemetry(Registry::new()).unwrap();
    let (vm, client) = attach(&stack);
    let bystander = pooled.then(|| attach(&stack).1);
    if pooled {
        assert_eq!(stack.pool_stats()[0].vms, 2);
    }
    let beside = bystander.as_ref().map(|api| Saxpy::setup(api));
    let mut beside_reads = Vec::new();

    let work = Saxpy::setup(&client);
    let mut reads = Vec::new();
    for (leg, mv) in moves.iter().copied().enumerate() {
        reads.extend((0..STEPS / legs).map(|_| work.step()));
        beside_reads.extend(beside.iter().map(Saxpy::step));
        let owned = stack.vm_owned_device_mem(vm).unwrap();
        assert_eq!(owned, 2 * 4 * N as u64);

        relocate(&stack, vm, mv, &work.x);

        work.settle();
        assert_eq!(
            stack.vm_owned_device_mem(vm).unwrap(),
            owned,
            "leg {leg} {mv:?}: the VM's footprint must move with it"
        );
        assert_pool_consistent(&stack);
    }
    reads.extend((reads.len()..STEPS).map(|_| work.step()));
    beside_reads.extend(beside.iter().map(Saxpy::step));
    assert_eq!(reads, oracle, "{moves:?}: results diverged from native");
    if pooled {
        assert_eq!(beside_reads, native(legs), "the slot-mate was disturbed");
    }

    // The guest dropped its transfer cache with each move instead of
    // learning about the empty mirror one NACK at a time: the first upload
    // of every leg ships in full, every other one is elided, none bounces.
    let guest = client.library().stats();
    assert_eq!(guest.payload_cache_misses, 0, "{moves:?}");
    assert_eq!(guest.payload_cache_hits, (STEPS - legs) as u64, "{moves:?}");
    let server = stack.vm_server_stats(vm).unwrap();
    assert_eq!(server.payload_cache_misses, 0, "{moves:?}");
    assert!(stack.vm_router_stats(vm).unwrap().cache_hits >= (STEPS - legs) as u64);

    assert!(stack.vm_journal(vm).unwrap().call_ids_unique());
    work.close();
    if let Some(beside) = beside {
        beside.close();
    }
    stack.detach_vm(vm).unwrap();
    assert_pool_consistent(&stack);
}

#[test]
fn private_vm_migrates_to_a_second_host() {
    run_cell(false, &[Move::Migrate]);
}

#[test]
fn private_vm_migrates_to_a_fresh_device() {
    run_cell(false, &[Move::MigrateFresh]);
}

#[test]
fn private_vm_recovers_from_a_crash() {
    run_cell(false, &[Move::Crash]);
}

#[test]
fn pooled_vm_rebalances_between_slots() {
    run_cell(true, &[Move::Rebalance(1), Move::Rebalance(0)]);
}

#[test]
fn pooled_vm_migrates_off_the_pool() {
    run_cell(true, &[Move::Migrate]);
    run_cell(true, &[Move::MigrateFresh]);
}

#[test]
fn pooled_vm_recovers_onto_its_slot_after_a_crash() {
    run_cell(true, &[Move::Crash]);
}

#[test]
fn moves_compose_on_one_vm() {
    // A VM that left the pool still recovers, and can be taken back in.
    run_cell(true, &[Move::Rebalance(1), Move::MigrateFresh, Move::Crash]);
    run_cell(true, &[Move::MigrateFresh, Move::Rebalance(1)]);
    run_cell(false, &[Move::Crash, Move::Migrate, Move::Crash]);
}

/// A planned move under traffic: the workload keeps issuing calls on its
/// own thread while the VM is relocated, so the pause → quiesce → drain
/// sequence runs against a busy lane. (Crash under traffic needs guest
/// retries and lives in the chaos suites.)
fn run_cell_mid_flight(pooled: bool, mv: Move) -> ApiStack {
    let steps = 4 * STEPS;
    let oracle = native(steps);
    let stack = build_stack(pooled);
    let (vm, client) = attach(&stack);
    let work = Saxpy::setup(&client);
    let (started, go) = mpsc::channel();
    let reads = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            (0..steps)
                .map(|step| {
                    if step == STEPS / 2 {
                        started.send(()).unwrap();
                    }
                    work.step()
                })
                .collect::<Vec<_>>()
        });
        go.recv().unwrap();
        relocate(&stack, vm, mv, &work.x);
        worker.join().unwrap()
    });
    assert_eq!(reads, oracle, "{mv:?} mid-flight diverged from native");
    assert!(stack.vm_journal(vm).unwrap().call_ids_unique());
    assert_pool_consistent(&stack);
    work.close();
    stack
}

#[test]
fn private_vm_migrates_mid_workload() {
    run_cell_mid_flight(false, Move::Migrate);
}

#[test]
fn pooled_vm_rebalances_mid_workload() {
    let stack = run_cell_mid_flight(true, Move::Rebalance(1));
    let vm = stack.vm_ids()[0];
    let stats = stack.pool_stats();
    assert_eq!(stats[0].vms, 0);
    assert_eq!(stats[1].vms, 1);
    assert!(
        stats[1].device_time_ms > 0.0,
        "post-rebalance work must be billed to the destination slot"
    );
    // Rebalancing to the current slot is a no-op; out-of-range fails.
    stack.rebalance_vm(vm, 1).unwrap();
    assert!(matches!(
        stack.rebalance_vm(vm, 9),
        Err(StackError::UnknownSlot(9))
    ));
}

/// Setting a kernel argument again rewrites its slot: however often a VM
/// rebinds the same two arguments, its migration image holds one record
/// per config call, live object and slot, and still computes right.
#[test]
fn rebinding_kernel_arguments_keeps_the_migration_image_flat() {
    let stack = build_stack(false);
    let (vm, cl) = attach(&stack);
    let work = Saxpy::setup(&cl);
    for _ in 0..500 {
        cl.set_kernel_arg(work.kernel, 0, KernelArg::Mem(work.bx))
            .unwrap();
        cl.set_kernel_arg(work.kernel, 1, KernelArg::Mem(work.by))
            .unwrap();
    }
    work.settle();
    let host = SimCl::new();
    let image = stack
        .migrate_vm(vm, move || Box::new(OpenClHandler::new(host)))
        .unwrap();
    // clGetPlatformIDs and clGetDeviceIDs, each a count query and then
    // the fetch; the context, queue, program, kernel and two buffers; the
    // build and the kernel's four arguments.
    assert_eq!(image.records.len(), 4 + 6 + 1 + 4);
    assert_eq!(work.step(), native(1)[0]);
    work.close();
}

/// OpenCL refuses to rebuild a program that has kernels, which is what
/// lets a migration image replay a program's build at its latest write:
/// no kernel is ever created from a build that a later one replaced. The
/// refused rebuild leaves the image replayable and the VM computing right.
#[test]
fn rebuilding_a_program_with_kernels_is_refused_and_the_vm_still_migrates() {
    let stack = build_stack(false);
    let (vm, cl) = attach(&stack);
    let work = Saxpy::setup(&cl);
    let first = work.step();
    let refused = Err(ClError(simcl::status::CL_INVALID_OPERATION));
    assert_eq!(cl.build_program(work.program, "-O2"), refused);
    assert_eq!(cl.compile_program(work.program, "-O2"), refused);
    relocate(&stack, vm, Move::Migrate, &work.x);
    work.settle();
    assert_eq!(vec![first, work.step()], native(2));
    work.close();
}

// ---- what a relocation owes the VM when the target fails ----------------

/// An OpenCL device that starts failing every dispatch once its budget of
/// successful ones is spent.
struct Flaky {
    inner: OpenClHandler,
    budget: Arc<AtomicUsize>,
}

impl Flaky {
    fn boxed(silo: &SimCl, budget: &Arc<AtomicUsize>) -> Box<dyn ApiHandler> {
        Box::new(Flaky {
            inner: OpenClHandler::new(silo.clone()),
            budget: Arc::clone(budget),
        })
    }
}

impl ApiHandler for Flaky {
    fn dispatch(
        &mut self,
        func: &FunctionDesc,
        args: &[Value],
    ) -> ava_server::Result<HandlerOutput> {
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .map_err(|_| ServerError::Handler("device fault".into()))?;
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

/// With a deadline the guest gives up on a lane nobody serves, so a VM
/// stranded by a failed move fails this test instead of hanging it.
fn impatient() -> StackConfig {
    let mut config = config();
    config.guest.call_deadline = Some(Duration::from_millis(250));
    config.guest.max_retries = 1;
    config
}

fn used_mem(silo: &SimCl) -> usize {
    let platform = silo.get_platform_ids().unwrap()[0];
    let device = silo.get_device_ids(platform, DeviceType::All).unwrap()[0];
    silo.device_state(device).unwrap().used_mem()
}

#[test]
fn failed_migration_leaves_the_vm_running_on_its_source() {
    let oracle = native(STEPS);
    let stack = opencl_stack(SimCl::new(), impatient()).unwrap();
    let (vm, client) = attach(&stack);
    let work = Saxpy::setup(&client);
    let mut reads: Vec<_> = (0..STEPS / 2).map(|_| work.step()).collect();
    let owned = stack.vm_owned_device_mem(vm).unwrap();

    let dead = Arc::new(AtomicUsize::new(0));
    let moved = stack.migrate_vm(vm, || Flaky::boxed(&SimCl::new(), &dead));
    assert!(matches!(moved, Err(StackError::Server(_))), "{moved:?}");

    // Rolled back, resumed, and none the worse for it.
    reads.extend((reads.len()..STEPS).map(|_| work.step()));
    assert_eq!(reads, oracle);
    assert_eq!(stack.vm_owned_device_mem(vm).unwrap(), owned);
    assert_eq!(stack.recovery_stats().failed, 0);
    assert!(stack.vm_journal(vm).unwrap().call_ids_unique());
    // The lane is healthy enough to move for real afterwards.
    relocate(&stack, vm, Move::MigrateFresh, &work.x);
    work.settle();
    work.close();
}

#[test]
fn failed_rebalance_stays_put_and_leaves_the_target_slot_clean() {
    let oracle = native(STEPS);
    let silos = [SimCl::new(), SimCl::new()];
    let budgets = [
        Arc::new(AtomicUsize::new(usize::MAX)),
        Arc::new(AtomicUsize::new(usize::MAX)),
    ];
    let stack = {
        let (silos, budgets) = (silos.clone(), budgets.clone());
        ApiStack::new_indexed(
            specs::opencl_descriptor(LowerOptions::default()).unwrap(),
            move |i| Flaky::boxed(&silos[i], &budgets[i]),
            StackConfig {
                pool_size: 2,
                ..impatient()
            },
        )
    };
    let (vm, client) = attach(&stack);
    assert_eq!(stack.vm_slot(vm), Some(0));
    let work = Saxpy::setup(&client);
    let mut reads: Vec<_> = (0..STEPS / 2).map(|_| work.step()).collect();

    // Slot 1's device dies part-way through the replay: objects it already
    // created there must not outlive the failed move.
    budgets[1].store(3, Ordering::SeqCst);
    let moved = stack.rebalance_vm(vm, 1);
    assert!(matches!(moved, Err(StackError::Server(_))), "{moved:?}");
    assert_eq!(stack.vm_slot(vm), Some(0));
    assert_eq!(used_mem(&silos[1]), 0);
    assert_pool_consistent(&stack);

    reads.extend((reads.len()..STEPS).map(|_| work.step()));
    assert_eq!(reads, oracle);
    // Once the device is back, the same move goes through.
    budgets[1].store(usize::MAX, Ordering::SeqCst);
    relocate(&stack, vm, Move::Rebalance(1), &work.x);
    work.settle();
    work.close();
}

#[test]
fn a_rehomed_private_accountant_is_the_one_the_registry_reads() {
    for pooled in [false, true] {
        let stack = build_stack(pooled);
        let registry = Registry::new();
        stack.set_telemetry(registry.clone()).unwrap();
        let (vm, client) = attach(&stack);
        let work = Saxpy::setup(&client);
        work.step();

        relocate(&stack, vm, Move::MigrateFresh, &work.x);
        work.settle();

        let resident = stack.vm_memory_stats(vm).unwrap().resident_bytes;
        assert_eq!(resident, 2 * 4 * N as u64);
        let gauge = registry.gauge(&format!("mem.vm{vm}.resident_bytes"));
        assert_eq!(gauge.get(), resident as f64, "pooled: {pooled}");
        work.close();
    }
}

#[test]
fn detaching_a_pooled_vm_frees_what_its_guest_left_on_the_slot() {
    let silo = SimCl::new();
    let stack = opencl_pool_stack(vec![silo.clone()], config()).unwrap();
    let idle = used_mem(&silo);

    let (vm, client) = attach(&stack);
    let platform = client.get_platform_ids().unwrap()[0];
    let device = client.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = client.create_context(device).unwrap();
    client
        .create_buffer(ctx, MemFlags::read_write(), 1 << 20, None)
        .unwrap();
    assert!(used_mem(&silo) >= idle + (1 << 20));

    // The guest walks away without releasing anything.
    stack.detach_vm(vm).unwrap();
    assert_eq!(used_mem(&silo), idle);
    assert_eq!(stack.pool_memory_stats()[0].resident_bytes, 0);
}

// ---- a crash after a move ------------------------------------------------

fn platform_device(api: &dyn ClApi) -> (ClContext, ClQueue) {
    let platform = api.get_platform_ids().unwrap()[0];
    let device = api.get_device_ids(platform, DeviceType::Gpu).unwrap()[0];
    let ctx = api.create_context(device).unwrap();
    let queue = api
        .create_command_queue(ctx, device, QueueProps::default())
        .unwrap();
    (ctx, queue)
}

fn filled(fill: f32) -> Vec<u8> {
    simcl::mem::f32_to_bytes(&vec![fill; N])
}

fn read_back(api: &dyn ClApi, queue: ClQueue, mem: ClMem) -> Result<Vec<u8>, ClError> {
    let mut out = vec![0u8; 4 * N];
    api.enqueue_read_buffer(queue, mem, true, 0, &mut out, &[], false)?;
    Ok(out)
}

/// A VM releases its newest buffer, moves, creates a buffer and crashes.
/// The moved server mints wire handles from the table it restored, so the
/// released handle's value is handed out again; recovery must rebuild the
/// server the move built, or the post-move buffer's handle means nothing
/// to it.
fn crash_after_move(pooled: bool, mv: Move) {
    let stack = build_stack(pooled);
    let (vm, client) = attach(&stack);
    let (ctx, queue) = platform_device(&client);
    let create = |fill| {
        client
            .create_buffer(ctx, MemFlags::read_write(), 4 * N, Some(&filled(fill)))
            .unwrap()
    };
    let a = create(1.0);
    let b = create(2.0);
    client.release_mem_object(b).unwrap();
    // The release is async: flush it so it executes before the move.
    client.finish(queue).unwrap();

    relocate(&stack, vm, mv, &[]);
    let c = create(3.0);
    relocate(&stack, vm, Move::Crash, &[]);

    assert_eq!(read_back(&client, queue, c), Ok(filled(3.0)), "{mv:?}");
    assert_eq!(read_back(&client, queue, a), Ok(filled(1.0)), "{mv:?}");
    assert!(stack.vm_journal(vm).unwrap().call_ids_unique());
    for mem in [a, c] {
        client.release_mem_object(mem).unwrap();
    }
    client.release_command_queue(queue).unwrap();
    client.release_context(ctx).unwrap();
}

#[test]
fn a_crash_after_a_migration_keeps_post_migration_buffers() {
    crash_after_move(false, Move::MigrateFresh);
}

#[test]
fn a_crash_after_a_rebalance_keeps_post_rebalance_buffers() {
    crash_after_move(true, Move::Rebalance(1));
}

// ---- generated op sequences with moves interleaved -----------------------

/// One step of a generated sequence. Buffer operands index the live
/// buffers modulo their count; a step with no live buffer to act on is
/// skipped.
#[derive(Clone, Copy, Debug)]
enum Op {
    Create(u8),
    Write(usize, u8),
    Release(usize),
    Saxpy(usize, usize),
    Read(usize),
    Move(Move),
}

fn op_strategy() -> BoxedStrategy<Op> {
    let moves = prop_oneof![
        Just(Move::Migrate),
        Just(Move::MigrateFresh),
        Just(Move::Crash),
        (0usize..2).prop_map(Move::Rebalance),
    ];
    // Moves get two shares in seven, so most sequences compose several.
    prop_oneof![
        (0u8..8).prop_map(Op::Create),
        (0usize..8, 0u8..8).prop_map(|(i, fill)| Op::Write(i, fill)),
        (0usize..8).prop_map(Op::Release),
        (0usize..8, 0usize..8).prop_map(|(x, y)| Op::Saxpy(x, y)),
        (0usize..8).prop_map(Op::Read),
        moves.clone().prop_map(Op::Move),
        moves.prop_map(Op::Move),
    ]
}

/// Runs `ops` on `api`; `relocate` performs the moves (the native run
/// passes a no-op). Returns every read, or the first failing call.
fn run_ops(
    api: &dyn ClApi,
    ops: &[Op],
    mut relocate: impl FnMut(Move),
) -> Result<Vec<Vec<u8>>, String> {
    let fail = |step: usize, op: Op| move |e: ClError| format!("step {step} {op:?}: {e:?}");
    let (ctx, queue) = platform_device(api);
    let program = api
        .create_program_with_source(ctx, simcl::kernels::builtins::SOURCE)
        .unwrap();
    api.build_program(program, "").unwrap();
    let kernel = api.create_kernel(program, "saxpy").unwrap();
    let mut live: Vec<ClMem> = Vec::new();
    let mut reads = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        let err = fail(step, op);
        let pick = |i: usize| live.get(i % live.len().max(1)).copied();
        match op {
            Op::Create(fill) => live.push(
                api.create_buffer(
                    ctx,
                    MemFlags::read_write(),
                    4 * N,
                    Some(&filled(f32::from(fill))),
                )
                .map_err(err)?,
            ),
            Op::Write(i, fill) => {
                if let Some(mem) = pick(i) {
                    api.enqueue_write_buffer(
                        queue,
                        mem,
                        true,
                        0,
                        &filled(f32::from(fill)),
                        &[],
                        false,
                    )
                    .map_err(err)?;
                }
            }
            Op::Release(i) => {
                if let Some(mem) = pick(i) {
                    live.retain(|&m| m != mem);
                    api.release_mem_object(mem).map_err(err)?;
                }
            }
            Op::Saxpy(x, y) => {
                if let (Some(bx), Some(by)) = (pick(x), pick(y)) {
                    api.set_kernel_arg(kernel, 0, KernelArg::Mem(bx))
                        .map_err(err)?;
                    api.set_kernel_arg(kernel, 1, KernelArg::Mem(by))
                        .map_err(err)?;
                    api.set_kernel_arg(kernel, 2, KernelArg::from_f32(3.0))
                        .map_err(err)?;
                    api.set_kernel_arg(kernel, 3, KernelArg::from_u32(N as u32))
                        .map_err(err)?;
                    api.enqueue_nd_range_kernel(queue, kernel, [N, 1, 1], None, &[], false)
                        .map_err(err)?;
                }
            }
            Op::Read(i) => {
                if let Some(mem) = pick(i) {
                    reads.push(read_back(api, queue, mem).map_err(err)?);
                }
            }
            Op::Move(mv) => relocate(mv),
        }
    }
    for mem in live {
        api.release_mem_object(mem)
            .map_err(fail(ops.len(), Op::Release(0)))?;
    }
    Ok(reads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever a VM did before a move, and however the moves compose,
    /// it reads what the bare silo reads. `Rebalance` applies only to a
    /// pooled stack.
    #[test]
    fn moves_never_change_what_a_vm_reads(
        pooled in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 8..32),
    ) {
        let expected = run_ops(&SimCl::new(), &ops, |_| {});
        prop_assert!(expected.is_ok(), "native run failed: {expected:?}");
        // Enough respawns for every crash a sequence can hold.
        let stack = build_stack_with(pooled, StackConfig { max_respawns: 32, ..config() });
        let (vm, client) = attach(&stack);
        // A crash straight after another move has nothing to replay, so
        // it skips `relocate`'s replayed-calls check.
        let observed = run_ops(&client, &ops, |mv| match mv {
            Move::Crash => drop(crash(&stack, vm)),
            Move::Rebalance(_) if !pooled => {}
            mv => relocate(&stack, vm, mv, &[]),
        });
        prop_assert!(
            observed == expected,
            "{ops:?}: {}",
            observed.err().unwrap_or_else(|| "reads diverged from native".into())
        );
        prop_assert!(stack.vm_journal(vm).unwrap().call_ids_unique());
    }
}
