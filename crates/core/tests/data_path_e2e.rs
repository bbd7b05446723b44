//! End-to-end tests for the data-path transfer cache: content-addressed
//! buffer elision across guest library → router → API server, including
//! forced cache desync (NACK/resend convergence). Results must be
//! bit-identical with the cache on, off, or mid-heal — the cache is a
//! transport optimization, never a semantic. (The epoch reset every
//! relocation announces is asserted by `relocation_e2e`.) Also pins the
//! zero-copy handoff: an upload reaches the server as the guest's own
//! allocation.

use std::sync::Arc;

use ava_core::{opencl_stack, GuestConfig, OpenClClient, StackConfig};
use ava_hypervisor::VmPolicy;
use ava_transport::{CostModel, TransportKind};
use ava_wire::Value;
use simcl::types::*;
use simcl::{ClApi, SimCl};

fn config(cache_entries: usize) -> StackConfig {
    StackConfig {
        transport: TransportKind::SharedMemory,
        cost_model: CostModel::free(),
        guest: GuestConfig {
            payload_cache_entries: cache_entries,
            payload_cache_min_bytes: 64,
            ..GuestConfig::default()
        },
        ..StackConfig::default()
    }
}

/// A deterministic payload that does not compress into the eligibility
/// floor: every iteration ships the same bytes, which is exactly the
/// pattern iterative workloads (kmeans, backprop) produce.
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// One "training loop" against a virtual device: create a buffer, then
/// repeatedly upload the same host data, run nothing, and download it
/// back. Returns every downloaded snapshot.
fn iterative_writes(client: &OpenClClient, iters: usize, data: &[u8]) -> Vec<Vec<u8>> {
    let platform = client.get_platform_ids().unwrap()[0];
    let device = client.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = client.create_context(device).unwrap();
    let queue = client
        .create_command_queue(ctx, device, QueueProps::default())
        .unwrap();
    let buf = client
        .create_buffer(ctx, MemFlags::read_write(), data.len(), None)
        .unwrap();
    let mut reads = Vec::with_capacity(iters);
    for _ in 0..iters {
        client
            .enqueue_write_buffer(queue, buf, true, 0, data, &[], false)
            .unwrap();
        client.finish(queue).unwrap();
        let mut out = vec![0u8; data.len()];
        client
            .enqueue_read_buffer(queue, buf, true, 0, &mut out, &[], false)
            .unwrap();
        reads.push(out);
    }
    reads
}

#[test]
fn elision_preserves_results_and_halves_payload_bytes() {
    let data = payload(8 << 10);
    let iters = 20;

    let stack_off = opencl_stack(SimCl::new(), config(0)).unwrap();
    let (vm_off, lib_off) = stack_off.attach_vm(VmPolicy::default()).unwrap();
    let reads_off = iterative_writes(&OpenClClient::new(lib_off), iters, &data);

    let stack_on = opencl_stack(SimCl::new(), config(64)).unwrap();
    let (vm_on, lib_on) = stack_on.attach_vm(VmPolicy::default()).unwrap();
    let client_on = OpenClClient::new(lib_on);
    let reads_on = iterative_writes(&client_on, iters, &data);

    // Bit-identical results regardless of the cache.
    assert_eq!(reads_off, reads_on);
    assert!(reads_on.iter().all(|r| r == &data));

    // The router saw the traffic shrink: every write after the first
    // shipped a 12-byte digest instead of the 8 KiB payload.
    let off = stack_off.vm_router_stats(vm_off).unwrap();
    let on = stack_on.vm_router_stats(vm_on).unwrap();
    assert_eq!(off.bytes_elided, 0);
    assert_eq!(off.cache_hits, 0);
    assert!(
        on.bytes_elided >= (iters as u64 - 1) * data.len() as u64,
        "elided {} bytes, expected at least {}",
        on.bytes_elided,
        (iters - 1) * data.len()
    );
    assert!(
        on.bytes_in * 2 <= off.bytes_in,
        "cache-on payload bytes {} not ≤ half of cache-off {}",
        on.bytes_in,
        off.bytes_in
    );

    // All three tiers agree on the hit count.
    let guest = client_on.library().stats();
    let server = stack_on.vm_server_stats(vm_on).unwrap();
    assert_eq!(guest.payload_cache_hits, iters as u64 - 1);
    assert_eq!(server.payload_cache_hits, iters as u64 - 1);
    assert_eq!(on.cache_hits, iters as u64 - 1);
    assert_eq!(guest.payload_cache_misses, 0);
    assert_eq!(server.payload_cache_misses, 0);
}

#[test]
fn a_shared_memory_upload_reaches_the_server_without_a_copy() {
    // The guest↔router ring passes buffers by reference and the
    // router↔server hop moves messages whole, so the server executes — and
    // journals — the very allocation the caller made. Guards against a copy
    // creeping back into the data path.
    let stack = opencl_stack(SimCl::new(), config(0)).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(Arc::clone(&lib));
    let platform = client.get_platform_ids().unwrap()[0];
    let device = client.get_device_ids(platform, DeviceType::All).unwrap()[0];
    let ctx = client.create_context(device).unwrap();
    let queue = client
        .create_command_queue(ctx, device, QueueProps::default())
        .unwrap();
    let data = payload(1 << 20);
    let buf = client
        .create_buffer(ctx, MemFlags::read_write(), data.len(), None)
        .unwrap();
    let upload = Value::Bytes(data.clone().into());
    lib.call(
        "clEnqueueWriteBuffer",
        vec![
            Value::Handle(queue.raw()),
            Value::Handle(buf.raw()),
            Value::U32(1),
            Value::U64(0),
            Value::U64(data.len() as u64),
            upload.clone(),
            Value::U32(0),
            Value::Null,
            Value::Null,
        ],
    )
    .unwrap();
    let mut out = vec![0u8; data.len()];
    client
        .enqueue_read_buffer(queue, buf, true, 0, &mut out, &[], false)
        .unwrap();
    assert_eq!(out, data);

    let journal = stack.vm_journal(vm).unwrap();
    let executed = journal
        .entries()
        .iter()
        .flat_map(|entry| &entry.request.args)
        .find_map(|arg| arg.as_bytes().filter(|b| b.len() == data.len()))
        .expect("the write is journaled");
    assert_eq!(
        executed.as_ptr(),
        upload.as_bytes().unwrap().as_ptr(),
        "the server executed on a copy of the guest's buffer"
    );
}

#[test]
fn forced_desync_heals_via_nack_and_converges() {
    let data = payload(4 << 10);
    let stack = opencl_stack(SimCl::new(), config(64)).unwrap();
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).unwrap();
    let client = OpenClClient::new(lib);

    // Warm the caches: second iteration onward is elided.
    let warm = iterative_writes(&client, 3, &data);
    assert!(warm.iter().all(|r| r == &data));

    // Wipe only the server's mirror — the guest still believes its
    // digests are known remotely, so its next elided write must be
    // NACKed and transparently resent in full.
    stack.desync_vm_payload_cache(vm).unwrap();
    let healed = iterative_writes(&client, 3, &data);
    assert!(healed.iter().all(|r| r == &data), "desync corrupted data");

    let server = stack.vm_server_stats(vm).unwrap();
    assert!(
        server.payload_cache_misses >= 1,
        "expected at least one NACK after the forced desync: {server:?}"
    );
    // Convergence: the resend repaired both sides, so elision resumed
    // (more hits than the single pre-desync warm run could produce).
    let router = stack.vm_router_stats(vm).unwrap();
    assert!(
        router.cache_misses >= 1,
        "router must account the NACK: {router:?}"
    );
    assert!(
        router.cache_hits > 2,
        "elision must resume after healing: {router:?}"
    );
}
