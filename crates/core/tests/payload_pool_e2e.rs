//! End-to-end tests for the recycled payload store (`ava_wire`'s
//! `copy_payload` / `fill_payload`): storage one VM's transfers used is
//! reused by the next VM's, yet no VM ever observes a byte another VM
//! wrote. The store is process-wide, so the tests here take turns.

use std::sync::{Arc, Mutex, MutexGuard};

use ava_core::{opencl_stack, ApiStack, GuestConfig, OpenClClient, StackConfig};
use ava_guest::GuestLibrary;
use ava_hypervisor::VmPolicy;
use ava_telemetry::Registry;
use ava_transport::{CostModel, TransportKind};
use ava_wire::VmId;
use simcl::types::*;
use simcl::{ClApi, SimCl};

const SMALL: usize = 64 << 10;
const LARGE: usize = 16 << 20;

/// Serializes this binary's tests: each asserts on store state that a
/// concurrent test would change.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|p| p.into_inner())
}

fn stack() -> ApiStack {
    let config = StackConfig {
        transport: TransportKind::SharedMemory,
        cost_model: CostModel::free(),
        // No payload elision: every upload ships its bytes.
        guest: GuestConfig {
            payload_cache_entries: 0,
            ..GuestConfig::default()
        },
        ..StackConfig::default()
    };
    opencl_stack(SimCl::new(), config).unwrap()
}

/// VM A's bytes: never zero, and never a value VM B writes.
fn pattern_a(len: usize) -> Vec<u8> {
    (0..len).map(|i| 0x80 | (i % 97) as u8).collect()
}

/// VM B's bytes: never zero, and never a value VM A writes.
fn pattern_b(len: usize) -> Vec<u8> {
    (0..len).map(|i| 0x01 + (i % 113) as u8).collect()
}

struct Vm {
    id: VmId,
    client: OpenClClient,
    ctx: ClContext,
    queue: ClQueue,
}

impl Vm {
    fn attach(stack: &ApiStack) -> Vm {
        let (id, lib): (VmId, Arc<GuestLibrary>) = stack.attach_vm(VmPolicy::default()).unwrap();
        let client = OpenClClient::new(lib);
        let platform = client.get_platform_ids().unwrap()[0];
        let device = client.get_device_ids(platform, DeviceType::All).unwrap()[0];
        let ctx = client.create_context(device).unwrap();
        let queue = client
            .create_command_queue(ctx, device, QueueProps::default())
            .unwrap();
        Vm {
            id,
            client,
            ctx,
            queue,
        }
    }

    fn buffer(&self, len: usize, host: Option<&[u8]>) -> ClMem {
        self.client
            .create_buffer(self.ctx, MemFlags::read_write(), len, host)
            .unwrap()
    }

    fn write(&self, mem: ClMem, offset: usize, data: &[u8]) {
        self.client
            .enqueue_write_buffer(self.queue, mem, true, offset, data, &[], false)
            .unwrap();
    }

    fn read(&self, mem: ClMem, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.client
            .enqueue_read_buffer(self.queue, mem, true, offset, &mut out, &[], false)
            .unwrap();
        out
    }

    fn detach(self, stack: &ApiStack) {
        self.client.finish(self.queue).unwrap();
        let id = self.id;
        drop(self);
        stack.detach_vm(id).unwrap();
    }
}

#[test]
fn a_vm_never_observes_bytes_another_vm_moved_through_the_store() {
    let _turn = one_at_a_time();
    let stack = stack();

    // VM A moves patterned bytes both ways in both size classes, then
    // detaches, which hands every payload's storage to the store.
    let a = Vm::attach(&stack);
    for len in [SMALL, LARGE] {
        let data = pattern_a(len);
        let uploaded = a.buffer(len, Some(&data));
        let written = a.buffer(len, None);
        a.write(written, 0, &data);
        assert_eq!(a.read(uploaded, 0, len), data);
        assert_eq!(a.read(written, 0, len), data);
    }
    a.detach(&stack);

    // VM B reads buffers it never wrote: device zero, whatever storage the
    // readback payloads were recycled from.
    let b = Vm::attach(&stack);
    for len in [SMALL, LARGE] {
        let fresh = b.buffer(len, None);
        assert!(b.read(fresh, 0, len).iter().all(|&x| x == 0), "{len}");
        // A read shorter than the storage it reuses.
        let short = len / 2 + 3;
        assert!(b.read(fresh, 5, short).iter().all(|&x| x == 0), "{len}");
    }

    // A short upload into storage that held a longer payload: the rest of
    // the buffer stays device zero.
    let mem = b.buffer(SMALL, None);
    let upload = pattern_b(SMALL - SMALL / 3);
    b.write(mem, 0, &upload);
    let seen = b.read(mem, 0, SMALL);
    assert_eq!(&seen[..upload.len()], &upload[..]);
    assert!(seen[upload.len()..].iter().all(|&x| x == 0));

    // A read past the end fails and returns no output: the guest's buffer
    // keeps what it held.
    let mut out = vec![0xEEu8; SMALL];
    let past_end =
        b.client
            .enqueue_read_buffer(b.queue, mem, true, SMALL + 4096, &mut out, &[], false);
    assert!(past_end.is_err());
    assert!(out.iter().all(|&x| x == 0xEE));
    // The lane is healthy afterwards.
    assert_eq!(b.read(mem, 0, upload.len()), upload);
    b.detach(&stack);
}

#[test]
fn a_second_fresh_vms_large_upload_reuses_the_first_vms_storage() {
    let _turn = one_at_a_time();
    let stack = stack();
    let registry = Registry::new();
    stack.set_telemetry(registry.clone()).unwrap();
    let counters = |r: &Registry| {
        let snap = r.snapshot();
        (
            snap.counters["payload_pool.hits"],
            snap.counters["payload_pool.misses"],
        )
    };

    let first = Vm::attach(&stack);
    let mem = first.buffer(LARGE, None);
    first.write(mem, 0, &pattern_a(LARGE));
    first.detach(&stack);
    assert!(registry.snapshot().gauges["payload_pool.retained_bytes"] >= LARGE as f64);

    let second = Vm::attach(&stack);
    let mem = second.buffer(LARGE, None);
    let data = pattern_b(LARGE);
    let (hits, misses) = counters(&registry);
    second.write(mem, 0, &data);
    assert_eq!(
        counters(&registry),
        (hits + 1, misses),
        "the upload copy reused recycled storage"
    );
    assert_eq!(second.read(mem, 0, LARGE), data);
    second.detach(&stack);
}
