//! `ava-server` — the API-agnostic server runtime of AvA (Figure 3's "API
//! server", §4.1).
//!
//! A per-VM [`ApiServer`] executes forwarded API calls on behalf of a
//! guest application. The runtime is fully descriptor-driven; the
//! API-specific part is a CAvA-generated [`ApiHandler`] that binds to the
//! real silo. On top of plain dispatch the runtime implements the §4.3
//! resource-management machinery:
//!
//! * **handle translation** — guests only ever see server-minted wire
//!   handles;
//! * **object tracking** — annotated calls are logged, writes once per slot;
//! * **VM migration** — snapshot (records + buffer payloads) and restore
//!   by replay on another host;
//! * **buffer-granularity memory swapping** — on device OOM or
//!   capacity pressure, evict the LRU tracked buffer to host memory and
//!   transparently restore it on next use;
//! * **device-memory virtualization** — per-VM quotas (over-quota
//!   allocations are refused with a clean `QuotaExceeded` reply) and a
//!   per-device [`MemoryManager`] that accounts residency and
//!   deduplicates swapped payloads by content digest;
//! * **at-most-once execution** — duplicate call frames (guest retries,
//!   transport duplication) are answered from a bounded reply cache, never
//!   re-executed;
//! * **crash recovery** — every executed call is journaled so a supervisor
//!   can rebuild a crashed server by deterministic replay
//!   ([`ApiServer::replay_journal`]).

#![warn(clippy::too_many_lines)]

pub mod error;
pub mod handler;
pub mod handles;
pub mod memory;
pub mod record;
pub mod server;

pub use error::{Result, ServerError};
pub use handler::{shared_handler, ApiHandler, HandlerOutput, SharedHandler};
pub use handles::{HandleEntry, HandleState, HandleTable};
pub use memory::{MemoryManager, MemoryStats};
pub use record::{CallJournal, JournalEntry, MigrationImage, RecordedCall};
pub use server::{serve_with, ApiServer, ServerStats};

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap};
    use std::sync::Arc;

    use ava_spec::{compile_spec, ApiDescriptor, FunctionDesc, LowerOptions, MapResolver};
    use ava_wire::{CallMode, CallRequest, ReplyStatus, Value};

    use super::*;

    /// A toy "device" with named objects, used to exercise the runtime
    /// without pulling in a real silo.
    struct ToyHandler {
        next_silo: u64,
        /// silo handle → (capacity, contents)
        objects: HashMap<u64, Vec<u8>>,
        /// silo handle → reference count
        refs: HashMap<u64, u32>,
        /// (holder silo, slot) → the silo bound there
        binds: BTreeMap<(u64, u64), u64>,
        /// Simulated device capacity in bytes.
        capacity: usize,
        fail_next_alloc_with_oom: bool,
    }

    impl ToyHandler {
        fn new(capacity: usize) -> Self {
            ToyHandler {
                next_silo: 1,
                objects: HashMap::new(),
                refs: HashMap::new(),
                binds: BTreeMap::new(),
                capacity,
                fail_next_alloc_with_oom: false,
            }
        }

        fn used(&self) -> usize {
            self.objects.values().map(Vec::len).sum()
        }
    }

    impl ApiHandler for ToyHandler {
        fn dispatch(&mut self, func: &FunctionDesc, args: &[Value]) -> Result<HandlerOutput> {
            match func.name.as_str() {
                "toy_init" => Ok(HandlerOutput::ret(Value::I32(0))),
                "toy_create" => {
                    // Fallible like the bindings' readers: a server driven
                    // without a router gets no arity check before this.
                    let size = args
                        .first()
                        .and_then(Value::as_u64)
                        .ok_or_else(|| ServerError::BadArguments("toy_create: size".into()))?
                        as usize;
                    if std::mem::take(&mut self.fail_next_alloc_with_oom)
                        || self.used() + size > self.capacity
                    {
                        return Ok(HandlerOutput {
                            device_oom: true,
                            ..HandlerOutput::ret(Value::Null)
                        });
                    }
                    let silo = self.next_silo;
                    self.next_silo += 1;
                    self.objects.insert(silo, vec![0; size]);
                    self.refs.insert(silo, 1);
                    Ok(HandlerOutput::ret(Value::Handle(silo)))
                }
                "toy_write" => {
                    let silo = args[0].as_handle().expect("handle arg");
                    let data = args[1].as_bytes().expect("bytes arg").to_vec();
                    let obj = self
                        .objects
                        .get_mut(&silo)
                        .ok_or(ServerError::BadHandle(silo))?;
                    let n = data.len().min(obj.len());
                    obj[..n].copy_from_slice(&data[..n]);
                    Ok(HandlerOutput::ret(Value::I32(0)))
                }
                "toy_read" => {
                    let silo = args[0].as_handle().expect("handle arg");
                    let len = args[2].as_u64().unwrap_or(0) as usize;
                    let obj = self
                        .objects
                        .get(&silo)
                        .ok_or(ServerError::BadHandle(silo))?;
                    let bytes = obj[..len.min(obj.len())].to_vec();
                    Ok(HandlerOutput {
                        outputs: vec![(1, Value::Bytes(bytes.into()))],
                        ..HandlerOutput::ret(Value::I32(0))
                    })
                }
                "toy_destroy" => {
                    let silo = args[0].as_handle().expect("handle arg");
                    self.objects.remove(&silo);
                    Ok(HandlerOutput::ret(Value::I32(0)))
                }
                "toy_retain" | "toy_release" => {
                    let silo = args[0].as_handle().expect("handle arg");
                    let refs = self.refs.entry(silo).or_default();
                    if func.name == "toy_retain" {
                        *refs += 1;
                        return Ok(HandlerOutput::ret(Value::I32(0)));
                    }
                    *refs = refs.saturating_sub(1);
                    let died = *refs == 0;
                    if died {
                        self.objects.remove(&silo);
                    }
                    Ok(HandlerOutput {
                        destroyed: Some(died),
                        ..HandlerOutput::ret(Value::I32(0))
                    })
                }
                "toy_bind" => {
                    let holder = args[0].as_handle().expect("handle arg");
                    let slot = args[1].as_u64().expect("slot arg");
                    let dep = args[2].as_handle().expect("handle arg");
                    self.binds.insert((holder, slot), dep);
                    Ok(HandlerOutput::ret(Value::I32(0)))
                }
                // The contents of every live object bound to `holder`, in
                // slot order.
                "toy_gather" => {
                    let holder = args[0].as_handle().expect("handle arg");
                    let bound = self.binds.range((holder, 0)..=(holder, u64::MAX));
                    let bytes: Vec<u8> = bound
                        .filter_map(|(_, dep)| self.objects.get(dep))
                        .flatten()
                        .copied()
                        .collect();
                    Ok(HandlerOutput {
                        outputs: vec![(1, Value::Bytes(bytes.into()))],
                        ..HandlerOutput::ret(Value::I32(0))
                    })
                }
                "toy_use" => Ok(HandlerOutput::ret(Value::I32(0))),
                other => Err(ServerError::Handler(format!("unknown fn {other}"))),
            }
        }

        fn swappable_kinds(&self) -> &[&str] {
            &["toy_buf"]
        }

        fn snapshot_object(&mut self, _kind: &str, silo: u64) -> Option<Vec<u8>> {
            self.objects.get(&silo).cloned()
        }

        fn restore_object(&mut self, _kind: &str, silo: u64, data: &[u8]) -> bool {
            match self.objects.get_mut(&silo) {
                Some(obj) if obj.len() == data.len() => {
                    obj.copy_from_slice(data);
                    true
                }
                _ => false,
            }
        }

        fn drop_object(&mut self, _kind: &str, silo: u64) -> bool {
            self.objects.remove(&silo).is_some()
        }
    }

    const TOY_SPEC: &str = r#"
api("toy", 1);
#define TOY_OK 0
typedef int toy_status;
typedef struct _toy_buf *toy_buf;
type(toy_status) { success(TOY_OK); }
toy_status toy_init(unsigned int flags) { record(config); }
toy_buf toy_create(size_t size) {
  record(alloc);
  resource(device_mem, size);
}
toy_status toy_write(toy_buf buf, const void *data, size_t data_size) {
  writes(buf);
  parameter(data) { buffer(data_size); }
}
toy_status toy_read(toy_buf buf, void *out, size_t out_size) {
  parameter(out) { out; buffer(out_size); }
}
toy_status toy_destroy(toy_buf buf) {
  parameter(buf) { deallocates; }
}
toy_status toy_retain(toy_buf buf) { }
toy_status toy_release(toy_buf buf) {
  parameter(buf) { deallocates; }
}
toy_status toy_bind(toy_buf holder, unsigned int slot, toy_buf dep) {
  writes(holder, slot);
}
toy_status toy_gather(toy_buf holder, void *out, size_t out_size) {
  parameter(out) { out; buffer(out_size); }
}
toy_status toy_use(toy_buf a, toy_buf b) { }
"#;

    fn toy_descriptor() -> Arc<ApiDescriptor> {
        Arc::new(compile_spec(TOY_SPEC, &MapResolver::new(), LowerOptions::default()).unwrap())
    }

    fn call(desc: &ApiDescriptor, name: &str, args: Vec<Value>) -> CallRequest {
        CallRequest {
            call_id: 0,
            fn_id: desc.by_name(name).unwrap().id,
            mode: CallMode::Sync,
            args,
            budget_us: 0,
        }
    }

    fn create_buf(server: &mut ApiServer, desc: &ApiDescriptor, size: u64) -> u64 {
        let rep = server.handle_call(call(desc, "toy_create", vec![Value::U64(size)]));
        assert_eq!(rep.status, ReplyStatus::Ok);
        rep.ret.as_handle().expect("created handle")
    }

    fn write_buf(server: &mut ApiServer, desc: &ApiDescriptor, h: u64, data: &[u8]) {
        let rep = server.handle_call(call(
            desc,
            "toy_write",
            vec![
                Value::Handle(h),
                Value::Bytes(data.to_vec().into()),
                Value::U64(data.len() as u64),
            ],
        ));
        assert_eq!(rep.status, ReplyStatus::Ok);
        assert_eq!(rep.ret, Value::I32(0));
    }

    fn bind(server: &mut ApiServer, desc: &ApiDescriptor, holder: u64, slot: u32, dep: u64) {
        let args = vec![Value::Handle(holder), Value::U32(slot), Value::Handle(dep)];
        let rep = server.handle_call(call(desc, "toy_bind", args));
        assert_eq!(rep.status, ReplyStatus::Ok);
    }

    fn read_buf(server: &mut ApiServer, desc: &ApiDescriptor, h: u64, len: u64) -> Vec<u8> {
        let rep = server.handle_call(call(
            desc,
            "toy_read",
            vec![Value::Handle(h), Value::Null, Value::U64(len)],
        ));
        assert_eq!(rep.status, ReplyStatus::Ok);
        rep.outputs[0].1.as_bytes().unwrap().to_vec()
    }

    #[test]
    fn create_write_read_destroy_cycle() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        let h = create_buf(&mut server, &desc, 16);
        assert!(
            h >= 0x4000_0000,
            "guest sees wire handles, not silo handles"
        );
        write_buf(&mut server, &desc, h, b"hello");
        assert_eq!(&read_buf(&mut server, &desc, h, 5), b"hello");
        let rep = server.handle_call(call(&desc, "toy_destroy", vec![Value::Handle(h)]));
        assert_eq!(rep.status, ReplyStatus::Ok);
        // Handle is dead now.
        let rep = server.handle_call(call(
            &desc,
            "toy_read",
            vec![Value::Handle(h), Value::Null, Value::U64(1)],
        ));
        assert_eq!(rep.status, ReplyStatus::TransportError);
    }

    #[test]
    fn unknown_function_is_transport_error() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        let rep = server.handle_call(CallRequest {
            call_id: 7,
            fn_id: 999,
            mode: CallMode::Sync,
            args: vec![],
            budget_us: 0,
        });
        assert_eq!(rep.status, ReplyStatus::TransportError);
        assert_eq!(rep.call_id, 7);
    }

    /// No router checked this call's arity; the handler's reader refuses
    /// it, and the server answers cleanly.
    #[test]
    fn wrong_arg_count_is_transport_error() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        let rep = server.handle_call(call(&desc, "toy_create", vec![]));
        assert_eq!(rep.status, ReplyStatus::TransportError);
    }

    #[test]
    fn record_log_tracks_alloc_and_cancels_on_dealloc() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        server.handle_call(call(&desc, "toy_init", vec![Value::U32(0)]));
        let h = create_buf(&mut server, &desc, 32);
        write_buf(&mut server, &desc, h, b"x");
        assert_eq!(server.recorded_calls(), 3); // init + create + write
        server.handle_call(call(&desc, "toy_destroy", vec![Value::Handle(h)]));
        assert_eq!(server.recorded_calls(), 1); // only config stays
    }

    #[test]
    fn migration_snapshot_restore_preserves_handles_and_data() {
        let desc = toy_descriptor();
        let mut source = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(4096)));
        source.handle_call(call(&desc, "toy_init", vec![Value::U32(1)]));
        let h1 = create_buf(&mut source, &desc, 8);
        let h2 = create_buf(&mut source, &desc, 4);
        write_buf(&mut source, &desc, h1, b"migrate!");
        write_buf(&mut source, &desc, h2, b"tiny");

        let image = source.snapshot();
        source.teardown();

        // "Arrive" on a different host: fresh handler.
        let mut target = ApiServer::restore_with(
            Arc::clone(&desc),
            shared_handler(Box::new(ToyHandler::new(4096))),
            &image,
        )
        .unwrap();
        // The guest's old wire handles still resolve.
        assert_eq!(&read_buf(&mut target, &desc, h1, 8), b"migrate!");
        assert_eq!(&read_buf(&mut target, &desc, h2, 4), b"tiny");
    }

    #[test]
    fn migration_replays_modify_calls_in_order() {
        // The record log carries the *write* as a modify record, so even
        // without the buffer snapshot the data would be reconstructed; with
        // both, the latest contents win (restore happens after replay).
        let desc = toy_descriptor();
        let mut source = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        let h = create_buf(&mut source, &desc, 4);
        write_buf(&mut source, &desc, h, b"abcd");
        let image = source.snapshot();
        assert_eq!(image.records.len(), 2);
        assert_eq!(image.buffers.len(), 1);
        assert_eq!(image.buffers[0].1, b"abcd");
        let mut target = ApiServer::restore_with(
            Arc::clone(&desc),
            shared_handler(Box::new(ToyHandler::new(64))),
            &image,
        )
        .unwrap();
        assert_eq!(&read_buf(&mut target, &desc, h, 4), b"abcd");
    }

    #[test]
    fn failed_restore_frees_what_it_created_on_the_target() {
        let desc = toy_descriptor();
        let mut source = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(4096)));
        create_buf(&mut source, &desc, 8);
        create_buf(&mut source, &desc, 100);
        let image = source.snapshot();

        // The target device fits the first buffer but not the second, so
        // replay fails half-way — on a handler that outlives the attempt.
        let target = shared_handler(Box::new(ToyHandler::new(50)));
        let restored = ApiServer::restore_with(Arc::clone(&desc), Arc::clone(&target), &image);
        assert!(matches!(restored, Err(ServerError::Replay(_))));
        assert!(
            target.lock().snapshot_object("toy_buf", 1).is_none(),
            "the buffer the partial replay created must be freed again"
        );
    }

    #[test]
    fn oom_triggers_lru_swap_out_and_swap_in_restores() {
        let desc = toy_descriptor();
        // Device fits two 32-byte buffers.
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        let h1 = create_buf(&mut server, &desc, 32);
        let h2 = create_buf(&mut server, &desc, 32);
        write_buf(&mut server, &desc, h1, b"first-buffer-contents!!!");
        write_buf(&mut server, &desc, h2, b"second");
        // Third allocation overflows: the LRU buffer (h1) must be evicted.
        let h3 = create_buf(&mut server, &desc, 32);
        assert_eq!(server.stats().swap_outs, 1);
        write_buf(&mut server, &desc, h3, b"third");
        // Touching h1 swaps it back in (evicting is the server's concern;
        // the toy device grew room because h2/h3 stayed).
        // First make room: destroy h3.
        server.handle_call(call(&desc, "toy_destroy", vec![Value::Handle(h3)]));
        assert_eq!(
            &read_buf(&mut server, &desc, h1, 24),
            b"first-buffer-contents!!!"
        );
        assert_eq!(server.stats().swap_ins, 1);
        // h2 was untouched by the dance.
        assert_eq!(&read_buf(&mut server, &desc, h2, 6), b"second");
    }

    #[test]
    fn fault_in_under_device_oom_never_evicts_a_handle_the_call_needs() {
        let desc = toy_descriptor();
        // Device fits two 32-byte buffers and there is no capacity
        // ceiling, so only device OOM evicts.
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        let h1 = create_buf(&mut server, &desc, 32);
        let h2 = create_buf(&mut server, &desc, 32);
        write_buf(&mut server, &desc, h1, b"one");
        write_buf(&mut server, &desc, h2, b"two");
        let h3 = create_buf(&mut server, &desc, 32);
        assert_eq!(server.stats().swap_outs, 1, "h3 evicted h1");
        // Faulting h1 back in hits device OOM; the victim must be h2, the
        // one resident buffer the call does not name, never h3.
        let rep = server.handle_call(call(
            &desc,
            "toy_use",
            vec![Value::Handle(h1), Value::Handle(h3)],
        ));
        assert_eq!(rep.status, ReplyStatus::Ok);
        let stats = server.stats();
        assert_eq!((stats.swap_outs, stats.swap_ins), (2, 1));
        assert_eq!(stats.transport_errors, 0);
        assert_eq!(&read_buf(&mut server, &desc, h1, 3), b"one");
        assert_eq!(&read_buf(&mut server, &desc, h2, 3), b"two");
    }

    #[test]
    fn swap_victims_follow_recency_with_arguments_newer_than_their_closure() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        // Distinct sizes name the victim by the live bytes it takes away.
        let [b1, b2, b3, _b4] = [1, 2, 4, 8].map(|size| create_buf(&mut server, &desc, size));
        let two = |server: &mut ApiServer, name: &str, a: u64, b: u64| {
            let rep =
                server.handle_call(call(&desc, name, vec![Value::Handle(a), Value::Handle(b)]));
            assert_eq!(rep.status, ReplyStatus::Ok);
        };
        // b1 now holds b2 in a slot, so a call naming b1 reaches b2 too.
        bind(&mut server, &desc, b1, 0, b2);
        // Reached: the arguments b3 then b1, and b1's closure {b2}. The
        // closure is touched first, then the arguments in parameter order.
        two(&mut server, "toy_use", b3, b1);
        // Never touched since creation, b4 is the coldest of all.
        let mut victims = Vec::new();
        while server.live_device_mem() > 0 {
            let before = server.live_device_mem();
            assert!(server.swap_out_one_victim().unwrap());
            victims.push(before - server.live_device_mem());
        }
        assert_eq!(victims, vec![8, 2, 4, 1], "b4, then b2 < b3 < b1");
        assert!(
            !server.swap_out_one_victim().unwrap(),
            "nothing resident is left"
        );
    }

    #[test]
    fn a_rebound_slot_no_longer_pins_its_old_buffer() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        let [holder, a, b] = [1, 2, 4].map(|size| create_buf(&mut server, &desc, size));
        bind(&mut server, &desc, holder, 0, a);
        bind(&mut server, &desc, holder, 0, b);
        server.swap_out(a, "toy_buf").unwrap();
        read_buf(&mut server, &desc, holder, 1);
        assert_eq!(
            server.stats().swap_ins,
            0,
            "a call naming the holder faulted A in"
        );
        assert_eq!(server.live_device_mem(), 1 + 4, "A stays swapped");
    }

    #[test]
    fn live_device_mem_accounts_for_swapped_objects() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(256)));
        let h1 = create_buf(&mut server, &desc, 100);
        let _h2 = create_buf(&mut server, &desc, 50);
        assert_eq!(server.live_device_mem(), 150);
        server.swap_out(h1, "toy_buf").unwrap();
        assert_eq!(server.live_device_mem(), 50);
        server.swap_in(h1).unwrap();
        assert_eq!(server.live_device_mem(), 150);
    }

    #[test]
    fn over_quota_alloc_is_rejected_cleanly_and_lane_stays_healthy() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        server.set_mem_quota(Some(64));
        let h1 = create_buf(&mut server, &desc, 32);
        // Second allocation would put the VM at 96 B against a 64 B quota.
        let rep = server.handle_call(call(&desc, "toy_create", vec![Value::U64(64)]));
        assert_eq!(rep.status, ReplyStatus::QuotaExceeded);
        assert_eq!(server.stats().quota_rejects, 1);
        // The refusal must not poison the lane: an in-quota allocation
        // and ordinary traffic still work.
        let h2 = create_buf(&mut server, &desc, 32);
        write_buf(&mut server, &desc, h2, b"fine");
        assert_eq!(&read_buf(&mut server, &desc, h2, 4), b"fine");
        // Freeing memory restores headroom.
        server.handle_call(call(&desc, "toy_destroy", vec![Value::Handle(h1)]));
        let h3 = create_buf(&mut server, &desc, 32);
        assert_eq!(&read_buf(&mut server, &desc, h3, 1), &[0]);
    }

    #[test]
    fn quota_counts_swapped_bytes_so_swapping_cannot_launder_it() {
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        server.set_mem_quota(Some(64));
        let h1 = create_buf(&mut server, &desc, 32);
        let _h2 = create_buf(&mut server, &desc, 32);
        // Swap h1 out: the device has room again, but the VM still *owns*
        // 64 B — a further allocation must be refused by quota, not
        // satisfied by eviction.
        server.swap_out(h1, "toy_buf").unwrap();
        assert_eq!(server.live_device_mem(), 32);
        assert_eq!(server.owned_device_mem(), 64);
        let rep = server.handle_call(call(&desc, "toy_create", vec![Value::U64(16)]));
        assert_eq!(rep.status, ReplyStatus::QuotaExceeded);
    }

    #[test]
    fn memory_manager_tracks_residency_through_swap_cycle() {
        let desc = toy_descriptor();
        let mm = Arc::new(MemoryManager::new(None));
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        server.set_memory(Arc::clone(&mm), 7);
        let h1 = create_buf(&mut server, &desc, 32);
        write_buf(&mut server, &desc, h1, b"payload-one");
        let h2 = create_buf(&mut server, &desc, 32);
        write_buf(&mut server, &desc, h2, b"payload-two");
        assert_eq!(mm.stats().resident_bytes, 64);
        // Third allocation overflows the toy device: h1 is evicted.
        let h3 = create_buf(&mut server, &desc, 32);
        let s = mm.stats();
        assert_eq!(s.resident_bytes, 64);
        assert_eq!(s.swapped_bytes, 32);
        assert_eq!(s.live_bytes, 96);
        assert_eq!(s.evictions, 1);
        // Destroy h3 (making room) and touch h1: fault-in moves the bytes
        // back and the freed buffer left no residue.
        server.handle_call(call(&desc, "toy_destroy", vec![Value::Handle(h3)]));
        assert_eq!(&read_buf(&mut server, &desc, h1, 11), b"payload-one");
        let s = mm.stats();
        assert_eq!(s.resident_bytes, 64);
        assert_eq!(s.swapped_bytes, 0);
        assert_eq!(s.faults, 1);
        assert_eq!(mm.vm_bytes(7), 64);
    }

    #[test]
    fn capacity_pressure_evicts_proactively_before_device_oom() {
        let desc = toy_descriptor();
        // The toy device is huge; only the manager's capacity constrains
        // residency, so evictions here are purely pressure-driven.
        let mm = Arc::new(MemoryManager::new(Some(64)));
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(4096)));
        server.set_memory(Arc::clone(&mm), 0);
        let h1 = create_buf(&mut server, &desc, 32);
        write_buf(&mut server, &desc, h1, b"cold");
        let h2 = create_buf(&mut server, &desc, 32);
        write_buf(&mut server, &desc, h2, b"warm");
        let _h3 = create_buf(&mut server, &desc, 32);
        let s = mm.stats();
        assert!(s.evictions >= 1, "capacity pressure must evict");
        assert!(
            s.resident_bytes <= 64,
            "resident set must respect capacity, got {}",
            s.resident_bytes
        );
        // The evicted buffer faults back in transparently.
        assert_eq!(&read_buf(&mut server, &desc, h1, 4), b"cold");
        assert!(mm.stats().faults >= 1);
    }

    #[test]
    fn identical_swapped_payloads_dedup_across_servers_on_one_device() {
        let desc = toy_descriptor();
        let mm = Arc::new(MemoryManager::new(None));
        let handler = shared_handler(Box::new(ToyHandler::new(4096)));
        let mut a = ApiServer::with_shared(Arc::clone(&desc), handler.clone());
        let mut b = ApiServer::with_shared(Arc::clone(&desc), handler);
        a.set_memory(Arc::clone(&mm), 1);
        b.set_memory(Arc::clone(&mm), 2);
        let ha = create_buf(&mut a, &desc, 64);
        let hb = create_buf(&mut b, &desc, 64);
        a.handle_call(call(
            &desc,
            "toy_write",
            vec![
                Value::Handle(ha),
                Value::Bytes(vec![9u8; 64].into()),
                Value::U64(64),
            ],
        ));
        b.handle_call(call(
            &desc,
            "toy_write",
            vec![
                Value::Handle(hb),
                Value::Bytes(vec![9u8; 64].into()),
                Value::U64(64),
            ],
        ));
        a.swap_out(ha, "toy_buf").unwrap();
        b.swap_out(hb, "toy_buf").unwrap();
        let s = mm.stats();
        assert_eq!(s.swapped_bytes, 128, "accounting stays per-buffer");
        assert_eq!(s.host_store_bytes, 64, "identical content stored once");
        assert_eq!(s.dedup_hits, 1);
    }

    #[test]
    fn set_memory_after_restore_rematerializes_residency() {
        let desc = toy_descriptor();
        let mut source = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(4096)));
        let h1 = create_buf(&mut source, &desc, 48);
        write_buf(&mut source, &desc, h1, b"carried");
        let image = source.snapshot();
        source.teardown();
        let mut target = ApiServer::restore_with(
            Arc::clone(&desc),
            shared_handler(Box::new(ToyHandler::new(4096))),
            &image,
        )
        .unwrap();
        let mm = Arc::new(MemoryManager::new(None));
        target.set_memory(Arc::clone(&mm), 3);
        let s = mm.stats();
        assert_eq!(s.resident_bytes, 48, "restored buffers register resident");
        assert_eq!(s.live_bytes, 48);
        assert_eq!(&read_buf(&mut target, &desc, h1, 7), b"carried");
    }

    /// Sends `msg` through `serve_one` and drains every reply available on
    /// the client end.
    fn pump(
        server: &mut ApiServer,
        server_end: &dyn ava_transport::Transport,
        client: &dyn ava_transport::Transport,
        msg: ava_wire::Message,
    ) -> Vec<ava_wire::CallReply> {
        server.serve_one(server_end, msg).unwrap();
        let mut replies = Vec::new();
        while let Ok(Some(ava_wire::Message::Reply(rep))) = client.try_recv() {
            replies.push(rep);
        }
        replies
    }

    fn write_req(desc: &ApiDescriptor, call_id: u64, h: u64, arg: Value, len: u64) -> CallRequest {
        CallRequest {
            call_id,
            fn_id: desc.by_name("toy_write").unwrap().id,
            mode: CallMode::Sync,
            args: vec![Value::Handle(h), arg, Value::U64(len)],
            budget_us: 0,
        }
    }

    #[test]
    fn cached_bytes_rematerialize_from_the_payload_mirror() {
        use ava_transport::{CostModel, TransportKind};
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        server.set_payload_cache(8, 4);
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let h = create_buf(&mut server, &desc, 64);

        let payload = b"content-addressed".to_vec();
        let digest = ava_wire::digest64(&payload);
        // Full transfer primes the mirror.
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                1,
                h,
                Value::Bytes(payload.clone().into()),
                payload.len() as u64,
            )),
        );
        assert_eq!(reps[0].status, ReplyStatus::Ok);
        // Digest-only reference rematerializes server-side.
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                2,
                h,
                Value::CachedBytes {
                    digest,
                    len: payload.len() as u64,
                },
                payload.len() as u64,
            )),
        );
        assert_eq!(reps[0].status, ReplyStatus::Ok);
        assert_eq!(server.stats().payload_cache_hits, 1);
        assert_eq!(server.stats().payload_cache_misses, 0);
        assert_eq!(
            read_buf(&mut server, &desc, h, payload.len() as u64),
            payload
        );
    }

    #[test]
    fn unknown_digest_nacks_and_holds_later_calls_in_order() {
        use ava_transport::{CostModel, TransportKind};
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        server.set_payload_cache(8, 4);
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let h = create_buf(&mut server, &desc, 64);

        let first = b"AAAA-first".to_vec();
        let second = b"BBBB-second".to_vec();
        // Call 1 references a digest the server has never seen.
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                1,
                h,
                Value::CachedBytes {
                    digest: ava_wire::digest64(&first),
                    len: first.len() as u64,
                },
                first.len() as u64,
            )),
        );
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].status, ReplyStatus::CacheMiss);
        assert_eq!(reps[0].call_id, 1);
        // Call 2 arrives while the resend is outstanding: held, no reply,
        // not executed.
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                2,
                h,
                Value::Bytes(second.clone().into()),
                second.len() as u64,
            )),
        );
        assert!(reps.is_empty(), "held call must not be answered: {reps:?}");
        assert_eq!(server.stats().calls, 1, "only toy_create has executed");
        // The full-payload resend unblocks call 1 and then drains call 2.
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                1,
                h,
                Value::Bytes(first.clone().into()),
                first.len() as u64,
            )),
        );
        assert_eq!(reps.len(), 2);
        assert_eq!((reps[0].call_id, reps[0].status), (1, ReplyStatus::Ok));
        assert_eq!((reps[1].call_id, reps[1].status), (2, ReplyStatus::Ok));
        // Call 2 executed *after* call 1: the buffer holds call 2's bytes.
        assert_eq!(read_buf(&mut server, &desc, h, second.len() as u64), second);
        assert_eq!(server.stats().payload_cache_misses, 1);
    }

    #[test]
    fn expired_budget_is_discarded_without_dedup_so_a_retry_executes() {
        use ava_transport::{CostModel, TransportKind};
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        server.set_payload_cache(8, 4);
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let h = create_buf(&mut server, &desc, 64);

        let stall = b"stall-payload".to_vec();
        let late = b"LATE".to_vec();
        // Call 1 stalls the lane on an unknown digest.
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                1,
                h,
                Value::CachedBytes {
                    digest: ava_wire::digest64(&stall),
                    len: stall.len() as u64,
                },
                stall.len() as u64,
            )),
        );
        assert_eq!(reps[0].status, ReplyStatus::CacheMiss);
        // Call 2 arrives with a 5ms budget and is held behind the stall.
        let mut deadlined = write_req(&desc, 2, h, Value::Bytes(late.clone().into()), 4);
        deadlined.budget_us = 5_000;
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(deadlined),
        );
        assert!(reps.is_empty(), "held call must not be answered: {reps:?}");
        // The stall outlives call 2's budget.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                1,
                h,
                Value::Bytes(stall.clone().into()),
                stall.len() as u64,
            )),
        );
        assert_eq!(reps.len(), 2);
        assert_eq!((reps[0].call_id, reps[0].status), (1, ReplyStatus::Ok));
        assert_eq!(
            (reps[1].call_id, reps[1].status),
            (2, ReplyStatus::Overloaded),
            "expired held call is discarded, not executed"
        );
        assert_eq!(server.stats().expired_discards, 1);
        assert_eq!(server.stats().calls, 2, "only toy_create and call 1 ran");
        // The discard skipped dedup state: a retry of call 2 with a fresh
        // budget executes for real instead of being suppressed.
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                2,
                h,
                Value::Bytes(late.clone().into()),
                late.len() as u64,
            )),
        );
        assert_eq!((reps[0].call_id, reps[0].status), (2, ReplyStatus::Ok));
        assert_eq!(server.stats().duplicates_suppressed, 0);
        assert_eq!(read_buf(&mut server, &desc, h, late.len() as u64), late);
    }

    #[test]
    fn clearing_the_mirror_forces_a_nack_on_next_cached_reference() {
        use ava_transport::{CostModel, TransportKind};
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        server.set_payload_cache(8, 4);
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let h = create_buf(&mut server, &desc, 64);

        let payload = b"soon-to-be-forgotten".to_vec();
        let digest = ava_wire::digest64(&payload);
        pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                1,
                h,
                Value::Bytes(payload.clone().into()),
                payload.len() as u64,
            )),
        );
        server.clear_payload_cache();
        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                2,
                h,
                Value::CachedBytes {
                    digest,
                    len: payload.len() as u64,
                },
                payload.len() as u64,
            )),
        );
        assert_eq!(reps[0].status, ReplyStatus::CacheMiss);
        assert_eq!(server.stats().payload_cache_misses, 1);
    }

    fn create_req(desc: &ApiDescriptor, call_id: u64, size: u64) -> CallRequest {
        CallRequest {
            call_id,
            fn_id: desc.by_name("toy_create").unwrap().id,
            mode: CallMode::Sync,
            args: vec![Value::U64(size)],
            budget_us: 0,
        }
    }

    #[test]
    fn duplicate_sync_frames_execute_once_and_replay_the_reply() {
        use ava_transport::{CostModel, TransportKind};
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();

        let req = create_req(&desc, 1, 8);
        let first = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(req.clone()),
        );
        assert_eq!(first[0].status, ReplyStatus::Ok);
        // A transport-duplicated copy of the same frame: answered from the
        // reply cache, with the *same* wire handle — re-execution would
        // have minted a second buffer.
        let dup = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(req),
        );
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0], first[0]);
        assert_eq!(server.stats().calls, 1, "the create ran exactly once");
        assert_eq!(server.stats().duplicates_suppressed, 1);
        assert_eq!(server.recorded_calls(), 1, "one alloc record, not two");
    }

    #[test]
    fn duplicate_async_frames_are_suppressed_silently() {
        use ava_transport::{CostModel, TransportKind};
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let req = CallRequest {
            call_id: 1,
            fn_id: desc.by_name("toy_init").unwrap().id,
            mode: CallMode::Async,
            args: vec![Value::U32(0)],
            budget_us: 0,
        };
        for _ in 0..2 {
            let reps = pump(
                &mut server,
                server_end.as_ref(),
                client.as_ref(),
                ava_wire::Message::Call(req.clone()),
            );
            assert!(reps.is_empty(), "async success never replies: {reps:?}");
        }
        assert_eq!(server.stats().calls, 1);
        assert_eq!(server.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn heartbeats_are_acknowledged() {
        use ava_transport::{CostModel, TransportKind};
        use ava_wire::ControlMessage;
        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        server
            .serve_one(
                server_end.as_ref(),
                ava_wire::Message::Control(ControlMessage::Heartbeat(42)),
            )
            .unwrap();
        assert_eq!(
            client.recv().unwrap(),
            ava_wire::Message::Control(ControlMessage::HeartbeatAck(42))
        );
    }

    #[test]
    fn journal_replay_rebuilds_a_crashed_server() {
        use ava_transport::{CostModel, TransportKind};
        use std::sync::Mutex;
        let desc = toy_descriptor();
        let journal = Arc::new(Mutex::new(CallJournal::new()));
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        server.set_journal(Arc::clone(&journal));
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();

        let reps = pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(create_req(&desc, 1, 8)),
        );
        let h = reps[0].ret.as_handle().expect("created handle");
        pump(
            &mut server,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                2,
                h,
                Value::Bytes(b"journal!".to_vec().into()),
                8,
            )),
        );
        // Crash: the server vanishes without any chance to snapshot.
        drop(server);

        let entries = journal.lock().unwrap().entries().to_vec();
        let mut fresh = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        assert_eq!(fresh.replay_journal(&entries), 2);
        // The guest's wire handle survived and the kernel-written contents
        // were reconstructed by re-execution, not from a snapshot.
        assert_eq!(&read_buf(&mut fresh, &desc, h, 8), b"journal!");
        // A guest retry of a pre-crash call is answered, not re-executed.
        let reps = pump(
            &mut fresh,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(write_req(
                &desc,
                2,
                h,
                Value::Bytes(b"XXXXXXXX".to_vec().into()),
                8,
            )),
        );
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].status, ReplyStatus::Ok);
        assert_eq!(&read_buf(&mut fresh, &desc, h, 8), b"journal!");
        assert_eq!(fresh.stats().duplicates_suppressed, 1);
        assert!(journal.lock().unwrap().call_ids_unique());
    }

    fn read_req(desc: &ApiDescriptor, call_id: u64, h: u64, len: u64) -> CallRequest {
        CallRequest {
            call_id,
            fn_id: desc.by_name("toy_read").unwrap().id,
            mode: CallMode::Sync,
            args: vec![Value::Handle(h), Value::Null, Value::U64(len)],
            budget_us: 0,
        }
    }

    #[test]
    fn a_readback_retried_after_a_crash_is_answered_from_the_recovered_reply_cache() {
        use ava_transport::{CostModel, TransportKind};
        use std::sync::Mutex;
        let desc = toy_descriptor();
        let journal = Arc::new(Mutex::new(CallJournal::new()));
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        server.set_journal(Arc::clone(&journal));
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let send = |server: &mut ApiServer, req: CallRequest| {
            pump(
                server,
                server_end.as_ref(),
                client.as_ref(),
                ava_wire::Message::Call(req),
            )
        };

        let h = send(&mut server, create_req(&desc, 1, 8))[0]
            .ret
            .as_handle()
            .unwrap();
        send(
            &mut server,
            write_req(&desc, 2, h, Value::Bytes(b"before!!".to_vec().into()), 8),
        );
        // More sync readbacks than the reply cache holds, then the one the
        // guest will retry.
        let last = 3 + record::REPLY_CACHE_CAP as u64;
        for id in 3..=last {
            let reps = send(&mut server, read_req(&desc, id, h, 8));
            assert_eq!(&reps[0].outputs[0].1.as_bytes().unwrap()[..], b"before!!");
        }
        // Crash right after the readback executed; its reply never arrived.
        drop(server);

        let entries = journal.lock().unwrap().entries().to_vec();
        assert_eq!(entries.len() as u64, last);
        let with_outputs = entries
            .iter()
            .filter(|e| !e.reply.outputs.is_empty())
            .count();
        assert_eq!(with_outputs, record::REPLY_CACHE_CAP);
        assert!(entries[2].reply.outputs.is_empty(), "the oldest readback");
        assert!(!entries[last as usize - 1].reply.outputs.is_empty());

        let mut fresh = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        assert_eq!(fresh.replay_journal(&entries), last);
        // Device state moves on, so a re-executed read would see new bytes.
        send(
            &mut fresh,
            write_req(
                &desc,
                last + 1,
                h,
                Value::Bytes(b"after!!!".to_vec().into()),
                8,
            ),
        );
        let retry = send(&mut fresh, read_req(&desc, last, h, 8));
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].status, ReplyStatus::Ok);
        assert_eq!(&retry[0].outputs[0].1.as_bytes().unwrap()[..], b"before!!");
        assert_eq!(fresh.stats().duplicates_suppressed, 1);
        assert_eq!(&read_buf(&mut fresh, &desc, h, 8), b"after!!!");
    }

    #[test]
    fn migration_image_carries_dedup_state() {
        use ava_transport::{CostModel, TransportKind};
        let desc = toy_descriptor();
        let mut source = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(1024)));
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let reps = pump(
            &mut source,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(create_req(&desc, 1, 8)),
        );
        assert_eq!(reps[0].status, ReplyStatus::Ok);
        let image = source.snapshot();
        source.teardown();
        let mut target = ApiServer::restore_with(
            Arc::clone(&desc),
            shared_handler(Box::new(ToyHandler::new(1024))),
            &image,
        )
        .unwrap();
        // A retry that straddled the migration is still deduplicated.
        let dup = pump(
            &mut target,
            server_end.as_ref(),
            client.as_ref(),
            ava_wire::Message::Call(create_req(&desc, 1, 8)),
        );
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0], reps[0]);
        assert_eq!(target.stats().duplicates_suppressed, 1);
        assert_eq!(target.stats().calls, 0, "nothing re-executed post-restore");
    }

    /// One step of the slot-log property test. Each `usize` picks one of
    /// the live buffers; a write covers the first `len` bytes.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Create(u64),
        Write {
            buf: usize,
            byte: u8,
            len: u64,
        },
        Bind {
            holder: usize,
            slot: u32,
            dep: usize,
        },
        Retain(usize),
        Release(usize),
        Destroy(usize),
    }

    fn arb_op() -> proptest::prelude::BoxedStrategy<Op> {
        use proptest::prelude::*;
        let bind = (any::<usize>(), 0u32..3, any::<usize>());
        prop_oneof![
            (1u64..=8).prop_map(Op::Create),
            (any::<usize>(), any::<u8>(), 1u64..=8).prop_map(|(buf, byte, len)| Op::Write {
                buf,
                byte,
                len
            }),
            bind.prop_map(|(holder, slot, dep)| Op::Bind { holder, slot, dep }),
            any::<usize>().prop_map(Op::Retain),
            any::<usize>().prop_map(Op::Release),
            any::<usize>().prop_map(Op::Destroy),
        ]
    }

    /// A toy VM as the test sees it: each live buffer's (wire handle,
    /// size, references), and the records the server must hold for them.
    #[derive(Default)]
    struct Model {
        live: Vec<(u64, u64, u32)>,
        /// Buffers written by `toy_write` (one slot each).
        written: std::collections::BTreeSet<u64>,
        /// (holder, slot) → the buffer bound there.
        bound: BTreeMap<(u64, u32), u64>,
    }

    impl Model {
        /// The live buffer `pick` names, if any buffer lives.
        fn pick(&self, pick: usize) -> Option<u64> {
            (!self.live.is_empty()).then(|| self.live[pick % self.live.len()].0)
        }

        /// The request for `op`, or `None` when it names no live buffer.
        fn request(&self, op: Op) -> Option<(&'static str, Vec<Value>)> {
            let handle = |pick| self.pick(pick).map(Value::Handle);
            Some(match op {
                Op::Create(size) => ("toy_create", vec![Value::U64(size)]),
                Op::Write { buf, byte, len } => {
                    let data = Value::Bytes(vec![byte; len as usize].into());
                    ("toy_write", vec![handle(buf)?, data, Value::U64(len)])
                }
                Op::Bind { holder, slot, dep } => {
                    let args = vec![handle(holder)?, Value::U32(slot), handle(dep)?];
                    ("toy_bind", args)
                }
                Op::Retain(buf) => ("toy_retain", vec![handle(buf)?]),
                Op::Release(buf) => ("toy_release", vec![handle(buf)?]),
                Op::Destroy(buf) => ("toy_destroy", vec![handle(buf)?]),
            })
        }

        /// Applies an executed request and its reply.
        fn apply(&mut self, name: &str, args: &[Value], reply: &ava_wire::CallReply) {
            let wire = |i: usize| args[i].as_handle().unwrap();
            let at = |live: &[(u64, u64, u32)], w| live.iter().position(|e| e.0 == w).unwrap();
            let dies = match name {
                "toy_create" => {
                    let size = args[0].as_u64().unwrap();
                    self.live.push((reply.ret.as_handle().unwrap(), size, 1));
                    None
                }
                "toy_write" => {
                    self.written.insert(wire(0));
                    None
                }
                "toy_bind" => {
                    let slot = args[1].as_u64().unwrap() as u32;
                    self.bound.insert((wire(0), slot), wire(2));
                    None
                }
                "toy_retain" => {
                    let i = at(&self.live, wire(0));
                    self.live[i].2 += 1;
                    None
                }
                "toy_release" => {
                    let i = at(&self.live, wire(0));
                    self.live[i].2 -= 1;
                    (self.live[i].2 == 0).then(|| wire(0))
                }
                _ => Some(wire(0)),
            };
            if let Some(dead) = dies {
                self.live.retain(|e| e.0 != dead);
                self.written.remove(&dead);
                self.bound
                    .retain(|&(holder, _), dep| holder != dead && *dep != dead);
            }
        }

        /// Records a slot log holds: one per live buffer and one per slot.
        fn records(&self) -> usize {
            self.live.len() + self.written.len() + self.bound.len()
        }

        /// What a server reads back: each live buffer's contents and the
        /// contents of the buffers bound in its slots.
        fn read_back(&self, server: &mut ApiServer, desc: &ApiDescriptor) -> Vec<[Vec<u8>; 2]> {
            self.live
                .iter()
                .map(|&(h, size, _)| {
                    let gather = vec![Value::Handle(h), Value::Null, Value::U64(64)];
                    let rep = server.handle_call(call(desc, "toy_gather", gather));
                    let gathered = rep.outputs[0].1.as_bytes().unwrap().to_vec();
                    [read_buf(server, desc, h, size), gathered]
                })
                .collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The slot log keeps one record per live object and slot, yet a
        /// server restored from its image reads back what replaying every
        /// call the VM made does (the crash-recovery path, the reference).
        #[test]
        fn the_slot_log_restores_what_replaying_the_whole_journal_does(
            ops in proptest::collection::vec(arb_op(), 1..60),
        ) {
            use ava_transport::{CostModel, TransportKind};
            use std::sync::Mutex;
            let desc = toy_descriptor();
            let device = || Box::new(ToyHandler::new(1 << 16));
            let journal = Arc::new(Mutex::new(CallJournal::new()));
            let mut server = ApiServer::new(Arc::clone(&desc), device());
            server.set_journal(Arc::clone(&journal));
            let (client, server_end) =
                ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
            let mut model = Model::default();
            for (call_id, op) in (1..).zip(ops) {
                let Some((name, args)) = model.request(op) else { continue };
                let req = CallRequest {
                    call_id,
                    fn_id: desc.by_name(name).unwrap().id,
                    mode: CallMode::Sync,
                    args: args.clone(),
                    budget_us: 0,
                };
                let msg = ava_wire::Message::Call(req);
                let reps = pump(&mut server, server_end.as_ref(), client.as_ref(), msg);
                proptest::prop_assert_eq!(reps[0].status, ReplyStatus::Ok);
                model.apply(name, &args, &reps[0]);
            }
            proptest::prop_assert_eq!(server.recorded_calls(), model.records());
            let image = server.snapshot();
            let original = model.read_back(&mut server, &desc);

            let entries = journal.lock().unwrap().entries().to_vec();
            let mut replayed = ApiServer::new(Arc::clone(&desc), device());
            replayed.replay_journal(&entries);
            let reference = model.read_back(&mut replayed, &desc);
            proptest::prop_assert_eq!(&original, &reference);

            let mut restored =
                ApiServer::restore_with(Arc::clone(&desc), shared_handler(device()), &image)
                    .unwrap();
            proptest::prop_assert_eq!(model.read_back(&mut restored, &desc), reference);
            proptest::prop_assert_eq!(restored.recorded_calls(), model.records());
        }
    }

    #[test]
    fn serve_loop_answers_over_transport() {
        use ava_transport::{CostModel, TransportKind};
        use std::sync::atomic::AtomicBool;

        let desc = toy_descriptor();
        let mut server = ApiServer::new(Arc::clone(&desc), Box::new(ToyHandler::new(64)));
        let (client, server_end) =
            ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            server.serve(server_end.as_ref(), &stop2);
            server
        });
        let req = call(&desc, "toy_create", vec![Value::U64(8)]);
        client.send(&ava_wire::Message::Call(req)).unwrap();
        match client.recv().unwrap() {
            ava_wire::Message::Reply(rep) => {
                assert_eq!(rep.status, ReplyStatus::Ok);
                assert!(rep.ret.as_handle().is_some());
            }
            other => panic!("{other:?}"),
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        let server = t.join().unwrap();
        assert_eq!(server.stats().calls, 1);
    }
}
