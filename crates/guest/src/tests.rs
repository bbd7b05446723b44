use super::*;
use ava_spec::{compile_spec, LowerOptions, MapResolver};
use ava_transport::{CostModel, Transport, TransportKind, TransportStats};
use ava_wire::{digest64, CallMode, CallReply, CallRequest, DigestLru, ReplyStatus};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

const SPEC: &str = r#"
api("toy", 1);
#define TOY_OK 0
#define TOY_FAIL -7
typedef int toy_status;
typedef struct _toy_buf *toy_buf;
type(toy_status) { success(TOY_OK); }
toy_status toy_init(unsigned int flags) { sync; }
toy_buf toy_create(size_t size) { }
toy_status toy_poke(toy_buf buf, unsigned int v) { async; }
toy_status toy_write(toy_buf buf, const void *data, size_t data_size) {
  async;
  parameter(data) { buffer(data_size); }
}
toy_status toy_read(toy_buf buf, void *out, size_t out_size) {
  parameter(out) { out; buffer(out_size); }
}
toy_status toy_store(toy_buf buf, const void *data, size_t data_size) {
  sync;
  parameter(data) { buffer(data_size); }
}
"#;

fn descriptor() -> Arc<ApiDescriptor> {
    Arc::new(compile_spec(SPEC, &MapResolver::new(), LowerOptions::default()).unwrap())
}

/// A scripted fake server: executes calls with canned behaviour.
fn spawn_server(
    server: BoxedTransport,
    fail_poke: bool,
) -> std::thread::JoinHandle<Vec<CallRequest>> {
    std::thread::spawn(move || {
        let mut seen = Vec::new();
        while let Ok(msg) = server.recv() {
            let reqs = match msg {
                Message::Call(req) => vec![req],
                Message::Batch(reqs) => reqs,
                Message::Control(ControlMessage::Shutdown) => break,
                Message::Control(ControlMessage::Heartbeat(n)) => {
                    let ack = Message::Control(ControlMessage::HeartbeatAck(n));
                    if server.send(&ack).is_err() {
                        return seen;
                    }
                    continue;
                }
                _ => continue,
            };
            for req in reqs {
                let mode = req.mode;
                let (ret, outputs) = match req.fn_id {
                    0 => (Value::I32(0), vec![]),                              // toy_init
                    1 => (Value::Handle(0x4000_0001), vec![]),                 // toy_create
                    2 => (Value::I32(if fail_poke { -7 } else { 0 }), vec![]), // toy_poke
                    3 => (Value::I32(0), vec![]),                              // toy_write
                    4 => {
                        let n = req.args[2].as_u64().unwrap_or(0) as usize;
                        (
                            Value::I32(0),
                            vec![(1u32, Value::Bytes(vec![0xEE; n].into()))],
                        )
                    }
                    _ => (Value::I32(-1), vec![]),
                };
                seen.push(req);
                let reply = ava_wire::CallReply {
                    call_id: seen.last().expect("just pushed").call_id,
                    status: ReplyStatus::Ok,
                    ret,
                    outputs,
                };
                let _ = mode;
                if server.send(&Message::Reply(reply)).is_err() {
                    return seen;
                }
            }
        }
        seen
    })
}

fn setup(
    fail_poke: bool,
    batch: usize,
) -> (GuestLibrary, std::thread::JoinHandle<Vec<CallRequest>>) {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let server = spawn_server(server_end, fail_poke);
    let lib = GuestLibrary::new(
        descriptor(),
        guest_end,
        GuestConfig {
            batch_max: batch,
            ..GuestConfig::default()
        },
    );
    (lib, server)
}

fn shutdown(lib: GuestLibrary) {
    // Dropping the transport closes the channel and stops the server.
    drop(lib);
}

#[test]
fn sync_call_round_trips() {
    let (lib, server) = setup(false, 0);
    let result = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(result.ret, Value::I32(0));
    assert_eq!(lib.stats().sync_calls, 1);
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn handle_return_flows_back() {
    let (lib, server) = setup(false, 0);
    let result = lib.call("toy_create", vec![Value::U64(64)]).unwrap();
    assert_eq!(result.ret, Value::Handle(0x4000_0001));
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn async_call_returns_synthesized_success_immediately() {
    let (lib, server) = setup(false, 0);
    let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
    let result = lib
        .call("toy_poke", vec![h.clone(), Value::U32(5)])
        .unwrap();
    assert_eq!(result.ret, Value::I32(0), "synthesized TOY_OK");
    assert_eq!(lib.stats().async_calls, 1);
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn async_failure_is_delivered_by_next_sync_call() {
    let (lib, server) = setup(true, 0);
    let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
    // Async poke fails server-side with TOY_FAIL (-7), but the guest
    // sees immediate success.
    let r = lib
        .call("toy_poke", vec![h.clone(), Value::U32(1)])
        .unwrap();
    assert_eq!(r.ret, Value::I32(0));
    // The next synchronous status call delivers the deferred error.
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(-7), "deferred error surfaces here");
    assert_eq!(lib.stats().deferred_errors_delivered, 1);
    // And it is delivered exactly once.
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(0));
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn out_buffer_comes_back() {
    let (lib, server) = setup(false, 0);
    let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
    let r = lib
        .call("toy_read", vec![h, Value::Null, Value::U64(4)])
        .unwrap();
    assert_eq!(
        r.output(1).unwrap(),
        &Value::Bytes(vec![0xEE, 0xEE, 0xEE, 0xEE].into())
    );
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn batching_coalesces_async_calls() {
    let (lib, server) = setup(false, 16);
    let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
    for i in 0..5 {
        lib.call("toy_poke", vec![h.clone(), Value::U32(i)])
            .unwrap();
    }
    assert_eq!(lib.pending_async(), 5);
    // A sync call flushes the batch and orders after it.
    lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(lib.stats().batched_calls, 5);
    assert_eq!(lib.pending_async(), 0, "the sync reply retired them all");
    shutdown(lib);
    let seen = server.join().unwrap();
    // Server saw create, then the 5 pokes, then init — in order.
    let names: Vec<u32> = seen.iter().map(|r| r.fn_id).collect();
    assert_eq!(names, vec![1, 2, 2, 2, 2, 2, 0]);
}

#[test]
fn batch_flushes_when_full() {
    let (lib, server) = setup(false, 2);
    let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
    lib.call("toy_poke", vec![h.clone(), Value::U32(0)])
        .unwrap();
    lib.call("toy_poke", vec![h.clone(), Value::U32(1)])
        .unwrap();
    // Batch max is 2: both pokes must already be on the wire without
    // any sync call. Give the server a moment, then check stats only
    // (transport visibility is covered by the ordering test above).
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert_eq!(lib.stats().batched_calls, 2);
    shutdown(lib);
    let seen = server.join().unwrap();
    assert_eq!(seen.len(), 3);
}

#[test]
fn buffer_size_verification_catches_mismatch() {
    let (lib, server) = setup(false, 0);
    let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
    // data_size says 4 but we pass 3 bytes.
    let err = lib
        .call(
            "toy_write",
            vec![h, Value::Bytes(vec![1, 2, 3].into()), Value::U64(4)],
        )
        .unwrap_err();
    assert!(matches!(err, GuestError::BadArgument(_)), "{err}");
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn unknown_function_rejected_locally() {
    let (lib, server) = setup(false, 0);
    assert!(matches!(
        lib.call("toy_nonexistent", vec![]).unwrap_err(),
        GuestError::UnknownFunction(_)
    ));
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn wrong_arity_rejected_locally() {
    let (lib, server) = setup(false, 0);
    assert!(matches!(
        lib.call("toy_init", vec![]).unwrap_err(),
        GuestError::BadArgument(_)
    ));
    shutdown(lib);
    server.join().unwrap();
}

/// The shape of one observed call-carrying frame: `(was_batch, fn_ids)`.
type FrameLog = Vec<(bool, Vec<u32>)>;

/// Records the shape of every call-carrying frame as
/// `(was_batch, fn_ids)` in arrival order, replying to each member.
fn spawn_frame_server(server: BoxedTransport) -> std::thread::JoinHandle<FrameLog> {
    std::thread::spawn(move || {
        let mut frames = Vec::new();
        while let Ok(msg) = server.recv() {
            let (was_batch, reqs) = match msg {
                Message::Call(req) => (false, vec![req]),
                Message::Batch(reqs) => (true, reqs),
                Message::Control(ControlMessage::Shutdown) => break,
                _ => continue,
            };
            frames.push((was_batch, reqs.iter().map(|r| r.fn_id).collect()));
            for req in reqs {
                let ret = match req.fn_id {
                    1 => Value::Handle(0x4000_0001), // toy_create
                    _ => Value::I32(0),
                };
                let reply = ava_wire::CallReply {
                    call_id: req.call_id,
                    status: ReplyStatus::Ok,
                    ret,
                    outputs: vec![],
                };
                if server.send(&Message::Reply(reply)).is_err() {
                    return frames;
                }
            }
        }
        frames
    })
}

fn setup_frames(config: GuestConfig) -> (GuestLibrary, std::thread::JoinHandle<FrameLog>) {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let server = spawn_frame_server(server_end);
    let lib = GuestLibrary::new(descriptor(), guest_end, config);
    (lib, server)
}

#[test]
fn sync_call_rides_in_the_batch_frame() {
    let (lib, server) = setup_frames(GuestConfig {
        batch_max_calls: 16,
        ..GuestConfig::default()
    });
    let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
    for i in 0..3 {
        lib.call("toy_poke", vec![h.clone(), Value::U32(i)])
            .unwrap();
    }
    lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(lib.stats().doorbells, 2, "create + one coalesced frame");
    shutdown(lib);
    let frames = server.join().unwrap();
    // The sync init shares a single frame with the three pokes.
    assert_eq!(frames, vec![(false, vec![1]), (true, vec![2, 2, 2, 0])]);
}

#[test]
fn explicit_flush_drains_partial_batches() {
    let (lib, server) = setup_frames(GuestConfig {
        batch_max_calls: 16,
        ..GuestConfig::default()
    });
    let h = lib.call("toy_create", vec![Value::U64(8)]).unwrap().ret;
    lib.call("toy_poke", vec![h.clone(), Value::U32(0)])
        .unwrap();
    lib.flush().unwrap();
    lib.call("toy_poke", vec![h.clone(), Value::U32(1)])
        .unwrap();
    lib.call("toy_poke", vec![h.clone(), Value::U32(2)])
        .unwrap();
    lib.flush().unwrap();
    lib.flush().unwrap(); // a second flush of an empty batch is a no-op
    assert_eq!(lib.stats().doorbells, 3);
    // A trailing sync call (on an empty batch) both proves single
    // calls skip batch framing and serializes against the server
    // before shutdown.
    lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    shutdown(lib);
    let frames = server.join().unwrap();
    // A flushed batch of one goes out as a plain call (no batch
    // framing penalty for singles); two or more as a batch.
    assert_eq!(
        frames,
        vec![
            (false, vec![1]),
            (false, vec![2]),
            (true, vec![2, 2]),
            (false, vec![0])
        ]
    );
}

#[test]
fn stale_batch_age_flushes_before_the_next_call_joins() {
    let (lib, server) = setup_frames(GuestConfig {
        batch_max_calls: 16,
        batch_max_delay_us: 500,
        ..GuestConfig::default()
    });
    let h = Value::Handle(0x77); // scripted server: any handle works
    lib.call("toy_poke", vec![h.clone(), Value::U32(0)])
        .unwrap();
    std::thread::sleep(Duration::from_millis(5));
    lib.call("toy_poke", vec![h.clone(), Value::U32(1)])
        .unwrap();
    lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    shutdown(lib);
    let frames = server.join().unwrap();
    // The first poke aged out and went alone; the second coalesced
    // with the flushing sync call.
    assert_eq!(frames, vec![(false, vec![2]), (true, vec![2, 0])]);
}

/// What the lossy server does with the frames it loses.
#[derive(Debug, Clone, Copy)]
enum Loss {
    /// Swallowed in transit.
    Drop,
    /// Shed the way an overloaded router sheds a batch: every member, async
    /// ones included, is answered `Overloaded` and never executes.
    Shed,
}

/// A lossy server that loses the first `lost_frames` call-carrying
/// frames whole (batches included), then executes with call-id
/// highwater dedup — replying only to sync members, like the real
/// server suppresses async successes.
fn spawn_lossy_batch_server(
    server: BoxedTransport,
    lost_frames: usize,
    loss: Loss,
) -> std::thread::JoinHandle<Vec<CallId>> {
    std::thread::spawn(move || {
        let mut lost = 0usize;
        let mut highwater = 0u64;
        let mut executed = Vec::new();
        while let Ok(msg) = server.recv() {
            let reqs = match msg {
                Message::Call(req) => vec![req],
                Message::Batch(reqs) => reqs,
                _ => continue,
            };
            if lost < lost_frames {
                lost += 1;
                if let Loss::Shed = loss {
                    for req in &reqs {
                        let shed = Message::Reply(CallReply::overloaded(req.call_id));
                        if server.send(&shed).is_err() {
                            return executed;
                        }
                    }
                }
                continue;
            }
            for req in reqs {
                if req.call_id > highwater {
                    highwater = req.call_id;
                    executed.push(req.call_id);
                }
                let reply = ava_wire::CallReply {
                    call_id: req.call_id,
                    status: ReplyStatus::Ok,
                    ret: Value::I32(0),
                    outputs: vec![],
                };
                if req.mode == CallMode::Sync && server.send(&Message::Reply(reply)).is_err() {
                    return executed;
                }
            }
        }
        executed
    })
}

#[test]
fn dropped_batch_is_retried_as_a_unit() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let server = spawn_lossy_batch_server(server_end, 1, Loss::Drop);
    let config = GuestConfig {
        batch_max_calls: 16,
        ..deadline_config(40, 3)
    };
    let lib = GuestLibrary::new(descriptor(), guest_end, config);
    let h = Value::Handle(0x77);
    lib.call("toy_poke", vec![h.clone(), Value::U32(1)])
        .unwrap();
    lib.call("toy_poke", vec![h.clone(), Value::U32(2)])
        .unwrap();
    // The sync call coalesces with both pokes; the whole frame is
    // dropped in transit and must be re-delivered as one unit.
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(0));
    assert!(lib.stats().retries >= 1, "the dropped batch forced a retry");
    shutdown(lib);
    let executed = server.join().unwrap();
    assert_eq!(executed.len(), 3, "both pokes and the init executed");
    let mut uniq = executed.clone();
    uniq.dedup();
    assert_eq!(uniq, executed, "retry-as-a-unit never double-executes");
}

/// What [`spawn_script_server`] does besides executing calls.
#[derive(Debug, Clone, Default)]
struct Script {
    /// Capacity of the transfer-cache mirror.
    cache_entries: usize,
    /// Smallest buffer the mirror caches; must match the guest.
    cache_min: usize,
    /// Wipe the mirror after this many executions, forcing a desync.
    wipe_after: Option<usize>,
    /// Sync call ids whose first frame is lost in transit.
    drop_first_frame_of: Vec<CallId>,
    /// Call-carrying frames (0-based receive order) delivered twice.
    duplicate_frames: Vec<usize>,
}

/// What a scripted server received and did.
#[derive(Debug, Default)]
struct ServerLog {
    /// Every request received, in order; lost frames excluded.
    seen: Vec<CallRequest>,
    /// Call ids in execution order.
    executed: Vec<CallId>,
}

/// The real server's at-most-once and transfer-cache rules in miniature:
/// call-id highwater dedup before argument resolution, sync duplicates
/// re-answered from recorded replies, a `CacheMiss` NACK holding every
/// later call back until the NACKed call's resend arrives.
struct ScriptedServer {
    script: Script,
    rx: DigestLru<Vec<u8>>,
    highwater: CallId,
    /// Recorded sync replies, re-sent for suppressed duplicates.
    replies: HashMap<CallId, CallReply>,
    /// The NACKed call every other call waits behind.
    stalled_on: Option<CallId>,
    held: VecDeque<CallRequest>,
    /// Sync calls whose first frame has arrived (or been lost).
    first_frames: HashSet<CallId>,
    log: ServerLog,
}

impl ScriptedServer {
    fn new(script: Script) -> Self {
        ScriptedServer {
            rx: DigestLru::new(script.cache_entries),
            script,
            highwater: 0,
            replies: HashMap::new(),
            stalled_on: None,
            held: VecDeque::new(),
            first_frames: HashSet::new(),
            log: ServerLog::default(),
        }
    }

    /// True when the script loses this frame: the first one to carry a
    /// sync call listed in `drop_first_frame_of`.
    fn loses(&mut self, reqs: &[CallRequest]) -> bool {
        reqs.iter().any(|r| {
            r.mode == CallMode::Sync
                && self.first_frames.insert(r.call_id)
                && self.script.drop_first_frame_of.contains(&r.call_id)
        })
    }

    /// Admits one request in issue order, collecting the replies to send.
    fn ingest(&mut self, req: CallRequest, out: &mut Vec<CallReply>) {
        if let Some(waiting) = self.stalled_on {
            if req.call_id != waiting {
                self.held.push_back(req);
                return;
            }
            self.stalled_on = None;
        }
        self.execute(req, out);
        while self.stalled_on.is_none() {
            let Some(next) = self.held.pop_front() else {
                break;
            };
            self.execute(next, out);
        }
    }

    fn execute(&mut self, mut req: CallRequest, out: &mut Vec<CallReply>) {
        if req.call_id <= self.highwater {
            out.extend(self.replies.get(&req.call_id).cloned());
            return;
        }
        if !self.resolve(&mut req.args) {
            self.stalled_on = Some(req.call_id);
            out.push(CallReply {
                call_id: req.call_id,
                status: ReplyStatus::CacheMiss,
                ret: Value::Unit,
                outputs: vec![],
            });
            return;
        }
        self.highwater = req.call_id;
        self.log.executed.push(req.call_id);
        if self.script.wipe_after == Some(self.log.executed.len()) {
            self.rx.clear();
        }
        let ret = match req.fn_id {
            1 => Value::Handle(0x4000_0001), // toy_create
            // toy_poke: odd values fail with TOY_FAIL.
            2 => Value::I32(if req.args[1].as_u64().unwrap_or(0) % 2 == 1 {
                -7
            } else {
                0
            }),
            _ => Value::I32(0), // toy_init / toy_store / toy_write
        };
        let reply = CallReply {
            call_id: req.call_id,
            status: ReplyStatus::Ok,
            ret,
            outputs: vec![],
        };
        if req.mode == CallMode::Sync {
            self.replies.insert(req.call_id, reply.clone());
        }
        out.push(reply);
    }

    /// Caches full eligible payloads and rematerializes elided ones;
    /// false on a cache miss.
    fn resolve(&mut self, args: &mut [Value]) -> bool {
        for arg in args.iter_mut() {
            match arg {
                Value::Bytes(b) if b.len() >= self.script.cache_min => {
                    self.rx.insert(digest64(b), b.to_vec());
                }
                Value::CachedBytes { digest, .. } => match self.rx.get(*digest) {
                    Some(data) => *arg = Value::Bytes(data.clone().into()),
                    None => return false,
                },
                _ => {}
            }
        }
        true
    }
}

/// Runs a [`ScriptedServer`] on `server` until the guest hangs up, then
/// hands its log to `finish`. Replies to every executed call, async ones
/// included.
fn spawn_script_server<T: Send + 'static>(
    server: BoxedTransport,
    script: Script,
    finish: impl FnOnce(ServerLog) -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    std::thread::spawn(move || {
        let mut s = ScriptedServer::new(script);
        let mut out = Vec::new();
        let mut frames = 0usize;
        while let Ok(msg) = server.recv() {
            let reqs = match msg {
                Message::Call(req) => vec![req],
                Message::Batch(reqs) => reqs,
                Message::Control(ControlMessage::Shutdown) => break,
                _ => continue,
            };
            frames += 1;
            if s.loses(&reqs) {
                continue;
            }
            let copies = if s.script.duplicate_frames.contains(&(frames - 1)) {
                2
            } else {
                1
            };
            s.log.seen.extend(reqs.iter().cloned());
            for _ in 0..copies {
                for req in reqs.iter().cloned() {
                    s.ingest(req, &mut out);
                }
            }
            for reply in out.drain(..) {
                if server.send(&Message::Reply(reply)).is_err() {
                    return finish(s.log);
                }
            }
        }
        finish(s.log)
    })
}

/// A scripted server that mirrors the transfer-cache protocol: inserts
/// received eligible buffers, rematerializes `CachedBytes`, NACKs on
/// miss, and optionally wipes its cache after `wipe_after` executions
/// to force a desync. Returns every request it received.
fn spawn_cache_server(
    server: BoxedTransport,
    entries: usize,
    min: usize,
    wipe_after: Option<usize>,
) -> std::thread::JoinHandle<Vec<CallRequest>> {
    let script = Script {
        cache_entries: entries,
        cache_min: min,
        wipe_after,
        ..Script::default()
    };
    spawn_script_server(server, script, |log| log.seen)
}

fn setup_cached(
    entries: usize,
    wipe_after: Option<usize>,
) -> (GuestLibrary, std::thread::JoinHandle<Vec<CallRequest>>) {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let config = GuestConfig {
        batch_max: 0,
        payload_cache_entries: entries,
        payload_cache_min_bytes: 8,
        ..GuestConfig::default()
    };
    let server = spawn_cache_server(server_end, entries, 8, wipe_after);
    let lib = GuestLibrary::new(descriptor(), guest_end, config);
    (lib, server)
}

#[test]
fn repeated_buffer_is_elided_on_the_wire() {
    let (lib, server) = setup_cached(8, None);
    let h = lib.call("toy_create", vec![Value::U64(64)]).unwrap().ret;
    let data = vec![7u8; 32];
    for _ in 0..3 {
        let r = lib
            .call(
                "toy_store",
                vec![h.clone(), Value::Bytes(data.clone().into()), Value::U64(32)],
            )
            .unwrap();
        assert_eq!(r.ret, Value::I32(0));
    }
    let stats = lib.stats();
    assert_eq!(stats.payload_cache_hits, 2, "second and third sends hit");
    assert_eq!(stats.payload_cache_misses, 0);
    assert_eq!(stats.bytes_elided, 64);
    shutdown(lib);
    let seen = server.join().unwrap();
    // On the wire: create, store(full), store(elided), store(elided).
    let stores: Vec<&CallRequest> = seen.iter().filter(|r| r.fn_id == 5).collect();
    assert_eq!(stores.len(), 3);
    assert!(matches!(stores[0].args[1], Value::Bytes(_)));
    assert!(matches!(stores[1].args[1], Value::CachedBytes { .. }));
    assert!(matches!(stores[2].args[1], Value::CachedBytes { .. }));
}

#[test]
fn small_buffers_are_never_elided() {
    let (lib, server) = setup_cached(8, None);
    let h = lib.call("toy_create", vec![Value::U64(64)]).unwrap().ret;
    let tiny = vec![1u8; 4]; // below the 8-byte eligibility floor
    for _ in 0..2 {
        lib.call(
            "toy_store",
            vec![h.clone(), Value::Bytes(tiny.clone().into()), Value::U64(4)],
        )
        .unwrap();
    }
    assert_eq!(lib.stats().payload_cache_hits, 0);
    shutdown(lib);
    let seen = server.join().unwrap();
    assert!(seen
        .iter()
        .filter(|r| r.fn_id == 5)
        .all(|r| matches!(r.args[1], Value::Bytes(_))));
}

#[test]
fn forced_server_eviction_heals_via_nack_resend() {
    // The server wipes its payload cache after the second execution
    // (create + first store), desynchronizing the mirrors. The next
    // elided store must NACK, resend, and still succeed.
    let (lib, server) = setup_cached(8, Some(2));
    let h = lib.call("toy_create", vec![Value::U64(64)]).unwrap().ret;
    let data = vec![9u8; 16];
    for _ in 0..3 {
        let r = lib
            .call(
                "toy_store",
                vec![h.clone(), Value::Bytes(data.clone().into()), Value::U64(16)],
            )
            .unwrap();
        assert_eq!(r.ret, Value::I32(0), "store succeeds despite desync");
    }
    let stats = lib.stats();
    assert_eq!(stats.payload_cache_misses, 1, "exactly one NACK round");
    // Store #2 hit (elided, then NACKed + resent); store #3 hit again
    // after both caches were repaired by the resend.
    assert_eq!(stats.payload_cache_hits, 2);
    shutdown(lib);
    let seen = server.join().unwrap();
    let stores: Vec<&CallRequest> = seen.iter().filter(|r| r.fn_id == 5).collect();
    // full, elided (NACKed), full resend, elided.
    assert_eq!(stores.len(), 4);
    assert!(matches!(stores[0].args[1], Value::Bytes(_)));
    assert!(matches!(stores[1].args[1], Value::CachedBytes { .. }));
    assert!(matches!(stores[2].args[1], Value::Bytes(_)));
    assert!(matches!(stores[3].args[1], Value::CachedBytes { .. }));
}

/// A lossy scripted server: swallows the first `drop_first` Call
/// frames (modelling dropped requests), then answers every request —
/// deduplicating by call id the way the real server does, so retried
/// calls are answered but counted as one execution.
fn spawn_flaky_server(server: BoxedTransport, drop_first: usize) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut dropped = 0usize;
        let mut highwater = 0u64;
        let mut executed = 0u64;
        loop {
            let req = match server.recv() {
                Ok(Message::Call(req)) => req,
                Ok(_) => continue,
                Err(_) => break,
            };
            if dropped < drop_first {
                dropped += 1;
                continue;
            }
            if req.call_id > highwater {
                highwater = req.call_id;
                executed += 1;
            }
            let reply = ava_wire::CallReply {
                call_id: req.call_id,
                status: ReplyStatus::Ok,
                ret: Value::I32(0),
                outputs: vec![],
            };
            if server.send(&Message::Reply(reply)).is_err() {
                break;
            }
        }
        executed
    })
}

fn deadline_config(deadline_ms: u64, retries: u32) -> GuestConfig {
    GuestConfig {
        call_deadline: Some(std::time::Duration::from_millis(deadline_ms)),
        max_retries: retries,
        retry_backoff: std::time::Duration::from_millis(1),
        ..GuestConfig::default()
    }
}

#[test]
fn dropped_request_is_retried_and_succeeds() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let server = spawn_flaky_server(server_end, 1);
    let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(40, 3));
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(0));
    assert!(lib.stats().retries >= 1, "the dropped frame forced a retry");
    shutdown(lib);
    assert_eq!(server.join().unwrap(), 1, "retry must not double-execute");
}

#[test]
fn silent_server_fails_within_twice_the_deadline() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    // A server that reads but never replies: the worst kind of hang.
    let server = std::thread::spawn(move || while server_end.recv().is_ok() {});
    let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(30, 5));
    let start = std::time::Instant::now();
    let err = lib.call("toy_init", vec![Value::U32(0)]).unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(err, GuestError::DeadlineExceeded);
    assert!(err.is_retryable());
    assert!(
        elapsed < std::time::Duration::from_millis(200),
        "2x30ms budget blown: took {elapsed:?}"
    );
    assert_eq!(lib.stats().deadline_exceeded, 1);
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn unavailable_reply_surfaces_as_unavailable() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let server = std::thread::spawn(move || {
        while let Ok(msg) = server_end.recv() {
            if let Message::Call(req) = msg {
                let reply = ava_wire::CallReply {
                    call_id: req.call_id,
                    status: ReplyStatus::Unavailable,
                    ret: Value::Unit,
                    outputs: vec![],
                };
                if server_end.send(&Message::Reply(reply)).is_err() {
                    break;
                }
            }
        }
    });
    let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(1000, 0));
    let err = lib.call("toy_init", vec![Value::U32(0)]).unwrap_err();
    assert_eq!(err, GuestError::Unavailable);
    assert!(!err.is_retryable());
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn overloaded_replies_retry_then_surface() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    // A saturated stack: every attempt is shed with Overloaded.
    let server = std::thread::spawn(move || {
        while let Ok(msg) = server_end.recv() {
            let reqs = match msg {
                Message::Call(req) => vec![req],
                Message::Batch(reqs) => reqs,
                _ => continue,
            };
            for req in reqs {
                if server_end
                    .send(&Message::Reply(ava_wire::CallReply::overloaded(
                        req.call_id,
                    )))
                    .is_err()
                {
                    return;
                }
            }
        }
    });
    let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(200, 2));
    let err = lib.call("toy_init", vec![Value::U32(0)]).unwrap_err();
    assert_eq!(err, GuestError::Overloaded);
    assert!(!err.is_retryable());
    let stats = lib.stats();
    assert_eq!(stats.retries, 2, "both retry slots spent backing off");
    assert_eq!(stats.overloaded, 3, "every shed attempt was counted");
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn overloaded_then_ok_recovers_within_budget() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    // Transient overload: the first attempt sheds, the retry lands.
    let server = std::thread::spawn(move || {
        let mut shed_done = false;
        while let Ok(msg) = server_end.recv() {
            if let Message::Call(req) = msg {
                let reply = if shed_done {
                    ava_wire::CallReply {
                        call_id: req.call_id,
                        status: ReplyStatus::Ok,
                        ret: Value::I32(0),
                        outputs: vec![],
                    }
                } else {
                    shed_done = true;
                    ava_wire::CallReply::overloaded(req.call_id)
                };
                if server_end.send(&Message::Reply(reply)).is_err() {
                    break;
                }
            }
        }
    });
    let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(200, 3));
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(0));
    let stats = lib.stats();
    assert_eq!(stats.overloaded, 1);
    assert_eq!(stats.retries, 1);
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn retry_frame_carries_remaining_budget_not_original_deadline() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    // Drop the first frame so the guest retries after one attempt
    // window, and record the budget stamped on every frame seen.
    let server = std::thread::spawn(move || {
        let mut budgets: Vec<u64> = Vec::new();
        let mut dropped = false;
        while let Ok(msg) = server_end.recv() {
            if let Message::Call(req) = msg {
                budgets.push(req.budget_us);
                if !dropped {
                    dropped = true;
                    continue;
                }
                let reply = ava_wire::CallReply {
                    call_id: req.call_id,
                    status: ReplyStatus::Ok,
                    ret: Value::I32(0),
                    outputs: vec![],
                };
                if server_end.send(&Message::Reply(reply)).is_err() {
                    break;
                }
            }
        }
        budgets
    });
    let lib = GuestLibrary::new(descriptor(), guest_end, deadline_config(50, 3));
    lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    shutdown(lib);
    let budgets = server.join().unwrap();
    assert!(budgets.len() >= 2, "expected original + retry frames");
    assert_eq!(budgets[0], 50_000, "fresh call carries the full deadline");
    assert!(
        budgets[1] > 0 && budgets[1] < budgets[0],
        "retry must carry the shrunken remaining budget, got {} then {}",
        budgets[0],
        budgets[1]
    );
}

#[test]
fn liveness_probe_distinguishes_live_from_dead_servers() {
    let (lib, server) = setup(false, 0);
    assert_eq!(
        lib.probe_liveness(std::time::Duration::from_secs(1)),
        Ok(true)
    );
    shutdown(lib);
    server.join().unwrap();

    // A server that reads but never acks: the probe times out false.
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let server = std::thread::spawn(move || while server_end.recv().is_ok() {});
    let lib = GuestLibrary::new(descriptor(), guest_end, GuestConfig::default());
    assert_eq!(
        lib.probe_liveness(std::time::Duration::from_millis(20)),
        Ok(false)
    );
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn duplicate_replies_are_ignored() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    // A server that answers every sync call twice (a duplicated reply
    // frame): the stale copy must not confuse the next call.
    let server = std::thread::spawn(move || {
        while let Ok(msg) = server_end.recv() {
            if let Message::Call(req) = msg {
                let reply = ava_wire::CallReply {
                    call_id: req.call_id,
                    status: ReplyStatus::Ok,
                    ret: Value::I32(0),
                    outputs: vec![],
                };
                if server_end.send(&Message::Reply(reply.clone())).is_err()
                    || server_end.send(&Message::Reply(reply)).is_err()
                {
                    break;
                }
            }
        }
    });
    let lib = GuestLibrary::new(descriptor(), guest_end, GuestConfig::default());
    for _ in 0..3 {
        let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
        assert_eq!(r.ret, Value::I32(0));
    }
    shutdown(lib);
    server.join().unwrap();
}

#[test]
fn async_cache_miss_resends_from_pending() {
    // Async toy_write is elided, the server NACKs it, and the guest —
    // blocked inside the next sync call — resends the full payload
    // from its pending map.
    let (lib, server) = setup_cached(8, Some(2));
    let h = lib.call("toy_create", vec![Value::U64(64)]).unwrap().ret;
    let data = vec![3u8; 24];
    // First write seeds both caches (create + write = 2 executions,
    // after which the server wipes its cache).
    lib.call(
        "toy_write",
        vec![h.clone(), Value::Bytes(data.clone().into()), Value::U64(24)],
    )
    .unwrap();
    // Second write is elided but the server's cache is gone: NACK.
    lib.call(
        "toy_write",
        vec![h.clone(), Value::Bytes(data.clone().into()), Value::U64(24)],
    )
    .unwrap();
    // The sync call pumps the NACK and the resend.
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(0), "no deferred error: write succeeded");
    let stats = lib.stats();
    assert_eq!(stats.payload_cache_misses, 1);
    shutdown(lib);
    let seen = server.join().unwrap();
    let writes: Vec<&CallRequest> = seen.iter().filter(|r| r.fn_id == 3).collect();
    // full, elided (NACKed), full resend.
    assert_eq!(writes.len(), 3);
    assert!(matches!(writes[0].args[1], Value::Bytes(_)));
    assert!(matches!(writes[1].args[1], Value::CachedBytes { .. }));
    assert!(matches!(writes[2].args[1], Value::Bytes(_)));
}

// ---------------------------------------------------------------------------
// Golden resend frames: every resend trigger, the exact frame it sends.
// ---------------------------------------------------------------------------

/// A server endpoint that logs every call-carrying frame it receives,
/// frames the scripted server then loses included.
struct Recording {
    inner: BoxedTransport,
    frames: Arc<Mutex<Vec<Message>>>,
}

impl Transport for Recording {
    fn send(&self, msg: &Message) -> ava_transport::Result<()> {
        self.inner.send(msg)
    }

    fn recv(&self) -> ava_transport::Result<Message> {
        let msg = self.inner.recv()?;
        if matches!(msg, Message::Call(_) | Message::Batch(_)) {
            self.frames.lock().push(msg.clone());
        }
        Ok(msg)
    }

    fn try_recv(&self) -> ava_transport::Result<Option<Message>> {
        self.inner.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> ava_transport::Result<Option<Message>> {
        self.inner.recv_timeout(timeout)
    }

    fn close(&self) {
        self.inner.close();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Wraps `server` in a [`Recording`]; the log fills as frames arrive.
fn recording(server: BoxedTransport) -> (BoxedTransport, Arc<Mutex<Vec<Message>>>) {
    let frames = Arc::new(Mutex::new(Vec::new()));
    let rec = Recording {
        inner: server,
        frames: Arc::clone(&frames),
    };
    (Box::new(rec), frames)
}

/// The members of a call-carrying frame.
fn members(msg: &Message) -> &[CallRequest] {
    match msg {
        Message::Call(req) => std::slice::from_ref(req),
        Message::Batch(reqs) => reqs,
        other => panic!("not a call frame: {other:?}"),
    }
}

/// A frame as the golden tests spell it: `Call[..]` or `Batch[..]` over
/// the member call ids in order, each buffer argument suffixed `:B` (full
/// payload) or `:C` (elided by the transfer cache).
fn shape(msg: &Message) -> String {
    let kind = if matches!(msg, Message::Batch(_)) {
        "Batch"
    } else {
        "Call"
    };
    let ids: Vec<String> = members(msg)
        .iter()
        .map(|r| {
            let mut id = r.call_id.to_string();
            for arg in &r.args {
                match arg {
                    Value::Bytes(_) => id.push_str(":B"),
                    Value::CachedBytes { .. } => id.push_str(":C"),
                    _ => {}
                }
            }
            id
        })
        .collect();
    format!("{kind}[{}]", ids.join(" "))
}

/// Asserts the frames' shapes, and that no member of any frame carries
/// more deadline budget than the first frame granted.
fn assert_frames(frames: &Mutex<Vec<Message>>, expected: &[&str]) {
    let frames = frames.lock();
    let shapes: Vec<String> = frames.iter().map(shape).collect();
    assert_eq!(shapes, expected);
    let first = members(&frames[0])[0].budget_us;
    for req in frames.iter().flat_map(members) {
        assert!(
            req.budget_us <= first,
            "call {} carries {} µs, first frame {first} µs",
            req.call_id,
            req.budget_us
        );
    }
}

/// `toy_write`/`toy_store` arguments: `n` bytes of `byte` to a scripted
/// handle.
fn buffer_args(byte: u8, n: usize) -> Vec<Value> {
    vec![
        Value::Handle(0x77),
        Value::Bytes(vec![byte; n].into()),
        Value::U64(n as u64),
    ]
}

fn poke_args(v: u32) -> Vec<Value> {
    vec![Value::Handle(0x77), Value::U32(v)]
}

#[test]
fn golden_deadline_retry_resends_the_batch_with_its_riders() {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let (server_end, frames) = recording(server_end);
    let server = spawn_lossy_batch_server(server_end, 1, Loss::Drop);
    let config = GuestConfig {
        batch_max_calls: 16,
        ..deadline_config(100, 3)
    };
    let lib = GuestLibrary::new(descriptor(), guest_end, config);
    lib.call("toy_poke", poke_args(0)).unwrap();
    lib.call("toy_write", buffer_args(1, 16)).unwrap();
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(0));
    let expected = GuestStats {
        sync_calls: 1,
        async_calls: 2,
        batched_calls: 2,
        doorbells: 1,
        retries: 1,
        ..GuestStats::default()
    };
    assert_eq!(lib.stats(), expected);
    shutdown(lib);
    assert_eq!(server.join().unwrap(), vec![1, 2, 3]);
    assert_frames(&frames, &["Batch[1 2:B 3]", "Batch[1 2:B 3]"]);
}

/// A shed batch: the riders' own `Overloaded` replies retire them as a
/// deferred error before the sync call retries, so the retry frame
/// carries the sync call alone — with or without a deadline.
fn golden_overloaded_retry(config: GuestConfig) {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let (server_end, frames) = recording(server_end);
    let server = spawn_lossy_batch_server(server_end, 1, Loss::Shed);
    let lib = GuestLibrary::new(descriptor(), guest_end, config);
    lib.call("toy_poke", poke_args(0)).unwrap();
    lib.call("toy_write", buffer_args(1, 16)).unwrap();
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(-9999), "the shed riders' deferred error");
    assert_eq!(lib.pending_async(), 0);
    let expected = GuestStats {
        sync_calls: 1,
        async_calls: 2,
        batched_calls: 2,
        doorbells: 1,
        deferred_errors_delivered: 1,
        retries: 1,
        overloaded: 3,
        ..GuestStats::default()
    };
    assert_eq!(lib.stats(), expected);
    shutdown(lib);
    assert_eq!(server.join().unwrap(), vec![3]);
    assert_frames(&frames, &["Batch[1 2:B 3]", "Call[3]"]);
}

#[test]
fn golden_overloaded_retry_with_a_deadline() {
    golden_overloaded_retry(GuestConfig {
        batch_max_calls: 16,
        ..deadline_config(200, 3)
    });
}

#[test]
fn golden_overloaded_retry_without_a_deadline() {
    golden_overloaded_retry(GuestConfig {
        batch_max_calls: 16,
        retry_backoff: Duration::from_millis(1),
        ..GuestConfig::default()
    });
}

/// A guest library with the transfer cache on (8 entries, 8-byte floor)
/// and a 200 ms deadline, talking to a recorded [`ScriptedServer`] whose
/// mirror is wiped after `wipe_after` executions. `guest` may wrap the
/// guest's endpoint.
fn setup_golden_cache(
    batch: usize,
    wipe_after: usize,
    guest: impl FnOnce(BoxedTransport) -> BoxedTransport,
) -> (
    GuestLibrary,
    std::thread::JoinHandle<ServerLog>,
    Arc<Mutex<Vec<Message>>>,
) {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let (server_end, frames) = recording(server_end);
    let script = Script {
        cache_entries: 8,
        cache_min: 8,
        wipe_after: Some(wipe_after),
        ..Script::default()
    };
    let server = spawn_script_server(server_end, script, |log| log);
    let config = GuestConfig {
        batch_max_calls: batch,
        payload_cache_entries: 8,
        payload_cache_min_bytes: 8,
        ..deadline_config(200, 3)
    };
    let lib = GuestLibrary::new(descriptor(), guest(guest_end), config);
    (lib, server, frames)
}

#[test]
fn golden_sync_cache_miss_resends_the_full_payload() {
    // The mirror is wiped after the second store, so the third store's
    // elided payload misses and is resent in full.
    let (lib, server, frames) = setup_golden_cache(0, 2, |t| t);
    for _ in 0..3 {
        let r = lib.call("toy_store", buffer_args(9, 16)).unwrap();
        assert_eq!(r.ret, Value::I32(0));
    }
    let expected = GuestStats {
        sync_calls: 3,
        doorbells: 3,
        payload_cache_hits: 2,
        payload_cache_misses: 1,
        bytes_elided: 32,
        ..GuestStats::default()
    };
    assert_eq!(lib.stats(), expected);
    shutdown(lib);
    assert_eq!(server.join().unwrap().executed, vec![1, 2, 3]);
    assert_frames(
        &frames,
        &["Call[1:B]", "Call[2:C]", "Call[3:C]", "Call[3:B]"],
    );
}

#[test]
fn golden_async_cache_miss_resends_the_full_payload() {
    // The store seeds both caches and the server's is wiped right after.
    // The batched write's elided payload then misses: the server holds the
    // rest of the batch, and the guest resends the write from its pending
    // entry while it waits for the init.
    let (lib, server, frames) = setup_golden_cache(16, 1, |t| t);
    lib.call("toy_store", buffer_args(5, 16)).unwrap();
    lib.call("toy_write", buffer_args(5, 16)).unwrap();
    lib.call("toy_poke", poke_args(0)).unwrap();
    let r = lib.call("toy_init", vec![Value::U32(0)]).unwrap();
    assert_eq!(r.ret, Value::I32(0));
    let expected = GuestStats {
        sync_calls: 2,
        async_calls: 2,
        batched_calls: 2,
        doorbells: 2,
        payload_cache_hits: 1,
        payload_cache_misses: 1,
        bytes_elided: 16,
        ..GuestStats::default()
    };
    assert_eq!(lib.stats(), expected);
    shutdown(lib);
    assert_eq!(server.join().unwrap().executed, vec![1, 2, 3, 4]);
    assert_frames(&frames, &["Call[1:B]", "Batch[2:C 3 4]", "Call[2:B]"]);
}

/// A guest endpoint whose first send after a `CacheMiss` reply — the
/// resend that answers it — fails with a transient I/O error.
struct FailResendOnce {
    inner: BoxedTransport,
    /// 0: no NACK seen yet; 1: the next send fails; 2: spent.
    state: std::sync::atomic::AtomicU8,
}

impl FailResendOnce {
    fn observe(&self, msg: &Option<Message>) {
        use std::sync::atomic::Ordering;
        if let Some(Message::Reply(rep)) = msg {
            if rep.status == ReplyStatus::CacheMiss {
                let _ = self
                    .state
                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
            }
        }
    }
}

impl Transport for FailResendOnce {
    fn send(&self, msg: &Message) -> ava_transport::Result<()> {
        use std::sync::atomic::Ordering;
        if self
            .state
            .compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return Err(ava_transport::TransportError::Io("injected".into()));
        }
        self.inner.send(msg)
    }

    fn recv(&self) -> ava_transport::Result<Message> {
        let msg = self.inner.recv()?;
        self.observe(&Some(msg.clone()));
        Ok(msg)
    }

    fn try_recv(&self) -> ava_transport::Result<Option<Message>> {
        let msg = self.inner.try_recv()?;
        self.observe(&msg);
        Ok(msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> ava_transport::Result<Option<Message>> {
        let msg = self.inner.recv_timeout(timeout)?;
        self.observe(&msg);
        Ok(msg)
    }

    fn close(&self) {
        self.inner.close();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[test]
fn a_transient_error_on_a_cache_miss_resend_is_retried() {
    // The store seeds both caches and the server's is wiped right after;
    // the async write's elided payload then misses, and the server holds
    // every later call until the write's full resend arrives. That resend
    // hits a transient send error: swallowing it would wedge the lane.
    let (lib, server, frames) = setup_golden_cache(0, 1, |t| {
        Box::new(FailResendOnce {
            inner: t,
            state: Default::default(),
        })
    });
    lib.call("toy_store", buffer_args(5, 16)).unwrap();
    lib.call("toy_write", buffer_args(5, 16)).unwrap();
    let r = lib.call("toy_init", vec![Value::U32(0)]);
    assert_eq!(r.map(|c| c.ret), Ok(Value::I32(0)));
    let expected = GuestStats {
        sync_calls: 2,
        async_calls: 1,
        doorbells: 3,
        payload_cache_hits: 1,
        payload_cache_misses: 1,
        bytes_elided: 16,
        retries: 1,
        ..GuestStats::default()
    };
    assert_eq!(lib.stats(), expected);
    shutdown(lib);
    let log = server.join().unwrap();
    assert_eq!(log.executed, vec![1, 2, 3], "the write executed once");
    assert_frames(&frames, &["Call[1:B]", "Call[2:C]", "Call[3]", "Call[2:B]"]);
}

// ---------------------------------------------------------------------------
// Property: under lost sync frames and duplicated frames, every call id
// executes exactly once and the application sees what a fault-free run
// shows it.
// ---------------------------------------------------------------------------

/// One generated application call.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Async `toy_write` of recurring payload `k`.
    Write(u8),
    /// Async `toy_poke`; odd values fail on the server.
    Poke(u32),
    /// Sync `toy_init`.
    Init,
    /// Sync `toy_store` of recurring payload `k`.
    Store(u8),
}

impl Op {
    fn is_sync(self) -> bool {
        matches!(self, Op::Init | Op::Store(_))
    }
}

/// What the application saw: each sync call's result, and how many
/// deferred errors those results carried.
type Observed = (Vec<Result<Value>>, u64);

/// Runs `ops` and a closing `toy_init` with batching, a 80 ms deadline and
/// the transfer cache on, against a [`ScriptedServer`] running `script`.
fn run_ops(ops: &[Op], batch: usize, script: Script) -> (Observed, Vec<CallId>) {
    let (guest_end, server_end) =
        ava_transport::pair(TransportKind::InProcess, CostModel::free()).unwrap();
    let script = Script {
        cache_entries: 8,
        cache_min: 8,
        ..script
    };
    let server = spawn_script_server(server_end, script, |log| log.executed);
    let config = GuestConfig {
        batch_max_calls: batch,
        payload_cache_entries: 8,
        payload_cache_min_bytes: 8,
        ..deadline_config(80, 3)
    };
    let lib = GuestLibrary::new(descriptor(), guest_end, config);
    let mut sync = Vec::new();
    for &op in ops.iter().chain([&Op::Init]) {
        let r = match op {
            Op::Write(k) => lib.call("toy_write", buffer_args(k, 32)),
            Op::Poke(v) => lib.call("toy_poke", poke_args(v)),
            Op::Init => lib.call("toy_init", vec![Value::U32(0)]),
            Op::Store(k) => lib.call("toy_store", buffer_args(k, 32)),
        };
        if op.is_sync() {
            sync.push(r.map(|c| c.ret));
        } else {
            assert_eq!(r.map(|c| c.ret), Ok(Value::I32(0)));
        }
    }
    let delivered = lib.stats().deferred_errors_delivered;
    shutdown(lib);
    ((sync, delivered), server.join().unwrap())
}

fn op_strategy() -> BoxedStrategy<Op> {
    prop_oneof![
        (0u8..2).prop_map(Op::Write),
        (0u32..4).prop_map(Op::Poke),
        Just(Op::Init),
        (0u8..2).prop_map(Op::Store),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lost frames are limited to a sync call's first frame: the guest's
    /// hard budget of two deadlines covers one lost attempt per call.
    /// Lost async-only frames are out of scope (unrecoverable by design).
    #[test]
    fn every_call_id_executes_exactly_once(
        ops in prop::collection::vec(op_strategy(), 1..12),
        batch in 2usize..6,
        wipe_after in 0usize..8,
        lose in prop::collection::vec(0u8..3, 12..13),
        duplicate in prop::collection::vec(0u8..4, 24..25),
    ) {
        let wipe_after = (wipe_after > 0).then_some(wipe_after);
        let calls = ops.len() as CallId + 1;
        let clean = Script {
            wipe_after,
            ..Script::default()
        };
        let faulty = Script {
            drop_first_frame_of: (1..=calls)
                .filter(|&id| {
                    ops.get(id as usize - 1).is_none_or(|op| op.is_sync())
                        && lose[id as usize - 1] == 0
                })
                .collect(),
            duplicate_frames: (0..duplicate.len()).filter(|&i| duplicate[i] == 0).collect(),
            ..clean.clone()
        };
        let all: Vec<CallId> = (1..=calls).collect();
        let (expected, executed) = run_ops(&ops, batch, clean);
        prop_assert_eq!(&executed, &all);
        let (observed, executed) = run_ops(&ops, batch, faulty);
        prop_assert_eq!(&executed, &all, "each call id executes once, in order");
        prop_assert_eq!(observed, expected);
    }
}
