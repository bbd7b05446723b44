//! Isolated probes: each times one layer's public entry point on its own,
//! with fixed iteration counts and two fixed argument shapes, so the
//! numbers are identical in meaning across runs and workloads.
//!
//! * small — a call with three scalar arguments;
//! * bulk — a call carrying one 256 KiB `Bytes` argument.
//!
//! A probe reports the median over [`BATCHES`] batches of the mean time
//! per iteration inside a batch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ava_core::{
    opencl_stack_with, specs, GuestConfig, GuestLibrary, LowerOptions, OpenClClient, OpenClHandler,
};
use ava_hypervisor::{Hypervisor, SchedulerKind, VmPolicy};
use ava_server::ApiServer;
use ava_spec::ApiDescriptor;
use ava_transport::{pair, CostModel, Transport, TransportKind};
use ava_wire::{digest64, CallMode, CallReply, CallRequest, Message, ReplyStatus, Value};
use bytes::Bytes;
use simcl::types::{DeviceType, MemFlags, QueueProps};
use simcl::{ClApi, SimCl};

use crate::env::rodinia_stack_config;
use crate::report::Metric;
use crate::stats::median;

const BATCHES: usize = 7;
const BULK_BYTES: usize = 256 << 10;

/// Median over batches of the mean seconds per iteration.
fn per_iter_s(iters: usize, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                body();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&samples)
}

fn gib_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64 / seconds
}

fn small_call(call_id: u64) -> CallRequest {
    CallRequest {
        call_id,
        fn_id: 7,
        mode: CallMode::Sync,
        args: vec![Value::Handle(3), Value::U64(4096), Value::U32(1)],
        budget_us: 0,
    }
}

fn bulk_payload() -> Bytes {
    let bytes: Vec<u8> = (0..BULK_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    bytes.into()
}

fn bulk_call(call_id: u64, payload: &Bytes) -> CallRequest {
    CallRequest {
        call_id,
        fn_id: 7,
        mode: CallMode::Sync,
        args: vec![Value::Bytes(payload.clone())],
        budget_us: 0,
    }
}

fn ok_reply(call_id: u64) -> Message {
    Message::Reply(CallReply {
        call_id,
        status: ReplyStatus::Ok,
        ret: Value::I32(0),
        outputs: vec![(2, Value::U64(1))],
    })
}

fn spec_and_generator(out: &mut Vec<Metric>) {
    let ms = |body: &mut dyn FnMut()| per_iter_s(3, body) * 1e3;
    let opts = LowerOptions::default;
    out.push(Metric::plain(
        "spec.compile_opencl_ms",
        ms(&mut || {
            std::hint::black_box(specs::opencl_descriptor(opts()).expect("bundled spec"));
        }),
    ));
    out.push(Metric::plain(
        "spec.compile_mvnc_ms",
        ms(&mut || {
            std::hint::black_box(specs::mvnc_descriptor(opts()).expect("bundled spec"));
        }),
    ));
    let desc = specs::opencl_descriptor(opts()).expect("bundled spec");
    out.push(Metric::plain(
        "cava.generate_opencl_ms",
        ms(&mut || {
            std::hint::black_box(ava_cava::generate_guest_stubs(&desc));
            std::hint::black_box(ava_cava::generate_server_dispatch(&desc));
        }),
    ));
    out.push(Metric::plain(
        "core.stack_build_ms",
        ms(&mut || {
            let stack = opencl_stack_with(SimCl::new(), rodinia_stack_config(), opts());
            std::hint::black_box(stack.expect("bundled spec"));
        }),
    ));
}

fn wire(out: &mut Vec<Metric>) {
    let small = Message::Call(small_call(42));
    let encoded_small = small.encode();
    out.push(Metric::plain(
        "wire.encode_small_ns",
        per_iter_s(20_000, || {
            std::hint::black_box(std::hint::black_box(&small).encode());
        }) * 1e9,
    ));
    out.push(Metric::plain(
        "wire.decode_small_ns",
        per_iter_s(20_000, || {
            let frame = std::hint::black_box(encoded_small.clone());
            std::hint::black_box(Message::decode(frame).expect("own encoding"));
        }) * 1e9,
    ));
    let batch = Message::Batch((0..16).map(small_call).collect());
    out.push(Metric::plain(
        "wire.batch16_encode_ns_per_call",
        per_iter_s(2_000, || {
            std::hint::black_box(std::hint::black_box(&batch).encode());
        }) * 1e9
            / 16.0,
    ));

    let payload = bulk_payload();
    let bulk = Message::Call(bulk_call(43, &payload));
    let encoded_bulk = bulk.encode();
    out.push(Metric::plain(
        "wire.encode_bulk_gib_s",
        gib_per_s(
            BULK_BYTES,
            per_iter_s(200, || {
                std::hint::black_box(std::hint::black_box(&bulk).encode());
            }),
        ),
    ));
    out.push(Metric::plain(
        "wire.decode_bulk_gib_s",
        gib_per_s(
            BULK_BYTES,
            per_iter_s(200, || {
                let frame = std::hint::black_box(encoded_bulk.clone());
                std::hint::black_box(Message::decode(frame).expect("own encoding"));
            }),
        ),
    ));
    out.push(Metric::plain(
        "wire.digest_gib_s",
        gib_per_s(
            BULK_BYTES,
            per_iter_s(400, || {
                std::hint::black_box(digest64(std::hint::black_box(&payload)));
            }),
        ),
    ));
}

/// Hands endpoint `a` to `body` while a thread answers every call arriving
/// on `b` with a small `Ok` reply; `b` is closed and the thread joined
/// before returning.
fn with_echo<T>(
    a: Box<dyn Transport>,
    b: Box<dyn Transport>,
    body: impl FnOnce(Box<dyn Transport>) -> T,
) -> T {
    let b: Arc<dyn Transport> = Arc::from(b);
    let server_end = Arc::clone(&b);
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = server_end.recv() {
            if let Message::Call(req) = msg {
                if server_end.send(&ok_reply(req.call_id)).is_err() {
                    return;
                }
            }
        }
    });
    let result = body(a);
    b.close();
    echo.join().expect("echo thread exits cleanly");
    result
}

fn round_trip(guest: &dyn Transport, msg: &Message) {
    guest.send(msg).expect("probe channel is open");
    guest.recv().expect("echo replies");
}

fn transports(out: &mut Vec<Metric>) {
    let small = Message::Call(small_call(1));
    for (name, kind, model, iters) in [
        (
            "transport.inproc_rtt_small_us",
            TransportKind::InProcess,
            CostModel::free(),
            2_000,
        ),
        (
            "transport.shmem_rtt_small_us",
            TransportKind::SharedMemory,
            CostModel::free(),
            2_000,
        ),
        (
            "transport.shmem_pv_rtt_small_us",
            TransportKind::SharedMemory,
            CostModel::paravirtual(),
            500,
        ),
    ] {
        let (a, b) = pair(kind, model).expect("in-memory transports always build");
        let s = with_echo(a, b, |guest| {
            per_iter_s(iters, || round_trip(guest.as_ref(), &small))
        });
        out.push(Metric::plain(name, s * 1e6));
    }

    let payload = bulk_payload();
    let bulk = Message::Call(bulk_call(2, &payload));
    let (a, b) = pair(TransportKind::SharedMemory, CostModel::free())
        .expect("in-memory transports always build");
    let s = with_echo(a, b, |guest| {
        per_iter_s(100, || round_trip(guest.as_ref(), &bulk))
    });
    out.push(Metric::plain(
        "transport.shmem_bulk_gib_s",
        gib_per_s(BULK_BYTES, s),
    ));
}

fn hypervisor(out: &mut Vec<Metric>) {
    let hv = Hypervisor::new(SchedulerKind::Fifo, None);
    let conn = hv
        .add_vm(
            VmPolicy::default(),
            TransportKind::InProcess,
            CostModel::free(),
        )
        .expect("router accepts a VM");
    let vm = conn.vm_id;
    let mut call_id = 0;
    let s = with_echo(conn.guest, conn.server, |guest| {
        per_iter_s(2_000, || {
            call_id += 1;
            round_trip(guest.as_ref(), &Message::Call(small_call(call_id)));
        })
    });
    hv.remove_vm(vm).expect("router is alive");
    out.push(Metric::plain("hypervisor.forward_rtt_small_us", s * 1e6));
}

fn guest(desc: &Arc<ApiDescriptor>, out: &mut Vec<Metric>) {
    let (a, b) = pair(TransportKind::InProcess, CostModel::free())
        .expect("in-memory transports always build");
    let s = with_echo(a, b, |endpoint| {
        let lib = GuestLibrary::new(Arc::clone(desc), endpoint, GuestConfig::default());
        per_iter_s(2_000, || {
            lib.call(
                "clGetPlatformIDs",
                vec![Value::U32(0), Value::Null, Value::U64(1)],
            )
            .expect("stub replies Ok");
        })
    });
    out.push(Metric::plain("guest.call_stub_rtt_us", s * 1e6));
}

fn server(desc: &Arc<ApiDescriptor>, out: &mut Vec<Metric>) {
    let mut server = ApiServer::new(Arc::clone(desc), Box::new(OpenClHandler::new(SimCl::new())));
    let platform_ids = desc
        .by_name("clGetPlatformIDs")
        .expect("bundled spec has clGetPlatformIDs")
        .id;
    let write_buffer = desc
        .by_name("clEnqueueWriteBuffer")
        .expect("bundled spec has clEnqueueWriteBuffer")
        .id;

    // Create a queue and a buffer through the real client, so the probe
    // below can address them by their wire handles.
    let (a, b) = pair(TransportKind::InProcess, CostModel::free())
        .expect("in-memory transports always build");
    let stop = AtomicBool::new(false);
    let (queue, mem) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(b.as_ref(), &stop));
        let client = OpenClClient::new(Arc::new(GuestLibrary::new(
            Arc::clone(desc),
            a,
            GuestConfig::default(),
        )));
        let platform = client.get_platform_ids().expect("platform")[0];
        let device = client
            .get_device_ids(platform, DeviceType::All)
            .expect("device")[0];
        let ctx = client.create_context(device).expect("context");
        let queue = client
            .create_command_queue(ctx, device, QueueProps::default())
            .expect("queue");
        let mem = client
            .create_buffer(ctx, MemFlags::read_write(), BULK_BYTES, None)
            .expect("buffer");
        client.finish(queue).expect("finish");
        stop.store(true, Ordering::Release);
        drop(client);
        serving.join().expect("serve loop exits cleanly");
        (queue, mem)
    });

    let mut call_id = 1_000_000;
    let mut next_id = || {
        call_id += 1;
        call_id
    };
    let s = per_iter_s(5_000, || {
        let reply = server.handle_call(CallRequest {
            call_id: next_id(),
            fn_id: platform_ids,
            mode: CallMode::Sync,
            args: vec![Value::U32(0), Value::Null, Value::U64(1)],
            budget_us: 0,
        });
        assert_eq!(reply.status, ReplyStatus::Ok);
    });
    out.push(Metric::plain("server.handle_call_small_us", s * 1e6));

    let payload = bulk_payload();
    let s = per_iter_s(100, || {
        let reply = server.handle_call(CallRequest {
            call_id: next_id(),
            fn_id: write_buffer,
            mode: CallMode::Sync,
            args: vec![
                Value::Handle(queue.0),
                Value::Handle(mem.0),
                Value::U32(1),
                Value::U64(0),
                Value::U64(BULK_BYTES as u64),
                Value::Bytes(payload.clone()),
                Value::U32(0),
                Value::Null,
                Value::Null,
            ],
            budget_us: 0,
        });
        assert_eq!(reply.status, ReplyStatus::Ok);
    });
    out.push(Metric::plain(
        "server.handle_call_write_gib_s",
        gib_per_s(BULK_BYTES, s),
    ));
}

/// Runs every probe; about a second in a release build.
pub fn run() -> Vec<Metric> {
    let mut out = Vec::new();
    let desc = specs::opencl_descriptor(LowerOptions::default()).expect("bundled spec compiles");
    spec_and_generator(&mut out);
    wire(&mut out);
    transports(&mut out);
    hypervisor(&mut out);
    guest(&desc, &mut out);
    server(&desc, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_dictionary_metric() {
        let metrics = run();
        assert_eq!(metrics.len(), 18);
        for m in &metrics {
            assert!(
                crate::metrics::per_layer(&m.name).is_some(),
                "{} is not in the dictionary",
                m.name
            );
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }
}
