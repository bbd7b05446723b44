//! Property tests: every well-formed message survives an encode/decode cycle
//! and a by-reference crossing of a shared-memory ring, and the decoder
//! never panics on arbitrary input.

use ava_transport::shmem::{self, RingConfig};
use ava_transport::{CostModel, Transport};
use ava_wire::{
    CallMode, CallReply, CallRequest, ControlMessage, Message, ReplyStatus, Value, WireError,
    MAX_BATCH_CALLS,
};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::I32),
        any::<i64>().prop_map(Value::I64),
        any::<u32>().prop_map(Value::U32),
        any::<u64>().prop_map(Value::U64),
        any::<f32>()
            .prop_filter("NaN != NaN", |f| !f.is_nan())
            .prop_map(Value::F32),
        any::<f64>()
            .prop_filter("NaN != NaN", |f| !f.is_nan())
            .prop_map(Value::F64),
        any::<u64>().prop_map(Value::Handle),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(|v| Value::Bytes(Bytes::from(v))),
        "[a-zA-Z0-9 _:/.-]{0,64}".prop_map(Value::Str),
        (any::<u64>(), 0u64..=u32::MAX as u64)
            .prop_map(|(digest, len)| Value::CachedBytes { digest, len }),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        proptest::collection::vec(inner, 0..8).prop_map(Value::List)
    })
}

/// Deadline budgets weighted toward the interesting edges: no deadline,
/// tiny/zero-adjacent budgets, and overflow-sized values.
fn arb_budget() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        1u64..10_000_000,
        Just(u64::MAX - 1),
        Just(u64::MAX),
    ]
}

fn arb_call() -> impl Strategy<Value = CallRequest> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        proptest::collection::vec(arb_value(), 0..6),
        arb_budget(),
    )
        .prop_map(|(call_id, fn_id, is_async, args, budget_us)| CallRequest {
            call_id,
            fn_id,
            mode: if is_async {
                CallMode::Async
            } else {
                CallMode::Sync
            },
            args,
            budget_us,
        })
}

fn arb_reply() -> impl Strategy<Value = CallReply> {
    (
        any::<u64>(),
        0u8..7,
        arb_value(),
        proptest::collection::vec((any::<u32>(), arb_value()), 0..4),
    )
        .prop_map(|(call_id, status, ret, outputs)| CallReply {
            call_id,
            status: match status {
                0 => ReplyStatus::Ok,
                1 => ReplyStatus::TransportError,
                2 => ReplyStatus::PolicyRejected,
                3 => ReplyStatus::CacheMiss,
                4 => ReplyStatus::Unavailable,
                5 => ReplyStatus::QuotaExceeded,
                _ => ReplyStatus::Overloaded,
            },
            ret,
            outputs,
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_call().prop_map(Message::Call),
        arb_reply().prop_map(Message::Reply),
        proptest::collection::vec(arb_call(), 0..4).prop_map(Message::Batch),
        prop_oneof![
            any::<u64>().prop_map(ControlMessage::Ping),
            any::<u64>().prop_map(ControlMessage::Pong),
            Just(ControlMessage::Shutdown),
            Just(ControlMessage::Suspend),
            Just(ControlMessage::Resume),
            "[ -~]{0,32}".prop_map(ControlMessage::Error),
            any::<u64>().prop_map(ControlMessage::CacheEpoch),
            any::<u64>().prop_map(ControlMessage::Heartbeat),
            any::<u64>().prop_map(ControlMessage::HeartbeatAck),
        ]
        .prop_map(Message::Control),
    ]
}

/// Batch-shaped calls with the transfer-cache value mix the adaptive
/// batcher actually produces: plain payloads, cache references, and
/// nested lists containing `CachedBytes` members.
fn arb_cachey_call() -> impl Strategy<Value = CallRequest> {
    let cachey_value = prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(|v| Value::Bytes(Bytes::from(v))),
        (any::<u64>(), 0u64..=u32::MAX as u64)
            .prop_map(|(digest, len)| Value::CachedBytes { digest, len }),
        proptest::collection::vec(
            (any::<u64>(), 0u64..1024).prop_map(|(digest, len)| Value::CachedBytes { digest, len }),
            0..4
        )
        .prop_map(Value::List),
    ];
    (
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        proptest::collection::vec(cachey_value, 0..5),
        arb_budget(),
    )
        .prop_map(|(call_id, fn_id, is_async, args, budget_us)| CallRequest {
            call_id,
            fn_id,
            mode: if is_async {
                CallMode::Async
            } else {
                CallMode::Sync
            },
            args,
            budget_us,
        })
}

/// The shapes by-reference encoding must get right, sent in every case
/// ahead of the generated messages: an empty buffer, buffers nested in
/// lists, a reply's `ret` and outputs, and buffers across batch members.
fn payload_shapes() -> Vec<Message> {
    let buf = |n: usize| Value::Bytes(Bytes::from(vec![n as u8; n]));
    let call = |id: u64, args: Vec<Value>| CallRequest {
        call_id: id,
        fn_id: 1,
        mode: CallMode::Async,
        args,
        budget_us: 0,
    };
    vec![
        Message::Call(call(
            1,
            vec![
                Value::Bytes(Bytes::new()),
                Value::List(vec![buf(3), Value::List(vec![buf(0), buf(70)])]),
            ],
        )),
        Message::Reply(CallReply {
            call_id: 1,
            status: ReplyStatus::Ok,
            ret: buf(5),
            outputs: vec![(2, buf(0)), (3, buf(300))],
        }),
        Message::Batch(vec![
            call(2, vec![buf(9)]),
            call(3, vec![]),
            call(4, vec![buf(1)]),
        ]),
    ]
}

proptest! {
    #[test]
    fn messages_round_trip_over_a_shared_memory_ring(
        generated in proptest::collection::vec(arb_message(), 0..12),
    ) {
        // A 4 KiB ring: large frames fragment, buffers pass by reference.
        let (a, b) = shmem::pair(RingConfig { capacity: 4096, model: CostModel::free() });
        let mut msgs = payload_shapes();
        msgs.extend(generated);
        let to_send = msgs.clone();
        let sender = std::thread::spawn(move || {
            for msg in &to_send {
                a.send(msg).unwrap();
            }
            a
        });
        for want in &msgs {
            prop_assert_eq!(&b.recv().unwrap(), want);
        }
        sender.join().unwrap();
    }

    #[test]
    fn message_round_trips(msg in arb_message()) {
        let encoded = msg.encode();
        let decoded = Message::decode(encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Either outcome is fine; the property is "no panic, no hang".
        let _ = Message::decode(Bytes::from(bytes));
    }

    #[test]
    fn truncated_frames_never_panic(msg in arb_message(), cut in 0usize..64) {
        // Model a corrupting link that chops a frame: the decoder must fail
        // cleanly (no panic, no partial message accepted as a longer one).
        let encoded = msg.encode();
        if cut < encoded.len() {
            let truncated = encoded.slice(0..encoded.len() - cut - 1);
            let _ = Message::decode(truncated);
        }
    }

    #[test]
    fn flipped_byte_never_panics(msg in arb_message(), pos in any::<prop::sample::Index>(), mask in 1u8..=255) {
        // Model single-byte corruption: decode either fails or yields some
        // well-formed message, but never panics.
        let encoded = msg.encode();
        let mut raw = encoded.to_vec();
        let idx = pos.index(raw.len());
        raw[idx] ^= mask;
        let _ = Message::decode(Bytes::from(raw));
    }

    #[test]
    fn large_cachey_batches_round_trip(calls in proptest::collection::vec(arb_cachey_call(), 0..96)) {
        let msg = Message::Batch(calls);
        let encoded = msg.encode();
        let decoded = Message::decode(encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_batches_error_cleanly(
        calls in proptest::collection::vec(arb_cachey_call(), 1..32),
        frac in 0.0f64..1.0,
    ) {
        // Any strict prefix of a batch frame must decode to an error —
        // never to a panic, and never to a successfully decoded batch
        // (a partially applied batch would break retry-as-a-unit).
        let msg = Message::Batch(calls);
        let encoded = msg.encode();
        let keep = ((encoded.len() as f64) * frac) as usize;
        if keep < encoded.len() {
            prop_assert!(Message::decode(encoded.slice(0..keep)).is_err());
        }
    }

    #[test]
    fn oversized_batch_counts_rejected(extra in 1u64..1_000_000, garbage in proptest::collection::vec(any::<u8>(), 0..64)) {
        // A frame claiming more member calls than MAX_BATCH_CALLS must be
        // refused by the cap (when enough bytes follow to defeat the EOF
        // guard) or fail some other way — never allocate or decode.
        let count = MAX_BATCH_CALLS as u64 + extra;
        let mut raw = vec![0x12u8]; // BATCH kind
        let mut v = count;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                raw.push(byte);
                break;
            }
            raw.push(byte | 0x80);
        }
        let body = count.min(MAX_BATCH_CALLS as u64 + 2) as usize + garbage.len();
        raw.extend(std::iter::repeat_n(0u8, body));
        match Message::decode(Bytes::from(raw)) {
            Err(WireError::BatchTooLarge(n)) => prop_assert_eq!(n as u64, count),
            Err(_) => {}
            Ok(msg) => prop_assert!(false, "oversized batch decoded: {:?}", msg),
        }
    }

    #[test]
    fn value_round_trips(v in arb_value()) {
        let mut buf = bytes::BytesMut::new();
        v.encode(&mut buf);
        let mut bytes = buf.freeze();
        let decoded = Value::decode(&mut bytes).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert!(bytes.is_empty());
    }
}
