//! Property tests for the shared-memory ring: arbitrary message sequences
//! with arbitrary payload sizes survive arbitrary ring capacities, in
//! order, bit-exactly — including heavy fragmentation.

use ava_transport::shmem::{pair, RingConfig};
use ava_transport::{CostModel, Transport};
use ava_wire::{CallMode, CallRequest, Message, Value};
use proptest::prelude::*;

/// A call with a buffer (passed by reference) and a string of the same
/// size (encoded inline, so the frame itself fragments through the ring).
fn message(id: u64, payload: &[u8]) -> Message {
    Message::Call(CallRequest {
        call_id: id,
        fn_id: (id % 7) as u32,
        mode: if id.is_multiple_of(2) {
            CallMode::Sync
        } else {
            CallMode::Async
        },
        args: vec![
            Value::U64(id),
            Value::Bytes(payload.to_vec().into()),
            Value::Str(payload.iter().map(|&b| char::from(b % 94 + 33)).collect()),
        ],
        budget_us: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rings_preserve_order_and_content(
        capacity_pow in 10u32..16,            // 1 KiB .. 32 KiB rings
        sizes in proptest::collection::vec(0usize..20_000, 1..24),
    ) {
        let config = RingConfig {
            capacity: 1usize << capacity_pow,
            model: CostModel::free(),
        };
        let (a, b) = pair(config);
        let expected: Vec<Message> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| message(i as u64, &vec![(i % 251) as u8; n]))
            .collect();
        let to_send = expected.clone();
        let sender = std::thread::spawn(move || {
            for msg in &to_send {
                a.send(msg).unwrap();
            }
            a
        });
        for want in &expected {
            let got = b.recv().unwrap();
            prop_assert_eq!(&got, want);
        }
        sender.join().unwrap();
    }

    #[test]
    fn bidirectional_streams_do_not_interfere(
        n in 1usize..40,
        size_a in 0usize..4096,
        size_b in 0usize..4096,
    ) {
        let (a, b) = pair(RingConfig { capacity: 8192, model: CostModel::free() });
        let t = std::thread::spawn(move || {
            for i in 0..n {
                let got = b.recv().unwrap();
                match got {
                    Message::Call(req) => assert_eq!(req.call_id, i as u64),
                    other => panic!("{other:?}"),
                }
                b.send(&message(1000 + i as u64, &vec![7u8; size_b])).unwrap();
            }
            b
        });
        for i in 0..n {
            a.send(&message(i as u64, &vec![3u8; size_a])).unwrap();
            match a.recv().unwrap() {
                Message::Call(req) => prop_assert_eq!(req.call_id, 1000 + i as u64),
                other => prop_assert!(false, "{:?}", other),
            }
        }
        t.join().unwrap();
    }
}
