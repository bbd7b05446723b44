//! In-process channel transport.
//!
//! Messages are passed by value over a crossbeam channel — no serialization
//! and (by default) no modelled costs. This is the baseline "ideal"
//! transport, and it also backs the router↔server hop when both run in the
//! same host process.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_telemetry::MetricSet;
use ava_wire::Message;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, SendError, Sender, TryRecvError};

use crate::error::{Result, TransportError};
use crate::latency::{wait_until, CostModel};
use crate::stats::{StatsCell, TransportStats};
use crate::Transport;

/// A message annotated with the instant it becomes deliverable.
enum Timed {
    /// An ordinary message.
    Msg {
        /// When the receiver may observe the message.
        deliver_at: Instant,
        /// The message itself.
        msg: Message,
    },
    /// Sent by [`Transport::close`] so a blocked receiver wakes up.
    Closed,
    /// Sent by [`Transport::wake`] into the endpoint's own queue: a
    /// receiver blocked in `recv_timeout` returns early, every other
    /// receive skips it.
    Wake,
}

/// One endpoint of an in-process transport pair.
pub struct InProcTransport {
    tx: Sender<Timed>,
    rx: Receiver<Timed>,
    /// Sender into this endpoint's own queue, for [`Transport::wake`]. It
    /// keeps `rx` from ever seeing a disconnect, so dropping an endpoint
    /// closes the pair instead.
    wake_tx: Sender<Timed>,
    model: CostModel,
    stats: Arc<StatsCell>,
    closed: Arc<std::sync::atomic::AtomicBool>,
}

/// Creates a connected pair with the given cost model.
pub fn pair(model: CostModel) -> (InProcTransport, InProcTransport) {
    let (tx_ab, rx_ab) = channel::unbounded();
    let (tx_ba, rx_ba) = channel::unbounded();
    let closed = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let a = InProcTransport {
        wake_tx: tx_ba.clone(),
        tx: tx_ab.clone(),
        rx: rx_ba,
        model,
        stats: StatsCell::new(),
        closed: Arc::clone(&closed),
    };
    let b = InProcTransport {
        wake_tx: tx_ab,
        tx: tx_ba,
        rx: rx_ab,
        model,
        stats: StatsCell::new(),
        closed,
    };
    (a, b)
}

impl InProcTransport {
    /// Unwraps one queue entry; `Ok(None)` is a [`Timed::Wake`].
    fn deliver(&self, timed: Timed) -> Result<Option<Message>> {
        match timed {
            Timed::Msg { deliver_at, msg } => {
                wait_until(deliver_at);
                self.stats.on_recv(msg.payload_bytes(), 0);
                Ok(Some(msg))
            }
            Timed::Closed => Err(TransportError::Closed),
            Timed::Wake => Ok(None),
        }
    }

    /// Queues `msg` for the peer. On failure the message is handed back.
    fn push(&self, msg: Message) -> std::result::Result<(), (TransportError, Message)> {
        if let Err(e) = self.check_open() {
            return Err((e, msg));
        }
        let payload = msg.payload_bytes();
        let now = Instant::now();
        let timed = Timed::Msg {
            deliver_at: self.model.deliver_at(now, payload),
            msg,
        };
        if let Err(SendError(timed)) = self.tx.send(timed) {
            let Timed::Msg { msg, .. } = timed else {
                unreachable!("only a message was sent")
            };
            return Err((TransportError::Closed, msg));
        }
        self.stats.on_send(payload, 0);
        wait_until(now + self.model.sender_overhead);
        Ok(())
    }

    fn check_open(&self) -> Result<()> {
        if self.closed.load(std::sync::atomic::Ordering::Acquire) {
            Err(TransportError::Closed)
        } else {
            Ok(())
        }
    }

    /// `Err(Closed)` once the pair is closed *and* this end's queue is
    /// empty; pending frames that raced the close stay receivable.
    fn closed_after_drain(&self) -> Result<()> {
        if self.closed.load(std::sync::atomic::Ordering::Acquire) && self.rx.is_empty() {
            Err(TransportError::Closed)
        } else {
            Ok(())
        }
    }
}

impl Transport for InProcTransport {
    fn send(&self, msg: &Message) -> Result<()> {
        self.push(msg.clone()).map_err(|(e, _)| e)
    }

    fn send_owned(&self, msg: Message) -> std::result::Result<(), (TransportError, Message)> {
        self.push(msg)
    }

    fn recv(&self) -> Result<Message> {
        // Poll rather than block indefinitely: once the pair is closed and
        // the backlog (including the wake-up sentinel) has been drained, a
        // blocked receiver must still observe `Closed` rather than hang —
        // the sentinel is consumed by whichever receive gets there first.
        loop {
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(timed) => {
                    if let Some(msg) = self.deliver(timed)? {
                        return Ok(msg);
                    }
                }
                Err(RecvTimeoutError::Timeout) => self.closed_after_drain()?,
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        loop {
            match self.rx.try_recv() {
                // A message whose deliver-at lies ahead is drained anyway
                // (blocking the short remainder) rather than re-queued,
                // which would reorder traffic.
                Ok(timed) => {
                    if let Some(msg) = self.deliver(timed)? {
                        return Ok(Some(msg));
                    }
                }
                Err(TryRecvError::Empty) => {
                    self.closed_after_drain()?;
                    return Ok(None);
                }
                Err(TryRecvError::Disconnected) => return Err(TransportError::Closed),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        match self.rx.recv_timeout(timeout) {
            Ok(timed) => self.deliver(timed),
            Err(RecvTimeoutError::Timeout) => {
                self.closed_after_drain()?;
                Ok(None)
            }
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn close(&self) {
        self.closed
            .store(true, std::sync::atomic::Ordering::Release);
        // Wake a receiver blocked on the peer end.
        let _ = self.tx.send(Timed::Closed);
    }

    fn wake(&self) {
        let _ = self.wake_tx.send(Timed::Wake);
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn register_telemetry(&self, registry: &ava_telemetry::Registry, prefix: &str) {
        self.stats
            .register(registry, &format!("transport.{prefix}"));
    }
}

impl Drop for InProcTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_wire::{CallMode, CallRequest, ControlMessage, Value};

    fn call(id: u64, bytes: usize) -> Message {
        Message::Call(CallRequest {
            call_id: id,
            fn_id: 1,
            mode: CallMode::Sync,
            args: vec![Value::Bytes(bytes::Bytes::from(vec![0u8; bytes]))],
            budget_us: 0,
        })
    }

    #[test]
    fn round_trip_preserves_order() {
        let (a, b) = pair(CostModel::free());
        for i in 0..100 {
            a.send(&call(i, 10)).unwrap();
        }
        for i in 0..100 {
            match b.recv().unwrap() {
                Message::Call(req) => assert_eq!(req.call_id, i),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn try_recv_on_empty_returns_none() {
        let (a, b) = pair(CostModel::free());
        assert_eq!(b.try_recv().unwrap(), None);
        a.send(&call(1, 0)).unwrap();
        assert!(b.try_recv().unwrap().is_some());
    }

    #[test]
    fn recv_timeout_expires() {
        let (_a, b) = pair(CostModel::free());
        let got = b.recv_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn owned_send_moves_the_message_and_hands_it_back_on_failure() {
        let (a, b) = pair(CostModel::free());
        let payload = bytes::Bytes::from(vec![7u8; 64]);
        let msg = Message::Call(CallRequest {
            call_id: 1,
            fn_id: 1,
            mode: CallMode::Async,
            args: vec![Value::Bytes(payload.clone())],
            budget_us: 0,
        });
        a.send_owned(msg).unwrap();
        match b.recv().unwrap() {
            Message::Call(req) => match &req.args[0] {
                Value::Bytes(got) => assert_eq!(got.as_ptr(), payload.as_ptr()),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        drop(b);
        let (err, back) = a.send_owned(call(2, 0)).unwrap_err();
        assert_eq!(err, TransportError::Closed);
        assert_eq!(back, call(2, 0));
    }

    #[test]
    fn wake_cuts_a_blocked_receive_short_and_keeps_the_queue() {
        let (a, b) = pair(CostModel::free());
        let b = Arc::new(b);
        let waiter = Arc::clone(&b);
        let (started_tx, started_rx) = channel::unbounded();
        let blocked = std::thread::spawn(move || {
            started_tx.send(()).unwrap();
            let start = Instant::now();
            let got = waiter.recv_timeout(Duration::from_secs(30)).unwrap();
            (got, start.elapsed())
        });
        started_rx.recv().unwrap();
        b.wake();
        let (got, waited) = blocked.join().unwrap();
        assert_eq!(got, None);
        assert!(waited < Duration::from_secs(10), "woke after {waited:?}");
        // A wake left in the queue is invisible to every other receive.
        b.wake();
        a.send(&call(1, 0)).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(call(1, 0)));
        assert_eq!(b.try_recv().unwrap(), None);
    }

    #[test]
    fn dropped_peer_closes_channel() {
        let (a, b) = pair(CostModel::free());
        drop(a);
        assert_eq!(b.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn stats_count_traffic() {
        let (a, b) = pair(CostModel::free());
        a.send(&call(1, 500)).unwrap();
        a.send(&Message::Control(ControlMessage::Ping(0))).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(a.stats().messages_sent, 2);
        assert_eq!(a.stats().payload_bytes_sent, 500);
        assert_eq!(b.stats().messages_received, 2);
        assert_eq!(b.stats().payload_bytes_received, 500);
    }

    #[test]
    fn latency_model_delays_delivery() {
        let model = CostModel {
            delivery_latency: Duration::from_millis(5),
            ..CostModel::free()
        };
        let (a, b) = pair(model);
        let start = Instant::now();
        a.send(&call(1, 0)).unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn bandwidth_model_charges_large_payloads() {
        let model = CostModel {
            bytes_per_sec: Some(1_000_000), // 1 MB/s
            ..CostModel::free()
        };
        let (a, b) = pair(model);
        let start = Instant::now();
        a.send(&call(1, 10_000)).unwrap(); // 10 ms at 1 MB/s
        b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(10));
    }
}
