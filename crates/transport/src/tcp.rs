//! TCP socket transport for disaggregated accelerators.
//!
//! AvA supports pluggable transports so a VM can use an accelerator that
//! lives in another machine (§1, §4.1). This transport carries the same
//! encoded [`Message`] frames over a TCP stream with a 4-byte length
//! prefix followed by an 8-byte extra-delay field (the cost model's
//! delivery latency is materialized on the receiving side, since the two
//! ends do not share a clock).
//!
//! A dedicated reader thread owns the receive half of the socket and
//! pushes decoded messages into a channel: `recv`/`try_recv` never touch
//! the socket, so polling is cheap and partial frames can never be torn by
//! a read timeout.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_telemetry::MetricSet;
use ava_wire::Message;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use parking_lot::Mutex;

use crate::error::{Result, TransportError};
use crate::latency::{wait_until, CostModel};
use crate::stats::{StatsCell, TransportStats};
use crate::Transport;

/// Maximum accepted frame size (matches the wire sanity limit).
const MAX_FRAME: usize = 1 << 32;

/// One endpoint of a TCP transport.
pub struct TcpTransport {
    writer: Mutex<TcpStream>,
    incoming: Receiver<Result<Message>>,
    reader_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    model: CostModel,
    stats: Arc<StatsCell>,
}

impl TcpTransport {
    /// Wraps an established stream.
    pub fn from_stream(stream: TcpStream, model: CostModel) -> Result<Self> {
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (tx, rx) = crossbeam::channel::unbounded();
        let stats = StatsCell::new();
        let reader_stats = Arc::clone(&stats);
        let reader = std::thread::Builder::new()
            .name("ava-tcp-reader".into())
            .spawn(move || reader_loop(read_half, tx, reader_stats))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(TcpTransport {
            writer: Mutex::new(stream),
            incoming: rx,
            reader_thread: Mutex::new(Some(reader)),
            model,
            stats,
        })
    }

    /// Connects to a listening AvA endpoint.
    pub fn connect(addr: &str, model: CostModel) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, model)
    }
}

/// Reads frames off the socket, decodes and (after honouring the modelled
/// delivery delay) forwards them into the channel. Exits on socket close.
fn reader_loop(
    mut socket: TcpStream,
    tx: crossbeam::channel::Sender<Result<Message>>,
    stats: Arc<StatsCell>,
) {
    let mut read_frame = move || -> Result<(Message, usize)> {
        let mut header = [0u8; 12];
        read_exact_mapped(&mut socket, &mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let delay_nanos = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        if len > MAX_FRAME {
            return Err(TransportError::FrameTooLarge {
                size: len,
                limit: MAX_FRAME,
            });
        }
        let mut payload = vec![0u8; len];
        read_exact_mapped(&mut socket, &mut payload)?;
        if delay_nanos > 0 {
            wait_until(Instant::now() + Duration::from_nanos(delay_nanos));
        }
        Ok((Message::decode(bytes::Bytes::from(payload))?, len + 12))
    };
    loop {
        match read_frame() {
            Ok((msg, frame_bytes)) => {
                stats.on_recv(msg.payload_bytes(), frame_bytes);
                if tx.send(Ok(msg)).is_err() {
                    return; // endpoint dropped
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

fn read_exact_mapped(socket: &mut TcpStream, buf: &mut [u8]) -> Result<()> {
    socket.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted => TransportError::Closed,
        _ => TransportError::Io(e.to_string()),
    })
}

impl Transport for TcpTransport {
    fn send(&self, msg: &Message) -> Result<()> {
        let encoded = msg.encode();
        let payload_bytes = msg.payload_bytes();
        let delay = self.model.delivery_latency + self.model.serialization_delay(payload_bytes);
        let now = Instant::now();
        {
            let mut writer = self.writer.lock();
            let mut header = [0u8; 12];
            header[..4].copy_from_slice(&(encoded.len() as u32).to_le_bytes());
            header[4..].copy_from_slice(&(delay.as_nanos() as u64).to_le_bytes());
            writer.write_all(&header)?;
            writer.write_all(&encoded)?;
            writer.flush()?;
        }
        self.stats.on_send(payload_bytes, encoded.len() + 12);
        wait_until(now + self.model.sender_overhead);
        Ok(())
    }

    fn recv(&self) -> Result<Message> {
        match self.incoming.recv() {
            Ok(result) => result,
            Err(_) => Err(TransportError::Closed),
        }
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        match self.incoming.try_recv() {
            Ok(result) => result.map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        match self.incoming.recv_timeout(timeout) {
            Ok(result) => result.map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn close(&self) {
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn register_telemetry(&self, registry: &ava_telemetry::Registry, prefix: &str) {
        self.stats
            .register(registry, &format!("transport.{prefix}"));
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.close();
        if let Some(t) = self.reader_thread.lock().take() {
            let _ = t.join();
        }
    }
}

/// Creates a connected pair over loopback (used for tests and for the
/// single-machine "disaggregated" configuration).
pub fn localhost_pair(model: CostModel) -> Result<(TcpTransport, TcpTransport)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let client = TcpStream::connect(addr)?;
    let (server, _) = listener.accept()?;
    Ok((
        TcpTransport::from_stream(client, model)?,
        TcpTransport::from_stream(server, model)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_wire::{CallMode, CallRequest, ControlMessage, Value};

    fn call(id: u64, bytes: usize) -> Message {
        Message::Call(CallRequest {
            call_id: id,
            fn_id: 3,
            mode: CallMode::Async,
            args: vec![Value::Bytes(bytes::Bytes::from(vec![7u8; bytes]))],
            budget_us: 0,
        })
    }

    #[test]
    fn round_trip_over_loopback() {
        let (a, b) = localhost_pair(CostModel::free()).unwrap();
        let msg = call(11, 4096);
        a.send(&msg).unwrap();
        assert_eq!(b.recv().unwrap(), msg);
    }

    #[test]
    fn many_frames_in_order() {
        let (a, b) = localhost_pair(CostModel::free()).unwrap();
        let t = std::thread::spawn(move || {
            for i in 0..200 {
                a.send(&call(i, 100)).unwrap();
            }
            a
        });
        for i in 0..200 {
            match b.recv().unwrap() {
                Message::Call(req) => assert_eq!(req.call_id, i),
                other => panic!("{other:?}"),
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn try_recv_never_tears_frames() {
        // Large frames + aggressive polling: the reader thread must deliver
        // whole messages no matter how the bytes arrive.
        let (a, b) = localhost_pair(CostModel::free()).unwrap();
        let t = std::thread::spawn(move || {
            for i in 0..50 {
                a.send(&call(i, 256 * 1024)).unwrap();
            }
            a
        });
        let mut got = 0u64;
        while got < 50 {
            if let Some(Message::Call(req)) = b.try_recv().unwrap() {
                assert_eq!(req.call_id, got);
                assert_eq!(req.payload_bytes(), 256 * 1024);
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_expires() {
        let (_a, b) = localhost_pair(CostModel::free()).unwrap();
        let got = b.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn close_surfaces_to_peer() {
        let (a, b) = localhost_pair(CostModel::free()).unwrap();
        a.close();
        assert_eq!(b.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn network_model_delays_delivery() {
        let model = CostModel {
            delivery_latency: Duration::from_millis(5),
            ..CostModel::free()
        };
        let (a, b) = localhost_pair(model).unwrap();
        let start = Instant::now();
        a.send(&Message::Control(ControlMessage::Ping(0))).unwrap();
        b.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn sync_round_trip_latency_is_sane() {
        // Regression guard for the polling-cost bug: a free-model TCP
        // round trip must be well under a millisecond on loopback.
        let (a, b) = localhost_pair(CostModel::free()).unwrap();
        let echo = std::thread::spawn(move || {
            while let Ok(msg) = b.recv() {
                if b.send(&msg).is_err() {
                    break;
                }
            }
        });
        let n = 200;
        let start = Instant::now();
        for i in 0..n {
            a.send(&call(i, 64)).unwrap();
            a.recv().unwrap();
        }
        let per_call = start.elapsed() / n as u32;
        assert!(
            per_call < Duration::from_millis(1),
            "round trip {per_call:?} too slow"
        );
        a.close();
        echo.join().unwrap();
    }
}
