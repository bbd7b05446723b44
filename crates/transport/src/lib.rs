//! Pluggable, interposable transports for AvA.
//!
//! Every forwarded API call flows through a [`Transport`] pair. The
//! hypervisor owns both ends of the guest-visible channel, which is what
//! restores interposition to API remoting (§2–3 of the paper): the router
//! sits between the guest's endpoint and the API server's endpoint and sees
//! every command.
//!
//! Three implementations are provided:
//!
//! * [`inproc`] — an in-process channel; the "ideal" transport used as the
//!   zero-overhead baseline and in unit tests.
//! * [`shmem`] — a virtio-style shared-memory ring: frames are actually
//!   serialized into a byte ring guarded by atomics, payload buffers pass
//!   beside them by descriptor, and a [`CostModel`] charges doorbell/exit,
//!   delivery and bandwidth costs. This is the default para-virtual
//!   transport.
//! * [`tcp`] — a socket transport for disaggregated accelerators (the
//!   LegoOS-style configuration mentioned in §4.1).

pub mod error;
pub mod fault;
pub mod inproc;
pub mod latency;
pub mod shmem;
pub mod stats;
pub mod tcp;

use std::time::Duration;

use ava_wire::Message;

pub use error::{Result, TransportError};
pub use fault::{FaultAction, FaultInjector, FaultPlan, FaultStats};
pub use latency::CostModel;
pub use stats::TransportStats;

/// A bidirectional, message-oriented channel endpoint.
///
/// All methods take `&self`: implementations are internally synchronized so
/// an endpoint can be shared between a sender thread and a receiver thread.
pub trait Transport: Send + Sync {
    /// Sends one message. Blocks if the channel is full.
    fn send(&self, msg: &Message) -> Result<()>;

    /// Sends one message the caller is done with. A transport that hands
    /// messages over without serializing them moves it instead of cloning
    /// it; on failure the message comes back with the error, so the caller
    /// can requeue it.
    fn send_owned(&self, msg: Message) -> std::result::Result<(), (TransportError, Message)> {
        match self.send(&msg) {
            Ok(()) => Ok(()),
            Err(e) => Err((e, msg)),
        }
    }

    /// Receives the next message, blocking until one arrives or the peer
    /// closes.
    fn recv(&self) -> Result<Message>;

    /// Receives the next message if one is already available.
    fn try_recv(&self) -> Result<Option<Message>>;

    /// Receives the next message, waiting at most `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>>;

    /// Wakes a receiver blocked in [`Transport::recv_timeout`] on this
    /// endpoint: it returns `Ok(None)` early and queued messages stay
    /// queued. Default: no-op, the receiver wakes at its timeout.
    fn wake(&self) {}

    /// Closes the endpoint; the peer's pending and future operations fail
    /// with [`TransportError::Closed`] once drained.
    fn close(&self);

    /// Traffic counters for this endpoint.
    fn stats(&self) -> TransportStats;

    /// Registers this endpoint's counters into `registry` under
    /// `transport.<prefix>.*`, sharing storage with [`Transport::stats`].
    /// Default: no-op, for transports without exposable counters.
    fn register_telemetry(&self, registry: &ava_telemetry::Registry, prefix: &str) {
        let _ = (registry, prefix);
    }
}

/// Boxed transport, the form the runtime components pass around.
pub type BoxedTransport = Box<dyn Transport>;

/// Which concrete transport to build; used by configuration surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channel (no modelled costs unless specified).
    InProcess,
    /// Shared-memory ring (para-virtual default).
    SharedMemory,
    /// TCP socket (disaggregated accelerators).
    Tcp,
}

/// Builds a connected transport pair of the given kind with `model` costs.
///
/// The first element is conventionally the guest/driver side and the second
/// the host/device side, but the endpoints are symmetric.
pub fn pair(kind: TransportKind, model: CostModel) -> Result<(BoxedTransport, BoxedTransport)> {
    match kind {
        TransportKind::InProcess => {
            let (a, b) = inproc::pair(model);
            Ok((Box::new(a), Box::new(b)))
        }
        TransportKind::SharedMemory => {
            let (a, b) = shmem::pair(shmem::RingConfig {
                model,
                ..Default::default()
            });
            Ok((Box::new(a), Box::new(b)))
        }
        TransportKind::Tcp => {
            let (a, b) = tcp::localhost_pair(model)?;
            Ok((Box::new(a), Box::new(b)))
        }
    }
}

#[cfg(test)]
mod pair_tests {
    use super::*;
    use ava_wire::ControlMessage;

    #[test]
    fn all_kinds_round_trip_a_message() {
        for kind in [
            TransportKind::InProcess,
            TransportKind::SharedMemory,
            TransportKind::Tcp,
        ] {
            let (a, b) = pair(kind, CostModel::free()).unwrap();
            let msg = Message::Control(ControlMessage::Ping(42));
            a.send(&msg).unwrap();
            assert_eq!(b.recv().unwrap(), msg, "{kind:?}");
            let reply = Message::Control(ControlMessage::Pong(42));
            b.send(&reply).unwrap();
            assert_eq!(a.recv().unwrap(), reply, "{kind:?}");
        }
    }
}
