//! Per-endpoint traffic counters.
//!
//! The router uses these for bandwidth accounting and the benchmarks use
//! them to attribute overhead to call frequency vs. data movement.
//!
//! Counters are [`ava_telemetry::Counter`]s, so an endpoint's cell can be
//! registered into a shared [`ava_telemetry::Registry`]
//! ([`StatsCell::register_into`]): the registry and [`StatsCell::snapshot`]
//! then read the same atomics, and `Registry::take()` resets both views.

use std::sync::Arc;

use ava_telemetry::{Counter, Registry};

/// Snapshot of an endpoint's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages sent from this endpoint.
    pub messages_sent: u64,
    /// Messages received by this endpoint.
    pub messages_received: u64,
    /// Payload bytes (buffer/string contents) sent.
    pub payload_bytes_sent: u64,
    /// Payload bytes received.
    pub payload_bytes_received: u64,
    /// Bytes the transport's channel itself carried for the messages sent,
    /// headers included: the whole encoded frame on TCP; on the
    /// shared-memory ring, exactly the ring bytes — frames and their
    /// buffer descriptors, not the payloads, which pass by reference (so
    /// this can be far below `payload_bytes_sent`). Zero on transports that
    /// do not serialize.
    pub frame_bytes_sent: u64,
    /// Channel bytes received, counted as for `frame_bytes_sent`.
    pub frame_bytes_received: u64,
}

/// Shared mutable counters behind an endpoint.
#[derive(Debug, Default)]
pub struct StatsCell {
    messages_sent: Counter,
    messages_received: Counter,
    payload_bytes_sent: Counter,
    payload_bytes_received: Counter,
    frame_bytes_sent: Counter,
    frame_bytes_received: Counter,
}

impl StatsCell {
    /// Creates a zeroed, shareable counter cell.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records a sent message.
    pub fn on_send(&self, payload_bytes: usize, frame_bytes: usize) {
        self.messages_sent.inc();
        self.payload_bytes_sent.add(payload_bytes as u64);
        self.frame_bytes_sent.add(frame_bytes as u64);
    }

    /// Records a received message. `frame_bytes` is what the channel
    /// carried (zero for transports that hand over structured messages).
    pub fn on_recv(&self, payload_bytes: usize, frame_bytes: usize) {
        self.messages_received.inc();
        self.payload_bytes_received.add(payload_bytes as u64);
        self.frame_bytes_received.add(frame_bytes as u64);
    }

    /// Registers this cell's counters into `registry` under
    /// `transport.<prefix>.*`; both views share storage afterwards.
    pub fn register_into(&self, registry: &Registry, prefix: &str) {
        let reg = |name: &str, c: &Counter| {
            registry.register_counter(&format!("transport.{prefix}.{name}"), c);
        };
        reg("messages_sent", &self.messages_sent);
        reg("messages_received", &self.messages_received);
        reg("payload_bytes_sent", &self.payload_bytes_sent);
        reg("payload_bytes_received", &self.payload_bytes_received);
        reg("frame_bytes_sent", &self.frame_bytes_sent);
        reg("frame_bytes_received", &self.frame_bytes_received);
    }

    /// Takes a snapshot.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            messages_sent: self.messages_sent.get(),
            messages_received: self.messages_received.get(),
            payload_bytes_sent: self.payload_bytes_sent.get(),
            payload_bytes_received: self.payload_bytes_received.get(),
            frame_bytes_sent: self.frame_bytes_sent.get(),
            frame_bytes_received: self.frame_bytes_received.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let cell = StatsCell::new();
        cell.on_send(100, 120);
        cell.on_send(50, 66);
        cell.on_recv(7, 19);
        let s = cell.snapshot();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.messages_received, 1);
        assert_eq!(s.payload_bytes_sent, 150);
        assert_eq!(s.payload_bytes_received, 7);
        assert_eq!(s.frame_bytes_sent, 186);
        assert_eq!(s.frame_bytes_received, 19);
    }

    #[test]
    fn registered_cell_shares_storage_with_registry() {
        let registry = Registry::new();
        let cell = StatsCell::new();
        cell.register_into(&registry, "guest");
        cell.on_send(10, 14);
        cell.on_recv(5, 9);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["transport.guest.messages_sent"], 1);
        assert_eq!(snap.counters["transport.guest.payload_bytes_sent"], 10);
        assert_eq!(snap.counters["transport.guest.frame_bytes_received"], 9);
        // take() resets the shared storage: the cell's snapshot reads zero.
        registry.take();
        assert_eq!(cell.snapshot(), TransportStats::default());
    }
}
