//! Per-endpoint traffic counters.
//!
//! The router uses these for bandwidth accounting and the benchmarks use
//! them to attribute overhead to call frequency vs. data movement.
//!
//! The counters are declared with [`ava_telemetry::metric_set!`], so an
//! endpoint's cell registers into a shared [`ava_telemetry::Registry`]
//! under `transport.<prefix>.*` and the registry and
//! [`StatsCell::snapshot`] then read the same atomics.

use std::sync::Arc;

use ava_telemetry::metric_set;

metric_set! {
    /// Snapshot of an endpoint's counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TransportStats;
    #[derive(Debug)]
    pub struct StatsCell {
        /// Messages sent from this endpoint.
        messages_sent: Counter,
        /// Messages received by this endpoint.
        messages_received: Counter,
        /// Payload bytes (buffer/string contents) sent.
        payload_bytes_sent: Counter,
        /// Payload bytes received.
        payload_bytes_received: Counter,
        /// Bytes the transport's channel itself carried for the messages sent,
        /// headers included: the whole encoded frame on TCP; on the
        /// shared-memory ring, exactly the ring bytes — frames and their
        /// buffer descriptors, not the payloads, which pass by reference (so
        /// this can be far below `payload_bytes_sent`). Zero on transports that
        /// do not serialize.
        frame_bytes_sent: Counter,
        /// Channel bytes received, counted as for `frame_bytes_sent`.
        frame_bytes_received: Counter,
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_telemetry::{MetricSet, Registry};

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
        cell.register(&registry, "transport.guest");
        cell.on_send(10, 14);
        cell.on_recv(5, 9);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["transport.guest.messages_sent"], 1);
        assert_eq!(snap.counters["transport.guest.payload_bytes_sent"], 10);
        assert_eq!(snap.counters["transport.guest.frame_bytes_received"], 9);
        // Registry writes land in the cell the endpoint snapshots.
        registry.counter("transport.guest.messages_sent").inc();
        assert_eq!(cell.snapshot().messages_sent, 2);
    }
}
