//! Cost model for para-virtual and disaggregated transports.
//!
//! AvA's end-to-end overhead is determined by the frequency and mode of
//! guest/host communication (§2). The simulated transports reproduce that
//! cost structure mechanistically: each crossing pays a fixed latency
//! (doorbell + exit/injection on a para-virtual path, propagation on a
//! network path) and payload bytes pay a bandwidth cost. Overhead therefore
//! emerges from each workload's call profile rather than from per-benchmark
//! constants.

use std::time::{Duration, Instant};

/// Per-message cost model applied by a transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost paid by the *sender* per crossing (models the guest's vm-exit /
    /// doorbell write on a para-virtual transport).
    pub sender_overhead: Duration,
    /// One-way delivery latency before the message becomes visible to the
    /// receiver (interrupt injection, scheduling, or network propagation).
    pub delivery_latency: Duration,
    /// Payload bandwidth in bytes per second; `None` means unbounded. On
    /// the shared-memory ring this is the only per-byte cost: payloads
    /// pass by descriptor and are never copied through the ring, so the
    /// link's bandwidth exists only as this modelled term.
    pub bytes_per_sec: Option<u64>,
}

impl CostModel {
    /// No modelled costs at all (ideal transport).
    pub const fn free() -> Self {
        CostModel {
            sender_overhead: Duration::ZERO,
            delivery_latency: Duration::ZERO,
            bytes_per_sec: None,
        }
    }

    /// Defaults modelled on a virtio-style para-virtual channel: ~1 µs of
    /// guest-side doorbell cost (exitless notification, as production
    /// virtio rings use) and ~8 µs one-way delivery, with copy bandwidth
    /// around 12 GB/s.
    pub const fn paravirtual() -> Self {
        CostModel {
            sender_overhead: Duration::from_micros(1),
            delivery_latency: Duration::from_micros(8),
            bytes_per_sec: Some(12_000_000_000),
        }
    }

    /// Defaults modelled on trap-based interposition: every crossing is a
    /// full VM exit (hypercall or emulated doorbell write) handled by the
    /// hypervisor, plus interrupt-injection delivery — the regime AvA's §2
    /// overhead argument targets, where per-call forwarding costs tens of
    /// microseconds and call *frequency*, not payload volume, dominates.
    /// Contrast with [`CostModel::paravirtual`], whose exitless doorbell
    /// costs ~1 µs: batching exists precisely to amortize this gap.
    pub const fn trap() -> Self {
        CostModel {
            sender_overhead: Duration::from_micros(20),
            delivery_latency: Duration::from_micros(15),
            bytes_per_sec: Some(12_000_000_000),
        }
    }

    /// Defaults modelled on a datacenter network hop (disaggregated
    /// accelerators): ~20 µs one-way and 10 GbE-class bandwidth.
    pub const fn network() -> Self {
        CostModel {
            sender_overhead: Duration::from_micros(3),
            delivery_latency: Duration::from_micros(20),
            bytes_per_sec: Some(1_250_000_000),
        }
    }

    /// Time the payload occupies the link.
    pub fn serialization_delay(&self, payload_bytes: usize) -> Duration {
        match self.bytes_per_sec {
            Some(bw) if bw > 0 => {
                let nanos = (payload_bytes as u128).saturating_mul(1_000_000_000) / u128::from(bw);
                Duration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64)
            }
            _ => Duration::ZERO,
        }
    }

    /// The instant at which a message sent *now* with `payload_bytes` of
    /// payload becomes visible to the receiver.
    pub fn deliver_at(&self, now: Instant, payload_bytes: usize) -> Instant {
        now + self.delivery_latency + self.serialization_delay(payload_bytes)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::free()
    }
}

/// Waits until `deadline` without monopolizing a core.
///
/// The modelled latencies are single-digit microseconds; OS sleep
/// granularity is far coarser, so short waits spin and long waits sleep.
/// The spin window covers every built-in model's crossing latency on
/// purpose: yielding instead would hand the core to another thread for a
/// full scheduling quantum (milliseconds under load — a 100×+ overshoot
/// of the modelled cost), which both distorts the model and makes
/// forwarding throughput hostage to scheduler luck on small machines.
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(200) {
            std::thread::sleep(remaining - Duration::from_micros(100));
        } else if remaining > Duration::from_micros(25) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_adds_nothing() {
        let m = CostModel::free();
        let now = Instant::now();
        assert_eq!(m.deliver_at(now, 1 << 20), now);
        assert_eq!(m.serialization_delay(usize::MAX), Duration::ZERO);
    }

    #[test]
    fn serialization_scales_with_bytes() {
        let m = CostModel {
            bytes_per_sec: Some(1_000_000_000),
            ..CostModel::free()
        };
        assert_eq!(m.serialization_delay(0), Duration::ZERO);
        assert_eq!(m.serialization_delay(1_000_000), Duration::from_millis(1));
        assert!(m.serialization_delay(100) < m.serialization_delay(1_000_000));
    }

    #[test]
    fn paravirtual_is_cheaper_than_network() {
        let pv = CostModel::paravirtual();
        let net = CostModel::network();
        assert!(pv.delivery_latency < net.delivery_latency);
        assert!(pv.bytes_per_sec.unwrap() > net.bytes_per_sec.unwrap());
    }

    #[test]
    fn wait_until_blocks_roughly_right() {
        let start = Instant::now();
        wait_until(start + Duration::from_micros(200));
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_micros(200));
        assert!(
            elapsed < Duration::from_millis(50),
            "overslept: {elapsed:?}"
        );
    }

    #[test]
    fn zero_bandwidth_is_treated_as_unbounded() {
        let m = CostModel {
            bytes_per_sec: Some(0),
            ..CostModel::free()
        };
        assert_eq!(m.serialization_delay(1234), Duration::ZERO);
    }
}
