//! Per-layer counts and span means, read from outside the layers: public
//! stats accessors on the guest library, the router and the server, the
//! transport counters the stack registers into an attached registry, the
//! call journal, and the completed cross-tier spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ava_core::{ApiStack, GuestLibrary};
use ava_telemetry::{Registry, SpanRecord};
use ava_wire::VmId;

/// Exact counts for one VM (or, summed, for one round).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    pub sync_calls: u64,
    pub async_calls: u64,
    pub doorbells: u64,
    pub retries: u64,
    pub cache_hits: u64,
    pub forwarded: u64,
    pub shed: u64,
    pub bytes_elided: u64,
    pub est_device_time_us: f64,
    pub server_calls: u64,
    pub duplicates_suppressed: u64,
    /// Transport counters exist only with a registry attached.
    pub frames_out: u64,
    pub frame_bytes_out: u64,
    pub payload_bytes_out: u64,
    pub payload_bytes_back: u64,
    pub journal_entries: u64,
    pub journal_payload_bytes: u64,
}

impl Counts {
    pub fn api_calls(&self) -> u64 {
        self.sync_calls + self.async_calls
    }

    pub fn add(&mut self, o: &Counts) {
        self.sync_calls += o.sync_calls;
        self.async_calls += o.async_calls;
        self.doorbells += o.doorbells;
        self.retries += o.retries;
        self.cache_hits += o.cache_hits;
        self.forwarded += o.forwarded;
        self.shed += o.shed;
        self.bytes_elided += o.bytes_elided;
        self.est_device_time_us += o.est_device_time_us;
        self.server_calls += o.server_calls;
        self.duplicates_suppressed += o.duplicates_suppressed;
        self.frames_out += o.frames_out;
        self.frame_bytes_out += o.frame_bytes_out;
        self.payload_bytes_out += o.payload_bytes_out;
        self.payload_bytes_back += o.payload_bytes_back;
        self.journal_entries += o.journal_entries;
        self.journal_payload_bytes += o.journal_payload_bytes;
    }
}

/// Pushes out batched asynchronous calls and waits until the server has
/// executed everything the guest issued, so the counts below are final.
/// Returns false if the server never caught up.
pub fn quiesce(stack: &ApiStack, vm: VmId, lib: &GuestLibrary) -> bool {
    if lib.flush().is_err() {
        return false;
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let guest = lib.stats();
        let issued = guest.sync_calls + guest.async_calls;
        match stack.vm_server_stats(vm) {
            Ok(server) if server.calls >= issued => return true,
            Ok(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_micros(50)),
            _ => return false,
        }
    }
}

/// Reads one quiesced VM's counters. `registry` adds the guest endpoint's
/// transport counters; `journal` adds a journal snapshot (a clone of every
/// journaled call, so only traced runs ask for it).
pub fn sample(
    stack: &ApiStack,
    vm: VmId,
    lib: &Arc<GuestLibrary>,
    registry: Option<&Registry>,
    journal: bool,
) -> Counts {
    let guest = lib.stats();
    let mut c = Counts {
        sync_calls: guest.sync_calls,
        async_calls: guest.async_calls,
        doorbells: guest.doorbells,
        retries: guest.retries,
        cache_hits: guest.payload_cache_hits,
        ..Counts::default()
    };
    if let Ok(router) = stack.vm_router_stats(vm) {
        c.forwarded = router.forwarded;
        c.shed = router.shed;
        c.bytes_elided = router.bytes_elided;
        c.est_device_time_us = router.est_device_time_us;
    }
    if let Ok(server) = stack.vm_server_stats(vm) {
        c.server_calls = server.calls;
        c.duplicates_suppressed = server.duplicates_suppressed;
    }
    if let Some(registry) = registry {
        let get = |name: &str| {
            registry
                .counter(&format!("transport.vm{vm}.guest.{name}"))
                .get()
        };
        c.frames_out = get("messages_sent");
        c.frame_bytes_out = get("frame_bytes_sent");
        c.payload_bytes_out = get("payload_bytes_sent");
        c.payload_bytes_back = get("payload_bytes_received");
    }
    if journal {
        if let Ok(journal) = stack.vm_journal(vm) {
            c.journal_entries = journal.len() as u64;
            c.journal_payload_bytes = journal
                .entries()
                .iter()
                .map(|e| (e.request.payload_bytes() + e.reply.payload_bytes()) as u64)
                .sum();
        }
    }
    c
}

/// Number of journaled calls for `vm`; the fresh-VM rule asserts 0 at the
/// start of every application run.
pub fn journal_len(stack: &ApiStack, vm: VmId) -> usize {
    stack.vm_journal(vm).map_or(usize::MAX, |j| j.len())
}

/// Running sums over completed synchronous spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSums {
    pub spans: u64,
    /// marshal, transport_out, router_queue, server_execute, reply_path,
    /// transport_back.
    pub segment_ns: [u64; 6],
    pub total_ns: u64,
}

impl SpanSums {
    /// Folds in every span that completed end to end.
    pub fn absorb(&mut self, spans: &[SpanRecord]) {
        for span in spans {
            let Some(total) = span.total() else { continue };
            let segments = [
                span.guest_marshal(),
                span.transport_out(),
                span.router_queue(),
                span.server_execute(),
                span.reply_path(),
                span.transport_back(),
            ];
            self.spans += 1;
            self.total_ns += total;
            for (sum, segment) in self.segment_ns.iter_mut().zip(segments) {
                *sum += segment.unwrap_or(0);
            }
        }
    }

    /// Mean of segment `i` per completed span, microseconds.
    pub fn segment_us(&self, i: usize) -> f64 {
        self.segment_ns[i] as f64 / self.spans as f64 / 1e3
    }

    pub fn e2e_us(&self) -> f64 {
        self.total_ns as f64 / self.spans as f64 / 1e3
    }

    /// Σ segments / Σ end-to-end: the stages telescope, so this is 1
    /// unless a tier lost or reordered a stamp.
    pub fn sum_over_e2e(&self) -> f64 {
        self.segment_ns.iter().sum::<u64>() as f64 / self.total_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_sums_telescope_and_skip_incomplete_spans() {
        let full = SpanRecord {
            guest_start: Some(100),
            sent: Some(150),
            queued: Some(400),
            forwarded: Some(450),
            executed: Some(900),
            replied: Some(950),
            guest_end: Some(1100),
            ..SpanRecord::default()
        };
        let abandoned = SpanRecord {
            guest_start: Some(5),
            sent: Some(9),
            ..SpanRecord::default()
        };
        let mut sums = SpanSums::default();
        sums.absorb(&[full.clone(), abandoned, full]);
        assert_eq!(sums.spans, 2);
        assert_eq!(sums.total_ns, 2000);
        assert_eq!(sums.segment_ns, [100, 500, 100, 900, 100, 300]);
        assert!((sums.sum_over_e2e() - 1.0).abs() < 1e-12);
        assert!((sums.segment_us(1) - 0.25).abs() < 1e-12);
        assert!((sums.e2e_us() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_add_fieldwise() {
        let one = Counts {
            sync_calls: 2,
            async_calls: 3,
            doorbells: 1,
            est_device_time_us: 1.5,
            journal_entries: 5,
            ..Counts::default()
        };
        let mut total = one;
        total.add(&one);
        assert_eq!(total.api_calls(), 10);
        assert_eq!(total.doorbells, 2);
        assert_eq!(total.journal_entries, 10);
        assert!((total.est_device_time_us - 3.0).abs() < 1e-12);
    }
}
