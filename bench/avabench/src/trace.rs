//! State of a traced run: the benchmark-side span store, running
//! aggregates over API calls on both sides, and the layer counts and span
//! sums read from the stack — plus the per-layer metrics they turn into.

use std::time::Instant;

use crate::layers::{Counts, SpanSums};
use crate::report::Metric;
use crate::spans::{SpanStore, Track};
use crate::stats::percentile_ns_as_us;
use crate::timed::{ApiFn, CallLog, CallRec};

/// Calls carrying at least this much payload count as bulk calls.
const BULK_CALL_BYTES: u32 = 64 << 10;

/// Aggregates over the API calls of one side. Unlike the span store these
/// never drop a call.
#[derive(Debug, Default)]
pub struct ApiAgg {
    pub calls: u64,
    pub busy_ns: u64,
    /// Time inside `mvnc*` calls (a subset of `busy_ns`).
    pub nc_busy_ns: u64,
    durs_ns: Vec<u32>,
    bulk_durs_ns: Vec<u32>,
}

impl ApiAgg {
    fn absorb(&mut self, calls: &[CallRec]) {
        self.calls += calls.len() as u64;
        for call in calls {
            self.busy_ns += u64::from(call.dur_ns);
            if call.func as u8 >= ApiFn::NcGetDeviceName as u8 {
                self.nc_busy_ns += u64::from(call.dur_ns);
            }
            self.durs_ns.push(call.dur_ns);
            if call.bytes >= BULK_CALL_BYTES {
                self.bulk_durs_ns.push(call.dur_ns);
            }
        }
    }
}

pub struct Trace {
    pub epoch: Instant,
    pub store: SpanStore,
    pub ava: ApiAgg,
    pub native: ApiAgg,
    /// Native application wall time, to derive time outside API calls.
    pub native_wall_ns: u64,
    /// Summed layer counts of every traced round.
    pub counts: Counts,
    pub spans: SpanSums,
    pub rounds: u64,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            store: SpanStore::default(),
            ava: ApiAgg::default(),
            native: ApiAgg::default(),
            native_wall_ns: 0,
            counts: Counts::default(),
            spans: SpanSums::default(),
            rounds: 0,
        }
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Files one application (or tenant) run: a span for the run under
    /// `round_span`, its calls under that, and the side's aggregates.
    #[allow(clippy::too_many_arguments)]
    pub fn file_run(
        &mut self,
        round_span: u64,
        name: &'static str,
        track: Track,
        round: u32,
        start: Instant,
        wall_ns: u64,
        log: &CallLog,
    ) {
        let calls = log.drain();
        let run = self.store.push(
            round_span,
            name,
            track,
            round,
            self.ns_since_epoch(start),
            wall_ns,
        );
        self.store.push_calls(run, track, round, &calls);
        match track {
            Track::Ava(_) => self.ava.absorb(&calls),
            Track::Native(_) => {
                self.native.absorb(&calls);
                self.native_wall_ns += wall_ns;
            }
            Track::Rounds => {}
        }
    }

    /// The (C), (S) and (B) metrics every workload reports, per round.
    pub fn layer_metrics(&mut self, out: &mut Vec<Metric>) {
        let rounds = self.rounds.max(1) as f64;
        let per_round = |total: u64| total as f64 / rounds;
        let c = self.counts;
        let mut put = |name: &str, value: f64| out.push(Metric::plain(name, value));

        put("guest.doorbells", per_round(c.doorbells));
        put(
            "guest.batch_fill",
            c.api_calls() as f64 / c.doorbells.max(1) as f64,
        );
        put("guest.sync_calls", per_round(c.sync_calls));
        put("guest.async_calls", per_round(c.async_calls));
        put("guest.retries", per_round(c.retries));
        put("transport.frames_out", per_round(c.frames_out));
        put("transport.frame_bytes_out", per_round(c.frame_bytes_out));
        put(
            "transport.payload_bytes_out",
            per_round(c.payload_bytes_out),
        );
        put(
            "transport.payload_bytes_back",
            per_round(c.payload_bytes_back),
        );
        put(
            "transport.frame_overhead_ratio",
            c.frame_bytes_out as f64 / c.payload_bytes_out.max(1) as f64,
        );
        put("hypervisor.forwarded", per_round(c.forwarded));
        put("hypervisor.shed", per_round(c.shed));
        put("hypervisor.bytes_elided", per_round(c.bytes_elided));
        put(
            "hypervisor.est_device_time_ms",
            c.est_device_time_us / 1e3 / rounds,
        );
        put("server.calls", per_round(c.server_calls));
        put(
            "server.duplicates_suppressed",
            per_round(c.duplicates_suppressed),
        );
        put("server.journal_entries", per_round(c.journal_entries));
        put(
            "server.journal_payload_mib",
            per_round(c.journal_payload_bytes) / (1u64 << 20) as f64,
        );

        let s = self.spans;
        for (i, name) in [
            "guest.span_marshal_us",
            "transport.span_out_us",
            "hypervisor.span_queue_us",
            "server.span_execute_us",
            "hypervisor.span_reply_us",
            "transport.span_back_us",
        ]
        .into_iter()
        .enumerate()
        {
            put(name, s.segment_us(i));
        }
        put("core.span_e2e_us", s.e2e_us());
        put("core.span_sum_over_e2e", s.sum_over_e2e());

        put("guest.api_calls", per_round(self.ava.calls));
        put("guest.api_busy_ms", per_round(self.ava.busy_ns) / 1e6);
        put(
            "guest.call_p50_us",
            percentile_ns_as_us(&mut self.ava.durs_ns, 50.0),
        );
        put(
            "guest.bulk_call_p50_us",
            percentile_ns_as_us(&mut self.ava.bulk_durs_ns, 50.0),
        );
        let native_cl_busy = self.native.busy_ns - self.native.nc_busy_ns;
        put("simcl.api_busy_ms", per_round(native_cl_busy) / 1e6);
        put("simnc.api_busy_ms", per_round(self.native.nc_busy_ns) / 1e6);
        put(
            "apps.self_ms",
            per_round(self.native_wall_ns.saturating_sub(self.native.busy_ns)) / 1e6,
        );
    }

    /// Exact-count invariants between layers; each violated one is a
    /// failed check in the run's tally.
    pub fn self_check_failures(&self) -> Vec<String> {
        let c = &self.counts;
        let mut failures = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                failures.push(what);
            }
        };
        check(
            c.server_calls == c.forwarded,
            format!(
                "server.calls {} != hypervisor.forwarded {}",
                c.server_calls, c.forwarded
            ),
        );
        // The client stubs turn some API calls into two forwarded calls
        // (the size-then-value idiom), never into fewer than one.
        check(
            self.ava.calls > 0 && self.ava.calls <= c.api_calls(),
            format!(
                "guest.api_calls {} exceeds forwarded sync + async {}",
                self.ava.calls,
                c.api_calls()
            ),
        );
        check(
            c.shed == 0 && c.retries == 0,
            format!("shed {} / retries {} must be 0", c.shed, c.retries),
        );
        check(
            self.spans.spans > 0 && (self.spans.sum_over_e2e() - 1.0).abs() <= 0.001,
            format!(
                "core.span_sum_over_e2e {:.4} != 1.000",
                self.spans.sum_over_e2e()
            ),
        );
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_split_cl_and_nc_time_and_bulk_calls() {
        let rec = |func, dur_ns, bytes| CallRec {
            func,
            start_ns: 0,
            dur_ns,
            bytes,
        };
        let mut agg = ApiAgg::default();
        agg.absorb(&[
            rec(ApiFn::Finish, 1_000, 0),
            rec(ApiFn::EnqueueWriteBuffer, 9_000, 64 << 10),
            rec(ApiFn::NcLoadTensor, 5_000, 100),
        ]);
        assert_eq!((agg.calls, agg.busy_ns, agg.nc_busy_ns), (3, 15_000, 5_000));
        assert_eq!(agg.bulk_durs_ns, [9_000]);
    }

    #[test]
    fn self_check_flags_each_broken_invariant() {
        let mut t = Trace::new();
        t.counts.server_calls = 5;
        t.counts.forwarded = 4;
        t.counts.sync_calls = 5;
        t.ava.calls = 5;
        t.spans.spans = 1;
        t.spans.total_ns = 100;
        t.spans.segment_ns = [100, 0, 0, 0, 0, 0];
        let failures = t.self_check_failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("hypervisor.forwarded"));
        t.counts.forwarded = 5;
        t.counts.retries = 1;
        t.spans.segment_ns[0] = 90;
        assert_eq!(t.self_check_failures().len(), 2);
    }
}
