//! Benchmark-side spans: round → application run → API call, each with an
//! id and its parent's id. They are kept in memory while the benchmark
//! runs and written once at exit as Chrome-trace JSON (`--trace-out`), so
//! a per-layer number can be opened in Perfetto next to the stack's own
//! `ApiStack::export_trace()`.

use crate::json::Json;
use crate::timed::{ApiFn, CallRec};

/// Spans kept for the trace file; the rest are counted, not stored. The
/// per-layer metrics are aggregated separately and never lose a call.
pub const SPAN_CAP: usize = 200_000;

/// Which timeline a span is drawn on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    Rounds,
    Native(u8),
    Ava(u8),
}

impl Track {
    fn tid(self) -> u32 {
        match self {
            Track::Rounds => 0,
            Track::Native(lane) => 10 + u32::from(lane),
            Track::Ava(lane) => 20 + u32::from(lane),
        }
    }

    fn label(self) -> String {
        match self {
            Track::Rounds => "rounds".into(),
            Track::Native(lane) => format!("native/{lane}"),
            Track::Ava(lane) => format!("ava/{lane}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    track: Track,
    start_ns: u64,
    dur_ns: u64,
    round: u32,
    bytes: u32,
}

/// The in-memory span store. Id 0 is "no parent".
#[derive(Debug, Default)]
pub struct SpanStore {
    spans: Vec<Span>,
    dropped: u64,
    next_id: u64,
}

impl SpanStore {
    /// Records one span and returns its id (ids keep counting past the
    /// cap, so parent links stay meaningful for the spans that were kept).
    pub fn push(
        &mut self,
        parent: u64,
        name: &'static str,
        track: Track,
        round: u32,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        self.push_span(parent, name, track, round, start_ns, dur_ns, 0)
    }

    /// Sets the duration of a span that was pushed (with duration 0) before
    /// its end was known, so its children could name it as their parent; a
    /// no-op for a span that fell past the cap.
    pub fn close(&mut self, id: u64, dur_ns: u64) {
        // While under the cap every push lands at index `id - 1`.
        if let Some(span) = self.spans.get_mut(id.wrapping_sub(1) as usize) {
            if span.id == id {
                span.dur_ns = dur_ns;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        parent: u64,
        name: &'static str,
        track: Track,
        round: u32,
        start_ns: u64,
        dur_ns: u64,
        bytes: u32,
    ) -> u64 {
        self.next_id += 1;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id: self.next_id,
                parent,
                name,
                track,
                start_ns,
                dur_ns,
                round,
                bytes,
            });
        } else {
            self.dropped += 1;
        }
        self.next_id
    }

    /// Records the API calls of one application run under `parent`.
    pub fn push_calls(&mut self, parent: u64, track: Track, round: u32, calls: &[CallRec]) {
        for call in calls {
            self.push_span(
                parent,
                ApiFn::NAMES[call.func as usize],
                track,
                round,
                call.start_ns,
                u64::from(call.dur_ns),
                call.bytes,
            );
        }
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace JSON: one complete (`"ph":"X"`) event per span, one
    /// `thread_name` metadata event per track, and the dropped-span count.
    pub fn chrome_trace(&self) -> Json {
        let mut events = Vec::with_capacity(self.spans.len() + 8);
        let mut tracks: Vec<Track> = Vec::new();
        for span in &self.spans {
            if !tracks.contains(&span.track) {
                tracks.push(span.track);
            }
        }
        for track in tracks {
            events.push(Json::obj([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(track.tid()))),
                ("args", Json::obj([("name", Json::Str(track.label()))])),
            ]));
        }
        for span in &self.spans {
            events.push(Json::obj([
                ("name", Json::str(span.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(span.track.tid()))),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num(span.dur_ns as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(span.id as f64)),
                        ("parent", Json::Num(span.parent as f64)),
                        ("round", Json::Num(f64::from(span.round))),
                        ("bytes", Json::Num(f64::from(span.bytes))),
                    ]),
                ),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
            (
                "avabench",
                Json::obj([
                    ("spans", Json::Num(self.spans.len() as f64)),
                    ("dropped_spans", Json::Num(self.dropped as f64)),
                    ("span_cap", Json::Num(SPAN_CAP as f64)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(func: ApiFn, start_ns: u64) -> CallRec {
        CallRec {
            func,
            start_ns,
            dur_ns: 500,
            bytes: 64,
        }
    }

    #[test]
    fn spans_nest_round_run_call_by_parent_id() {
        let mut store = SpanStore::default();
        let round = store.push(0, "round", Track::Rounds, 3, 0, 0);
        let run = store.push(round, "nw", Track::Ava(0), 3, 100, 9_000);
        store.push_calls(
            run,
            Track::Ava(0),
            3,
            &[call(ApiFn::Finish, 200), call(ApiFn::Flush, 900)],
        );
        store.close(round, 10_000);
        store.close(99, 1);
        assert_eq!(store.len(), 4);
        let trace = store.chrome_trace();
        let first = &trace.get("traceEvents").unwrap().as_arr().unwrap()[2];
        assert_eq!(first.get("dur").unwrap().as_f64(), Some(10.0));
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        // Two tracks → two metadata events, then the four spans.
        assert_eq!(events.len(), 6);
        let finish = &events[4];
        assert_eq!(finish.get("name").unwrap().as_str(), Some("clFinish"));
        let args = finish.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(run as f64));
        assert_eq!(args.get("round").unwrap().as_f64(), Some(3.0));
        assert_eq!(finish.get("ts").unwrap().as_f64(), Some(0.2));
        assert!(crate::json::parse(&trace.render()).is_ok());
    }

    #[test]
    fn spans_past_the_cap_are_counted_not_stored() {
        let mut store = SpanStore::default();
        let calls: Vec<CallRec> = (0..SPAN_CAP as u64 + 7)
            .map(|i| call(ApiFn::SetKernelArg, i))
            .collect();
        store.push_calls(0, Track::Native(0), 0, &calls);
        assert_eq!(store.len(), SPAN_CAP);
        assert_eq!(store.dropped(), 7);
        let meta = store.chrome_trace();
        let dropped = meta.get("avabench").unwrap().get("dropped_spans").unwrap();
        assert_eq!(dropped.as_f64(), Some(7.0));
    }
}
