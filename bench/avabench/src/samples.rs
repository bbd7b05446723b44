//! Per-round measurements of a run and the end-to-end metrics derived from
//! them. Both workload families fill the same table: a Rodinia workload
//! has one row per application, `tenant_mix` has a single row for its two
//! concurrent op streams.

use crate::ops::Outcome;
use crate::report::Metric;
use crate::stats::{geomean, median, percentile_ns_as_us};

/// Failure descriptions kept for the report; the count is never capped.
const MAX_FAILURE_NOTES: usize = 20;

#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Row names (applications).
    pub apps: Vec<&'static str>,
    /// Wall milliseconds, `[row][round]`.
    pub native_ms: Vec<Vec<f64>>,
    pub ava_ms: Vec<Vec<f64>>,
    /// Process CPU nanoseconds accumulated inside native / AvA runs, per
    /// round.
    pub cpu_native_ns: Vec<f64>,
    pub cpu_ava_ns: Vec<f64>,
    /// Calls forwarded by the guest libraries inside the timed AvA runs,
    /// per round.
    pub calls: Vec<f64>,
    /// From the tenant op streams, per round.
    pub rtt_p50_us: Vec<f64>,
    pub rtt_p99_us: Vec<f64>,
    pub upload_mib_per_s: Vec<f64>,
    pub readback_mib_per_s: Vec<f64>,
    /// Every VM attach / detach, microseconds.
    pub attach_us: Vec<f64>,
    pub detach_us: Vec<f64>,
    /// `tenant_mix` only: relocation times and replayed journal entries,
    /// per round.
    pub migrate_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub replayed_calls: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Samples {
    pub fn new(apps: Vec<&'static str>) -> Samples {
        Samples {
            native_ms: vec![Vec::new(); apps.len()],
            ava_ms: vec![Vec::new(); apps.len()],
            apps,
            ..Samples::default()
        }
    }

    pub fn rounds(&self) -> usize {
        self.cpu_ava_ns.len()
    }

    /// Counts one checked operation; `Err` carries what went wrong.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(what) = result {
            self.failed += 1;
            self.note(what);
        }
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn check_many(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.note(format!("{failed} of {attempted} {what} failed"));
        }
    }

    fn note(&mut self, what: String) {
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(what);
        }
    }

    /// Folds one round's op-stream measurements into the per-round series.
    pub fn push_stream_outcome(&mut self, mut outcome: Outcome) {
        self.rtt_p50_us
            .push(percentile_ns_as_us(&mut outcome.rtt_ns, 50.0));
        self.rtt_p99_us
            .push(percentile_ns_as_us(&mut outcome.rtt_ns, 99.0));
        self.upload_mib_per_s.push(outcome.upload_mib_per_s());
        self.readback_mib_per_s.push(outcome.readback_mib_per_s());
    }

    /// Per-application AvA/native ratio of median wall times.
    pub fn app_ratios(&self) -> Vec<(&'static str, f64)> {
        self.apps
            .iter()
            .enumerate()
            .map(|(a, name)| (*name, median(&self.ava_ms[a]) / median(&self.native_ms[a])))
            .collect()
    }

    /// Σ over rows of the median AvA wall time.
    pub fn ava_ms_total(&self) -> f64 {
        self.ava_ms.iter().map(|row| median(row)).sum()
    }

    fn per_round_sum(rows: &[Vec<f64>], round: usize) -> f64 {
        rows.iter().map(|row| row[round]).sum()
    }

    /// The end-to-end metrics, each with the distribution of its per-round
    /// values. `setup_s` is measured by the caller.
    pub fn end_to_end(&self, setup_s: (f64, &[f64])) -> Vec<Metric> {
        let rounds = self.rounds();
        let series = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..rounds).map(f).collect() };

        let ratios: Vec<f64> = self.app_ratios().into_iter().map(|(_, r)| r).collect();
        let ratio_rounds = series(&|r| {
            let per_app: Vec<f64> = (0..self.apps.len())
                .map(|a| self.ava_ms[a][r] / self.native_ms[a][r])
                .collect();
            geomean(&per_app)
        });
        let ava_ms = self.ava_ms_total();
        let ava_rounds = series(&|r| Self::per_round_sum(&self.ava_ms, r));
        let native_ms: f64 = self.native_ms.iter().map(|row| median(row)).sum();
        let native_rounds = series(&|r| Self::per_round_sum(&self.native_ms, r));
        let cpu_ratio =
            self.cpu_ava_ns.iter().sum::<f64>() / self.cpu_native_ns.iter().sum::<f64>();
        let cpu_rounds = series(&|r| self.cpu_ava_ns[r] / self.cpu_native_ns[r]);
        let calls_per_s = median(&self.calls) / (ava_ms / 1e3);
        let calls_rounds = series(&|r| self.calls[r] / (ava_rounds[r] / 1e3));

        let by_round =
            |name: &str, values: &[f64]| Metric::with_rounds(name, median(values), values);
        vec![
            Metric::with_rounds("virt_ratio", geomean(&ratios), &ratio_rounds),
            Metric::with_rounds("ava_ms", ava_ms, &ava_rounds),
            Metric::with_rounds("native_ms", native_ms, &native_rounds),
            Metric::with_rounds("cpu_ratio", cpu_ratio, &cpu_rounds),
            Metric::with_rounds("calls_per_s", calls_per_s, &calls_rounds),
            by_round("rtt_p50_us", &self.rtt_p50_us),
            by_round("rtt_p99_us", &self.rtt_p99_us),
            by_round("upload_mib_per_s", &self.upload_mib_per_s),
            by_round("readback_mib_per_s", &self.readback_mib_per_s),
            Metric::with_rounds("setup_s", setup_s.0, setup_s.1),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_app_samples() -> Samples {
        let mut s = Samples::new(vec!["a", "b"]);
        s.native_ms = vec![vec![10.0, 10.0, 10.0], vec![100.0, 100.0, 100.0]];
        s.ava_ms = vec![vec![40.0, 41.0, 39.0], vec![100.0, 400.0, 100.0]];
        s.cpu_native_ns = vec![1e6; 3];
        s.cpu_ava_ns = vec![3e6, 3e6, 6e6];
        s.calls = vec![1400.0; 3];
        for _ in 0..3 {
            s.push_stream_outcome(Outcome {
                rtt_ns: (1..=100).map(|i| i * 1000).collect(),
                upload_ns: 1_000_000,
                upload_bytes: 1 << 20,
                readback_ns: 2_000_000,
                readback_bytes: 1 << 20,
                ..Outcome::default()
            });
        }
        s
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn ratio_is_the_geomean_of_per_app_median_ratios() {
        let m = two_app_samples().end_to_end((0.5, &[0.4, 0.5, 0.6]));
        // a: 40/10 = 4, b: median 100 / 100 = 1 (the 400 ms outlier is ignored).
        assert!((value(&m, "virt_ratio") - 2.0).abs() < 1e-12);
        assert_eq!(value(&m, "ava_ms"), 140.0);
        assert_eq!(value(&m, "native_ms"), 110.0);
        assert_eq!(value(&m, "cpu_ratio"), 4.0);
        assert!((value(&m, "calls_per_s") - 10_000.0).abs() < 1e-9);
        assert_eq!(value(&m, "rtt_p50_us"), 51.0);
        assert_eq!(value(&m, "rtt_p99_us"), 99.0);
        assert!((value(&m, "upload_mib_per_s") - 1000.0).abs() < 1e-9);
        assert!((value(&m, "readback_mib_per_s") - 500.0).abs() < 1e-9);
        assert_eq!(value(&m, "setup_s"), 0.5);
        assert_eq!(m.len(), crate::metrics::END_TO_END.len());
        assert!(m.iter().all(|x| x.rounds.is_some_and(|r| r.n == 3)));
    }

    #[test]
    fn failures_are_counted_even_when_notes_are_capped() {
        let mut s = Samples::new(vec!["a"]);
        s.check(Ok(()));
        for i in 0..30 {
            s.check(Err(format!("bad {i}")));
        }
        s.check_many(100, 3, "tenant operations");
        s.check_many(100, 0, "tenant operations");
        assert_eq!(s.attempted, 231);
        assert_eq!(s.failed, 33);
        assert_eq!(s.failures.len(), MAX_FAILURE_NOTES);
    }
}
