//! What one benchmark run reports, and the formats it is written in: the
//! `workload name value unit` lines, the one-line contract result the
//! driver parses, and the per-workload section of `result.json`.

use crate::json::Json;
use crate::metrics;
use crate::stats::Summary;

/// One reported value. `rounds` carries the distribution of the per-round
/// values behind an end-to-end metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub rounds: Option<Summary>,
}

impl Metric {
    pub fn plain(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            rounds: None,
        }
    }

    pub fn with_rounds(name: &str, value: f64, per_round: &[f64]) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            rounds: Some(Summary::of(per_round)),
        }
    }
}

/// The outcome of one run of one workload (untraced or traced).
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub rounds: usize,
    /// Load-generator threads issuing calls concurrently.
    pub threads: usize,
    pub wall_s: f64,
    /// Checked operations: application runs compared with their native
    /// checksum, tenant operations, relocations, layer invariants.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    #[cfg(test)]
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Fills in 0 for dictionary metrics this workload has nothing to say
    /// about (say, recovery time on a workload that never crashes a
    /// server), and orders the metrics as the dictionary does.
    pub fn complete(&mut self) {
        let names: Vec<&'static str> = if self.traced {
            metrics::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            metrics::END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut ordered = Vec::with_capacity(names.len());
        for name in names {
            match self.metrics.iter().position(|m| m.name == name) {
                // A per-layer statistic over zero events (the median of no
                // bulk calls, say) is "nothing to say" as well.
                Some(i) if self.traced && !self.metrics[i].value.is_finite() => {
                    self.metrics.swap_remove(i);
                    ordered.push(Metric::plain(name, 0.0));
                }
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None => ordered.push(Metric::plain(name, 0.0)),
            }
        }
        debug_assert!(self.metrics.is_empty(), "metrics outside the dictionary");
        self.metrics = ordered;
    }

    /// `workload name value unit`, one line per metric.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            let unit = metrics::unit_of(&m.name).unwrap_or("?");
            println!(
                "{} {} {} {unit}",
                self.workload,
                m.name,
                fmt_value(m.value, unit)
            );
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{} fail_ratio {} ratio",
            self.workload,
            fmt_value(ratio, "ratio")
        );
        for failure in &self.failures {
            println!("{} FAILED {failure}", self.workload);
        }
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, on one line.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let unit = metrics::unit_of(&m.name).unwrap_or("?");
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Everything about this run, for `result.json`.
    pub fn detail(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Json::Num(m.value)),
                    (
                        "unit".to_owned(),
                        Json::str(metrics::unit_of(&m.name).unwrap_or("?")),
                    ),
                ];
                if let Some(s) = m.rounds {
                    fields.extend([
                        ("n".to_owned(), Json::Num(s.n as f64)),
                        ("min".to_owned(), Json::Num(s.min)),
                        ("q1".to_owned(), Json::Num(s.q1)),
                        ("median".to_owned(), Json::Num(s.median)),
                        ("q3".to_owned(), Json::Num(s.q3)),
                        ("max".to_owned(), Json::Num(s.max)),
                    ]);
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect();
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "fail_ratio",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Six significant digits: enough to see a 0.001 % change, short enough to
/// read in a terminal (whole counts print as integers). Files carry the
/// full `f64`.
pub fn fmt_value(v: f64, unit: &str) -> String {
    if !v.is_finite() {
        "nan".into()
    } else if v == 0.0 {
        "0".into()
    } else if matches!(unit, "count" | "bytes") && v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(traced: bool, metrics: Vec<Metric>) -> RunReport {
        RunReport {
            workload: "tenant_mix",
            seed: 1,
            traced,
            rounds: 3,
            threads: 2,
            wall_s: 1.5,
            attempted: 100,
            failed: 0,
            failures: vec![],
            metrics,
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut r = report(false, vec![Metric::plain("ava_ms", 12.5)]);
        r.complete();
        let doc = crate::json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let got = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(got.len(), metrics::END_TO_END.len());
        let ava = doc.get("metrics").unwrap().get("ava_ms").unwrap();
        assert_eq!(ava.get("value").unwrap().as_f64(), Some(12.5));
        assert_eq!(ava.get("unit").unwrap().as_str(), Some("ms"));
        assert!(!r.contract_line().contains('\n'));
    }

    #[test]
    fn traced_reports_carry_every_per_layer_metric_in_dictionary_order() {
        let mut r = report(true, vec![Metric::plain("core.migrate_ms", 3.0)]);
        r.complete();
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert_eq!(r.get("core.migrate_ms"), Some(3.0));
        assert_eq!(r.get("core.recover_ms"), Some(0.0));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = report(false, vec![]);
        r.failed = 1;
        r.failures.push("nw checksum differs".into());
        assert!(!r.correct());
        let doc = crate::json::parse(&r.contract_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(1.0));
        let detail = r.detail();
        assert_eq!(detail.get("fail_ratio").unwrap().as_f64(), Some(0.01));
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(fmt_value(1.234_567_89, "ms"), "1.23457");
        assert_eq!(fmt_value(12_345.678_9, "ms"), "12345.7");
        assert_eq!(fmt_value(1_234_567.8, "1/s"), "1234568");
        assert_eq!(fmt_value(0.000_123_456_7, "s"), "0.000123457");
        assert_eq!(fmt_value(31_900.0, "count"), "31900");
        assert_eq!(fmt_value(31_900.5, "count"), "31900.5");
        assert_eq!(fmt_value(1.0, "ratio"), "1.00000");
        assert_eq!(fmt_value(0.0, "ms"), "0");
        assert_eq!(fmt_value(f64::NAN, "ms"), "nan");
    }
}
