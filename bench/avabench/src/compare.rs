//! `avabench compare A.json B.json`: for every (workload, end-to-end
//! metric) print both values, the relative difference, the bound from
//! `BENCHMARK.json`, and a verdict — the check later performance changes
//! are held to.
//!
//! * `ok` — B is not worse than A by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — the run-to-run spread of either side (estimated from
//!   the quartiles of the per-round values, see `Summary::median_spread`)
//!   is wider than the bound, so these runs cannot tell; reported as such,
//!   never as unchanged.

use crate::json::Json;
use crate::metrics::Better;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn bounds_from_manifest(manifest: &Json) -> Result<Vec<Bound>, String> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("end_to_end entry lacks {key}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                better: field("better")?
                    .as_str()
                    .and_then(Better::parse)
                    .ok_or("better is neither lower nor higher")?,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// A metric's value and per-round distribution in a result file.
struct Measured {
    value: f64,
    spread: f64,
}

fn measured(result: &Json, workload: &str, metric: &str) -> Option<Measured> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let num = |key: &str| m.get(key).and_then(Json::as_f64);
    let summary = Summary {
        n: num("n")? as usize,
        min: num("min")?,
        q1: num("q1")?,
        median: num("median")?,
        q3: num("q3")?,
        max: num("max")?,
    };
    Some(Measured {
        value: num("value")?,
        spread: summary.median_spread(),
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn verdict(a: &Measured, b: &Measured, bound: &Bound) -> Verdict {
    let worse_by = worsening(a.value, b.value, bound.better);
    let spread = a.spread.max(b.spread);
    if spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Like-for-like: two result sets are only comparable if they were made
/// the same way. Differences are printed, not fatal (comparing two seeds
/// is a legitimate use).
fn header_differences(a: &Json, b: &Json) -> Vec<String> {
    let keys = ["seed", "smoke", "nproc", "threads", "rustc", "rounds"];
    let (ha, hb) = (a.get("header"), b.get("header"));
    keys.iter()
        .filter_map(|key| {
            let (va, vb) = (ha?.get(key)?, hb?.get(key)?);
            (va != vb).then(|| format!("{key}: {} vs {}", va.render(), vb.render()))
        })
        .collect()
}

/// Prints the comparison table; returns the number of `worse` rows.
pub fn compare(a: &Json, b: &Json, manifest: &Json) -> Result<usize, String> {
    let bounds = bounds_from_manifest(manifest)?;
    for difference in header_differences(a, b) {
        println!("# header differs: {difference}");
    }
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first result file has no workloads")?
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse_by", "bound"
    );
    let mut worse = 0;
    for workload in workloads {
        for bound in &bounds {
            let (Some(ma), Some(mb)) = (
                measured(a, workload, &bound.name),
                measured(b, workload, &bound.name),
            ) else {
                return Err(format!(
                    "{workload}/{} is missing from a result file",
                    bound.name
                ));
            };
            let v = verdict(&ma, &mb, bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                workload,
                bound.name,
                ma.value,
                mb.value,
                worsening(ma.value, mb.value, bound.better) * 100.0,
                bound.bound * 100.0,
                v.as_str()
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, spread: f64) -> Measured {
        Measured { value, spread }
    }

    fn bound(better: Better, bound: f64) -> Bound {
        Bound {
            name: "x".into(),
            better,
            bound,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let lower = bound(Better::Lower, 0.05);
        assert_eq!(
            verdict(&m(100.0, 0.01), &m(104.0, 0.01), &lower),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&m(100.0, 0.01), &m(106.0, 0.01), &lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&m(100.0, 0.01), &m(50.0, 0.01), &lower),
            Verdict::Ok
        );
        let higher = bound(Better::Higher, 0.10);
        assert_eq!(
            verdict(&m(100.0, 0.01), &m(91.0, 0.01), &higher),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&m(100.0, 0.01), &m(89.0, 0.01), &higher),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&m(100.0, 0.01), &m(150.0, 0.01), &higher),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let lower = bound(Better::Lower, 0.05);
        assert_eq!(
            verdict(&m(100.0, 0.08), &m(100.0, 0.01), &lower),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&m(100.0, 0.01), &m(120.0, 0.09), &lower),
            Verdict::Unresolved
        );
    }

    fn result(seed: u64, ava_ms: f64) -> Json {
        let metric = |value: f64| {
            Json::obj([
                ("value", Json::Num(value)),
                ("n", Json::Num(25.0)),
                ("min", Json::Num(value * 0.97)),
                ("q1", Json::Num(value * 0.99)),
                ("median", Json::Num(value)),
                ("q3", Json::Num(value * 1.01)),
                ("max", Json::Num(value * 1.05)),
            ])
        };
        Json::obj([
            ("header", Json::obj([("seed", Json::Num(seed as f64))])),
            (
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([(
                        "end_to_end",
                        Json::obj([("ava_ms", metric(ava_ms)), ("calls_per_s", metric(5e4))]),
                    )]),
                )]),
            ),
        ])
    }

    fn manifest() -> Json {
        crate::json::parse(
            r#"{"end_to_end": [
                {"name": "ava_ms", "unit": "ms", "better": "lower", "bound": 0.08},
                {"name": "calls_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_counts_worse_rows_and_flags_header_differences() {
        let a = result(1, 100.0);
        assert_eq!(compare(&a, &result(1, 103.0), &manifest()), Ok(0));
        assert_eq!(compare(&a, &result(1, 120.0), &manifest()), Ok(1));
        assert_eq!(header_differences(&a, &result(2, 100.0)), ["seed: 1 vs 2"]);
        assert!(header_differences(&a, &a).is_empty());
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let mut b = result(1, 100.0);
        if let Json::Obj(fields) = &mut b {
            fields.retain(|(k, _)| k != "workloads");
            fields.push((
                "workloads".into(),
                Json::obj([("w", Json::obj::<&str>([]))]),
            ));
        }
        assert!(compare(&result(1, 100.0), &b, &manifest()).is_err());
        assert!(bounds_from_manifest(&Json::Null).is_err());
    }
}
