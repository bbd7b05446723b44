//! One run of one workload: set-up, warm-up, timed rounds, report.
//!
//! An untraced run produces the end-to-end metrics with telemetry
//! detached and the applications on the bare silo and client. A traced
//! run produces the per-layer metrics: it runs the isolated probes, then
//! alternates rounds on a stack with a registry attached (under the
//! timing wrappers) with rounds on an untraced twin, so the price of
//! tracing is measured within the run.

use std::path::PathBuf;
use std::time::Instant;

use crate::env::{Budget, Sizes};
use crate::metrics::APPS;
use crate::probes;
use crate::report::{Metric, RunReport};
use crate::rodinia;
use crate::samples::Samples;
use crate::stats::median;
use crate::sys::rss_peak_mib;
use crate::tenant;
use crate::trace::Trace;

/// Times the whole set-up (stack build, payload generation, warm-up
/// round) is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
    pub sizes: Sizes,
    /// Where to write the benchmark-side spans as Chrome-trace JSON.
    pub trace_out: Option<PathBuf>,
}

/// A built workload: the stacks, silos and inputs one run works on. At most
/// two exist at a time, so the size difference between the variants is moot.
#[allow(clippy::large_enum_variant)]
enum Env {
    Rodinia(rodinia::Env),
    Tenant(tenant::Env),
}

impl Env {
    fn build(args: &RunArgs, traced: bool, epoch: Instant) -> Env {
        match rodinia::SPECS.iter().find(|s| s.name == args.workload) {
            Some(spec) => Env::Rodinia(rodinia::Env::build(
                spec, args.sizes, args.seed, traced, epoch,
            )),
            None => Env::Tenant(tenant::Env::build(args.sizes, args.seed, traced, epoch)),
        }
    }

    fn rows(&self) -> Vec<&'static str> {
        match self {
            Env::Rodinia(env) => env.app_names(),
            Env::Tenant(_) => vec!["tenant_mix"],
        }
    }

    fn threads(&self) -> usize {
        match self {
            Env::Rodinia(_) => 1,
            Env::Tenant(_) => tenant::Env::THREADS,
        }
    }

    fn round(&mut self, round: u32, trace: Option<&mut Trace>, s: &mut Samples) {
        match self {
            Env::Rodinia(env) => env.round(round, trace, s),
            Env::Tenant(env) => env.round(round, trace, s),
        }
    }

    /// Builds the workload and runs the untimed warm-up round, so caches
    /// are filled and lazy set-up is done before anything is timed.
    fn build_warm(args: &RunArgs, traced: bool, epoch: Instant, s: &mut Samples) -> Env {
        let mut env = Env::build(args, traced, epoch);
        let mut warm = Samples::new(env.rows());
        let mut warm_trace = traced.then(Trace::new);
        env.round(0, warm_trace.as_mut(), &mut warm);
        // A failure during warm-up is still a failure of the run.
        s.attempted += warm.attempted;
        s.failed += warm.failed;
        s.failures.extend(warm.failures);
        env
    }
}

pub fn run(args: &RunArgs) -> RunReport {
    let started = Instant::now();
    let mut report = if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    };
    report.wall_s = started.elapsed().as_secs_f64();
    report.complete();
    report
}

fn run_untraced(args: &RunArgs) -> RunReport {
    let mut carried = Samples::default();
    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..SETUP_REPEATS {
        drop(env.take());
        let start = Instant::now();
        env = Some(Env::build_warm(args, false, start, &mut carried));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut env = env.expect("built at least once");

    let mut s = Samples::new(env.rows());
    let started = Instant::now();
    while args.budget.more(s.rounds(), started) {
        env.round(s.rounds() as u32 + 1, None, &mut s);
    }

    RunReport {
        workload: args.workload,
        seed: args.seed,
        traced: false,
        rounds: s.rounds(),
        threads: env.threads(),
        wall_s: 0.0,
        attempted: s.attempted + carried.attempted,
        failed: s.failed + carried.failed,
        failures: carried
            .failures
            .into_iter()
            .chain(s.failures.clone())
            .collect(),
        metrics: s.end_to_end((median(&setups), &setups)),
    }
}

fn run_traced(args: &RunArgs) -> RunReport {
    let mut metrics = probes::run();

    let mut carried = Samples::default();
    let mut trace = Trace::new();
    let mut traced_env = Env::build_warm(args, true, trace.epoch, &mut carried);
    let mut plain_env = Env::build_warm(args, false, trace.epoch, &mut carried);
    let mut traced = Samples::new(traced_env.rows());
    let mut plain = Samples::new(plain_env.rows());

    // Traced and untraced rounds alternate so drift hits both alike; the
    // budget covers the pair.
    let started = Instant::now();
    while args.budget.more(traced.rounds(), started) {
        let round = traced.rounds() as u32 + 1;
        traced_env.round(round, Some(&mut trace), &mut traced);
        plain_env.round(round, None, &mut plain);
    }

    trace.layer_metrics(&mut metrics);
    let mut put = |name: &str, value: f64| metrics.push(Metric::plain(name, value));
    let both = |a: &[f64], b: &[f64]| median(&[a, b].concat());
    put(
        "core.attach_vm_us",
        both(&traced.attach_us, &plain.attach_us),
    );
    put(
        "core.detach_vm_us",
        both(&traced.detach_us, &plain.detach_us),
    );
    put("core.rss_peak_mib", rss_peak_mib());
    put(
        "telemetry.trace_overhead_ratio",
        traced.ava_ms_total() / plain.ava_ms_total(),
    );
    // Application ratios come from the untraced twin: the wrappers cost
    // the native side relatively more than the AvA side.
    for (app, ratio) in plain.app_ratios() {
        if APPS.contains(&app) {
            put(&format!("apps.{app}.virt_ratio"), ratio);
        }
    }
    if let Env::Tenant(env) = &traced_env {
        let rounds = trace.rounds.max(1) as f64;
        put(
            "guest.cache_hit_ratio",
            trace.counts.cache_hits as f64 / rounds / env.cacheable_payloads.max(1) as f64,
        );
        let replayed = both(&traced.replayed_calls, &plain.replayed_calls);
        let recover_ms = both(&traced.recover_ms, &plain.recover_ms);
        put("core.replayed_calls", replayed);
        put("core.recover_ms", recover_ms);
        put(
            "core.recover_us_per_replayed_call",
            recover_ms * 1e3 / replayed.max(1.0),
        );
        put(
            "core.migrate_ms",
            both(&traced.migrate_ms, &plain.migrate_ms),
        );
    }

    let mut failures = carried.failures;
    failures.extend(traced.failures.iter().cloned());
    failures.extend(plain.failures.iter().cloned());
    let checks = trace.self_check_failures();
    let mut attempted = carried.attempted + traced.attempted + plain.attempted;
    let mut failed = carried.failed + traced.failed + plain.failed;
    // Four invariants are checked whether or not they hold.
    attempted += 4;
    failed += checks.len() as u64;
    failures.extend(checks);

    if let Some(path) = &args.trace_out {
        let written = std::fs::write(path, trace.store.chrome_trace().render());
        attempted += 1;
        if let Err(e) = written {
            failed += 1;
            failures.push(format!("writing {}: {e}", path.display()));
        }
        eprintln!(
            "avabench: {} spans written to {} ({} dropped past the cap)",
            trace.store.len(),
            path.display(),
            trace.store.dropped()
        );
    }

    RunReport {
        workload: args.workload,
        seed: args.seed,
        traced: true,
        rounds: traced.rounds(),
        threads: traced_env.threads(),
        wall_s: 0.0,
        attempted,
        failed,
        failures,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

    fn smoke(workload: &'static str, seed: u64, traced: bool) -> RunReport {
        // Like `main`: one CPU for this thread and every thread the stack
        // spawns from it.
        crate::sys::pin_to_one_cpu().expect("affinity calls work on Linux");
        run(&RunArgs {
            workload,
            seed,
            budget: Budget::Rounds(2),
            traced,
            sizes: Sizes::SMOKE,
            trace_out: None,
        })
    }

    fn value(report: &RunReport, name: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not reported"))
            .value
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_without_failures() {
        for w in WORKLOADS {
            let report = smoke(w.name, 1, false);
            assert_eq!(report.failed, 0, "{}: {:?}", w.name, report.failures);
            assert!(report.attempted > 0 && report.correct());
            assert_eq!(report.rounds, 2);
            assert_eq!(report.metrics.len(), END_TO_END.len());
            for m in &report.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    w.name,
                    m.name,
                    m.value
                );
            }
        }
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric_and_pass_the_layer_invariants() {
        for workload in ["rodinia_bulk", "tenant_mix"] {
            let report = smoke(workload, 1, true);
            assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
            assert_eq!(report.metrics.len(), PER_LAYER.len());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            assert!((value(&report, "core.span_sum_over_e2e") - 1.0).abs() <= 0.001);
            assert_eq!(
                value(&report, "server.calls"),
                value(&report, "hypervisor.forwarded")
            );
            assert_eq!(
                value(&report, "server.journal_entries"),
                value(&report, "server.calls")
            );
            let forwarded =
                value(&report, "guest.sync_calls") + value(&report, "guest.async_calls");
            assert!(value(&report, "guest.api_calls") <= forwarded);
            assert!(value(&report, "telemetry.trace_overhead_ratio") > 0.0);
        }
    }

    #[test]
    fn bulk_runs_both_apis_and_tenant_mix_exercises_cache_and_relocation() {
        let bulk = smoke("rodinia_bulk", 1, true);
        assert!(value(&bulk, "simnc.api_busy_ms") > 0.0);
        assert!(value(&bulk, "apps.inception.virt_ratio") > 0.0);
        assert_eq!(value(&bulk, "apps.nw.virt_ratio"), 0.0);
        assert_eq!(value(&bulk, "hypervisor.bytes_elided"), 0.0);

        let tenant = smoke("tenant_mix", 1, true);
        assert!(value(&tenant, "guest.cache_hit_ratio") > 0.0);
        assert!(value(&tenant, "hypervisor.bytes_elided") > 0.0);
        assert!(value(&tenant, "core.replayed_calls") > 0.0);
        assert!(value(&tenant, "core.migrate_ms") > 0.0);
        assert!(value(&tenant, "core.recover_ms") > 0.0);
    }

    #[test]
    fn call_and_byte_counts_repeat_for_a_seed_and_change_with_it() {
        const EXACT: &[&str] = &[
            "guest.api_calls",
            "guest.sync_calls",
            "guest.async_calls",
            "hypervisor.forwarded",
            "server.calls",
            "transport.payload_bytes_out",
            "transport.payload_bytes_back",
            "server.journal_entries",
            "core.replayed_calls",
        ];
        let counts = |seed| -> Vec<f64> {
            let report = smoke("tenant_mix", seed, true);
            EXACT.iter().map(|name| value(&report, name)).collect()
        };
        let first = counts(7);
        assert_eq!(first, counts(7));
        assert_ne!(first, counts(8));
    }
}
