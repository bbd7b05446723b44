//! `ava-bench` — harnesses for what the benchmark (`bench/avabench`)
//! does not measure. Figure 5, the per-layer latencies, migration and the
//! transport round trips come from avabench only.
//!
//! One binary per experiment (see DESIGN.md's experiment index):
//!
//! * `async_ablation` — §5's async-forwarding optimization: optimized vs
//!   unoptimized spec;
//! * `effort_report` — §5's developer-effort claims: functions covered,
//!   spec size vs generated-stack size;
//! * `data_path` — extension: content-addressed buffer-transfer elision
//!   (cache on/off payload bytes and hit rate per transport) and the
//!   flight-recorder overhead;
//! * `scheduling` — extension: cross-VM fairness and rate limiting (§4.3);
//! * `swapping` — extension: buffer-granularity memory swapping (§4.3);
//! * `overload` — extension: admission control under offered overload;
//! * `throughput` — extension: adaptive batching across a VM fleet;
//! * `telemetry_report` — a scripted pool scenario that exports a trace
//!   and a Prometheus scrape.

use ava_core::{opencl_stack_with, ApiStack, OpenClClient, StackConfig};
use ava_hypervisor::VmPolicy;
use ava_spec::LowerOptions;
use ava_transport::{CostModel, TransportKind};
use ava_workloads::{silo_with_all_kernels, Scale};

/// A live AvA OpenCL environment (the stack must outlive the client).
pub struct AvaEnv {
    /// The assembled stack (holds the router and server threads).
    pub stack: ApiStack,
    /// The remoting client for the attached VM.
    pub client: OpenClClient,
    /// The attached VM's id.
    pub vm: ava_wire::VmId,
}

/// Builds an AvA environment over a fresh silo with all workload kernels,
/// with rCUDA-style API batching enabled at `batch_max` (0 disables).
/// Batching the async stream is part of the "optimized specification" of
/// §5.
pub fn ava_env(
    scale: Scale,
    opts: LowerOptions,
    model: CostModel,
    kind: TransportKind,
    batch_max: usize,
) -> AvaEnv {
    let cl = silo_with_all_kernels(scale);
    let config = StackConfig {
        transport: kind,
        cost_model: model,
        guest: ava_core::GuestConfig {
            batch_max,
            ..ava_core::GuestConfig::default()
        },
        ..StackConfig::default()
    };
    let stack = opencl_stack_with(cl, config, opts).expect("stack builds");
    let (vm, lib) = stack.attach_vm(VmPolicy::default()).expect("vm attaches");
    let client = OpenClClient::new(lib);
    AvaEnv { stack, client, vm }
}

/// Prints a markdown-style table row.
pub fn row(cols: &[String], widths: &[usize]) -> String {
    cols.iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:<w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`. 1.0 when every VM got an
/// equal share, `1/n` when one VM got everything; scale-free, so it works
/// on throughputs and device-time shares alike. Empty or all-zero input
/// counts as perfectly fair (nobody got anything — equally).
pub fn jain(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (shares.len() as f64 * sum_sq)
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_bounds_and_known_values() {
        assert!((jain(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One VM hogging everything: J = 1/n.
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Asymmetric 4:1:1:1 split: J = 49/76.
        let j = jain(&[4.0, 1.0, 1.0, 1.0]);
        assert!((j - 49.0 / 76.0).abs() < 1e-12);
        assert!((jain(&[]) - 1.0).abs() < 1e-12);
        assert!((jain(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn ava_env_smoke() {
        use simcl::ClApi;
        let env = ava_env(
            Scale::Test,
            LowerOptions::default(),
            CostModel::free(),
            TransportKind::InProcess,
            0,
        );
        let platforms = env.client.get_platform_ids().unwrap();
        assert_eq!(platforms.len(), 1);
    }
}
