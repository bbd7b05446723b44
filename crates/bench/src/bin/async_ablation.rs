//! §5's asynchronous-forwarding ablation: the specification's `async`
//! annotations let AvA overlap API forwarding with application execution.
//! The paper reports an 8.6 % speedup over an unoptimized specification.
//! The overhead of the optimized configuration against native is Figure 5,
//! which avabench (`bench/avabench`) measures.

use ava_bench::{ava_env, geomean, row};
use ava_spec::LowerOptions;
use ava_transport::{CostModel, TransportKind};
use ava_workloads::{opencl_workloads, Scale};

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let scale = Scale::Bench;

    println!("# Async-forwarding ablation (\"optimized vs unoptimized specification\", §5)");
    println!();
    let widths = [12, 14, 12, 12];
    println!(
        "{}",
        row(
            &[
                "workload".into(),
                "ava_sync_ms".into(),
                "ava_async_ms".into(),
                "speedup".into(),
            ],
            &widths
        )
    );

    // Unoptimized spec: every call lowered synchronous.
    let env_sync = ava_env(
        scale,
        LowerOptions {
            enable_async: false,
            ..LowerOptions::default()
        },
        CostModel::paravirtual(),
        TransportKind::SharedMemory,
        0,
    );
    // Optimized spec: async annotations honoured, plus rCUDA-style
    // batching of the async stream.
    let env_async = ava_env(
        scale,
        LowerOptions::default(),
        CostModel::paravirtual(),
        TransportKind::SharedMemory,
        16,
    );

    let mut speedups = Vec::new();
    for wl in opencl_workloads(scale) {
        // Interleave the two variants and keep per-variant minima so
        // machine drift cancels.
        wl.run(&env_sync.client).expect("sync warmup");
        wl.run(&env_async.client).expect("async warmup");
        let (mut sync_ms, mut async_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps.max(1) {
            let t = std::time::Instant::now();
            wl.run(&env_sync.client).expect("sync spec");
            sync_ms = sync_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let t = std::time::Instant::now();
            wl.run(&env_async.client).expect("async spec");
            async_ms = async_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }
        let speedup = sync_ms / async_ms;
        speedups.push(speedup);
        println!(
            "{}",
            row(
                &[
                    wl.name().into(),
                    format!("{sync_ms:.2}"),
                    format!("{async_ms:.2}"),
                    format!("{speedup:.3}"),
                ],
                &widths
            )
        );
    }

    println!();
    println!(
        "# geomean speedup from async annotations: {:.3} ({:+.1} %)",
        geomean(&speedups),
        (geomean(&speedups) - 1.0) * 100.0
    );
    println!("# paper: 8.6 % speedup from the async optimization");
}
