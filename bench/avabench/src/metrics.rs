//! The benchmark's dictionary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the root
//! of the repository is generated from this table (`avabench manifest`)
//! and a unit test keeps the two identical; the README explains how each
//! value is estimated.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How the driver invokes the benchmark, from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/avabench/Cargo.toml",
    "--",
];

pub const PATHS: &[&str] = &["bench/avabench"];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u32 = 20;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "rodinia_chatty",
        why: "gaussian, nw, lud: ~32k forwarded calls and ~1.7 KiB payload per call per round, \
              so marshal, small-frame codec, doorbells, router forward and dispatch carry the overhead",
    },
    WorkloadDef {
        name: "rodinia_bulk",
        why: "pathfinder, nn, backprop, bfs + inception (mvnc): ~3k calls but ~65 MiB per round, \
              so encode/decode copies, the ring copy and modelled bandwidth dominate; second API",
    },
    WorkloadDef {
        name: "rodinia_compute",
        why: "srad, hotspot, kmeans: device-bound control, ratio ~1.04; every remoting-layer \
              optimisation predicts no change here, a simcl or app change shows here first",
    },
    WorkloadDef {
        name: "tenant_mix",
        why: "2 VMs on one shared device: seeded mix of async writes, sync round trips, cached and \
              fresh 64 KiB uploads, readbacks, then migration and crash recovery; queues non-empty",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "virt_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.12,
    },
    EndToEndDef {
        name: "ava_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
    },
    EndToEndDef {
        name: "native_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
    },
    EndToEndDef {
        name: "cpu_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "calls_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
    },
    EndToEndDef {
        name: "rtt_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.15,
    },
    EndToEndDef {
        name: "rtt_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "upload_mib_per_s",
        unit: "MiB/s",
        better: Higher,
        bound: 0.22,
    },
    EndToEndDef {
        name: "readback_mib_per_s",
        unit: "MiB/s",
        better: Higher,
        bound: 0.20,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// The eleven applications, in the order their ratios are listed.
pub const APPS: &[&str] = &[
    "gaussian",
    "nw",
    "lud",
    "pathfinder",
    "nn",
    "backprop",
    "bfs",
    "inception",
    "srad",
    "hotspot",
    "kmeans",
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

pub const PER_LAYER: &[LayerDef] = &[
    // Set-up path.
    layer("spec.compile_opencl_ms", "ms", Lower),
    layer("spec.compile_mvnc_ms", "ms", Lower),
    layer("cava.generate_opencl_ms", "ms", Lower),
    layer("core.stack_build_ms", "ms", Lower),
    layer("core.attach_vm_us", "us", Lower),
    layer("core.detach_vm_us", "us", Lower),
    // Per-call cost.
    layer("wire.encode_small_ns", "ns", Lower),
    layer("wire.decode_small_ns", "ns", Lower),
    layer("wire.batch16_encode_ns_per_call", "ns", Lower),
    layer("transport.inproc_rtt_small_us", "us", Lower),
    layer("transport.shmem_rtt_small_us", "us", Lower),
    layer("transport.shmem_pv_rtt_small_us", "us", Lower),
    layer("hypervisor.forward_rtt_small_us", "us", Lower),
    layer("guest.call_stub_rtt_us", "us", Lower),
    layer("server.handle_call_small_us", "us", Lower),
    layer("guest.doorbells", "count", Lower),
    layer("guest.batch_fill", "ratio", Higher),
    layer("guest.sync_calls", "count", Lower),
    layer("guest.async_calls", "count", Higher),
    layer("transport.frames_out", "count", Lower),
    layer("guest.span_marshal_us", "us", Lower),
    layer("transport.span_out_us", "us", Lower),
    layer("hypervisor.span_queue_us", "us", Lower),
    layer("server.span_execute_us", "us", Lower),
    layer("hypervisor.span_reply_us", "us", Lower),
    layer("transport.span_back_us", "us", Lower),
    layer("core.span_e2e_us", "us", Lower),
    layer("core.span_sum_over_e2e", "ratio", Lower),
    layer("guest.api_calls", "count", Lower),
    layer("guest.api_busy_ms", "ms", Lower),
    layer("guest.call_p50_us", "us", Lower),
    // Byte movement.
    layer("wire.encode_bulk_gib_s", "GiB/s", Higher),
    layer("wire.decode_bulk_gib_s", "GiB/s", Higher),
    layer("transport.shmem_bulk_gib_s", "GiB/s", Higher),
    layer("server.handle_call_write_gib_s", "GiB/s", Higher),
    layer("transport.frame_bytes_out", "bytes", Lower),
    layer("transport.payload_bytes_out", "bytes", Lower),
    layer("transport.payload_bytes_back", "bytes", Lower),
    layer("transport.frame_overhead_ratio", "ratio", Lower),
    layer("guest.bulk_call_p50_us", "us", Lower),
    // Transfer cache.
    layer("wire.digest_gib_s", "GiB/s", Higher),
    layer("guest.cache_hit_ratio", "ratio", Higher),
    layer("hypervisor.bytes_elided", "bytes", Higher),
    // Router and server under contention.
    layer("hypervisor.forwarded", "count", Lower),
    layer("hypervisor.shed", "count", Lower),
    layer("hypervisor.est_device_time_ms", "ms", Lower),
    layer("server.calls", "count", Lower),
    layer("server.duplicates_suppressed", "count", Lower),
    layer("guest.retries", "count", Lower),
    // Journal, relocation, memory.
    layer("server.journal_entries", "count", Lower),
    layer("server.journal_payload_mib", "MiB", Lower),
    layer("core.replayed_calls", "count", Lower),
    layer("core.recover_ms", "ms", Lower),
    layer("core.recover_us_per_replayed_call", "us", Lower),
    layer("core.migrate_ms", "ms", Lower),
    layer("core.rss_peak_mib", "MiB", Lower),
    // Device and application time.
    layer("simcl.api_busy_ms", "ms", Lower),
    layer("simnc.api_busy_ms", "ms", Lower),
    layer("apps.self_ms", "ms", Lower),
    layer("apps.gaussian.virt_ratio", "ratio", Lower),
    layer("apps.nw.virt_ratio", "ratio", Lower),
    layer("apps.lud.virt_ratio", "ratio", Lower),
    layer("apps.pathfinder.virt_ratio", "ratio", Lower),
    layer("apps.nn.virt_ratio", "ratio", Lower),
    layer("apps.backprop.virt_ratio", "ratio", Lower),
    layer("apps.bfs.virt_ratio", "ratio", Lower),
    layer("apps.inception.virt_ratio", "ratio", Lower),
    layer("apps.srad.virt_ratio", "ratio", Lower),
    layer("apps.hotspot.virt_ratio", "ratio", Lower),
    layer("apps.kmeans.virt_ratio", "ratio", Lower),
    // Price of observability.
    layer("telemetry.trace_overhead_ratio", "ratio", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static LayerDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Unit of any metric in the dictionary.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
    }

    #[test]
    fn setup_time_is_an_end_to_end_metric_with_the_largest_bound() {
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_application_has_a_ratio_metric() {
        for app in APPS {
            assert!(per_layer(&format!("apps.{app}.virt_ratio")).is_some());
        }
        assert_eq!(unit_of("guest.doorbells"), Some("count"));
        assert_eq!(unit_of("calls_per_s"), Some("1/s"));
        assert_eq!(unit_of("nope"), None);
    }

    #[test]
    fn committed_manifest_matches_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10);
        assert_eq!(
            crate::json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with `avabench manifest > BENCHMARK.json`"
        );
    }
}
