//! The three Rodinia workloads: each round runs every application of the
//! group once natively and once through AvA, in seeded order.
//!
//! Every AvA run gets a VM attached for that run only. A reused VM's call
//! journal is never truncated, so later applications would pay for earlier
//! ones (`pathfinder` measured 3.9–4.5× on a reused VM and a steady 1.75×
//! on a fresh one); attach and detach are timed separately, outside the
//! application's wall time. After the application finished, the VM runs a
//! short tenant op stream, which is where the round-trip and transfer
//! metrics of these workloads come from.

use std::sync::Arc;
use std::time::Instant;

use ava_core::{
    mvnc_stack, opencl_stack_with, ApiStack, GuestLibrary, LowerOptions, MvncClient, OpenClClient,
};
use ava_hypervisor::VmPolicy;
use ava_telemetry::Registry;
use ava_workloads::{opencl_workloads, silo_with_all_kernels, ClWorkload, Inception, XorShift};
use simcl::{ClApi, SimCl};
use simnc::{MvncApi, SimNc};

use crate::env::{rodinia_stack_config, Sizes};
use crate::layers::{self, Counts};
use crate::ops::{self, Op, Outcome, Payloads, Tenant};
use crate::samples::Samples;
use crate::spans::Track;
use crate::sys::process_cpu_ns;
use crate::timed::{CallLog, TimedCl, TimedNc};
use crate::trace::Trace;

/// Which applications a workload runs.
pub struct Spec {
    pub name: &'static str,
    pub cl_apps: &'static [&'static str],
    pub inception: bool,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "rodinia_chatty",
        cl_apps: &["gaussian", "nw", "lud"],
        inception: false,
    },
    Spec {
        name: "rodinia_bulk",
        cl_apps: &["pathfinder", "nn", "backprop", "bfs"],
        inception: true,
    },
    Spec {
        name: "rodinia_compute",
        cl_apps: &["srad", "hotspot", "kmeans"],
        inception: false,
    },
];

enum App {
    Cl(Box<dyn ClWorkload>),
    Nc(Inception),
}

impl App {
    fn name(&self) -> &'static str {
        match self {
            App::Cl(wl) => wl.name(),
            App::Nc(wl) => wl.name(),
        }
    }
}

/// One API's AvA stack, with the registry a traced run attaches to it.
struct Lane {
    stack: ApiStack,
    registry: Option<Registry>,
}

impl Lane {
    fn new(stack: ApiStack, traced: bool) -> Lane {
        let registry = traced.then(Registry::new);
        if let Some(registry) = &registry {
            stack
                .set_telemetry(registry.clone())
                .expect("telemetry attaches to a fresh stack");
        }
        Lane { stack, registry }
    }
}

/// What timing one application run produced.
struct Timed {
    start: Instant,
    wall_ns: u64,
    cpu_ns: u64,
    /// Checksum bits, or why the run failed.
    checksum: Result<u64, String>,
}

fn timed<E: std::fmt::Display>(run: impl FnOnce() -> Result<f64, E>) -> Timed {
    let cpu = process_cpu_ns();
    let start = Instant::now();
    let result = run();
    let wall_ns = start.elapsed().as_nanos() as u64;
    Timed {
        start,
        wall_ns,
        cpu_ns: process_cpu_ns() - cpu,
        checksum: result.map(f64::to_bits).map_err(|e| e.to_string()),
    }
}

fn run_cl(wl: &dyn ClWorkload, api: &dyn ClApi, log: Option<&CallLog>) -> Timed {
    match log {
        Some(log) => timed(|| wl.run(&TimedCl { inner: api, log })),
        None => timed(|| wl.run(api)),
    }
}

fn run_nc(wl: &Inception, api: &dyn MvncApi, log: Option<&CallLog>) -> Timed {
    match log {
        Some(log) => timed(|| wl.run(&TimedNc { inner: api, log })),
        None => timed(|| wl.run(api)),
    }
}

/// Everything a Rodinia workload needs, built once per run (and counted
/// in `setup_s`).
pub struct Env {
    apps: Vec<App>,
    native_cl: SimCl,
    native_nc: SimNc,
    cl: Lane,
    nc: Option<Lane>,
    payloads: Payloads,
    epilogue: Vec<Op>,
    log: CallLog,
    order: XorShift,
    /// Seeded: whether even (round + app) pairs run AvA or native first.
    ava_first_parity: u64,
    /// Native checksum of each application, fixed by its first run.
    reference: Vec<Option<u64>>,
}

impl Env {
    pub fn build(spec: &Spec, sizes: Sizes, seed: u64, traced: bool, epoch: Instant) -> Env {
        let mut apps: Vec<App> = Vec::new();
        let mut available = opencl_workloads(sizes.scale);
        for name in spec.cl_apps {
            let at = available
                .iter()
                .position(|wl| wl.name() == *name)
                .unwrap_or_else(|| panic!("ava-workloads has no OpenCL workload named {name}"));
            apps.push(App::Cl(available.swap_remove(at)));
        }
        if spec.inception {
            apps.push(App::Nc(Inception::new(sizes.scale)));
        }
        let config = rodinia_stack_config();
        let cl_stack = opencl_stack_with(
            silo_with_all_kernels(sizes.scale),
            config,
            LowerOptions::default(),
        )
        .expect("bundled OpenCL spec compiles");
        let nc = spec.inception.then(|| {
            let stack = mvnc_stack(SimNc::new(1), config).expect("bundled mvnc spec compiles");
            Lane::new(stack, traced)
        });
        Env {
            reference: vec![None; apps.len()],
            apps,
            native_cl: silo_with_all_kernels(sizes.scale),
            native_nc: SimNc::new(1),
            cl: Lane::new(cl_stack, traced),
            nc,
            payloads: Payloads::generate(seed),
            epilogue: ops::generate(ops::mix(seed, 0xE91), sizes.epilogue_ops),
            log: CallLog::new(epoch),
            order: XorShift::new(ops::mix(seed, 0x0DE)),
            ava_first_parity: ops::mix(seed, 0x51DE) & 1,
        }
    }

    pub fn app_names(&self) -> Vec<&'static str> {
        self.apps.iter().map(App::name).collect()
    }

    /// Runs one round and appends its measurements to `s`. With `trace`,
    /// both sides run under the timing wrappers and the layers' counters
    /// and spans are collected; the environment must have been built
    /// `traced` for that.
    pub fn round(&mut self, round: u32, mut trace: Option<&mut Trace>, s: &mut Samples) {
        let round_start = Instant::now();
        let round_span = trace.as_deref_mut().map_or(0, |t| {
            let at = t.ns_since_epoch(round_start);
            t.store.push(0, "round", Track::Rounds, round, at, 0)
        });

        let mut order: Vec<usize> = (0..self.apps.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.order.next_below(i + 1));
        }

        let (mut cpu_native, mut cpu_ava, mut calls) = (0u64, 0u64, 0u64);
        let mut stream = Outcome::default();
        let mut counts = Counts::default();
        for idx in order {
            let ava_first =
                (u64::from(round) + idx as u64 + self.ava_first_parity).is_multiple_of(2);
            let mut native = None;
            let mut ava = None;
            for side_is_ava in [ava_first, !ava_first] {
                if side_is_ava {
                    ava = Some(self.run_ava(
                        idx,
                        round,
                        round_span,
                        trace.as_deref_mut(),
                        s,
                        &mut stream,
                        &mut counts,
                    ));
                } else {
                    native = Some(self.run_native(idx, round, round_span, trace.as_deref_mut()));
                }
            }
            let (native, ava) = (native.expect("ran"), ava.expect("ran"));
            let name = self.apps[idx].name();
            s.native_ms[idx].push(native.wall_ns as f64 / 1e6);
            s.ava_ms[idx].push(ava.timed.wall_ns as f64 / 1e6);
            cpu_native += native.cpu_ns;
            cpu_ava += ava.timed.cpu_ns;
            calls += ava.forwarded_calls;

            // Oracle: native runs agree with each other, and the AvA
            // checksum is bit-identical to the native one.
            let reference = match (&native.checksum, self.reference[idx]) {
                (Ok(bits), None) => {
                    self.reference[idx] = Some(*bits);
                    Ok(*bits)
                }
                (Ok(bits), Some(first)) if *bits == first => Ok(first),
                (Ok(_), Some(_)) => Err(format!("{name}: native checksum changed between rounds")),
                (Err(e), _) => Err(format!("{name}: native run failed: {e}")),
            };
            s.check(reference.and_then(|want| match &ava.timed.checksum {
                Ok(bits) if *bits == want => Ok(()),
                Ok(bits) => Err(format!(
                    "{name}: AvA checksum {:e} differs from native {:e}",
                    f64::from_bits(*bits),
                    f64::from_bits(want)
                )),
                Err(e) => Err(format!("{name}: AvA run failed: {e}")),
            }));
        }

        s.cpu_native_ns.push(cpu_native as f64);
        s.cpu_ava_ns.push(cpu_ava as f64);
        s.calls.push(calls as f64);
        s.push_stream_outcome(stream);
        if let Some(t) = trace {
            t.counts.add(&counts);
            t.rounds += 1;
            t.store
                .close(round_span, round_start.elapsed().as_nanos() as u64);
        }
    }

    fn run_native(
        &self,
        idx: usize,
        round: u32,
        round_span: u64,
        trace: Option<&mut Trace>,
    ) -> Timed {
        let log = trace.is_some().then_some(&self.log);
        let timed = match &self.apps[idx] {
            App::Cl(wl) => run_cl(wl.as_ref(), &self.native_cl, log),
            App::Nc(wl) => run_nc(wl, &self.native_nc, log),
        };
        if let Some(t) = trace {
            t.file_run(
                round_span,
                self.apps[idx].name(),
                Track::Native(0),
                round,
                timed.start,
                timed.wall_ns,
                &self.log,
            );
        }
        timed
    }

    #[allow(clippy::too_many_arguments)]
    fn run_ava(
        &self,
        idx: usize,
        round: u32,
        round_span: u64,
        trace: Option<&mut Trace>,
        s: &mut Samples,
        stream: &mut Outcome,
        counts: &mut Counts,
    ) -> AvaRun {
        let app = &self.apps[idx];
        let lane = match app {
            App::Cl(_) => &self.cl,
            App::Nc(_) => self.nc.as_ref().expect("inception has its stack"),
        };
        let log = trace.is_some().then_some(&self.log);

        let attach = Instant::now();
        let (vm, lib) = lane
            .stack
            .attach_vm(VmPolicy::default())
            .expect("a VM attaches to a healthy stack");
        s.attach_us.push(attach.elapsed().as_secs_f64() * 1e6);
        s.check(match layers::journal_len(&lane.stack, vm) {
            0 => Ok(()),
            n => Err(format!(
                "{}: fresh VM starts with {n} journaled calls",
                app.name()
            )),
        });

        let cl_client = matches!(app, App::Cl(_)).then(|| OpenClClient::new(Arc::clone(&lib)));
        let timed = match app {
            App::Cl(wl) => run_cl(wl.as_ref(), cl_client.as_ref().expect("built above"), log),
            App::Nc(wl) => run_nc(wl, &MvncClient::new(Arc::clone(&lib)), log),
        };

        // The application is done; everything below is outside its wall
        // time. Settle the VM, read the layers, then run the op stream.
        let settled = layers::quiesce(&lane.stack, vm, &lib);
        s.check(if settled {
            Ok(())
        } else {
            Err(format!(
                "{}: server never executed every issued call",
                app.name()
            ))
        });
        let forwarded_calls = forwarded(&lib);
        if let Some(t) = trace {
            t.file_run(
                round_span,
                app.name(),
                Track::Ava(0),
                round,
                timed.start,
                timed.wall_ns,
                &self.log,
            );
            counts.add(&layers::sample(
                &lane.stack,
                vm,
                &lib,
                lane.registry.as_ref(),
                true,
            ));
            if let Some(registry) = &lane.registry {
                t.spans.absorb(&registry.spans().take_completed());
            }
        }

        if let Some(client) = &cl_client {
            match self.run_epilogue(client) {
                Ok(outcome) => {
                    s.check_many(
                        self.epilogue.len() as u64,
                        outcome.failed,
                        "epilogue operations",
                    );
                    stream.absorb(outcome);
                }
                Err(e) => s.check(Err(format!("{}: epilogue set-up failed: {e}", app.name()))),
            }
            // The op stream's spans describe the stream, not the
            // application; the span means of this workload leave them out.
            if let Some(registry) = &lane.registry {
                registry.spans().take_completed();
            }
        }

        let detach = Instant::now();
        lane.stack.detach_vm(vm).expect("an attached VM detaches");
        s.detach_us.push(detach.elapsed().as_secs_f64() * 1e6);
        AvaRun {
            timed,
            forwarded_calls,
        }
    }

    fn run_epilogue(&self, client: &OpenClClient) -> Result<Outcome, simcl::ClError> {
        let mut tenant = Tenant::open(client, &self.payloads)?;
        let outcome = ops::run(client, &mut tenant, &self.epilogue, &self.payloads);
        tenant.close(client)?;
        Ok(outcome)
    }
}

struct AvaRun {
    timed: Timed,
    /// Calls the guest library forwarded for the application.
    forwarded_calls: u64,
}

fn forwarded(lib: &GuestLibrary) -> u64 {
    let stats = lib.stats();
    stats.sync_calls + stats.async_calls
}
