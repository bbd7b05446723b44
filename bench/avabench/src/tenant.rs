//! `tenant_mix`: two VMs on a one-slot shared device pool, each issuing a
//! seeded op stream at the same time, followed by a live migration of one
//! VM and a crash recovery of the other.
//!
//! The same layers as the Rodinia workloads, used differently: two tenants
//! contend for one device mutex and one router, synchronous round trips
//! run beside asynchronous streams, writes beside reads, and the transfer
//! cache is on with shared and unshared content. The native baseline runs
//! the same two streams on two threads against one native silo — two
//! processes sharing a device without AvA in between.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ava_core::{opencl_pool_stack, ApiStack, GuestLibrary, OpenClClient};
use ava_hypervisor::VmPolicy;
use ava_telemetry::Registry;
use ava_wire::VmId;
use ava_workloads::{silo_with_all_kernels, Scale};
use simcl::{ClApi, SimCl};

use crate::env::{tenant_stack_config, Sizes};
use crate::layers::{self, Counts};
use crate::ops::{self, Op, Outcome, Payloads, Tenant};
use crate::samples::Samples;
use crate::spans::Track;
use crate::sys::process_cpu_ns;
use crate::timed::{CallLog, TimedCl};
use crate::trace::Trace;

/// VMs (and op streams) per round.
const VMS: usize = 2;

/// How long a crashed server may take to come back before the recovery
/// counts as failed.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(10);

/// One tenant's finished op phase.
struct Phase {
    tenant: Tenant,
    outcome: Outcome,
    start: Instant,
    end: Instant,
}

pub struct Env {
    stack: ApiStack,
    registry: Option<Registry>,
    native: SimCl,
    payloads: Payloads,
    streams: Vec<Vec<Op>>,
    logs: Vec<CallLog>,
    /// Seeded: whether even rounds run AvA or native first.
    ava_first_parity: u64,
    /// Payloads the transfer cache looks at, per round (both streams).
    pub cacheable_payloads: u64,
}

impl Env {
    pub fn build(sizes: Sizes, seed: u64, traced: bool, epoch: Instant) -> Env {
        // The silo always has the small (`Scale::Test`) kernel set: the op
        // streams launch no kernels, only the device's queue and memory.
        let stack = opencl_pool_stack(
            vec![silo_with_all_kernels(Scale::Test)],
            tenant_stack_config(),
        )
        .expect("bundled OpenCL spec compiles");
        let registry = traced.then(Registry::new);
        if let Some(registry) = &registry {
            stack
                .set_telemetry(registry.clone())
                .expect("telemetry attaches to a fresh stack");
        }
        let streams: Vec<Vec<Op>> = (0..VMS)
            .map(|vm| ops::generate(ops::mix(seed, 0x7E0 + vm as u64), sizes.tenant_ops))
            .collect();
        let min_bytes = tenant_stack_config().guest.payload_cache_min_bytes;
        Env {
            cacheable_payloads: streams
                .iter()
                .map(|s| ops::count(s, min_bytes).cacheable_payloads)
                .sum(),
            stack,
            registry,
            native: silo_with_all_kernels(Scale::Test),
            payloads: Payloads::generate(seed),
            streams,
            logs: (0..VMS).map(|_| CallLog::new(epoch)).collect(),
            ava_first_parity: ops::mix(seed, 0x51DE) & 1,
        }
    }

    /// Threads issuing calls at the same time: one per VM. The benchmark
    /// runs on one CPU, so the streams interleave wherever a tenant blocks
    /// on a reply or its time slice ends.
    pub const THREADS: usize = VMS;

    /// Runs the two streams concurrently, one per API endpoint, and
    /// returns each tenant's phase with the process CPU time the op phase
    /// consumed.
    fn run_streams(&self, apis: &[&dyn ClApi], traced: bool) -> (Vec<Phase>, u64) {
        let barrier = Barrier::new(VMS + 1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..VMS)
                .map(|vm| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut tenant = Tenant::open(apis[vm], &self.payloads)
                            .expect("tenant objects are created");
                        barrier.wait();
                        let start = Instant::now();
                        let outcome = if traced {
                            let api = TimedCl {
                                inner: apis[vm],
                                log: &self.logs[vm],
                            };
                            ops::run(&api, &mut tenant, &self.streams[vm], &self.payloads)
                        } else {
                            ops::run(apis[vm], &mut tenant, &self.streams[vm], &self.payloads)
                        };
                        Phase {
                            tenant,
                            outcome,
                            start,
                            end: Instant::now(),
                        }
                    })
                })
                .collect();
            // Every tenant exists; release the streams together.
            barrier.wait();
            let cpu = process_cpu_ns();
            let phases = workers
                .into_iter()
                .map(|w| w.join().expect("stream thread finished"))
                .collect();
            (phases, process_cpu_ns() - cpu)
        })
    }

    pub fn round(&mut self, round: u32, mut trace: Option<&mut Trace>, s: &mut Samples) {
        let round_start = Instant::now();
        let round_span = trace.as_deref_mut().map_or(0, |t| {
            let at = t.ns_since_epoch(round_start);
            t.store.push(0, "round", Track::Rounds, round, at, 0)
        });
        let ava_first = (u64::from(round) + self.ava_first_parity).is_multiple_of(2);
        for side_is_ava in [ava_first, !ava_first] {
            if side_is_ava {
                self.ava_side(round, round_span, trace.as_deref_mut(), s);
            } else {
                self.native_side(round, round_span, trace.as_deref_mut(), s);
            }
        }
        if let Some(t) = trace {
            t.rounds += 1;
            t.store
                .close(round_span, round_start.elapsed().as_nanos() as u64);
        }
    }

    /// Wall time of the op phase: first stream start to last stream end.
    fn wall_ms(phases: &[Phase]) -> f64 {
        let start = phases.iter().map(|p| p.start).min().expect("two phases");
        let end = phases.iter().map(|p| p.end).max().expect("two phases");
        (end - start).as_secs_f64() * 1e3
    }

    fn file_phases(
        &self,
        phases: &[Phase],
        side: fn(u8) -> Track,
        round: u32,
        round_span: u64,
        trace: &mut Trace,
    ) {
        for (vm, phase) in phases.iter().enumerate() {
            trace.file_run(
                round_span,
                "tenant",
                side(vm as u8),
                round,
                phase.start,
                (phase.end - phase.start).as_nanos() as u64,
                &self.logs[vm],
            );
        }
    }

    fn native_side(&self, round: u32, round_span: u64, trace: Option<&mut Trace>, s: &mut Samples) {
        let silos: Vec<SimCl> = (0..VMS).map(|_| self.native.clone()).collect();
        let apis: Vec<&dyn ClApi> = silos.iter().map(|silo| silo as &dyn ClApi).collect();
        let (phases, cpu) = self.run_streams(&apis, trace.is_some());
        s.native_ms[0].push(Self::wall_ms(&phases));
        s.cpu_native_ns.push(cpu as f64);
        if let Some(t) = trace {
            self.file_phases(&phases, Track::Native, round, round_span, t);
        }
        for (vm, phase) in phases.into_iter().enumerate() {
            s.check_many(
                self.streams[vm].len() as u64,
                phase.outcome.failed,
                "native tenant operations",
            );
            s.check(
                phase
                    .tenant
                    .close(apis[vm])
                    .map_err(|e| format!("native tenant teardown: {e}")),
            );
        }
    }

    fn ava_side(&self, round: u32, round_span: u64, trace: Option<&mut Trace>, s: &mut Samples) {
        let mut vms: Vec<(VmId, Arc<GuestLibrary>)> = Vec::new();
        for _ in 0..VMS {
            let attach = Instant::now();
            let attached = self
                .stack
                .attach_vm(VmPolicy::default())
                .expect("a VM attaches to a healthy stack");
            s.attach_us.push(attach.elapsed().as_secs_f64() * 1e6);
            s.check(match layers::journal_len(&self.stack, attached.0) {
                0 => Ok(()),
                n => Err(format!("fresh VM starts with {n} journaled calls")),
            });
            vms.push(attached);
        }
        let clients: Vec<OpenClClient> = vms
            .iter()
            .map(|(_, lib)| OpenClClient::new(Arc::clone(lib)))
            .collect();
        let apis: Vec<&dyn ClApi> = clients.iter().map(|c| c as &dyn ClApi).collect();

        let (phases, cpu) = self.run_streams(&apis, trace.is_some());
        s.ava_ms[0].push(Self::wall_ms(&phases));
        s.cpu_ava_ns.push(cpu as f64);
        s.calls
            .push(self.streams.iter().map(Vec::len).sum::<usize>() as f64);

        // The op phase is over; settle both VMs and read the layers before
        // relocation adds its own traffic.
        let mut counts = Counts::default();
        for (vm, lib) in &vms {
            s.check(if layers::quiesce(&self.stack, *vm, lib) {
                Ok(())
            } else {
                Err("server never executed every issued call".into())
            });
            if trace.is_some() {
                counts.add(&layers::sample(
                    &self.stack,
                    *vm,
                    lib,
                    self.registry.as_ref(),
                    true,
                ));
            }
        }
        if let Some(t) = trace {
            self.file_phases(&phases, Track::Ava, round, round_span, t);
            t.counts.add(&counts);
            if let Some(registry) = &self.registry {
                t.spans.absorb(&registry.spans().take_completed());
            }
        }

        let mut stream = Outcome::default();
        let mut tenants = Vec::new();
        for (vm, phase) in phases.into_iter().enumerate() {
            s.check_many(
                self.streams[vm].len() as u64,
                phase.outcome.failed,
                "tenant operations",
            );
            stream.absorb(phase.outcome);
            tenants.push(phase.tenant);
        }
        s.push_stream_outcome(stream);

        // VM A moves to a fresh device while VM B stays; its buffer must
        // survive the move.
        let migrate = Instant::now();
        let migrated = self.stack.migrate_vm_fresh(vms[0].0);
        s.migrate_ms.push(migrate.elapsed().as_secs_f64() * 1e3);
        s.check(match migrated {
            Ok(()) if tenants[0].verify(apis[0], &self.payloads) => Ok(()),
            Ok(()) => Err("buffer contents changed across migration".into()),
            Err(e) => Err(format!("migration failed: {e}")),
        });

        // VM B's server dies; the supervisor respawns it and replays the
        // journal. Downtime is crash to respawn.
        let before = self.stack.recovery_stats();
        let crash = Instant::now();
        let recovered = self
            .stack
            .crash_vm_server(vms[1].0)
            .map_err(|e| format!("crash hook failed: {e}"))
            .and_then(|()| {
                while self.stack.recovery_stats().respawns == before.respawns {
                    if crash.elapsed() > RECOVERY_TIMEOUT {
                        return Err("supervisor never respawned the server".to_owned());
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(())
            });
        s.recover_ms.push(crash.elapsed().as_secs_f64() * 1e3);
        let after = self.stack.recovery_stats();
        s.replayed_calls
            .push((after.replayed_calls - before.replayed_calls) as f64);
        s.check(recovered.and_then(|()| {
            if after.failed != before.failed {
                Err("recovery was abandoned".into())
            } else if tenants[1].verify(apis[1], &self.payloads) {
                Ok(())
            } else {
                Err("buffer contents changed across crash recovery".into())
            }
        }));

        for (tenant, api) in tenants.into_iter().zip(&apis) {
            s.check(
                tenant
                    .close(*api)
                    .map_err(|e| format!("tenant teardown: {e}")),
            );
        }
        // Relocation and teardown spans are not part of the op phase.
        if let Some(registry) = &self.registry {
            registry.spans().take_completed();
        }
        for (vm, _) in &vms {
            let detach = Instant::now();
            self.stack.detach_vm(*vm).expect("an attached VM detaches");
            s.detach_us.push(detach.elapsed().as_secs_f64() * 1e6);
        }
    }
}
