//! The seeded tenant op stream and its executor.
//!
//! A stream is a fixed sequence of small OpenCL operations drawn from the
//! seed: asynchronous 256 B writes, `clFinish`, pure synchronous round
//! trips, blocking 64 KiB uploads (half repeated content, half fresh) and
//! blocking 64 KiB readbacks. `tenant_mix` runs two streams side by side
//! on one shared device; the Rodinia workloads run a short stream on every
//! VM after its application finished, so round-trip latency and transfer
//! bandwidth are measured by the same code under every workload. The
//! executor is written against `&dyn ClApi`, so the same stream runs on
//! the native silo as the baseline. Every readback is byte-verified
//! against the last upload.

use std::time::Instant;

use ava_workloads::XorShift;
use simcl::status::ClResult;
use simcl::types::*;
use simcl::ClApi;

/// Size of the bulk transfers.
pub const BULK: usize = 64 << 10;
/// Size of the small asynchronous writes.
pub const SMALL: usize = 256;
/// Entries in the repeated-content pool (the payload cache holds 32).
pub const POOL_ENTRIES: usize = 8;
/// Random bytes that fresh uploads and small writes slice their content
/// from; 2 MiB gives 256 Ki distinct 8-byte-aligned 64 KiB windows.
const ARENA: usize = 2 << 20;

/// Derives an independent sub-seed (splitmix64 finalizer).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a bulk upload takes its 64 KiB from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// One of [`POOL_ENTRIES`] recurring payloads (cacheable).
    Pool(u8),
    /// A window of the arena at this offset (never seen before, in
    /// practice).
    Fresh(u32),
}

/// One operation of a tenant stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Non-blocking [`SMALL`]-byte write from arena offset `src` to scratch
    /// offset `dst`: forwarded asynchronously and batched.
    Write { src: u32, dst: u32 },
    /// `clFinish`: a synchronous call that also drains the device queue.
    Finish,
    /// `clGetMemObjectInfo`: a pure synchronous round trip.
    Query,
    /// Blocking [`BULK`]-byte upload into the data buffer.
    Upload(Source),
    /// Blocking [`BULK`]-byte readback of the data buffer, byte-verified.
    Readback,
}

/// Draws `count` operations: 60 % writes, 15 % finish, 15 % queries, 6 %
/// uploads (half pool, half fresh), 4 % readbacks.
pub fn generate(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = XorShift::new(seed);
    (0..count)
        .map(|_| match rng.next_below(100) {
            0..=59 => Op::Write {
                src: (rng.next_below(ARENA / 8) * 8) as u32,
                dst: (rng.next_below(BULK / SMALL) * SMALL) as u32,
            },
            60..=74 => Op::Finish,
            75..=89 => Op::Query,
            90..=92 => Op::Upload(Source::Pool(rng.next_below(POOL_ENTRIES) as u8)),
            93..=95 => Op::Upload(Source::Fresh((rng.next_below(ARENA / 8) * 8) as u32)),
            _ => Op::Readback,
        })
        .collect()
}

/// Exact call and byte counts a stream implies; they must equal what the
/// layers count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamCounts {
    pub calls: u64,
    pub bytes_out: u64,
    pub bytes_back: u64,
    /// Buffer payloads large enough for the transfer cache to consider.
    pub cacheable_payloads: u64,
}

pub fn count(ops: &[Op], cache_min_bytes: usize) -> StreamCounts {
    let mut c = StreamCounts {
        calls: ops.len() as u64,
        ..StreamCounts::default()
    };
    for op in ops {
        match op {
            Op::Write { .. } => {
                c.bytes_out += SMALL as u64;
                c.cacheable_payloads += u64::from(SMALL >= cache_min_bytes);
            }
            Op::Upload(_) => {
                c.bytes_out += BULK as u64;
                c.cacheable_payloads += u64::from(BULK >= cache_min_bytes);
            }
            Op::Readback => c.bytes_back += BULK as u64,
            Op::Finish | Op::Query => {}
        }
    }
    c
}

/// Payload contents for every stream of a run, generated from the seed.
pub struct Payloads {
    arena: Vec<u8>,
    pool: Vec<Vec<u8>>,
}

impl Payloads {
    pub fn generate(seed: u64) -> Self {
        let mut rng = XorShift::new(mix(seed, 0xA7E4A));
        let mut fill = |len: usize| -> Vec<u8> {
            let mut bytes = Vec::with_capacity(len + 8);
            while bytes.len() < len {
                bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            bytes.truncate(len);
            bytes
        };
        Payloads {
            arena: fill(ARENA + BULK),
            pool: (0..POOL_ENTRIES).map(|_| fill(BULK)).collect(),
        }
    }

    fn bulk(&self, source: Source) -> &[u8] {
        match source {
            Source::Pool(i) => &self.pool[usize::from(i)],
            Source::Fresh(off) => &self.arena[off as usize..off as usize + BULK],
        }
    }

    fn small(&self, src: u32) -> &[u8] {
        &self.arena[src as usize..src as usize + SMALL]
    }
}

/// The OpenCL objects one tenant works on.
pub struct Tenant {
    ctx: ClContext,
    queue: ClQueue,
    scratch: ClMem,
    data: ClMem,
    /// What the data buffer holds: the oracle for readbacks.
    holds: Source,
}

impl Tenant {
    /// Creates the context, queue and the two 64 KiB buffers; the data
    /// buffer starts as pool entry 0.
    pub fn open(api: &dyn ClApi, payloads: &Payloads) -> ClResult<Tenant> {
        let platform = api.get_platform_ids()?[0];
        let device = api.get_device_ids(platform, DeviceType::All)?[0];
        let ctx = api.create_context(device)?;
        let queue = api.create_command_queue(ctx, device, QueueProps::default())?;
        let scratch = api.create_buffer(ctx, MemFlags::read_write(), BULK, None)?;
        let holds = Source::Pool(0);
        let data = api.create_buffer(
            ctx,
            MemFlags::read_write(),
            BULK,
            Some(payloads.bulk(holds)),
        )?;
        api.finish(queue)?;
        Ok(Tenant {
            ctx,
            queue,
            scratch,
            data,
            holds,
        })
    }

    pub fn close(self, api: &dyn ClApi) -> ClResult<()> {
        api.finish(self.queue)?;
        api.release_mem_object(self.scratch)?;
        api.release_mem_object(self.data)?;
        api.release_command_queue(self.queue)?;
        api.release_context(self.ctx)
    }

    /// Reads the data buffer back and compares it with the last upload —
    /// also the oracle after a migration or a crash recovery.
    pub fn verify(&self, api: &dyn ClApi, payloads: &Payloads) -> bool {
        let mut out = vec![0u8; BULK];
        api.enqueue_read_buffer(self.queue, self.data, true, 0, &mut out, &[], false)
            .is_ok()
            && out == payloads.bulk(self.holds)
    }
}

/// What one pass over a stream measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations that returned an error or failed byte verification.
    pub failed: u64,
    /// Latency of every [`Op::Query`], nanoseconds.
    pub rtt_ns: Vec<u32>,
    /// Time and bytes inside fresh-content uploads (pool uploads may be
    /// elided by the transfer cache and are left out of the bandwidth).
    pub upload_ns: u64,
    pub upload_bytes: u64,
    pub readback_ns: u64,
    pub readback_bytes: u64,
}

impl Outcome {
    pub fn absorb(&mut self, other: Outcome) {
        self.failed += other.failed;
        self.rtt_ns.extend(other.rtt_ns);
        self.upload_ns += other.upload_ns;
        self.upload_bytes += other.upload_bytes;
        self.readback_ns += other.readback_ns;
        self.readback_bytes += other.readback_bytes;
    }

    pub fn upload_mib_per_s(&self) -> f64 {
        mib_per_s(self.upload_bytes, self.upload_ns)
    }

    pub fn readback_mib_per_s(&self) -> f64 {
        mib_per_s(self.readback_bytes, self.readback_ns)
    }
}

fn mib_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return f64::NAN;
    }
    bytes as f64 / (1u64 << 20) as f64 / (ns as f64 / 1e9)
}

/// Issues `ops` in order on `tenant` and returns what it measured.
pub fn run(api: &dyn ClApi, tenant: &mut Tenant, ops: &[Op], payloads: &Payloads) -> Outcome {
    let mut out = Outcome::default();
    let mut readback = vec![0u8; BULK];
    for op in ops {
        let ok = match *op {
            Op::Write { src, dst } => api
                .enqueue_write_buffer(
                    tenant.queue,
                    tenant.scratch,
                    false,
                    dst as usize,
                    payloads.small(src),
                    &[],
                    false,
                )
                .is_ok(),
            Op::Finish => api.finish(tenant.queue).is_ok(),
            Op::Query => {
                let start = Instant::now();
                let size = api.get_mem_object_info(tenant.data);
                out.rtt_ns
                    .push(u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX));
                size == Ok(BULK)
            }
            Op::Upload(source) => {
                let start = Instant::now();
                let result = api.enqueue_write_buffer(
                    tenant.queue,
                    tenant.data,
                    true,
                    0,
                    payloads.bulk(source),
                    &[],
                    false,
                );
                if matches!(source, Source::Fresh(_)) {
                    out.upload_ns += start.elapsed().as_nanos() as u64;
                    out.upload_bytes += BULK as u64;
                }
                tenant.holds = source;
                result.is_ok()
            }
            Op::Readback => {
                let start = Instant::now();
                let result = api.enqueue_read_buffer(
                    tenant.queue,
                    tenant.data,
                    true,
                    0,
                    &mut readback,
                    &[],
                    false,
                );
                out.readback_ns += start.elapsed().as_nanos() as u64;
                out.readback_bytes += BULK as u64;
                result.is_ok() && readback == payloads.bulk(tenant.holds)
            }
        };
        out.failed += u64::from(!ok);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_counts() {
        let a = generate(mix(7, 1), 4000);
        let b = generate(mix(7, 1), 4000);
        assert_eq!(a, b);
        assert_eq!(count(&a, 4096), count(&b, 4096));
    }

    #[test]
    fn different_seed_or_stream_index_different_stream() {
        let base = generate(mix(7, 1), 4000);
        assert_ne!(base, generate(mix(8, 1), 4000));
        assert_ne!(base, generate(mix(7, 2), 4000));
    }

    #[test]
    fn mix_follows_the_documented_shares() {
        let ops = generate(mix(11, 0), 100_000);
        let share = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 1e5;
        assert!((share(|o| matches!(o, Op::Write { .. })) - 0.60).abs() < 0.01);
        assert!((share(|o| matches!(o, Op::Finish)) - 0.15).abs() < 0.01);
        assert!((share(|o| matches!(o, Op::Query)) - 0.15).abs() < 0.01);
        assert!((share(|o| matches!(o, Op::Upload(Source::Pool(_)))) - 0.03).abs() < 0.005);
        assert!((share(|o| matches!(o, Op::Upload(Source::Fresh(_)))) - 0.03).abs() < 0.005);
        assert!((share(|o| matches!(o, Op::Readback)) - 0.04).abs() < 0.005);
    }

    #[test]
    fn counts_follow_from_the_stream() {
        let ops = [
            Op::Write { src: 0, dst: 0 },
            Op::Upload(Source::Pool(1)),
            Op::Readback,
            Op::Query,
            Op::Finish,
        ];
        let c = count(&ops, 4096);
        assert_eq!(c.calls, 5);
        assert_eq!(c.bytes_out, (SMALL + BULK) as u64);
        assert_eq!(c.bytes_back, BULK as u64);
        assert_eq!(c.cacheable_payloads, 1);
        assert_eq!(count(&ops, 64).cacheable_payloads, 2);
    }

    #[test]
    fn payloads_depend_only_on_the_seed() {
        let a = Payloads::generate(3);
        let b = Payloads::generate(3);
        assert_eq!(a.arena, b.arena);
        assert_eq!(a.pool, b.pool);
        assert_ne!(a.arena, Payloads::generate(4).arena);
        assert_ne!(a.pool[0], a.pool[1]);
    }

    #[test]
    fn stream_runs_clean_on_the_native_silo() {
        let payloads = Payloads::generate(5);
        let ops = generate(mix(5, 0), 600);
        let cl = simcl::SimCl::new();
        let mut tenant = Tenant::open(&cl, &payloads).unwrap();
        let out = run(&cl, &mut tenant, &ops, &payloads);
        assert_eq!(out.failed, 0);
        let queries = ops.iter().filter(|o| matches!(o, Op::Query)).count();
        assert_eq!(out.rtt_ns.len(), queries);
        assert_eq!(out.readback_bytes, count(&ops, 64).bytes_back);
        assert!(tenant.verify(&cl, &payloads));
        tenant.close(&cl).unwrap();
    }

    #[test]
    fn a_wrong_oracle_is_reported_as_a_failure() {
        let payloads = Payloads::generate(5);
        let cl = simcl::SimCl::new();
        let mut tenant = Tenant::open(&cl, &payloads).unwrap();
        tenant.holds = Source::Pool(3);
        let out = run(&cl, &mut tenant, &[Op::Readback], &payloads);
        assert_eq!(out.failed, 1);
        assert!(!tenant.verify(&cl, &payloads));
    }
}
