//! What is fixed across every run: the stack configuration, the problem
//! sizes, and how long a run lasts.

use std::time::Instant;

use ava_core::{GuestConfig, StackConfig};
use ava_workloads::Scale;

/// Guest-library settings of the paper's "optimized specification":
/// adaptive batching of asynchronous calls, 16 per frame, flushed after
/// 200 µs at the latest.
fn guest_config() -> GuestConfig {
    GuestConfig {
        batch_max_calls: 16,
        batch_max_delay_us: 200,
        ..GuestConfig::default()
    }
}

/// The Rodinia workloads: shared-memory ring, paravirtual cost model, FIFO
/// router, a private device per VM, transfer cache off.
pub fn rodinia_stack_config() -> StackConfig {
    StackConfig {
        guest: guest_config(),
        ..StackConfig::default()
    }
}

/// `tenant_mix`: the same stack with the transfer cache on. Only the bulk
/// uploads are eligible: with the default 64-byte floor the stream of
/// unique 256-byte writes would evict the eight recurring payloads from
/// the 32-entry cache before they come round again.
pub fn tenant_stack_config() -> StackConfig {
    StackConfig {
        guest: GuestConfig {
            payload_cache_entries: 32,
            payload_cache_min_bytes: 4096,
            ..guest_config()
        },
        ..StackConfig::default()
    }
}

/// Problem sizes of a run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub scale: Scale,
    /// Operations each `tenant_mix` VM issues per round.
    pub tenant_ops: usize,
    /// Operations of the stream run on every Rodinia VM after its
    /// application.
    pub epilogue_ops: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        scale: Scale::Bench,
        tenant_ops: 10_000,
        epilogue_ops: 2_000,
    };

    /// `--smoke`: everything runs, nothing is worth timing.
    pub const SMOKE: Sizes = Sizes {
        scale: Scale::Test,
        tenant_ops: 500,
        epilogue_ops: 200,
    };
}

/// How long the timed part of a run lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// A fixed number of rounds: every counter repeats exactly.
    Rounds(usize),
    /// As many whole rounds as start within this many seconds (the
    /// driver's mode); per-round counts are unaffected.
    Seconds(f64),
}

impl Budget {
    /// Whether another round should start, `done` rounds after `started`.
    pub fn more(&self, done: usize, started: Instant) -> bool {
        match *self {
            Budget::Rounds(n) => done < n,
            Budget::Seconds(s) => done == 0 || started.elapsed().as_secs_f64() < s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_always_allow_one_round() {
        let long_ago = Instant::now() - std::time::Duration::from_secs(100);
        assert!(Budget::Seconds(1.0).more(0, long_ago));
        assert!(!Budget::Seconds(1.0).more(1, long_ago));
        assert!(Budget::Seconds(1000.0).more(5, long_ago));
        assert!(Budget::Rounds(3).more(2, long_ago));
        assert!(!Budget::Rounds(3).more(3, long_ago));
    }

    #[test]
    fn stack_configs_differ_only_in_the_transfer_cache() {
        let rodinia = rodinia_stack_config();
        let tenant = tenant_stack_config();
        assert_eq!(rodinia.guest.payload_cache_entries, 0);
        assert_eq!(tenant.guest.payload_cache_entries, 32);
        assert_eq!(rodinia.guest.batch_max_calls, 16);
        assert_eq!(rodinia.guest.batch_max, 0);
        let mut same = tenant;
        same.guest.payload_cache_entries = 0;
        same.guest.payload_cache_min_bytes = rodinia.guest.payload_cache_min_bytes;
        assert_eq!(same, rodinia);
    }
}
