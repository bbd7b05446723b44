//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, core count, and the toolchain/commit identifiers
//! recorded in the `result.json` header.

use std::process::Command;

/// CPU time (user + system) consumed so far by every thread of this
/// process, live or exited, in nanoseconds.
///
/// `/proc/self/stat` reports the same sum but in 10 ms ticks, which is
/// coarser than a whole native `tenant_mix` round; the POSIX clock is
/// nanosecond-precise.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI, which the cfg above selects), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    compile_error!("avabench measures process CPU time through the 64-bit Linux clock_gettime ABI");
}

/// Restricts the calling thread — and every thread it creates from now on
/// — to the lowest-numbered CPU of its current affinity mask, and returns
/// that CPU. Call before anything spawns a thread.
///
/// Why the benchmark runs on one CPU: the stack hands every forwarded call
/// from thread to thread (guest → router → server and back). On the
/// two-core reference machine a wake-up that crosses CPUs costs ~20 µs
/// against ~1 µs on the same CPU, and where the scheduler happens to place
/// the router and server threads flips a synchronous round trip between
/// 27 µs and 240 µs, and a Rodinia group's wall time by 10 %, for minutes
/// at a time (a compiler run is enough to flip it). With one CPU every
/// hand-off is a context switch, the layers' CPU work adds up in wall
/// time, and run-to-run spread stays within a few percent.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a readable buffer of exactly the size passed; the
    // call only changes the scheduling of the calling thread.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPUs this process may run on (1 once [`pin_to_one_cpu`] succeeded).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The checked-out commit; `"unknown"` outside a git repository (the
/// driver's checkout is not one).
pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu_for_this_thread_and_its_children() {
        // Pin a scratch thread, not the test harness's.
        let (cpu, seen_here, seen_by_child) = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("affinity calls work on Linux");
            let child = std::thread::spawn(nproc).join().unwrap();
            (cpu, nproc(), child)
        })
        .join()
        .unwrap();
        assert!(cpu < 1024);
        assert_eq!((seen_here, seen_by_child), (1, 1));
    }

    #[test]
    fn rss_peak_is_positive() {
        assert!(rss_peak_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
