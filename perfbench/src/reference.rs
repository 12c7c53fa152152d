//! The host-speed reference: a fixed piece of work, written in the
//! benchmark and independent of the code under test, timed next to
//! every request so that request times can be read at one host speed.
//!
//! The shared host runs the same request up to 2× slower for seconds
//! to minutes at a time, and the share of time it spends slow drifts
//! between runs (see `perfbench/WORKLOADS.md`). Wall-time medians of
//! identical code then differ by more than any useful bound. The
//! slowdown is the host's, not the program's, so it also slows a
//! reference workload run in the same moment. Dividing each request's
//! time by the reference's time beside it cancels the host's speed and
//! keeps the program's: a change to the program moves the request time
//! and leaves the reference alone.
//!
//! The kernel was chosen by measurement among several (cache- and
//! memory-bound pointer chases, indirect-call dispatch, a small
//! interpreter, integer arithmetic, and this one): only an
//! allocation-heavy mix of ordered-map inserts, string formatting,
//! sorting and parsing slowed in the slow phases by the same factor as
//! the profiler's requests (1.6–2.0×, where the others slowed
//! 1.0–1.5×).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The time the kernel takes on the benchmark's reference host when it
/// runs fast (a 2-vCPU Intel Xeon KVM guest). Normalized times are
/// given in milliseconds at that speed.
pub const NOMINAL_MS: f64 = 0.4;

/// Entries the kernel inserts; it keeps the kernel near
/// [`NOMINAL_MS`] so that timing it costs little beside a request.
const ENTRIES: u64 = 1500;

/// The kernel: inserts formatted strings into an ordered map, sorts
/// them and parses a field back out of each. Returns a checksum so
/// that none of the work can be optimized away.
pub fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for _ in 0..ENTRIES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 5000, format!("{x:x}-{}", x % 97));
    }
    let mut values: Vec<String> = map.into_values().collect();
    values.sort_unstable();
    values
        .iter()
        .filter_map(|v| v.split_once('-')?.1.parse::<u64>().ok())
        .sum::<u64>()
        + values.len() as u64
}

/// Wall time of one run of the kernel, in ms.
pub fn time_ms() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// `wall_ms` read at the reference speed, given the kernel's time
/// measured beside it.
pub fn normalize(wall_ms: f64, reference_ms: f64) -> f64 {
    wall_ms * NOMINAL_MS / reference_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
        assert!(time_ms() > 0.0);
    }

    #[test]
    fn normalizing_cancels_the_host_speed() {
        // The same request on a host twice as slow reads the same.
        assert_eq!(normalize(20.0, 0.4), 20.0);
        assert_eq!(normalize(40.0, 0.8), 20.0);
        // A request twice as slow at the same host speed reads twice.
        assert_eq!(normalize(40.0, 0.4), 40.0);
    }
}
