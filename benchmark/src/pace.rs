//! The machine's pace: a fixed compute kernel that shares no code with
//! the repository, timed between the system's calls.
//!
//! On a shared host the same program runs up to 1.6x slower or faster
//! for stretches of seconds to minutes, as other tenants come and go.
//! Over 1-second windows of the `solve` workload, job time followed this
//! kernel's time with a correlation of 0.80 to 0.96 in five 40-second
//! runs (a dependent pointer chase over 4 or 16 MiB followed it with 0.23
//! to 0.95, a single dependent multiply chain with 0.42 to 0.77). The
//! timed metrics are reported at the reference pace: each slice's times
//! are divided by the slice's slowdown, its median kernel time over
//! [`REFERENCE_MS`]. A change to the repository moves the metrics; the
//! host's pace moves them far less.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's median time on the 2-vCPU Xeon host the notes were
/// written on, in a quiet stretch; the metrics are scaled to this pace.
pub const REFERENCE_MS: f64 = 0.33;
/// Timed-phase time between two probes. A probe takes about 0.35 ms, so
/// probing costs under 2% of the run and gives each 2-second slice some
/// eighty samples.
pub const EVERY: Duration = Duration::from_millis(20);
/// Kernel iterations per probe.
const ROUNDS: u64 = 100_000;

/// Four interleaved multiply, rotate and add chains with a data-dependent
/// branch: integer throughput and branch prediction, little memory.
fn kernel(n: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..n {
        a = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        b = b.rotate_left(7).wrapping_add(a);
        c = c.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (b >> 3);
        d = d.wrapping_add(c).rotate_right(11);
        if (a ^ d) & 15 == 7 {
            b ^= c;
        }
    }
    a ^ b ^ c ^ d
}

/// Time one run of the kernel, in ms.
pub fn probe() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(ROUNDS)));
    t.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference the machine runs, from probe times
/// (ms): 1 at the reference pace, 1.3 when the kernel takes 30% longer.
pub fn slowdown(probes_ms: &[f64]) -> f64 {
    crate::trace::median(probes_ms) / REFERENCE_MS
}

/// The slowdown right now, from the median of a few probes.
pub fn slowdown_now() -> f64 {
    let probes: Vec<f64> = (0..5).map(|_| probe()).collect();
    slowdown(&probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_its_time_positive() {
        assert_eq!(kernel(1000), kernel(1000));
        assert_ne!(kernel(1000), kernel(1001));
        assert!(probe() > 0.0);
        assert!((slowdown(&[REFERENCE_MS * 2.0]) - 2.0).abs() < 1e-12);
    }
}
