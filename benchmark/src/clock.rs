//! The CPU's clock speed, sampled with a fixed calibration loop, and the
//! scaling that brings a measured time to the reference clock.
//!
//! The reference VM's core runs at two speeds 28 % apart (a shared host
//! grants and withdraws turbo): a pure-ALU loop takes 1.47 or 1.88 ns per
//! iteration, nothing in between, and the core stays at one speed for
//! anything from a second to ten minutes. Every CPU-bound time flips with
//! it — whole runs of the same code land 25 % apart, `cpu_s` as much as
//! `wall_s` — and no longer run or sturdier statistic removes a state that
//! outlasts the run. So the harness samples the speed right before and
//! right after everything it times, and reports the time the work would
//! have taken at the reference clock: `measured × REFERENCE / sampled`.
//! At the reference clock (the slower, sustained speed, where the core is
//! most of the time) the factor is 1 and the value is the measured one.

use std::time::Instant;

/// Nanoseconds one iteration of [`calibration_loop`] takes at the reference
/// clock: the reference box's sustained speed.
pub const REFERENCE_NS_PER_ITERATION: f64 = 1.88;

const ITERATIONS: u64 = 1_000_000;
/// A sample is the fastest of this many loops, so a loop that was
/// preempted or took an interrupt does not read as a slow clock.
const REPEATS: usize = 3;

/// A chain of dependent multiply-shift-xor steps: its time is a fixed
/// number of core cycles, whatever the caches or a sibling thread do.
fn calibration_loop() -> u64 {
    let mut x = std::hint::black_box(1u64);
    for _ in 0..ITERATIONS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 13;
    }
    std::hint::black_box(x)
}

/// The clock speed now, as nanoseconds per calibration iteration (about
/// 6 ms of spinning).
fn sample_ns_per_iteration() -> f64 {
    (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            calibration_loop();
            start.elapsed().as_secs_f64() * 1e9 / ITERATIONS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A sample slower than this is no clock speed: the loop was held up for
/// longer than [`REPEATS`] could dodge, and the reading is cut off here so
/// that it cannot scale a time down to something never measured.
const SLOWEST_CLOCK: f64 = 1.5 * REFERENCE_NS_PER_ITERATION;

/// The factor that brings a time measured between the two samples to the
/// reference clock. A speed change in between is split down the middle.
fn to_reference(before: f64, after: f64) -> f64 {
    let sampled = (before.min(SLOWEST_CLOCK) + after.min(SLOWEST_CLOCK)) / 2.0;
    REFERENCE_NS_PER_ITERATION / sampled
}

/// Runs `work` between two clock samples and returns what it returned with
/// the factor that brings its times to the reference clock.
pub fn at_reference<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = sample_ns_per_iteration();
    let result = work();
    (result, to_reference(before, sample_ns_per_iteration()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_a_plausible_clock() {
        let ns = sample_ns_per_iteration();
        // six dependent cycles per iteration: 0.6 ns at 10 GHz, 60 at 100 MHz
        assert!((0.6..60.0).contains(&ns), "{ns} ns per iteration");
    }

    #[test]
    fn scaling_is_one_at_the_reference_and_proportional_off_it() {
        let r = REFERENCE_NS_PER_ITERATION;
        assert_eq!(to_reference(r, r), 1.0);
        // a clock twice as fast halves the measured time, so it is doubled
        assert!((to_reference(r / 2.0, r / 2.0) - 2.0).abs() < 1e-12);
        // a change mid-way counts half
        assert!((to_reference(r, r / 2.0) - 4.0 / 3.0).abs() < 1e-12);
        // a held-up sample is cut off, not believed
        assert_eq!(
            to_reference(100.0 * r, 100.0 * r),
            to_reference(1.5 * r, 1.5 * r)
        );
    }
}
