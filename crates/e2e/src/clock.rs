//! Times at a reference core clock.
//!
//! The host this benchmark is gated on moves its core clock between turbo
//! bins in phases that last seconds: a register-only dependence chain runs
//! at 1.81, 2.12, 2.18, 2.24 or 2.31 ns per step depending on the phase,
//! and every wall-clock figure of identical code moves with it (up to 27 %;
//! see README.md, "Noise"). Wall time alone therefore cannot gate a change.
//!
//! So the harness times that chain right beside everything it measures and
//! scales each wall time by `reference chain time / measured chain time`.
//! The chain is shift, xor, multiply, add, each waiting for the one before:
//! [`CHAIN_CYCLES_PER_STEP`] core cycles per step, touching no memory, so
//! it disturbs no cache and its time is the core's cycle time and nothing
//! else. The reference is [`REF_GHZ`], the clock this host runs at most of
//! the time. On a core where a step takes another number of cycles every
//! reported time is off by one constant factor, which cancels in any
//! comparison made on one host.
//!
//! What the scaling cannot remove is time that does not tick with the core
//! clock (cache misses served by memory): that part stays as noisy as it is.

use std::hint::black_box;
use std::time::Instant;

pub const REF_GHZ: f64 = 2.6;
pub const CHAIN_CYCLES_PER_STEP: f64 = 6.0;
/// Steps per timed chain: about 8 us, long against the 25 ns of a clock
/// read and short against a timer interrupt's period.
const STEPS: u32 = 3500;
/// A calibration is the fastest of this many chains, so one interrupt
/// cannot spoil it.
const CHAINS: usize = 3;
/// A calibration older than this is taken again before it is used.
const FRESH_NS: u128 = 500_000;

#[inline(never)]
fn chain(steps: u32) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..u64::from(steps) {
        x = (x ^ (x >> 30))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
    }
    x
}

/// Measured chain time over reference chain time, now: above 1 when the
/// core is clocked below the reference.
fn calibrate() -> f64 {
    let reference_ns = f64::from(STEPS) * CHAIN_CYCLES_PER_STEP / REF_GHZ;
    let fastest_ns = (0..CHAINS)
        .map(|_| {
            let t = Instant::now();
            black_box(chain(black_box(STEPS)));
            t.elapsed().as_nanos()
        })
        .min()
        .expect("CHAINS > 0");
    fastest_ns as f64 / reference_ns
}

/// A stopwatch that reports durations at the reference clock. It
/// calibrates before and after every timed call (unless it did so within
/// the last half millisecond) and divides the call's wall time by the mean
/// of the two ratios; callers time work in pieces of a few milliseconds,
/// short against a clock phase.
pub struct RefClock {
    ratio: f64,
    taken: Instant,
    /// Wall and reference time of everything timed so far.
    wall_ns: f64,
    ref_ns: f64,
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RefClock {
    pub fn new() -> Self {
        RefClock {
            ratio: calibrate(),
            taken: Instant::now(),
            wall_ns: 0.0,
            ref_ns: 0.0,
        }
    }

    fn fresh_ratio(&mut self) -> f64 {
        if self.taken.elapsed().as_nanos() > FRESH_NS {
            self.ratio = calibrate();
            self.taken = Instant::now();
        }
        self.ratio
    }

    /// Run `f`; returns its result and its duration in reference ns.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.fresh_ratio();
        let t = Instant::now();
        let r = f();
        let wall_ns = t.elapsed().as_nanos() as f64;
        // A call much shorter than a clock phase keeps the ratio it began
        // with, so a stream of tiny calls is not drowned in calibrations.
        let after = self.fresh_ratio();
        let ref_ns = wall_ns / ((before + after) / 2.0);
        self.wall_ns += wall_ns;
        self.ref_ns += ref_ns;
        (r, ref_ns)
    }

    /// Reference ns of everything timed so far.
    pub fn total_ref_ns(&self) -> f64 {
        self.ref_ns
    }

    /// Wall time over reference time of everything timed so far: the
    /// clock ratio the work actually saw.
    pub fn mean_ratio(&self) -> f64 {
        if self.ref_ns > 0.0 {
            self.wall_ns / self.ref_ns
        } else {
            self.ratio
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_tracks_wall_time_within_the_turbo_range() {
        let mut clock = RefClock::new();
        let ((), ref_ns) = clock.time(|| {
            black_box(chain(black_box(2_000_000)));
        });
        // The chain itself, timed at the reference clock, takes what the
        // reference says it takes (loosely: the test host may be busy).
        let expect = 2_000_000.0 * CHAIN_CYCLES_PER_STEP / REF_GHZ;
        assert!(
            (ref_ns / expect - 1.0).abs() < 0.2,
            "{ref_ns} vs {expect} reference ns"
        );
        assert_eq!(clock.total_ref_ns(), ref_ns);
        assert!(clock.mean_ratio() > 0.3 && clock.mean_ratio() < 3.0);
    }
}
