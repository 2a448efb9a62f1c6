//! Deterministic random-number generation for simulations.
//!
//! Every run is fully determined by a single `u64` seed. Sub-streams (per
//! process, per channel, per workload) are derived with SplitMix64 so that
//! adding a consumer does not perturb the draws seen by existing consumers —
//! essential for comparable parameter sweeps.

use crate::time::SimDuration;

/// SplitMix64 step, used to derive independent sub-seeds from a master seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a named sub-seed from a master seed. `tag` distinguishes streams
/// (e.g. per-process workload vs. channel jitter).
pub fn derive_seed(master: u64, tag: u64) -> u64 {
    let mut s = master ^ tag.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

/// A seeded RNG with distribution helpers used across the simulator.
///
/// Self-contained xoshiro256++ core (Blackman & Vigna), seeded by
/// SplitMix64 expansion of the `u64` seed — no external dependency, and
/// the stream for a given seed is stable across platforms and builds.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create from an explicit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        SimRng { s }
    }

    /// Create a derived sub-stream.
    pub fn derive(master: u64, tag: u64) -> Self {
        SimRng::new(derive_seed(master, tag))
    }

    /// Next raw 64-bit draw (xoshiro256++ step).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)`; `bound` must be non-zero.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire widening-multiply mapping with rejection for exact
        // uniformity.
        loop {
            let x = self.next_u64();
            let m = x as u128 * bound as u128;
            let lo = m as u64;
            // Fast path: a low part >= bound can never be biased.
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`; `bound` must be non-zero.
    pub fn next_usize_below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        self.next_u64_below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed duration with the given mean.
    ///
    /// Used for Poisson message inter-arrival times in the workloads.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        if mean.is_zero() {
            return SimDuration::ZERO;
        }
        // Inverse-CDF sampling; clamp u away from 0 to avoid ln(0).
        let u = self.next_f64().max(1e-12);
        // simlint: allow(libm, "pins Poisson workloads to this host's libm; ROADMAP item 4(c) replaces it with an exact sampler")
        mean.mul_f64(-u.ln())
    }

    /// Uniformly jittered duration in `[base - spread, base + spread]`,
    /// clamped at zero.
    pub fn jittered(&mut self, base: SimDuration, spread: SimDuration) -> SimDuration {
        if spread.is_zero() {
            return base;
        }
        let lo = base.as_nanos().saturating_sub(spread.as_nanos());
        let hi = base.as_nanos().saturating_add(spread.as_nanos());
        SimDuration::from_nanos(self.next_u64_inclusive(lo, hi))
    }

    /// Uniform duration in `[lo, hi]`.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "uniform_duration: lo > hi");
        SimDuration::from_nanos(self.next_u64_inclusive(lo.as_nanos(), hi.as_nanos()))
    }

    /// Uniform `u64` in `[lo, hi]` (both inclusive).
    fn next_u64_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let width = hi - lo;
        if width == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_u64_below(width + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_below(1000), b.next_u64_below(1000));
        }
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = SimRng::derive(42, 1);
        let mut b = SimRng::derive(42, 2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64_below(u64::MAX)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64_below(u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exp_duration_mean_is_plausible() {
        let mut r = SimRng::new(7);
        let mean = SimDuration::from_millis(10);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| r.exp_duration(mean).as_nanos()).sum();
        let avg = total / n;
        // Within 5% of the requested mean.
        let expect = mean.as_nanos();
        assert!((avg as f64 - expect as f64).abs() < 0.05 * expect as f64, "avg={avg}");
    }

    #[test]
    fn exp_duration_zero_mean() {
        let mut r = SimRng::new(7);
        assert_eq!(r.exp_duration(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn jittered_bounds() {
        let mut r = SimRng::new(9);
        let base = SimDuration::from_micros(100);
        let spread = SimDuration::from_micros(20);
        for _ in 0..1000 {
            let d = r.jittered(base, spread);
            assert!(d >= SimDuration::from_micros(80) && d <= SimDuration::from_micros(120));
        }
        assert_eq!(r.jittered(base, SimDuration::ZERO), base);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0 + 1e-9));
    }
}
