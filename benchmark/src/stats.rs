//! Small numeric helpers: order statistics over a handful of repetitions
//! and the digest that pins simulated statistics byte for byte.

/// Median, minimum and maximum of a set of repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Number of values.
    pub k: usize,
}

/// Order statistics of `values`; `None` when empty or any value is NaN.
pub fn spread(values: &[f64]) -> Option<Spread> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len();
    let median = if k % 2 == 1 { v[k / 2] } else { (v[k / 2 - 1] + v[k / 2]) / 2.0 };
    Some(Spread { median, min: v[0], max: v[k - 1], k })
}

/// Median of `values` (0 when empty — callers only pass measured sets).
pub fn median(values: &[f64]) -> f64 {
    spread(values).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile `q ∈ [0, 1]` of `values`; `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Relative distance of `b` from `a` (`|b − a| / |a|`; 0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a).abs() / a.abs()
    }
}

/// FNV-1a 64 over `bytes`, continuing from `state` — the `sim_digest`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// FNV-1a offset basis (the digest of no bytes).
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_sets() {
        let s = spread(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.median, s.min, s.max, s.k), (2.0, 1.0, 3.0, 3));
        let s = spread(&[4.0, 1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((s.median, s.min, s.max, s.k), (2.5, 1.0, 4.0, 4));
        let s = spread(&[7.5]).expect("non-empty");
        assert_eq!((s.median, s.min, s.max, s.k), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn empty_and_nan_sets_have_no_spread() {
        assert_eq!(spread(&[]), None);
        assert_eq!(spread(&[1.0, f64::NAN]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.5), Some(20.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn rel_diff_is_relative_to_the_first_argument() {
        assert_eq!(rel_diff(10.0, 11.0), 0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }

    #[test]
    fn digest_depends_on_every_byte_and_chains() {
        let whole = fnv1a(FNV_OFFSET, b"abcdef");
        let chained = fnv1a(fnv1a(FNV_OFFSET, b"abc"), b"def");
        assert_eq!(whole, chained);
        assert_ne!(whole, fnv1a(FNV_OFFSET, b"abcdeg"));
        // Reference vector for FNV-1a 64.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
