//! Order statistics used for every reported timing.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints match
//! the ones computed over its results afterwards. The tail is the highest
//! whole percentile that still has at least [`TAIL_BEYOND`] samples beyond
//! it, and is always printed with that percentile and the sample count.

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method, which extrapolates past the data for tiny samples).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (n - delta) as f64 + hi * delta as f64) / n as f64
    };
    (cut(1), cut(3))
}

/// A tail statistic: the value at `percentile` over `samples` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The whole percentile reported.
    pub percentile: u32,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The highest whole percentile `p` with at least [`TAIL_BEYOND`] samples
/// strictly above its nearest-rank position, and the value there. With
/// fewer than `2 · TAIL_BEYOND` samples no percentile at or above the median
/// qualifies; the [`median`] is reported then (as percentile 50), so a
/// short run never pretends to a tail it did not observe.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            percentile: 50,
            value: 0.0,
            samples: 0,
        };
    }
    // Nearest rank of percentile p is ceil(p·n/100); the samples beyond it
    // are n − rank. Search downward for the highest qualifying p.
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1);
    match (50..=99).rev().find(|&p| n - rank(p) >= TAIL_BEYOND) {
        Some(percentile) => Tail {
            percentile,
            value: v[rank(percentile) - 1],
            samples: n,
        },
        None => Tail {
            percentile: 50,
            value: median(&v),
            samples: n,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past the data for tiny samples.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: p90 has rank 90, ten beyond it; p91 only nine.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.samples), (90, 90.0, 100));
        // 1000 samples: p99 (rank 990) has ten beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 99);
        // 20 samples: only the median leaves ten beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value), (50, 10.0));
        // 40 samples: rank(p) = ceil(0.4 p) ≤ 30 gives p = 75.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 75);
    }

    #[test]
    fn short_samples_fall_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50, 3.0, 3));
        assert_eq!(tail(&[1.0, 2.0]).value, 1.5);
        assert_eq!(tail(&[]).samples, 0);
    }
}
