//! Sample statistics: nearest-rank percentiles with the "at least ten
//! samples beyond" rule, and the Jain fairness index.

/// Samples a reported tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `samples`: the value at
/// 1-based rank `ceil(q·n)` of the sorted sample. `None` when empty.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The epsilon keeps q·n that is integral in exact arithmetic (0.8·50)
    // from rounding up a rank through binary representation error.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// A tail percentile as reported: the percentile actually used and its
/// value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile used (≤ the one asked for).
    pub q: f64,
    pub value: f64,
}

/// The percentile `q`, lowered to the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples ranked above it. With too few samples
/// for any tail above the median, the median is reported.
pub fn tail(samples: &[f64], q: f64) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Highest rank with TAIL_BEYOND samples above it is n - TAIL_BEYOND;
    // nearest rank ceil(q·n) ≤ n - TAIL_BEYOND  ⇔  q ≤ (n - TAIL_BEYOND)/n.
    let supported = n.saturating_sub(TAIL_BEYOND) as f64 / n as f64;
    let q = q.min(supported).max(0.5);
    nearest_rank(samples, q).map(|value| Tail { q, value })
}

/// Jain fairness index `(Σx)² / (k·Σx²)`: 1 when every share is equal,
/// `1/k` when one of `k` takes everything. `None` for an empty or all-zero
/// sample.
pub fn jain(xs: &[f64]) -> Option<f64> {
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || s2 == 0.0 {
        return None;
    }
    Some(s * s / (xs.len() as f64 * s2))
}

/// Arithmetic mean (`None` when empty).
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_ceil_rank() {
        let xs = ramp(10);
        assert_eq!(nearest_rank(&xs, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&xs, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.01), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // n = 100: p90 is rank 90 with exactly 10 above — allowed as is.
        let t = tail(&ramp(100), 0.9).unwrap();
        assert_eq!((t.q, t.value), (0.9, 90.0));
        // n = 1000: plenty of samples, p90 unchanged.
        assert_eq!(tail(&ramp(1000), 0.9).unwrap().value, 900.0);
        // n = 50: p90 would leave 5 above; lowered to p80 (rank 40, 10 above).
        let t = tail(&ramp(50), 0.9).unwrap();
        assert_eq!((t.q, t.value), (0.8, 40.0));
        for n in [20, 25, 50, 99, 100, 101, 333] {
            let t = tail(&ramp(n), 0.9).unwrap();
            let above = (1..=n).filter(|&v| v as f64 > t.value).count();
            assert!(above >= TAIL_BEYOND, "n={n}: only {above} beyond");
        }
        // Too few samples for any tail: the median stands in.
        let t = tail(&ramp(12), 0.9).unwrap();
        assert_eq!((t.q, t.value), (0.5, 6.0));
        assert_eq!(tail(&[], 0.9), None);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain(&[2.0, 2.0, 2.0, 2.0]), Some(1.0));
        assert_eq!(jain(&[1.0, 0.0, 0.0, 0.0]), Some(0.25));
        let j = jain(&[1.0, 2.0, 3.0]).unwrap();
        assert!((j - 36.0 / 42.0).abs() < 1e-15);
        assert_eq!(jain(&[]), None);
        assert_eq!(jain(&[0.0, 0.0]), None);
    }
}
