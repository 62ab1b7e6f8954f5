//! Order statistics the benchmark reports.

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `samples`: the
/// smallest sample with at least `q × n` samples at or below it — the
/// definition `streamgrid_core::source::nearest_rank` uses for cycles,
/// here over `f64` timings. `None` on no samples.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples strictly above the nearest-rank `q` position: `n − rank`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Fewest samples a reported tail percentile must have beyond it: a
/// p99 over 100 samples is one sample, not a tail.
pub const MIN_BEYOND: usize = 10;

/// [`nearest_rank`] only when at least [`MIN_BEYOND`] samples lie
/// beyond the percentile; `None` when the sample is too small to
/// support it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    nearest_rank(samples, q)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// Arithmetic mean; `None` on no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_core_definition() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.50), Some(50.0));
        assert_eq!(nearest_rank(&samples, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&samples, 1.00), Some(100.0));
        assert_eq!(nearest_rank(&samples, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Order of the input does not matter.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&reversed, 0.99), Some(99.0));
        // Agrees with the integer implementation in core.
        let ints: Vec<u64> = (1..=37).map(|i| i * 7 % 37).collect();
        let floats: Vec<f64> = ints.iter().map(|&i| i as f64).collect();
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            assert_eq!(
                nearest_rank(&floats, q),
                Some(streamgrid_core::source::nearest_rank(&ints, q) as f64)
            );
        }
    }

    #[test]
    fn tail_requires_ten_samples_beyond() {
        // 1000 samples: rank 990 for p99, ten beyond — reportable.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail(&thousand, 0.99), Some(990.0));
        // 999 samples: rank 990, nine beyond — not a tail.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail(&thousand[..999], 0.99), None);
        // The median of 20 has ten beyond it; of 19 only nine.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty, 0.5), Some(10.0));
        assert_eq!(tail(&twenty[..19], 0.5), None);
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
