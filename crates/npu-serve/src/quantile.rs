//! The one quantile rule every report uses.
//!
//! A quantile is the **ceil nearest-rank** order statistic:
//! `Q(q) = sorted[clamp(ceil(q·n), 1, n) − 1]`, which is the smallest
//! sample `x` whose empirical CDF `F(x) ≥ q`. Unlike interpolating or
//! `round((n−1)·q)` rules, it always returns an observed sample, and a
//! quantile of merged samples lies between the per-part quantiles (the
//! merged CDF is a weighted mean of the part CDFs) — which is what lets a
//! fleet p99 be read against its regions' p99s.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` (ascending) under the ceil
/// nearest-rank rule; `None` for an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_small_and_hundred_sample_ranks() {
        let one = [7u64];
        let two = [3u64, 9];
        let hundred: Vec<u64> = (1..=100).collect();
        for (q, want_one, want_two, want_hundred) in [
            (0.0, 7, 3, 1),
            (0.5, 7, 3, 50),
            (0.99, 7, 9, 99),
            (1.0, 7, 9, 100),
        ] {
            assert_eq!(nearest_rank(&one, q), Some(want_one), "n=1 q={q}");
            assert_eq!(nearest_rank(&two, q), Some(want_two), "n=2 q={q}");
            assert_eq!(nearest_rank(&hundred, q), Some(want_hundred), "n=100 q={q}");
        }
    }

    #[test]
    fn empty_input_has_no_quantile() {
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }
}
