//! Order statistics over latency samples.

/// Median of `v` (mean of the middle two when even); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of ascending `sorted` (non-empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the quantile-`q` rank: how many observations
/// a reported percentile rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
