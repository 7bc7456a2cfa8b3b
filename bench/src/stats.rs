//! Order statistics.

/// Nearest-rank percentile: the smallest value with at least a share `p`
/// of the values at or below it (`p` in `(0, 1]`). `None` for no values.
#[must_use]
pub fn percentile<T: Copy + PartialOrd>(values: &[T], p: f64) -> Option<T> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&hundred, 0.50), Some(50));
        assert_eq!(percentile(&hundred, 0.99), Some(99));
        assert_eq!(percentile(&hundred, 1.0), Some(100));
        assert_eq!(percentile(&[7u64], 0.99), Some(7));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        assert_eq!(percentile(&[0.5, 3.0, 2.0, 1.0], 0.75), Some(2.0));
        // With 1,024 samples, ten samples lie beyond p99.
        let many: Vec<u64> = (0..1024).collect();
        let p99 = percentile(&many, 0.99).expect("non-empty");
        assert_eq!(many.iter().filter(|&&x| x > p99).count(), 10);
    }
}
