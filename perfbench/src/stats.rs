//! Order statistics over timed samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 · (n − beyond) / n`.
    pub percentile: f64,
    /// Samples strictly beyond it in rank order (10, or fewer when the run
    /// has fewer than 11 samples and the maximum is reported).
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Tail latency: with `n ≥ 11` samples, the sample with exactly ten ranks
/// above it; with fewer, the maximum. `None` for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let last = n.checked_sub(1)?;
    let idx = n.checked_sub(11).unwrap_or(last);
    let beyond = last - idx;
    Some(Tail {
        value: v[idx],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        beyond,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 75.0);
        // Too few samples for ten beyond: the maximum, with what is beyond it.
        let t = tail(&[2.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!((t.value, t.beyond, t.samples), (3.0, 0, 3));
        assert_eq!(tail(&[]), None);
    }
}
