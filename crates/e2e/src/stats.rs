//! Order statistics for the reported numbers: medians with quartiles (the
//! same quartile rule as Python's `statistics.quantiles(v, n=4)`, which is
//! what the benchmark driver uses for its spread test) and the tail
//! percentile rule of the metrics guide.

/// The reported value of one metric with the median, quartiles, minimum
/// and count of the samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// What the metric reports: the median of the samples, unless the
    /// caller has a better estimate of what they sample.
    pub value: f64,
    /// The value again from two disjoint halves of the samples, where
    /// that means something (else the value twice).
    pub halves: [f64; 2],
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// A value that is not taken from samples (a count, a ratio of medians).
    pub fn single(v: f64) -> Self {
        Summary {
            value: v,
            halves: [v, v],
            median: v,
            q1: v,
            q3: v,
            min: v,
            n: 1,
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Quartiles by the exclusive method (`statistics.quantiles(v, n=4)`),
/// except that two samples are not extrapolated beyond themselves.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return Summary::single(v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[m - 1])
    };
    Summary {
        value: cut(2),
        halves: [cut(2), cut(2)],
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        min: v[0],
        n: m,
    }
}

/// Nearest-rank percentile (a whole number of percent) of an ascending
/// slice.
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    let rank = (p * sorted.len()).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile at most p99 that still has ten samples beyond
/// it, with its value; falls back to the median for small samples.
pub fn tail(sorted: &[f64]) -> (usize, f64) {
    let p = [99, 95, 90, 75]
        .into_iter()
        .find(|p| sorted.len() - (p * sorted.len()).div_ceil(100) >= 10)
        .unwrap_or(50);
    (p, percentile(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.min, s.n), (1.0, 2.0, 3.0, 1.0, 3));
        assert_eq!(s.value, 2.0);
        // Python extrapolates two samples to [0.75, 1.5, 2.25]; a time
        // below the fastest sample is not a measurement.
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99, 989.0));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 89.0));
        let v: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 5.0));
    }
}
