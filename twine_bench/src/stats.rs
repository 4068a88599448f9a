//! Order statistics over repetitions and latency samples.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1): the
/// smallest sample with at least `p` of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What a metric reports: the median over its samples (repetitions, or
/// calls for a direct layer timing), with the spread beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile.
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// Distance between the first and third quartile.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            median: median_sorted(&v),
            min: v[0],
            max: v[v.len() - 1],
            q1: quartile(&v, 0.25),
            q3: quartile(&v, 0.75),
            samples: v.len(),
        }
    }

    /// The same sample in another unit (`k` per old unit).
    pub fn scaled(self, k: f64) -> Self {
        Self {
            median: self.median * k,
            min: self.min * k,
            max: self.max * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            samples: self.samples,
        }
    }

    /// A value that is not a median over samples (a count, a ratio of two
    /// counts): spread is zero by construction.
    pub fn exact(value: f64, samples: usize) -> Self {
        Self {
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            samples,
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Linearly interpolated quantile (the "inclusive" method).
fn quartile(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was counted (a layer the workload never
/// enters reports 0, not NaN, so every metric stays a finite number).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u64], 0.99), 7);
        // 1000 samples leave exactly ten beyond p99.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), 990);
    }

    #[test]
    fn summary_median_min_max_iqr() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.samples), (3.0, 1.0, 5.0, 5));
        assert_eq!((s.q1, s.q3, s.iqr()), (2.0, 4.0, 2.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.iqr(), 1.5);
        let s = Summary::of(&[9.0]);
        assert_eq!((s.median, s.iqr()), (9.0, 0.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
