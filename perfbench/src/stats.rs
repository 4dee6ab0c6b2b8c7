//! Order statistics for the reported timings.

/// Linear-interpolation percentile (`p` in 0..=100) of `samples`;
/// `NaN` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A timing reported as its median and one fixed upper percentile.
pub struct Timing {
    pub p50: f64,
    pub tail: f64,
    pub tail_percentile: f64,
    pub samples: usize,
}

impl Timing {
    /// `tail_percentile` is fixed per workload and metric (so runs of
    /// different lengths report the same statistic); `beyond` records how
    /// many samples lie above it, which should be at least ten.
    pub fn new(samples: &[f64], tail_percentile: f64) -> Timing {
        Timing {
            p50: median(samples),
            tail: percentile(samples, tail_percentile),
            tail_percentile,
            samples: samples.len(),
        }
    }

    pub fn beyond(&self) -> f64 {
        self.samples as f64 * (1.0 - self.tail_percentile / 100.0)
    }
}
