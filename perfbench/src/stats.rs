//! Order statistics over raw samples. Every percentile the benchmark
//! reports comes from here, computed from individual measurements — never
//! from a bucketed histogram.

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (the "type 7" estimator). 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Percentiles the tail is reported at, highest first.
const TAIL_RUNGS: [f64; 2] = [0.99, 0.95];

/// The tail percentile the benchmark reports: the 99th percentile, or else
/// the 95th, when at least ten groups of `group` correlated samples lie
/// beyond it, otherwise the highest percentile that still has ten
/// groups beyond it. Returns the value and the quantile used. With
/// `group` = 1 this is the usual rule of ten samples beyond the reported
/// percentile.
///
/// The rungs are fixed so that the percentile does not slide with the
/// sample count: with a sliding one, a faster run serves more requests and
/// reports a higher percentile, so speed would read as a worse tail.
pub fn tail(samples: &[f64], group: usize) -> (f64, f64) {
    let n = samples.len();
    let beyond = 10 * group.max(1);
    if n <= beyond + 1 {
        return (quantile(samples, 1.0), 1.0);
    }
    let highest = (n - beyond - 1) as f64 / (n - 1) as f64;
    let q = TAIL_RUNGS
        .into_iter()
        .find(|&q| q <= highest)
        .unwrap_or(highest);
    (quantile(samples, q), q)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
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
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn the_tail_keeps_ten_groups_beyond_it() {
        let beyond = |xs: &[f64], v: f64| xs.iter().filter(|&&x| x > v).count();
        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&big, 1).1, 0.99);
        let small: Vec<f64> = (0..500).map(f64::from).collect();
        let (value, q) = tail(&small, 1);
        assert_eq!(q, 0.95);
        assert!(beyond(&small, value) >= 10);
        let (value, q) = tail(&big, 16);
        assert!(q < 0.95);
        assert_eq!(beyond(&big, value), 160);
        // The percentile stays put as a faster run serves more windows.
        let run = |n: u32| -> Vec<f64> { (0..n).map(f64::from).collect() };
        assert_eq!(tail(&run(4000), 16).1, 0.95);
        assert_eq!(tail(&run(6000), 16).1, 0.95);
    }
}
