//! Sample summaries: medians, percentiles that are only reported when
//! enough samples lie beyond them, and the metric record the benchmark
//! prints.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; fewer would make the tail a single outlier.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down by [`highest_tail`].
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Percentile `p` of `sorted` (ascending), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank(sorted.len(), p);
    (sorted.len() - 1 - i >= MIN_BEYOND).then(|| sorted[i])
}

/// The median of `sorted`, whatever the sample count (the mean of the two
/// middle samples when the count is even). `None` only when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The median of unsorted samples (0 when there are none).
pub fn median_of(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    median(&v).unwrap_or(0.0)
}

/// The highest of the tail percentiles that has enough samples beyond it,
/// as `(percentile, value)`.
pub fn highest_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Sorts a sample set in place for the functions above.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// One measured number, with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Median and highest reportable tail of a latency sample set, as the
/// metrics `<name>_p50` and `<name>_p<tail>`.
pub fn latency_metrics(name: &str, samples: &mut [f64], unit: &'static str) -> Vec<Metric> {
    sort(samples);
    let n = samples.len();
    let mut out = Vec::new();
    if let Some(m) = median(samples) {
        out.push(Metric::new(&format!("{name}_p50"), m, unit, n));
    }
    if let Some((p, v)) = highest_tail(samples) {
        let tag = format!("{p}").replace('.', "_");
        out.push(Metric::new(&format!("{name}_p{tag}"), v, unit, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990 (value 990), 10 samples beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: p99 is rank 990 of 999, only 9 beyond.
        assert_eq!(percentile(&ramp(999), 99.0), None);
    }

    #[test]
    fn p50_of_small_sets_is_withheld_but_median_is_not() {
        // 19 samples: p50 is the 10th, only 9 beyond it.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_tail_steps_down_with_sample_count() {
        assert_eq!(highest_tail(&ramp(20_000)).map(|t| t.0), Some(99.9));
        assert_eq!(highest_tail(&ramp(1_000)).map(|t| t.0), Some(99.0));
        assert_eq!(highest_tail(&ramp(300)).map(|t| t.0), Some(95.0));
        assert_eq!(highest_tail(&ramp(100)).map(|t| t.0), Some(90.0));
        assert_eq!(highest_tail(&ramp(50)), None);
    }

    #[test]
    fn latency_metrics_name_the_tail_they_report() {
        let mut s: Vec<f64> = ramp(1000).into_iter().rev().collect();
        let m = latency_metrics("lat_ms", &mut s, "ms");
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["lat_ms_p50", "lat_ms_p99"]);
        assert_eq!(m[0].value, 500.5);
        assert_eq!(m[1].samples, 1000);
    }
}
