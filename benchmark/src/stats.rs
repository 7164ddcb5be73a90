//! Order statistics for the results files: medians, quartiles and the
//! latency-percentile rule.

use crate::json::Value;

/// Samples a tail percentile needs *beyond* it before it is reported
/// as a tail estimate (the choosing-metrics rule).
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, so `compare` and the driver agree on what a spread is. With
/// fewer than two samples there is no spread: both are the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    if v.len() < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The smallest of `values` — for a timing, the measurement the shared
/// host disturbed least.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether percentile `p` of `n` samples leaves at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it.
pub fn percentile_is_supported(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= MIN_SAMPLES_BEYOND
}

/// One reported metric: the value the run stands by, the spread of the
/// per-pass samples behind it, and how many samples there were.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The reported value. For timings this is the best of the run's
    /// passes (see `benchmark/README.md`), not the median.
    pub value: f64,
    /// Median of the samples.
    pub median: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Summary {
    /// Reports `value`, with the median and quartiles of `samples`.
    pub fn of(value: f64, samples: &[f64], unit: &'static str) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            value,
            median: median(samples),
            q1,
            q3,
            n: samples.len(),
            unit,
        }
    }

    /// Reports the smallest sample.
    pub fn lowest(samples: &[f64], unit: &'static str) -> Summary {
        Summary::of(lowest(samples), samples, unit)
    }

    /// A value with no spread of its own (an exact count, a ratio of
    /// two medians).
    pub fn exact(value: f64, n: usize, unit: &'static str) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n,
            unit,
        }
    }

    /// The `{value, median, q1, q3, n, unit}` object of the results file.
    pub fn to_json(&self) -> Value {
        let mut o = Value::object();
        o.set("value", self.value);
        o.set("median", self.median);
        o.set("q1", self.q1);
        o.set("q3", self.q3);
        o.set("n", self.n);
        o.set("unit", self.unit);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
