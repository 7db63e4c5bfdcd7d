//! Order statistics for the samples a run collects.
//!
//! Two conventions are used on purpose. The spread of a timing (first and
//! third quartile) follows Python's `statistics.quantiles(values, n=4)`,
//! because that is how the pipeline judges whether a metric is steady, and
//! the benchmark should see the number the pipeline will see. Latency
//! percentiles of spans (p50, p99) are nearest-rank, so that every reported
//! value is a duration that actually occurred.

use empower_telemetry::Json;

/// Sample count, extremes and quartiles of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (any order). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles_sorted(&v);
        Some(Summary { n: v.len(), min, q1, median, q3, max })
    }

    /// Distance between the quartiles as a share of the median — the
    /// spread the pipeline compares with a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::UInt(self.n as u64)),
            ("min", Json::Float(self.min)),
            ("q1", Json::Float(self.q1)),
            ("median", Json::Float(self.median)),
            ("q3", Json::Float(self.q3)),
            ("max", Json::Float(self.max)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Summary> {
        let f = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Summary {
            n: v.get("n")?.as_u64()? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

/// The three cut points of `statistics.quantiles(sorted, n=4)` (the
/// default "exclusive" method). A single sample is its own quartiles.
pub fn quartiles_sorted(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len < 2 {
        let x = sorted.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // `delta` may exceed 4 or go negative at the clamped ends, which is
        // how the exclusive method extrapolates; keep it signed.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile of `values` (any order), `p` in `(0, 100]`:
/// the smallest sample with at least `p` percent of the samples at or
/// below it. 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles_sorted(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_sorted(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 4.5));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
    }

    #[test]
    fn spread_is_the_interquartile_distance_over_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[7.0]).unwrap().spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 99.0), 5.0);
        assert_eq!(percentile(&[2.0], 1.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.5, 0.25, 1.0]).unwrap();
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
