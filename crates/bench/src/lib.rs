#![forbid(unsafe_code)]
//! # empower-bench
//!
//! Every table and figure of the paper's evaluation as a library value
//! (DESIGN.md §4 has the index). A figure is a function
//! `(&Opts, &Telemetry) -> rows` whose rows implement [`Figure`]: they
//! print the paper's table, serialize as the raw data (`--json`) and add
//! their keys to the run manifest. `empower figure <name>` runs one of
//! [`FIGURES`]; `tests/paper_claims.rs` asserts on their values.

use empower_telemetry::{Manifest, Telemetry, ToJson};

pub mod ablation;
pub mod fluid;
pub mod scenarios;
pub mod sweep;
pub mod testbed;

/// The options every figure reads.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Sweep size (seeds / pairs / repetitions), when applicable.
    pub runs: Option<usize>,
    /// Shrink everything for a fast smoke run.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for the deterministic parallel sweep runner
    /// ([`sweep::fan_out`]); 1 = serial.
    pub jobs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts { runs: None, quick: false, seed: 1, jobs: 1 }
    }
}

impl Opts {
    /// `quick` in a quick run, `full` otherwise.
    pub fn full_or_quick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The sweep size: `runs` when given, else the full or quick default.
    pub fn sweep(&self, full: usize, quick: usize) -> usize {
        self.runs.unwrap_or(self.full_or_quick(full, quick))
    }
}

/// A computed figure: its rows serialize as the raw results (`--json`).
pub trait Figure: ToJson {
    /// Prints the table that mirrors the paper's figure and adds the
    /// figure's own keys to its run manifest.
    fn render(&self, opts: &Opts, manifest: &mut Manifest);
}

/// Computes a figure's rows, or says why it could not.
pub type Compute = fn(&Opts, &Telemetry) -> Result<Box<dyn Figure>, String>;

/// Every figure, table and ablation by name (the run manifest's
/// `"experiment"`), with the function that computes it.
pub const FIGURES: [(&str, Compute); 17] = [
    ("fig4_hybrid_cdf", |o, t| Ok(Box::new(fluid::fig4(o, t)))),
    ("fig5_worst_flows", |o, t| Ok(Box::new(fluid::fig5(o, t)))),
    ("fig6_vs_optimal", |o, t| Ok(Box::new(fluid::fig6(o, t)))),
    ("fig7_utility", |o, t| Ok(Box::new(fluid::fig7(o, t)))),
    ("convergence_table", |o, t| Ok(Box::new(fluid::convergence(o, t)))),
    ("fig9_example", |o, t| Ok(Box::new(empower_testbed::fig9::run_traced(o.seed, t)))),
    ("fig10_testbed_cdf", |o, t| Ok(Box::new(testbed::fig10(o, t)))),
    ("fig11_flow_bars", |o, t| Ok(Box::new(testbed::fig11(o, t)))),
    ("table1_downloads", |o, t| Ok(Box::new(testbed::table1(o, t)))),
    ("fig12_tcp_timeseries", |o, t| Ok(Box::new(testbed::fig12(o, t)))),
    ("fig13_tcp_bars", |o, t| Ok(Box::new(testbed::fig13(o, t)))),
    ("fig12_dynamic", |o, t| Ok(Box::new(scenarios::fig12_dynamic(o, t)))),
    ("fig_workload", |o, t| Ok(Box::new(scenarios::workload(o, t)?))),
    ("ablation_routing", |o, t| Ok(Box::new(ablation::routing(o, t)))),
    ("ablation_delta", |o, t| Ok(Box::new(ablation::delta(o, t)))),
    ("ablation_delay_eq", |o, t| Ok(Box::new(ablation::delay_eq(o, t)))),
    ("ablation_fairness", |o, t| Ok(Box::new(ablation::fairness(o, t)))),
];

/// `p`-th percentile (0–100) of unsorted values; 0 on empty input.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// Mean of values; 0 on empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Mean of `values[lo..hi]`, with the range clamped to the slice; 0 when
/// it is empty.
pub fn mean_over(values: &[f64], lo: usize, hi: usize) -> f64 {
    let hi = hi.min(values.len());
    mean(&values[lo.min(hi)..hi])
}

/// Fraction of values for which `pred` holds.
pub fn fraction(values: &[f64], pred: impl Fn(f64) -> bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| pred(v)).count() as f64 / values.len() as f64
}

/// Prints a compact CDF summary line: min / p10 / median / p90 / max.
pub fn cdf_line(label: &str, values: &[f64]) {
    println!(
        "{label:<24} n={:<5} min={:>8.2}  p10={:>8.2}  p50={:>8.2}  p90={:>8.2}  max={:>8.2}  mean={:>8.2}",
        values.len(),
        percentile(values, 0.0),
        percentile(values, 10.0),
        percentile(values, 50.0),
        percentile(values, 90.0),
        percentile(values, 100.0),
        mean(values),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_brackets() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn mean_and_fraction() {
        let v = vec![1.0, 2.0, 3.0];
        assert!((mean(&v) - 2.0).abs() < 1e-12);
        assert!((mean_over(&v, 1, 9) - 2.5).abs() < 1e-12);
        assert_eq!(mean_over(&v, 5, 9), 0.0);
        assert!((fraction(&v, |x| x >= 2.0) - 2.0 / 3.0).abs() < 1e-12);
    }
}
