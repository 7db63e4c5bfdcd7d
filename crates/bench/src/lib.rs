#![forbid(unsafe_code)]
//! # empower-bench
//!
//! The experiment harness of the reproduction: one binary per table/figure
//! of the paper's evaluation (see DESIGN.md §4 for the index). Performance
//! is measured elsewhere: the repo's benchmark lives in `benchmark/`.
//!
//! Every binary prints a human-readable table mirroring what the paper
//! reports and, with `--json <path>`, additionally dumps the raw data for
//! EXPERIMENTS.md. Binaries accept `--runs N` (sweep size) and `--quick`
//! (a small smoke-test configuration) so the full reproduction and a fast
//! sanity pass share the same code.

use empower_telemetry::{Manifest, Telemetry, ToJson};

/// Common CLI options for experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Sweep size (seeds / pairs / repetitions), when applicable.
    pub runs: Option<usize>,
    /// Shrink everything for a fast smoke run.
    pub quick: bool,
    /// Where to dump raw JSON results.
    pub json: Option<String>,
    /// Where to write the run manifest (seed, scheme, params, counters).
    pub metrics: Option<String>,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for the deterministic parallel sweep runner
    /// (`empower_exec::run_indexed`); 1 = serial.
    pub jobs: usize,
}

impl BenchArgs {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        let mut args =
            BenchArgs { runs: None, quick: false, json: None, metrics: None, seed: 1, jobs: 1 };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--runs" => {
                    args.runs = Some(
                        it.next().and_then(|v| v.parse().ok()).expect("--runs needs an integer"),
                    )
                }
                "--quick" => args.quick = true,
                "--json" => args.json = Some(it.next().expect("--json needs a path")),
                "--metrics" => args.metrics = Some(it.next().expect("--metrics needs a path")),
                "--seed" => {
                    args.seed =
                        it.next().and_then(|v| v.parse().ok()).expect("--seed needs an integer")
                }
                "--jobs" => {
                    args.jobs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--jobs needs a positive integer")
                }
                other => panic!(
                    "unknown argument {other} \
                     (try --runs N | --quick | --json F | --metrics F | --seed S | --jobs J)"
                ),
            }
        }
        args
    }

    /// Picks the sweep size: explicit `--runs` wins, then quick/full
    /// defaults.
    pub fn sweep(&self, full: usize, quick: usize) -> usize {
        self.runs.unwrap_or(if self.quick { quick } else { full })
    }

    /// A telemetry registry: live when `--metrics` was given (the manifest
    /// wants counters), disabled otherwise so the hot paths pay one branch.
    pub fn telemetry(&self) -> Telemetry {
        if self.metrics.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// Starts a run manifest pre-filled with the common provenance fields.
    pub fn manifest(&self, experiment: &str) -> Manifest {
        let mut m = Manifest::new(experiment);
        m.set("seed", self.seed)
            .set("quick", self.quick)
            .set("runs_flag", self.runs.map(|r| r as u64));
        m
    }

    /// Writes the manifest (with `telemetry`'s counters attached) if
    /// `--metrics` was given.
    pub fn maybe_write_manifest(&self, mut manifest: Manifest, telemetry: &Telemetry) {
        if let Some(path) = &self.metrics {
            manifest.attach_counters(telemetry);
            manifest.write(path).expect("write metrics manifest");
            eprintln!("(run manifest written to {path})");
        }
    }

    /// Writes `data` as JSON if `--json` was given.
    pub fn maybe_dump<T: ToJson>(&self, data: &T) {
        if let Some(path) = &self.json {
            let s = data.to_json().to_string_pretty();
            std::fs::write(path, s).expect("write json results");
            eprintln!("(raw results written to {path})");
        }
    }
}

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
        assert!((fraction(&v, |x| x >= 2.0) - 2.0 / 3.0).abs() < 1e-12);
    }
}
pub mod sweep;
