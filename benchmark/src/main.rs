//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --seed S [--workload W] [--seconds N] [--sets K] [--smoke] [--out FILE]
//! benchmark run --workload W --seed S --seconds N --trace 0|1      # one pass, one process
//! benchmark compare A.json B.json
//! benchmark inputs --workload W --seed S [--smoke]                 # print the generated inputs
//! ```
//!
//! With `--trace` the process runs one pass of one workload and prints the
//! pipeline's result object as the last line of its output. Without it the
//! process is the conductor: it runs each workload's timed pass and then
//! its traced pass in a child process of its own (so peak memory is per
//! workload), prints every metric by name and writes one result file.

mod alloc;
mod gen;
mod harness;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: benchmark run [--seed S] [--workload W] [--seconds N] [--sets K] [--smoke] [--out FILE]
       benchmark run --workload W --seed S --seconds N --trace 0|1 [--smoke] [--detail FILE]
       benchmark compare A.json B.json
       benchmark inputs --workload W --seed S [--smoke]";

/// Parsed `run` options.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub workload: Option<String>,
    /// Seconds one pass measures for; `None` = the default for the size.
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub sets: u32,
    pub out: Option<String>,
    pub detail: Option<String>,
}

impl RunArgs {
    pub fn size(&self) -> gen::Size {
        if self.smoke {
            gen::Size::Smoke
        } else {
            gen::Size::Full
        }
    }

    /// Seconds one pass measures for: `--seconds`, or the default for the
    /// size (the `run_seconds` of `BENCHMARK.json` at full size).
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(match self.size() {
            gen::Size::Full => 10.0,
            gen::Size::Smoke => 0.3,
        })
    }
}

fn parse_run(argv: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        seed: 1,
        workload: None,
        seconds: None,
        trace: None,
        smoke: false,
        sets: 1,
        out: None,
        detail: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--workload" => {
                let v = value()?;
                if !metrics::is_workload(v) {
                    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
                    return Err(format!("unknown workload {v:?} (one of {})", names.join(", ")));
                }
                a.workload = Some(v.clone());
            }
            "--seconds" => {
                let v = value()?;
                let secs: f64 = v.parse().map_err(|_| bad(v))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(bad(v));
                }
                a.seconds = Some(secs);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--sets" => {
                let v = value()?;
                a.sets = v.parse().ok().filter(|n| (1..=16).contains(n)).ok_or_else(|| bad(v))?;
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value()?.clone()),
            "--detail" => a.detail = Some(value()?.clone()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err("--trace runs one pass of one workload: name it with --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| match a.trace {
            Some(traced) => report::run_pass(&a, traced),
            None => report::conduct(&a),
        }),
        Some((cmd, rest)) if cmd == "inputs" => {
            parse_run(rest).and_then(|a| report::print_inputs(&a))
        }
        Some((cmd, [a, b])) if cmd == "compare" => report::compare_files(a, b),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
