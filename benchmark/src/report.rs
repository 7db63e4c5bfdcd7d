//! Running passes, printing and storing what they measured, and comparing
//! two stored results.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use empower_telemetry::Json;

use crate::harness::{self, Bench, PassResult};
use crate::metrics::{self, Better};
use crate::spans;
use crate::stats::Summary;
use crate::workloads;
use crate::RunArgs;

/// `benchmark/out/`, where trace files and the default result file go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// One pass in this process
// ---------------------------------------------------------------------

fn pass_json(a: &RunArgs, name: &str, traced: bool, seconds: f64, pass: &PassResult) -> Json {
    let readings = pass.readings.iter().map(|(name, r)| {
        let mut o = vec![
            ("value".to_string(), Json::Float(r.value)),
            ("unit".to_string(), Json::Str(r.unit.to_string())),
        ];
        if let Some(s) = r.spread {
            o.push(("spread".to_string(), s.to_json()));
        }
        (name.to_string(), Json::Obj(o))
    });
    Json::obj([
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::UInt(a.seed)),
        ("traced", Json::Bool(traced)),
        ("smoke", Json::Bool(a.smoke)),
        ("seconds", Json::Float(seconds)),
        ("correct", Json::Bool(pass.correct())),
        ("attempted", Json::UInt(pass.attempted)),
        ("failed", Json::UInt(pass.failed)),
        ("digest", Json::Str(format!("{:016x}", pass.digest))),
        ("iterations", Json::UInt(pass.iterations as u64)),
        ("setup_reps", Json::UInt(pass.setup_reps as u64)),
        ("check_failures", Json::arr(pass.check_failures.iter().map(|c| Json::Str(c.clone())))),
        ("metrics", Json::Obj(readings.collect())),
    ])
}

/// The line the pipeline reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every end-to-end name (timed pass) or
/// every per-layer name (traced pass). A per-layer metric the workload
/// does not exercise reads 0.
fn pipeline_line(traced: bool, pass: &PassResult) -> String {
    let names: Vec<(&str, &str)> = if traced {
        metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = names.into_iter().map(|(name, unit)| {
        let value = pass.readings.get(name).map_or(0.0, |r| r.value);
        (name, Json::obj([("value", Json::Float(value)), ("unit", Json::Str(unit.into()))]))
    });
    Json::obj([
        ("correct", Json::Bool(pass.correct())),
        ("attempted", Json::UInt(pass.attempted.max(1))),
        ("failed", Json::UInt(pass.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

fn print_pass(name: &str, traced: bool, pass: &PassResult) {
    println!(
        "{name} ({} pass): {} iterations, {} set-up repetitions, {} operations, {} failed, digest {:016x}",
        if traced { "traced" } else { "timed" },
        pass.iterations,
        pass.setup_reps,
        pass.attempted,
        pass.failed,
        pass.digest
    );
    for (metric, r) in &pass.readings {
        match r.spread {
            Some(s) => println!(
                "  {metric:<32} {:>14.6} {:<7} n={} min {:.6} q1 {:.6} q3 {:.6} max {:.6}",
                r.value, r.unit, s.n, s.min, s.q1, s.q3, s.max
            ),
            None => println!("  {metric:<32} {:>14.6} {}", r.value, r.unit),
        }
    }
    for op in pass.failed_ops.iter().take(8) {
        println!("  FAILED OPERATION: {op}");
    }
    for c in &pass.check_failures {
        println!("  CHECK FAILED: {c}");
    }
}

/// The workload `--workload` names, its inputs generated from `--seed`.
fn named_workload(a: &RunArgs) -> Result<(&str, Box<dyn Bench>), String> {
    let name = a.workload.as_deref().ok_or("name one workload with --workload")?;
    let bench = workloads::build(name, a.seed, a.size());
    Ok((name, bench.ok_or_else(|| format!("no workload {name}"))?))
}

/// `benchmark inputs`: what the seed generates, as the program receives it.
pub fn print_inputs(a: &RunArgs) -> Result<bool, String> {
    print!("{}", named_workload(a)?.1.inputs());
    Ok(true)
}

/// Runs one pass of one workload in this process.
pub fn run_pass(a: &RunArgs, traced: bool) -> Result<bool, String> {
    let (name, bench) = named_workload(a)?;
    let seconds = a.seconds();
    let pass = if traced {
        harness::traced_pass(bench.as_ref(), seconds)
    } else {
        harness::timed_pass(bench.as_ref(), seconds)
    };
    print_pass(name, traced, &pass);
    if traced {
        let path = out_dir().join(format!("trace-{name}.json"));
        let text = spans::trace_text(name, a.seed, &pass.spans);
        // The trace file is a by-product; failing to write it must not
        // lose the measurements.
        if let Err(e) = write_file(&path, &text) {
            eprintln!("{e}");
        }
    }
    if let Some(detail) = &a.detail {
        let doc = pass_json(a, name, traced, seconds, &pass);
        write_file(Path::new(detail), &doc.to_string_pretty())?;
    }
    println!("{}", pipeline_line(traced, &pass));
    Ok(pass.correct())
}

// ---------------------------------------------------------------------
// The conductor: every workload, each pass in a child process
// ---------------------------------------------------------------------

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers come from: commit, compiler, profile, cores, CPU.
fn env_json(a: &RunArgs, seconds: f64) -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = command_output("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]);
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    let unknown = || "unknown".to_string();
    Json::obj([
        ("commit", Json::Str(commit.unwrap_or_else(unknown))),
        ("rustc", Json::Str(command_output("rustc", &["-V"]).unwrap_or_else(unknown))),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        (
            "available_parallelism",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", Json::Str(cpu.unwrap_or_else(unknown))),
        ("seed", Json::UInt(a.seed)),
        ("seconds_per_pass", Json::Float(seconds)),
        ("smoke", Json::Bool(a.smoke)),
        ("sets", Json::UInt(a.sets.into())),
    ])
}

/// Runs one pass in a child process and returns its detail document.
fn child_pass(a: &RunArgs, name: &str, traced: bool, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let detail =
        out_dir().join(format!(".detail-{}-{name}-{}.json", std::process::id(), u8::from(traced)));
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail);
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives the conductor.
    let out =
        cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Everything but the pipeline's line is for people.
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop();
    for l in lines {
        println!("{l}");
    }
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("{name}: the pass left no result ({e}; exit {})", out.status))?;
    let _ = std::fs::remove_file(&detail);
    Json::parse(&text).map_err(|e| format!("{name}: unreadable result: {e:?}"))
}

/// `run` without `--trace`: every selected workload, timed pass then
/// traced pass, `--sets` times over; one result file.
pub fn conduct(a: &RunArgs) -> Result<bool, String> {
    let seconds = a.seconds();
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => metrics::WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let mut sets = Vec::new();
    let mut ok = true;
    for set in 0..a.sets {
        if a.sets > 1 {
            println!("== set {} of {} ==", set + 1, a.sets);
        }
        let mut per_workload = Vec::new();
        for name in &names {
            let timed = child_pass(a, name, false, seconds)?;
            let traced = child_pass(a, name, true, seconds)?;
            for pass in [&timed, &traced] {
                ok &= pass.get("correct").and_then(Json::as_bool).unwrap_or(false);
            }
            let agree = timed.get("digest") == traced.get("digest");
            if !agree {
                println!(
                    "  CHECK FAILED: {name}: timed and traced passes rendered different bytes"
                );
                ok = false;
            }
            per_workload
                .push((name.to_string(), Json::obj([("timed", timed), ("traced", traced)])));
        }
        sets.push(Json::Obj(per_workload));
    }
    for later in sets.iter().skip(1) {
        println!("== agreement of the sets ==");
        ok &= compare_sets(&sets[0], later, true);
    }
    let doc = Json::obj([
        ("env", env_json(a, seconds)),
        ("definitions", Json::obj(metrics::definitions())),
        ("sets", Json::Arr(sets)),
    ]);
    let path = a.out.as_ref().map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    write_file(&path, &doc.to_string_pretty())?;
    println!("result written to {}", path.display());
    Ok(ok)
}

// ---------------------------------------------------------------------
// Comparing two results
// ---------------------------------------------------------------------

/// Smallest absolute worsening that counts, by end-to-end metric: below
/// these a relative bound only measures the clock.
fn abs_floor(metric: &str) -> f64 {
    match metric {
        metrics::WALL_S => 0.005,
        metrics::SETUP_S => 0.001,
        metrics::PEAK_RSS_MB => 2.0,
        _ => 0.0,
    }
}

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// The spread of one side exceeds the bound, and the sides overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and, for a timing, the
/// spread of its samples.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: Option<Summary>,
}

/// Judges `b` against `a` under a relative bound with an absolute floor.
pub fn judge(a: Side, b: Side, better: Better, bound: f64, floor: f64) -> Verdict {
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (b.value - a.value);
    let allowed = (bound * a.value.abs()).max(floor);
    let noisy = [a, b].iter().any(|s| s.spread.is_some_and(|sp| sp.spread() > bound));
    if noisy {
        // Unresolved, unless every sample of one side beats every sample
        // of the other.
        if let (Some(sa), Some(sb)) = (a.spread, b.spread) {
            let (a_worst, a_best, b_worst, b_best) = if better == Better::Lower {
                (sa.max, sa.min, sb.max, sb.min)
            } else {
                (-sa.min, -sa.max, -sb.min, -sb.max)
            };
            if b_worst < a_best {
                return Verdict::Improved;
            }
            if b_best > a_worst && worse_by > allowed {
                return Verdict::Regressed;
            }
        }
        return Verdict::Unresolved;
    }
    if worse_by > allowed {
        Verdict::Regressed
    } else if -worse_by > allowed {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn side(pass: &Json, metric: &str) -> Option<Side> {
    let m = pass.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Summary::from_json),
    })
}

/// Prints one row per workload × end-to-end metric (plus fidelity, digest
/// and operation counts) and returns whether `b` holds up against `a`.
/// With `same_commit` the two are runs of one commit and must *agree*:
/// timings within the bound either way, everything simulated bit-equal.
fn compare_sets(a: &Json, b: &Json, same_commit: bool) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let Json::Obj(workloads) = a else { return false };
    for (name, wa) in workloads {
        let Some(wb) = b.get(name) else {
            println!("{name:<18} missing from b");
            ok = false;
            continue;
        };
        let (Some(ta), Some(tb)) = (wa.get("timed"), wb.get("timed")) else { continue };
        for m in metrics::END_TO_END {
            let (Some(sa), Some(sb)) = (side(ta, m.name), side(tb, m.name)) else { continue };
            let (label, fine) = if same_commit {
                // Two sets of one commit must agree: a timing within the
                // bound either way, a simulated value bit for bit.
                let simulated = sa.spread.is_none() && m.name != metrics::PEAK_RSS_MB;
                let allowed = (m.bound * sa.value.abs()).max(abs_floor(m.name));
                let agree = if simulated {
                    sa.value.to_bits() == sb.value.to_bits()
                } else {
                    (sb.value - sa.value).abs() <= allowed
                };
                (if agree { "agree" } else { "DISAGREE" }, agree)
            } else {
                let v = judge(sa, sb, m.better, m.bound, abs_floor(m.name));
                (v.label(), v != Verdict::Regressed)
            };
            ok &= fine;
            println!(
                "{name:<18} {:<22} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {label}",
                m.name,
                sa.value,
                sb.value,
                100.0 * (sb.value - sa.value) / sa.value.abs().max(f64::MIN_POSITIVE),
                100.0 * m.bound,
            );
        }
        let (tra, trb) = (wa.get("traced"), wb.get("traced"));
        if let (Some(fa), Some(fb)) = (
            tra.and_then(|p| side(p, metrics::FIDELITY_ERR)),
            trb.and_then(|p| side(p, metrics::FIDELITY_ERR)),
        ) {
            let worse = fb.value - fa.value > metrics::FIDELITY_ABS_BOUND
                || (same_commit && fa.value.to_bits() != fb.value.to_bits());
            ok &= !worse;
            println!(
                "{name:<18} {:<22} {:>14.6} {:>14.6} {:>+9.4} {:>7.2}  {}",
                "fidelity_err",
                fa.value,
                fb.value,
                fb.value - fa.value,
                metrics::FIDELITY_ABS_BOUND,
                if worse { "REGRESSED" } else { "ok" }
            );
        }
        // Operation totals follow the clock (more iterations, more
        // operations), so only failures and the digest are compared.
        let text = |p: &Json, k: &str| p.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let (da, db) = (text(ta, "digest"), text(tb, "digest"));
        ok &= da == db || !same_commit;
        println!(
            "{name:<18} {:<22} {da:>16} {db:>16}  {}",
            "digest",
            if da == db { "same" } else { "differs" }
        );
        let failed = |p: &Json| p.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let more_fail = failed(tb) > failed(ta);
        ok &= !more_fail;
        println!(
            "{name:<18} {:<22} {:>16} {:>16}  {}",
            "failed_operations",
            failed(ta),
            failed(tb),
            if more_fail { "REGRESSED" } else { "ok" }
        );
    }
    ok
}

/// `benchmark compare A.json B.json`: B against A, first set of each.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<(Json, Option<u64>), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
        let seed = doc.get("env").and_then(|e| e.get("seed")).and_then(Json::as_u64);
        match doc.get("sets") {
            Some(Json::Arr(sets)) if !sets.is_empty() => Ok((sets[0].clone(), seed)),
            _ => Err(format!("{path}: no sets in this result file")),
        }
    };
    let ((sa, seed_a), (sb, seed_b)) = (load(a)?, load(b)?);
    if seed_a != seed_b {
        println!(
            "note: the results were generated from different seeds ({seed_a:?}, {seed_b:?}); \
             simulated metrics and digests are only comparable on one seed"
        );
    }
    Ok(compare_sets(&sa, &sb, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(v: f64) -> Side {
        Side { value: v, spread: None }
    }

    fn timing(samples: &[f64]) -> Side {
        let s = Summary::of(samples).unwrap();
        Side { value: s.median, spread: Some(s) }
    }

    #[test]
    fn steady_timings_are_judged_by_the_bound_and_the_floor() {
        let a = timing(&[1.00, 1.01, 1.02]);
        assert_eq!(judge(a, timing(&[1.05, 1.06, 1.07]), Better::Lower, 0.10, 0.0), Verdict::Ok);
        assert_eq!(
            judge(a, timing(&[1.20, 1.21, 1.22]), Better::Lower, 0.10, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(a, timing(&[0.80, 0.81, 0.82]), Better::Lower, 0.10, 0.0),
            Verdict::Improved
        );
        // 30 % worse but under the absolute floor: only the clock moved.
        let tiny = timing(&[0.0010, 0.0010, 0.0010]);
        assert_eq!(
            judge(tiny, timing(&[0.0013, 0.0013, 0.0013]), Better::Lower, 0.10, 0.005),
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_separate() {
        let noisy = timing(&[1.0, 1.2, 1.4, 1.6, 1.8]);
        assert_eq!(
            judge(noisy, timing(&[1.3, 1.5, 1.7]), Better::Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(noisy, timing(&[0.5, 0.6, 0.7]), Better::Lower, 0.10, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            judge(noisy, timing(&[2.5, 2.6, 2.7]), Better::Lower, 0.10, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        assert_eq!(judge(exact(100.0), exact(80.0), Better::Higher, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(judge(exact(100.0), exact(120.0), Better::Higher, 0.10, 0.0), Verdict::Improved);
        assert_eq!(judge(exact(100.0), exact(95.0), Better::Higher, 0.10, 0.0), Verdict::Ok);
    }

    #[test]
    fn the_pipeline_line_has_exactly_the_contract_keys_and_every_name() {
        let mut pass = PassResult { attempted: 7, ..PassResult::default() };
        pass.readings
            .insert(metrics::WALL_S, harness::Reading { value: 1.5, unit: "s", spread: None });
        for traced in [false, true] {
            let doc = Json::parse(&pipeline_line(traced, &pass)).unwrap();
            let Json::Obj(pairs) = &doc else { panic!("object") };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(m)) = doc.get("metrics") else { panic!("metrics") };
            let want = if traced { metrics::PER_LAYER.len() } else { metrics::END_TO_END.len() };
            assert_eq!(m.len(), want);
        }
    }
}
