//! Bad command lines are usage errors on every verb of `empower`: an
//! unknown flag, a missing or unparsable value, or a flag the verb does not
//! read exits 2 with a message that names the flag, before any work runs.

use std::process::Command;

/// Runs `empower args…` from the repo root; returns (exit code, stderr).
fn empower(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_empower"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("empower runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 8] = [
        (&["figure", "fig4_hybrid_cdf", "--runs", "x"], "--runs"),
        (&["figure", "fig6_vs_optimal", "--quik"], "--quik"),
        (&["figure", "fig6_vs_optimal", "--seed"], "--seed"),
        (&["figure", "fig6_vs_optimal", "--json", "--quick"], "--json"),
        (&["figure", "ablation_routing", "--jobs", "-1"], "--jobs"),
        (&["workload", "run", "examples/workload_iot_floor.toml", "--seed", "9"], "--seed"),
        (&["scenario", "run", "examples/fig12_drop.toml", "--seed", "9"], "--seed"),
        (&["topology", "residential", "--metrics", "m.json"], "--metrics"),
    ];
    for (args, flag) in cases {
        let (code, stderr) = empower(args);
        assert_eq!(code, Some(2), "empower {args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(flag), "empower {args:?} should name {flag}: {first}");
    }
}

#[test]
fn usage_lists_every_figure() {
    let (code, stderr) = empower(&["figure", "no_such_figure"]);
    assert_eq!(code, Some(2));
    let names = stderr.lines().find_map(|l| l.strip_prefix("figures: ")).expect("figure list");
    let names: Vec<&str> = names.split(' ').collect();
    let table: Vec<&str> = empower_bench::FIGURES.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, table);
}
