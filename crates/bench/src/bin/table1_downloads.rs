#![forbid(unsafe_code)]
//! Table 1: download times for the Tiny / Short / Long / Conc experiments,
//! EMPoWER vs MP-w/o-CC.
//!
//! Paper's numbers (mean ± std, seconds):
//!
//! |                        | EMPoWER      | MP-w/o-CC     |
//! |------------------------|--------------|---------------|
//! | Tiny, F. 6-13 (100 kB) | 0.128 ± 0.03 | 0.159 ± 0.09  |
//! | Short, F. 6-13 (5 MB)  | 9.9 ± 2.1    | 13.3 ± 1.9    |
//! | Long, F. 6-13 (2 GB)   | 333.2 ± 27.7 | 534.5 ± 12.6  |
//! | Conc, F. 6-13 (2 GB)   | 416.8 ± 30.3 | 581.0 ± 61.4  |
//! | Conc, F. 12-8 (25 MB)  | 64.9 ± 6.5   | 155.2 ± 24.3  |
//!
//! Absolute values depend on the (simulated) link capacities; the shape to
//! reproduce is EMPoWER ≤ MP-w/o-CC on every row, with the gap widening
//! for long flows and under concurrency.
//!
//! `--jobs N` fans the `(scheme, repetition)` grid out over the
//! deterministic parallel runner; every repetition is independently seeded,
//! and results/counters merge in grid order, so the table, JSON dump and
//! manifest are byte-identical for any job count.

use empower_bench::sweep::fan_out;
use empower_bench::BenchArgs;
use empower_model::topology::testbed22;
use empower_model::{CarrierSense, InterferenceModel};
use empower_testbed::table1::{row_from_samples, run_repetition, Experiment, SCHEMES};

fn main() {
    let args = BenchArgs::parse();
    let t = testbed22(args.seed);
    let imap = CarrierSense::default().build_map(&t.net);
    let tele = args.telemetry();
    println!("== Table 1 — download times (mean ± std, seconds) ==");
    println!("{:<26}{:>18}{:>18}", "", "EMPoWER", "MP-w/o-CC");
    let mut rows = Vec::new();
    for exp in Experiment::ALL {
        let reps = args.runs.unwrap_or(if args.quick { 2 } else { exp.paper_repetitions() });
        // Work item i = (scheme i / reps, repetition i % reps): the same
        // scheme-major order the serial loop runs, so index-ordered merge
        // reproduces it exactly.
        let cells = fan_out(args.jobs, SCHEMES.len() * reps, &tele, |i, item_tele| {
            run_repetition(&t.net, &imap, exp, SCHEMES[i / reps], i % reps, args.seed, item_tele)
        });
        let mut samples = vec![(Vec::new(), Vec::new()); SCHEMES.len()];
        for (i, (main, conc)) in cells.into_iter().enumerate() {
            samples[i / reps].0.extend(main);
            samples[i / reps].1.extend(conc);
        }
        let row = row_from_samples(exp, &samples[0], &samples[1]);
        println!(
            "{:<26}{:>11.1} ± {:>4.1}{:>11.1} ± {:>4.1}",
            exp.label(),
            row.empower.mean_secs,
            row.empower.std_secs,
            row.mp_wo_cc.mean_secs,
            row.mp_wo_cc.std_secs
        );
        if let (Some(e), Some(w)) = (row.conc_flow_empower, row.conc_flow_wo_cc) {
            println!(
                "{:<26}{:>11.1} ± {:>4.1}{:>11.1} ± {:>4.1}",
                "Conc, F. 12-8 (25 MB)", e.mean_secs, e.std_secs, w.mean_secs, w.std_secs
            );
        }
        rows.push(row);
    }
    args.maybe_dump(&rows);
    let mut m = args.manifest("table1_downloads");
    m.set("experiments", rows.len() as u64);
    args.maybe_write_manifest(m, &tele);
}
