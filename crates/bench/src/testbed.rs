//! §6's figures and Table 1 on the simulated 22-node testbed. The runners
//! live in `empower-testbed`; this module sizes them and renders their
//! rows. The paper's numbers for each are in EXPERIMENTS.md.

use empower_model::topology::testbed22;
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, Network};
use empower_telemetry::{Manifest, Telemetry};
use empower_testbed::fig10::{Fig10Config, Fig10Row, SIM_SCHEMES};
use empower_testbed::fig11::{Fig11Config, Fig11Row};
use empower_testbed::fig12::{Fig12Data, PHASE_SECS, TCP_DELTA};
use empower_testbed::fig13::{Fig13Config, Fig13Row};
use empower_testbed::fig9::{Fig9Data, DURATION};
use empower_testbed::table1::{
    row_from_samples, run_repetition, DurationStats, Experiment, Table1Row, SCHEMES,
};

use crate::sweep::{fan_out, run_fig13_parallel};
use crate::{cdf_line, fraction, mean_over, Figure, Opts};

/// `xs[i]`, or 0 past the end of the series.
fn at(xs: &[f64], i: usize) -> f64 {
    xs.get(i).copied().unwrap_or(0.0)
}

/// The simulated 22-node testbed for `seed`, with its carrier-sense map.
pub fn network(seed: u64) -> (Network, InterferenceMap) {
    let t = testbed22(seed);
    let imap = CarrierSense::default().build_map(&t.net);
    (t.net, imap)
}

/// Fig. 9, the §6.2 worked example: the rates on both routes of Flow 1-13
/// and its received throughput while Flow 4-7 switches on and off.
impl Figure for Fig9Data {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Fig. 9 — Flow 1-13 over two routes, contending Flow 4-7 ==");
        println!("best single-path capacity: {:.1} Mbps", self.best_single_path);
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "t[s]", "route1", "route2", "sent", "received", "flow4-7"
        );
        let step = opts.full_or_quick(100, 250);
        for t in (0..self.total_sent.len()).step_by(step) {
            println!(
                "{:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                t,
                at(&self.route1_rate, t),
                at(&self.route2_rate, t),
                at(&self.total_sent, t),
                at(&self.received, t),
                at(&self.flow47_received, t),
            );
        }
        // The three phases, summarized.
        println!("\nphase means (received, Mbps):");
        println!("  alone   (600–1900 s): {:.1}", mean_over(&self.received, 600, 1900));
        println!("  contend (2200–3900 s): {:.1}", mean_over(&self.received, 2200, 3900));
        println!("  alone   (4200–5000 s): {:.1}", mean_over(&self.received, 4200, 5000));
        println!(
            "  route-1 rate while contending: {:.2} (WiFi vacated for Flow 4-7)",
            mean_over(&self.route1_rate, 2200, 3900)
        );
        m.set("duration_s", DURATION);
    }
}

fn fig10_config(opts: &Opts) -> Fig10Config {
    Fig10Config {
        pairs: opts.sweep(50, 6),
        duration: opts.full_or_quick(300.0, 120.0),
        seed: opts.seed,
        ..Default::default()
    }
}

/// Fig. 10: over random station pairs, the CDF of `T_X / T_EMPoWER` for
/// the other schemes and the brute-force single paths (left), and
/// EMPoWER's throughput after 10–20 s and 190–200 s as a fraction of its
/// final value (right).
pub fn fig10(opts: &Opts, tele: &Telemetry) -> Vec<Fig10Row> {
    let (net, imap) = network(opts.seed);
    empower_testbed::fig10::run_traced(&net, &imap, &fig10_config(opts), tele)
}

impl Figure for Vec<Fig10Row> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Fig. 10 — {} random pairs on the 22-node testbed ==", self.len());
        // Left: ratios vs EMPoWER, over the pairs EMPoWER connects.
        let connected = || self.iter().filter(|r| r.empower_final > 1e-9);
        let ratio = |f: &dyn Fn(&Fig10Row) -> f64| -> Vec<f64> {
            connected().map(|r| f(r) / r.empower_final).collect()
        };
        for (si, scheme) in SIM_SCHEMES.iter().enumerate().skip(1) {
            cdf_line(scheme.label(), &ratio(&|r| r.throughput[si]));
        }
        let vs_spbf = ratio(&|r| r.sp_bf);
        cdf_line("SP-bf", &vs_spbf);
        cdf_line("SP-WiFi-bf", &ratio(&|r| r.sp_wifi_bf));

        let vs_mwifi = ratio(&|r| r.throughput[3]);
        println!(
            "\nEMPoWER beats MP-mWiFi in {:.0}% of pairs (max EMPoWER gain {:.1}x, max mWiFi gain {:.1}x)",
            100.0 * fraction(&vs_mwifi, |x| x < 1.0),
            vs_mwifi.iter().cloned().filter(|&x| x > 0.0).fold(f64::INFINITY, f64::min).recip(),
            vs_mwifi.iter().cloned().fold(0.0, f64::max),
        );
        println!(
            "EMPoWER beats brute-force SP in {:.0}% of pairs",
            100.0 * fraction(&vs_spbf, |x| x < 1.0)
        );
        let multi = self.iter().filter(|r| r.empower_routes >= 2).count();
        println!("EMPoWER used ≥2 routes for {multi}/{} pairs", self.len());

        // Right: convergence snapshot. The late window exists only when
        // the runs lasted 200 s.
        let early = ratio(&|r| r.empower_10_20);
        let late: Option<Vec<f64>> =
            connected().map(|r| r.empower_190_200.map(|x| x / r.empower_final)).collect();
        println!("\nconvergence (fraction of final throughput):");
        cdf_line("after 10-20 s", &early);
        if let Some(late) = late {
            cdf_line("after 190-200 s", &late);
        }
        println!(
            "within 80% of final after 10 s: {:.0}% of pairs",
            100.0 * fraction(&early, |x| x >= 0.8)
        );
        m.set("pairs", self.len() as u64).set("duration_s", fig10_config(opts).duration);
    }
}

/// Simulated seconds per run of Figs. 11 and 13.
fn duration(opts: &Opts) -> f64 {
    opts.full_or_quick(300.0, 150.0)
}

/// The first `--runs` (default 3) of `flows` in quick mode, all of them
/// otherwise.
fn flow_subset<'a>(opts: &Opts, flows: &'a [(u32, u32)]) -> &'a [(u32, u32)] {
    &flows[..opts.full_or_quick(flows.len(), opts.runs.unwrap_or(3).min(flows.len()))]
}

/// Fig. 11: mean ± std of the converged throughput (last 100 s, one sample
/// per second) for ten selected flows under EMPoWER, MP-mWiFi and SP.
pub fn fig11(opts: &Opts, tele: &Telemetry) -> Vec<Fig11Row> {
    let (net, imap) = network(opts.seed);
    let config = Fig11Config { duration: duration(opts), seed: opts.seed, ..Default::default() };
    let flows = flow_subset(opts, &empower_testbed::fig11::FLOWS);
    empower_testbed::fig11::run_flows_traced(&net, &imap, &config, flows, tele)
}

impl Figure for Vec<Fig11Row> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Fig. 11 — converged throughput, mean ± std (Mbps) ==");
        print!("{:<8}", "flow");
        for s in empower_testbed::fig11::SCHEMES {
            print!("{:>22}", s.label());
        }
        println!();
        for row in self {
            print!("{:<8}", format!("{}-{}", row.src, row.dst));
            for c in &row.cells {
                print!("{:>15.1} ± {:>4.1}", c.mean_mbps, c.std_mbps);
            }
            println!();
        }
        // Variance claim: "in general, multipath does not cause variations
        // larger than single-path" — compare per-flow stds.
        let emp_std: f64 = self.iter().map(|r| r.cells[0].std_mbps).sum();
        let sp_std: f64 = self.iter().map(|r| r.cells[2].std_mbps).sum();
        let wins = self.iter().filter(|r| r.cells[0].mean_mbps >= r.cells[2].mean_mbps).count();
        println!(
            "\nEMPoWER ≥ SP on {wins}/{} flows; total std — EMPoWER {:.1} vs SP {:.1} \
             (comparable: multipath reordering adds no systematic variance)",
            self.len(),
            emp_std,
            sp_std
        );
        m.set("flows", self.len() as u64).set("duration_s", duration(opts));
    }
}

/// Table 1: download times for the Tiny / Short / Long / Conc experiments,
/// EMPoWER vs MP-w/o-CC. The `(scheme, repetition)` grid fans out over
/// `jobs` workers; every repetition is seeded on its own and results merge
/// in grid order, so rows and counters are the same for any job count.
pub fn table1(opts: &Opts, tele: &Telemetry) -> Vec<Table1Row> {
    let (net, imap) = network(opts.seed);
    Vec::from(Experiment::ALL.map(|exp| {
        let reps = opts.sweep(exp.paper_repetitions(), 2);
        // Work item i = (scheme i / reps, repetition i % reps): the same
        // scheme-major order the serial loop runs, so index-ordered merge
        // reproduces it exactly.
        let cells = fan_out(opts.jobs, SCHEMES.len() * reps, tele, |i, item_tele| {
            run_repetition(&net, &imap, exp, SCHEMES[i / reps], i % reps, opts.seed, item_tele)
        });
        let mut samples = vec![(Vec::new(), Vec::new()); SCHEMES.len()];
        for (i, (main, conc)) in cells.into_iter().enumerate() {
            samples[i / reps].0.extend(main);
            samples[i / reps].1.extend(conc);
        }
        row_from_samples(exp, &samples[0], &samples[1])
    }))
}

impl Figure for Vec<Table1Row> {
    fn render(&self, _: &Opts, m: &mut Manifest) {
        println!("== Table 1 — download times (mean ± std, seconds) ==");
        println!("{:<26}{:>18}{:>18}", "", "EMPoWER", "MP-w/o-CC");
        let line = |label: &str, e: &DurationStats, w: &DurationStats| {
            println!(
                "{:<26}{:>11.1} ± {:>4.1}{:>11.1} ± {:>4.1}",
                label, e.mean_secs, e.std_secs, w.mean_secs, w.std_secs
            )
        };
        for row in self {
            line(row.experiment.label(), &row.empower, &row.mp_wo_cc);
            if let (Some(e), Some(w)) = (&row.conc_flow_empower, &row.conc_flow_wo_cc) {
                line("Conc, F. 12-8 (25 MB)", e, w);
            }
        }
        m.set("experiments", self.len() as u64);
    }
}

/// Fig. 12: TCP over EMPoWER for Flow 9-13 — plain single-path TCP
/// (SP-w/o-CC) for the first phase, the full stack (δ = 0.3, two routes,
/// delay equalization) for the second.
pub fn fig12(opts: &Opts, tele: &Telemetry) -> Fig12Data {
    let (net, imap) = network(opts.seed);
    empower_testbed::fig12::run_flow_traced(&net, &imap, opts.seed, 9, 13, tele)
}

impl Figure for Fig12Data {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Fig. 12 — TCP Flow 9-13: SP-w/o-CC then EMPoWER (δ = 0.3) ==");
        let step = opts.full_or_quick(25, 100);
        println!(
            "{:>6} {:>12} | {:>6} {:>10} {:>10} {:>12}",
            "t[s]", "SP TCP", "t[s]", "route1", "route2", "EMPoWER TCP"
        );
        let len = self.phase1_received.len().max(self.phase2_received.len());
        for i in (0..len).step_by(step) {
            let route = |r: usize| self.phase2_route_rates.get(r).map_or(0.0, |xs| at(xs, i));
            println!(
                "{:>6} {:>12.1} | {:>6} {:>10.1} {:>10.1} {:>12.1}",
                i,
                at(&self.phase1_received, i),
                500 + i,
                route(0),
                route(1),
                at(&self.phase2_received, i),
            );
        }
        let mean_tail = |xs: &[f64]| mean_over(xs, xs.len().saturating_sub(100), xs.len());
        println!(
            "\nsteady TCP throughput: SP-w/o-CC {:.1} Mbps → EMPoWER {:.1} Mbps",
            mean_tail(&self.phase1_received),
            mean_tail(&self.phase2_received)
        );
        m.set("phase_secs", PHASE_SECS).set("tcp_delta", TCP_DELTA);
    }
}

/// Fig. 13: average TCP rate (± std over the last 100 s) for ten flows,
/// EMPoWER (δ = 0.3) vs plain single-path TCP.
pub fn fig13(opts: &Opts, tele: &Telemetry) -> Vec<Fig13Row> {
    let (net, imap) = network(opts.seed);
    let config = Fig13Config { duration: duration(opts), seed: opts.seed };
    let flows = flow_subset(opts, &empower_testbed::fig13::FLOWS);
    run_fig13_parallel(&net, &imap, &config, flows, opts.jobs, tele)
}

impl Figure for Vec<Fig13Row> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Fig. 13 — TCP rate, mean ± std (Mbps), δ = 0.3 ==");
        println!("{:<8}{:>20}{:>20}", "flow", "EMPoWER", "SP-w/o-CC");
        for r in self {
            println!(
                "{:<8}{:>13.1} ± {:>4.1}{:>13.1} ± {:>4.1}",
                format!("{}-{}", r.src, r.dst),
                r.empower_mean,
                r.empower_std,
                r.sp_wo_cc_mean,
                r.sp_wo_cc_std
            );
        }
        let wins = self.iter().filter(|r| r.empower_mean >= r.sp_wo_cc_mean).count();
        println!("\nEMPoWER ≥ single-path TCP on {wins}/{} flows", self.len());
        m.set("flows", self.len() as u64).set("duration_s", duration(opts));
    }
}
