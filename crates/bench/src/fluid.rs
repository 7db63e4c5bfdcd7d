//! §5's figures: the schemes' fluid equilibria on random residential and
//! enterprise topologies against the centralized `optimal` and
//! `conservative opt` references (Figs. 4–7), and the §5.2.2 convergence
//! comparison. The paper's numbers for each are in EXPERIMENTS.md.

use empower_baselines::{Backpressure, BackpressureConfig};
use empower_cc::{slots_to_converge, ProportionalFair};
use empower_core::{RunConfig, Scheme};
use empower_model::topology::random::TopologyClass;
use empower_telemetry::{impl_to_json_struct, CounterType, Json, Manifest, Telemetry, ToJson};

use crate::sweep::{make_instance, run_sweep_parallel, SweepRun};
use crate::{cdf_line, fraction, mean, Figure, Opts};

const CLASSES: [TopologyClass; 2] = [TopologyClass::Residential, TopologyClass::Enterprise];

/// Fig. 4's schemes, in the order of each run's `scheme_rates`. MP-WiFi is
/// not in the paper's figure because it coincides with SP-WiFi (§5.2.1);
/// [`Fig4Class::coincide`] checks that instead.
pub const FIG4_SCHEMES: [Scheme; 5] =
    [Scheme::Empower, Scheme::Sp, Scheme::SpWifi, Scheme::MpWifi, Scheme::MpMwifi];

/// Fig. 4 on one topology class: one saturated flow per run.
pub struct Fig4Class {
    pub class: String,
    pub runs: Vec<SweepRun>,
}

impl_to_json_struct!(Fig4Class { class, runs });

impl Fig4Class {
    /// Throughput of `FIG4_SCHEMES[scheme]` on every run.
    pub fn rates(&self, scheme: usize) -> Vec<f64> {
        self.runs.iter().map(|r| r.scheme_rates[scheme][0]).collect()
    }

    /// EMPoWER's gain in mean throughput over `FIG4_SCHEMES[scheme]`
    /// (0.59 is +59 %).
    pub fn gain_over(&self, scheme: usize) -> f64 {
        mean(&self.rates(0)) / mean(&self.rates(scheme)) - 1.0
    }

    /// Runs on which MP-WiFi is within 5 % of SP-WiFi.
    pub fn coincide(&self) -> usize {
        let (spw, mpw) = (self.rates(2), self.rates(3));
        spw.iter().zip(&mpw).filter(|(a, b)| (*a - *b).abs() < 0.05 * a.abs().max(1.0)).count()
    }
}

/// Fig. 4: CDF of flow throughput `T_X` for EMPoWER, SP, SP-WiFi and
/// MP-mWiFi.
pub fn fig4(opts: &Opts, tele: &Telemetry) -> Vec<Fig4Class> {
    let count = opts.sweep(1000, 40);
    let classes = CLASSES.iter().map(|&class| {
        let runs = run_sweep_parallel(class, count, 1, &FIG4_SCHEMES, opts, tele);
        let fig = Fig4Class { class: format!("{class:?}"), runs };
        tele.counter(format!("fig4/{}/coincide", fig.class.to_lowercase()), CounterType::Gauge)
            .set(fig.coincide() as u64);
        fig
    });
    classes.collect()
}

impl Figure for Vec<Fig4Class> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        for c in self {
            println!("== Fig. 4 — {} topology, {} runs ==", c.class, c.runs.len());
            for (si, scheme) in FIG4_SCHEMES.iter().enumerate() {
                cdf_line(scheme.label(), &c.rates(si));
            }
            println!(
                "avg gain EMPoWER vs SP-WiFi: {:+.0}%   vs SP: {:+.0}%   vs MP-mWiFi: {:+.0}%",
                100.0 * c.gain_over(2),
                100.0 * c.gain_over(1),
                100.0 * c.gain_over(4),
            );
            let (n, runs) = (c.coincide(), c.runs.len());
            println!("MP-WiFi coincides with SP-WiFi in {n}/{runs} runs (§5.2.1 claim)\n");
        }
        m.set("runs", opts.sweep(1000, 40) as u64).set("schemes", FIG4_SCHEMES.len() as u64);
    }
}

/// Fig. 5 on one topology class.
pub struct Fig5Class {
    pub class: String,
    /// `(T_MP-mWiFi, T_EMPoWER)` of the worst flows.
    pub worst_pairs: Vec<(f64, f64)>,
    /// Fraction of the worst flows that only PLC/WiFi connects.
    pub rescue_fraction: f64,
}

impl_to_json_struct!(Fig5Class { class, worst_pairs, rescue_fraction });

/// Fig. 5: CDF of `T_MP-mWiFi / T_EMPoWER` over the *worst flows*, the
/// bottom 20 % of runs by `min(T_MP-mWiFi, T_EMPoWER)`, leaving out runs
/// that neither scheme connects.
pub fn fig5(opts: &Opts, tele: &Telemetry) -> Vec<Fig5Class> {
    let schemes = [Scheme::Empower, Scheme::MpMwifi];
    let count = opts.sweep(1000, 40);
    let classes = CLASSES.iter().map(|&class| {
        let mut pairs: Vec<(f64, f64)> = run_sweep_parallel(class, count, 1, &schemes, opts, tele)
            .iter()
            .map(|r| (r.scheme_rates[1][0], r.scheme_rates[0][0])) // (mwifi, empower)
            .filter(|&(a, b)| a > 1e-9 || b > 1e-9) // drop doubly-disconnected
            .collect();
        pairs.sort_by(|x, y| x.0.min(x.1).total_cmp(&y.0.min(y.1)));
        let cut = (pairs.len() as f64 * 0.2).ceil() as usize;
        pairs.truncate(cut.max(1).min(pairs.len()));
        let mwifi: Vec<f64> = pairs.iter().map(|&(mw, _)| mw).collect();
        let rescue_fraction = fraction(&mwifi, |mw| mw <= 1e-9);
        Fig5Class { class: format!("{class:?}"), worst_pairs: pairs, rescue_fraction }
    });
    classes.collect()
}

impl Figure for Vec<Fig5Class> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        let runs = opts.sweep(1000, 40);
        for c in self {
            println!("== Fig. 5 — worst flows, {} topology, {runs} runs ==", c.class);
            let ratios: Vec<f64> =
                c.worst_pairs.iter().filter(|p| p.1 > 1e-9).map(|&(mw, emp)| mw / emp).collect();
            cdf_line("T_mWiFi / T_EMPoWER", &ratios);
            let max_emp_gain =
                ratios.iter().cloned().filter(|&r| r > 0.0).fold(f64::INFINITY, f64::min).recip();
            println!(
                "EMPoWER better (ratio < 1): {:.0}%   mWiFi better: {:.0}%   max EMPoWER gain: {:.1}x (finite cases)   max mWiFi gain: {:.1}x",
                100.0 * fraction(&ratios, |r| r < 1.0),
                100.0 * fraction(&ratios, |r| r > 1.0),
                max_emp_gain,
                ratios.iter().cloned().fold(0.0, f64::max),
            );
            println!(
                "PLC/WiFi brings connectivity where mWiFi has none: {:.0}% of worst flows\n",
                100.0 * c.rescue_fraction
            );
        }
        m.set("runs", runs as u64);
    }
}

/// Figs. 6 and 7 on one topology class: per run with a positive optimum,
/// `[conservative opt, EMPoWER, MP-2bp, MP-w/o-CC, SP]` over `optimal`.
pub struct Ratios {
    pub class: String,
    pub ratios: Vec<Vec<f64>>,
}

impl_to_json_struct!(Ratios { class, ratios });

impl Ratios {
    /// Column `j` of the ratios, in the order above.
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.ratios.iter().map(|r| r[j]).collect()
    }

    /// Fraction of runs with EMPoWER within `tol` of conservative opt.
    pub fn within_conservative(&self, tol: f64) -> f64 {
        let v: Vec<f64> = self.ratios.iter().map(|r| r[1] / r[0].max(1e-12)).collect();
        fraction(&v, |r| r >= 1.0 - tol)
    }

    /// Fraction of runs with EMPoWER within `tol` of optimal.
    pub fn within_optimal(&self, tol: f64) -> f64 {
        fraction(&self.col(1), |r| r >= 1.0 - tol)
    }

    /// Prints the header `== {what}, <class> topology, {runs} runs ==` and
    /// one CDF line per column.
    fn print_cdfs(&self, what: &str, runs: usize) {
        println!("== {what}, {} topology, {runs} runs ==", self.class);
        let labels = ["conservative opt", "EMPoWER", "MP-2bp", "MP-w/o-CC", "SP"];
        for (j, label) in labels.iter().enumerate() {
            cdf_line(label, &self.col(j));
        }
    }
}

/// Sweeps both classes with `flows` flows per run under EMPoWER, MP-2bp,
/// MP-w/o-CC and SP, and divides `value(run)`, `[optimal, conservative
/// opt, schemes…]`, by its first entry on the runs where that is positive.
fn ratio_sweep(
    opts: &Opts,
    tele: &Telemetry,
    count: usize,
    flows: usize,
    value: fn(&SweepRun) -> Vec<f64>,
) -> Vec<Ratios> {
    let schemes = [Scheme::Empower, Scheme::Mp2bp, Scheme::MpWoCc, Scheme::Sp];
    let classes = CLASSES.iter().map(|&class| {
        let runs = run_sweep_parallel(class, count, flows, &schemes, opts, tele);
        let values = runs.iter().map(value).filter(|v| v[0] > 1e-9);
        let ratios = values.map(|v| v[1..].iter().map(|x| x / v[0]).collect()).collect();
        Ratios { class: format!("{class:?}"), ratios }
    });
    classes.collect()
}

/// Fig. 6: CDF of `T_X / T_optimal`, one saturated flow per run.
pub fn fig6(opts: &Opts, tele: &Telemetry) -> Vec<Ratios> {
    ratio_sweep(opts, tele, opts.sweep(500, 25), 1, |r| {
        let mut v = vec![r.optimal.flow_rates[0], r.conservative.flow_rates[0]];
        v.extend(r.scheme_rates.iter().map(|x| x[0]));
        v
    })
}

/// Fig. 6's table; Fig. 7's rows are the [`Fig7`] newtype.
impl Figure for Vec<Ratios> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        let runs = opts.sweep(500, 25);
        for c in self {
            c.print_cdfs("Fig. 6 — T_X / T_optimal", runs);
            println!(
                "EMPoWER within 10% of conservative opt: {:.0}% of runs;  within 15% of optimal: {:.0}%;  T=optimal (±1%): {:.0}%\n",
                100.0 * c.within_conservative(0.10),
                100.0 * c.within_optimal(0.15),
                100.0 * c.within_optimal(0.01),
            );
        }
        m.set("runs", runs as u64);
    }
}

/// Fig. 7's rows: the ratios are of utility, so the JSON names them
/// `utility_ratios`.
pub struct Fig7(pub Vec<Ratios>);

impl ToJson for Fig7 {
    fn to_json(&self) -> Json {
        let class = |c: &Ratios| {
            Json::obj([("class", c.class.to_json()), ("utility_ratios", c.ratios.to_json())])
        };
        Json::arr(self.0.iter().map(class))
    }
}

/// Fig. 7: CDF of `U_X / U_optimal` with three competing saturated flows
/// between random pairs, `U_X = Σ_f log(1 + x_f)`.
pub fn fig7(opts: &Opts, tele: &Telemetry) -> Fig7 {
    Fig7(ratio_sweep(opts, tele, opts.sweep(500, 20), 3, |r| {
        let mut v = vec![r.optimal.utility, r.conservative.utility];
        v.extend(&r.scheme_utility);
        v
    }))
}

impl Figure for Fig7 {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        let runs = opts.sweep(500, 20);
        for c in &self.0 {
            c.print_cdfs("Fig. 7 — U_X / U_optimal, 3 flows", runs);
            println!();
        }
        m.set("runs", runs as u64).set("flows", 3u64);
    }
}

/// §5.2.2 on one topology class: per connected run, the slots to steady
/// state (throughput within 1 % of final) under EMPoWER's distributed
/// controller and under backpressure.
pub struct Convergence {
    pub class: String,
    pub empower_slots: Vec<f64>,
    pub backpressure_slots: Vec<f64>,
}

impl_to_json_struct!(Convergence { class, empower_slots, backpressure_slots });

/// The §5.2.2 convergence comparison.
pub fn convergence(opts: &Opts, tele: &Telemetry) -> Vec<Convergence> {
    let budget = opts.full_or_quick(20_000, 4000);
    let classes = CLASSES.iter().map(|&class| {
        let mut emp = Vec::new();
        let mut bp = Vec::new();
        for i in 0..opts.sweep(100, 8) {
            let (net, imap, flows) = make_instance(class, opts.seed + i as u64, 1);
            // EMPoWER: the actual slotted controller. The fluid loop has no
            // measurement noise or feedback delay, so the controller can run
            // the full rate-proportional boost (the packet simulator's
            // conservative cap exists to tame its noisy, delayed price loop).
            let out = RunConfig::new(Scheme::Empower)
                .slots(4000)
                .boost_cap(64.0)
                .telemetry(tele.clone())
                .evaluate_fluid(&net, &imap, &flows)
                .expect("tolerant mode cannot fail");
            if out.flow_rates[0] <= 1e-9 {
                continue; // disconnected
            }
            if let Some(s) = out.convergence_slots[0] {
                emp.push(s as f64);
            }
            // Backpressure with exact max-weight scheduling.
            let mut scheme = Backpressure::new(&net, &imap, flows, BackpressureConfig::default());
            let result = scheme.run(&net, &ProportionalFair, budget);
            let traj: Vec<f64> = result.trajectory.iter().map(|t| t[0]).collect();
            let slots = slots_to_converge(&traj).unwrap_or(budget);
            bp.push(slots as f64);
        }
        Convergence { class: format!("{class:?}"), empower_slots: emp, backpressure_slots: bp }
    });
    classes.collect()
}

impl Figure for Vec<Convergence> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        let runs = opts.sweep(100, 8);
        for c in self {
            println!("== Convergence (slots to within 1% of final), {}, {runs} runs ==", c.class);
            let (emp, bp) = (&c.empower_slots, &c.backpressure_slots);
            cdf_line("EMPoWER", emp);
            cdf_line("backpressure", bp);
            println!(
                "mean: EMPoWER {:.0} slots vs backpressure {:.0} slots ({:.0}x slower)\n",
                mean(emp),
                mean(bp),
                mean(bp) / mean(emp).max(1.0),
            );
        }
        m.set("runs", runs as u64).set("bp_slots_budget", opts.full_or_quick(20_000u64, 4000));
    }
}
