//! Ablations of the design choices the paper fixes: the routing search's
//! width, channel-switching cost and link metric; the constraint margin δ;
//! destination-side delay equalization; and the utility family.
//! EXPERIMENTS.md ("Design-choice ablations") reads their results.

use empower_baselines::{maximize_utility, CapacityRegion, RegionKind};
use empower_cc::{AlphaFair, CcProblem, ProportionalFair};
use empower_core::{RunConfig, Scheme};
use empower_model::topology::random::TopologyClass;
use empower_model::{InterferenceMap, InterferenceModel, Network, SharedMedium};
use empower_routing::{
    best_combination, shortest_path, CscMode, LinkMetric, MetricKind, MultipathConfig, RouteQuery,
};
use empower_sim::{FlowSpecSim, FlowStats, SimConfig, Simulation, TrafficPattern};
use empower_telemetry::{impl_to_json_struct, CounterType, Json, Manifest, Telemetry, ToJson};
use empower_testbed::fig9::fig9_network;

use crate::sweep::{make_instance, SolverWork};
use crate::{mean, Figure, Opts};

/// The routing ablation's results: mean combination capacity per
/// `n-shortest` width, how often (and by how much) the channel-switching
/// cost changes the single path, and mean single-path capacity per link
/// metric.
pub struct RoutingAblation {
    pub n_sweep: Vec<(usize, f64)>,
    pub csc_change_fraction: f64,
    pub csc_capacity_gain: f64,
    pub metric_capacity: Vec<(String, f64)>,
}

impl_to_json_struct!(RoutingAblation {
    n_sweep,
    csc_change_fraction,
    csc_capacity_gain,
    metric_capacity
});

/// Ablations of the routing design choices (`n = 5`, the CSC, the ETT
/// metric `W = d_l`) on residential topologies with one random flow.
pub fn routing(opts: &Opts, tele: &Telemetry) -> RoutingAblation {
    let mediums = Scheme::Empower.mediums();
    let instances: Vec<_> = (0..opts.sweep(200, 20))
        .map(|i| {
            let (net, imap, flows) =
                make_instance(TopologyClass::Residential, opts.seed + i as u64, 1);
            (net, imap, RouteQuery::new(flows[0].0, flows[0].1).with_mediums(&mediums))
        })
        .collect();
    // The mean of `capacity` over the instances.
    let mean_capacity = |capacity: &dyn Fn(&Network, &InterferenceMap, &RouteQuery) -> f64| {
        mean(&instances.iter().map(|(net, imap, q)| capacity(net, imap, q)).collect::<Vec<_>>())
    };
    let n_sweep = [1usize, 2, 3, 5, 8].map(|n| {
        let config = MultipathConfig { n_shortest: n, ..Default::default() };
        (n, mean_capacity(&|net, imap, q| best_combination(net, imap, q, &config).total_rate()))
    });

    let mut changed = 0usize;
    let mut with_csc = Vec::new();
    let mut without = Vec::new();
    for (net, imap, q) in &instances {
        let metric = LinkMetric::ett(net);
        let a = shortest_path(net, &metric, CscMode::Paper, q);
        let b = shortest_path(net, &metric, CscMode::Zero, q);
        if let (Some(a), Some(b)) = (a, b) {
            if a.path.links() != b.path.links() {
                changed += 1;
            }
            with_csc.push(a.path.capacity(net, imap));
            without.push(b.path.capacity(net, imap));
        }
    }

    let metrics = [MetricKind::Ett, MetricKind::Iru, MetricKind::Catt, MetricKind::HopCount];
    let metric_capacity = metrics.map(|kind| {
        let capacity = |net: &Network, imap: &InterferenceMap, q: &RouteQuery| {
            let metric = LinkMetric::new(kind, net, imap);
            shortest_path(net, &metric, CscMode::Paper, q)
                .map_or(0.0, |o| o.path.capacity(net, imap))
        };
        (format!("{kind:?}"), mean_capacity(&capacity))
    });
    tele.counter("ablation/instances", CounterType::Packets).add(instances.len() as u64);
    RoutingAblation {
        n_sweep: n_sweep.into(),
        csc_change_fraction: changed as f64 / instances.len() as f64,
        csc_capacity_gain: mean(&with_csc) / mean(&without).max(1e-9) - 1.0,
        metric_capacity: metric_capacity.into(),
    }
}

impl Figure for RoutingAblation {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Ablation: n-shortest width (mean combination capacity, Mbps) ==");
        for (n, cap) in &self.n_sweep {
            println!("  n = {n}: {cap:.2}");
        }
        println!("\n== Ablation: channel-switching cost ==");
        println!(
            "  CSC changes the single path in {:.0}% of instances; capacity delta {:+.1}%",
            100.0 * self.csc_change_fraction,
            100.0 * self.csc_capacity_gain
        );
        println!("\n== Ablation: link metric (mean single-path capacity, Mbps) ==");
        for (kind, cap) in &self.metric_capacity {
            println!("  {kind}: {cap:.2}");
        }
        m.set("runs", opts.sweep(200, 20) as u64)
            .set("csc_change_fraction", self.csc_change_fraction)
            .set("csc_capacity_gain", self.csc_capacity_gain);
    }
}

/// Simulated seconds per run of the δ and delay-equalization ablations.
fn duration(opts: &Opts) -> f64 {
    opts.full_or_quick(400.0, 150.0)
}

/// One δ of the margin ablation.
pub struct DeltaPoint {
    pub delta: f64,
    pub udp_mbps: f64,
    pub udp_mean_delay_ms: f64,
    pub udp_max_delay_ms: f64,
    pub tcp_mbps: f64,
}

impl_to_json_struct!(DeltaPoint { delta, udp_mbps, udp_mean_delay_ms, udp_max_delay_ms, tcp_mbps });

/// Ablation of the constraint margin δ (Eq. (3)) on the Fig. 9 cut-out
/// network, for saturated UDP and for TCP.
pub fn delta(opts: &Opts, tele: &Telemetry) -> Vec<DeltaPoint> {
    let duration = duration(opts);
    let (net, [n1, _, _, n13]) = fig9_network();
    let imap = SharedMedium.build_map(&net);
    // Flow 1-13's statistics under `pattern` at margin `delta`, if it has a route.
    let run = |delta: f64, pattern| {
        let config = SimConfig { delta, tcp_delta: delta, seed: opts.seed, ..Default::default() };
        let (mut sim, mapping) = RunConfig::new(Scheme::Empower)
            .delta(delta)
            .telemetry(tele.clone())
            .build_simulation(&net, &imap, &[(n1, n13, pattern)], config)
            .expect("tolerant mode cannot fail");
        mapping[0].map(|f| sim.run(duration).flows.swap_remove(f))
    };
    let to = duration as usize;
    let tail = |s: &FlowStats| s.mean_throughput(to.saturating_sub(100), to);
    Vec::from([0.0, 0.05, 0.1, 0.2, 0.3, 0.45].map(|delta| {
        let udp = run(delta, TrafficPattern::SaturatedUdp { start: 0.0, stop: duration });
        let tcp = run(delta, TrafficPattern::Tcp { start: 0.0, stop: duration, size_bytes: 0 });
        let udp = udp.as_ref();
        DeltaPoint {
            delta,
            udp_mbps: udp.map_or(0.0, tail),
            udp_mean_delay_ms: udp.map_or(0.0, |s| s.mean_delay_secs() * 1e3),
            udp_max_delay_ms: udp.map_or(0.0, |s| s.delay_max_secs * 1e3),
            tcp_mbps: tcp.as_ref().map_or(0.0, tail),
        }
    }))
}

impl Figure for Vec<DeltaPoint> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Ablation: constraint margin δ (Flow 1-13, {:.0} s runs) ==", duration(opts));
        println!(
            "{:>6} {:>12} {:>14} {:>14} {:>12}",
            "δ", "UDP Mbps", "mean delay ms", "max delay ms", "TCP Mbps"
        );
        for p in self {
            println!(
                "{:>6.2} {:>12.1} {:>14.1} {:>14.1} {:>12.1}",
                p.delta, p.udp_mbps, p.udp_mean_delay_ms, p.udp_max_delay_ms, p.tcp_mbps
            );
        }
        println!(
            "\n(UDP throughput peaks at small δ, but delay explodes as δ → 0 — the §4.1\n         rationale for the margin; TCP additionally needs the headroom to avoid drops.)"
        );
        m.set("duration_s", duration(opts));
    }
}

/// One configuration of the delay-equalization ablation.
pub struct DelayEqRow {
    pub delta: f64,
    pub delay_eq: bool,
    pub tcp_mbps: f64,
    pub mean_delay_ms: f64,
    pub reorder_losses: u64,
}

impl_to_json_struct!(DelayEqRow { delta, delay_eq, tcp_mbps, mean_delay_ms, reorder_losses });

/// Ablation of destination-side delay equalization (§6.4): the same
/// two-route TCP flow with and without the equalizer, at two margins.
pub fn delay_eq(opts: &Opts, tele: &Telemetry) -> Vec<DelayEqRow> {
    let duration = duration(opts);
    Vec::from([(0.05, false), (0.05, true), (0.3, false), (0.3, true)].map(|(delta, delay_eq)| {
        let (net, [n1, _, _, n13]) = fig9_network();
        let imap = SharedMedium.build_map(&net);
        let routes = Scheme::Empower.compute_routes(&net, &imap, n1, n13, 5);
        let mut sim = Simulation::new(
            net,
            imap,
            SimConfig { delta, tcp_delta: delta, seed: opts.seed, ..Default::default() },
        );
        sim.attach_telemetry(tele.clone());
        let f = sim.add_flow(FlowSpecSim {
            src: n1,
            dst: n13,
            routes: routes.paths(),
            use_cc: true,
            open_loop_rates: Vec::new(),
            pattern: TrafficPattern::Tcp { start: 0.0, stop: duration, size_bytes: 0 },
            delay_equalization: delay_eq,
        });
        let report = sim.run(duration);
        let to = duration as usize;
        DelayEqRow {
            delta,
            delay_eq,
            tcp_mbps: report.flows[f].mean_throughput(to.saturating_sub(100), to),
            mean_delay_ms: report.flows[f].mean_delay_secs() * 1e3,
            reorder_losses: report.flows[f].declared_lost,
        }
    }))
}

impl Figure for Vec<DelayEqRow> {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Ablation: TCP delay equalization (two routes of different length) ==");
        println!(
            "{:>6} {:>10} {:>10} {:>14} {:>15}",
            "δ", "delay-eq", "TCP Mbps", "mean delay ms", "reorder losses"
        );
        for r in self {
            println!(
                "{:>6.2} {:>10} {:>10.1} {:>14.1} {:>15}",
                r.delta, r.delay_eq, r.tcp_mbps, r.mean_delay_ms, r.reorder_losses
            );
        }
        println!(
            "\n(the equalizer matters when cross-route delay skew is large — small δ,\n         deep queues; with the paper's δ = 0.3 the routes stay shallow and it is\n         nearly free either way)"
        );
        m.set("duration_s", duration(opts));
    }
}

/// One α of the fairness ablation: means over the instances.
pub struct FairnessRow {
    pub alpha: f64,
    pub total_mbps: f64,
    pub min_flow_mbps: f64,
    pub jain_index: f64,
}

impl_to_json_struct!(FairnessRow { alpha, total_mbps, min_flow_mbps, jain_index });

/// The fairness ablation: one row per α, and the work of the centralized
/// solves behind them (for the manifest).
pub struct Fairness {
    pub rows: Vec<FairnessRow>,
    pub solver: SolverWork,
}

impl ToJson for Fairness {
    fn to_json(&self) -> Json {
        self.rows.to_json()
    }
}

fn jain(xs: &[f64]) -> f64 {
    let s: f64 = xs.iter().sum();
    let q: f64 = xs.iter().map(|x| x * x).sum();
    if q <= 0.0 {
        0.0
    } else {
        s * s / (xs.len() as f64 * q)
    }
}

/// Ablation of the utility family (§4): α-fair utilities on three
/// competing flows of a residential topology, from near throughput
/// maximization (α → 0) through the paper's `log(1 + x)` (α = 1) towards
/// max-min fairness.
pub fn fairness(opts: &Opts, tele: &Telemetry) -> Fairness {
    let mut solver = SolverWork::default();
    let rows = Vec::from([0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0].map(|alpha| {
        let mut totals = Vec::new();
        let mut mins = Vec::new();
        let mut jains = Vec::new();
        for i in 0..opts.sweep(60, 10) {
            let (net, imap, flows) =
                make_instance(TopologyClass::Residential, opts.seed + i as u64, 3);
            // Shared route set across α so only the objective varies.
            let routes: Option<Vec<_>> = flows
                .iter()
                .map(|&(s, d)| {
                    let r = Scheme::Empower.compute_routes(&net, &imap, s, d, 5);
                    (!r.is_empty()).then(|| r.paths())
                })
                .collect();
            let Some(flow_routes) = routes else { continue };
            tele.counter("ablation/instances", CounterType::Packets).inc();
            let problem = CcProblem::new(&net, &imap, flow_routes);
            let region = CapacityRegion::build(&problem, &imap, RegionKind::Conservative, 0.0);
            let sol = if (alpha - 1.0).abs() < 1e-9 {
                maximize_utility(&problem, &region, &ProportionalFair)
            } else {
                maximize_utility(&problem, &region, &AlphaFair::new(alpha))
            };
            solver = solver.max(SolverWork::of(&sol));
            let rates = sol.flow_rates;
            totals.push(rates.iter().sum());
            mins.push(rates.iter().cloned().fold(f64::INFINITY, f64::min));
            jains.push(jain(&rates));
        }
        FairnessRow {
            alpha,
            total_mbps: mean(&totals),
            min_flow_mbps: mean(&mins),
            jain_index: mean(&jains),
        }
    }));
    Fairness { rows, solver }
}

impl Figure for Fairness {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        println!("== Ablation: α-fair utility family (3 flows, residential) ==");
        println!("{:>8} {:>12} {:>12} {:>12}", "α", "total Mbps", "min flow", "Jain index");
        for r in &self.rows {
            println!(
                "{:>8.2} {:>12.1} {:>12.1} {:>12.3}",
                r.alpha, r.total_mbps, r.min_flow_mbps, r.jain_index
            );
        }
        println!("\n(total throughput falls and the worst flow + Jain index rise with α —");
        println!(" the §4 fairness knob; the paper's log(1+x) is the α = 1 row.)");
        m.set("runs", opts.sweep(60, 10) as u64);
        self.solver.record(m);
    }
}
