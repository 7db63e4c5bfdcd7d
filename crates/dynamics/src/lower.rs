//! Lowering a document onto a network: its topology, and its
//! `[[clients]]` expanded into a deterministic flow program.
//!
//! Each client expands into one or more [`FlowSpecSim`]s built on the
//! simulator's existing traffic patterns, so both engines — optimized and
//! frozen reference — run documents unmodified and the corpus gate can
//! compare them byte for byte:
//!
//! * `open_loop` → `SaturatedUdp` without congestion control on the first
//!   route, at the configured rate;
//! * `closed_loop` → a saturated congestion-controlled multipath flow;
//! * `request_response` → `PoissonFiles`: sequential responses whose
//!   seeded exponential gaps are the client's think times (closed-loop
//!   semantics — the next request waits for the previous response);
//! * `bulk` → `Tcp` with delay equalization, or a UDP `FileDownload`;
//! * `telemetry` → a `PoissonFiles` chain of small readings with mean gap
//!   equal to the reporting period (duty-cycle jitter);
//! * `elephant_mice` → long `Tcp` elephants plus mice `FileDownload`s at
//!   seeded (optionally diurnal) exponential arrival times;
//! * `churn` → sessions arriving by a thinned Poisson process, each a
//!   saturated flow living for a seeded exponential lifetime.
//!
//! Every random draw comes from a per-client, per-instance generator
//! derived from `run.seed` by a SplitMix64-style mix, so adding or
//! reordering clients never perturbs another client's stream and replays
//! are byte-identical. Clients name endpoints abstractly (Fig. 1 node
//! indices, testbed paper numbers, campus indices); [`routes_for`] turns a
//! pair into the multipath route set the EMPoWER stack would install — the
//! same sets the sim equivalence corpus uses. `[[flows]]` are routed by
//! the scheme instead, in [`crate::driver`], which has the interference
//! map.

use empower_model::rng::{exponential, Rng, SeedableRng, StdRng};
use empower_model::topology::campus::{campus, CampusConfig};
use empower_model::topology::{enterprise, fig1_scenario, residential, testbed22};
use empower_model::{
    CarrierSense, InterferenceMap, InterferenceModel, LinkId, Medium, Network, NodeId, Path,
    SharedMedium,
};
use empower_sim::{FlowSpecSim, TrafficPattern};

use crate::scenario::{ClientKind, Diurnal, Scenario, ScenarioError, TopologyKind, TopologySpec};
use crate::schema::serr;

impl TopologySpec {
    /// Builds the network and its interference map. `fig1` uses the
    /// paper's shared-medium worst case; the other kinds carrier-sense
    /// interference, matching the §5/§6 experiment runners.
    pub fn build(&self) -> (Network, InterferenceMap) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let net = match self.kind {
            TopologyKind::Fig1 => {
                let net = fig1_scenario().net;
                let imap = SharedMedium.build_map(&net);
                return (net, imap);
            }
            TopologyKind::Residential => residential(&mut rng).net,
            TopologyKind::Enterprise => enterprise(&mut rng).net,
            TopologyKind::Testbed => testbed22(self.seed).net,
            TopologyKind::Campus { buildings, floors_per_building, clients_per_floor } => {
                let grid = CampusConfig::new(buildings, floors_per_building, clients_per_floor);
                campus(&mut rng, &grid).net
            }
        };
        let imap = CarrierSense::default().build_map(&net);
        (net, imap)
    }
}

/// One simulator flow with its document provenance.
#[derive(Debug, Clone)]
pub struct CompiledFlow {
    /// Its SLO group: the index of the originating `[[clients]]` entry,
    /// or `clients.len() + i` for `[[flows]]` entry `i`.
    pub client: usize,
    /// The flow handed to the engine (flow index = position in
    /// [`CompiledWorkload::flows`]).
    pub spec: FlowSpecSim,
}

/// A document lowered to concrete simulator flows.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    /// Resolved SLO label per group: the clients', then `flow<i>` per
    /// `[[flows]]` entry.
    pub labels: Vec<String>,
    /// All flows, in deterministic registration order.
    pub flows: Vec<CompiledFlow>,
}

/// Derives the seed of one client instance's traffic generator.
///
/// SplitMix64-style finalizer over (run seed, client index, instance
/// index): distinct inputs land in uncorrelated streams, and a client's
/// stream depends only on its own position — editing one `[[clients]]`
/// entry never reshuffles another's randomness.
pub fn instance_seed(run_seed: u64, client: u64, instance: u64) -> u64 {
    let mut z = run_seed
        .wrapping_add(client.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(instance.wrapping_add(1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The diurnal rate multiplier at time `t` (1 without modulation).
fn diurnal_factor(d: Option<Diurnal>, start: f64, t: f64) -> f64 {
    match d {
        None => 1.0,
        Some(d) => 1.0 + d.amplitude * (std::f64::consts::TAU * (t - start) / d.period_secs).sin(),
    }
}

/// Seeded arrival times in `[start, horizon)` for a Poisson process of
/// `base_rate` events/sec, optionally diurnally modulated (by thinning
/// against the peak rate), truncated at `max` events.
pub fn poisson_arrivals(
    rng: &mut StdRng,
    start: f64,
    horizon: f64,
    base_rate: f64,
    diurnal: Option<Diurnal>,
    max: usize,
) -> Vec<f64> {
    let peak = base_rate * (1.0 + diurnal.map_or(0.0, |d| d.amplitude));
    let mut out = Vec::new();
    let mut t = start;
    while out.len() < max {
        t += exponential(rng, 1.0 / peak);
        if t >= horizon {
            break;
        }
        // Thinning: a candidate at t survives with probability rate(t)/peak.
        let accept = rng.gen::<f64>() * peak < base_rate * diurnal_factor(diurnal, start, t);
        if accept {
            out.push(t);
        }
    }
    out
}

/// Expands every `[[clients]]` entry of `w` into simulator flows against
/// `net` (the driver appends the `[[flows]]` entries, which it routes).
///
/// Flows whose start time falls at or beyond the horizon are dropped —
/// they could never carry traffic — so the flow list is exactly the set
/// the engine will run. A document that expands past
/// [`crate::scenario::MAX_EXPANSION`] is an error before anything is
/// allocated.
pub fn compile(w: &Scenario, net: &Network) -> Result<CompiledWorkload, ScenarioError> {
    w.check_expansion()?;
    let horizon = w.run.horizon_secs;
    let mut flows = Vec::new();
    for (ci, c) in w.clients.iter().enumerate() {
        let path = format!("clients[{ci}]");
        let routes = routes_for(net, &w.topology, c.src, c.dst, c.via, &path)?;
        let (src, dst) = endpoints(&w.topology, c.src, c.dst);
        let base = FlowSpecSim::saturated(src, dst, routes, horizon);
        let mut push = |spec: FlowSpecSim| {
            if spec.pattern.start_time() < horizon {
                flows.push(CompiledFlow { client: ci, spec });
            }
        };
        let with = |pattern: TrafficPattern| FlowSpecSim { pattern, ..base.clone() };
        let saturated = |start: f64, stop: Option<f64>| {
            with(TrafficPattern::SaturatedUdp { start, stop: stop.unwrap_or(horizon).min(horizon) })
        };
        let tcp = |start: f64, size_bytes: u64| FlowSpecSim {
            delay_equalization: true,
            ..with(TrafficPattern::Tcp { start, stop: horizon, size_bytes })
        };
        let chain = |count: u32, size_bytes: u64, mean_gap_secs: f64| {
            with(TrafficPattern::PoissonFiles { start: c.start, count, size_bytes, mean_gap_secs })
        };
        // The replicable kinds are one flow, `count` times over; the
        // population kinds size themselves.
        let replica = match c.kind {
            ClientKind::OpenLoop { rate_mbps, stop } => Some(FlowSpecSim {
                routes: vec![base.routes[0].clone()],
                use_cc: false,
                open_loop_rates: vec![rate_mbps],
                ..saturated(c.start, stop)
            }),
            ClientKind::ClosedLoop { stop } => Some(saturated(c.start, stop)),
            ClientKind::RequestResponse { requests, response_bytes, think_secs } => {
                Some(chain(requests, response_bytes, think_secs))
            }
            ClientKind::Bulk { size_bytes, tcp: true } => Some(tcp(c.start, size_bytes)),
            ClientKind::Bulk { size_bytes, tcp: false } => {
                Some(with(TrafficPattern::FileDownload { start: c.start, size_bytes }))
            }
            ClientKind::Telemetry { period_secs, payload_bytes } => {
                // Enough readings to span the horizon; the run ends before
                // any excess ticks fire.
                let ticks = ((horizon - c.start).max(0.0) / period_secs).ceil().max(1.0) as u32;
                Some(chain(ticks, payload_bytes, period_secs))
            }
            ClientKind::ElephantMice {
                elephants,
                elephant_bytes,
                mice,
                mouse_bytes,
                mean_gap_secs,
            } => {
                for _ in 0..elephants {
                    push(tcp(c.start, elephant_bytes));
                }
                let mut rng = StdRng::seed_from_u64(instance_seed(w.run.seed, ci as u64, 0));
                let rate = 1.0 / mean_gap_secs;
                for at in
                    poisson_arrivals(&mut rng, c.start, horizon, rate, c.diurnal, mice as usize)
                {
                    push(with(TrafficPattern::FileDownload { start: at, size_bytes: mouse_bytes }));
                }
                None
            }
            ClientKind::Churn { base_rate_per_sec, mean_session_secs, max_sessions } => {
                let mut rng = StdRng::seed_from_u64(instance_seed(w.run.seed, ci as u64, 0));
                let max = max_sessions as usize;
                for at in
                    poisson_arrivals(&mut rng, c.start, horizon, base_rate_per_sec, c.diurnal, max)
                {
                    let life = exponential(&mut rng, mean_session_secs);
                    push(saturated(at, Some(at + life)));
                }
                None
            }
        };
        if let Some(spec) = replica {
            for _ in 0..c.count {
                push(spec.clone());
            }
        }
    }
    let labels = (0..w.clients.len()).map(|i| w.client_label(i)).collect();
    Ok(CompiledWorkload { labels, flows })
}

/// The simulator endpoints of a client pair.
pub fn endpoints(topo: &TopologySpec, src: u32, dst: u32) -> (NodeId, NodeId) {
    match topo.kind {
        TopologyKind::Testbed => {
            let t = testbed22(topo.seed);
            (t.node(src), t.node(dst))
        }
        _ => (NodeId(src), NodeId(dst)),
    }
}

/// The multipath route set for a client pair, in scheduler order.
///
/// Fig. 1 supports the paper's downstream pairs: gateway→client uses both
/// hybrid routes, gateway→extender its two single hops, extender→client
/// the WiFi hop. Testbed pairs use the direct PLC link (which the sampled
/// layout must contain) plus a 2-hop WiFi relay through `via` when both
/// hops exist. Campus pairs must be directly attached (a floor router and
/// one of its clients); every direct link becomes a single-hop route, so
/// hybrid clients get WiFi+PLC multipath automatically.
pub fn routes_for(
    net: &Network,
    topo: &TopologySpec,
    src: u32,
    dst: u32,
    via: Option<u32>,
    path: &str,
) -> Result<Vec<Path>, ScenarioError> {
    let hops: Vec<Vec<LinkId>> = match topo.kind {
        TopologyKind::Fig1 => {
            let f = fig1_scenario();
            match (src, dst) {
                (0, 2) => vec![vec![f.plc_ab, f.wifi_bc], vec![f.wifi_ab, f.wifi_bc]],
                (0, 1) => vec![vec![f.plc_ab], vec![f.wifi_ab]],
                (1, 2) => vec![vec![f.wifi_bc]],
                _ => return serr(path, format!("unsupported fig1 pair {src}→{dst}")),
            }
        }
        TopologyKind::Testbed => {
            let t = testbed22(topo.seed);
            let (s, d) = (t.node(src), t.node(dst));
            let Some(plc) = net.find_link(s, d, Medium::Plc) else {
                return serr(
                    path,
                    format!(
                        "testbed seed {} has no direct PLC link {src}→{dst}; \
                         pick an adjacent pair",
                        topo.seed
                    ),
                );
            };
            let mut hops = vec![vec![plc.id]];
            if let Some(via) = via {
                let v = t.node(via);
                match (net.find_link(s, v, Medium::WIFI1), net.find_link(v, d, Medium::WIFI1)) {
                    (Some(a), Some(b)) => hops.push(vec![a.id, b.id]),
                    _ => {
                        return serr(
                            path,
                            format!("testbed relay {src}→{via}→{dst} is missing a WiFi hop"),
                        )
                    }
                }
            }
            hops
        }
        // Validation keeps clients off the random classes.
        TopologyKind::Campus { .. } | TopologyKind::Residential | TopologyKind::Enterprise => {
            let hops: Vec<_> = net
                .out_links(NodeId(src))
                .filter(|l| l.to == NodeId(dst))
                .map(|l| vec![l.id])
                .collect();
            if hops.is_empty() {
                return serr(
                    path,
                    format!(
                        "campus pair {src}→{dst} shares no direct link; \
                         pairs must be a floor router and one of its clients"
                    ),
                );
            }
            hops
        }
    };
    hops.into_iter()
        .map(|links| {
            Path::new(net, links).map_err(|e| ScenarioError {
                path: path.to_string(),
                message: format!("invalid route: {e:?}"),
            })
        })
        .collect()
}
