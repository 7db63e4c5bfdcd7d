//! Every input of every workload, as a pure function of `--seed`.
//!
//! The generator owns its random numbers (SplitMix64, below) and writes the
//! documents by hand, so the inputs depend on the seed and on this file
//! only, never on the program's own generator or serializers. The program
//! under test receives nothing but what is produced here: TOML text, flow
//! lists, frames.
//!
//! The seed moves the details (which floor runs which population, which
//! client, sizes and rates within a band, every seed the documents carry)
//! and leaves the scale alone: the multiset of populations, the grid and
//! the horizons are fixed, so that two seeds cost about the same and the
//! spread of a timing across seeds stays small.

use std::fmt::Write as _;

/// SplitMix64: small, fast, fully specified.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a workload could notice.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A seed for a document field: 53 bits, so it survives any reader
    /// that goes through a double.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Full size, or shrunk so a whole workload takes well under a second
/// (`run --smoke`, and the unit tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

// ---------------------------------------------------------------------
// Campus workload documents
// ---------------------------------------------------------------------

/// Campus grid. Node numbers are arithmetic in the grid (see the workload
/// DSL): core 0, building `b`'s aggregation router at `1 + b·(F·(1+K)+1)`,
/// floor `f`'s router at `agg + 1 + f·(1+K)`, its `K` clients right after.
#[derive(Debug, Clone, Copy)]
pub struct CampusGrid {
    pub buildings: u32,
    pub floors: u32,
    pub clients: u32,
}

impl CampusGrid {
    pub fn of(size: Size) -> CampusGrid {
        match size {
            // 10 × (10 × (1 + 9) + 1) + 1 = 1011 nodes.
            Size::Full => CampusGrid { buildings: 10, floors: 10, clients: 9 },
            Size::Smoke => CampusGrid { buildings: 2, floors: 3, clients: 4 },
        }
    }

    pub fn floor_count(&self) -> u32 {
        self.buildings * self.floors
    }

    pub fn router(&self, floor_index: u32) -> u32 {
        let (b, f) = (floor_index / self.floors, floor_index % self.floors);
        let agg = 1 + b * (self.floors * (1 + self.clients) + 1);
        agg + 1 + f * (1 + self.clients)
    }
}

/// The populations a busy floor can run as its main traffic. The dense
/// campus uses a fixed number of floors of each (per hundred floors),
/// dealt to floors in a seeded order. All but `churn` are transfers of a
/// fixed size, so the frames an iteration moves barely depend on the link
/// capacities a seed happens to draw.
const DENSE_MIX: [(&str, u32); 5] = [
    ("request_response", 35),
    ("bulk_udp", 20),
    ("bulk_tcp", 15),
    ("elephant_mice", 15),
    ("churn", 15),
];

/// The quiet campus: a few floors of low-rate clients, the rest idle.
const SPARSE_MIX: [(&str, u32); 2] = [("telemetry", 5), ("request_response_slow", 3)];

/// Which campus document to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campus {
    Dense,
    Sparse,
}

impl Campus {
    pub fn name(self) -> &'static str {
        match self {
            Campus::Dense => "campus_dense",
            Campus::Sparse => "campus_sparse",
        }
    }

    /// Simulated horizon, seconds: sized so one iteration takes about two
    /// seconds of host time (see the README on how traffic was sized).
    pub fn horizon_secs(self, size: Size) -> f64 {
        match (self, size) {
            (Campus::Dense, Size::Full) => 80.0,
            (Campus::Dense, Size::Smoke) => 12.0,
            (Campus::Sparse, Size::Full) => 900.0,
            (Campus::Sparse, Size::Smoke) => 40.0,
        }
    }
}

/// One `[[clients]]` entry under construction.
struct Entry<'a> {
    doc: &'a mut String,
}

impl<'a> Entry<'a> {
    fn open(doc: &'a mut String, label: &str, src: u32, dst: u32, start: f64) -> Entry<'a> {
        let _ = write!(
            doc,
            "\n[[clients]]\nlabel = \"{label}\"\nsrc = {src}\ndst = {dst}\nstart = {start:?}\n"
        );
        Entry { doc }
    }

    fn kind(self, kind: &str) -> Self {
        let _ = writeln!(self.doc, "kind = \"{kind}\"");
        self
    }

    fn int(self, key: &str, v: u64) -> Self {
        let _ = writeln!(self.doc, "{key} = {v}");
        self
    }

    fn float(self, key: &str, v: f64) -> Self {
        let _ = writeln!(self.doc, "{key} = {v:?}");
        self
    }

    fn text(self, key: &str, v: &str) -> Self {
        let _ = writeln!(self.doc, "{key} = \"{v}\"");
        self
    }

    fn diurnal(self, period_secs: f64, amplitude: f64) {
        let _ = write!(
            self.doc,
            "\n[clients.diurnal]\nperiod_secs = {period_secs:?}\namplitude = {amplitude:?}\n"
        );
    }
}

/// Writes a campus workload document.
pub fn campus_doc(seed: u64, which: Campus, size: Size) -> String {
    let grid = CampusGrid::of(size);
    let horizon = which.horizon_secs(size);
    let mut rng = Rng::new(seed, which as u64 + 1);
    let floors = grid.floor_count();
    // Transfer sizes shrink with the horizon in smoke runs.
    let scale = match size {
        Size::Full => 1.0,
        Size::Smoke => 0.1,
    };
    let bytes =
        |rng: &mut Rng, lo_mb: f64, hi_mb: f64| (rng.range(lo_mb, hi_mb) * scale * 1e6) as u64;

    // The multiset of populations, scaled to the floor count, then dealt
    // to floors in a seeded order. Floors beyond the multiset stay idle.
    let mix: &[(&str, u32)] = match which {
        Campus::Dense => &DENSE_MIX,
        Campus::Sparse => &SPARSE_MIX,
    };
    let mut kinds: Vec<&str> = Vec::new();
    for &(kind, per_hundred) in mix {
        let n = (per_hundred * floors).div_ceil(100);
        kinds.extend(std::iter::repeat_n(kind, n as usize));
    }
    kinds.truncate(floors as usize);
    let mut order: Vec<u32> = (0..floors).collect();
    rng.shuffle(&mut order);

    let mut doc = String::new();
    let _ = write!(
        doc,
        "# generated by benchmark/src/gen.rs, seed {seed}\n\
         schema = 1\nname = \"{name}\"\n\n\
         [topology]\nkind = \"campus\"\nseed = {tseed}\nbuildings = {b}\n\
         floors_per_building = {f}\nclients_per_floor = {k}\n\n\
         [run]\nseed = {rseed}\nhorizon_secs = {horizon:?}\n",
        name = which.name(),
        tseed = rng.seed(),
        rseed = rng.seed(),
        b = grid.buildings,
        f = grid.floors,
        k = grid.clients,
    );

    for (i, kind) in kinds.iter().enumerate() {
        let floor = order[i];
        let src = grid.router(floor);
        // The floor's clients in a seeded order: a population spreads over
        // the first few, so no two of its entries share a pair.
        let mut clients: Vec<u32> = (1..=grid.clients).map(|c| src + c).collect();
        rng.shuffle(&mut clients);
        // Clients the campus generator attaches over one medium only (the
        // odd ones in generation order; the even ones are hybrid). Chains
        // of files go to these: at HEAD a chain stalls for good on a
        // two-route pair as soon as the reorder buffer releases, in one
        // batch, the rest of one file and all of the next (see the
        // README's readings). Single transfers and saturated flows use
        // any client, so multipath is still exercised.
        let single_route: Vec<u32> =
            clients.iter().copied().filter(|c| (c - src - 1) % 2 == 1).collect();
        let label = |part: usize| format!("f{floor}_{kind}_{part}");
        match *kind {
            "request_response" => {
                for (part, &dst) in single_route.iter().take(4).enumerate() {
                    Entry::open(&mut doc, &label(part), src, dst, rng.range(0.0, 3.0))
                        .kind("request_response")
                        .int("requests", if size == Size::Full { 8 } else { 3 })
                        .int("response_bytes", bytes(&mut rng, 2.0, 3.0))
                        .float("think_secs", rng.range(0.4, 0.8));
                }
            }
            "bulk_udp" => {
                for (part, &dst) in clients.iter().take(4).enumerate() {
                    Entry::open(&mut doc, &label(part), src, dst, rng.range(0.0, 3.0))
                        .kind("bulk")
                        .text("transport", "udp")
                        .int("size_bytes", bytes(&mut rng, 15.0, 25.0));
                }
            }
            "bulk_tcp" => {
                for (part, &dst) in clients.iter().take(3).enumerate() {
                    Entry::open(&mut doc, &label(part), src, dst, rng.range(0.0, 3.0))
                        .kind("bulk")
                        .text("transport", "tcp")
                        .int("size_bytes", bytes(&mut rng, 20.0, 30.0));
                }
            }
            "elephant_mice" => {
                // Few mice, far apart: a slow pair carrying many transfers
                // at once can stall one of them for good.
                for (part, &dst) in clients.iter().take(2).enumerate() {
                    Entry::open(&mut doc, &label(part), src, dst, rng.range(0.0, 3.0))
                        .kind("elephant_mice")
                        .int("elephants", 1)
                        .int("elephant_bytes", bytes(&mut rng, 3.0, 5.0))
                        .int("mice", 3)
                        .int("mouse_bytes", bytes(&mut rng, 0.3, 0.6))
                        .float("mean_gap_secs", 5.0)
                        .diurnal(20.0, 0.5);
                }
            }
            "churn" => {
                Entry::open(&mut doc, &label(0), src, clients[0], rng.range(0.0, 3.0))
                    .kind("churn")
                    .float("base_rate_per_sec", rng.range(0.4, 0.6))
                    .float("mean_session_secs", rng.range(1.0, 2.0))
                    .int("max_sessions", 4)
                    .diurnal(20.0, 0.5);
            }
            "telemetry" => {
                for (part, &dst) in single_route.iter().take(4).enumerate() {
                    Entry::open(&mut doc, &label(part), src, dst, rng.range(0.0, 3.0))
                        .kind("telemetry")
                        .float("period_secs", rng.range(0.48, 0.52))
                        .int("payload_bytes", rng.int(800, 1600));
                }
            }
            "request_response_slow" => {
                // Mean total 30 × 5 s = 150 s, far inside every horizon
                // that uses this population at full size.
                let (requests, think) = match size {
                    Size::Full => (30, rng.range(4.5, 5.5)),
                    Size::Smoke => (4, rng.range(1.0, 2.0)),
                };
                for (part, &dst) in single_route.iter().take(2).enumerate() {
                    Entry::open(&mut doc, &label(part), src, dst, rng.range(0.0, 3.0))
                        .kind("request_response")
                        .int("requests", requests)
                        .int("response_bytes", rng.int(50_000, 70_000))
                        .float("think_secs", think);
                }
            }
            other => unreachable!("population {other} is not in a mix"),
        }
        if which == Campus::Dense {
            // Every busy floor also sees a short saturated burst, the
            // paper's iperf run in miniature. Spread over all floors, the
            // capacity a seed draws for any one pair averages out.
            let window = rng.range(2.0, 4.0).min(horizon / 4.0);
            let start = rng.range(0.0, horizon - 2.0 * window);
            let dst = clients[clients.len() - 1];
            Entry::open(&mut doc, &format!("f{floor}_burst"), src, dst, start)
                .kind("closed_loop")
                .float("stop", start + window);
        }
    }
    doc
}

// ---------------------------------------------------------------------
// Fault scenarios
// ---------------------------------------------------------------------

/// Scenario documents of one iteration, and the simulated seconds each
/// covers. Several short scenarios on independently drawn topologies,
/// rather than one long one, so that the capacities one draw happens to
/// give its flows average out across the iteration.
fn scenario_shape(size: Size) -> (usize, f64) {
    match size {
        Size::Full => (24, 60.0),
        Size::Smoke => (2, 30.0),
    }
}

/// Flows per scenario: saturated UDP first, then TCP, all running to the
/// horizon. (Transfers of a fixed size would make the work independent of
/// the capacities drawn, but under flapping links every reroute restarts
/// the congestion controller and a transfer can crawl past any horizon.)
const SCENARIO_FLOWS: [&str; 5] = ["saturated", "saturated", "saturated", "tcp", "tcp"];

/// A flow is only placed on a pair whose installed routes promise at
/// least this much, Mbit/s: a flow on a nearly dead pair may deliver
/// nothing between two faults, which counts as a failed operation.
const SCENARIO_MIN_RATE_MBPS: f64 = 15.0;

/// Names the family of scenarios: topology draws and flow pairs.
const SCENARIO_FAMILY: u64 = 0x5ce0_fa41;

/// Writes the fault scenarios of one iteration.
///
/// The seed draws everything about the faults and the run: flapping
/// probabilities and dwell times, when the node crashes and for how long,
/// when each flow starts, and the seed of the engine, which also expands
/// the fault generators. The topologies and the flow pairs are a fixed
/// family instead, one per scenario index: a saturated flow delivers what
/// its routes' capacities allow, so drawing them per seed made goodput and
/// wall time spread by 15-20 % across seeds even over 24 scenarios, where
/// the fixed family spreads by 1 %.
///
/// Faults only matter on links that carry traffic, so this is the one
/// generator that looks at the program: it builds the enterprise topology
/// the document names, asks the routing facade which routes each flow will
/// get installed, and places the flapping links and the crashing node on
/// them. The program still receives nothing but the text.
pub fn scenario_docs(seed: u64, size: Size) -> Vec<String> {
    use empower_core::{RunConfig, Scheme};
    use empower_model::rng::{SeedableRng, StdRng};
    use empower_model::topology::enterprise;
    use empower_model::{CarrierSense, InterferenceModel, NodeId};

    let (docs, horizon) = scenario_shape(size);
    let mut rng = Rng::new(seed, 0x5ce);
    (0..docs)
        .map(|i| {
            // Scenario `i` always plays on the same topology between the
            // same pairs, whatever the seed: see the function's comment.
            let mut family = Rng::new(SCENARIO_FAMILY, i as u64);
            let topo_seed = family.seed();
            let topo = enterprise(&mut StdRng::seed_from_u64(topo_seed));
            let imap = CarrierSense::default().build_map(&topo.net);
            let config = RunConfig::new(Scheme::Empower);
            let nodes = topo.net.node_count() as u64;

            // Connected pairs with a hybrid source, no pair twice.
            let mut flows: Vec<(NodeId, NodeId, Vec<empower_model::Path>)> = Vec::new();
            while flows.len() < SCENARIO_FLOWS.len() {
                let src = topo.hybrid_nodes[family.below(topo.hybrid_nodes.len() as u64) as usize];
                let dst = NodeId(family.below(nodes) as u32);
                if src == dst || flows.iter().any(|f| (f.0, f.1) == (src, dst)) {
                    continue;
                }
                match config.routes(&topo.net, &imap, src, dst) {
                    Ok(routes) if routes.total_rate() >= SCENARIO_MIN_RATE_MBPS => {
                        flows.push((src, dst, routes.paths()));
                    }
                    _ => {}
                }
            }

            let mut doc = String::new();
            let _ = write!(
                doc,
                "# generated by benchmark/src/gen.rs, seed {seed}, scenario {i}\n\
                 schema = 1\nname = \"faults_{i}\"\n\n\
                 [topology]\nkind = \"enterprise\"\nseed = {topo_seed}\n\n\
                 [run]\nscheme = \"EMPoWER\"\nseed = {run_seed}\nhorizon_secs = {horizon:?}\n\
                 poll_secs = 0.5\nrecovery_fraction = 0.6\n",
                run_seed = rng.seed(),
            );
            for ((src, dst, _), pattern) in flows.iter().zip(SCENARIO_FLOWS) {
                let _ = write!(
                    doc,
                    "\n[[flows]]\nsrc = {}\ndst = {}\npattern = \"{pattern}\"\nstart = {:?}\nstop = {horizon:?}\n",
                    src.0,
                    dst.0,
                    rng.range(0.0, 2.0),
                );
            }

            // Gilbert–Elliott flapping on the first hop of the first
            // flow's first route, Markov on/off on the last hop of the
            // second flow's last route.
            let first_hop = flows[0].2[0].links()[0].0;
            let last_route = flows[1].2.last().expect("a connected flow has a route");
            let last_hop = last_route.links().last().expect("a route has a hop").0;
            let _ = write!(
                doc,
                "\n[[generators]]\nkind = \"gilbert_elliott\"\nlink = {first_hop}\nstep_secs = 1.0\n\
                 p_bad = {:?}\np_good = {:?}\nbad_factor = {:?}\nfrom = 3.0\n\
                 \n[[generators]]\nkind = \"markov_onoff\"\nlink = {last_hop}\n\
                 mean_up_secs = {:?}\nmean_down_secs = {:?}\nfrom = 3.0\n",
                rng.range(0.15, 0.25),
                rng.range(0.3, 0.5),
                rng.range(0.2, 0.4),
                rng.range(0.15, 0.25) * horizon,
                rng.range(0.03, 0.06) * horizon,
            );

            // One crash and recovery: a relay some flow goes through, or
            // failing that any node that is no flow's endpoint.
            let endpoint = |n: NodeId| flows.iter().any(|f| f.0 == n || f.1 == n);
            let relay = flows
                .iter()
                .flat_map(|f| f.2.iter())
                .flat_map(|p| p.nodes(&topo.net))
                .find(|&n| !endpoint(n));
            let spare = (0..nodes as u32).map(NodeId).find(|&n| !endpoint(n));
            if let Some(node) = relay.or(spare) {
                let down = rng.range(0.3, 0.4) * horizon;
                let up = down + rng.range(0.1, 0.15) * horizon;
                let _ = write!(
                    doc,
                    "\n[[events]]\nat = {down:?}\nkind = \"node_down\"\nnode = {n}\n\
                     \n[[events]]\nat = {up:?}\nkind = \"node_up\"\nnode = {n}\n",
                    n = node.0,
                );
            }
            doc
        })
        .collect()
}

// ---------------------------------------------------------------------
// Route evaluation
// ---------------------------------------------------------------------

/// One network of `route_eval` with the flows evaluated on it.
#[derive(Debug, Clone)]
pub struct EvalCase {
    /// `testbed`, `residential` or `enterprise`, and the family index.
    pub label: String,
    pub net: empower_model::Network,
    pub flows: Vec<(empower_model::NodeId, empower_model::NodeId)>,
}

/// The inputs of `route_eval`: the testbed, whose ordered pairs are all
/// queried, and the topologies every scheme is evaluated on.
#[derive(Debug, Clone)]
pub struct RouteEvalInputs {
    pub testbed: EvalCase,
    pub topologies: Vec<EvalCase>,
}

/// Names the family of evaluation topologies and their flows.
const EVAL_FAMILY: u64 = 0xe7a1_fa41;
/// The capacity draw the repository's testbed experiments are reported on
/// (EXPERIMENTS.md, Table 1: "seed 1").
pub const TESTBED_SEED: u64 = 1;
/// Every link capacity is scaled by a seeded factor within this band.
const CAPACITY_JITTER: f64 = 0.05;

/// The networks are a fixed family — the testbed the repository's
/// experiments use, and alternating residential and enterprise draws with
/// three flows each — measured anew per seed: every link capacity moves by
/// up to ±5 %, as between two measurement campaigns on one floor. Routes
/// and rates follow the capacities, so two seeds give different answers,
/// while the searches cost about the same. Drawing the topologies per seed
/// instead spread wall time by 18 % and the mean rate by 9 % across seeds.
pub fn route_eval_inputs(seed: u64, size: Size) -> RouteEvalInputs {
    use empower_model::rng::{SeedableRng, StdRng};
    use empower_model::topology::{enterprise, residential, testbed22};
    use empower_model::{LinkId, Network, NodeId};

    let mut rng = Rng::new(seed, 0x207e);
    let mut measured = |mut net: Network| {
        for l in 0..net.link_count() as u32 {
            let cap = net.link(LinkId(l)).capacity_mbps;
            net.set_capacity(
                LinkId(l),
                cap * rng.range(1.0 - CAPACITY_JITTER, 1.0 + CAPACITY_JITTER),
            );
        }
        net
    };

    let net = measured(testbed22(TESTBED_SEED).net);
    let n = net.node_count() as u32;
    let pairs =
        (0..n).flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d)))).filter(|(s, d)| s != d);
    // 22 × 21 = 462 ordered pairs, or the first two sources' in a smoke run.
    let (queries, count) = match size {
        Size::Full => (usize::MAX, 30),
        Size::Smoke => (42, 2),
    };
    let testbed = EvalCase { label: "testbed".into(), flows: pairs.take(queries).collect(), net };

    let topologies = (0..count)
        .map(|i| {
            let mut family = StdRng::seed_from_u64(Rng::new(EVAL_FAMILY, i).seed());
            let (class, topo) = if i % 2 == 0 {
                ("residential", residential(&mut family))
            } else {
                ("enterprise", enterprise(&mut family))
            };
            let flows = (0..3).map(|_| topo.sample_flow(&mut family)).collect();
            EvalCase { label: format!("{class} {i}"), net: measured(topo.net), flows }
        })
        .collect();
    RouteEvalInputs { testbed, topologies }
}

// ---------------------------------------------------------------------
// Datapath frames
// ---------------------------------------------------------------------

/// One phase of `datapath_forward`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardPhase {
    pub name: &'static str,
    pub payload_bytes: usize,
    /// The wire loses every `k`-th frame (0 = none).
    pub drop_every: u64,
    /// Virtual seconds between offers. With the scheduler's rates this
    /// decides how many offers the token bucket refuses.
    pub offer_gap_secs: f64,
}

/// The inputs of `datapath_forward`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardInputs {
    /// Interface ids of the two source routes, hop by hop.
    pub routes: [Vec<u16>; 2],
    /// Path price stamped on frames of each route.
    pub route_price: [f64; 2],
    /// Seed of the route scheduler's generator.
    pub scheduler_seed: u64,
    /// Payload bytes; frame `i` carries `payload[i % len ..][..size]`.
    pub payload: Vec<u8>,
    pub frames_per_phase: u64,
    pub phases: [ForwardPhase; 4],
}

/// Rates the scheduler admits on the two routes, Mbit/s.
pub const FORWARD_RATES_MBPS: [f64; 2] = [4.0, 4.0];
/// Header bytes in front of every payload.
const FORWARD_HEADER_BYTES: usize = 20;

pub fn forward_inputs(seed: u64, size: Size) -> ForwardInputs {
    let mut rng = Rng::new(seed, 0xda7a);
    let mut route = |hops: u64| (0..hops).map(|_| rng.int(1, u64::from(u16::MAX)) as u16).collect();
    let routes = [route(2), route(3)];
    let route_price = [rng.range(0.1, 0.5), rng.range(0.1, 0.5)];
    let scheduler_seed = rng.seed();
    let payload = (0..4096).map(|_| rng.next_u64() as u8).collect();

    // Offers arrive at a fixed share of what the two routes admit: nine
    // tenths, so the bucket refuses nothing, or twice as much, so it
    // refuses about half.
    let admitted_bps = FORWARD_RATES_MBPS.iter().sum::<f64>() * 1e6;
    let gap = |payload_bytes: usize, load: f64| {
        ((FORWARD_HEADER_BYTES + payload_bytes) * 8) as f64 / (load * admitted_bps)
    };
    let phase = |name, payload_bytes, drop_every, load| ForwardPhase {
        name,
        payload_bytes,
        drop_every,
        offer_gap_secs: gap(payload_bytes, load),
    };
    ForwardInputs {
        routes,
        route_price,
        scheduler_seed,
        payload,
        // 25 more than a multiple of the loss period, so the last frame
        // the wire loses is followed by frames on both routes and the
        // destination can still declare it lost.
        frames_per_phase: match size {
            Size::Full => 2_000_025,
            Size::Smoke => 20_025,
        },
        phases: [
            phase("small", 16, 0, 0.9),
            phase("small_lossy", 16, 50, 0.9),
            phase("large", 1400, 0, 0.9),
            phase("small_refused", 16, 0, 2.0),
        ],
    }
}
