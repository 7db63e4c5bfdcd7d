//! The one document: a topology, a run configuration, the traffic — hand-
//! routed `[[clients]]` populations and scheme-routed `[[flows]]` — and a
//! timeline of scripted `[[events]]` and seeded `[[generators]]`.
//!
//! A document is data, not code — it can be hand-written as TOML (or
//! JSON), checked into `examples/`, diffed, and replayed bit-identically.
//! [`crate::lower`] builds its topology and expands its clients into
//! flows, [`crate::injector::compile`] turns its timeline into concrete
//! capacity events on a given network, and [`crate::driver`] runs it on
//! either packet engine ([`crate::fluid::fluid_timeline`] on the fluid
//! evaluator). See DESIGN.md §6 for the grammar.

use empower_core::Scheme;
use empower_telemetry::Json;

use crate::schema::{
    arr_of, check_schema_version, join, opt_bool, opt_f64, opt_str, opt_u32, opt_u64, opt_u8,
    parse_document, req_f64, req_str, req_u32, req_u64, serr,
};
use crate::toml;

/// The schema version this crate reads and writes. Parsing rejects files
/// with a different major version instead of misreading them.
pub const SCHEMA_VERSION: u64 = 1;

/// The most simulator flows plus chained files one document may expand
/// into. [`crate::lower::compile`] allocates per flow, and per file of a
/// `request_response` or `telemetry` chain (the chain pre-draws each file's
/// ready time), so a finite but tiny value — `period_secs = 1e-300`, a
/// `requests`, `mice` or `count` in the billions — would ask for gigabytes.
/// The bound is checked before anything is allocated.
pub const MAX_EXPANSION: u64 = 100_000;

/// A parse/validation error with a dotted path to the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Dotted path of the field (`events[2].link`), empty for
    /// document-level errors.
    pub path: String,
    pub message: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "scenario: {}", self.message)
        } else {
            write!(f, "scenario: {}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which base topology the document runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The paper's Fig. 1 three-node chain (0 = gateway, 1 = extender,
    /// 2 = client).
    Fig1,
    /// A random residential-class topology (§5.2).
    Residential,
    /// A random enterprise-class topology (§5.2).
    Enterprise,
    /// The sampled 22-node office testbed (§6). Clients name nodes by the
    /// paper's numbers `1..=22`; flows by raw node index.
    Testbed,
    /// A generated hierarchical campus (`empower_model::topology::campus`)
    /// with the given grid. Nodes are raw generation-order indices, which
    /// are pure arithmetic in the grid: the core is 0; building `b` starts
    /// at `1 + b·(F·(1+K)+1)` with its aggregation router; floor `f` of
    /// that building has its router at `agg + 1 + f·(1+K)` followed by its
    /// `K` clients in order.
    Campus { buildings: u32, floors_per_building: u32, clients_per_floor: u32 },
}

impl TopologyKind {
    /// The on-disk label.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Fig1 => "fig1",
            TopologyKind::Residential => "residential",
            TopologyKind::Enterprise => "enterprise",
            TopologyKind::Testbed => "testbed",
            TopologyKind::Campus { .. } => "campus",
        }
    }

    /// Total campus node count (`None` for the other kinds).
    pub fn campus_node_count(self) -> Option<u64> {
        let TopologyKind::Campus { buildings, floors_per_building, clients_per_floor } = self
        else {
            return None;
        };
        let per_building = u64::from(floors_per_building) * (1 + u64::from(clients_per_floor));
        Some(u64::from(buildings) * (per_building + 1) + 1)
    }
}

/// `[topology]`: the network the document runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    pub kind: TopologyKind,
    /// Seed of the generated and sampled layouts (ignored by `fig1`).
    pub seed: u64,
}

impl TopologySpec {
    fn from_table(topo: &Json, path: &str) -> Result<TopologySpec, ScenarioError> {
        // A campus grid dimension: optional, positive.
        let dim = |key: &str, default: u32| match opt_u32(topo, key, path)?.unwrap_or(default) {
            0 => serr(join(path, key), "must be at least 1"),
            n => Ok(n),
        };
        let kind = match req_str(topo, "kind", path)? {
            "fig1" => TopologyKind::Fig1,
            "residential" => TopologyKind::Residential,
            "enterprise" => TopologyKind::Enterprise,
            "testbed" => TopologyKind::Testbed,
            "campus" => TopologyKind::Campus {
                buildings: dim("buildings", 2)?,
                floors_per_building: dim("floors_per_building", 2)?,
                clients_per_floor: dim("clients_per_floor", 4)?,
            },
            other => {
                return serr(
                    join(path, "kind"),
                    format!(
                        "unknown topology kind {other:?} \
                         (fig1|residential|enterprise|testbed|campus)"
                    ),
                )
            }
        };
        Ok(TopologySpec { kind, seed: opt_u64(topo, "seed", path)?.unwrap_or(1) })
    }

    fn to_json(self) -> Json {
        let mut o = vec![
            ("kind".to_string(), Json::Str(self.kind.label().into())),
            ("seed".to_string(), Json::UInt(self.seed)),
        ];
        if let TopologyKind::Campus { buildings, floors_per_building, clients_per_floor } =
            self.kind
        {
            o.push(("buildings".into(), Json::UInt(buildings.into())));
            o.push(("floors_per_building".into(), Json::UInt(floors_per_building.into())));
            o.push(("clients_per_floor".into(), Json::UInt(clients_per_floor.into())));
        }
        Json::Obj(o)
    }
}

/// `[run]`: how the document is executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Scheme that routes the `[[flows]]` (paper label, default
    /// `"EMPoWER"`).
    pub scheme: Scheme,
    /// Master seed (default 1): the engine RNG, every client's traffic
    /// generator and every fault generator derive from it.
    pub seed: u64,
    /// Simulated duration, seconds.
    pub horizon_secs: f64,
    /// Route-monitor polling period, seconds (§3.2's infrequent check).
    pub poll_secs: f64,
    /// Constraint margin δ (§4.3).
    pub delta: f64,
    /// Fraction of the pre-fault baseline throughput that counts as
    /// "reconverged" (see `crate::resilience`).
    pub recovery_fraction: f64,
    /// Capacity-estimation noise (`SimConfig::estimation_rel_std`).
    pub noise: f64,
}

impl RunSpec {
    fn from_table(run: &Json) -> Result<RunSpec, ScenarioError> {
        let scheme = match opt_str(run, "scheme", "run")? {
            None => Scheme::Empower,
            Some(label) => Scheme::from_label(label).ok_or_else(|| ScenarioError {
                path: "run.scheme".into(),
                message: format!("unknown scheme {label:?}"),
            })?,
        };
        Ok(RunSpec {
            scheme,
            seed: opt_u64(run, "seed", "run")?.unwrap_or(1),
            horizon_secs: req_f64(run, "horizon_secs", "run")?,
            poll_secs: opt_f64(run, "poll_secs", "run")?.unwrap_or(0.5),
            delta: opt_f64(run, "delta", "run")?.unwrap_or(0.0),
            recovery_fraction: opt_f64(run, "recovery_fraction", "run")?.unwrap_or(0.9),
            noise: opt_f64(run, "noise", "run")?.unwrap_or(0.0),
        })
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("scheme", Json::Str(self.scheme.label().into())),
            ("seed", Json::UInt(self.seed)),
            ("horizon_secs", Json::Float(self.horizon_secs)),
            ("poll_secs", Json::Float(self.poll_secs)),
            ("delta", Json::Float(self.delta)),
            ("recovery_fraction", Json::Float(self.recovery_fraction)),
            ("noise", Json::Float(self.noise)),
        ])
    }
}

/// `[[flows]]`: one traffic source, routed by `run.scheme` and watched by
/// a route monitor while the timeline unfolds.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    pub src: u32,
    pub dst: u32,
    pub pattern: PatternSpec,
}

/// The traffic pattern of a `[[flows]]` entry.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternSpec {
    /// Backlogged UDP between `start` and `stop`.
    Saturated { start: f64, stop: f64 },
    /// One file download of `size_bytes` starting at `start`.
    File { start: f64, size_bytes: u64 },
    /// TCP between `start` and `stop` (`size_bytes = 0` = unbounded).
    Tcp { start: f64, stop: f64, size_bytes: u64 },
}

/// Optional diurnal modulation of an arrival process: the instantaneous
/// rate is `base * (1 + amplitude * sin(2π (t - start) / period_secs))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    pub period_secs: f64,
    /// In `[0, 1]`; 0 disables the modulation.
    pub amplitude: f64,
}

/// The traffic primitive a client runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientKind {
    /// Fixed-rate open-loop injection (no congestion control) on the
    /// first route.
    OpenLoop { rate_mbps: f64, stop: Option<f64> },
    /// A saturated congestion-controlled source (the paper's iperf runs).
    ClosedLoop { stop: Option<f64> },
    /// A closed-loop request/response exchange: `requests` sequential
    /// responses of `response_bytes`, the next request issued a seeded
    /// `Exp(think_secs)` after the previous response finished.
    RequestResponse { requests: u32, response_bytes: u64, think_secs: f64 },
    /// A bulk transfer: TCP (delay-equalized) when `tcp`, otherwise a UDP
    /// file download. `size_bytes = 0` (TCP only) runs to the horizon.
    Bulk { size_bytes: u64, tcp: bool },
    /// IoT telemetry: periodic `payload_bytes` readings every
    /// `period_secs` on average (duty-cycle jitter is exponential), from
    /// `start` to the horizon.
    Telemetry { period_secs: f64, payload_bytes: u64 },
    /// A heavy-tailed mix: `elephants` long TCP transfers plus `mice`
    /// short downloads arriving with seeded `Exp(mean_gap_secs)` gaps
    /// (optionally diurnally modulated).
    ElephantMice {
        elephants: u32,
        elephant_bytes: u64,
        mice: u32,
        mouse_bytes: u64,
        mean_gap_secs: f64,
    },
    /// Session churn: clients arrive as a (optionally diurnal) Poisson
    /// process of `base_rate_per_sec`, each running a saturated flow for
    /// an `Exp(mean_session_secs)` lifetime, capped at `max_sessions`.
    Churn { base_rate_per_sec: f64, mean_session_secs: f64, max_sessions: u32 },
}

impl ClientKind {
    /// The on-disk `kind` label.
    pub fn label(&self) -> &'static str {
        match self {
            ClientKind::OpenLoop { .. } => "open_loop",
            ClientKind::ClosedLoop { .. } => "closed_loop",
            ClientKind::RequestResponse { .. } => "request_response",
            ClientKind::Bulk { .. } => "bulk",
            ClientKind::Telemetry { .. } => "telemetry",
            ClientKind::ElephantMice { .. } => "elephant_mice",
            ClientKind::Churn { .. } => "churn",
        }
    }

    /// Whether the `count` replication knob applies to this kind (the
    /// population kinds size themselves).
    pub fn replicable(&self) -> bool {
        !matches!(self, ClientKind::ElephantMice { .. } | ClientKind::Churn { .. })
    }

    /// Whether `[clients.diurnal]` modulation is meaningful for this kind.
    pub fn supports_diurnal(&self) -> bool {
        matches!(self, ClientKind::ElephantMice { .. } | ClientKind::Churn { .. })
    }
}

/// `[[clients]]`: a traffic primitive bound to an endpoint pair over
/// hand-built routes (`crate::lower::routes_for`); no route monitor
/// watches it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// Stable label for SLO reporting (defaults to `client<index>`).
    pub label: Option<String>,
    /// Source node (Fig. 1 index, testbed paper number or campus index).
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Optional WiFi relay node for testbed routes.
    pub via: Option<u32>,
    /// Parallel instances of this client (replicable kinds only).
    pub count: u32,
    /// When the client starts, seconds.
    pub start: f64,
    pub kind: ClientKind,
    pub diurnal: Option<Diurnal>,
}

/// `[[events]]`: one scripted perturbation at an absolute time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedPerturbation {
    /// When the perturbation fires, seconds.
    pub at: f64,
    pub what: Perturbation,
}

/// The perturbation vocabulary.
///
/// Link-addressed variants take a directed link id; with `both = true`
/// (the default in the serialized form) the reverse twin changes too,
/// which is what physical-medium degradation does.
#[derive(Debug, Clone, PartialEq)]
pub enum Perturbation {
    /// Step a link to an absolute capacity.
    Capacity { link: u32, capacity_mbps: f64, both: bool },
    /// Take a link down (capacity 0).
    LinkDown { link: u32, both: bool },
    /// Bring a link back up, at `capacity_mbps` or (None) whatever it had
    /// when the scenario started.
    LinkUp { link: u32, capacity_mbps: Option<f64>, both: bool },
    /// Crash a node: all adjacent links go down.
    NodeDown { node: u32 },
    /// Recover a crashed node: adjacent links return at pre-crash
    /// capacity.
    NodeUp { node: u32 },
    /// A PLC noise burst: every PLC link in the interference domain of
    /// `domain_of` (or *all* PLC links if None) is scaled by `factor` for
    /// `duration_secs`, then restored. Models the §2 electrical-appliance
    /// interference.
    PlcNoise { factor: f64, duration_secs: f64, domain_of: Option<u32> },
    /// An external WiFi interference window: like [`Perturbation::PlcNoise`]
    /// but for WiFi links, optionally restricted to one channel (1 or 2).
    WifiJam { factor: f64, duration_secs: f64, channel: Option<u8>, domain_of: Option<u32> },
    /// Linear capacity drift from the current value to `to_mbps` over
    /// `over_secs`, discretized into `steps` equal steps.
    Drift { link: u32, to_mbps: f64, over_secs: f64, steps: u32, both: bool },
}

impl Perturbation {
    /// Stable lowercase tag used in the serialized `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Perturbation::Capacity { .. } => "capacity",
            Perturbation::LinkDown { .. } => "link_down",
            Perturbation::LinkUp { .. } => "link_up",
            Perturbation::NodeDown { .. } => "node_down",
            Perturbation::NodeUp { .. } => "node_up",
            Perturbation::PlcNoise { .. } => "plc_noise",
            Perturbation::WifiJam { .. } => "wifi_jam",
            Perturbation::Drift { .. } => "drift",
        }
    }
}

/// `[[generators]]`: a seeded stochastic perturbation source, expanded
/// deterministically at compile time (same seed → same event list).
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorSpec {
    /// Markov on/off link churn: exponential up-times of mean
    /// `mean_up_secs`, exponential outages of mean `mean_down_secs`.
    MarkovOnOff {
        link: u32,
        mean_up_secs: f64,
        mean_down_secs: f64,
        from: f64,
        until: Option<f64>,
        both: bool,
    },
    /// Gilbert–Elliott capacity flapping: each `step_secs` the link moves
    /// between a good state (nominal capacity) and a bad state (capacity ×
    /// `bad_factor`) with transition probabilities `p_bad` (good → bad) and
    /// `p_good` (bad → good).
    GilbertElliott {
        link: u32,
        step_secs: f64,
        p_bad: f64,
        p_good: f64,
        bad_factor: f64,
        from: f64,
        until: Option<f64>,
        both: bool,
    },
}

impl GeneratorSpec {
    /// Stable lowercase tag used in the serialized `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            GeneratorSpec::MarkovOnOff { .. } => "markov_onoff",
            GeneratorSpec::GilbertElliott { .. } => "gilbert_elliott",
        }
    }
}

/// A complete document.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub topology: TopologySpec,
    pub run: RunSpec,
    pub clients: Vec<ClientSpec>,
    pub flows: Vec<FlowSpec>,
    pub events: Vec<TimedPerturbation>,
    pub generators: Vec<GeneratorSpec>,
}

impl Scenario {
    /// Parses a document from TOML or JSON (auto-detected: JSON documents
    /// start with `{`).
    pub fn parse_str(text: &str) -> Result<Scenario, ScenarioError> {
        Scenario::from_json(&parse_document(text)?)
    }

    /// Serializes to TOML (the canonical on-disk form).
    pub fn to_toml(&self) -> String {
        toml::to_toml_string(&self.to_json())
    }

    /// Serializes to the JSON tree ([`Scenario::from_json`]'s inverse).
    pub fn to_json(&self) -> Json {
        let mut top: Vec<(String, Json)> = vec![
            ("schema".into(), Json::UInt(SCHEMA_VERSION)),
            ("name".into(), Json::Str(self.name.clone())),
            ("topology".into(), self.topology.to_json()),
            ("run".into(), self.run.to_json()),
        ];
        let arrays = [
            ("clients", self.clients.iter().map(client_to_json).collect::<Vec<_>>()),
            ("flows", self.flows.iter().map(flow_to_json).collect()),
            ("events", self.events.iter().map(event_to_json).collect()),
            ("generators", self.generators.iter().map(generator_to_json).collect()),
        ];
        for (key, items) in arrays {
            if !items.is_empty() {
                top.push((key.into(), Json::Arr(items)));
            }
        }
        Json::Obj(top)
    }

    /// Builds a document from a JSON tree (as produced by the TOML parser
    /// or [`Json::parse`]).
    pub fn from_json(doc: &Json) -> Result<Scenario, ScenarioError> {
        check_schema_version(doc, SCHEMA_VERSION)?;
        let table = |key: &str| {
            doc.get(key).ok_or_else(|| ScenarioError {
                path: key.into(),
                message: format!("missing [{key}] table"),
            })
        };
        let s = Scenario {
            name: req_str(doc, "name", "")?.to_string(),
            topology: TopologySpec::from_table(table("topology")?, "topology")?,
            run: RunSpec::from_table(table("run")?)?,
            clients: arr_of(doc, "clients", client_from_json)?,
            flows: arr_of(doc, "flows", flow_from_json)?,
            events: arr_of(doc, "events", event_from_json)?,
            generators: arr_of(doc, "generators", generator_from_json)?,
        };
        s.validate()?;
        Ok(s)
    }

    /// The resolved SLO label of client `i`.
    pub fn client_label(&self, i: usize) -> String {
        match &self.clients[i].label {
            Some(l) => l.clone(),
            None => format!("client{i}"),
        }
    }

    /// Structural validation that needs no network: a finite positive
    /// horizon and poll period, sane fractions, traffic that starts at a
    /// finite time ≥ 0 and stops no earlier, positive rates and sizes,
    /// client endpoints within the topology, non-negative times and
    /// capacities on the timeline.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let r = &self.run;
        // An infinite horizon or poll period never ends the run.
        if !positive(r.horizon_secs) {
            return serr("run.horizon_secs", "must be a finite number > 0");
        }
        if !positive(r.poll_secs) {
            return serr("run.poll_secs", "must be a finite number > 0");
        }
        // Eq. (3) leaves `1 − δ` of every domain's airtime to the flows: a
        // margin of 1 or more leaves nothing, NaN leaves nonsense.
        if !(0.0..1.0).contains(&r.delta) {
            return serr("run.delta", "must be in [0, 1)");
        }
        if !(0.0..=1.0).contains(&r.recovery_fraction) {
            return serr("run.recovery_fraction", "must be in [0, 1]");
        }
        if !non_negative(r.noise) {
            return serr("run.noise", "must be a finite number ≥ 0");
        }
        if self.clients.is_empty() && self.flows.is_empty() {
            return serr("flows", "a document needs at least one [[flows]] or [[clients]] entry");
        }
        for (i, c) in self.clients.iter().enumerate() {
            validate_client(c, self.topology.kind, &format!("clients[{i}]"))?;
        }
        self.check_expansion()?;
        for (i, f) in self.flows.iter().enumerate() {
            let path = format!("flows[{i}]");
            match f.pattern {
                PatternSpec::Saturated { start, stop } | PatternSpec::Tcp { start, stop, .. } => {
                    window(&path, start, Some(stop))?;
                }
                PatternSpec::File { size_bytes: 0, .. } => {
                    return serr(join(&path, "size_bytes"), "UDP file transfers need a size > 0");
                }
                PatternSpec::File { start, .. } => window(&path, start, None)?,
            }
        }
        for (i, e) in self.events.iter().enumerate() {
            let p = |key: &str| format!("events[{i}].{key}");
            if !non_negative(e.at) {
                return serr(p("at"), "must be a finite time ≥ 0");
            }
            match &e.what {
                Perturbation::Capacity { capacity_mbps: c, .. }
                | Perturbation::LinkUp { capacity_mbps: Some(c), .. }
                    if !non_negative(*c) =>
                {
                    return serr(p("capacity_mbps"), "must be a finite number ≥ 0");
                }
                Perturbation::PlcNoise { factor, duration_secs, .. }
                | Perturbation::WifiJam { factor, duration_secs, .. } => {
                    if !(0.0..=1.0).contains(factor) {
                        return serr(p("factor"), "must be in [0, 1]");
                    }
                    if !positive(*duration_secs) {
                        return serr(p("duration_secs"), "must be > 0");
                    }
                }
                Perturbation::Drift { to_mbps, over_secs, steps, .. } => {
                    if !non_negative(*to_mbps) {
                        return serr(p("to_mbps"), "must be a finite number ≥ 0");
                    }
                    if !positive(*over_secs) {
                        return serr(p("over_secs"), "must be > 0");
                    }
                    if *steps == 0 {
                        return serr(p("steps"), "must be ≥ 1");
                    }
                }
                _ => {}
            }
        }
        for (i, g) in self.generators.iter().enumerate() {
            let path = format!("generators[{i}]");
            match g {
                GeneratorSpec::MarkovOnOff { mean_up_secs, mean_down_secs, .. } => {
                    if !positive(*mean_up_secs) || !positive(*mean_down_secs) {
                        return serr(path, "mean times must be > 0");
                    }
                }
                GeneratorSpec::GilbertElliott { step_secs, p_bad, p_good, bad_factor, .. } => {
                    if !positive(*step_secs) {
                        return serr(join(&path, "step_secs"), "must be > 0");
                    }
                    if !(0.0..=1.0).contains(p_bad) || !(0.0..=1.0).contains(p_good) {
                        return serr(path, "probabilities must be in [0, 1]");
                    }
                    if !(0.0..=1.0).contains(bad_factor) {
                        return serr(join(&path, "bad_factor"), "must be in [0, 1]");
                    }
                }
            }
        }
        Ok(())
    }

    /// Holds the flows and chained files the document expands into to
    /// [`MAX_EXPANSION`], counted in `f64` so that no product saturates.
    /// The error names the client that crosses the bound and the key that
    /// sizes it.
    pub(crate) fn check_expansion(&self) -> Result<(), ScenarioError> {
        let mut total = self.flows.len() as f64;
        for (i, c) in self.clients.iter().enumerate() {
            let (per_instance, key) = match c.kind {
                ClientKind::OpenLoop { .. }
                | ClientKind::ClosedLoop { .. }
                | ClientKind::Bulk { .. } => (1.0, "count"),
                ClientKind::RequestResponse { requests, .. } => (f64::from(requests), "requests"),
                ClientKind::Telemetry { period_secs, .. } => {
                    let span = (self.run.horizon_secs - c.start).max(0.0);
                    ((span / period_secs).ceil().max(1.0), "period_secs")
                }
                ClientKind::ElephantMice { elephants, mice, .. } => {
                    let key = if mice >= elephants { "mice" } else { "elephants" };
                    (f64::from(elephants) + f64::from(mice), key)
                }
                ClientKind::Churn { max_sessions, .. } => (f64::from(max_sessions), "max_sessions"),
            };
            let count = f64::from(c.count);
            let key = if count > per_instance { "count" } else { key };
            total += count * per_instance;
            // A NaN period makes the total NaN, which fails too.
            if total.is_nan() || total > MAX_EXPANSION as f64 {
                return serr(
                    format!("clients[{i}].{key}"),
                    format!(
                        "the document expands to {total:.3e} flows and chained files by this \
                         client; at most {MAX_EXPANSION} are allowed"
                    ),
                );
            }
        }
        Ok(())
    }
}

/// Strictly positive and finite; NaN fails.
fn positive(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

/// Finite and ≥ 0; NaN fails.
fn non_negative(x: f64) -> bool {
    x >= 0.0 && x.is_finite()
}

/// A traffic window: `start` finite and ≥ 0, `stop` (when given) finite
/// and no earlier than `start`.
fn window(path: &str, start: f64, stop: Option<f64>) -> Result<(), ScenarioError> {
    if !non_negative(start) {
        return serr(join(path, "start"), "must be a finite time ≥ 0");
    }
    match stop {
        Some(stop) if !(stop >= start && stop.is_finite()) => {
            serr(join(path, "stop"), "must be a finite time no earlier than start")
        }
        _ => Ok(()),
    }
}

fn validate_client(c: &ClientSpec, topo: TopologyKind, path: &str) -> Result<(), ScenarioError> {
    let at = |key: &str| join(path, key);
    match topo {
        TopologyKind::Fig1 if !matches!((c.src, c.dst), (0, 2) | (0, 1) | (1, 2)) => {
            return serr(
                at("src"),
                format!(
                    "fig1 supports the downstream pairs 0→2, 0→1, 1→2 (got {}→{})",
                    c.src, c.dst
                ),
            );
        }
        TopologyKind::Residential | TopologyKind::Enterprise => {
            return serr(
                path,
                format!(
                    "client routes exist for fig1, testbed and campus only, not {}; \
                     use [[flows]]",
                    topo.label()
                ),
            );
        }
        TopologyKind::Testbed => {
            for (key, n) in [("src", Some(c.src)), ("dst", Some(c.dst)), ("via", c.via)] {
                if n.is_some_and(|n| !(1..=22).contains(&n)) {
                    return serr(at(key), "testbed nodes are 1..=22");
                }
            }
        }
        _ => {}
    }
    if let Some(n) = topo.campus_node_count() {
        for (key, v) in [("src", c.src), ("dst", c.dst)] {
            if u64::from(v) >= n {
                return serr(at(key), format!("campus nodes are 0..{n}"));
            }
        }
    }
    if c.src == c.dst {
        return serr(at("dst"), "src and dst must differ");
    }
    if c.via.is_some() && topo != TopologyKind::Testbed {
        return serr(at("via"), "via relays apply to the testbed only");
    }
    if c.count == 0 {
        return serr(at("count"), "must be at least 1");
    }
    if c.count > 1 && !c.kind.replicable() {
        return serr(at("count"), "population kinds size themselves; count must be 1");
    }
    let stop = match c.kind {
        ClientKind::OpenLoop { stop, .. } | ClientKind::ClosedLoop { stop } => stop,
        _ => None,
    };
    window(path, c.start, stop)?;
    if let Some(d) = c.diurnal {
        if !c.kind.supports_diurnal() {
            return serr(
                at("diurnal"),
                "diurnal modulation applies to elephant_mice and churn clients",
            );
        }
        if !positive(d.period_secs) {
            return serr(at("diurnal.period_secs"), "must be positive");
        }
        if !(0.0..=1.0).contains(&d.amplitude) {
            return serr(at("diurnal.amplitude"), "must be in [0, 1]");
        }
    }
    let bad = match c.kind {
        ClientKind::OpenLoop { rate_mbps, .. } if !positive(rate_mbps) => Some("rate_mbps"),
        ClientKind::RequestResponse { requests: 0, .. } => Some("requests"),
        ClientKind::RequestResponse { response_bytes: 0, .. } => Some("response_bytes"),
        ClientKind::RequestResponse { think_secs: t, .. } if !positive(t) => Some("think_secs"),
        ClientKind::Bulk { size_bytes: 0, tcp: false } => Some("size_bytes"),
        ClientKind::Telemetry { period_secs: p, .. } if !positive(p) => Some("period_secs"),
        ClientKind::Telemetry { payload_bytes: 0, .. } => Some("payload_bytes"),
        ClientKind::ElephantMice { mice: 1.., mouse_bytes: 0, .. } => Some("mouse_bytes"),
        ClientKind::ElephantMice { mice: 1.., mean_gap_secs: g, .. } if !positive(g) => {
            Some("mean_gap_secs")
        }
        ClientKind::Churn { base_rate_per_sec: r, .. } if !positive(r) => Some("base_rate_per_sec"),
        ClientKind::Churn { mean_session_secs: m, .. } if !positive(m) => Some("mean_session_secs"),
        ClientKind::Churn { max_sessions: 0, .. } => Some("max_sessions"),
        _ => None,
    };
    match bad {
        Some(key) => serr(at(key), "must be positive"),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Per-item codecs
// ---------------------------------------------------------------------

fn flow_to_json(f: &FlowSpec) -> Json {
    let (pattern, start, stop, size) = match f.pattern {
        PatternSpec::Saturated { start, stop } => ("saturated", start, Some(stop), None),
        PatternSpec::File { start, size_bytes } => ("file", start, None, Some(size_bytes)),
        PatternSpec::Tcp { start, stop, size_bytes } => {
            ("tcp", start, Some(stop), Some(size_bytes))
        }
    };
    let mut pairs: Vec<(String, Json)> = vec![
        ("src".into(), Json::UInt(f.src.into())),
        ("dst".into(), Json::UInt(f.dst.into())),
        ("pattern".into(), Json::Str(pattern.into())),
        ("start".into(), Json::Float(start)),
    ];
    pairs.extend(stop.map(|s| ("stop".into(), Json::Float(s))));
    pairs.extend(size.map(|b| ("size_bytes".into(), Json::UInt(b))));
    Json::Obj(pairs)
}

fn flow_from_json(v: &Json, path: String) -> Result<FlowSpec, ScenarioError> {
    let src = req_u32(v, "src", &path)?;
    let dst = req_u32(v, "dst", &path)?;
    let pattern = match req_str(v, "pattern", &path)? {
        "saturated" => PatternSpec::Saturated {
            start: opt_f64(v, "start", &path)?.unwrap_or(0.0),
            stop: req_f64(v, "stop", &path)?,
        },
        "file" => PatternSpec::File {
            start: opt_f64(v, "start", &path)?.unwrap_or(0.0),
            size_bytes: req_u64(v, "size_bytes", &path)?,
        },
        "tcp" => PatternSpec::Tcp {
            start: opt_f64(v, "start", &path)?.unwrap_or(0.0),
            stop: req_f64(v, "stop", &path)?,
            size_bytes: opt_u64(v, "size_bytes", &path)?.unwrap_or(0),
        },
        other => {
            return serr(join(&path, "pattern"), format!("unknown pattern {other:?}"));
        }
    };
    Ok(FlowSpec { src, dst, pattern })
}

fn event_to_json(e: &TimedPerturbation) -> Json {
    let mut pairs: Vec<(String, Json)> =
        vec![("at".into(), Json::Float(e.at)), ("kind".into(), Json::Str(e.what.kind().into()))];
    match &e.what {
        Perturbation::Capacity { link, capacity_mbps, both } => {
            pairs.push(("link".into(), Json::UInt(*link as u64)));
            pairs.push(("capacity_mbps".into(), Json::Float(*capacity_mbps)));
            pairs.push(("both".into(), Json::Bool(*both)));
        }
        Perturbation::LinkDown { link, both } => {
            pairs.push(("link".into(), Json::UInt(*link as u64)));
            pairs.push(("both".into(), Json::Bool(*both)));
        }
        Perturbation::LinkUp { link, capacity_mbps, both } => {
            pairs.push(("link".into(), Json::UInt(*link as u64)));
            if let Some(c) = capacity_mbps {
                pairs.push(("capacity_mbps".into(), Json::Float(*c)));
            }
            pairs.push(("both".into(), Json::Bool(*both)));
        }
        Perturbation::NodeDown { node } | Perturbation::NodeUp { node } => {
            pairs.push(("node".into(), Json::UInt(*node as u64)));
        }
        Perturbation::PlcNoise { factor, duration_secs, domain_of } => {
            pairs.push(("factor".into(), Json::Float(*factor)));
            pairs.push(("duration_secs".into(), Json::Float(*duration_secs)));
            if let Some(l) = domain_of {
                pairs.push(("domain_of".into(), Json::UInt(*l as u64)));
            }
        }
        Perturbation::WifiJam { factor, duration_secs, channel, domain_of } => {
            pairs.push(("factor".into(), Json::Float(*factor)));
            pairs.push(("duration_secs".into(), Json::Float(*duration_secs)));
            if let Some(c) = channel {
                pairs.push(("channel".into(), Json::UInt(*c as u64)));
            }
            if let Some(l) = domain_of {
                pairs.push(("domain_of".into(), Json::UInt(*l as u64)));
            }
        }
        Perturbation::Drift { link, to_mbps, over_secs, steps, both } => {
            pairs.push(("link".into(), Json::UInt(*link as u64)));
            pairs.push(("to_mbps".into(), Json::Float(*to_mbps)));
            pairs.push(("over_secs".into(), Json::Float(*over_secs)));
            pairs.push(("steps".into(), Json::UInt(*steps as u64)));
            pairs.push(("both".into(), Json::Bool(*both)));
        }
    }
    Json::Obj(pairs)
}

fn event_from_json(v: &Json, path: String) -> Result<TimedPerturbation, ScenarioError> {
    let at = req_f64(v, "at", &path)?;
    let both = opt_bool(v, "both", &path)?.unwrap_or(true);
    let what = match req_str(v, "kind", &path)? {
        "capacity" => Perturbation::Capacity {
            link: req_u32(v, "link", &path)?,
            capacity_mbps: req_f64(v, "capacity_mbps", &path)?,
            both,
        },
        "link_down" => Perturbation::LinkDown { link: req_u32(v, "link", &path)?, both },
        "link_up" => Perturbation::LinkUp {
            link: req_u32(v, "link", &path)?,
            capacity_mbps: opt_f64(v, "capacity_mbps", &path)?,
            both,
        },
        "node_down" => Perturbation::NodeDown { node: req_u32(v, "node", &path)? },
        "node_up" => Perturbation::NodeUp { node: req_u32(v, "node", &path)? },
        "plc_noise" => Perturbation::PlcNoise {
            factor: req_f64(v, "factor", &path)?,
            duration_secs: req_f64(v, "duration_secs", &path)?,
            domain_of: opt_u32(v, "domain_of", &path)?,
        },
        "wifi_jam" => Perturbation::WifiJam {
            factor: req_f64(v, "factor", &path)?,
            duration_secs: req_f64(v, "duration_secs", &path)?,
            channel: opt_u8(v, "channel", &path)?,
            domain_of: opt_u32(v, "domain_of", &path)?,
        },
        "drift" => Perturbation::Drift {
            link: req_u32(v, "link", &path)?,
            to_mbps: req_f64(v, "to_mbps", &path)?,
            over_secs: req_f64(v, "over_secs", &path)?,
            steps: opt_u32(v, "steps", &path)?.unwrap_or(10),
            both,
        },
        other => return serr(join(&path, "kind"), format!("unknown perturbation {other:?}")),
    };
    Ok(TimedPerturbation { at, what })
}

fn generator_to_json(g: &GeneratorSpec) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![("kind".into(), Json::Str(g.kind().into()))];
    match g {
        GeneratorSpec::MarkovOnOff { link, mean_up_secs, mean_down_secs, from, until, both } => {
            pairs.push(("link".into(), Json::UInt(*link as u64)));
            pairs.push(("mean_up_secs".into(), Json::Float(*mean_up_secs)));
            pairs.push(("mean_down_secs".into(), Json::Float(*mean_down_secs)));
            pairs.push(("from".into(), Json::Float(*from)));
            if let Some(u) = until {
                pairs.push(("until".into(), Json::Float(*u)));
            }
            pairs.push(("both".into(), Json::Bool(*both)));
        }
        GeneratorSpec::GilbertElliott {
            link,
            step_secs,
            p_bad,
            p_good,
            bad_factor,
            from,
            until,
            both,
        } => {
            pairs.push(("link".into(), Json::UInt(*link as u64)));
            pairs.push(("step_secs".into(), Json::Float(*step_secs)));
            pairs.push(("p_bad".into(), Json::Float(*p_bad)));
            pairs.push(("p_good".into(), Json::Float(*p_good)));
            pairs.push(("bad_factor".into(), Json::Float(*bad_factor)));
            pairs.push(("from".into(), Json::Float(*from)));
            if let Some(u) = until {
                pairs.push(("until".into(), Json::Float(*u)));
            }
            pairs.push(("both".into(), Json::Bool(*both)));
        }
    }
    Json::Obj(pairs)
}

fn generator_from_json(v: &Json, path: String) -> Result<GeneratorSpec, ScenarioError> {
    let both = opt_bool(v, "both", &path)?.unwrap_or(true);
    match req_str(v, "kind", &path)? {
        "markov_onoff" => Ok(GeneratorSpec::MarkovOnOff {
            link: req_u32(v, "link", &path)?,
            mean_up_secs: req_f64(v, "mean_up_secs", &path)?,
            mean_down_secs: req_f64(v, "mean_down_secs", &path)?,
            from: opt_f64(v, "from", &path)?.unwrap_or(0.0),
            until: opt_f64(v, "until", &path)?,
            both,
        }),
        "gilbert_elliott" => Ok(GeneratorSpec::GilbertElliott {
            link: req_u32(v, "link", &path)?,
            step_secs: req_f64(v, "step_secs", &path)?,
            p_bad: req_f64(v, "p_bad", &path)?,
            p_good: req_f64(v, "p_good", &path)?,
            bad_factor: req_f64(v, "bad_factor", &path)?,
            from: opt_f64(v, "from", &path)?.unwrap_or(0.0),
            until: opt_f64(v, "until", &path)?,
            both,
        }),
        other => serr(join(&path, "kind"), format!("unknown generator {other:?}")),
    }
}

fn client_from_json(v: &Json, path: String) -> Result<ClientSpec, ScenarioError> {
    let kind = match req_str(v, "kind", &path)? {
        "open_loop" => ClientKind::OpenLoop {
            rate_mbps: req_f64(v, "rate_mbps", &path)?,
            stop: opt_f64(v, "stop", &path)?,
        },
        "closed_loop" => ClientKind::ClosedLoop { stop: opt_f64(v, "stop", &path)? },
        "request_response" => ClientKind::RequestResponse {
            requests: req_u32(v, "requests", &path)?,
            response_bytes: req_u64(v, "response_bytes", &path)?,
            think_secs: req_f64(v, "think_secs", &path)?,
        },
        "bulk" => ClientKind::Bulk {
            size_bytes: req_u64(v, "size_bytes", &path)?,
            tcp: match opt_str(v, "transport", &path)? {
                None | Some("tcp") => true,
                Some("udp") => false,
                Some(other) => {
                    return serr(
                        join(&path, "transport"),
                        format!("unknown transport {other:?} (tcp|udp)"),
                    )
                }
            },
        },
        "telemetry" => ClientKind::Telemetry {
            period_secs: req_f64(v, "period_secs", &path)?,
            payload_bytes: req_u64(v, "payload_bytes", &path)?,
        },
        "elephant_mice" => ClientKind::ElephantMice {
            elephants: req_u32(v, "elephants", &path)?,
            elephant_bytes: req_u64(v, "elephant_bytes", &path)?,
            mice: req_u32(v, "mice", &path)?,
            mouse_bytes: req_u64(v, "mouse_bytes", &path)?,
            mean_gap_secs: req_f64(v, "mean_gap_secs", &path)?,
        },
        "churn" => ClientKind::Churn {
            base_rate_per_sec: req_f64(v, "base_rate_per_sec", &path)?,
            mean_session_secs: req_f64(v, "mean_session_secs", &path)?,
            max_sessions: req_u32(v, "max_sessions", &path)?,
        },
        other => return serr(join(&path, "kind"), format!("unknown client kind {other:?}")),
    };
    let diurnal = match v.get("diurnal") {
        None => None,
        Some(d) => {
            let p = join(&path, "diurnal");
            Some(Diurnal {
                period_secs: req_f64(d, "period_secs", &p)?,
                amplitude: req_f64(d, "amplitude", &p)?,
            })
        }
    };
    Ok(ClientSpec {
        label: opt_str(v, "label", &path)?.map(str::to_string),
        src: req_u32(v, "src", &path)?,
        dst: req_u32(v, "dst", &path)?,
        via: opt_u32(v, "via", &path)?,
        count: opt_u32(v, "count", &path)?.unwrap_or(1),
        start: opt_f64(v, "start", &path)?.unwrap_or(0.0),
        kind,
        diurnal,
    })
}

fn client_to_json(c: &ClientSpec) -> Json {
    let mut o: Vec<(String, Json)> = Vec::new();
    if let Some(l) = &c.label {
        o.push(("label".into(), Json::Str(l.clone())));
    }
    o.push(("kind".into(), Json::Str(c.kind.label().into())));
    o.push(("src".into(), Json::UInt(c.src.into())));
    o.push(("dst".into(), Json::UInt(c.dst.into())));
    if let Some(via) = c.via {
        o.push(("via".into(), Json::UInt(via.into())));
    }
    o.push(("count".into(), Json::UInt(c.count.into())));
    o.push(("start".into(), Json::Float(c.start)));
    match c.kind {
        ClientKind::OpenLoop { rate_mbps, stop } => {
            o.push(("rate_mbps".into(), Json::Float(rate_mbps)));
            if let Some(s) = stop {
                o.push(("stop".into(), Json::Float(s)));
            }
        }
        ClientKind::ClosedLoop { stop } => {
            if let Some(s) = stop {
                o.push(("stop".into(), Json::Float(s)));
            }
        }
        ClientKind::RequestResponse { requests, response_bytes, think_secs } => {
            o.push(("requests".into(), Json::UInt(requests.into())));
            o.push(("response_bytes".into(), Json::UInt(response_bytes)));
            o.push(("think_secs".into(), Json::Float(think_secs)));
        }
        ClientKind::Bulk { size_bytes, tcp } => {
            o.push(("size_bytes".into(), Json::UInt(size_bytes)));
            o.push(("transport".into(), Json::Str(if tcp { "tcp" } else { "udp" }.into())));
        }
        ClientKind::Telemetry { period_secs, payload_bytes } => {
            o.push(("period_secs".into(), Json::Float(period_secs)));
            o.push(("payload_bytes".into(), Json::UInt(payload_bytes)));
        }
        ClientKind::ElephantMice {
            elephants,
            elephant_bytes,
            mice,
            mouse_bytes,
            mean_gap_secs,
        } => {
            o.push(("elephants".into(), Json::UInt(elephants.into())));
            o.push(("elephant_bytes".into(), Json::UInt(elephant_bytes)));
            o.push(("mice".into(), Json::UInt(mice.into())));
            o.push(("mouse_bytes".into(), Json::UInt(mouse_bytes)));
            o.push(("mean_gap_secs".into(), Json::Float(mean_gap_secs)));
        }
        ClientKind::Churn { base_rate_per_sec, mean_session_secs, max_sessions } => {
            o.push(("base_rate_per_sec".into(), Json::Float(base_rate_per_sec)));
            o.push(("mean_session_secs".into(), Json::Float(mean_session_secs)));
            o.push(("max_sessions".into(), Json::UInt(max_sessions.into())));
        }
    }
    if let Some(d) = c.diurnal {
        o.push((
            "diurnal".into(),
            Json::obj([
                ("period_secs", Json::Float(d.period_secs)),
                ("amplitude", Json::Float(d.amplitude)),
            ]),
        ));
    }
    Json::Obj(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Scenario {
        Scenario {
            name: "sample".into(),
            topology: TopologySpec { kind: TopologyKind::Fig1, seed: 1 },
            run: RunSpec {
                scheme: Scheme::Empower,
                seed: 7,
                horizon_secs: 60.0,
                poll_secs: 0.5,
                delta: 0.0,
                recovery_fraction: 0.9,
                noise: 0.0,
            },
            clients: vec![],
            flows: vec![FlowSpec {
                src: 0,
                dst: 2,
                pattern: PatternSpec::Saturated { start: 0.0, stop: 60.0 },
            }],
            events: vec![
                TimedPerturbation {
                    at: 20.0,
                    what: Perturbation::Capacity { link: 2, capacity_mbps: 1.5, both: true },
                },
                TimedPerturbation {
                    at: 40.0,
                    what: Perturbation::LinkUp { link: 2, capacity_mbps: None, both: true },
                },
            ],
            generators: vec![GeneratorSpec::GilbertElliott {
                link: 4,
                step_secs: 5.0,
                p_bad: 0.2,
                p_good: 0.6,
                bad_factor: 0.5,
                from: 0.0,
                until: Some(50.0),
                both: true,
            }],
        }
    }

    #[test]
    fn toml_round_trip_is_identity() {
        let s = sample();
        let text = s.to_toml();
        let back = Scenario::parse_str(&text).unwrap();
        assert_eq!(back, s, "TOML round trip:\n{text}");
    }

    #[test]
    fn json_round_trip_is_identity() {
        let s = sample();
        let text = s.to_json().to_string_pretty();
        let back = Scenario::parse_str(&text).unwrap();
        assert_eq!(back, s, "JSON round trip:\n{text}");
    }

    #[test]
    fn schema_version_is_enforced() {
        let mut text = sample().to_toml();
        text = text.replace("schema = 1", "schema = 99");
        let err = Scenario::parse_str(&text).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn expansion_is_bounded_before_anything_is_allocated() {
        use empower_model::topology::fig1_scenario;
        let client = |kind, count| ClientSpec {
            label: None,
            src: 0,
            dst: 2,
            via: None,
            count,
            start: 0.0,
            kind,
            diurnal: None,
        };
        let with = |c: ClientSpec| Scenario { clients: vec![c], ..sample() };
        let huge = u32::MAX;
        // Each client is valid on its own terms; each expands past the
        // bound. Neither check runs a simulation or compiles a flow.
        let over = [
            (ClientKind::Telemetry { period_secs: 1e-300, payload_bytes: 100 }, 1, "period_secs"),
            (
                ClientKind::RequestResponse { requests: huge, response_bytes: 1, think_secs: 1.0 },
                1,
                "requests",
            ),
            (
                ClientKind::ElephantMice {
                    elephants: 1,
                    elephant_bytes: 1,
                    mice: huge,
                    mouse_bytes: 1,
                    mean_gap_secs: 1e-300,
                },
                1,
                "mice",
            ),
            (
                ClientKind::Churn {
                    base_rate_per_sec: 1.0,
                    mean_session_secs: 1.0,
                    max_sessions: huge,
                },
                1,
                "max_sessions",
            ),
            (ClientKind::ClosedLoop { stop: None }, huge, "count"),
            (
                ClientKind::RequestResponse { requests: 2, response_bytes: 1, think_secs: 1.0 },
                huge,
                "count",
            ),
        ];
        let net = fig1_scenario().net;
        for (kind, count, key) in over {
            let doc = with(client(kind, count));
            let path = format!("clients[0].{key}");
            assert_eq!(doc.validate().unwrap_err().path, path, "{kind:?}");
            assert_eq!(crate::lower::compile(&doc, &net).unwrap_err().path, path, "{kind:?}");
        }
        // The sample's one [[flows]] entry plus MAX_EXPANSION − 1 replicas
        // is exactly the bound.
        let count = u32::try_from(MAX_EXPANSION - 1).unwrap();
        assert!(with(client(ClientKind::ClosedLoop { stop: None }, count)).validate().is_ok());
        let err = with(client(ClientKind::ClosedLoop { stop: None }, count + 1)).validate();
        assert_eq!(err.unwrap_err().path, "clients[0].count");
    }

    #[test]
    fn errors_name_the_field() {
        let text = sample().to_toml().replace("horizon_secs = 60.0", "");
        let err = Scenario::parse_str(&text).unwrap_err();
        assert!(err.to_string().contains("horizon_secs"), "{err}");
        let text = sample().to_toml().replace("\"EMPoWER\"", "\"bogus\"");
        let err = Scenario::parse_str(&text).unwrap_err();
        assert!(err.to_string().contains("scheme"), "{err}");
        // A mistyped optional is an error at its path, not a silent default.
        let toml = sample().to_toml();
        assert_eq!(toml.matches("both = true").count(), 3, "{toml}");
        let err =
            Scenario::parse_str(&toml.replacen("both = true", "both = \"yes\"", 1)).unwrap_err();
        assert_eq!(err.path, "events[0].both", "{err}");
        let last = toml.rfind("both = true").unwrap();
        let text =
            format!("{}both = \"yes\"{}", &toml[..last], &toml[last + "both = true".len()..]);
        let err = Scenario::parse_str(&text).unwrap_err();
        assert_eq!(err.path, "generators[0].both", "{err}");
        // A margin that leaves Eq. (3) no airtime is rejected where it enters.
        assert_eq!(toml.matches("delta = 0.0").count(), 1, "{toml}");
        for margin in ["1.5", "1.0", "-0.1", "nan"] {
            let text = toml.replace("delta = 0.0", &format!("delta = {margin}"));
            let err = Scenario::parse_str(&text).unwrap_err();
            assert_eq!(err.path, "run.delta", "delta = {margin}: {err}");
        }
        let text = toml.replace("delta = 0.0", "delta = 0.3");
        assert_eq!(Scenario::parse_str(&text).unwrap().run.delta, 0.3);
        // A value the run cannot use is rejected at its path: an infinite
        // horizon or poll period never ends the run, an id wider than its
        // field would address another link, a NaN capacity is no capacity.
        let rejects = |text: &str, from: &str, to: &str, path: &str| {
            assert!(text.contains(from), "{from} in {text}");
            let err = Scenario::parse_str(&text.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err.path, path, "{from} → {to}: {err}");
        };
        for bad in ["inf", "nan", "0.0"] {
            rejects(
                &toml,
                "horizon_secs = 60.0",
                &format!("horizon_secs = {bad}"),
                "run.horizon_secs",
            );
            rejects(&toml, "poll_secs = 0.5", &format!("poll_secs = {bad}"), "run.poll_secs");
        }
        let json = sample().to_json().to_string();
        rejects(&json, "\"horizon_secs\":60.0", "\"horizon_secs\":1e400", "run.horizon_secs");
        rejects(&toml, "link = 2", "link = 4294967298", "events[0].link");
        for bad in ["nan", "inf", "-1.0"] {
            let to = format!("capacity_mbps = {bad}");
            rejects(&toml, "capacity_mbps = 1.5", &to, "events[0].capacity_mbps");
        }
        // A flow's traffic window starts at a finite time ≥ 0 and stops no
        // earlier; a file transfer has a size.
        for bad in ["nan", "-5.0"] {
            rejects(&toml, "start = 0.0", &format!("start = {bad}"), "flows[0].start");
        }
        rejects(&toml, "stop = 60.0", "stop = nan", "flows[0].stop");
        rejects(&toml, "start = 0.0\nstop = 60.0", "start = 5.0\nstop = 1.0", "flows[0].stop");
        let mut s = sample();
        s.flows[0].pattern = PatternSpec::File { start: 0.0, size_bytes: 0 };
        let err = Scenario::parse_str(&s.to_toml()).unwrap_err();
        assert_eq!(err.path, "flows[0].size_bytes", "{err}");
        let mut s = sample();
        s.events[1].what = Perturbation::WifiJam {
            factor: 0.5,
            duration_secs: 1.0,
            channel: Some(2),
            domain_of: None,
        };
        rejects(&s.to_toml(), "channel = 2", "channel = 258", "events[1].channel");
        s.events[1].what =
            Perturbation::LinkUp { link: 2, capacity_mbps: Some(f64::NAN), both: true };
        assert_eq!(s.validate().unwrap_err().path, "events[1].capacity_mbps");
        s.events[1].what = Perturbation::Drift {
            link: 2,
            to_mbps: f64::NAN,
            over_secs: 5.0,
            steps: 5,
            both: true,
        };
        assert_eq!(s.validate().unwrap_err().path, "events[1].to_mbps");
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        let mut s = sample();
        s.run.recovery_fraction = 1.5;
        assert!(s.validate().is_err());
        let mut s = sample();
        s.events[0].what =
            Perturbation::PlcNoise { factor: 2.0, duration_secs: 5.0, domain_of: None };
        assert!(s.validate().is_err());
    }

    /// What the one grammar reads differently from the two it replaced:
    /// each input here was rejected, ignored or impossible before.
    #[test]
    fn one_grammar_reads_clients_flows_and_timeline_together() {
        let doc = |topology: &str, run: &str, rest: &str| {
            format!("schema = 1\nname = \"d\"\n\n[topology]\n{topology}\n\n[run]\n{run}\n{rest}")
        };
        let flow = "[[flows]]\nsrc = 2\ndst = 3\npattern = \"saturated\"\nstop = 5.0\n";
        let client = "[[clients]]\nkind = \"closed_loop\"\nsrc = 0\ndst = 2\n";
        // `run.scheme` defaults to EMPoWER and `run.seed` to 1.
        let s = Scenario::parse_str(&doc("kind = \"fig1\"", "horizon_secs = 5.0", client)).unwrap();
        assert_eq!((s.run.scheme, s.run.seed), (Scheme::Empower, 1));
        // Flows on a campus, clients and flows in one document, a timeline
        // next to clients: all parse, and survive the round trip.
        let campus = "kind = \"campus\"\nbuildings = 1\nfloors_per_building = 1";
        let both = format!(
            "{flow}\n[[clients]]\nkind = \"open_loop\"\nsrc = 2\ndst = 4\nrate_mbps = 1.0\n\
             \n[[events]]\nat = 1.0\nkind = \"node_down\"\nnode = 2\n"
        );
        let s = Scenario::parse_str(&doc(campus, "horizon_secs = 5.0\nnoise = 0.1", &both));
        let s = s.unwrap();
        assert_eq!((s.flows.len(), s.clients.len(), s.events.len()), (1, 1, 1));
        assert_eq!(Scenario::parse_str(&s.to_toml()).unwrap(), s);
        // Flows run on every kind, the random classes included.
        let on_enterprise = doc("kind = \"enterprise\"", "horizon_secs = 5.0", flow);
        assert_eq!(Scenario::parse_str(&on_enterprise).unwrap().flows.len(), 1);
        // Clients have hand-built routes on fig1, testbed and campus only.
        for kind in ["residential", "enterprise"] {
            let text = doc(&format!("kind = \"{kind}\""), "horizon_secs = 5.0", client);
            assert_eq!(Scenario::parse_str(&text).unwrap_err().path, "clients[0]", "{kind}");
        }
        // A document with no traffic at all is rejected.
        let e = Scenario::parse_str(&doc("kind = \"fig1\"", "horizon_secs = 5.0", "")).unwrap_err();
        assert_eq!(e.path, "flows");
        // Keys one of the two old documents ignored are read and checked.
        let rejects = |run: &str, rest: &str, path: &str| {
            let text = doc("kind = \"fig1\"", &format!("horizon_secs = 5.0\n{run}"), rest);
            assert_eq!(Scenario::parse_str(&text).unwrap_err().path, path, "{run} {rest}");
        };
        rejects("delta = 2.0", client, "run.delta");
        rejects(
            "noise = -1.0",
            "[[flows]]\nsrc = 0\ndst = 2\npattern = \"saturated\"\nstop = 5.0\n",
            "run.noise",
        );
        rejects(
            "",
            &format!("{client}\n[[events]]\nat = -1.0\nkind = \"node_up\"\nnode = 1\n"),
            "events[0].at",
        );
    }
}
