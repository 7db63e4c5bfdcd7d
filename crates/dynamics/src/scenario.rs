//! The declarative scenario model: a versioned, serializable timeline of
//! network perturbations plus seeded stochastic generators.
//!
//! A scenario is data, not code — it can be hand-written as TOML (or
//! JSON), checked into `examples/`, diffed, and replayed bit-identically.
//! [`crate::injector::compile`] turns it into concrete capacity events on
//! a given network; [`crate::driver::run_scenario`] executes it against
//! the packet-level engine and [`crate::fluid::fluid_timeline`] against
//! the fluid evaluator.

use empower_core::Scheme;
use empower_telemetry::Json;

use crate::schema::{
    arr_of, check_schema_version, join, opt_bool, opt_f64, opt_u32, opt_u64, opt_u8,
    parse_document, req_f64, req_str, req_u32, req_u64, serr,
};
use crate::toml;

/// The scenario schema version this crate reads and writes. Parsing
/// rejects files with a different major version instead of misreading
/// them.
pub const SCHEMA_VERSION: u64 = 1;

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

/// Which base topology the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The paper's Fig. 1 three-node gateway/extender/client example.
    Fig1,
    /// A random residential-class topology (§5.2).
    Residential,
    /// A random enterprise-class topology (§5.2).
    Enterprise,
    /// The simulated 22-node testbed floor (§6).
    Testbed,
}

impl TopologyKind {
    /// Stable lowercase label used in scenario files.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Fig1 => "fig1",
            TopologyKind::Residential => "residential",
            TopologyKind::Enterprise => "enterprise",
            TopologyKind::Testbed => "testbed",
        }
    }

    /// Parses a [`TopologyKind::label`].
    pub fn from_label(s: &str) -> Option<TopologyKind> {
        match s {
            "fig1" => Some(TopologyKind::Fig1),
            "residential" => Some(TopologyKind::Residential),
            "enterprise" => Some(TopologyKind::Enterprise),
            "testbed" => Some(TopologyKind::Testbed),
            _ => None,
        }
    }
}

/// `[topology]`: the network the scenario perturbs.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    pub kind: TopologyKind,
    /// Seed for the random topology classes (ignored by `fig1`).
    pub seed: u64,
}

/// `[run]`: how the scenario is executed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Scheme under test (paper label, e.g. `"EMPoWER"` or `"SP"`).
    pub scheme: Scheme,
    /// Engine / generator seed.
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
}

/// `[[flows]]`: one traffic source.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    pub src: u32,
    pub dst: u32,
    pub pattern: PatternSpec,
}

/// The traffic pattern of a scenario flow.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternSpec {
    /// Backlogged UDP between `start` and `stop`.
    Saturated { start: f64, stop: f64 },
    /// One file download of `size_bytes` starting at `start`.
    File { start: f64, size_bytes: u64 },
    /// TCP between `start` and `stop` (`size_bytes = 0` = unbounded).
    Tcp { start: f64, stop: f64, size_bytes: u64 },
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

/// A complete scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub topology: TopologySpec,
    pub run: RunSpec,
    pub flows: Vec<FlowSpec>,
    pub events: Vec<TimedPerturbation>,
    pub generators: Vec<GeneratorSpec>,
}

impl Scenario {
    /// Parses a scenario from TOML or JSON (auto-detected: JSON documents
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
            (
                "topology".into(),
                Json::obj([
                    ("kind", Json::Str(self.topology.kind.label().into())),
                    ("seed", Json::UInt(self.topology.seed)),
                ]),
            ),
            (
                "run".into(),
                Json::obj([
                    ("scheme", Json::Str(self.run.scheme.label().into())),
                    ("seed", Json::UInt(self.run.seed)),
                    ("horizon_secs", Json::Float(self.run.horizon_secs)),
                    ("poll_secs", Json::Float(self.run.poll_secs)),
                    ("delta", Json::Float(self.run.delta)),
                    ("recovery_fraction", Json::Float(self.run.recovery_fraction)),
                ]),
            ),
        ];
        if !self.flows.is_empty() {
            top.push(("flows".into(), Json::Arr(self.flows.iter().map(flow_to_json).collect())));
        }
        if !self.events.is_empty() {
            top.push(("events".into(), Json::Arr(self.events.iter().map(event_to_json).collect())));
        }
        if !self.generators.is_empty() {
            top.push((
                "generators".into(),
                Json::Arr(self.generators.iter().map(generator_to_json).collect()),
            ));
        }
        Json::Obj(top)
    }

    /// Builds a scenario from a JSON tree (as produced by the TOML parser
    /// or [`Json::parse`]).
    pub fn from_json(doc: &Json) -> Result<Scenario, ScenarioError> {
        check_schema_version(doc, SCHEMA_VERSION)?;
        let name = req_str(doc, "name", "")?.to_string();
        let topo = doc
            .get("topology")
            .ok_or_else(|| ScenarioError { path: "topology".into(), message: "missing".into() })?;
        let kind_label = req_str(topo, "kind", "topology")?;
        let kind = TopologyKind::from_label(kind_label).ok_or_else(|| ScenarioError {
            path: "topology.kind".into(),
            message: format!("unknown topology {kind_label:?}"),
        })?;
        let topology = TopologySpec { kind, seed: opt_u64(topo, "seed", "topology")?.unwrap_or(1) };
        let run = doc
            .get("run")
            .ok_or_else(|| ScenarioError { path: "run".into(), message: "missing".into() })?;
        let scheme_label = req_str(run, "scheme", "run")?;
        let scheme = Scheme::from_label(scheme_label).ok_or_else(|| ScenarioError {
            path: "run.scheme".into(),
            message: format!("unknown scheme {scheme_label:?}"),
        })?;
        let run = RunSpec {
            scheme,
            seed: opt_u64(run, "seed", "run")?.unwrap_or(1),
            horizon_secs: req_f64(run, "horizon_secs", "run")?,
            poll_secs: opt_f64(run, "poll_secs", "run")?.unwrap_or(0.5),
            delta: opt_f64(run, "delta", "run")?.unwrap_or(0.0),
            recovery_fraction: opt_f64(run, "recovery_fraction", "run")?.unwrap_or(0.9),
        };
        let flows = arr_of(doc, "flows", flow_from_json)?;
        let events = arr_of(doc, "events", event_from_json)?;
        let generators = arr_of(doc, "generators", generator_from_json)?;
        let s = Scenario { name, topology, run, flows, events, generators };
        s.validate()?;
        Ok(s)
    }

    /// Structural validation that needs no network: finite positive
    /// horizon and poll period, non-negative times and capacities, sane
    /// fractions.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        // Strictly positive and, by the same comparison, not NaN.
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        // An infinite horizon or poll period never ends the run.
        if !(positive(self.run.horizon_secs) && self.run.horizon_secs.is_finite()) {
            return serr("run.horizon_secs", "must be a finite number > 0");
        }
        if !(positive(self.run.poll_secs) && self.run.poll_secs.is_finite()) {
            return serr("run.poll_secs", "must be a finite number > 0");
        }
        let capacity = |x: f64| x >= 0.0 && x.is_finite();
        // Eq. (3) leaves `1 − δ` of every domain's airtime to the flows: a
        // margin of 1 or more leaves nothing, NaN leaves nonsense.
        if !(0.0..1.0).contains(&self.run.delta) {
            return serr("run.delta", "must be in [0, 1)");
        }
        if !(0.0..=1.0).contains(&self.run.recovery_fraction) {
            return serr("run.recovery_fraction", "must be in [0, 1]");
        }
        if self.flows.is_empty() {
            return serr("flows", "a scenario needs at least one flow");
        }
        for (i, e) in self.events.iter().enumerate() {
            if !(e.at >= 0.0 && e.at.is_finite()) {
                return serr(format!("events[{i}].at"), "must be a finite time ≥ 0");
            }
            match &e.what {
                Perturbation::Capacity { capacity_mbps: c, .. }
                | Perturbation::LinkUp { capacity_mbps: Some(c), .. }
                    if !capacity(*c) =>
                {
                    return serr(
                        format!("events[{i}].capacity_mbps"),
                        "must be a finite number ≥ 0",
                    );
                }
                Perturbation::PlcNoise { factor, duration_secs, .. }
                | Perturbation::WifiJam { factor, duration_secs, .. } => {
                    if !(0.0..=1.0).contains(factor) {
                        return serr(format!("events[{i}].factor"), "must be in [0, 1]");
                    }
                    if !positive(*duration_secs) {
                        return serr(format!("events[{i}].duration_secs"), "must be > 0");
                    }
                }
                Perturbation::Drift { to_mbps, over_secs, steps, .. } => {
                    if !capacity(*to_mbps) {
                        return serr(format!("events[{i}].to_mbps"), "must be a finite number ≥ 0");
                    }
                    if !positive(*over_secs) {
                        return serr(format!("events[{i}].over_secs"), "must be > 0");
                    }
                    if *steps == 0 {
                        return serr(format!("events[{i}].steps"), "must be ≥ 1");
                    }
                }
                _ => {}
            }
        }
        for (i, g) in self.generators.iter().enumerate() {
            match g {
                GeneratorSpec::MarkovOnOff { mean_up_secs, mean_down_secs, .. } => {
                    if !positive(*mean_up_secs) || !positive(*mean_down_secs) {
                        return serr(format!("generators[{i}]"), "mean times must be > 0");
                    }
                }
                GeneratorSpec::GilbertElliott { step_secs, p_bad, p_good, bad_factor, .. } => {
                    if !positive(*step_secs) {
                        return serr(format!("generators[{i}].step_secs"), "must be > 0");
                    }
                    if !(0.0..=1.0).contains(p_bad) || !(0.0..=1.0).contains(p_good) {
                        return serr(format!("generators[{i}]"), "probabilities must be in [0, 1]");
                    }
                    if !(0.0..=1.0).contains(bad_factor) {
                        return serr(format!("generators[{i}].bad_factor"), "must be in [0, 1]");
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Per-item codecs
// ---------------------------------------------------------------------

fn flow_to_json(f: &FlowSpec) -> Json {
    let mut pairs: Vec<(String, Json)> =
        vec![("src".into(), Json::UInt(f.src as u64)), ("dst".into(), Json::UInt(f.dst as u64))];
    match &f.pattern {
        PatternSpec::Saturated { start, stop } => {
            pairs.push(("pattern".into(), Json::Str("saturated".into())));
            pairs.push(("start".into(), Json::Float(*start)));
            pairs.push(("stop".into(), Json::Float(*stop)));
        }
        PatternSpec::File { start, size_bytes } => {
            pairs.push(("pattern".into(), Json::Str("file".into())));
            pairs.push(("start".into(), Json::Float(*start)));
            pairs.push(("size_bytes".into(), Json::UInt(*size_bytes)));
        }
        PatternSpec::Tcp { start, stop, size_bytes } => {
            pairs.push(("pattern".into(), Json::Str("tcp".into())));
            pairs.push(("start".into(), Json::Float(*start)));
            pairs.push(("stop".into(), Json::Float(*stop)));
            pairs.push(("size_bytes".into(), Json::UInt(*size_bytes)));
        }
    }
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
            },
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
}
