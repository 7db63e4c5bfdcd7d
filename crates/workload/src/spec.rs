//! The workload DSL: versioned TOML/JSON documents describing composable
//! traffic programs.
//!
//! A workload file names a topology, a deterministic run configuration and
//! a list of **clients** — composable traffic primitives (open-/closed-loop
//! sources, request/response exchanges, bulk transfers, IoT telemetry
//! ticks, elephant/mice mixes, session churn) that the compiler
//! ([`crate::compile()`]) expands into concrete simulator flows. Every
//! stochastic choice (Poisson gaps, churn arrivals, session lifetimes)
//! draws from a generator derived from `run.seed`, so the same file replays
//! byte-identically; see DESIGN.md §11 for the grammar and the determinism
//! contract.

use empower_dynamics::schema::{
    arr_of, check_schema_version, join, opt_f64, opt_str, opt_u32, opt_u64, parse_document,
    req_f64, req_str, req_u32, req_u64, serr,
};
use empower_dynamics::{toml, ScenarioError};
use empower_telemetry::Json;

/// The workload schema major version this build reads and writes.
pub const WORKLOAD_SCHEMA_VERSION: u64 = 1;

/// Which prebuilt topology the workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadTopology {
    /// The paper's Fig. 1 three-node chain (0 = gateway, 1 = extender,
    /// 2 = client).
    Fig1,
    /// The sampled 22-node office testbed (§6); nodes are the paper's
    /// numbers `1..=22`, the layout depends on `topology.seed`.
    Testbed,
    /// A generated hierarchical campus (`empower_model::topology::campus`)
    /// with the given grid; the layout depends on `topology.seed`. Nodes
    /// are raw generation-order indices, which are pure arithmetic in the
    /// grid: the core is 0; building `b` starts at
    /// `1 + b·(F·(1+K)+1)` with its aggregation router; floor `f` of that
    /// building has its router at `agg + 1 + f·(1+K)` followed by its `K`
    /// clients in order.
    Campus { buildings: u32, floors_per_building: u32, clients_per_floor: u32 },
}

impl WorkloadTopology {
    /// The on-disk label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadTopology::Fig1 => "fig1",
            WorkloadTopology::Testbed => "testbed",
            WorkloadTopology::Campus { .. } => "campus",
        }
    }

    /// Total campus node count (`None` for the fixed topologies).
    pub fn campus_node_count(self) -> Option<u64> {
        match self {
            WorkloadTopology::Campus { buildings, floors_per_building, clients_per_floor } => {
                let per_building =
                    u64::from(floors_per_building) * (1 + u64::from(clients_per_floor));
                Some(u64::from(buildings) * (per_building + 1) + 1)
            }
            _ => None,
        }
    }

    fn from_table(topo: &Json, path: &str) -> Result<Self, ScenarioError> {
        match req_str(topo, "kind", path)? {
            "fig1" => Ok(WorkloadTopology::Fig1),
            "testbed" => Ok(WorkloadTopology::Testbed),
            "campus" => Ok(WorkloadTopology::Campus {
                buildings: opt_dim(topo, "buildings", path, 2)?,
                floors_per_building: opt_dim(topo, "floors_per_building", path, 2)?,
                clients_per_floor: opt_dim(topo, "clients_per_floor", path, 4)?,
            }),
            other => serr(
                join(path, "kind"),
                format!("unknown topology kind {other:?} (fig1|testbed|campus)"),
            ),
        }
    }
}

/// Reads an optional positive campus grid dimension.
fn opt_dim(v: &Json, key: &str, path: &str, default: u32) -> Result<u32, ScenarioError> {
    let n = opt_u32(v, key, path)?.unwrap_or(default);
    if n == 0 {
        return serr(join(path, key), "must be at least 1");
    }
    Ok(n)
}

/// The `[topology]` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    pub kind: WorkloadTopology,
    /// Sampling seed for the testbed layout (ignored by Fig. 1).
    pub seed: u64,
}

/// The `[run]` table: the deterministic run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadRun {
    /// Master seed: the engine RNG *and* every client's traffic generator
    /// derive from it, so one number pins the whole run.
    pub seed: u64,
    /// Simulated horizon, seconds.
    pub horizon_secs: f64,
    /// Capacity-estimation noise (`SimConfig::estimation_rel_std`).
    pub noise: f64,
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

/// One `[[clients]]` entry: a traffic primitive bound to an endpoint pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// Stable label for SLO reporting (defaults to `client<index>`).
    pub label: Option<String>,
    /// Source node (Fig. 1 index or testbed paper number).
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

/// A parsed workload document.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub topology: TopologySpec,
    pub run: WorkloadRun,
    pub clients: Vec<ClientSpec>,
}

impl Workload {
    /// Parses a workload from TOML or JSON (auto-detected: JSON documents
    /// start with `{`).
    pub fn parse_str(text: &str) -> Result<Workload, ScenarioError> {
        Workload::from_json(&parse_document(text)?)
    }

    /// Builds a workload from a JSON tree.
    pub fn from_json(doc: &Json) -> Result<Workload, ScenarioError> {
        check_schema_version(doc, WORKLOAD_SCHEMA_VERSION)?;
        let name = req_str(doc, "name", "")?.to_string();

        let topo = doc.get("topology").ok_or_else(|| ScenarioError {
            path: "topology".into(),
            message: "missing [topology] table".into(),
        })?;
        let kind = WorkloadTopology::from_table(topo, "topology")?;
        let topology = TopologySpec { kind, seed: opt_u64(topo, "seed", "topology")?.unwrap_or(1) };

        let run = doc.get("run").ok_or_else(|| ScenarioError {
            path: "run".into(),
            message: "missing [run] table".into(),
        })?;
        let run = WorkloadRun {
            seed: req_u64(run, "seed", "run")?,
            horizon_secs: req_f64(run, "horizon_secs", "run")?,
            noise: opt_f64(run, "noise", "run")?.unwrap_or(0.0),
        };

        let clients = arr_of(doc, "clients", client_from_json)?;
        let w = Workload { name, topology, run, clients };
        w.validate()?;
        Ok(w)
    }

    /// Serializes to the JSON tree ([`Workload::from_json`]'s inverse).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::UInt(WORKLOAD_SCHEMA_VERSION)),
            ("name".into(), Json::Str(self.name.clone())),
            ("topology".into(), {
                let mut o = vec![
                    ("kind".to_string(), Json::Str(self.topology.kind.label().into())),
                    ("seed".to_string(), Json::UInt(self.topology.seed)),
                ];
                if let WorkloadTopology::Campus {
                    buildings,
                    floors_per_building,
                    clients_per_floor,
                } = self.topology.kind
                {
                    o.push(("buildings".into(), Json::UInt(buildings.into())));
                    o.push(("floors_per_building".into(), Json::UInt(floors_per_building.into())));
                    o.push(("clients_per_floor".into(), Json::UInt(clients_per_floor.into())));
                }
                Json::Obj(o)
            }),
            (
                "run".into(),
                Json::obj([
                    ("seed", Json::UInt(self.run.seed)),
                    ("horizon_secs", Json::Float(self.run.horizon_secs)),
                    ("noise", Json::Float(self.run.noise)),
                ]),
            ),
            ("clients".into(), Json::Arr(self.clients.iter().map(client_to_json).collect())),
        ])
    }

    /// Serializes to TOML (the canonical on-disk form).
    pub fn to_toml(&self) -> String {
        toml::to_toml_string(&self.to_json())
    }

    /// The resolved SLO label of client `i`.
    pub fn client_label(&self, i: usize) -> String {
        match &self.clients[i].label {
            Some(l) => l.clone(),
            None => format!("client{i}"),
        }
    }

    /// Structural validation beyond field decoding: a finite positive
    /// horizon, a finite non-negative noise level, positive rates, node
    /// numbers within the topology, replication and diurnal knobs only where
    /// they mean something.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        // An infinite horizon never ends the run.
        if not_positive(self.run.horizon_secs) || !self.run.horizon_secs.is_finite() {
            return serr("run.horizon_secs", "must be a finite number > 0");
        }
        if not_non_negative(self.run.noise) || !self.run.noise.is_finite() {
            return serr("run.noise", "must be a finite number ≥ 0");
        }
        if self.clients.is_empty() {
            return serr("clients", "workload needs at least one client");
        }
        for (i, c) in self.clients.iter().enumerate() {
            let path = format!("clients[{i}]");
            validate_client(c, self.topology.kind, &path)?;
        }
        Ok(())
    }
}

/// True when `x` is not a strictly positive finite comparison result —
/// zero, negative, or NaN (NaN must fail validation, so plain `<=` would
/// let it through).
fn not_positive(x: f64) -> bool {
    x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
}

/// True when `x` is negative or NaN (anything that fails `x >= 0`).
fn not_non_negative(x: f64) -> bool {
    !matches!(x.partial_cmp(&0.0), Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal))
}

fn validate_client(
    c: &ClientSpec,
    topo: WorkloadTopology,
    path: &str,
) -> Result<(), ScenarioError> {
    match topo {
        WorkloadTopology::Fig1 => {
            let ok = matches!((c.src, c.dst), (0, 2) | (0, 1) | (1, 2));
            if !ok {
                return serr(
                    join(path, "src"),
                    format!(
                        "fig1 supports the downstream pairs 0→2, 0→1, 1→2 (got {}→{})",
                        c.src, c.dst
                    ),
                );
            }
            if c.via.is_some() {
                return serr(join(path, "via"), "via relays apply to the testbed only");
            }
        }
        WorkloadTopology::Testbed => {
            for (key, n) in [("src", Some(c.src)), ("dst", Some(c.dst)), ("via", c.via)] {
                if let Some(n) = n {
                    if !(1..=22).contains(&n) {
                        return serr(join(path, key), "testbed nodes are 1..=22");
                    }
                }
            }
            if c.src == c.dst {
                return serr(join(path, "dst"), "src and dst must differ");
            }
        }
        WorkloadTopology::Campus { .. } => {
            #[expect(clippy::expect_used, reason = "campus_node_count is Some by match arm")]
            let n = topo.campus_node_count().expect("campus topology has a node count");
            for (key, v) in [("src", c.src), ("dst", c.dst)] {
                if u64::from(v) >= n {
                    return serr(join(path, key), format!("campus nodes are 0..{n}"));
                }
            }
            if c.src == c.dst {
                return serr(join(path, "dst"), "src and dst must differ");
            }
            if c.via.is_some() {
                return serr(join(path, "via"), "via relays apply to the testbed only");
            }
        }
    }
    if c.count == 0 {
        return serr(join(path, "count"), "must be at least 1");
    }
    if c.count > 1 && !c.kind.replicable() {
        return serr(join(path, "count"), "population kinds size themselves; count must be 1");
    }
    if not_non_negative(c.start) {
        return serr(join(path, "start"), "must be non-negative");
    }
    if let Some(d) = c.diurnal {
        if !c.kind.supports_diurnal() {
            return serr(
                join(path, "diurnal"),
                "diurnal modulation applies to elephant_mice and churn clients",
            );
        }
        if not_positive(d.period_secs) {
            return serr(join(path, "diurnal.period_secs"), "must be positive");
        }
        if !(0.0..=1.0).contains(&d.amplitude) {
            return serr(join(path, "diurnal.amplitude"), "must be in [0, 1]");
        }
    }
    match c.kind {
        ClientKind::OpenLoop { rate_mbps, .. } if not_positive(rate_mbps) => {
            serr(join(path, "rate_mbps"), "must be positive")
        }
        ClientKind::RequestResponse { requests, response_bytes, think_secs } => {
            if requests == 0 {
                serr(join(path, "requests"), "must be at least 1")
            } else if response_bytes == 0 {
                serr(join(path, "response_bytes"), "must be positive")
            } else if not_positive(think_secs) {
                serr(join(path, "think_secs"), "must be positive")
            } else {
                Ok(())
            }
        }
        ClientKind::Bulk { size_bytes: 0, tcp: false } => {
            serr(join(path, "size_bytes"), "UDP bulk transfers need an explicit size")
        }
        ClientKind::Telemetry { period_secs, payload_bytes } => {
            if not_positive(period_secs) {
                serr(join(path, "period_secs"), "must be positive")
            } else if payload_bytes == 0 {
                serr(join(path, "payload_bytes"), "must be positive")
            } else {
                Ok(())
            }
        }
        ClientKind::ElephantMice { mice, mouse_bytes, mean_gap_secs, .. } => {
            if mice > 0 && mouse_bytes == 0 {
                serr(join(path, "mouse_bytes"), "must be positive")
            } else if mice > 0 && not_positive(mean_gap_secs) {
                serr(join(path, "mean_gap_secs"), "must be positive")
            } else {
                Ok(())
            }
        }
        ClientKind::Churn { base_rate_per_sec, mean_session_secs, max_sessions } => {
            if not_positive(base_rate_per_sec) {
                serr(join(path, "base_rate_per_sec"), "must be positive")
            } else if not_positive(mean_session_secs) {
                serr(join(path, "mean_session_secs"), "must be positive")
            } else if max_sessions == 0 {
                serr(join(path, "max_sessions"), "must be at least 1")
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
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

    const SAMPLE: &str = r#"
schema = 1
name = "sample"

[topology]
kind = "fig1"

[run]
seed = 7
horizon_secs = 30.0

[[clients]]
label = "web"
kind = "request_response"
src = 0
dst = 2
count = 2
requests = 10
response_bytes = 200000
think_secs = 0.5

[[clients]]
kind = "churn"
src = 0
dst = 2
base_rate_per_sec = 0.2
mean_session_secs = 4.0
max_sessions = 8

[clients.diurnal]
period_secs = 15.0
amplitude = 0.5
"#;

    #[test]
    fn parses_toml_with_nested_diurnal() {
        let w = Workload::parse_str(SAMPLE).unwrap();
        assert_eq!(w.name, "sample");
        assert_eq!(w.run.seed, 7);
        assert_eq!(w.clients.len(), 2);
        assert_eq!(w.clients[0].count, 2);
        assert!(matches!(w.clients[0].kind, ClientKind::RequestResponse { requests: 10, .. }));
        let d = w.clients[1].diurnal.unwrap();
        assert_eq!(d.period_secs, 15.0);
        assert_eq!(w.client_label(0), "web");
        assert_eq!(w.client_label(1), "client1");
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let w = Workload::parse_str(SAMPLE).unwrap();
        let back = Workload::from_json(&w.to_json()).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn toml_round_trip_is_lossless() {
        let w = Workload::parse_str(SAMPLE).unwrap();
        let back = Workload::parse_str(&w.to_toml()).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn rejects_bad_documents() {
        // Wrong schema version.
        assert!(Workload::parse_str("schema = 9\nname = \"x\"").is_err());
        // Unsupported fig1 pair.
        let bad = SAMPLE.replace("src = 0\ndst = 2\ncount = 2", "src = 2\ndst = 0\ncount = 2");
        assert!(Workload::parse_str(&bad).unwrap_err().path.contains("src"));
        // count on a population kind.
        let bad = SAMPLE.replace("base_rate_per_sec = 0.2", "count = 3\nbase_rate_per_sec = 0.2");
        assert!(Workload::parse_str(&bad).unwrap_err().path.contains("count"));
        // Diurnal on a kind that has no arrival process.
        let bad = SAMPLE
            .replace("kind = \"churn\"", "kind = \"closed_loop\"")
            .replace("base_rate_per_sec = 0.2\nmean_session_secs = 4.0\nmax_sessions = 8", "");
        assert!(Workload::parse_str(&bad).unwrap_err().path.contains("diurnal"));
        // A horizon that never ends the run, or noise that is no standard
        // deviation.
        for v in ["inf", "nan", "0.0"] {
            let bad = SAMPLE.replace("horizon_secs = 30.0", &format!("horizon_secs = {v}"));
            assert_eq!(Workload::parse_str(&bad).unwrap_err().path, "run.horizon_secs", "{v}");
        }
        for v in ["inf", "nan", "-0.1"] {
            let bad =
                SAMPLE.replace("horizon_secs = 30.0", &format!("horizon_secs = 30.0\nnoise = {v}"));
            assert_eq!(Workload::parse_str(&bad).unwrap_err().path, "run.noise", "{v}");
        }
    }
}
