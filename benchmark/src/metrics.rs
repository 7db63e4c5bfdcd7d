//! The names the benchmark reports under: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root repeats these tables for the pipeline; a unit
//! test keeps the two identical.

use empower_telemetry::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "campus_dense",
        "1011-node campus, every floor busy: per-frame layers (event queue, MAC, link queues, datapath graph) do the work",
    ),
    (
        "campus_sparse",
        "same campus, a few floors of low-rate clients: O(network) set-up, control ticks and renders do the work",
    ),
    (
        "testbed_downloads",
        "Table 1 Long and Short on the 22-node testbed: 1-2 flows, dense interference domains, a long idle tail of ticks",
    ),
    (
        "scenario_faults",
        "enterprise scenarios with link flapping, a node crash and on-line rerouting: the write side of the simulator",
    ),
    (
        "route_eval",
        "no packets: 462 route queries on the testbed, then equilibrium evaluation of all schemes on seeded topologies",
    ),
    (
        "datapath_forward",
        "the forwarding graph alone, source to destination endpoint in memory, small/large/lossy/refused frames",
    ),
];

/// An end-to-end metric: what someone running the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const WALL_S: &str = "wall_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const GOODPUT_MBPS: &str = "goodput_mbps";

/// Every workload reports every one of these, and none is ever zero.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: WALL_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: SETUP_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: PEAK_RSS_MB, unit: "MB", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: GOODPUT_MBPS, unit: "Mbit/s", better: Better::Higher, bound: 0.10 },
];

/// `fidelity_err` exists on `testbed_downloads` only, so it cannot sit in
/// [`END_TO_END`]; the pipeline reads it as the per-layer metric
/// `testbed.fidelity_err`, and `compare` holds it to this absolute bound.
pub const FIDELITY_ERR: &str = "testbed.fidelity_err";
pub const FIDELITY_ABS_BOUND: f64 = 0.02;

/// A per-layer metric. It has no bound: it explains, it does not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Layers are the crates. `*_s/_ms/_us/_ns` are span self times (or, with
/// a `.p50`/`.p99` suffix, percentiles of span durations); counts are exact.
pub const PER_LAYER: [PerLayer; 91] = [
    lo("model.topology_ms", "ms"),
    lo("model.imap_ms", "ms"),
    lo("model.nodes", "count"),
    lo("model.links", "count"),
    lo("model.domain_elems", "count"),
    lo("workload.parse_us", "us"),
    lo("workload.compile_ms", "ms"),
    lo("workload.slo_ms", "ms"),
    lo("workload.flows", "count"),
    lo("workload.doc_bytes", "bytes"),
    lo("dynamics.parse_us", "us"),
    lo("dynamics.inject_ms", "ms"),
    lo("dynamics.faults", "count"),
    lo("dynamics.reroutes", "count"),
    lo("dynamics.run_s", "s"),
    lo("core.build_sim_ms", "ms"),
    lo("core.equilibrium_ms.p50", "ms"),
    lo("core.equilibrium_ms.p99", "ms"),
    lo("routing.query_ms.p50", "ms"),
    lo("routing.query_ms.p99", "ms"),
    lo("routing.queries", "count"),
    lo("routing.disconnected", "count"),
    lo("routing.nodes_expanded", "count"),
    lo("routing.ksp_invocations", "count"),
    hi("routing.subtrees_pruned", "count"),
    lo("cc.step_us", "us"),
    lo("cc.price_updates", "count"),
    lo("cc.margin_violations", "count"),
    lo("sim.construct_ms", "ms"),
    lo("sim.run_s", "s"),
    lo("sim.report_ms", "ms"),
    lo("sim.events", "count"),
    lo("sim.ns_per_event", "ns"),
    lo("sim.ticks", "count"),
    lo("sim.idle_tick_us", "us"),
    lo("sim.tick_share", "ratio"),
    lo("sim.slot_us.p50", "us"),
    lo("sim.slot_us.p99", "us"),
    lo("sim.idle_tail_frac", "ratio"),
    lo("sim.domain_probes", "count"),
    lo("sim.probes_per_event", "ratio"),
    lo("sim.hot_allocs", "count"),
    lo("sim.slab_grows", "count"),
    lo("sim.mac_grants", "count"),
    lo("sim.mac_deferrals", "count"),
    lo("sim.queue_drops", "count"),
    lo("sim.event_queue_ns", "ns"),
    lo("sim.sharded.run_s", "s"),
    lo("sim.sharded.wall_ratio", "ratio"),
    hi("sim.sharded.shards_used", "count"),
    lo("sim.sharded.max_shard_events", "count"),
    lo("datapath.ns_per_frame", "ns"),
    lo("datapath.offer_ns", "ns"),
    lo("datapath.poll_ns", "ns"),
    lo("datapath.header_encode_ns", "ns"),
    lo("datapath.header_decode_ns", "ns"),
    lo("datapath.reorder_accept_ns", "ns"),
    lo("datapath.frames_offered", "count"),
    hi("datapath.frames_delivered", "count"),
    lo("datapath.frames_lost", "count"),
    lo("datapath.bucket_refusals", "count"),
    lo("datapath.loss_rule_firings", "count"),
    lo("datapath.reorder_flushes", "count"),
    lo("datapath.node.route_choice.in", "count"),
    lo("datapath.node.route_choice.out", "count"),
    lo("datapath.node.price_stamp.in", "count"),
    lo("datapath.node.price_stamp.out", "count"),
    lo("datapath.node.encap.in", "count"),
    lo("datapath.node.encap.out", "count"),
    lo("datapath.node.decap.in", "count"),
    lo("datapath.node.decap.out", "count"),
    lo("datapath.node.reorder.in", "count"),
    lo("datapath.node.reorder.out", "count"),
    hi("datapath.udp_frames_per_s", "1/s"),
    lo("telemetry.manifest_ms", "ms"),
    lo("telemetry.manifest_bytes", "bytes"),
    lo("telemetry.counters", "count"),
    lo("telemetry.trace_jsonl_ms", "ms"),
    lo("telemetry.trace_bytes", "bytes"),
    lo("telemetry.json_parse_ms", "ms"),
    lo("testbed.long_empower_s", "s"),
    lo("testbed.long_wocc_s", "s"),
    lo("testbed.long_ratio", "ratio"),
    lo(FIDELITY_ERR, "ratio"),
    lo("alloc.setup.count", "count"),
    lo("alloc.run.count", "count"),
    lo("alloc.run.bytes", "bytes"),
    lo("alloc.render.count", "count"),
    lo("trace_overhead_frac", "ratio"),
    lo("trace.unattributed_frac", "ratio"),
    lo("trace.iterations", "count"),
];

/// The three tables as JSON, in the shape `BENCHMARK.json` uses. Stored in
/// every result file, so a result can be read without this source.
pub fn definitions() -> [(&'static str, Json); 3] {
    let text = |s: &str| Json::Str(s.to_string());
    let workloads =
        WORKLOADS.iter().map(|(name, why)| Json::obj([("name", text(name)), ("why", text(why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.label())),
            ("bound", Json::Float(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        Json::obj([
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.label())),
        ])
    });
    [
        ("workloads", Json::arr(workloads)),
        ("end_to_end", Json::arr(end_to_end)),
        ("per_layer", Json::arr(per_layer)),
    ]
}

/// Unit of a per-layer metric, or `None` for an unknown name.
pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn tables_respect_the_pipeline_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (w, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w} is too long");
        }
        for m in END_TO_END {
            assert!(valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "bad unit on {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` is a file of its own for the pipeline; this keeps
    /// it saying exactly what the tables above say.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(pairs) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("paths"), Some(&Json::arr([Json::Str("benchmark".into())])));
        let secs = doc.get("run_seconds").and_then(Json::as_u64).expect("run_seconds");
        assert!((1..=60).contains(&secs));
        for (key, table) in definitions() {
            assert_eq!(doc.get(key), Some(&table), "{key} differs from src/metrics.rs");
        }
    }
}
