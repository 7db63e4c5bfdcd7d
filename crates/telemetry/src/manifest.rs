//! Run manifests: self-describing provenance records written next to
//! experiment results (`--metrics <path>` on the `empower` CLI).
//!
//! A manifest is an insertion-ordered JSON object holding the experiment
//! name, the run parameters (seed, scheme, sweep size, …) and a counter
//! snapshot. Because every value in it is derived from the run
//! configuration and the deterministic telemetry registry, two same-seed
//! runs write byte-identical manifests — that property is what makes a
//! perf regression measurable instead of anecdotal.

use crate::counter::CounterSnapshot;
use crate::json::{push_indent, write_escaped, Json, ToJson};
use crate::Telemetry;

/// An ordered experiment manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    fields: Vec<(String, Field)>,
}

/// One manifest value. The counter snapshot stays a snapshot until it is
/// rendered: a run's manifest holds thousands of counters, and writing
/// them straight out costs no per-counter tree.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    Json(Json),
    Counters(CounterSnapshot),
}

impl Field {
    fn to_json(&self) -> Json {
        match self {
            Field::Json(v) => v.clone(),
            Field::Counters(snap) => snap.to_json(),
        }
    }
}

impl Manifest {
    /// Starts a manifest for `experiment` (the figure/table or verb name).
    pub fn new(experiment: &str) -> Manifest {
        Manifest {
            fields: vec![
                ("experiment".to_string(), Field::Json(Json::Str(experiment.to_string()))),
                // Schema version for downstream tooling; bump on breaking
                // changes to the layout documented in EXPERIMENTS.md.
                ("manifest_version".to_string(), Field::Json(Json::Int(1))),
            ],
        }
    }

    /// Adds (or replaces) one field, preserving first-insertion order.
    pub fn set(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.put(key, Field::Json(value.to_json()))
    }

    fn put(&mut self, key: &str, v: Field) -> &mut Self {
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = v;
        } else {
            self.fields.push((key.to_string(), v));
        }
        self
    }

    /// Attaches the registry's counter snapshot under `"counters"`: an
    /// object `{name: {"type": flavor, "value": v}, ...}` in name order
    /// (see [`CounterSnapshot::to_json`]).
    pub fn attach_counters(&mut self, telemetry: &Telemetry) -> &mut Self {
        self.put("counters", Field::Counters(telemetry.snapshot()))
    }

    /// The manifest as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.fields.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    /// Pretty-printed JSON plus trailing newline — the exact bytes
    /// [`Manifest::write`] puts on disk, and those of
    /// `to_json().to_string_pretty()` — written field by field into one
    /// `String`, with no copy of the tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // `new` sets two fields, so the object is never empty.
        out.push_str("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            push_indent(&mut out, 1);
            write_escaped(&mut out, k);
            out.push_str(": ");
            match v {
                Field::Json(v) => v.write_pretty(&mut out, 1),
                Field::Counters(snap) => snap.write_pretty(&mut out, 1),
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the manifest to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterType;

    #[test]
    fn manifest_is_ordered_and_stable() {
        let tele = Telemetry::enabled();
        tele.counter("a/pkts", CounterType::Packets).add(3);
        let mut m = Manifest::new("fig4");
        m.set("seed", 7u64).set("scheme", "EMPoWER").attach_counters(&tele);
        let s1 = m.render();
        let s2 = m.render();
        assert_eq!(s1, s2);
        let v = Json::parse(&s1).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("fig4"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(
            v.get("counters").unwrap().get("a/pkts").unwrap().get("value").unwrap().as_u64(),
            Some(3)
        );
    }

    #[test]
    fn render_writes_what_the_tree_pretty_prints() {
        let tele = Telemetry::enabled();
        let mut m = Manifest::new("x");
        m.attach_counters(&tele); // no counters yet: `{}`
        assert_eq!(m.render(), format!("{}\n", m.to_json().to_string_pretty()));
        tele.counter("b/drops", CounterType::Errors).add(2);
        tele.counter("a/\"quoted\"\n", CounterType::Packets).add(u64::MAX);
        tele.counter("g", CounterType::Gauge).set(0);
        tele.counter("c/bytes", CounterType::Bytes).add(7);
        m.set("seed", 7u64)
            .set(
                "params",
                Json::obj([("rates", Json::arr([Json::Float(1.0)])), ("e", Json::arr([]))]),
            )
            .attach_counters(&tele)
            .set("after", -0.0);
        let want = format!("{}\n", m.to_json().to_string_pretty());
        assert_eq!(m.render(), want);
        assert!(want.contains("\"counters\": {\n    \"a/\\\"quoted\\\"\\n\": {\n      \"type\""));
    }

    #[test]
    fn set_replaces_in_place() {
        let mut m = Manifest::new("x");
        m.set("seed", 1u64);
        m.set("runs", 5usize);
        m.set("seed", 2u64);
        let v = m.to_json();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(2));
        // Order preserved: experiment, manifest_version, seed, runs.
        if let Json::Obj(pairs) = &v {
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["experiment", "manifest_version", "seed", "runs"]);
        } else {
            panic!("not an object");
        }
    }
}
