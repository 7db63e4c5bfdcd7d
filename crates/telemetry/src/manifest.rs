//! Run manifests: self-describing provenance records written next to
//! experiment results (`--metrics <path>` on the `empower` CLI).
//!
//! A manifest is an insertion-ordered JSON object holding the experiment
//! name, the run parameters (seed, scheme, sweep size, …) and a counter
//! snapshot. Because every value in it is derived from the run
//! configuration and the deterministic telemetry registry, two same-seed
//! runs write byte-identical manifests — that property is what makes a
//! perf regression measurable instead of anecdotal.

use crate::json::{Json, ToJson};
use crate::Telemetry;

/// An ordered experiment manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    fields: Vec<(String, Json)>,
}

impl Manifest {
    /// Starts a manifest for `experiment` (the figure/table or verb name).
    pub fn new(experiment: &str) -> Manifest {
        Manifest {
            fields: vec![
                ("experiment".to_string(), Json::Str(experiment.to_string())),
                // Schema version for downstream tooling; bump on breaking
                // changes to the layout documented in EXPERIMENTS.md.
                ("manifest_version".to_string(), Json::Int(1)),
            ],
        }
    }

    /// Adds (or replaces) one field, preserving first-insertion order.
    pub fn set(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        let v = value.to_json();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = v;
        } else {
            self.fields.push((key.to_string(), v));
        }
        self
    }

    /// Attaches the registry's counter snapshot under `"counters"`.
    pub fn attach_counters(&mut self, telemetry: &Telemetry) -> &mut Self {
        self.set("counters", telemetry.snapshot().to_json())
    }

    /// The manifest as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.fields.clone())
    }

    /// Pretty-printed JSON plus trailing newline — the exact bytes
    /// [`Manifest::write`] puts on disk.
    pub fn render(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
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
