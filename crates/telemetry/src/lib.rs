#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-telemetry
//!
//! Zero-dependency, deterministic observability for the EMPoWER stack:
//!
//! * a **counter registry** with R2-style flavors ([`CounterType`]:
//!   packets / bytes / errors / gauge) handing out plain-`Cell` handles
//!   ([`Counter`]) whose disabled path costs one branch;
//! * **virtual-time-stamped event tracing** ([`TraceRecord`]) into a
//!   bounded in-memory ring with an optional JSON-lines file sink;
//! * **scoped namespaces** ([`Scope`]) so per-node / per-link / per-flow
//!   metrics get hierarchical names (`node/3/mac/grants`) without the hot
//!   path doing string work;
//! * **run manifests** ([`Manifest`]) recording seed, scheme, parameters
//!   and a counter snapshot next to experiment results;
//! * **SLO histograms** ([`Histogram`], [`SloSummary`]): deterministic
//!   log-bucketed quantiles (p50/p95/p99 and friends) that emit themselves
//!   as gauge counters, for the workload layer's per-client SLO reports;
//! * a small deterministic **JSON** value type ([`Json`], [`ToJson`]) used
//!   by all of the above and by the benchmark result dumps.
//!
//! ## Determinism contract
//!
//! All timestamps come from the **virtual clock** (`set_now`), which the
//! owning component advances from simulated time — never from the OS.
//! Counter snapshots sort by name; JSON objects keep insertion order; float
//! formatting is Rust's shortest round-trip form. Consequently two runs
//! with the same seed produce byte-identical snapshots, traces and
//! manifests (DESIGN.md §3.4 extends to observability).
//!
//! ## Usage
//!
//! ```
//! use empower_telemetry::{CounterType, Telemetry};
//!
//! let tele = Telemetry::enabled();
//! let mac = tele.scope("node").scope_idx(3).scope("mac");
//! let grants = mac.counter("grants", CounterType::Packets);
//! tele.set_now(0.125);
//! grants.inc();
//! mac.event("grant", &[("link", 7u32.into())]);
//! let snap = tele.snapshot();
//! assert_eq!(snap.value("node/3/mac/grants"), Some(1));
//! ```
//!
//! A disabled handle (`Telemetry::disabled()`, also `Default`) hands out
//! no-op counters and drops events; instrumented code needs no `if`s.

mod counter;
pub mod histogram;
pub mod json;
mod manifest;
mod trace;

pub use counter::{Counter, CounterSnapshot, CounterType};
pub use histogram::{Histogram, SloSummary};
pub use json::{Json, JsonError, ToJson};
pub use manifest::Manifest;
pub use trace::{TraceBuffer, TraceRecord};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use counter::CounterEntry;

struct Inner {
    clock: Cell<f64>,
    counters: RefCell<Vec<CounterEntry>>,
    index: RefCell<BTreeMap<String, usize>>,
    trace: RefCell<trace::TraceBuffer>,
}

/// The registry handle. Cloning is cheap (an `Rc` bump) and all clones
/// share the same registry; a disabled handle is `None` inside, making
/// every operation a single branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry(disabled)"),
            Some(inner) => write!(
                f,
                "Telemetry({} counters, {} trace records)",
                inner.counters.borrow().len(),
                inner.trace.borrow().len()
            ),
        }
    }
}

impl Telemetry {
    /// A live registry with the default trace-ring capacity.
    pub fn enabled() -> Telemetry {
        Telemetry::with_ring_capacity(trace::DEFAULT_RING_CAP)
    }

    /// A live registry whose trace ring holds at most `cap` records.
    pub fn with_ring_capacity(cap: usize) -> Telemetry {
        Telemetry {
            inner: Some(Rc::new(Inner {
                clock: Cell::new(0.0),
                counters: RefCell::new(Vec::new()),
                index: RefCell::new(BTreeMap::new()),
                trace: RefCell::new(trace::TraceBuffer::new(cap)),
            })),
        }
    }

    /// The no-op handle: every counter it hands out is dead, every event
    /// is dropped.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// True if this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the virtual clock (simulated seconds / slot index). The
    /// owning engine calls this; emitters just read it.
    pub fn set_now(&self, t: f64) {
        if let Some(inner) = &self.inner {
            inner.clock.set(t);
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| i.clock.get())
    }

    /// Registers (or re-opens) the counter `name` with `flavor` and returns
    /// its handle. Re-opening with a different flavor keeps the original
    /// (first registration wins) — flavors are declarations, not state.
    pub fn counter(&self, name: impl Into<String>, flavor: CounterType) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::noop();
        };
        let name = name.into();
        let mut index = inner.index.borrow_mut();
        let mut counters = inner.counters.borrow_mut();
        let next = counters.len();
        let idx = *index.entry(name.clone()).or_insert(next);
        if idx == next {
            counters.push(CounterEntry { name, flavor, cell: Rc::new(Cell::new(0)) });
        }
        Counter { cell: Some(counters[idx].cell.clone()) }
    }

    /// A root scope with the given prefix.
    pub fn scope(&self, prefix: impl Into<String>) -> Scope {
        Scope { tele: self.clone(), prefix: prefix.into() }
    }

    /// Emits a trace record at the current virtual time.
    pub fn event(&self, scope: &str, kind: &str, fields: &[(&str, Json)]) {
        let Some(inner) = &self.inner else { return };
        inner.trace.borrow_mut().push(TraceRecord {
            t: inner.clock.get(),
            scope: scope.to_string(),
            kind: kind.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        });
    }

    /// Streams all future trace records to a JSON-lines file at `path`
    /// (in addition to the in-memory ring).
    pub fn stream_trace_to(&self, path: &str) -> std::io::Result<()> {
        if let Some(inner) = &self.inner {
            let file = std::fs::File::create(path)?;
            inner.trace.borrow_mut().attach_sink(file);
        }
        Ok(())
    }

    /// Flushes the JSON-lines sink, if any.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.trace.borrow_mut().flush();
        }
    }

    /// A sorted snapshot of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut counters: Vec<(String, CounterType, u64)> = match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .counters
                .borrow()
                .iter()
                .map(|e| (e.name.clone(), e.flavor, e.cell.get()))
                .collect(),
        };
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        CounterSnapshot { counters }
    }

    /// Folds a snapshot taken from another registry (e.g. a per-work-item
    /// registry inside a parallel sweep worker) into this one. Monotone
    /// flavors (packets / bytes / errors) **add** — they commute, so any
    /// merge order gives the serial totals — while gauges **set** (last
    /// write wins): merging worker snapshots in work-item index order then
    /// reproduces exactly the value a serial run would have left behind.
    pub fn merge_snapshot(&self, snap: &CounterSnapshot) {
        for (name, flavor, value) in &snap.counters {
            let c = self.counter(name.clone(), *flavor);
            match flavor {
                CounterType::Gauge => c.set(*value),
                _ => c.add(*value),
            }
        }
    }

    /// The trace records currently in the ring (oldest first).
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.trace.borrow().clone_records())
    }

    /// The ring serialized as JSON lines.
    pub fn trace_jsonl(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| i.trace.borrow().to_jsonl())
    }

    /// Records evicted from the ring so far (0 = complete stream).
    pub fn trace_evicted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.trace.borrow().evicted())
    }
}

/// A hierarchical metric namespace: `scope("node").scope_idx(3)` names
/// counters `node/3/...`. Scopes are built once at setup time; the handles
/// they produce are what the hot path touches.
#[derive(Debug, Clone)]
pub struct Scope {
    tele: Telemetry,
    prefix: String,
}

impl Scope {
    /// A child scope `prefix/name`.
    pub fn scope(&self, name: &str) -> Scope {
        Scope { tele: self.tele.clone(), prefix: format!("{}/{}", self.prefix, name) }
    }

    /// A child scope with a numeric component (`node/3`).
    pub fn scope_idx(&self, idx: usize) -> Scope {
        Scope { tele: self.tele.clone(), prefix: format!("{}/{}", self.prefix, idx) }
    }

    /// Registers `prefix/name` with `flavor`.
    pub fn counter(&self, name: &str, flavor: CounterType) -> Counter {
        self.tele.counter(format!("{}/{}", self.prefix, name), flavor)
    }

    /// Emits a trace record attributed to this scope.
    pub fn event(&self, kind: &str, fields: &[(&str, Json)]) {
        self.tele.event(&self.prefix, kind, fields);
    }

    /// The full prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The underlying registry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let tele = Telemetry::disabled();
        let c = tele.counter("x", CounterType::Packets);
        c.inc();
        c.add(10);
        tele.event("s", "e", &[]);
        tele.set_now(5.0);
        assert!(!c.is_live());
        assert_eq!(c.get(), 0);
        assert_eq!(tele.now(), 0.0);
        assert!(tele.snapshot().counters.is_empty());
        assert!(tele.trace_records().is_empty());
    }

    #[test]
    fn counters_share_cells_by_name() {
        let tele = Telemetry::enabled();
        let a = tele.counter("n/pkts", CounterType::Packets);
        let b = tele.counter("n/pkts", CounterType::Packets);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(tele.snapshot().value("n/pkts"), Some(3));
    }

    #[test]
    fn first_flavor_wins() {
        let tele = Telemetry::enabled();
        tele.counter("g", CounterType::Gauge).set(5);
        let again = tele.counter("g", CounterType::Packets);
        again.record_max(3);
        let snap = tele.snapshot();
        assert_eq!(snap.counters[0].1, CounterType::Gauge);
        assert_eq!(snap.value("g"), Some(5));
    }

    #[test]
    fn snapshot_sorts_by_name_regardless_of_registration_order() {
        let tele = Telemetry::enabled();
        tele.counter("z", CounterType::Packets).inc();
        tele.counter("a", CounterType::Packets).inc();
        tele.counter("m", CounterType::Packets).inc();
        let snap = tele.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn scopes_compose_names() {
        let tele = Telemetry::enabled();
        let link = tele.scope("link").scope_idx(7);
        link.counter("drops", CounterType::Errors).add(2);
        assert_eq!(tele.snapshot().value("link/7/drops"), Some(2));
        assert_eq!(link.prefix(), "link/7");
    }

    #[test]
    fn events_carry_the_virtual_clock() {
        let tele = Telemetry::enabled();
        tele.set_now(1.5);
        tele.event("node/0", "grant", &[("link", 3u32.into())]);
        tele.set_now(2.5);
        tele.scope("cc").event("price_update", &[("flow", 0usize.into())]);
        let recs = tele.trace_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].t, 1.5);
        assert_eq!(recs[0].kind, "grant");
        assert_eq!(recs[1].t, 2.5);
        assert_eq!(recs[1].scope, "cc");
        let jsonl = tele.trace_jsonl();
        let first = jsonl.lines().next().unwrap();
        let v = Json::parse(first).unwrap();
        assert_eq!(v.get("ev").unwrap().as_str(), Some("grant"));
        assert_eq!(v.get("link").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn ring_evicts_oldest() {
        let tele = Telemetry::with_ring_capacity(2);
        for i in 0..5u32 {
            tele.event("s", "e", &[("i", i.into())]);
        }
        let recs = tele.trace_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(tele.trace_evicted(), 3);
        assert_eq!(recs[0].fields[0].1, Json::UInt(3));
    }

    #[test]
    fn same_operations_give_identical_snapshots_and_traces() {
        let run = || {
            let tele = Telemetry::enabled();
            let mac = tele.scope("mac");
            let g = mac.counter("grants", CounterType::Packets);
            for i in 0..10 {
                tele.set_now(i as f64 * 0.1);
                g.inc();
                mac.event("grant", &[("i", (i as u64).into())]);
            }
            (tele.snapshot(), tele.trace_jsonl())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_snapshot_adds_monotone_and_sets_gauges() {
        let worker_a = Telemetry::enabled();
        worker_a.counter("sweep/runs", CounterType::Packets).add(3);
        worker_a.counter("fig4/coincide", CounterType::Gauge).set(7);
        let worker_b = Telemetry::enabled();
        worker_b.counter("sweep/runs", CounterType::Packets).add(2);
        worker_b.counter("fig4/coincide", CounterType::Gauge).set(9);
        let main = Telemetry::enabled();
        main.counter("sweep/runs", CounterType::Packets).inc();
        // Index-order merge: the serial run would end with b's gauge value.
        main.merge_snapshot(&worker_a.snapshot());
        main.merge_snapshot(&worker_b.snapshot());
        let snap = main.snapshot();
        assert_eq!(snap.value("sweep/runs"), Some(6));
        assert_eq!(snap.value("fig4/coincide"), Some(9));
    }

    #[test]
    fn clones_share_the_registry() {
        let tele = Telemetry::enabled();
        let clone = tele.clone();
        clone.counter("c", CounterType::Packets).inc();
        assert_eq!(tele.snapshot().value("c"), Some(1));
    }
}
