//! Counter flavors and handles, after the R2 router's
//! `counters::flavors::{Counter, CounterType}` pattern: every counter has a
//! declared flavor so tooling knows how to aggregate and display it, and the
//! handle the hot path holds is a plain shared `Cell<u64>` — incrementing is
//! one add, and a disabled registry costs exactly one branch.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::json::{push_indent, write_escaped, Json};

/// What a counter's value means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterType {
    /// Monotone count of packets/frames/events/units.
    Packets,
    /// Monotone count of bytes.
    Bytes,
    /// Monotone count of error events.
    Errors,
    /// Instantaneous or high-water level (not monotone).
    Gauge,
}

impl CounterType {
    /// Stable lowercase label used in snapshots and manifests.
    pub fn label(self) -> &'static str {
        match self {
            CounterType::Packets => "packets",
            CounterType::Bytes => "bytes",
            CounterType::Errors => "errors",
            CounterType::Gauge => "gauge",
        }
    }
}

/// A cheap handle to one registered counter. Cloning shares the cell.
/// A handle from a disabled registry is a no-op (`None` inside — the
/// "one branch" of the disabled path).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    pub(crate) cell: Option<Rc<Cell<u64>>>,
}

impl Counter {
    /// A permanently disabled counter (what a disabled registry hands out).
    pub fn noop() -> Counter {
        Counter { cell: None }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.cell {
            c.set(c.get() + 1);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.set(c.get() + n);
        }
    }

    /// Sets the value (gauges).
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.cell {
            c.set(v);
        }
    }

    /// Raises the value to `v` if larger (high-water marks).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if let Some(c) = &self.cell {
            if v > c.get() {
                c.set(v);
            }
        }
    }

    /// Current value (0 for disabled handles).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.get())
    }

    /// True if this handle actually records.
    pub fn is_live(&self) -> bool {
        self.cell.is_some()
    }
}

/// One registered counter, as stored by the registry (its name is the
/// registry index's key).
#[derive(Debug, Clone)]
pub(crate) struct CounterEntry {
    pub flavor: CounterType,
    pub cell: Rc<Cell<u64>>,
}

/// An immutable, ordered copy of every counter at one instant.
///
/// Entries are sorted by name, so two snapshots of registries that went
/// through the same operations compare (and serialize) identically no
/// matter the registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// `(name, flavor, value)` sorted by name.
    pub counters: Vec<(String, CounterType, u64)>,
}

impl CounterSnapshot {
    /// Value of one counter by exact name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].2)
    }

    /// Writes [`CounterSnapshot::to_json`]'s pretty form at `indent`
    /// straight into `out`, with no tree between.
    pub(crate) fn write_pretty(&self, out: &mut String, indent: usize) {
        if self.counters.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push_str("{\n");
        for (i, (name, flavor, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            push_indent(out, indent + 1);
            write_escaped(out, name);
            out.push_str(": {\n");
            push_indent(out, indent + 2);
            let _ = writeln!(out, "\"type\": \"{}\",", flavor.label());
            push_indent(out, indent + 2);
            let _ = writeln!(out, "\"value\": {value}");
            push_indent(out, indent + 1);
            out.push('}');
        }
        out.push('\n');
        push_indent(out, indent);
        out.push('}');
    }

    /// JSON object `{name: {"type": flavor, "value": v}, ...}` in sorted
    /// name order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.counters
                .iter()
                .map(|(name, flavor, value)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("type", Json::Str(flavor.label().to_string())),
                            ("value", Json::UInt(*value)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}
