//! Virtual-time-stamped event tracing.
//!
//! Every record carries the **virtual clock** of the component that emitted
//! it (simulated seconds in the packet engine, slot index in the fluid
//! controller) — never wall-clock time — so same-seed runs produce
//! byte-identical streams. Records land in a bounded in-memory ring (oldest
//! evicted) and, if a sink path is attached, are appended to a JSON-lines
//! file as they happen.

use std::io::Write;

use crate::json::Json;

/// One traced event: virtual time, the emitting scope (e.g. `node/3/mac`),
/// a kind tag, and ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    pub t: f64,
    pub scope: String,
    pub kind: String,
    pub fields: Vec<(String, Json)>,
}

impl TraceRecord {
    /// The canonical JSON-line form: `{"t":…,"scope":…,"ev":…, <fields>}`.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("t".to_string(), Json::Float(self.t)),
            ("scope".to_string(), Json::Str(self.scope.clone())),
            ("ev".to_string(), Json::Str(self.kind.clone())),
        ];
        pairs.extend(self.fields.iter().cloned());
        Json::Obj(pairs)
    }
}

/// Bounded ring of trace records plus the optional JSON-lines sink.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    ring: std::collections::VecDeque<TraceRecord>,
    cap: usize,
    evicted: u64,
    sink: Option<std::io::BufWriter<std::fs::File>>,
    /// The sink's first write or flush error: once one write failed the
    /// file is truncated, and every later flush reports it.
    sink_error: Option<std::io::Error>,
}

pub(crate) const DEFAULT_RING_CAP: usize = 65_536;

impl TraceBuffer {
    pub(crate) fn new(cap: usize) -> Self {
        TraceBuffer { cap, ..TraceBuffer::default() }
    }

    pub(crate) fn attach_sink(&mut self, file: std::fs::File) {
        self.sink = Some(std::io::BufWriter::new(file));
        self.sink_error = None;
    }

    pub(crate) fn push(&mut self, rec: TraceRecord) {
        if let Some(sink) = self.sink.as_mut() {
            if let Err(e) = writeln!(sink, "{}", rec.to_json()) {
                self.sink_error.get_or_insert(e);
            }
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(rec);
    }

    /// Flushes the sink; `Err` carries the sink's first error, whether
    /// this flush or an earlier write hit it.
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        if let Some(sink) = self.sink.as_mut() {
            if let Err(e) = sink.flush() {
                self.sink_error.get_or_insert(e);
            }
        }
        match &self.sink_error {
            None => Ok(()),
            Some(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        }
    }

    /// The records currently held (oldest first).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// How many records the ring has evicted (0 = the stream is complete).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Serializes the ring to JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.ring {
            out.push_str(&rec.to_json().to_string());
            out.push('\n');
        }
        out
    }

    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    pub(crate) fn clone_records(&self) -> Vec<TraceRecord> {
        self.ring.iter().cloned().collect()
    }
}
