//! Packet-level event tracing.
//!
//! The simulator can record a structured trace of everything that happens
//! on the wire — the simulation-world analogue of the `--pcap` dumps the
//! Click implementation produced. Traces serialize to JSON lines for
//! offline analysis and are the raw material for the time-series figures.

use std::fmt::Write as _;

use empower_model::LinkId;
use empower_telemetry::json::write_f64;
use empower_telemetry::Json;

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A frame started transmitting on a link.
    TxStart { t: f64, link: u32, flow: usize, seq: u32, bits: u64 },
    /// A frame finished transmitting and was handed to the next node.
    TxEnd { t: f64, link: u32, flow: usize, seq: u32 },
    /// A frame was dropped (full queue, dead link, admission).
    Drop { t: f64, flow: usize, seq: u32, where_: DropSite },
    /// The destination delivered a frame in order to the upper layer.
    Deliver { t: f64, flow: usize, seq: u32 },
    /// The reorder buffer declared a sequence number lost.
    DeclaredLost { t: f64, flow: usize, seq: u32 },
    /// A link's capacity changed (failure injection).
    LinkChange { t: f64, link: u32, capacity_mbps: f64 },
}

/// Where a drop happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropSite {
    SourceAdmission,
    QueueOverflow,
    DeadLink,
}

impl DropSite {
    fn label(self) -> &'static str {
        match self {
            DropSite::SourceAdmission => "source_admission",
            DropSite::QueueOverflow => "queue_overflow",
            DropSite::DeadLink => "dead_link",
        }
    }

    fn from_label(s: &str) -> Option<DropSite> {
        Some(match s {
            "source_admission" => DropSite::SourceAdmission,
            "queue_overflow" => DropSite::QueueOverflow,
            "dead_link" => DropSite::DeadLink,
            _ => return None,
        })
    }
}

impl TraceEvent {
    /// Appends the JSON-line form, without the newline: an object tagged
    /// by `"ev"` with snake_case variant names (the format the serde-based
    /// version produced), written straight into `out` with no tree between.
    /// Keys come in declaration order; floats follow
    /// [`empower_telemetry::json::write_f64`], the rule every [`Json`]
    /// rendering uses.
    pub fn write_json(&self, out: &mut String) {
        let (ev, t) = match *self {
            TraceEvent::TxStart { t, .. } => ("tx_start", t),
            TraceEvent::TxEnd { t, .. } => ("tx_end", t),
            TraceEvent::Drop { t, .. } => ("drop", t),
            TraceEvent::Deliver { t, .. } => ("deliver", t),
            TraceEvent::DeclaredLost { t, .. } => ("declared_lost", t),
            TraceEvent::LinkChange { t, .. } => ("link_change", t),
        };
        out.push_str("{\"ev\":\"");
        out.push_str(ev);
        out.push_str("\",\"t\":");
        write_f64(out, t);
        let _ = match *self {
            TraceEvent::TxStart { link, flow, seq, bits, .. } => {
                write!(out, r#","link":{link},"flow":{flow},"seq":{seq},"bits":{bits}"#)
            }
            TraceEvent::TxEnd { link, flow, seq, .. } => {
                write!(out, r#","link":{link},"flow":{flow},"seq":{seq}"#)
            }
            TraceEvent::Drop { flow, seq, where_, .. } => {
                write!(out, r#","flow":{flow},"seq":{seq},"where_":"{}""#, where_.label())
            }
            TraceEvent::Deliver { flow, seq, .. } | TraceEvent::DeclaredLost { flow, seq, .. } => {
                write!(out, r#","flow":{flow},"seq":{seq}"#)
            }
            TraceEvent::LinkChange { link, .. } => {
                write!(out, r#","link":{link},"capacity_mbps":"#)
            }
        };
        if let TraceEvent::LinkChange { capacity_mbps, .. } = *self {
            write_f64(out, capacity_mbps);
        }
        out.push('}');
    }

    /// Parses one JSON-line object back into an event.
    pub fn from_json(v: &Json) -> Option<TraceEvent> {
        let t = v.get("t")?.as_f64()?;
        let flow = || v.get("flow")?.as_u64().map(|x| x as usize);
        let seq = || v.get("seq")?.as_u64().map(|x| x as u32);
        let link = || v.get("link")?.as_u64().map(|x| x as u32);
        Some(match v.get("ev")?.as_str()? {
            "tx_start" => TraceEvent::TxStart {
                t,
                link: link()?,
                flow: flow()?,
                seq: seq()?,
                bits: v.get("bits")?.as_u64()?,
            },
            "tx_end" => TraceEvent::TxEnd { t, link: link()?, flow: flow()?, seq: seq()? },
            "drop" => TraceEvent::Drop {
                t,
                flow: flow()?,
                seq: seq()?,
                where_: DropSite::from_label(v.get("where_")?.as_str()?)?,
            },
            "deliver" => TraceEvent::Deliver { t, flow: flow()?, seq: seq()? },
            "declared_lost" => TraceEvent::DeclaredLost { t, flow: flow()?, seq: seq()? },
            "link_change" => TraceEvent::LinkChange {
                t,
                link: link()?,
                capacity_mbps: v.get("capacity_mbps")?.as_f64()?,
            },
            _ => return None,
        })
    }
}

/// An in-memory trace sink with optional size bound.
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// Hard cap to keep long runs bounded; oldest events are NOT evicted —
    /// recording simply stops (the interesting part of a trace is usually
    /// its beginning, and an explicit cap beats silent memory blow-up).
    cap: Option<usize>,
    truncated: bool,
}

impl Trace {
    /// Unbounded trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Trace that stops recording after `cap` events.
    pub fn bounded(cap: usize) -> Self {
        Trace { cap: Some(cap), ..Default::default() }
    }

    /// Records one event.
    pub fn push(&mut self, event: TraceEvent) {
        if self.cap.is_some_and(|cap| self.events.len() >= cap) {
            self.truncated = true;
            return;
        }
        self.events.push(event);
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// True if the cap was hit.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Serializes to JSON lines, every record written into one `String`.
    pub fn to_jsonl(&self) -> String {
        // About 70 bytes a record; the reservation only saves regrowth.
        let mut out = String::with_capacity(self.events.len() * 72);
        for e in &self.events {
            e.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Airtime actually consumed on `link` over the trace, seconds
    /// (TxStart→TxEnd pairing; unpaired starts are ignored).
    pub fn airtime_on(&self, link: LinkId) -> f64 {
        let mut started: Option<f64> = None;
        let mut total = 0.0;
        for e in &self.events {
            match e {
                TraceEvent::TxStart { t, link: l, .. } if *l == link.0 => started = Some(*t),
                TraceEvent::TxEnd { t, link: l, .. } if *l == link.0 => {
                    if let Some(s) = started.take() {
                        total += t - s;
                    }
                }
                _ => {}
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips() {
        let mut t = Trace::new();
        t.push(TraceEvent::TxStart { t: 0.5, link: 3, flow: 0, seq: 7, bits: 96_000 });
        t.push(TraceEvent::Deliver { t: 0.6, flow: 0, seq: 7 });
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let back = TraceEvent::from_json(&Json::parse(lines[0]).unwrap()).unwrap();
        assert_eq!(back, t.events()[0]);
    }

    /// The tree form the writer replaced: each record as a [`Json`]
    /// object, rendered by `Json`'s own writer.
    fn tree(e: &TraceEvent) -> Json {
        match e {
            TraceEvent::TxStart { t, link, flow, seq, bits } => Json::obj([
                ("ev", Json::from("tx_start")),
                ("t", Json::Float(*t)),
                ("link", Json::from(*link)),
                ("flow", Json::from(*flow)),
                ("seq", Json::from(*seq)),
                ("bits", Json::from(*bits)),
            ]),
            TraceEvent::TxEnd { t, link, flow, seq } => Json::obj([
                ("ev", Json::from("tx_end")),
                ("t", Json::Float(*t)),
                ("link", Json::from(*link)),
                ("flow", Json::from(*flow)),
                ("seq", Json::from(*seq)),
            ]),
            TraceEvent::Drop { t, flow, seq, where_ } => Json::obj([
                ("ev", Json::from("drop")),
                ("t", Json::Float(*t)),
                ("flow", Json::from(*flow)),
                ("seq", Json::from(*seq)),
                ("where_", Json::from(where_.label())),
            ]),
            TraceEvent::Deliver { t, flow, seq } => Json::obj([
                ("ev", Json::from("deliver")),
                ("t", Json::Float(*t)),
                ("flow", Json::from(*flow)),
                ("seq", Json::from(*seq)),
            ]),
            TraceEvent::DeclaredLost { t, flow, seq } => Json::obj([
                ("ev", Json::from("declared_lost")),
                ("t", Json::Float(*t)),
                ("flow", Json::from(*flow)),
                ("seq", Json::from(*seq)),
            ]),
            TraceEvent::LinkChange { t, link, capacity_mbps } => Json::obj([
                ("ev", Json::from("link_change")),
                ("t", Json::Float(*t)),
                ("link", Json::from(*link)),
                ("capacity_mbps", Json::Float(*capacity_mbps)),
            ]),
        }
    }

    #[test]
    fn the_writer_renders_what_the_json_tree_rendered() {
        let below_1e15 = f64::from_bits(1e15f64.to_bits() - 1);
        let floats = [
            0.0,
            -0.0,
            3.0,
            -42.0,
            0.1,
            1e15,
            below_1e15,
            below_1e15.trunc(),
            1e16,
            1e-9,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for &x in &floats {
            let events = [
                TraceEvent::TxStart {
                    t: x,
                    link: u32::MAX,
                    flow: usize::MAX,
                    seq: 7,
                    bits: u64::MAX,
                },
                TraceEvent::TxEnd { t: x, link: 0, flow: 1, seq: u32::MAX },
                TraceEvent::Drop { t: x, flow: 2, seq: 3, where_: DropSite::SourceAdmission },
                TraceEvent::Drop { t: x, flow: 2, seq: 3, where_: DropSite::QueueOverflow },
                TraceEvent::Drop { t: x, flow: 2, seq: 3, where_: DropSite::DeadLink },
                TraceEvent::Deliver { t: x, flow: 4, seq: 5 },
                TraceEvent::DeclaredLost { t: x, flow: 6, seq: 0 },
                TraceEvent::LinkChange { t: 1.5, link: 9, capacity_mbps: x },
                TraceEvent::LinkChange { t: x, link: 9, capacity_mbps: 0.0 },
            ];
            for e in &events {
                let mut line = String::new();
                e.write_json(&mut line);
                assert_eq!(line, tree(e).to_string(), "{e:?}");
            }
            let mut trace = Trace::new();
            events.iter().for_each(|e| trace.push(e.clone()));
            let want: String = events.iter().map(|e| format!("{}\n", tree(e))).collect();
            assert_eq!(trace.to_jsonl(), want);
        }
    }

    #[test]
    fn bounded_trace_stops_not_evicts() {
        let mut t = Trace::bounded(2);
        for seq in 0..5 {
            t.push(TraceEvent::Deliver { t: 0.0, flow: 0, seq });
        }
        assert_eq!(t.events().len(), 2);
        assert!(t.is_truncated());
        // The FIRST events are kept.
        assert!(matches!(t.events()[0], TraceEvent::Deliver { seq: 0, .. }));
    }

    #[test]
    fn airtime_sums_each_transmission() {
        let mut t = Trace::new();
        t.push(TraceEvent::TxStart { t: 1.0, link: 2, flow: 0, seq: 0, bits: 10 });
        t.push(TraceEvent::TxEnd { t: 1.25, link: 2, flow: 0, seq: 0 });
        t.push(TraceEvent::TxStart { t: 2.0, link: 2, flow: 1, seq: 0, bits: 10 });
        t.push(TraceEvent::TxEnd { t: 2.5, link: 2, flow: 1, seq: 0 });
        t.push(TraceEvent::LinkChange { t: 3.0, link: 2, capacity_mbps: 0.0 });
        assert!((t.airtime_on(LinkId(2)) - 0.75).abs() < 1e-12);
    }
}
