//! Packet-level event tracing.
//!
//! The simulator can record a structured trace of everything that happens
//! on the wire — the simulation-world analogue of the `--pcap` dumps the
//! Click implementation produced. Traces serialize to JSON lines for
//! offline analysis and are the raw material for the time-series figures.

use std::fmt::Write as _;

use empower_model::LinkId;
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
    /// Simulated time of the event.
    pub fn time(&self) -> f64 {
        match self {
            TraceEvent::TxStart { t, .. }
            | TraceEvent::TxEnd { t, .. }
            | TraceEvent::Drop { t, .. }
            | TraceEvent::Deliver { t, .. }
            | TraceEvent::DeclaredLost { t, .. }
            | TraceEvent::LinkChange { t, .. } => *t,
        }
    }

    /// The JSON-line form: an object tagged by `"ev"` with snake_case
    /// variant names (the format the serde-based version produced).
    pub fn to_json(&self) -> Json {
        match self {
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
    /// Past the cap, keep accepting events that carry the timestamp of the
    /// last one recorded (see [`Trace::bounded_through_ties`]).
    through_ties: bool,
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

    /// The sink of one shard worker: like [`Trace::bounded`], except that
    /// past the cap it keeps accepting events while they carry the timestamp
    /// of the last one recorded. An engine records in time order, so what
    /// this keeps is every event up to and including the time of its
    /// `cap`-th: a superset of the events this worker contributes to the
    /// first `cap` of any canonical merge ([`for_each_canonical`] sorts by
    /// time first), whatever the other workers recorded.
    pub(crate) fn bounded_through_ties(cap: usize) -> Self {
        Trace { cap: Some(cap), through_ties: true, ..Default::default() }
    }

    /// Records one event.
    pub fn push(&mut self, event: TraceEvent) {
        if self.cap.is_some_and(|cap| self.events.len() >= cap) {
            let tie = self.through_ties
                && self.events.last().is_some_and(|last| last.time() == event.time());
            if !tie {
                self.truncated = true;
                return;
            }
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

    /// The configured cap, if any.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Serializes to JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Serializes to JSON lines in **canonical order**: events sorted by
    /// `(time, rendered line)`. Equal-time events from independent
    /// interference atoms have no defined relative order in a single event
    /// loop (it depends on queue insertion history), so the sharded engine
    /// emits canonical traces and the cross-engine gates compare both
    /// sides' canonical renderings.
    pub fn canonical_jsonl(&self) -> String {
        let mut out = String::new();
        for_each_canonical(&[self], |_, line| {
            out.push_str(line);
            out.push('\n');
        });
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

/// Visits every event of `parts` in canonical order — sorted by `(time,
/// rendered line)` — handing `f` the event and its rendered line. This is
/// the one definition of that order: [`Trace::canonical_jsonl`] and the
/// sharded engine's trace merge both go through it, which makes the merged
/// bytes a function of the event *multiset* only, however it was split.
/// Every line is rendered into one shared buffer and keyed by its byte
/// range, not into one `String` per event. The ranges are `usize`, so an
/// unbounded sink is limited by memory and never by a narrower offset
/// wrapping (4 GiB of rendered lines is about 60 M events).
pub(crate) fn for_each_canonical<'a>(parts: &[&'a Trace], mut f: impl FnMut(&'a TraceEvent, &str)) {
    let mut buf = String::new();
    let mut keyed: Vec<(u64, usize, usize, &TraceEvent)> = Vec::new();
    for part in parts {
        for e in &part.events {
            let start = buf.len();
            let _ = write!(buf, "{}", e.to_json());
            keyed.push((e.time().to_bits(), start, buf.len(), e));
        }
    }
    let line = |k: &(u64, usize, usize, &TraceEvent)| &buf[k.1..k.2];
    keyed.sort_by(|a, b| (a.0, line(a)).cmp(&(b.0, line(b))));
    for k in &keyed {
        f(k.3, line(k));
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
    fn tie_extending_sink_keeps_the_whole_last_timestamp() {
        let mut t = Trace::bounded_through_ties(3);
        for (seq, time) in [0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0].into_iter().enumerate() {
            t.push(TraceEvent::Deliver { t: time, flow: 0, seq: seq as u32 });
        }
        // The cap lands on the first t = 2.0; its two ties are kept, then
        // recording stops for good.
        assert_eq!(t.events().len(), 5);
        assert!(t.events().iter().all(|e| e.time() <= 2.0));
        assert!(t.is_truncated());
        let mut none = Trace::bounded_through_ties(0);
        none.push(TraceEvent::Deliver { t: 0.0, flow: 0, seq: 0 });
        assert!(none.events().is_empty() && none.is_truncated());
    }

    /// Canonical order is a function of the event multiset: rendering one
    /// trace equals merging any two-way split of it.
    #[test]
    fn canonical_order_ignores_how_the_trace_was_split() {
        let mut whole = Trace::new();
        let (mut a, mut b) = (Trace::new(), Trace::new());
        for i in 0..40u32 {
            // Scrambled times with ties (i % 7), distinct lines within a tie.
            let e = match i % 3 {
                0 => TraceEvent::TxStart {
                    t: f64::from(i * 5 % 7),
                    link: i,
                    flow: 1,
                    seq: i,
                    bits: 8,
                },
                1 => TraceEvent::Deliver { t: f64::from(i * 5 % 7), flow: 0, seq: i },
                _ => TraceEvent::Drop {
                    t: f64::from(i * 5 % 7),
                    flow: 2,
                    seq: i,
                    where_: DropSite::QueueOverflow,
                },
            };
            whole.push(e.clone());
            if i * 11 % 5 < 2 { &mut a } else { &mut b }.push(e);
        }
        assert!(!a.events().is_empty() && !b.events().is_empty());
        let mut merged = String::new();
        for_each_canonical(&[&b, &a], |e, line| {
            assert_eq!(line, e.to_json().to_string());
            merged.push_str(line);
            merged.push('\n');
        });
        assert_eq!(whole.canonical_jsonl(), merged);
        let times: Vec<f64> = merged
            .lines()
            .map(|l| TraceEvent::from_json(&Json::parse(l).unwrap()).unwrap().time())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted by time first");
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
