//! Spans recorded from outside the program: one around each call the
//! benchmark makes into a layer's public functions.
//!
//! A span has a name (`<layer>.<what>`), a start, an end, the span that was
//! open when it began (its cause) and the iteration it belongs to, which is
//! the identifier the spans of one request share. Spans stay in memory and
//! are written to `benchmark/out/trace-<workload>.json` when the run ends.
//! A layer's *self time* is its span's duration minus the part its child
//! spans cover, so the self times of one iteration add up to the
//! iteration's wall time exactly and nothing is counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Iteration (request) identifier.
    pub iter: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; hand it back to [`Recorder::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

/// In-memory span recorder. Not thread-safe: every workload drives the
/// program from one client thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), iter: 0 }
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from here on belong to iteration `iter`.
    pub fn set_iteration(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Opens a span caused by the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            iter: self.iter,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = end_ns;
    }

    /// Records a span around one call.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every closed span called `name`.
    pub fn durations_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }
}

/// Self time of every span, nanoseconds, index-aligned with `spans`:
/// duration minus the durations of the spans it directly caused.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time per span name, nanoseconds, for each iteration.
pub fn self_ns_by_iteration(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut by_iter: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_iter.entry(s.iter).or_default().entry(s.name).or_insert(0) += ns;
    }
    by_iter
}

/// The trace file: every span, plus the per-name self-time totals of each
/// iteration so the file can be read without recomputing them. Written
/// span by span rather than through a JSON tree: a Table 1 run records one
/// span per control slot, 165 000 of them. Span names are plain
/// identifiers, so they need no escaping.
pub fn trace_text(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + 96 * spans.len());
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"self_ms_by_iteration\":[");
    for (i, (iter, by_name)) in self_ns_by_iteration(spans).into_iter().enumerate() {
        let _ = write!(out, "{}\n{{\"iter\":{iter}", if i > 0 { "," } else { "" });
        for (name, ns) in by_name {
            let _ = write!(out, ",\"{name}\":{}", ns as f64 * 1e-6);
        }
        out.push('}');
    }
    out.push_str("],\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{}}}",
            if i > 0 { "," } else { "" },
            s.name,
            s.start_ns,
            s.end_ns,
            s.iter
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, iter: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, iter }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..60 { b 20..30 }, c 70..90 }
        let spans = [
            span("root", 0, 100, None, 0),
            span("a", 10, 60, Some(0), 0),
            span("b", 20, 30, Some(1), 0),
            span("c", 70, 90, Some(0), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        // Self times of one iteration add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_groups_by_name_and_iteration() {
        let spans = [
            span("iter", 0, 50, None, 0),
            span("x", 0, 10, Some(0), 0),
            span("x", 20, 40, Some(0), 0),
            span("iter", 50, 80, None, 1),
            span("x", 55, 60, Some(3), 1),
        ];
        let by_iter = self_ns_by_iteration(&spans);
        assert_eq!((by_iter[&0]["iter"], by_iter[&0]["x"]), (20, 30));
        assert_eq!((by_iter[&1]["iter"], by_iter[&1]["x"]), (25, 5));
    }

    #[test]
    fn the_trace_file_is_json_with_every_span_and_the_self_times() {
        use empower_telemetry::Json;
        let spans =
            [span("iteration", 0, 2_000_000, None, 0), span("x.y", 500_000, 1_500_000, Some(0), 0)];
        let doc = Json::parse(&trace_text("w", 9, &spans)).expect("the trace file parses");
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(9));
        let Some(Json::Arr(rows)) = doc.get("spans") else { panic!("spans") };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
        assert_eq!(rows[1].get("parent").and_then(Json::as_u64), Some(0));
        let Some(Json::Arr(iters)) = doc.get("self_ms_by_iteration") else { panic!("self times") };
        assert_eq!(iters[0].get("iteration").and_then(Json::as_f64), Some(1.0));
        assert_eq!(iters[0].get("x.y").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn recorder_links_each_span_to_the_one_open_around_it() {
        let mut r = Recorder::new();
        r.set_iteration(3);
        let outer = r.enter("outer");
        let v = r.call("inner", || 7);
        r.exit(outer);
        r.call("sibling", || ());
        assert_eq!(v, 7);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), None));
        assert!(s.iter().all(|x| x.iter == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(r.durations_secs("inner").len(), 1);
    }
}
