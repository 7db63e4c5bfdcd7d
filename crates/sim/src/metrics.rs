//! The engine's telemetry bundle: every counter the hot path touches is
//! registered once (at [`crate::Simulation::attach_telemetry`] time) and
//! held as a plain handle, so instrumented code performs one branch per
//! emission and zero string work. With no registry attached every handle
//! is a no-op.
//!
//! Naming scheme (see DESIGN.md "Observability"):
//!
//! * `mac/…` — medium access: grants, deferrals, saturation penalty.
//! * `queue/…` + `link/<i>/queue_hwm` — per-link FIFO behaviour.
//! * `datapath/…` — header codec, reorder buffer, loss rule.
//! * `flow/<f>/…` — per-flow route-choice histogram and ACK cadence.
//! * `cc/…` — distributed price-update machinery.

use empower_telemetry::{Counter, CounterType, Telemetry};

/// All engine-wide counters plus the registry handle. The default
/// (disabled) bundle hands out no-op counters.
pub(crate) struct EngineCounters {
    pub tele: Telemetry,
    /// Frames granted the medium (`mac/grants`).
    pub mac_grants: Counter,
    /// Transmission attempts deferred because the contention domain was
    /// busy (`mac/deferrals`).
    pub mac_deferrals: Counter,
    /// Frames that paid the CSMA saturation penalty (`mac/penalty_frames`).
    pub mac_penalty_frames: Counter,
    /// Extra airtime charged by the saturation penalty, accumulated in
    /// microseconds (`mac/penalty_airtime_us`).
    pub mac_penalty_airtime_us: Counter,
    /// Frames dropped at a full per-link queue (`queue/drops_overflow`).
    pub drops_overflow: Counter,
    /// Frames dropped at a dead link (`queue/drops_dead_link`).
    pub drops_dead_link: Counter,
    /// Frames dropped at the source admission stage
    /// (`source/drops`): token-bucket refusals and TCP backlog overflow.
    pub drops_source: Counter,
    /// Frames that could not be forwarded — stale source route after a
    /// failure, unknown next interface (`datapath/route_errors`).
    pub route_errors: Counter,
    /// Wire-codec round-trip failures on emitted headers
    /// (`datapath/header_decode_errors`).
    pub header_decode_errors: Counter,
    /// Reorder-buffer accepts that released at least one event
    /// (`datapath/reorder_flushes`).
    pub reorder_flushes: Counter,
    /// Frames delivered in order by the reorder buffer
    /// (`datapath/reorder_delivered`).
    pub reorder_delivered: Counter,
    /// All-routes-passed loss-rule firings (`datapath/loss_rule_firings`).
    pub loss_rule_firings: Counter,
    /// γ updates performed across all nodes (`cc/price_updates`).
    pub cc_price_updates: Counter,
    /// (link, slot) pairs whose airtime margin was violated
    /// (`cc/margin_violations`).
    pub cc_margin_violations: Counter,
    /// Control-plane slots executed (`ctrl/ticks`).
    pub ctrl_ticks: Counter,
    /// Per-link queue-depth high-water marks (`link/<i>/queue_hwm`).
    pub queue_hwm: Vec<Counter>,
}

impl EngineCounters {
    /// The disabled bundle: all handles are no-ops.
    pub fn disabled(link_count: usize) -> Self {
        Self::attach(Telemetry::disabled(), link_count)
    }

    /// Registers every engine counter on `tele`, with one `queue_hwm`
    /// gauge per link.
    pub fn attach(tele: Telemetry, link_count: usize) -> Self {
        let c = |name: &str, flavor: CounterType| tele.counter(name, flavor);
        // A disabled registry hands out no-ops whatever the name, so the
        // per-link names are formatted only for a live one.
        let queue_hwm = if tele.is_enabled() {
            (0..link_count)
                .map(|l| tele.counter(format!("link/{l}/queue_hwm"), CounterType::Gauge))
                .collect()
        } else {
            vec![Counter::noop(); link_count]
        };
        EngineCounters {
            mac_grants: c("mac/grants", CounterType::Packets),
            mac_deferrals: c("mac/deferrals", CounterType::Packets),
            mac_penalty_frames: c("mac/penalty_frames", CounterType::Packets),
            mac_penalty_airtime_us: c("mac/penalty_airtime_us", CounterType::Packets),
            drops_overflow: c("queue/drops_overflow", CounterType::Errors),
            drops_dead_link: c("queue/drops_dead_link", CounterType::Errors),
            drops_source: c("source/drops", CounterType::Errors),
            route_errors: c("datapath/route_errors", CounterType::Errors),
            header_decode_errors: c("datapath/header_decode_errors", CounterType::Errors),
            reorder_flushes: c("datapath/reorder_flushes", CounterType::Packets),
            reorder_delivered: c("datapath/reorder_delivered", CounterType::Packets),
            loss_rule_firings: c("datapath/loss_rule_firings", CounterType::Errors),
            cc_price_updates: c("cc/price_updates", CounterType::Packets),
            cc_margin_violations: c("cc/margin_violations", CounterType::Errors),
            ctrl_ticks: c("ctrl/ticks", CounterType::Packets),
            queue_hwm,
            tele,
        }
    }

    /// Whether a live registry is attached.
    pub fn enabled(&self) -> bool {
        self.tele.is_enabled()
    }

    /// Per-route frame counters for flow `f` (`flow/<f>/route/<r>/frames`).
    pub fn flow_route_counters(&self, f: usize, routes: usize) -> Vec<Counter> {
        (0..routes)
            .map(|r| self.tele.counter(format!("flow/{f}/route/{r}/frames"), CounterType::Packets))
            .collect()
    }

    /// The ACK-cadence counter for flow `f` (`flow/<f>/acks_sent`).
    pub fn flow_ack_counter(&self, f: usize) -> Counter {
        self.tele.counter(format!("flow/{f}/acks_sent"), CounterType::Packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `mac/penalty_airtime_us` is only ever `add`ed, so it must carry a
    /// monotone flavor: a `--jobs` sweep merging per-run registries sums
    /// the runs' penalty airtime instead of keeping the last run's.
    #[test]
    fn penalty_airtime_sums_across_merged_registries() {
        let merged = Telemetry::enabled();
        for us in [3, 5] {
            let run = EngineCounters::attach(Telemetry::enabled(), 1);
            run.mac_penalty_airtime_us.add(us);
            merged.merge_snapshot(&run.tele.snapshot());
        }
        assert_eq!(merged.snapshot().value("mac/penalty_airtime_us"), Some(8));
    }
}
