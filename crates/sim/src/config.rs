//! Simulation parameters: the fixed ones as constants, the ones a run
//! varies in [`SimConfig`].

/// Frame size on the wire, bits: 12 000 B, an aggregated burst (see the
/// crate docs).
pub const FRAME_BITS: u64 = 96_000;

/// Per-link queue capacity, frames (drop-tail beyond).
pub const QUEUE_FRAMES: usize = 100;

/// CSMA saturation rolloff: when a link's interference domain is
/// persistently oversubscribed (slow-smoothed airtime demand `y > 1.1`),
/// every transmission in it takes `1 + SATURATION_PENALTY · (y − 1.1)`
/// times longer — the airtime real CSMA/CA wastes on collisions and
/// back-off beyond saturation. Congestion-controlled flows keep
/// `y ≤ 1 − δ` and never pay this; the w/o-CC schemes that over-drive
/// shared mediums do (this is what makes open-loop injection genuinely
/// costly, as on the paper's hardware testbed).
pub const SATURATION_PENALTY: f64 = 0.8;

/// What a simulation run varies.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Control slot (ACK / price-broadcast interval), seconds. 0.1 s in the
    /// paper's implementation.
    pub slot_secs: f64,
    /// Congestion-control constraint margin `δ` (Eq. (3)).
    pub delta: f64,
    /// The TCP-coexistence margin (§6.4): every link whose contention
    /// domain contains a node currently receiving TCP traffic uses
    /// `max(delta, tcp_delta)` instead of `delta`. The flag travels
    /// piggybacked on the price broadcasts, so the tightened budget applies
    /// exactly where the paper says it should — "only the nodes in the
    /// contention domain of a TCP flow".
    pub tcp_delta: f64,
    /// Relative std-dev of the multiplicative error applied to the link
    /// costs the *control plane* sees (capacity mis-estimation, §6.1).
    /// 0 = perfect traffic-based estimation.
    pub estimation_rel_std: f64,
    /// EWMA factor for the per-link airtime-demand measurement (1.0 = no
    /// smoothing). Per-slot demand is frame-quantized; smoothing keeps the
    /// γ update's positive-part recursion from rectifying the noise into a
    /// persistent price bias.
    pub demand_ewma: f64,
    /// Master seed for all randomized decisions (route sampling, estimation
    /// noise, workload arrivals).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            slot_secs: 0.1,
            delta: 0.0,
            tcp_delta: 0.3,
            estimation_rel_std: 0.0,
            demand_ewma: 0.25,
            seed: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SimConfig::default();
        assert_eq!(c.slot_secs, 0.1);
        assert_eq!(c.delta, 0.0);
    }
}
