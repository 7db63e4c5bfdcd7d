//! Per-flow measurement collection.

/// Statistics for one flow.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Application bits delivered in order at the destination.
    pub delivered_bits: u64,
    /// Frames handed to the MAC by the source.
    pub sent_frames: u64,
    /// Frames dropped at the source by token-bucket admission.
    pub dropped_at_source: u64,
    /// Frames dropped in the network (queue overflow or dead next hop).
    pub dropped_in_network: u64,
    /// Sequence numbers the reorder buffer declared lost.
    pub declared_lost: u64,
    /// Delivered throughput per 1-second bucket, Mbps.
    pub throughput_series: Vec<f64>,
    /// Injected rate per route, sampled once per second, Mbps
    /// (`rate_series[route][second]`).
    pub rate_series: Vec<Vec<f64>>,
    /// Completion times of finished file downloads, seconds (absolute).
    pub completions: Vec<f64>,
    /// When the flow started generating traffic.
    pub started_at: f64,
    /// When the flow stopped generating traffic (its scheduled stop, its
    /// final file completion or its TCP goal) — 0 while still active at the
    /// end of the run. The workload layer's goodput window.
    pub stopped_at: f64,
    /// Sum of end-to-end frame delays (source emission → in-order
    /// delivery), seconds.
    pub delay_sum_secs: f64,
    /// Number of delay samples.
    pub delay_samples: u64,
    /// Worst observed end-to-end frame delay, seconds.
    pub delay_max_secs: f64,
}

impl FlowStats {
    /// Mean delivered throughput over `[from, to)` seconds, Mbps.
    pub fn mean_throughput(&self, from: usize, to: usize) -> f64 {
        let hi = to.min(self.throughput_series.len());
        let lo = from.min(hi);
        if hi == lo {
            return 0.0;
        }
        self.throughput_series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }

    /// Standard deviation of per-second throughput over `[from, to)`.
    pub fn std_throughput(&self, from: usize, to: usize) -> f64 {
        let hi = to.min(self.throughput_series.len());
        let lo = from.min(hi);
        if hi <= lo + 1 {
            return 0.0;
        }
        let mean = self.mean_throughput(lo, hi);
        let var = self.throughput_series[lo..hi].iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (hi - lo) as f64;
        var.sqrt()
    }

    /// Mean end-to-end frame delay, seconds (0 with no samples).
    pub fn mean_delay_secs(&self) -> f64 {
        if self.delay_samples == 0 {
            0.0
        } else {
            self.delay_sum_secs / self.delay_samples as f64
        }
    }
}

/// The simulator's final report.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub flows: Vec<FlowStats>,
    /// Simulated duration, seconds.
    pub duration: f64,
}

impl SimReport {
    /// Final throughput of a flow: mean over the last `window` seconds,
    /// matching the paper's "averaged over 10 seconds".
    pub fn final_throughput(&self, flow: usize, window: usize) -> f64 {
        let n = self.flows[flow].throughput_series.len();
        self.flows[flow].mean_throughput(n.saturating_sub(window), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_over_windows() {
        let s = FlowStats { throughput_series: vec![10.0, 10.0, 20.0, 20.0], ..Default::default() };
        assert!((s.mean_throughput(0, 4) - 15.0).abs() < 1e-12);
        assert!((s.mean_throughput(2, 4) - 20.0).abs() < 1e-12);
        assert!((s.std_throughput(0, 4) - 5.0).abs() < 1e-12);
        assert_eq!(s.std_throughput(0, 1), 0.0);
    }

    #[test]
    fn windows_clamp_to_series_length() {
        let s = FlowStats { throughput_series: vec![8.0, 8.0], ..Default::default() };
        assert!((s.mean_throughput(0, 100) - 8.0).abs() < 1e-12);
        assert_eq!(s.mean_throughput(5, 100), 0.0);
    }

    #[test]
    fn final_throughput_uses_tail_window() {
        let report = SimReport {
            flows: vec![FlowStats {
                throughput_series: vec![1.0, 1.0, 9.0, 9.0],
                ..Default::default()
            }],
            duration: 4.0,
        };
        assert!((report.final_throughput(0, 2) - 9.0).abs() < 1e-12);
    }
}
