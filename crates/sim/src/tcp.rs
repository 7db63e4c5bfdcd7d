//! Mini-TCP: a Reno-style window-based transport (§6.4 substitution).
//!
//! The paper runs Linux TCP over the EMPoWER datapath; here a compact Reno
//! state machine reproduces the two interaction mechanisms §6.4 analyses:
//!
//! 1. EMPoWER drops packets at the source when the application exceeds the
//!    flow's admitted rate; TCP perceives those drops as congestion and
//!    adapts — so TCP's steady-state rate follows the controller's.
//! 2. Cross-route delay skew makes packets from the fast route wait for
//!    stragglers; without delay equalization the resulting RTT inflation
//!    and spurious timeouts hurt throughput.
//!
//! The machine implements slow start, congestion avoidance, fast
//! retransmit/recovery (3 dup-ACKs), Karn-sampled RTT with the standard
//! RTO estimator, and exponential RTO backoff. Sequence numbers count MSS
//! segments.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Transport parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Initial congestion window, segments.
    pub init_cwnd: f64,
    /// Initial slow-start threshold, segments.
    pub init_ssthresh: f64,
    /// Minimum retransmission timeout, seconds.
    pub rto_min: f64,
    /// Initial RTO before any RTT sample, seconds.
    pub rto_init: f64,
    /// Congestion-window cap, segments.
    pub max_cwnd: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            init_cwnd: 2.0,
            init_ssthresh: 64.0,
            rto_min: 0.2,
            rto_init: 1.0,
            max_cwnd: 512.0,
        }
    }
}

/// Sender-side Reno state machine.
#[derive(Debug, Clone)]
pub struct TcpSender {
    config: TcpConfig,
    cwnd: f64,
    ssthresh: f64,
    /// Next brand-new sequence number.
    next_seq: u32,
    /// Cumulative ACK received so far (= receiver's next expected).
    highest_acked: u32,
    dup_acks: u32,
    in_recovery: bool,
    recover_point: u32,
    /// Outstanding segments → last transmission time.
    in_flight: BTreeMap<u32, f64>,
    /// Segments queued for retransmission.
    retx: VecDeque<u32>,
    /// Karn RTT probe: (seq, send time), never a retransmission.
    probe: Option<(u32, f64)>,
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    /// Total segments to transfer (`None` = unbounded).
    total_segments: Option<u64>,
}

impl TcpSender {
    /// A sender transferring `total_segments` segments (`None` = endless).
    pub fn new(config: TcpConfig, total_segments: Option<u64>) -> Self {
        TcpSender {
            cwnd: config.init_cwnd,
            ssthresh: config.init_ssthresh,
            next_seq: 0,
            highest_acked: 0,
            dup_acks: 0,
            in_recovery: false,
            recover_point: 0,
            in_flight: BTreeMap::new(),
            retx: VecDeque::new(),
            probe: None,
            srtt: None,
            rttvar: 0.0,
            rto: config.rto_init,
            total_segments,
            config,
        }
    }

    /// Current congestion window, segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current RTO, seconds.
    pub fn rto(&self) -> f64 {
        self.rto
    }

    /// Smoothed RTT, if sampled.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// True once the whole transfer is acknowledged.
    pub fn done(&self) -> bool {
        self.total_segments.is_some_and(|t| self.highest_acked as u64 >= t)
    }

    /// The next segment to put on the wire under the current window, or
    /// `None` if the window is full / nothing to send. Caller must follow
    /// up with [`TcpSender::on_sent`].
    pub fn next_to_send(&mut self) -> Option<(u32, bool)> {
        if let Some(&seq) = self.retx.front() {
            // Retransmissions are window-paced too, except the first one of
            // a recovery episode (it replaces a segment just removed from
            // the flight, so the window always admits it).
            if (self.in_flight.len() as f64) < self.cwnd.floor().max(1.0) {
                return Some((seq, true));
            }
            return None;
        }
        if (self.in_flight.len() as f64) < self.cwnd.floor()
            && self.total_segments.is_none_or(|t| (self.next_seq as u64) < t)
        {
            return Some((self.next_seq, false));
        }
        None
    }

    /// Records a transmission decided by [`TcpSender::next_to_send`].
    pub fn on_sent(&mut self, seq: u32, now: f64, is_retx: bool) {
        if is_retx {
            let front = self.retx.pop_front();
            debug_assert_eq!(front, Some(seq));
        } else {
            debug_assert_eq!(seq, self.next_seq);
            self.next_seq += 1;
            if self.probe.is_none() {
                self.probe = Some((seq, now));
            }
        }
        self.in_flight.insert(seq, now);
    }

    /// Processes a cumulative ACK (`ack` = receiver's next expected seq).
    pub fn on_ack(&mut self, ack: u32, now: f64) {
        if ack > self.highest_acked {
            let newly = ack - self.highest_acked;
            self.highest_acked = ack;
            self.dup_acks = 0;
            // The flight is ordered by sequence: what the ACK covers is a
            // prefix of it.
            while let Some(acked) = self.in_flight.first_entry().filter(|e| *e.key() < ack) {
                acked.remove();
            }
            self.retx.retain(|&s| s >= ack);
            // RTT sample (Karn: only from a never-retransmitted probe).
            if let Some((pseq, ptime)) = self.probe {
                if ack > pseq {
                    let sample = (now - ptime).max(1e-6);
                    match self.srtt {
                        None => {
                            self.srtt = Some(sample);
                            self.rttvar = sample / 2.0;
                        }
                        Some(srtt) => {
                            self.rttvar = 0.75 * self.rttvar + 0.25 * (sample - srtt).abs();
                            self.srtt = Some(0.875 * srtt + 0.125 * sample);
                        }
                    }
                    self.probe = None;
                }
            }
            // Progress cancels any RTO backoff: recompute from the
            // estimator (falls back to the initial RTO before any sample).
            self.rto = match self.srtt {
                Some(srtt) => (srtt + 4.0 * self.rttvar).max(self.config.rto_min),
                None => self.config.rto_init,
            };
            if self.in_recovery {
                if ack >= self.recover_point {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // Partial ACK: retransmit the next hole immediately.
                    if !self.retx.contains(&ack) {
                        self.retx.push_back(ack);
                    }
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd = (self.cwnd + newly as f64).min(self.config.max_cwnd);
            } else {
                self.cwnd = (self.cwnd + newly as f64 / self.cwnd).min(self.config.max_cwnd);
            }
        } else if ack == self.highest_acked {
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                // Fast retransmit + recovery.
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh + 3.0;
                self.in_recovery = true;
                self.recover_point = self.next_seq;
                if !self.retx.contains(&ack) {
                    self.retx.push_front(ack);
                }
                self.in_flight.remove(&ack);
            } else if self.in_recovery {
                self.cwnd = (self.cwnd + 1.0).min(self.config.max_cwnd);
            }
        }
    }

    /// Checks the retransmission timer. Returns the next time the timer
    /// should be checked, or `None` when nothing is outstanding.
    pub fn on_rto_check(&mut self, now: f64) -> Option<f64> {
        let (&oldest_seq, &sent_at) = self.in_flight.iter().next()?;
        let _ = oldest_seq;
        if now + 1e-9 >= sent_at + self.rto {
            // Timeout: multiplicative backoff, window collapse, go-back-N —
            // every outstanding segment is assumed lost and queued for
            // (window-paced) retransmission. Without this, a burst of
            // source-side drops leaves holes that only heal one per
            // (exponentially backed-off) RTO and the connection starves.
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = 1.0;
            self.rto = (self.rto * 2.0).min(60.0);
            self.in_recovery = false;
            self.dup_acks = 0;
            self.probe = None;
            for (&seq, _) in self.in_flight.iter() {
                if !self.retx.contains(&seq) {
                    self.retx.push_back(seq);
                }
            }
            self.in_flight.clear();
            let mut sorted: Vec<u32> = self.retx.drain(..).collect();
            sorted.sort_unstable();
            self.retx = sorted.into();
            Some(now + self.rto)
        } else {
            Some(sent_at + self.rto)
        }
    }
}

/// Receiver-side reassembly + cumulative ACK generation.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    next_expected: u32,
    out_of_order: BTreeSet<u32>,
    delivered: u64,
}

impl TcpReceiver {
    /// Fresh receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Segments delivered in order to the application.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Accepts a segment; returns the cumulative ACK to send back.
    pub fn on_segment(&mut self, seq: u32) -> u32 {
        if seq == self.next_expected {
            self.next_expected += 1;
            self.delivered += 1;
            while self.out_of_order.remove(&self.next_expected) {
                self.next_expected += 1;
                self.delivered += 1;
            }
        } else if seq > self.next_expected {
            self.out_of_order.insert(seq);
        }
        self.next_expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_sends(s: &mut TcpSender, now: f64) -> Vec<u32> {
        let mut sent = Vec::new();
        while let Some((seq, retx)) = s.next_to_send() {
            s.on_sent(seq, now, retx);
            sent.push(seq);
        }
        sent
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(TcpConfig::default(), None);
        let mut r = TcpReceiver::new();
        let mut now = 0.0;
        let mut window_sizes = Vec::new();
        for _ in 0..4 {
            let sent = drain_sends(&mut s, now);
            window_sizes.push(sent.len());
            now += 0.05;
            for seq in sent {
                let ack = r.on_segment(seq);
                s.on_ack(ack, now);
            }
        }
        assert_eq!(window_sizes, vec![2, 4, 8, 16]);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        // start in CA immediately
        let cfg = TcpConfig { init_ssthresh: 2.0, ..Default::default() };
        let mut s = TcpSender::new(cfg, None);
        let mut r = TcpReceiver::new();
        let mut now = 0.0;
        let mut sizes = Vec::new();
        for _ in 0..6 {
            let sent = drain_sends(&mut s, now);
            sizes.push(sent.len());
            now += 0.05;
            for seq in sent {
                s.on_ack(r.on_segment(seq), now);
            }
        }
        // Per-ACK arithmetic: cwnd 2 → 2.9 → 3.9 → 4.9 → … (≈ +1 per RTT,
        // visible in the floor one round late).
        assert_eq!(sizes, vec![2, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut s = TcpSender::new(TcpConfig::default(), None);
        let mut r = TcpReceiver::new();
        let mut now = 0.0;
        // Grow the window a bit.
        for _ in 0..3 {
            let sent = drain_sends(&mut s, now);
            now += 0.05;
            for seq in sent {
                s.on_ack(r.on_segment(seq), now);
            }
        }
        let cwnd_before = s.cwnd();
        // Send a window; lose the first segment of it.
        let sent = drain_sends(&mut s, now);
        assert!(sent.len() >= 4, "window too small: {}", sent.len());
        now += 0.05;
        for &seq in &sent[1..] {
            s.on_ack(r.on_segment(seq), now);
        }
        // Dup ACKs for the hole → fast retransmit of the lost seq.
        let (seq, retx) = s.next_to_send().expect("retransmission pending");
        assert_eq!(seq, sent[0]);
        assert!(retx);
        assert!(s.in_recovery, "window inflation during recovery is expected");
        // Complete recovery: cwnd deflates to ssthresh = half the old window.
        s.on_sent(seq, now, true);
        now += 0.05;
        s.on_ack(r.on_segment(seq), now);
        assert!(!s.in_recovery);
        assert!(s.cwnd() < cwnd_before, "{} !< {cwnd_before}", s.cwnd());
    }

    #[test]
    fn timeout_collapses_the_window() {
        let mut s = TcpSender::new(TcpConfig::default(), None);
        let sent = drain_sends(&mut s, 0.0);
        assert_eq!(sent.len(), 2);
        let rto = s.rto();
        // No ACKs; fire the timer after the RTO.
        let next = s.on_rto_check(rto + 0.01).unwrap();
        assert_eq!(s.cwnd(), 1.0);
        assert!(s.rto() > rto, "backoff");
        assert!(next > rto);
        // The lost segment is queued for retransmission.
        let (seq, retx) = s.next_to_send().unwrap();
        assert_eq!((seq, retx), (0, true));
    }

    #[test]
    fn rtt_estimation_sets_rto() {
        let mut s = TcpSender::new(TcpConfig::default(), None);
        let mut r = TcpReceiver::new();
        let mut now = 0.0;
        for _ in 0..10 {
            let sent = drain_sends(&mut s, now);
            now += 0.08; // constant 80 ms RTT
            for seq in sent {
                s.on_ack(r.on_segment(seq), now);
            }
        }
        let srtt = s.srtt().unwrap();
        assert!((srtt - 0.08).abs() < 0.01, "srtt {srtt}");
        assert!((s.rto() - s.config.rto_min).abs() < 0.11, "rto {}", s.rto());
    }

    #[test]
    fn finite_transfer_completes() {
        let mut s = TcpSender::new(TcpConfig::default(), Some(20));
        let mut r = TcpReceiver::new();
        let mut now = 0.0;
        for _ in 0..20 {
            let sent = drain_sends(&mut s, now);
            now += 0.05;
            for seq in sent {
                s.on_ack(r.on_segment(seq), now);
            }
            if s.done() {
                break;
            }
        }
        assert!(s.done());
        assert_eq!(r.delivered(), 20);
    }

    #[test]
    fn a_new_ack_trims_the_flight_as_retain_would() {
        use empower_model::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut checked = 0;
        for _ in 0..40 {
            let mut s = TcpSender::new(TcpConfig::default(), Some(400));
            let mut r = TcpReceiver::new();
            let mut now = 0.0;
            let loss = rng.gen_range(0.0..0.3);
            while !s.done() && now < 200.0 {
                let mut sent = drain_sends(&mut s, now);
                // Deliver in a shuffled order, losing some segments.
                for i in (1..sent.len()).rev() {
                    sent.swap(i, rng.gen_range(0..=i));
                }
                now += 0.05;
                for seq in sent {
                    if rng.gen::<f64>() < loss {
                        continue;
                    }
                    let ack = r.on_segment(seq);
                    let (before, acked) = (s.in_flight.clone(), s.highest_acked);
                    s.on_ack(ack, now);
                    if ack > acked {
                        let mut model = before;
                        model.retain(|&k, _| k >= ack);
                        assert_eq!(s.in_flight, model, "ACK {ack} after {acked}");
                        checked += 1;
                    }
                }
                s.on_rto_check(now);
            }
        }
        assert!(checked > 1000, "only {checked} new ACKs checked");
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_segment(0), 1);
        assert_eq!(r.on_segment(2), 1); // hole at 1 → dup ack
        assert_eq!(r.on_segment(3), 1);
        assert_eq!(r.on_segment(1), 4); // hole filled → jump
        assert_eq!(r.delivered(), 4);
    }

    #[test]
    fn duplicate_segments_do_not_double_count() {
        let mut r = TcpReceiver::new();
        r.on_segment(0);
        r.on_segment(0);
        assert_eq!(r.delivered(), 1);
        assert_eq!(r.on_segment(1), 2);
    }
}
