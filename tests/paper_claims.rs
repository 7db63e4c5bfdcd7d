//! The §5 headline rows of EXPERIMENTS.md, asserted on the figures' own
//! library values at `--quick` size, seed 1 (`empower figure <name>
//! --quick` prints the same numbers). Each bound is the paper's claim,
//! except where a comment says the quick sweep is held to less.
//!
//! The §5.2.2 convergence row (EMPoWER converges an order of magnitude
//! faster than backpressure) is not gated, because:
//! * at quick size the figure takes 52 s in debug;
//! * quick mode's 4 000-slot backpressure budget caps the ratio at 3–10×
//!   on residential seeds 1–8. The order of magnitude shows only in full
//!   mode (13× residential, 62× enterprise).
//!
//! Table 1 and Fig. 10 are not gated either: the testbed's fidelity to the
//! paper is still open (ROADMAP.md).

use empower_bench::ablation::fairness;
use empower_bench::fluid::{fig4, fig6};
use empower_bench::{mean, Opts};
use empower_telemetry::Telemetry;

fn quick() -> Opts {
    Opts { quick: true, jobs: 2, ..Opts::default() }
}

/// Fig. 4: EMPoWER beats WiFi alone by the paper's average gain and the
/// single-path hybrid by at least +20 %, and MP-WiFi coincides with
/// SP-WiFi (§5.2.1).
#[test]
fn fig4_gains_and_mp_wifi_coincidence() {
    let classes = fig4(&quick(), &Telemetry::disabled());
    // Paper: +59 % residential, +68 % enterprise over SP-WiFi.
    for (c, paper) in classes.iter().zip([0.59, 0.68]) {
        let gain = c.gain_over(2);
        assert!(gain >= paper, "{}: EMPoWER vs SP-WiFi {gain:+.3}, paper {paper:+}", c.class);
        // Paper: +39 % / +31 % over SP; full mode measures +36 % / +23 %,
        // so the quick sweep is held to +20 %.
        let gain = c.gain_over(1);
        assert!(gain >= 0.20, "{}: EMPoWER vs SP {gain:+.3}", c.class);
        assert_eq!(c.coincide(), c.runs.len(), "{}: MP-WiFi left SP-WiFi", c.class);
    }
}

/// Fig. 6: EMPoWER is near `optimal` and `conservative opt` on the
/// paper's share of runs, and the mean ratios order EMPoWER > MP-2bp > SP.
#[test]
fn fig6_empower_tracks_the_optimum() {
    let fig = fig6(&quick(), &Telemetry::disabled());
    // Paper: within 15 % of optimal on 99 % / 83 % of runs, within 10 % of
    // conservative opt on 98 % / 85 %.
    for (c, (opt, cons)) in fig.iter().zip([(0.99, 0.98), (0.83, 0.85)]) {
        let within = c.within_optimal(0.15);
        assert!(within >= opt, "{}: within 15 % of optimal on {within:.3}", c.class);
        let within = c.within_conservative(0.10);
        assert!(within >= cons, "{}: within 10 % of conservative on {within:.3}", c.class);
        let [emp, mp2bp, sp] = [1, 2, 4].map(|j| mean(&c.col(j)));
        assert!(emp > mp2bp && mp2bp > sp, "{}: mean ratios {emp} {mp2bp} {sp}", c.class);
    }
}

/// §4's fairness knob: as α grows, the worst flow and Jain's index never
/// fall (the α-fair family runs from throughput towards max-min fairness).
#[test]
fn fairness_rises_with_alpha() {
    let fig = fairness(&quick(), &Telemetry::disabled());
    for w in fig.rows.windows(2) {
        let (lo, hi) = (&w[0], &w[1]);
        assert!(
            hi.min_flow_mbps >= lo.min_flow_mbps && hi.jain_index >= lo.jain_index,
            "α {} → {}: worst flow {:.2} → {:.2}, Jain {:.4} → {:.4}",
            lo.alpha,
            hi.alpha,
            lo.min_flow_mbps,
            hi.min_flow_mbps,
            lo.jain_index,
            hi.jain_index
        );
    }
}
