//! Compiling a workload's clients into a deterministic flow program
//! ([`empower_dynamics::lower`], where the per-kind expansion is
//! documented).

pub use empower_dynamics::lower::{compile, instance_seed, CompiledFlow, CompiledWorkload};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::build_topology;
    use crate::spec::{Diurnal, Workload};
    use empower_dynamics::lower::poisson_arrivals;
    use empower_model::rng::{SeedableRng, StdRng};
    use empower_sim::TrafficPattern;

    fn sample(extra: &str) -> Workload {
        let text = format!(
            r#"
schema = 1
name = "t"

[topology]
kind = "fig1"

[run]
seed = 11
horizon_secs = 20.0

{extra}
"#
        );
        Workload::parse_str(&text).unwrap()
    }

    #[test]
    fn count_replicates_and_labels_resolve() {
        let w = sample(
            "[[clients]]\nkind = \"closed_loop\"\nsrc = 0\ndst = 2\ncount = 3\n\n\
             [[clients]]\nlabel = \"tick\"\nkind = \"telemetry\"\nsrc = 1\ndst = 2\n\
             period_secs = 2.0\npayload_bytes = 1000\n",
        );
        let (net, _) = build_topology(&w.topology);
        let c = compile(&w, &net).unwrap();
        assert_eq!(c.labels, vec!["client0".to_string(), "tick".to_string()]);
        assert_eq!(c.flows.len(), 4);
        assert!(c.flows[..3].iter().all(|f| f.client == 0));
        // 20s span at 2s period → 10 readings.
        assert!(matches!(c.flows[3].spec.pattern, TrafficPattern::PoissonFiles { count: 10, .. }));
    }

    #[test]
    fn churn_sessions_are_seeded_and_bounded() {
        let w = sample(
            "[[clients]]\nkind = \"churn\"\nsrc = 0\ndst = 2\nbase_rate_per_sec = 0.5\n\
             mean_session_secs = 3.0\nmax_sessions = 4\n",
        );
        let (net, _) = build_topology(&w.topology);
        let a = compile(&w, &net).unwrap();
        let b = compile(&w, &net).unwrap();
        assert!(a.flows.len() <= 4);
        assert!(!a.flows.is_empty(), "0.5/s over 20s should admit sessions");
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(format!("{:?}", x.spec.pattern), format!("{:?}", y.spec.pattern));
        }
        for f in &a.flows {
            if let TrafficPattern::SaturatedUdp { start, stop } = f.spec.pattern {
                assert!(start < stop && stop <= 20.0);
            }
        }
    }

    #[test]
    fn instance_seeds_are_position_stable() {
        assert_ne!(instance_seed(1, 0, 0), instance_seed(1, 0, 1));
        assert_ne!(instance_seed(1, 0, 0), instance_seed(1, 1, 0));
        assert_ne!(instance_seed(1, 0, 0), instance_seed(2, 0, 0));
        assert_eq!(instance_seed(9, 3, 5), instance_seed(9, 3, 5));
    }

    #[test]
    fn diurnal_thinning_respects_peak_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Some(Diurnal { period_secs: 10.0, amplitude: 1.0 });
        let arrivals = poisson_arrivals(&mut rng, 0.0, 100.0, 1.0, d, 10_000);
        // Mean rate is `base` after thinning; allow generous slack.
        assert!(arrivals.len() > 50 && arrivals.len() < 200, "got {}", arrivals.len());
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]), "arrivals are ordered");
    }
}
