//! The workload's topology: [`TopologySpec::build`] under the name the
//! workload API has always had. Client routes are built by
//! [`empower_dynamics::lower::routes_for`].

use empower_dynamics::TopologySpec;
use empower_model::{InterferenceMap, Network};

/// Builds the workload's network and interference map.
pub fn build_topology(t: &TopologySpec) -> (Network, InterferenceMap) {
    t.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadTopology;
    use empower_dynamics::lower::routes_for;

    #[test]
    fn fig1_pairs_build_expected_route_counts() {
        let t = TopologySpec { kind: WorkloadTopology::Fig1, seed: 1 };
        let (net, _) = build_topology(&t);
        assert_eq!(routes_for(&net, &t, 0, 2, None, "c").unwrap().len(), 2);
        assert_eq!(routes_for(&net, &t, 0, 1, None, "c").unwrap().len(), 2);
        assert_eq!(routes_for(&net, &t, 1, 2, None, "c").unwrap().len(), 1);
        assert!(routes_for(&net, &t, 2, 0, None, "c").is_err());
    }

    #[test]
    fn testbed_pair_builds_plc_plus_relay() {
        let t = TopologySpec { kind: WorkloadTopology::Testbed, seed: 1 };
        let (net, _) = build_topology(&t);
        // The corpus-pinned pair 1→13 via 4 exists at seed 1.
        let routes = routes_for(&net, &t, 1, 13, Some(4), "c").unwrap();
        assert!(!routes.is_empty());
        let direct = routes_for(&net, &t, 1, 13, None, "c").unwrap();
        assert_eq!(direct.len(), 1);
    }
}
