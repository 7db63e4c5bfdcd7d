//! Network nodes (stations).

use crate::geometry::Point;
use crate::ids::{NodeId, PanelId};
use crate::medium::Medium;

/// A station of the hybrid local network.
///
/// A node owns one *interface* per medium it supports; the multigraph of §2
/// is equivalently a graph over interfaces (the "virtual graph" used by the
/// routing layer to make channel-switching costs Dijkstra-compatible).
#[derive(Debug, Clone)]
pub struct Node {
    /// Dense identifier, equal to the node's position in [`Network::nodes`].
    ///
    /// [`Network::nodes`]: crate::graph::Network::nodes
    pub id: NodeId,
    /// Position on the floor plan, metres.
    pub pos: Point,
    /// Mediums this node has an interface for (e.g. `[WIFI1]` for a laptop,
    /// `[WIFI1, WIFI2, Plc]` for a testbed router).
    pub mediums: Vec<Medium>,
    /// Electrical panel the node is wired to, if it has a PLC interface.
    pub panel: Option<PanelId>,
    /// Free-form label for traces ("gateway", "extender", …).
    pub label: String,
}

impl Node {
    /// True if the node has an interface on `medium`.
    pub fn supports(&self, medium: Medium) -> bool {
        self.mediums.contains(&medium)
    }

    /// True if the node has any WiFi interface.
    pub fn has_wifi(&self) -> bool {
        self.mediums.iter().any(|m| m.is_wifi())
    }

    /// True if the node has a PLC interface.
    pub fn has_plc(&self) -> bool {
        self.mediums.iter().any(|m| m.is_plc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(mediums: Vec<Medium>) -> Node {
        Node {
            id: NodeId(0),
            pos: Point::new(0.0, 0.0),
            mediums,
            panel: None,
            label: String::new(),
        }
    }

    #[test]
    fn supports_checks_exact_medium() {
        let n = node(vec![Medium::WIFI1, Medium::Plc]);
        assert!(n.supports(Medium::WIFI1));
        assert!(!n.supports(Medium::WIFI2));
        assert!(n.supports(Medium::Plc));
    }

    #[test]
    fn wifi_and_plc_predicates() {
        let n = node(vec![Medium::WIFI2]);
        assert!(n.has_wifi());
        assert!(!n.has_plc());
    }
}
