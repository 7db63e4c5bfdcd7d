//! The multigraph `G(V, {E_1, …, E_K})` of §2.

use std::collections::BTreeSet;

use crate::geometry::Point;
use crate::ids::{LinkId, NodeId, PanelId};
use crate::link::Link;
use crate::medium::Medium;
use crate::node::Node;

/// The hybrid-network multigraph.
///
/// Nodes and links are stored densely; [`NodeId`]/[`LinkId`] index straight
/// into `nodes`/`links`. Links are directed; bidirectional physical links are
/// two directed links cross-referencing each other via [`Link::reverse`].
#[derive(Debug, Clone)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing links per node, in insertion order.
    out_adj: Vec<Vec<LinkId>>,
    /// Incoming links per node, in insertion order.
    in_adj: Vec<Vec<LinkId>>,
}

impl Network {
    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All directed links, indexable by [`LinkId::index`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link with the given id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The link with the given id, or `None` if no such link exists —
    /// the non-panicking lookup for ids that may come from another
    /// network instance (e.g. a stale route baseline).
    pub fn try_link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// Outgoing links of `node` (including dead ones; filter with
    /// [`Link::is_alive`] where it matters).
    pub fn out_links(&self, node: NodeId) -> impl Iterator<Item = &Link> + '_ {
        self.out_adj[node.index()].iter().map(|&l| self.link(l))
    }

    /// Incoming links of `node`.
    pub fn in_links(&self, node: NodeId) -> impl Iterator<Item = &Link> + '_ {
        self.in_adj[node.index()].iter().map(|&l| self.link(l))
    }

    /// The distinct mediums present in the network, in a stable order.
    pub fn mediums(&self) -> Vec<Medium> {
        let set: BTreeSet<Medium> = self.links.iter().map(|l| l.medium).collect();
        set.into_iter().collect()
    }

    /// Sets the capacity of a link (used by `update(P, G)` and by failure
    /// injection). Capacities are clamped at zero.
    pub fn set_capacity(&mut self, id: LinkId, capacity_mbps: f64) {
        self.links[id.index()].capacity_mbps = capacity_mbps.max(0.0);
    }

    /// Euclidean distance between two nodes.
    pub fn node_distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.node(a).pos.distance(self.node(b).pos)
    }

    /// Finds the directed link `from → to` on `medium`, if present.
    pub fn find_link(&self, from: NodeId, to: NodeId, medium: Medium) -> Option<&Link> {
        self.out_links(from).find(|l| l.to == to && l.medium == medium)
    }

    /// Sum of all alive link capacities — a safe upper bound for any
    /// end-to-end rate, used to clamp controller outputs.
    pub fn total_capacity(&self) -> f64 {
        self.links.iter().filter(|l| l.is_alive()).map(|l| l.capacity_mbps).sum()
    }
}

/// Incremental builder for [`Network`].
///
/// ```
/// use empower_model::{Medium, NetworkBuilder, Point};
///
/// let mut b = NetworkBuilder::new();
/// let a = b.add_node(Point::new(0.0, 0.0), vec![Medium::WIFI1, Medium::Plc], None);
/// let c = b.add_node(Point::new(10.0, 0.0), vec![Medium::WIFI1], None);
/// b.add_duplex(a, c, Medium::WIFI1, 30.0);
/// let net = b.build();
/// assert_eq!(net.node_count(), 2);
/// assert_eq!(net.link_count(), 2); // one duplex pair
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, pos: Point, mediums: Vec<Medium>, panel: Option<PanelId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, pos, mediums, panel, label: String::new() });
        id
    }

    /// Adds a labelled node and returns its id.
    pub fn add_labeled_node(
        &mut self,
        pos: Point,
        mediums: Vec<Medium>,
        panel: Option<PanelId>,
        label: impl Into<String>,
    ) -> NodeId {
        let id = self.add_node(pos, mediums, panel);
        self.nodes[id.index()].label = label.into();
        id
    }

    /// Adds a single directed link and returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint lacks an interface on `medium`, or if the
    /// capacity is negative/non-finite — topology generators are expected to
    /// respect interface sets.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        medium: Medium,
        capacity_mbps: f64,
    ) -> LinkId {
        assert!(from != to, "self-links are not allowed");
        assert!(
            capacity_mbps.is_finite() && capacity_mbps >= 0.0,
            "capacity must be a finite non-negative number, got {capacity_mbps}"
        );
        for end in [from, to] {
            assert!(
                self.nodes[end.index()].supports(medium),
                "node {end} has no {medium} interface"
            );
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { id, from, to, medium, capacity_mbps, reverse: None });
        id
    }

    /// Adds a bidirectional link as two directed links with equal capacity,
    /// cross-referenced through [`Link::reverse`]. Returns `(fwd, rev)`.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        medium: Medium,
        capacity_mbps: f64,
    ) -> (LinkId, LinkId) {
        self.add_duplex_asymmetric(a, b, medium, capacity_mbps, capacity_mbps)
    }

    /// Adds a bidirectional link with per-direction capacities (real WiFi
    /// and PLC links are rarely symmetric: different noise floors and, for
    /// PLC, different outlet impedances at each end). Returns `(a→b, b→a)`.
    pub fn add_duplex_asymmetric(
        &mut self,
        a: NodeId,
        b: NodeId,
        medium: Medium,
        capacity_ab_mbps: f64,
        capacity_ba_mbps: f64,
    ) -> (LinkId, LinkId) {
        let fwd = self.add_link(a, b, medium, capacity_ab_mbps);
        let rev = self.add_link(b, a, medium, capacity_ba_mbps);
        self.links[fwd.index()].reverse = Some(rev);
        self.links[rev.index()].reverse = Some(fwd);
        (fwd, rev)
    }

    /// Reads back a node added earlier (topology generators need positions
    /// and panels while still adding links).
    pub fn peek_node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalizes the network, computing adjacency indexes.
    pub fn build(self) -> Network {
        let mut out_adj = vec![Vec::new(); self.nodes.len()];
        let mut in_adj = vec![Vec::new(); self.nodes.len()];
        for link in &self.links {
            out_adj[link.from.index()].push(link.id);
            in_adj[link.to.index()].push(link.id);
        }
        Network { nodes: self.nodes, links: self.links, out_adj, in_adj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net() -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let a =
            b.add_node(Point::new(0.0, 0.0), vec![Medium::WIFI1, Medium::Plc], Some(PanelId(0)));
        let c =
            b.add_node(Point::new(3.0, 4.0), vec![Medium::WIFI1, Medium::Plc], Some(PanelId(0)));
        b.add_duplex(a, c, Medium::WIFI1, 30.0);
        b.add_duplex(a, c, Medium::Plc, 10.0);
        (b.build(), a, c)
    }

    #[test]
    fn duplex_links_reference_each_other() {
        let (net, a, c) = two_node_net();
        let fwd = net.find_link(a, c, Medium::WIFI1).unwrap();
        let rev = net.link(fwd.reverse.unwrap());
        assert_eq!(rev.from, c);
        assert_eq!(rev.to, a);
        assert_eq!(rev.reverse, Some(fwd.id));
    }

    #[test]
    fn multigraph_allows_parallel_links_on_different_mediums() {
        let (net, a, c) = two_node_net();
        assert_eq!(net.out_links(a).count(), 2);
        assert!(net.find_link(a, c, Medium::Plc).is_some());
        assert!(net.find_link(a, c, Medium::WIFI2).is_none());
    }

    #[test]
    fn mediums_lists_distinct_technologies() {
        let (net, _, _) = two_node_net();
        assert_eq!(net.mediums(), vec![Medium::WIFI1, Medium::Plc]);
    }

    #[test]
    fn node_distance_is_euclidean() {
        let (net, a, c) = two_node_net();
        assert!((net.node_distance(a, c) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "has no plc interface")]
    fn adding_link_without_interface_panics() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0), vec![Medium::WIFI1], None);
        let c = b.add_node(Point::new(1.0, 0.0), vec![Medium::Plc], None);
        b.add_link(a, c, Medium::Plc, 10.0);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_links_panic() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0), vec![Medium::WIFI1], None);
        b.add_link(a, a, Medium::WIFI1, 10.0);
    }

    #[test]
    fn set_capacity_clamps_at_zero() {
        let (mut net, a, c) = two_node_net();
        let id = net.find_link(a, c, Medium::WIFI1).unwrap().id;
        net.set_capacity(id, -5.0);
        assert_eq!(net.link(id).capacity_mbps, 0.0);
        assert!(!net.link(id).is_alive());
    }

    #[test]
    fn total_capacity_sums_alive_links() {
        let (net, _, _) = two_node_net();
        assert!((net.total_capacity() - 80.0).abs() < 1e-9);
    }
}
