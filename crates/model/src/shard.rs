//! Interference-domain sharding: partitions a network's links into
//! *atoms* — closed groups that never interact during a simulation — and
//! packs atoms onto a bounded number of shards.
//!
//! The sharded simulator (`empower-sim`) runs each shard on its own
//! worker thread. For the merged result to be byte-identical to the
//! single-threaded engine, everything that can couple two links at run
//! time must land in the same atom:
//!
//! * **R1 — interference**: all links of an interference domain
//!   ([`InterferenceMap::domain`]) share an atom; airtime feasibility
//!   (Eq. (1)) is computed over whole domains.
//! * **R2 — broadcast aggregation**: links leaving the same node on the
//!   same medium share an atom; the distributed controller's broadcast
//!   plan (§4.2) aggregates per `(sender, medium)`. Note this is *not*
//!   "all links touching a node" — an Ethernet riser and a WiFi access
//!   link at the same router stay separable.
//! * **R3 — flow closure**: all links any flow can ever use — every
//!   route in its multipath split, including replacement routes
//!   scheduled for later reroutes and, for TCP flows, the receiver's
//!   egress links (ACK-clocking couples them) — share an atom. Callers
//!   pass this closure in [`CouplingSpec::flow_links`].
//! * **R4 — fault adjacency**: links adjacent to a node with a scheduled
//!   `NodeChange`-style fault share an atom, so the fault's capacity
//!   edits stay within one shard.
//!
//! Under these rules no event in one atom can observe state in another,
//! so shards need no hand-off synchronisation at all (the conservative
//! lookahead is degenerate: the horizon is infinite).
//!
//! Everything here is deterministic: atom ids are assigned by first
//! sight in ascending link-id order, and packing is first-fit-descending
//! with fixed tie-breaks, so the same inputs always yield the same
//! [`ShardPlan`] (a property the determinism gates rely on).

use std::collections::BTreeMap;

use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::interference::InterferenceMap;

/// Run-time coupling the network graph alone cannot show: which links
/// each flow can ever touch, and which nodes have scheduled faults.
#[derive(Debug, Clone, Default)]
pub struct CouplingSpec {
    /// Per flow, the closure of links it may use over the whole run
    /// (all routes of all scheduled route sets; for TCP, the receiver's
    /// egress links too). Order is the flow registration order.
    pub flow_links: Vec<Vec<LinkId>>,
    /// Nodes with scheduled capacity faults (R4).
    pub fault_nodes: Vec<NodeId>,
}

/// A deterministic partition of links into atoms and atoms onto shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Atom id of every link, indexed by [`LinkId::index`].
    pub atom_of_link: Vec<u32>,
    /// Number of atoms.
    pub atom_count: u32,
    /// Shard id of every atom.
    pub shard_of_atom: Vec<u32>,
    /// Number of shards (≤ the requested count; never more than needed).
    pub shards: u32,
    /// Packing weight of every atom (links + 16 × flows).
    pub atom_weight: Vec<u64>,
}

/// Union-find over link indices with path halving.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Unions by *smaller root wins*, keeping roots stable under
    /// insertion order (determinism matters more than rank here; link
    /// counts are small).
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Builds a [`ShardPlan`] for `net` under coupling rules R1–R4, packing
/// atoms onto at most `shards` shards (clamped to ≥ 1).
pub fn plan_shards(
    net: &Network,
    imap: &InterferenceMap,
    spec: &CouplingSpec,
    shards: u32,
) -> ShardPlan {
    let n = net.link_count();
    assert_eq!(imap.link_count(), n, "interference map built for a different network");
    let mut dsu = Dsu::new(n);

    // R1: interference domains are atomic.
    for l in net.links() {
        for &m in imap.domain(l.id) {
            dsu.union(l.id.index() as u32, m.index() as u32);
        }
    }

    // R2: per-(sender, medium) broadcast aggregation.
    let mut first_by_sender: BTreeMap<(u32, u16), u32> = BTreeMap::new();
    for l in net.links() {
        let key = (l.from.0, l.medium.tag());
        match first_by_sender.get(&key) {
            Some(&first) => dsu.union(first, l.id.index() as u32),
            None => {
                first_by_sender.insert(key, l.id.index() as u32);
            }
        }
    }

    // R3: each flow's link closure is atomic.
    for links in &spec.flow_links {
        if let Some((&first, rest)) = links.split_first() {
            for &l in rest {
                dsu.union(first.index() as u32, l.index() as u32);
            }
        }
    }

    // R4: a faulted node's adjacent links are atomic.
    for &node in &spec.fault_nodes {
        let mut adj = net.out_links(node).chain(net.in_links(node)).map(|l| l.id.index() as u32);
        if let Some(first) = adj.next() {
            for l in adj {
                dsu.union(first, l);
            }
        }
    }

    // Number atoms by first sight in ascending link-id order.
    let mut atom_of_root: BTreeMap<u32, u32> = BTreeMap::new();
    let mut atom_of_link = Vec::with_capacity(n);
    for i in 0..n as u32 {
        let root = dsu.find(i);
        let next = atom_of_root.len() as u32;
        let atom = *atom_of_root.entry(root).or_insert(next);
        atom_of_link.push(atom);
    }
    let atom_count = atom_of_root.len() as u32;

    // Weight = links + 16 × flows: event traffic is dominated by flow
    // scheduling, so flows count much more than idle links.
    let mut atom_weight = vec![0u64; atom_count as usize];
    for &a in &atom_of_link {
        atom_weight[a as usize] += 1;
    }
    for links in &spec.flow_links {
        if let Some(&first) = links.first() {
            atom_weight[atom_of_link[first.index()] as usize] += 16;
        }
    }

    // First-fit-descending: heaviest atom first (tie: lower atom id),
    // onto the least-loaded shard (tie: lowest shard index).
    let shards = shards.max(1).min(atom_count.max(1));
    let mut order: Vec<u32> = (0..atom_count).collect();
    order.sort_by_key(|&a| (std::cmp::Reverse(atom_weight[a as usize]), a));
    let mut load = vec![0u64; shards as usize];
    let mut shard_of_atom = vec![0u32; atom_count as usize];
    for a in order {
        let mut best = 0usize;
        for (s, &l) in load.iter().enumerate() {
            if l < load[best] {
                best = s;
            }
        }
        shard_of_atom[a as usize] = best as u32;
        load[best] += atom_weight[a as usize];
    }

    ShardPlan { atom_of_link, atom_count, shard_of_atom, shards, atom_weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::CarrierSense;
    use crate::medium::Medium;
    use crate::rng::{Rng, SeedableRng, StdRng};
    use crate::topology::campus::{campus, CampusConfig, CampusTopology};

    fn gen(seed: u64) -> CampusTopology {
        let mut rng = StdRng::seed_from_u64(seed);
        campus(&mut rng, &CampusConfig::new(2, 3, 4))
    }

    /// Intra-floor hybrid flows: every client's full closure to its
    /// router (WiFi and, where present, PLC).
    fn intra_floor_flows(t: &CampusTopology) -> Vec<Vec<LinkId>> {
        let mut flows = Vec::new();
        for fl in &t.floors {
            for &c in &fl.clients {
                let links: Vec<LinkId> =
                    t.net.out_links(c).filter(|l| l.to == fl.router).map(|l| l.id).collect();
                assert!(!links.is_empty());
                flows.push(links);
            }
        }
        flows
    }

    fn plan_for(seed: u64, shards: u32) -> (CampusTopology, CouplingSpec, ShardPlan) {
        let t = gen(seed);
        let imap = InterferenceMap::build(&t.net, &CarrierSense::default());
        let spec = CouplingSpec { flow_links: intra_floor_flows(&t), fault_nodes: Vec::new() };
        let plan = plan_shards(&t.net, &imap, &spec, shards);
        (t, spec, plan)
    }

    #[test]
    fn every_link_lands_in_exactly_one_shard_across_50_topologies() {
        for seed in 0..50 {
            let (t, _, plan) = plan_for(seed, 4);
            assert_eq!(plan.atom_of_link.len(), t.net.link_count());
            for l in t.net.links() {
                let atom = plan.atom_of_link[l.id.index()];
                assert!(atom < plan.atom_count);
                assert!(plan.shard_of_atom[atom as usize] < plan.shards);
            }
            assert!(plan.shards <= 4);
        }
    }

    #[test]
    fn interference_domains_never_span_atoms() {
        for seed in 0..50 {
            let (t, _, plan) = plan_for(seed, 4);
            let imap = InterferenceMap::build(&t.net, &CarrierSense::default());
            for l in t.net.links() {
                let atom = plan.atom_of_link[l.id.index()];
                for &m in imap.domain(l.id) {
                    assert_eq!(plan.atom_of_link[m.index()], atom);
                }
            }
        }
    }

    #[test]
    fn flow_closures_and_sender_groups_stay_within_an_atom() {
        for seed in 0..50 {
            let (t, spec, plan) = plan_for(seed, 4);
            for links in &spec.flow_links {
                let atom = plan.atom_of_link[links[0].index()];
                for &l in links {
                    assert_eq!(plan.atom_of_link[l.index()], atom);
                }
            }
            // R2: same sender, same medium → same atom.
            for a in t.net.links() {
                for b in t.net.links() {
                    if a.from == b.from && a.medium.tag() == b.medium.tag() {
                        assert_eq!(
                            plan.atom_of_link[a.id.index()],
                            plan.atom_of_link[b.id.index()]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plans_are_deterministic_for_a_fixed_seed() {
        for seed in 0..50 {
            let (_, _, a) = plan_for(seed, 4);
            let (_, _, b) = plan_for(seed, 4);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn campus_floors_become_separate_atoms() {
        let (t, _, plan) = plan_for(11, 4);
        // A floor's shared-medium links may split into a WiFi atom and a
        // PLC atom (hybrid flows usually bridge them), but no atom ever
        // spans two floors.
        let mut atoms_by_floor: Vec<std::collections::BTreeSet<u32>> = Vec::new();
        for fl in &t.floors {
            let atoms: std::collections::BTreeSet<u32> = t
                .net
                .out_links(fl.router)
                .chain(t.net.in_links(fl.router))
                .filter(|l| l.medium != Medium::Ethernet)
                .map(|l| plan.atom_of_link[l.id.index()])
                .collect();
            assert!(!atoms.is_empty());
            assert!(atoms.len() <= 2, "more than wifi+plc atoms on one floor: {atoms:?}");
            atoms_by_floor.push(atoms);
        }
        for (i, a) in atoms_by_floor.iter().enumerate() {
            for b in &atoms_by_floor[i + 1..] {
                assert!(a.is_disjoint(b), "an atom spans two floors");
            }
        }
    }

    #[test]
    fn fault_nodes_pull_their_links_together() {
        let t = gen(3);
        let imap = InterferenceMap::build(&t.net, &CarrierSense::default());
        // Fault the first floor router: its Ethernet uplink must join the
        // floor's wireless atom.
        let router = t.floors[0].router;
        let spec = CouplingSpec { flow_links: Vec::new(), fault_nodes: vec![router] };
        let plan = plan_shards(&t.net, &imap, &spec, 4);
        let atoms: std::collections::BTreeSet<u32> = t
            .net
            .out_links(router)
            .chain(t.net.in_links(router))
            .map(|l| plan.atom_of_link[l.id.index()])
            .collect();
        assert_eq!(atoms.len(), 1);
    }

    #[test]
    fn packing_balances_weights_first_fit_descending() {
        let (_, _, plan) = plan_for(19, 4);
        let mut load = vec![0u64; plan.shards as usize];
        for (a, &s) in plan.shard_of_atom.iter().enumerate() {
            load[s as usize] += plan.atom_weight[a];
        }
        let max = *load.iter().max().unwrap_or(&0);
        let min = *load.iter().min().unwrap_or(&0);
        // 6 floor atoms of similar weight over 4 shards: no shard should
        // carry more than two floors' worth.
        let heaviest = *plan.atom_weight.iter().max().unwrap_or(&0);
        assert!(max - min <= 2 * heaviest, "load spread {load:?}");
    }

    #[test]
    fn shard_count_is_clamped_to_atom_count() {
        let (_, _, plan) = plan_for(23, 64);
        assert!(plan.shards <= plan.atom_count);
        let (_, _, plan0) = plan_for(23, 0);
        assert_eq!(plan0.shards, 1);
    }

    #[test]
    fn random_coupling_spec_never_breaks_invariants() {
        // Fuzz R3/R4 with arbitrary link subsets and fault nodes.
        let t = gen(29);
        let imap = InterferenceMap::build(&t.net, &CarrierSense::default());
        let mut rng = StdRng::seed_from_u64(4242);
        for _ in 0..20 {
            let n_flows = rng.gen_range(0..6u32);
            let flow_links: Vec<Vec<LinkId>> = (0..n_flows)
                .map(|_| {
                    (0..rng.gen_range(1..5u32))
                        .map(|_| LinkId(rng.gen_range(0..t.net.link_count() as u32)))
                        .collect()
                })
                .collect();
            let fault_nodes: Vec<NodeId> = (0..rng.gen_range(0..3u32))
                .map(|_| NodeId(rng.gen_range(0..t.net.node_count() as u32)))
                .collect();
            let spec = CouplingSpec { flow_links, fault_nodes };
            let plan = plan_shards(&t.net, &imap, &spec, 3);
            for links in &spec.flow_links {
                let atom = plan.atom_of_link[links[0].index()];
                assert!(links.iter().all(|l| plan.atom_of_link[l.index()] == atom));
            }
            for &node in &spec.fault_nodes {
                let atoms: std::collections::BTreeSet<u32> = t
                    .net
                    .out_links(node)
                    .chain(t.net.in_links(node))
                    .map(|l| plan.atom_of_link[l.id.index()])
                    .collect();
                assert!(atoms.len() <= 1);
            }
        }
    }
}
