//! The distributed embodiment of the controller (§4.2, last paragraph).
//!
//! Each node monitors the traffic it forwards and measures the airtime
//! demand `d_l · Σ_{r: l∈r} x_r` of each of its egress links. Per technology
//! `k` it periodically broadcasts **(i)** the aggregate airtime demand over
//! its egress links on `k` and **(ii)** the sum of the dual variables `γ_l`
//! of those links. Overhearing nodes combine the broadcasts with their own
//! measurements to evaluate `y_l` (Eq. (7)) for their own egress links and
//! update `γ_l` (Eq. (8)). When forwarding a packet on `l`, a node adds
//! `d_l Σ_{i∈I_l} γ_i` to a header field, so the destination reads `q_r`
//! (Eq. (9)) and echoes it to the source in an acknowledgement.
//!
//! The per-(node, technology) aggregation is *exact* when, for every link
//! `l` and every other node `u`, either all or none of `u`'s egress links on
//! `k` belong to `I_l` — true under the shared-medium model used in the
//! simulations, and the approximation the real system makes under partial
//! (carrier-sense) interference.

use empower_model::{InterferenceMap, LinkId, Medium, Network, NodeId};

/// One periodic per-technology broadcast from a node (§4.2 items (i)–(ii),
/// plus the §6.4 TCP piggyback).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceBroadcast {
    pub from: NodeId,
    pub medium: Medium,
    /// Aggregate airtime demand `Σ d_l x_l` over the sender's egress links
    /// on `medium`.
    pub airtime_demand: f64,
    /// `Σ γ_l` over the same links.
    pub gamma_sum: f64,
    /// §6.4: "if a node receives TCP messages, it informs its neighbors by
    /// piggybacking this information in the broadcasted price messages" —
    /// everyone in its contention domain then applies the TCP-friendly
    /// constraint margin (δ = 0.3) instead of the default.
    pub tcp_receiver: bool,
}

/// Per-node price state: dual variables and measured demands for the node's
/// egress links.
#[derive(Debug, Clone)]
pub struct LinkPriceState {
    node: NodeId,
    /// True while this node receives TCP traffic (piggybacked, §6.4).
    tcp_receiver: bool,
    /// Egress links of this node.
    egress: Vec<LinkId>,
    /// γ_l per egress link (indexed like `egress`).
    gamma: Vec<f64>,
    /// Measured airtime demand `d_l x_l` per egress link.
    demand: Vec<f64>,
    /// For each egress link: which *other* nodes' broadcasts on which medium
    /// count toward its `y_l` (the overhearing set), plus whether each of
    /// this node's own egress links is in its domain.
    ///
    /// `overheard[i]` = (relevant (node, medium) pairs, own egress indexes in
    /// `I_l`).
    overheard: Vec<OverhearSet>,
}

/// For one egress link: the (node, medium) broadcasts to accumulate, plus
/// this node's own egress indexes inside the link's domain.
type OverhearSet = (Vec<(NodeId, Medium)>, Vec<usize>);

impl LinkPriceState {
    /// Builds the state for `node`, deriving the overhearing sets from the
    /// interference map.
    pub fn new(net: &Network, imap: &InterferenceMap, node: NodeId) -> Self {
        let egress: Vec<LinkId> = net.out_links(node).map(|l| l.id).collect();
        let overheard = egress
            .iter()
            .map(|&l| {
                let mut nodes: Vec<(NodeId, Medium)> = Vec::new();
                let mut own = Vec::new();
                for &i in imap.domain(l) {
                    let owner = net.link(i).from;
                    let medium = net.link(i).medium;
                    if owner == node {
                        if let Some(pos) = egress.iter().position(|&e| e == i) {
                            own.push(pos);
                        }
                    } else if !nodes.contains(&(owner, medium)) {
                        nodes.push((owner, medium));
                    }
                }
                (nodes, own)
            })
            .collect();
        LinkPriceState {
            node,
            tcp_receiver: false,
            gamma: vec![0.0; egress.len()],
            demand: vec![0.0; egress.len()],
            egress,
            overheard,
        }
    }

    /// Marks whether this node currently receives TCP traffic (§6.4). The
    /// flag rides on every outgoing price broadcast.
    pub fn set_tcp_receiver(&mut self, receiving: bool) {
        self.tcp_receiver = receiving;
    }

    /// The node this state belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Records the measured airtime demand of an egress link for the current
    /// slot (`d_l` times the traffic rate the node forwards on `l`).
    pub fn set_demand(&mut self, link: LinkId, airtime_demand: f64) {
        let i = self.index_of(link);
        self.demand[i] = airtime_demand;
    }

    /// The γ of an egress link.
    pub fn gamma(&self, link: LinkId) -> f64 {
        self.gamma[self.index_of(link)]
    }

    /// Forgets the dual of an egress link. Called on topology changes
    /// (link revival, node recovery): the γ learned under the old topology
    /// prices a world that no longer exists, and the update rule (8) can
    /// only unwind it at α per slot — resetting lets the next slots rebuild
    /// it from fresh demand measurements.
    pub fn reset_gamma(&mut self, link: LinkId) {
        let i = self.index_of(link);
        self.gamma[i] = 0.0;
    }

    /// Produces this node's per-technology broadcasts for the current slot.
    pub fn make_broadcasts(&self, net: &Network) -> Vec<PriceBroadcast> {
        let mut out = Vec::new();
        self.make_broadcasts_into(net, &mut out);
        out
    }

    /// Allocation-free variant of [`LinkPriceState::make_broadcasts`]:
    /// appends this node's broadcasts to `out`, so one reused vector can
    /// collect a whole network's worth per slot. Per-medium aggregation
    /// only merges into entries appended by *this* call — broadcasts from
    /// previously appended nodes are never touched.
    pub fn make_broadcasts_into(&self, net: &Network, out: &mut Vec<PriceBroadcast>) {
        let start = out.len();
        for (i, &l) in self.egress.iter().enumerate() {
            let medium = net.link(l).medium;
            match out[start..].iter_mut().find(|b| b.medium == medium) {
                Some(b) => {
                    b.airtime_demand += self.demand[i];
                    b.gamma_sum += self.gamma[i];
                }
                None => out.push(PriceBroadcast {
                    from: self.node,
                    medium,
                    airtime_demand: self.demand[i],
                    gamma_sum: self.gamma[i],
                    tcp_receiver: self.tcp_receiver,
                }),
            }
        }
    }

    /// One slot of Eq. (7)+(8): combines own demands with overheard
    /// broadcasts to get `y_l` for every egress link, then updates γ.
    ///
    /// `broadcasts` is everything this node overheard this slot (broadcasts
    /// from irrelevant nodes are ignored via the overhearing sets).
    pub fn update_gammas(
        &mut self,
        broadcasts: &[PriceBroadcast],
        alpha: f64,
        delta: f64,
    ) -> usize {
        self.update_gammas_with_tcp_margin(broadcasts, alpha, delta, delta)
    }

    /// Like [`LinkPriceState::update_gammas`], applying `delta_tcp` instead
    /// of `delta` on every egress link whose contention domain contains a
    /// TCP receiver (this node or an overheard broadcaster) — the §6.4
    /// coexistence rule ("only the nodes in the contention domain of a TCP
    /// flow should use this value of δ").
    ///
    /// Returns how many egress links violated their airtime margin this
    /// slot (`y_l > 1 − δ`), for the caller's telemetry.
    pub fn update_gammas_with_tcp_margin(
        &mut self,
        broadcasts: &[PriceBroadcast],
        alpha: f64,
        delta: f64,
        delta_tcp: f64,
    ) -> usize {
        let per_link: Vec<(f64, f64)> = self
            .overheard
            .iter()
            .map(|(nodes, own)| {
                let mut external = 0.0;
                let mut tcp = self.tcp_receiver;
                for b in broadcasts {
                    if nodes.contains(&(b.from, b.medium)) {
                        external += b.airtime_demand;
                        tcp |= b.tcp_receiver;
                    }
                }
                let internal: f64 = own.iter().map(|&i| self.demand[i]).sum();
                (external + internal, if tcp { delta_tcp } else { delta })
            })
            .collect();
        let mut violations = 0;
        for (g, (yl, d)) in self.gamma.iter_mut().zip(per_link) {
            *g = (*g + alpha * (yl - (1.0 - d))).max(0.0);
            if yl > 1.0 - d {
                violations += 1;
            }
        }
        violations
    }

    /// The per-hop price contribution `d_l Σ_{i∈I_l} γ_i` a node adds to the
    /// layer-2.5 header when forwarding on `link` (Eq. (9) summand).
    pub fn price_contribution(
        &self,
        net: &Network,
        broadcasts: &[PriceBroadcast],
        link: LinkId,
    ) -> f64 {
        let i = self.index_of(link);
        let (nodes, own) = &self.overheard[i];
        let external: f64 = broadcasts
            .iter()
            .filter(|b| nodes.contains(&(b.from, b.medium)))
            .map(|b| b.gamma_sum)
            .sum();
        let internal: f64 = own.iter().map(|&j| self.gamma[j]).sum();
        net.link(link).cost() * (external + internal)
    }

    fn index_of(&self, link: LinkId) -> usize {
        // A network lists a node's egress links in the order they were
        // added, which is ascending; the scan is for one that does not.
        let found = match self.egress.binary_search(&link) {
            Ok(i) => Some(i),
            Err(_) => self.egress.iter().position(|&e| e == link),
        };
        // empower-lint: allow(D005) — internal helper; the egress set is
        // fixed at construction and every caller passes a member of it.
        found.expect("link is an egress of this node")
    }
}

/// The network-wide broadcast channel of one run: the concatenated
/// broadcast vector, the index plan over it, and one control slot of
/// Eqs. (7)+(8) that costs what carries state.
///
/// The *layout* of the vector produced by calling
/// [`LinkPriceState::make_broadcasts_into`] for a fixed slice of states in a
/// fixed order never changes during a run: it depends only on each node's
/// egress set and the links' media, neither of which topology dynamics
/// touch (dead links keep their slot with zero demand). So the plan keeps
/// one persistent vector and refreshes entries in place, and it knows, per
/// egress link, the ascending entries the link overhears (for the per-hop
/// price of Eq. (9)) and, per entry, the ascending links that overhear it
/// (for the per-slot update).
///
/// Every floating-point sum receives its terms in ascending
/// broadcast-vector order, exactly like the scanning originals on
/// [`LinkPriceState`], so the planned variants are **bit-identical** to
/// them (asserted in this module's tests).
#[derive(Debug, Clone)]
pub struct BroadcastPlan {
    /// Per state, per egress link: ascending indices into the broadcast
    /// vector of the `(node, medium)` entries in the link's overhearing set.
    indices: Vec<Vec<Vec<u32>>>,
    /// Per broadcast entry: the links that overhear it, ascending: the
    /// transpose of `indices`, same total size.
    listeners: Vec<Vec<LinkId>>,
    /// Per [`LinkId`] index: the link's position in its owner's egress list.
    egress_pos: Vec<u32>,
    /// Per [`LinkId`] index: the entry its owner aggregates it into.
    entry_of: Vec<u32>,
    /// Per state: its first entry; one past the last state's at the end.
    entry_start: Vec<u32>,
    /// The broadcast vector as of the last refresh.
    broadcasts: Vec<PriceBroadcast>,
    /// Per [`LinkId`] index: what the link heard this slot (scratch of
    /// [`BroadcastPlan::update_gammas_with_tcp_margin`]).
    heard: Vec<Heard>,
}

/// The two halves of Eq. (7)'s `y_l` and the §6.4 flag, as one link
/// accumulates them during a slot.
#[derive(Debug, Clone, Copy, Default)]
struct Heard {
    /// `Σ airtime_demand` over the overheard broadcasts.
    external: f64,
    /// `Σ d_j x_j` over the owner's own egress links inside `I_l`.
    internal: f64,
    /// An overheard broadcaster receives TCP.
    tcp: bool,
}

impl BroadcastPlan {
    /// Builds the plan for `states`, one per node in node order (the slice
    /// every later call takes); the vector starts as what they broadcast
    /// now.
    ///
    /// # Panics
    /// Panics if `states[i]` does not belong to node `i`.
    pub fn new(net: &Network, states: &[LinkPriceState]) -> Self {
        assert!(
            states.iter().enumerate().all(|(i, s)| s.node.index() == i),
            "price states must be indexed by node"
        );
        // The vector make_broadcasts_into generates: per state, one entry
        // per distinct egress medium, in first-seen order.
        let mut broadcasts = Vec::new();
        let mut entry_start = Vec::with_capacity(states.len() + 1);
        for s in states {
            entry_start.push(broadcasts.len() as u32);
            s.make_broadcasts_into(net, &mut broadcasts);
        }
        entry_start.push(broadcasts.len() as u32);
        let entry_index = |node: NodeId, medium: Medium| {
            let start = entry_start[node.index()] as usize;
            let end = entry_start[node.index() + 1] as usize;
            (start..end).find(|&e| broadcasts[e].medium == medium)
        };
        let mut egress_pos = vec![0u32; net.link_count()];
        let mut entry_of = vec![0u32; net.link_count()];
        let mut listeners = vec![Vec::new(); broadcasts.len()];
        // Links in ascending id order, so every listener list ascends.
        for lk in net.links() {
            let s = &states[lk.from.index()];
            let pos = s.index_of(lk.id);
            egress_pos[lk.id.index()] = pos as u32;
            // empower-lint: allow(D005) — the entry was appended two loops
            // up for exactly this (owner, medium)
            entry_of[lk.id.index()] = entry_index(lk.from, lk.medium).expect("own entry") as u32;
            for &(node, medium) in &s.overheard[pos].0 {
                if let Some(e) = entry_index(node, medium) {
                    listeners[e].push(lk.id);
                }
            }
        }
        let mut indices: Vec<Vec<Vec<u32>>> =
            states.iter().map(|s| vec![Vec::new(); s.egress.len()]).collect();
        // Entries in ascending order, so every row ascends.
        for (e, heard_by) in listeners.iter().enumerate() {
            for &l in heard_by {
                let owner = net.link(l).from.index();
                indices[owner][egress_pos[l.index()] as usize].push(e as u32);
            }
        }
        BroadcastPlan {
            indices,
            listeners,
            egress_pos,
            entry_of,
            entry_start,
            broadcasts,
            heard: vec![Heard::default(); net.link_count()],
        }
    }

    /// One control slot for the whole network: every node in `speakers`
    /// broadcasts, every link in `priced` combines what it overhears with
    /// its owner's measurements into `y_l` (Eq. (7)) and updates `γ_l`
    /// (Eq. (8), with `delta_tcp` in place of `delta` wherever the link's
    /// owner or an overheard broadcaster receives TCP, §6.4), and the
    /// speakers broadcast again so the vector carries the updated γ sums
    /// into the coming slot. Returns the airtime-margin violations
    /// (`y_l > 1 − δ`) and how many elements the slot visited (link states,
    /// overhearing entries, egress links behind refreshed broadcasts).
    ///
    /// This equals calling [`LinkPriceState::update_gammas_with_tcp_margin`]
    /// on every state bit for bit, provided the two ascending lists cover
    /// what carries state, which is the caller's to guarantee:
    ///
    /// * `speakers` holds every node that owns a link of `priced` or has
    ///   its TCP flag set (any other node broadcasts its construction
    ///   values: zero demand, zero γ, no flag);
    /// * `priced` holds every link that overhears an entry with nonzero
    ///   demand, or shares its owner and an interference domain with a
    ///   link of nonzero demand (any other link has `y_l = 0`, so its γ
    ///   rests at zero while `max(δ, δ_tcp) < 1`).
    ///
    /// Why the bits agree: Eq. (7) is computed by scatter where the
    /// scanning original gathers. Each nonzero or flagged entry, in
    /// ascending entry order, is added to the links that overhear it, and
    /// each link of nonzero demand, in ascending link order, to the links
    /// of its owner in its domain (domains are symmetric, so the link's
    /// own `I_l` names them). A link therefore receives exactly the terms
    /// its gather would have summed, in the same order, minus terms that
    /// are `+0.0`; and `x + 0.0 == x` bit for bit for every `x` a sum
    /// started at `+0.0` can reach (it is never `-0.0`).
    pub fn update_gammas_with_tcp_margin(
        &mut self,
        states: &mut [LinkPriceState],
        speakers: &[NodeId],
        priced: &[LinkId],
        alpha: f64,
        delta: f64,
        delta_tcp: f64,
    ) -> (usize, u64) {
        debug_assert_eq!(states.len() + 1, self.entry_start.len());
        let mut visits = self.refresh(states, speakers) + 2 * priced.len() as u64;
        for &l in priced {
            self.heard[l.index()] = Heard::default();
        }
        for &l in priced {
            let s = &states[self.owner_of(l)];
            let i = self.egress_pos[l.index()] as usize;
            let demand = s.demand[i];
            if demand.to_bits() != 0 {
                let own = &s.overheard[i].1;
                for &j in own {
                    self.heard[s.egress[j].index()].internal += demand;
                }
                visits += own.len() as u64;
            }
        }
        for &n in speakers {
            let (first, end) = (self.entry_start[n.index()], self.entry_start[n.index() + 1]);
            for e in first as usize..end as usize {
                let b = self.broadcasts[e];
                if b.airtime_demand.to_bits() == 0 && !b.tcp_receiver {
                    continue;
                }
                debug_assert!(
                    b.airtime_demand.to_bits() == 0
                        || self.listeners[e].iter().all(|l| priced.binary_search(l).is_ok()),
                    "a link overhearing demand from {:?} is missing from the priced set",
                    b.from
                );
                for &l in &self.listeners[e] {
                    let h = &mut self.heard[l.index()];
                    h.external += b.airtime_demand;
                    h.tcp |= b.tcp_receiver;
                }
                visits += self.listeners[e].len() as u64;
            }
        }
        let mut violations = 0;
        for &l in priced {
            let s = &mut states[self.owner_of(l)];
            let h = self.heard[l.index()];
            let yl = h.external + h.internal;
            let d = if s.tcp_receiver || h.tcp { delta_tcp } else { delta };
            let g = &mut s.gamma[self.egress_pos[l.index()] as usize];
            *g = (*g + alpha * (yl - (1.0 - d))).max(0.0);
            if yl > 1.0 - d {
                violations += 1;
            }
        }
        visits += self.refresh(states, speakers);
        (violations, visits)
    }

    /// Index of the state (= node) that owns `link`.
    fn owner_of(&self, link: LinkId) -> usize {
        self.broadcasts[self.entry_of[link.index()] as usize].from.index()
    }

    /// Rewrites the entries of `speakers` from their states, with the
    /// arithmetic of [`LinkPriceState::make_broadcasts_into`]: the first
    /// egress link of a medium assigns, later ones add, in egress order.
    /// Returns the egress links visited.
    fn refresh(&mut self, states: &[LinkPriceState], speakers: &[NodeId]) -> u64 {
        let mut visits = 0;
        for &n in speakers {
            let s = &states[n.index()];
            // Entries were laid out in first-seen order, so a medium's
            // first link is the one that maps to the next unwritten entry.
            let mut unwritten = self.entry_start[n.index()];
            for (i, &l) in s.egress.iter().enumerate() {
                let e = self.entry_of[l.index()];
                let b = &mut self.broadcasts[e as usize];
                if e == unwritten {
                    b.airtime_demand = s.demand[i];
                    b.gamma_sum = s.gamma[i];
                    b.tcp_receiver = s.tcp_receiver;
                    unwritten += 1;
                } else {
                    b.airtime_demand += s.demand[i];
                    b.gamma_sum += s.gamma[i];
                }
            }
            visits += s.egress.len() as u64;
        }
        visits
    }

    /// Planned equivalent of [`LinkPriceState::price_contribution`] for the
    /// state at `state_index` (the owner of `link`), over the broadcasts of
    /// the last slot (construction values before the first).
    pub fn price_contribution(
        &self,
        net: &Network,
        states: &[LinkPriceState],
        state_index: usize,
        link: LinkId,
    ) -> f64 {
        let s = &states[state_index];
        debug_assert_eq!(net.link(link).from, s.node, "state is not the owner of the link");
        let i = self.egress_pos[link.index()] as usize;
        let external: f64 = self.indices[state_index][i]
            .iter()
            .map(|&bi| self.broadcasts[bi as usize].gamma_sum)
            .sum();
        let internal: f64 = s.overheard[i].1.iter().map(|&j| s.gamma[j]).sum();
        net.link(link).cost() * (external + internal)
    }
}

/// Accumulates the route price `q_r` hop by hop, as the dedicated header
/// field does on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoutePriceAccumulator {
    q: f64,
}

impl RoutePriceAccumulator {
    /// Fresh accumulator for a new packet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one hop's contribution (called by each forwarding node).
    pub fn add_hop(&mut self, contribution: f64) {
        self.q += contribution;
    }

    /// The accumulated `q_r` the destination echoes back.
    pub fn total(&self) -> f64 {
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CcConfig, MultipathController};
    use crate::problem::CcProblem;
    use crate::utility::ProportionalFair;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, Path, SharedMedium};

    /// Runs the distributed machinery one slot for all nodes and returns the
    /// per-route q_r, mirroring what the packet datapath would compute.
    fn distributed_slot(
        net: &Network,
        states: &mut [LinkPriceState],
        problem: &CcProblem,
        x: &[f64],
        alpha: f64,
    ) -> Vec<f64> {
        // 1. Each node measures egress demands from the current rates.
        let link_rates = problem.link_rates(x);
        for s in states.iter_mut() {
            let node = s.node();
            let egress: Vec<LinkId> = net.out_links(node).map(|l| l.id).collect();
            for l in egress {
                s.set_demand(l, net.link(l).cost() * link_rates[l.index()]);
            }
        }
        // 2. Broadcast and overhear (perfect control channel).
        let broadcasts: Vec<PriceBroadcast> =
            states.iter().flat_map(|s| s.make_broadcasts(net)).collect();
        // 3. Dual updates.
        for s in states.iter_mut() {
            s.update_gammas(&broadcasts, alpha, 0.0);
        }
        // 4. Fresh broadcasts carry the updated γ sums; data packets
        //    forwarded during the slot accumulate prices from these.
        let broadcasts: Vec<PriceBroadcast> =
            states.iter().flat_map(|s| s.make_broadcasts(net)).collect();
        // 5. Header accumulation along each route.
        problem
            .routes
            .iter()
            .map(|path| {
                let mut acc = RoutePriceAccumulator::new();
                for &l in path.links() {
                    let owner = net.link(l).from;
                    let state = states.iter().find(|s| s.node() == owner).unwrap();
                    acc.add_hop(state.price_contribution(net, &broadcasts, l));
                }
                acc.total()
            })
            .collect()
    }

    #[test]
    fn distributed_prices_match_the_paper_formulas() {
        // Drive the distributed machinery and a direct link-indexed
        // evaluation of Eqs. (7)–(9) with the SAME rate trajectory (taken
        // from the centralized controller) and compare the per-route prices
        // q_r slot by slot.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let problem = CcProblem::new(&s.net, &imap, vec![vec![route1, route2]]);

        let mut central = MultipathController::new(&problem, ProportionalFair, CcConfig::default());
        let mut states: Vec<LinkPriceState> =
            s.net.nodes().iter().map(|n| LinkPriceState::new(&s.net, &imap, n.id)).collect();
        // Direct evaluation state: γ per link.
        let mut gamma = vec![0.0_f64; s.net.link_count()];
        let alpha = 0.02;

        for _ in 0..500 {
            let x: Vec<f64> = central.rates().to_vec();
            let q_dist = distributed_slot(&s.net, &mut states, &problem, &x, alpha);

            // Direct Eqs. (7)-(9).
            let link_rates = problem.link_rates(&x);
            let y = problem.domain_airtimes(&imap, &link_rates);
            for (g, &yl) in gamma.iter_mut().zip(&y) {
                *g = (*g + alpha * (yl - 1.0)).max(0.0);
            }
            let q_direct: Vec<f64> = problem
                .routes
                .iter()
                .map(|path| {
                    path.links()
                        .iter()
                        .map(|&l| {
                            let dg: f64 = imap.domain(l).iter().map(|&i| gamma[i.index()]).sum();
                            problem.link_costs[l.index()] * dg
                        })
                        .sum()
                })
                .collect();

            for (a, b) in q_dist.iter().zip(&q_direct) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "distributed {a} vs direct {b}");
            }
            central.step(&problem, &imap);
        }
    }

    #[test]
    fn broadcasts_aggregate_per_medium() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut state = LinkPriceState::new(&s.net, &imap, s.gateway);
        state.set_demand(s.plc_ab, 0.3);
        state.set_demand(s.wifi_ab, 0.5);
        let bs = state.make_broadcasts(&s.net);
        assert_eq!(bs.len(), 2); // one per medium
        let plc = bs.iter().find(|b| b.medium == empower_model::Medium::Plc).unwrap();
        let wifi = bs.iter().find(|b| b.medium == empower_model::Medium::WIFI1).unwrap();
        assert!((plc.airtime_demand - 0.3).abs() < 1e-12);
        assert!((wifi.airtime_demand - 0.5).abs() < 1e-12);
    }

    #[test]
    fn planned_slot_updates_are_bit_identical_to_scanning() {
        use empower_model::topology::testbed22;
        use empower_model::CarrierSense;
        use std::collections::BTreeSet;
        // The 22-node testbed with carrier sensing cut to the connection
        // radius: large, irregular overhearing sets, and nodes whose egress
        // links on one medium do not share one domain, so a link overhears
        // broadcasts none of whose demand is inside its own `I_l`.
        let net = testbed22(3).net;
        let imap = CarrierSense { wifi_sense_range_m: 35.0 }.build_map(&net);
        let fresh: Vec<LinkPriceState> =
            net.nodes().iter().map(|n| LinkPriceState::new(&net, &imap, n.id)).collect();
        let (a, b, c) = (LinkId(7), LinkId(300), LinkId(net.link_count() as u32 - 1));
        let plan = BroadcastPlan::new(&net, &fresh);
        let overheard_beyond_its_domain = net.links().iter().any(|lk| {
            let heard_by = &plan.listeners[plan.entry_of[lk.id.index()] as usize];
            heard_by.iter().any(|&l| !imap.interferes(lk.id, l))
        });
        assert!(overheard_beyond_its_domain, "the per-technology aggregation should be inexact");
        let elsewhere = net
            .nodes()
            .iter()
            .map(|n| n.id)
            .find(|&n| [a, b, c].iter().all(|&l| net.link(l).from != n))
            .unwrap();
        let few = move |slot: u64, l: LinkId| match l {
            l if l == a => 0.3 * (slot + 1) as f64,
            l if l == b => 0.6,
            l if l == c => 1.4,
            _ => 0.0,
        };
        // (what the case is, demand of link `l` in `slot`, TCP receiver).
        type Demand = Box<dyn Fn(u64, LinkId) -> f64>;
        let cases: Vec<(&str, Demand, Option<NodeId>)> = vec![
            (
                "every link loaded",
                Box::new(|slot, l| ((slot + 1) * (l.index() as u64 * 13 + 1) % 97) as f64 / 97.0),
                Some(NodeId(4)),
            ),
            ("3 links loaded", Box::new(few), Some(net.link(a).from)),
            (
                "subnormal demands",
                Box::new(|_, l| match l.index() {
                    7 => f64::from_bits(2),
                    300 => f64::from_bits(9),
                    _ => 0.0,
                }),
                None,
            ),
            ("no demand at all", Box::new(|_, _| 0.0), None),
            ("TCP receiver that owns no loaded link", Box::new(few), Some(elsewhere)),
            ("no demand, one TCP receiver", Box::new(|_, _| 0.0), Some(elsewhere)),
        ];
        for (case, demand, tcp_node) in cases {
            let mut scanning = fresh.clone();
            let mut planned = fresh.clone();
            let mut plan = BroadcastPlan::new(&net, &planned);
            // The least the contract of the planned update asks for.
            let (mut priced, mut speakers) = (BTreeSet::new(), BTreeSet::new());
            speakers.extend(tcp_node);
            // Several slots, so gammas accumulate through the nonlinearity.
            for slot in 0..5u64 {
                for s in scanning.iter_mut().chain(planned.iter_mut()) {
                    s.set_tcp_receiver(Some(s.node()) == tcp_node);
                    for l in s.egress.clone() {
                        s.set_demand(l, demand(slot, l));
                    }
                }
                for lk in net.links().iter().filter(|lk| demand(slot, lk.id).to_bits() != 0) {
                    priced.extend(&plan.listeners[plan.entry_of[lk.id.index()] as usize]);
                    let same_owner = |l: &&LinkId| net.link(**l).from == lk.from;
                    priced.extend(imap.domain(lk.id).iter().filter(same_owner));
                }
                speakers.extend(priced.iter().map(|&l| net.link(l).from));
                let priced_now: Vec<LinkId> = priced.iter().copied().collect();
                let speakers_now: Vec<NodeId> = speakers.iter().copied().collect();

                let mut bcast = Vec::new();
                for s in &scanning {
                    s.make_broadcasts_into(&net, &mut bcast);
                }
                let mut viol_scan = 0;
                for s in scanning.iter_mut() {
                    viol_scan += s.update_gammas_with_tcp_margin(&bcast, 0.02, 0.05, 0.3);
                }
                let (viol_plan, _) = plan.update_gammas_with_tcp_margin(
                    &mut planned,
                    &speakers_now,
                    &priced_now,
                    0.02,
                    0.05,
                    0.3,
                );
                assert_eq!(viol_scan, viol_plan, "{case}, slot {slot}: violation counts");
                let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                for (a, b) in scanning.iter().zip(&planned) {
                    assert_eq!(bits(&a.gamma), bits(&b.gamma), "{case}, slot {slot}: {:?}", a.node);
                }
                // The vector the plan carries into the coming slot is the
                // one the states would broadcast now, and prices every hop
                // like the scanning original does from it.
                bcast.clear();
                for s in &scanning {
                    s.make_broadcasts_into(&net, &mut bcast);
                }
                assert_eq!(plan.broadcasts.len(), bcast.len());
                for (a, b) in plan.broadcasts.iter().zip(&bcast) {
                    assert_eq!(
                        (a.from, a.medium, a.tcp_receiver),
                        (b.from, b.medium, b.tcp_receiver)
                    );
                    assert_eq!(a.airtime_demand.to_bits(), b.airtime_demand.to_bits(), "{case}");
                    assert_eq!(a.gamma_sum.to_bits(), b.gamma_sum.to_bits(), "{case}");
                }
                for lk in net.links() {
                    let owner = lk.from.index();
                    let direct = scanning[owner].price_contribution(&net, &bcast, lk.id);
                    let fast = plan.price_contribution(&net, &planned, owner, lk.id);
                    assert!(
                        direct.to_bits() == fast.to_bits(),
                        "{case}, slot {slot}, {:?}: {direct} vs {fast}",
                        lk.id
                    );
                }
            }
            match case {
                "every link loaded" => assert_eq!(priced.len(), net.link_count()),
                "no demand at all" | "no demand, one TCP receiver" => assert!(priced.is_empty()),
                _ => assert!(priced.len() < net.link_count(), "{case}: {} priced", priced.len()),
            }
        }
    }

    #[test]
    fn accumulator_sums_hops() {
        let mut acc = RoutePriceAccumulator::new();
        acc.add_hop(0.1);
        acc.add_hop(0.25);
        assert!((acc.total() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn gamma_stays_zero_below_capacity() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut state = LinkPriceState::new(&s.net, &imap, s.gateway);
        state.set_demand(s.wifi_ab, 0.2);
        let bs = state.make_broadcasts(&s.net);
        state.update_gammas(&bs, 0.02, 0.0);
        assert_eq!(state.gamma(s.wifi_ab), 0.0);
    }

    #[test]
    fn gamma_rises_under_overload() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut state = LinkPriceState::new(&s.net, &imap, s.gateway);
        state.set_demand(s.wifi_ab, 1.5); // 150 % airtime demand
        let bs = state.make_broadcasts(&s.net);
        state.update_gammas(&bs, 0.02, 0.0);
        assert!((state.gamma(s.wifi_ab) - 0.02 * 0.5).abs() < 1e-12);
    }
}
