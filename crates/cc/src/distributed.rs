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
    /// from irrelevant nodes are ignored via the overhearing sets). The
    /// margin is `delta_tcp` instead of `delta` on every egress link whose
    /// contention domain contains a TCP receiver (this node or an overheard
    /// broadcaster) — the §6.4 coexistence rule ("only the nodes in the
    /// contention domain of a TCP flow should use this value of δ").
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

    #[expect(
        clippy::expect_used,
        reason = "internal helper; the egress set is fixed at construction and every caller \
                  passes a member of it"
    )]
    fn index_of(&self, link: LinkId) -> usize {
        // A network lists a node's egress links in the order they were
        // added, which is ascending; the scan is for one that does not.
        let found = match self.egress.binary_search(&link) {
            Ok(i) => Some(i),
            Err(_) => self.egress.iter().position(|&e| e == link),
        };
        found.expect("link is an egress of this node")
    }
}

/// The network-wide broadcast channel of one run: every node's price
/// state, the concatenated broadcast vector, the index plan over it, and
/// one control slot of Eqs. (7)+(8) that costs what changed.
///
/// The *layout* of the vector produced by calling
/// [`LinkPriceState::make_broadcasts_into`] for a fixed slice of states in a
/// fixed order never changes during a run: it depends only on each node's
/// egress set and the links' media, neither of which topology dynamics
/// touch (dead links keep their slot with zero demand). So the plan keeps
/// one persistent vector and rewrites entries in place, and it knows, per
/// egress link, the ascending entries the link overhears (for the per-hop
/// price of Eq. (9)) and, per entry, the ascending links that overhear it
/// (for the per-slot update).
///
/// The plan owns the states, and every write of a demand, a γ or a TCP flag
/// goes through it. A write that changes bits marks the entry it feeds
/// (all of a node's entries, for its flag), and a refresh rewrites the
/// marked entries alone, so after each refresh the vector is what
/// [`LinkPriceState::make_broadcasts_into`] over every state would give.
/// From the same writes it keeps what a slot visits: the live entries
/// (nonzero demand or a TCP flag), the links of nonzero demand, and the
/// links whose γ the last slot left nonzero.
///
/// Every floating-point sum receives its terms in ascending
/// broadcast-vector order, exactly like the scanning originals on
/// [`LinkPriceState`], so the planned variants are **bit-identical** to
/// them (asserted in this module's tests).
#[derive(Debug, Clone)]
pub struct BroadcastPlan {
    /// One price state per node, in node order.
    states: Vec<LinkPriceState>,
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
    /// Per entry `e`, `members[member_start[e]..member_start[e + 1]]`: the
    /// egress positions of the links it aggregates, in egress order.
    members: Vec<u32>,
    member_start: Vec<u32>,
    /// The broadcast vector as of the last refresh.
    broadcasts: Vec<PriceBroadcast>,
    /// The entries a write changed since the last refresh, each once.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    /// The entries of the vector whose demand bits are not `+0.0` or whose
    /// TCP flag is set, ascending: what a slot scatters.
    live: Vec<u32>,
    /// The links whose demand bits are not `+0.0`, ascending.
    loaded: Vec<LinkId>,
    /// The nodes whose TCP flag is set, ascending, and a spare list for
    /// [`BroadcastPlan::set_tcp_receivers`] to build the next one in.
    receivers: Vec<NodeId>,
    next_receivers: Vec<NodeId>,
    /// How many links have a γ whose bits are not `+0.0`.
    gammas_set: usize,
    /// The links the last slot left with a γ that is not `+0.0` (a reset
    /// since may have zeroed some): the next slot prices them.
    carried: Vec<LinkId>,
    /// The links the last slot priced (scratch of
    /// [`BroadcastPlan::update_gammas_with_tcp_margin`]).
    priced: Vec<LinkId>,
    /// Per [`LinkId`] index: the epoch of the last per-hop price read and
    /// the `Σ γ` it computed.
    price_memo: Vec<(u64, f64)>,
    /// Moves whenever an input of a per-hop price may have changed: at
    /// every slot and at every reset γ.
    epoch: u64,
    /// Per [`LinkId`] index: what the link heard in the slot it was last
    /// heard in.
    heard: Vec<Heard>,
}

/// The two halves of Eq. (7)'s `y_l` and the §6.4 flag, as one link
/// accumulates them during a slot, stamped with the slot.
#[derive(Debug, Clone, Copy, Default)]
struct Heard {
    /// `Σ airtime_demand` over the overheard broadcasts.
    external: f64,
    /// `Σ d_j x_j` over the owner's own egress links inside `I_l`.
    internal: f64,
    /// An overheard broadcaster receives TCP.
    tcp: bool,
    /// The epoch of the slot these sums belong to.
    heard_at: u64,
    /// The epoch of the last slot that priced the link.
    priced_at: u64,
}

impl Heard {
    /// The sums of slot `slot`, started afresh if they are of an older one.
    fn at(&mut self, slot: u64) -> &mut Heard {
        if self.heard_at != slot {
            *self = Heard { heard_at: slot, priced_at: self.priced_at, ..Heard::default() };
        }
        self
    }

    /// Adds `l` to `priced` the first time slot `slot` prices it.
    fn price(&mut self, slot: u64, l: LinkId, priced: &mut Vec<LinkId>) {
        if self.priced_at != slot {
            self.priced_at = slot;
            priced.push(l);
        }
    }
}

/// Whether a broadcast is one a slot scatters: nonzero demand or a flag.
fn is_live(b: &PriceBroadcast) -> bool {
    b.airtime_demand.to_bits() != 0 || b.tcp_receiver
}

/// Removes `id` from the ascending `list` if it is a member, else inserts it.
fn toggle<T: Ord>(list: &mut Vec<T>, id: T) {
    match list.binary_search(&id) {
        Ok(at) => drop(list.remove(at)),
        Err(at) => list.insert(at, id),
    }
}

impl BroadcastPlan {
    /// Builds the plan over `states`, one per node in node order; the
    /// vector starts as what they broadcast now.
    ///
    /// # Panics
    /// Panics if `states[i]` does not belong to node `i`.
    pub fn new(net: &Network, states: Vec<LinkPriceState>) -> Self {
        assert!(
            states.iter().enumerate().all(|(i, s)| s.node.index() == i),
            "price states must be indexed by node"
        );
        // The vector make_broadcasts_into generates: per state, one entry
        // per distinct egress medium, in first-seen order.
        let mut broadcasts = Vec::new();
        let mut entry_start = Vec::with_capacity(states.len() + 1);
        for s in &states {
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
        let (mut loaded, mut carried) = (Vec::new(), Vec::new());
        // Links in ascending id order, so every listener list ascends.
        for lk in net.links() {
            let s = &states[lk.from.index()];
            let pos = s.index_of(lk.id);
            egress_pos[lk.id.index()] = pos as u32;
            if s.demand[pos].to_bits() != 0 {
                loaded.push(lk.id);
            }
            if s.gamma[pos].to_bits() != 0 {
                carried.push(lk.id);
            }
            #[expect(
                clippy::expect_used,
                reason = "the entry was appended two loops up for exactly this (owner, medium)"
            )]
            let own = entry_index(lk.from, lk.medium).expect("own entry");
            entry_of[lk.id.index()] = own as u32;
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
        // Entries ascend with their states, so sorting each state's
        // (entry, egress position) pairs lays the members out entry by
        // entry, each in egress order.
        let mut members = Vec::with_capacity(net.link_count());
        let mut member_start = Vec::with_capacity(broadcasts.len() + 1);
        for s in &states {
            let mut own: Vec<(u32, u32)> =
                s.egress.iter().enumerate().map(|(i, l)| (entry_of[l.index()], i as u32)).collect();
            own.sort_unstable();
            for (k, &(e, i)) in own.iter().enumerate() {
                if k == 0 || own[k - 1].0 != e {
                    member_start.push(members.len() as u32);
                }
                members.push(i);
            }
        }
        member_start.push(members.len() as u32);
        let entries = broadcasts.len();
        let live = (0..entries as u32).filter(|&e| is_live(&broadcasts[e as usize])).collect();
        let receivers = states.iter().filter(|s| s.tcp_receiver).map(|s| s.node).collect();
        BroadcastPlan {
            loaded,
            gammas_set: carried.len(),
            carried,
            live,
            receivers,
            next_receivers: Vec::new(),
            priced: Vec::new(),
            states,
            indices,
            listeners,
            egress_pos,
            entry_of,
            entry_start,
            members,
            member_start,
            broadcasts,
            dirty: Vec::new(),
            is_dirty: vec![false; entries],
            price_memo: vec![(u64::MAX, 0.0); net.link_count()],
            epoch: 0,
            heard: vec![Heard::default(); net.link_count()],
        }
    }

    /// The γ of `link`.
    pub fn gamma(&self, link: LinkId) -> f64 {
        self.states[self.owner_of(link)].gamma[self.egress_pos[link.index()] as usize]
    }

    /// The airtime demand last written for `link`.
    pub fn demand(&self, link: LinkId) -> f64 {
        self.states[self.owner_of(link)].demand[self.egress_pos[link.index()] as usize]
    }

    /// [`LinkPriceState::set_demand`] on the owner of `link`.
    pub fn set_demand(&mut self, link: LinkId, airtime_demand: f64) {
        let (owner, i) = (self.owner_of(link), self.egress_pos[link.index()] as usize);
        let demand = &mut self.states[owner].demand[i];
        if demand.to_bits() != airtime_demand.to_bits() {
            let was_loaded = demand.to_bits() != 0;
            *demand = airtime_demand;
            if was_loaded != (airtime_demand.to_bits() != 0) {
                toggle(&mut self.loaded, link);
            }
            self.mark(self.entry_of[link.index()]);
        }
    }

    /// [`LinkPriceState::set_tcp_receiver`] on every node: set on
    /// `receivers`, cleared on every other. Only a flag that flips marks
    /// its node's entries.
    pub fn set_tcp_receivers(&mut self, receivers: impl IntoIterator<Item = NodeId>) {
        let mut next = std::mem::take(&mut self.next_receivers);
        next.clear();
        next.extend(receivers);
        next.sort_unstable();
        next.dedup();
        let last = std::mem::replace(&mut self.receivers, next);
        for &n in &last {
            if self.receivers.binary_search(&n).is_err() {
                self.set_tcp_receiver(n, false);
            }
        }
        for i in 0..self.receivers.len() {
            self.set_tcp_receiver(self.receivers[i], true);
        }
        self.next_receivers = last;
    }

    /// Sets `node`'s flag, marking its entries if it flips.
    fn set_tcp_receiver(&mut self, node: NodeId, receiving: bool) {
        let state = &mut self.states[node.index()];
        if state.tcp_receiver != receiving {
            state.tcp_receiver = receiving;
            for e in self.entry_start[node.index()]..self.entry_start[node.index() + 1] {
                self.mark(e);
            }
        }
    }

    /// [`LinkPriceState::reset_gamma`] on the owner of `link`. The owner's
    /// per-hop prices read its own γ at once, and overhearing nodes read it
    /// from the next slot's broadcasts.
    pub fn reset_gamma(&mut self, link: LinkId) {
        let (owner, i) = (self.owner_of(link), self.egress_pos[link.index()] as usize);
        let gamma = &mut self.states[owner].gamma[i];
        if gamma.to_bits() != 0 {
            *gamma = 0.0;
            self.gammas_set -= 1;
            self.epoch += 1;
            self.mark(self.entry_of[link.index()]);
        }
    }

    /// Whether Eqs. (7)–(8) this slot would leave every γ at `+0.0` and
    /// count no violation, given `airtime_total`, a float sum in any order
    /// of `|d_l|` over every link whose demand is not `+0.0`: no γ is set,
    /// and `airtime_total · (1 + 10⁻⁹) ≤ 1 − max(δ, δ_tcp)`.
    ///
    /// Then every `y_l ≤ 1 − δ_l`, whichever margin δ_l a TCP flag gives
    /// the link. `y_l` sums a subset of the same demands, and the rounding
    /// of either sum moves it by at most `n·u` of the exact `Σ |d_l|` (`n`
    /// links, `u = 2⁻⁵³`), far below 10⁻⁹ for any network that fits in
    /// memory. So `γ + α(y_l − (1 − δ_l))` is at most `+0.0` for `α ≥ 0`,
    /// Eq. (8) clamps it to `+0.0`, and no margin is violated (DESIGN.md
    /// "Planned control-plane updates").
    pub fn prices_rest(&self, airtime_total: f64, delta: f64, delta_tcp: f64) -> bool {
        self.gammas_set == 0 && airtime_total * (1.0 + 1e-9) <= 1.0 - delta.max(delta_tcp)
    }

    /// Whether Eq. (8) maps a link that hears nothing (`y_l = +0.0`) and
    /// whose γ is `+0.0` onto itself under either margin, with no
    /// violation. It evaluates the slot's own expressions, so it is exact:
    /// it fails when `max(δ, δ_tcp) > 1`, and for a margin or `α` as odd as
    /// NaN. When it fails, a slot prices every link.
    pub fn idle_prices_rest(alpha: f64, delta: f64, delta_tcp: f64) -> bool {
        let rests = |d: f64| {
            let gamma = (0.0 + alpha * (0.0 - (1.0 - d))).max(0.0);
            gamma.to_bits() == 0 && 1.0 - d >= 0.0
        };
        rests(delta) && rests(delta_tcp)
    }

    /// One control slot for the whole network: the vector is refreshed with
    /// the slot's demands and flags; unless [`Self::prices_rest`] holds,
    /// every priced link combines what it overhears with its owner's
    /// measurements into `y_l` (Eq. (7)) and updates `γ_l` (Eq. (8), with
    /// `delta_tcp` in place of `delta` wherever the link's owner or an
    /// overheard broadcaster receives TCP, §6.4), and the vector is
    /// refreshed again so it carries the updated γ sums into the coming
    /// slot. `airtime_total` is as [`Self::prices_rest`] takes it. Returns
    /// the airtime-margin violations (`y_l > 1 − δ`) and how many elements
    /// the slot visited (links priced, overhearing entries, egress links
    /// behind rewritten broadcasts).
    ///
    /// A slot prices the links its scatter reaches from live entries of
    /// nonzero demand and from each link of nonzero demand, and the links
    /// the slot before left with a nonzero γ; every link when
    /// [`Self::idle_prices_rest`] fails. Any other link has `y_l = +0.0`
    /// and γ at `+0.0`, which Eq. (8) keeps, with no violation. A flag
    /// alone, on an entry of zero demand, reaches its listeners' margins
    /// but prices none of them.
    ///
    /// This equals calling [`LinkPriceState::update_gammas_with_tcp_margin`]
    /// on every state bit for bit. Eq. (7) is computed by scatter where the
    /// scanning original gathers. Each live entry, in ascending entry
    /// order, is added to the links that overhear it, and each link of
    /// nonzero demand, in ascending link order, to the links of its owner
    /// in its domain (domains are symmetric, so the link's own `I_l` names
    /// them). A link therefore receives exactly the terms its gather would
    /// have summed, in the same order, minus terms that are `+0.0`; and
    /// `x + 0.0 == x` bit for bit for every `x` a sum started at `+0.0` can
    /// reach (it is never `-0.0`).
    pub fn update_gammas_with_tcp_margin(
        &mut self,
        airtime_total: f64,
        alpha: f64,
        delta: f64,
        delta_tcp: f64,
    ) -> (usize, u64) {
        self.epoch += 1;
        let mut visits = self.refresh();
        if self.prices_rest(airtime_total, delta, delta_tcp) {
            return (0, visits);
        }
        let slot = self.epoch;
        let mut priced = std::mem::take(&mut self.priced);
        priced.clear();
        for &l in &self.loaded {
            let s = &self.states[self.owner_of(l)];
            let i = self.egress_pos[l.index()] as usize;
            let own = &s.overheard[i].1;
            for &j in own {
                let to = s.egress[j];
                let h = self.heard[to.index()].at(slot);
                h.internal += s.demand[i];
                h.price(slot, to, &mut priced);
            }
            visits += own.len() as u64;
        }
        for &e in &self.live {
            let b = self.broadcasts[e as usize];
            let loud = b.airtime_demand.to_bits() != 0;
            for &l in &self.listeners[e as usize] {
                let h = self.heard[l.index()].at(slot);
                h.external += b.airtime_demand;
                h.tcp |= b.tcp_receiver;
                if loud {
                    h.price(slot, l, &mut priced);
                }
            }
            visits += self.listeners[e as usize].len() as u64;
        }
        if Self::idle_prices_rest(alpha, delta, delta_tcp) {
            for &l in &self.carried {
                self.heard[l.index()].price(slot, l, &mut priced);
            }
        } else {
            priced.clear();
            priced.extend((0..self.heard.len() as u32).map(LinkId));
        }
        visits += priced.len() as u64;
        self.carried.clear();
        let mut violations = 0;
        for &l in &priced {
            let (owner, i) = (self.owner_of(l), self.egress_pos[l.index()] as usize);
            let h = self.heard[l.index()];
            let h = if h.heard_at == slot { h } else { Heard::default() };
            let yl = h.external + h.internal;
            let d = if self.states[owner].tcp_receiver || h.tcp { delta_tcp } else { delta };
            let old = self.states[owner].gamma[i];
            let new = (old + alpha * (yl - (1.0 - d))).max(0.0);
            if new.to_bits() != old.to_bits() {
                self.states[owner].gamma[i] = new;
                if old.to_bits() == 0 {
                    self.gammas_set += 1;
                } else if new.to_bits() == 0 {
                    self.gammas_set -= 1;
                }
                self.mark(self.entry_of[l.index()]);
            }
            if new.to_bits() != 0 {
                self.carried.push(l);
            }
            if yl > 1.0 - d {
                violations += 1;
            }
        }
        self.priced = priced;
        visits += self.refresh();
        (violations, visits)
    }

    /// Index of the state (= node) that owns `link`.
    fn owner_of(&self, link: LinkId) -> usize {
        self.broadcasts[self.entry_of[link.index()] as usize].from.index()
    }

    /// Queues entry `e` for the next refresh.
    fn mark(&mut self, e: u32) {
        if !self.is_dirty[e as usize] {
            self.is_dirty[e as usize] = true;
            self.dirty.push(e);
        }
    }

    /// Rewrites the marked entries from their states, with the arithmetic
    /// of [`LinkPriceState::make_broadcasts_into`]: over the entry's links
    /// in egress order, the first assigns and later ones add; an entry that
    /// turns live or quiet joins or leaves the live list. Returns the
    /// egress links visited.
    fn refresh(&mut self) -> u64 {
        let mut visits = 0;
        for &e in &self.dirty {
            let e = e as usize;
            self.is_dirty[e] = false;
            let members =
                &self.members[self.member_start[e] as usize..self.member_start[e + 1] as usize];
            let b = &mut self.broadcasts[e];
            let s = &self.states[b.from.index()];
            let Some((&first, rest)) = members.split_first() else { continue };
            let was_live = is_live(b);
            b.airtime_demand = s.demand[first as usize];
            b.gamma_sum = s.gamma[first as usize];
            b.tcp_receiver = s.tcp_receiver;
            for &i in rest {
                b.airtime_demand += s.demand[i as usize];
                b.gamma_sum += s.gamma[i as usize];
            }
            if was_live != is_live(b) {
                toggle(&mut self.live, e as u32);
            }
            visits += members.len() as u64;
        }
        self.dirty.clear();
        visits
    }

    /// Planned equivalent of [`LinkPriceState::price_contribution`] for
    /// `link`, over the broadcasts of the last slot (construction values
    /// before the first). The `Σ γ` it multiplies by the link's cost is
    /// computed on the first read of a slot and kept until the slot ends or
    /// a γ is reset; the cost is read every time, since a capacity may
    /// change within a slot.
    pub fn price_contribution(&mut self, net: &Network, link: LinkId) -> f64 {
        let l = link.index();
        let (at, kept) = self.price_memo[l];
        let gammas = if at == self.epoch {
            kept
        } else {
            let owner = self.owner_of(link);
            let s = &self.states[owner];
            let i = self.egress_pos[l] as usize;
            let external: f64 = self.indices[owner][i]
                .iter()
                .map(|&bi| self.broadcasts[bi as usize].gamma_sum)
                .sum();
            let internal: f64 = s.overheard[i].1.iter().map(|&j| s.gamma[j]).sum();
            let gammas = external + internal;
            self.price_memo[l] = (self.epoch, gammas);
            gammas
        };
        net.link(link).cost() * gammas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CcConfig, MultipathController};
    use crate::problem::CcProblem;
    use crate::utility::ProportionalFair;
    use empower_model::rng::{Rng, SeedableRng, StdRng};
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, Path, SharedMedium};
    use std::collections::BTreeSet;

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
            s.update_gammas_with_tcp_margin(&broadcasts, alpha, 0.0, 0.0);
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
                let mut q = 0.0;
                for &l in path.links() {
                    let owner = net.link(l).from;
                    let state = states.iter().find(|s| s.node() == owner).unwrap();
                    q += state.price_contribution(net, &broadcasts, l);
                }
                q
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

    const ALPHA: f64 = 0.02;
    const DELTA: f64 = 0.05;
    const DELTA_TCP: f64 = 0.3;

    /// The vector [`LinkPriceState::make_broadcasts_into`] gives over every
    /// state.
    fn gather(net: &Network, states: &[LinkPriceState]) -> Vec<PriceBroadcast> {
        let mut out = Vec::new();
        for s in states {
            s.make_broadcasts_into(net, &mut out);
        }
        out
    }

    fn assert_same_vector(a: &[PriceBroadcast], b: &[PriceBroadcast], at: &str) {
        assert_eq!(a.len(), b.len(), "{at}");
        for (a, b) in a.iter().zip(b) {
            assert_eq!(
                (a.from, a.medium, a.tcp_receiver),
                (b.from, b.medium, b.tcp_receiver),
                "{at}"
            );
            assert_eq!(
                a.airtime_demand.to_bits(),
                b.airtime_demand.to_bits(),
                "{at}: {:?}",
                a.from
            );
            assert_eq!(a.gamma_sum.to_bits(), b.gamma_sum.to_bits(), "{at}: {:?}", a.from);
        }
    }

    fn gamma_bits(states: &[LinkPriceState]) -> Vec<u64> {
        states.iter().flat_map(|s| s.gamma.iter().map(|g| g.to_bits())).collect()
    }

    /// `Σ |d_l|` over every link, as [`BroadcastPlan::prices_rest`] takes it.
    fn airtime_total(states: &[LinkPriceState]) -> f64 {
        states.iter().flat_map(|s| &s.demand).map(|d| d.abs()).sum()
    }

    /// The least lists a planned slot must visit, read off the plan's
    /// states without its indices of what is live: the links whose `y_l`
    /// or γ can be nonzero, and the entries the coming refresh leaves with
    /// nonzero demand or a TCP flag.
    fn least_lists(
        net: &Network,
        imap: &InterferenceMap,
        plan: &BroadcastPlan,
    ) -> (Vec<LinkId>, Vec<u32>) {
        let mut priced = BTreeSet::new();
        for lk in net.links() {
            let (s, i) = (&plan.states[lk.from.index()], plan.egress_pos[lk.id.index()] as usize);
            if s.demand[i].to_bits() != 0 {
                priced.extend(&plan.listeners[plan.entry_of[lk.id.index()] as usize]);
                priced.extend(imap.domain(lk.id).iter().filter(|l| net.link(**l).from == lk.from));
            }
            if s.gamma[i].to_bits() != 0 {
                priced.insert(lk.id);
            }
        }
        let live = gather(net, &plan.states).into_iter().enumerate().filter(|(_, b)| is_live(b));
        (priced.into_iter().collect(), live.map(|(e, _)| e as u32).collect())
    }

    /// One slot on both twins: the scanning update of every state over a
    /// full gather, and the planned one. Asserts equal violation counts and
    /// γ bits, that the plan scattered the live entries and priced a
    /// superset of the least lists (each link once), that the plan's
    /// vector is the full gather of the states after the slot, and that
    /// every per-hop price agrees. Returns whether the plan skipped
    /// Eqs. (7)–(8), the least priced links, and the gather the prices
    /// read.
    fn slot_on_both(
        net: &Network,
        imap: &InterferenceMap,
        scanning: &mut [LinkPriceState],
        plan: &mut BroadcastPlan,
        at: &str,
    ) -> (bool, Vec<LinkId>, Vec<PriceBroadcast>) {
        let (least, live) = least_lists(net, imap, plan);
        let total = airtime_total(&plan.states);
        let skipped = plan.prices_rest(total, DELTA, DELTA_TCP);
        let bcast = gather(net, scanning);
        let mut viol_scan = 0;
        for s in scanning.iter_mut() {
            viol_scan += s.update_gammas_with_tcp_margin(&bcast, ALPHA, DELTA, DELTA_TCP);
        }
        let (viol_plan, _) = plan.update_gammas_with_tcp_margin(total, ALPHA, DELTA, DELTA_TCP);
        assert_eq!(viol_scan, viol_plan, "{at}: violation counts");
        assert_eq!(plan.live, live, "{at}: live entries");
        let loaded = net.links().iter().map(|lk| lk.id).filter(|&l| plan.demand(l).to_bits() != 0);
        assert_eq!(plan.loaded, loaded.collect::<Vec<_>>(), "{at}: loaded links");
        if !skipped {
            let priced: BTreeSet<LinkId> = plan.priced.iter().copied().collect();
            assert_eq!(priced.len(), plan.priced.len(), "{at}: a link priced twice");
            let missed: Vec<&LinkId> = least.iter().filter(|l| !priced.contains(l)).collect();
            assert!(missed.is_empty(), "{at}: the plan left {missed:?} unpriced");
        }
        assert_eq!(gamma_bits(scanning), gamma_bits(&plan.states), "{at}: γ bits");
        let bcast = gather(net, scanning);
        assert_same_vector(&plan.broadcasts, &bcast, at);
        for lk in net.links() {
            let direct = scanning[lk.from.index()].price_contribution(net, &bcast, lk.id);
            let fast = plan.price_contribution(net, lk.id);
            assert!(direct.to_bits() == fast.to_bits(), "{at}, {:?}: {direct} vs {fast}", lk.id);
        }
        (skipped, least, bcast)
    }

    /// The 22-node testbed with carrier sensing cut to the connection
    /// radius: large, irregular overhearing sets, and nodes whose egress
    /// links on one medium do not share one domain, so a link overhears
    /// broadcasts none of whose demand is inside its own `I_l`.
    fn partial_testbed() -> (Network, InterferenceMap, Vec<LinkPriceState>) {
        use empower_model::topology::testbed22;
        use empower_model::CarrierSense;
        let net = testbed22(3).net;
        let imap = CarrierSense { wifi_sense_range_m: 35.0 }.build_map(&net);
        let fresh = net.nodes().iter().map(|n| LinkPriceState::new(&net, &imap, n.id)).collect();
        (net, imap, fresh)
    }

    #[test]
    fn planned_slot_updates_are_bit_identical_to_scanning() {
        let (net, imap, fresh) = partial_testbed();
        let (a, b, c) = (LinkId(7), LinkId(300), LinkId(net.link_count() as u32 - 1));
        let plan = BroadcastPlan::new(&net, fresh.clone());
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
            // A node overhears only other nodes, so the one loaded link is
            // priced by its owner's own demand alone.
            ("one link overloaded", Box::new(move |_, l| if l == c { 1.4 } else { 0.0 }), None),
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
            let mut plan = BroadcastPlan::new(&net, fresh.clone());
            let mut priced = BTreeSet::new();
            // Several slots, so gammas accumulate through the nonlinearity.
            for slot in 0..5u64 {
                plan.set_tcp_receivers(tcp_node);
                for s in scanning.iter_mut() {
                    s.set_tcp_receiver(Some(s.node()) == tcp_node);
                    for l in s.egress.clone() {
                        s.set_demand(l, demand(slot, l));
                        plan.set_demand(l, demand(slot, l));
                    }
                }
                let at = format!("{case}, slot {slot}");
                let (skipped, priced_now, _) =
                    slot_on_both(&net, &imap, &mut scanning, &mut plan, &at);
                let rests =
                    ["no demand at all", "subnormal demands", "no demand, one TCP receiver"];
                assert_eq!(skipped, rests.contains(&case), "{at}");
                priced.extend(priced_now);
            }
            match case {
                "every link loaded" => assert_eq!(priced.len(), net.link_count()),
                "no demand at all" | "no demand, one TCP receiver" => assert!(priced.is_empty()),
                _ => assert!(priced.len() < net.link_count(), "{case}: {} priced", priced.len()),
            }
        }
        random_write_sequences();
    }

    /// Random sequences of demand, TCP-flag and γ-reset writes: loaded
    /// slots in which flags come and go, then quiet ones in which the
    /// demands fall to subnormals and to zero, links stop measuring and
    /// flags clear, so entries leave the live list and rejoin it, and slots
    /// that cannot move a price are skipped. After every slot the plan
    /// matches the scanning twin (`slot_on_both`). After every reset, the
    /// reset link's owner prices its hops like the twin does, and the reset
    /// marked its entry exactly when it moved the γ; after a slot's resets
    /// a refresh writes the full gather.
    fn random_write_sequences() {
        let (net, imap, fresh) = partial_testbed();
        let flagged: Vec<NodeId> = (0..4).map(NodeId).collect();
        // One link stays loaded, lightly, through the first quiet slots;
        // in the last ones a TCP flag is all that is left.
        let quiet_link = LinkId(7);
        let (mut skips, mut full_slots, mut moved, mut unmoved) = (0, 0, 0, 0);
        let mut rejoined = 0;
        for seed in 1..=2 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scanning = fresh.clone();
            let mut plan = BroadcastPlan::new(&net, fresh.clone());
            let mut left: BTreeSet<u32> = BTreeSet::new();
            let mut live_before: Vec<u32> = Vec::new();
            for slot in 0..20 {
                let quiet = slot % 10 >= 4;
                for lk in net.links() {
                    let before = plan.states[lk.from.index()].demand
                        [plan.egress_pos[lk.id.index()] as usize];
                    let subnormal = f64::from_bits(rng.gen_range(1..1u64 << 52));
                    let d = match rng.gen_range(0..100u32) {
                        // Quiet slots: every link but one falls silent
                        // through a subnormal.
                        _ if quiet && slot % 10 < 7 && lk.id == quiet_link => {
                            rng.gen_range(0.0..1e-4)
                        }
                        _ if quiet => {
                            if before.abs() < f64::MIN_POSITIVE {
                                0.0
                            } else {
                                subnormal
                            }
                        }
                        0..=1 => rng.gen_range(0.0..0.3),
                        2 => subnormal,
                        3 => {
                            rng.gen_range(1.0..2.0) * f64::from_bits(rng.gen_range(1..964u64) << 52)
                        }
                        4..=11 => 0.0,
                        _ if before.abs() < f64::MIN_POSITIVE => 0.0,
                        _ if rng.gen_bool(0.5) => before * 0.75,
                        _ => before,
                    };
                    scanning[lk.from.index()].set_demand(lk.id, d);
                    plan.set_demand(lk.id, d);
                }
                let mut receivers = Vec::new();
                for &n in &flagged {
                    let flag = match quiet {
                        false if rng.gen_bool(0.2) => !plan.states[n.index()].tcp_receiver,
                        false => plan.states[n.index()].tcp_receiver,
                        true => slot % 10 >= 8 && n == flagged[slot / 10],
                    };
                    scanning[n.index()].set_tcp_receiver(flag);
                    if flag {
                        receivers.push(n);
                    }
                }
                plan.set_tcp_receivers(receivers);
                let at = format!("seed {seed}, slot {slot}");
                let (skipped, _, bcast) = slot_on_both(&net, &imap, &mut scanning, &mut plan, &at);
                if skipped {
                    skips += 1;
                } else {
                    full_slots += 1;
                }
                left.extend(live_before.iter().filter(|e| plan.live.binary_search(e).is_err()));
                rejoined += plan.live.iter().filter(|e| left.contains(*e)).count();
                live_before = plan.live.clone();
                // Resets: a few links at random, most with γ at +0.0, half
                // the links with a γ in every other slot, and every one
                // once the slots are quiet, so that prices can rest.
                let mut resets: Vec<LinkId> =
                    (0..3).map(|_| LinkId(rng.gen_range(0..net.link_count() as u32))).collect();
                if slot % 2 == 1 || slot % 10 == 5 {
                    let share = if slot % 10 == 5 { 1.0 } else { 0.5 };
                    resets.extend(
                        net.links()
                            .iter()
                            .map(|lk| lk.id)
                            .filter(|&l| plan.gamma(l).to_bits() != 0 && rng.gen_bool(share)),
                    );
                }
                for l in resets {
                    let owner = net.link(l).from;
                    let entry = plan.entry_of[l.index()] as usize;
                    let (was_dirty, queued) = (plan.is_dirty[entry], plan.dirty.len());
                    let moves = plan.gamma(l).to_bits() != 0;
                    scanning[owner.index()].reset_gamma(l);
                    plan.reset_gamma(l);
                    let at = format!("{at}, reset {l:?}");
                    if moves {
                        moved += 1;
                        assert!(plan.is_dirty[entry], "{at}: a moved γ marks its entry");
                    } else {
                        unmoved += 1;
                        assert_eq!(plan.is_dirty[entry], was_dirty, "{at}");
                        assert_eq!(plan.dirty.len(), queued, "{at}: an unmoved γ marks nothing");
                    }
                    assert_same_vector(&plan.broadcasts, &bcast, &at);
                    for &e in &scanning[owner.index()].egress {
                        let direct = scanning[owner.index()].price_contribution(&net, &bcast, e);
                        let fast = plan.price_contribution(&net, e);
                        assert!(
                            direct.to_bits() == fast.to_bits(),
                            "{at}, {e:?}: {direct} vs {fast}"
                        );
                    }
                }
                let mut refreshed = plan.clone();
                refreshed.refresh();
                assert_same_vector(&refreshed.broadcasts, &gather(&net, &scanning), &at);
            }
        }
        assert!(skips > 0 && full_slots > 0, "{skips} skipped, {full_slots} full slots");
        assert!(moved > 0 && unmoved > 0, "{moved} resets moved a γ, {unmoved} did not");
        assert!(rejoined > 0, "no entry left the live list and rejoined");
    }

    /// A seeded airtime demand: with probability `p_load` a load up to
    /// `load`, else `+0.0`, a subnormal, or a point on an EWMA's decay tail
    /// (a normal between 2⁻¹⁰²² and 2⁻⁵⁹).
    fn mixed_demand(rng: &mut StdRng, p_load: f64, load: f64) -> f64 {
        if rng.gen_bool(p_load) {
            return rng.gen_range(0.0..load);
        }
        match rng.gen_range(0..3u32) {
            0 => 0.0,
            1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            _ => rng.gen_range(1.0..2.0) * f64::from_bits(rng.gen_range(1..964u64) << 52),
        }
    }

    #[test]
    fn flushing_subnormal_demands_moves_no_gamma_bit() {
        // What the engine's control tick relies on when it flushes an EWMA
        // below f64::MIN_POSITIVE to +0.0: the scanning update on the
        // unflushed demands (the reference engine) and the planned update
        // on the flushed ones, over only the links the flushed demands
        // reach, give the same γ bits and violation counts.
        let (net, _, fresh) = partial_testbed();
        let flush = |d: f64| if d.abs() < f64::MIN_POSITIVE { 0.0 } else { d };
        // (seed, share of loaded links, largest load, TCP receiver).
        let cases = [
            (1, 0.02, 0.6, None),
            (2, 0.02, 0.6, Some(NodeId(4))),
            (3, 0.0, 0.0, None),
            (4, 0.2, 0.3, None),
        ];
        let mut violations_seen = 0;
        for (seed, p_load, load, tcp_node) in cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut kept = fresh.clone();
            let mut plan = BroadcastPlan::new(&net, fresh.clone());
            let mut subnormals = 0;
            for slot in 0..6 {
                let demands: Vec<f64> = (0..net.link_count())
                    .map(|_| if slot < 5 { mixed_demand(&mut rng, p_load, load) } else { 0.0 })
                    .collect();
                subnormals += demands.iter().filter(|d| d.is_subnormal()).count();
                plan.set_tcp_receivers(tcp_node);
                for k in kept.iter_mut() {
                    k.set_tcp_receiver(Some(k.node()) == tcp_node);
                    for l in k.egress.clone() {
                        k.set_demand(l, demands[l.index()]);
                        plan.set_demand(l, flush(demands[l.index()]));
                    }
                }
                let total = airtime_total(&plan.states);

                let bcast = gather(&net, &kept);
                let mut viol_kept = 0;
                for s in kept.iter_mut() {
                    viol_kept += s.update_gammas_with_tcp_margin(&bcast, ALPHA, DELTA, DELTA_TCP);
                }
                let (viol_flushed, _) =
                    plan.update_gammas_with_tcp_margin(total, ALPHA, DELTA, DELTA_TCP);
                let case = format!("seed {seed}, slot {slot}");
                assert_eq!(viol_kept, viol_flushed, "{case}: violation counts");
                violations_seen += viol_kept;
                assert_eq!(gamma_bits(&kept), gamma_bits(&plan.states), "{case}");
            }
            assert!(subnormals > 1000, "seed {seed}: only {subnormals} subnormal demands");
        }
        assert!(violations_seen > 0, "some slot should violate its margin");
    }

    #[test]
    fn the_skip_rule_skips_only_slots_that_move_no_price() {
        // On three networks, demands whose total sits just inside and just
        // outside the rule's threshold, spread over the links of one medium
        // so that some `y_l` comes close to the total, with and without a
        // γ left by an overloaded slot and a TCP flag. Whenever the rule
        // skips, the full update of every state leaves every γ bit where
        // it is and counts no violation.
        use empower_model::topology::{enterprise, residential, testbed22};
        use empower_model::CarrierSense;
        let mut rng = StdRng::seed_from_u64(17);
        let nets = [
            ("testbed22", testbed22(1).net),
            ("enterprise", enterprise(&mut rng).net),
            ("residential", residential(&mut rng).net),
        ];
        // (δ, δ_tcp): a TCP margin above δ, and one at δ, where the rule's
        // threshold is the margin every link applies.
        let margins = [(0.05, 0.3), (0.05, 0.05), (0.0, 0.0)];
        let (mut skipped, mut refused) = (0, 0);
        for (name, net) in nets {
            let imap = CarrierSense::default().build_map(&net);
            let fresh: Vec<LinkPriceState> =
                net.nodes().iter().map(|n| LinkPriceState::new(&net, &imap, n.id)).collect();
            for draw in 0..60 {
                let (delta, delta_tcp) = margins[draw % margins.len()];
                let mut plan = BroadcastPlan::new(&net, fresh.clone());
                let medium = net.links()[rng.gen_range(0..net.link_count())].medium;
                let on_medium: Vec<LinkId> =
                    net.links().iter().filter(|lk| lk.medium == medium).map(|lk| lk.id).collect();
                let set = |plan: &mut BroadcastPlan, rng: &mut StdRng, target: f64| {
                    let mut raw: Vec<(LinkId, f64)> = Vec::new();
                    for &l in &on_medium {
                        if rng.gen_bool(0.3) {
                            raw.push((l, rng.gen_range(0.01..1.0)));
                        }
                    }
                    let sum: f64 = raw.iter().map(|(_, d)| d).sum();
                    for lk in net.links() {
                        plan.set_demand(lk.id, 0.0);
                    }
                    for (l, d) in raw {
                        plan.set_demand(l, d * target / sum);
                    }
                };
                if draw % 4 == 1 {
                    // An overloaded slot leaves some γ above zero.
                    set(&mut plan, &mut rng, 3.0);
                    let (least, _) = least_lists(&net, &imap, &plan);
                    let total = airtime_total(&plan.states);
                    plan.update_gammas_with_tcp_margin(total, ALPHA, delta, delta_tcp);
                    assert!(least.iter().all(|l| plan.priced.contains(l)), "{name}, draw {draw}");
                    assert!(plan.gammas_set > 0, "{name}, draw {draw}: a γ is set");
                }
                if draw % 5 == 3 {
                    plan.set_tcp_receivers([net.link(on_medium[0]).to]);
                }
                // Just inside or just outside, by a few parts in 10⁹ or by
                // the last bits.
                let threshold = 1.0 - delta_tcp.max(delta);
                let nudge = [-4e-9, -2e-9, -1.0000001e-9, -1e-12, 0.0, 1e-12, 1e-9][draw % 7];
                set(&mut plan, &mut rng, threshold * (1.0 + nudge));
                let total = airtime_total(&plan.states);
                if !plan.prices_rest(total, delta, delta_tcp) {
                    refused += 1;
                    continue;
                }
                skipped += 1;
                let mut states = plan.states.clone();
                let before = gamma_bits(&states);
                let bcast = gather(&net, &states);
                let mut violations = 0;
                for s in states.iter_mut() {
                    violations += s.update_gammas_with_tcp_margin(&bcast, ALPHA, delta, delta_tcp);
                }
                let at = format!("{name}, draw {draw}, total {total}");
                assert_eq!(gamma_bits(&states), before, "{at}: a skipped slot moves a γ");
                assert_eq!(violations, 0, "{at}: a skipped slot violates a margin");
            }
        }
        assert!(skipped > 20 && refused > 20, "{skipped} skipped, {refused} refused");
    }

    #[test]
    fn a_tcp_flag_marks_its_entries_only_when_it_flips() {
        let (net, _, fresh) = partial_testbed();
        let mut plan = BroadcastPlan::new(&net, fresh);
        let (a, b) = (NodeId(4), NodeId(9));
        let entries = |n: NodeId| plan.entry_start[n.index()]..plan.entry_start[n.index() + 1];
        let (of_a, of_b) = (entries(a), entries(b));
        let marked = |plan: &mut BroadcastPlan, receivers: &[NodeId]| {
            plan.set_tcp_receivers(receivers.iter().copied());
            let mut dirty = plan.dirty.clone();
            dirty.sort_unstable();
            plan.update_gammas_with_tcp_margin(0.0, ALPHA, DELTA, DELTA_TCP);
            assert!(plan.dirty.is_empty(), "a slot refreshes what it marked");
            dirty
        };
        assert_eq!(marked(&mut plan, &[a]), of_a.clone().collect::<Vec<_>>(), "a is flagged");
        assert!(marked(&mut plan, &[a]).is_empty(), "flagged in two slots in a row");
        assert!(marked(&mut plan, &[a, a]).is_empty(), "named twice");
        let both: Vec<u32> = of_a.clone().chain(of_b.clone()).collect();
        assert_eq!(marked(&mut plan, &[b]), both, "a clears and b is flagged");
        assert_eq!(plan.receivers, vec![b]);
        assert_eq!(plan.live, of_b.clone().collect::<Vec<_>>(), "a flag alone is live");
        assert_eq!(marked(&mut plan, &[]), of_b.collect::<Vec<_>>(), "b clears");
        assert!(plan.live.is_empty() && plan.receivers.is_empty());
    }

    #[test]
    fn gamma_stays_zero_below_capacity() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut state = LinkPriceState::new(&s.net, &imap, s.gateway);
        state.set_demand(s.wifi_ab, 0.2);
        let bs = state.make_broadcasts(&s.net);
        state.update_gammas_with_tcp_margin(&bs, 0.02, 0.0, 0.0);
        assert_eq!(state.gamma(s.wifi_ab), 0.0);
    }

    #[test]
    fn gamma_rises_under_overload() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut state = LinkPriceState::new(&s.net, &imap, s.gateway);
        state.set_demand(s.wifi_ab, 1.5); // 150 % airtime demand
        let bs = state.make_broadcasts(&s.net);
        state.update_gammas_with_tcp_margin(&bs, 0.02, 0.0, 0.0);
        assert!((state.gamma(s.wifi_ab) - 0.02 * 0.5).abs() < 1e-12);
    }
}
