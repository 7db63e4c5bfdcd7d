//! The `update(P, G)` procedure of §3.2.
//!
//! `update(P, G)` produces a view of the multigraph where capacities reflect
//! the resource consumption of sending traffic on `P` at its maximum
//! self-interference-aware rate `R(P)`: every link in `⋃_{l'∈P} I_{l'}` is
//! scaled by its residual idle fraction `r(l, P)`, and at least one link of
//! `P` (the bottleneck) drops to exactly zero — which is what guarantees the
//! exploration tree terminates.

use empower_model::{InterferenceMap, LinkId, Network, Path};

/// A stack of capacity deltas recorded by [`update_multigraph_logged`], so
/// the §3.2 exploration tree can *revert* an `update(P, G)` instead of
/// cloning the multigraph per candidate. Entries are `(link, capacity before
/// the update)`; [`UndoLog::revert`] pops back to a mark in reverse order,
/// restoring the exact pre-update capacities (they were stored verbatim, so
/// restoration is bit-exact).
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    entries: Vec<(LinkId, f64)>,
}

impl UndoLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded deltas.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A position to later [`UndoLog::revert`] to.
    pub fn mark(&self) -> usize {
        self.entries.len()
    }

    /// The deltas recorded since `mark`, oldest first.
    pub fn entries_since(&self, mark: usize) -> &[(LinkId, f64)] {
        &self.entries[mark..]
    }

    /// Drops all entries (start of a fresh search).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Restores every capacity recorded since `mark`, newest first, calling
    /// `on_restore(net, link)` after each restoration (e.g. to refresh a
    /// cached link metric).
    pub fn revert_with(
        &mut self,
        net: &mut Network,
        mark: usize,
        mut on_restore: impl FnMut(&Network, LinkId),
    ) {
        while self.entries.len() > mark {
            let Some((l, cap)) = self.entries.pop() else {
                break;
            };
            net.set_capacity(l, cap);
            on_restore(net, l);
        }
    }

    /// [`UndoLog::revert_with`] without a callback.
    pub fn revert(&mut self, net: &mut Network, mark: usize) {
        self.revert_with(net, mark, |_, _| {});
    }
}

/// Reusable buffers for [`update_multigraph_logged`]: the packed
/// affected-domain union and the staged `(link, new capacity)` writes.
#[derive(Debug, Clone, Default)]
pub struct UpdateScratch {
    affected: Vec<u64>,
    scaled: Vec<(LinkId, f64)>,
}

/// Applies `update(P, G)` in place and returns `R(P)`, the rate assumed sent
/// on the path.
///
/// The interference map is *not* rebuilt: interference is geometric and does
/// not depend on capacities, and zero-capacity links simply become unusable
/// (infinite cost) for subsequent shortest-path computations.
pub fn update_multigraph(net: &mut Network, imap: &InterferenceMap, path: &Path) -> f64 {
    let mut undo = UndoLog::new();
    let mut scratch = UpdateScratch::default();
    update_multigraph_logged(net, imap, path, &mut undo, &mut scratch)
}

/// [`update_multigraph`] recording every capacity mutation on `undo` (one
/// `(link, old capacity)` entry per affected link) so the caller can revert
/// the update instead of cloning the multigraph. `scratch` carries reusable
/// buffers; results are bit-identical to [`update_multigraph`] — the
/// affected set is visited in ascending link order (matching the sorted-set
/// union of the scanning form) and all scaling factors are computed on the
/// pre-update capacities before any write.
pub fn update_multigraph_logged(
    net: &mut Network,
    imap: &InterferenceMap,
    path: &Path,
    undo: &mut UndoLog,
    scratch: &mut UpdateScratch,
) -> f64 {
    let rate = route_rate(net, imap, path);
    if rate > 0.0 {
        apply_update(net, imap, path, rate, undo, scratch);
    }
    rate
}

/// `R(P)` as `update(P, G)` assumes it, `0.0` for a path with no capacity.
pub(crate) fn route_rate(net: &Network, imap: &InterferenceMap, path: &Path) -> f64 {
    let rate = path.capacity_with(net, &path.incidence(imap));
    if rate <= 0.0 {
        0.0
    } else {
        rate
    }
}

/// The writes of [`update_multigraph_logged`] for a path whose positive
/// rate [`route_rate`] already gave.
pub(crate) fn apply_update(
    net: &mut Network,
    imap: &InterferenceMap,
    path: &Path,
    rate: f64,
    undo: &mut UndoLog,
    scratch: &mut UpdateScratch,
) {
    // Union of the interference domains of the path's links, as a packed
    // bitset; the scaling factors r(l, P) must all be computed on the
    // *pre-update* capacities, hence the stage-then-write split.
    imap.union_domains_into(path.links(), &mut scratch.affected);
    scratch.scaled.clear();
    let mut memo: ResidualMemo = [None; 64];
    for l in InterferenceMap::iter_links(&scratch.affected) {
        scratch.scaled.push((l, updated_capacity(net, imap, path, rate, l, &mut memo)));
    }
    for &(l, cap) in &scratch.scaled {
        undo.entries.push((l, net.link(l).capacity_mbps));
        net.set_capacity(l, cap);
    }
}

/// `r(l, P)` per incidence mask, for one path, rate and multigraph.
/// `r(l, P)` depends on `l` only through its incidence mask, so it is
/// computed once per distinct mask below 64: every mask of a route of at
/// most `MAX_ROUTE_HOPS` = 6 hops.
pub(crate) type ResidualMemo = [Option<f64>; 64];

/// The capacity `update(P, G)` at `rate` leaves on `link`: `c_l · r(l, P)`
/// clamped at zero, and `c_l` itself when `I_l ∩ P` is empty (the update
/// writes only the union of the path's domains). [`apply_update`] writes
/// this value and the §3.2 search's bound reads it before the update, so
/// the two agree bit for bit.
pub(crate) fn updated_capacity(
    net: &Network,
    imap: &InterferenceMap,
    path: &Path,
    rate: f64,
    link: LinkId,
    memo: &mut ResidualMemo,
) -> f64 {
    let capacity = net.link(link).capacity_mbps;
    let mask = imap.incidence_mask(link, path.links());
    if mask == 0 {
        return capacity;
    }
    let residual = || path.residual_idle_fraction_masked(net, mask, rate);
    let r = match memo.get_mut(mask as usize) {
        Some(slot) => *slot.get_or_insert_with(residual),
        None => residual(),
    };
    (capacity * r).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::{fig1_scenario, fig3_scenario};
    use empower_model::{InterferenceModel, SharedMedium};

    #[test]
    fn update_zeroes_the_bottleneck() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut g = s.net.clone();
        let route1 = Path::new(&g, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let rate = update_multigraph(&mut g, &imap, &route1);
        assert!((rate - 10.0).abs() < 1e-9);
        // Bottleneck (PLC) is exhausted.
        assert_eq!(g.link(s.plc_ab).capacity_mbps, 0.0);
        // WiFi b→c keeps 2/3 of 30 = 20 Mbps.
        assert!((g.link(s.wifi_bc).capacity_mbps - 20.0).abs() < 1e-9);
        // WiFi a→b shares the medium: 15 · 2/3 = 10 Mbps.
        assert!((g.link(s.wifi_ab).capacity_mbps - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fig1_second_route_rate_matches_back_of_envelope() {
        // After Route 1, the remaining WiFi-WiFi route supports
        // 1/(1/10 + 1/20) = 6.67 Mbps — the paper's x ≈ 6.6.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut g = s.net.clone();
        let route1 = Path::new(&g, vec![s.plc_ab, s.wifi_bc]).unwrap();
        update_multigraph(&mut g, &imap, &route1);
        let route2 = Path::new(&g, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let x = route2.capacity(&g, &imap);
        assert!((x - 20.0 / 3.0).abs() < 1e-9, "x = {x}");
    }

    #[test]
    fn update_on_dead_path_is_a_noop() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut g = s.net.clone();
        g.set_capacity(s.plc_ab, 0.0);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let before: Vec<f64> = g.links().iter().map(|l| l.capacity_mbps).collect();
        let rate = update_multigraph(&mut g, &imap, &route1);
        assert_eq!(rate, 0.0);
        let after: Vec<f64> = g.links().iter().map(|l| l.capacity_mbps).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn update_affects_reverse_directions_too() {
        // The reverse direction of a used link shares its medium and must be
        // discounted as well.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut g = s.net.clone();
        let route2 = Path::new(&g, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        update_multigraph(&mut g, &imap, &route2); // rate 10, full WiFi airtime
        let rev = g.link(s.wifi_ab).reverse.unwrap();
        assert_eq!(g.link(rev).capacity_mbps, 0.0);
    }

    #[test]
    fn fig3_update_sequence_reaches_15_total() {
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut g = s.net.clone();
        let r1 = Path::new(&g, s.route1.to_vec()).unwrap();
        let r3 = Path::new(&g, s.route3.to_vec()).unwrap();
        let rate1 = update_multigraph(&mut g, &imap, &r1);
        let rate3 = update_multigraph(&mut g, &imap, &r3);
        assert!((rate1 - 10.0).abs() < 1e-9);
        assert!((rate3 - 5.0).abs() < 1e-9);
        assert!((rate1 + rate3 - 15.0).abs() < 1e-9);
    }

    #[test]
    fn logged_update_reverts_bit_exactly() {
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut g = s.net.clone();
        let before: Vec<u64> = g.links().iter().map(|l| l.capacity_mbps.to_bits()).collect();
        let mut undo = UndoLog::new();
        let mut scratch = UpdateScratch::default();
        let r1 = Path::new(&g, s.route1.to_vec()).unwrap();
        let r3 = Path::new(&g, s.route3.to_vec()).unwrap();
        // Two stacked updates, reverted in LIFO order.
        let m0 = undo.mark();
        let rate1 = update_multigraph_logged(&mut g, &imap, &r1, &mut undo, &mut scratch);
        let m1 = undo.mark();
        let rate3 = update_multigraph_logged(&mut g, &imap, &r3, &mut undo, &mut scratch);
        assert!((rate1 + rate3 - 15.0).abs() < 1e-9);
        assert!(!undo.is_empty());
        let mut restored = Vec::new();
        undo.revert_with(&mut g, m1, |_, l| restored.push(l));
        assert!(!restored.is_empty());
        // After popping the second update, a fresh update of r3 recomputes
        // the same rate.
        let again = update_multigraph_logged(&mut g, &imap, &r3, &mut undo, &mut scratch);
        assert_eq!(again.to_bits(), rate3.to_bits());
        undo.revert(&mut g, m0);
        assert_eq!(undo.len(), 0);
        let after: Vec<u64> = g.links().iter().map(|l| l.capacity_mbps.to_bits()).collect();
        assert_eq!(before, after, "revert must restore capacities bit-exactly");
    }

    #[test]
    fn logged_update_matches_plain_update_bitwise() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let mut a = s.net.clone();
        let mut b = s.net.clone();
        let rate_a = update_multigraph(&mut a, &imap, &route);
        let mut undo = UndoLog::new();
        let mut scratch = UpdateScratch::default();
        let rate_b = update_multigraph_logged(&mut b, &imap, &route, &mut undo, &mut scratch);
        assert_eq!(rate_a.to_bits(), rate_b.to_bits());
        for (la, lb) in a.links().iter().zip(b.links()) {
            assert_eq!(la.capacity_mbps.to_bits(), lb.capacity_mbps.to_bits());
        }
    }

    #[test]
    fn fig3_best_single_route_exhausts_everything() {
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut g = s.net.clone();
        let r2 = Path::new(&g, s.route2.to_vec()).unwrap();
        let rate2 = update_multigraph(&mut g, &imap, &r2);
        assert!((rate2 - 11.0).abs() < 1e-9);
        for l in g.links() {
            assert!(!l.is_alive(), "{} survived", l.id);
        }
    }
}
