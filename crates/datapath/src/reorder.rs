//! Destination-side packet reordering (§6.1).
//!
//! "The header contains a 4-byte sequence number, which is used by the
//! destination for reordering packets that arrive from different routes. We
//! do not use timeouts for missing packets. To identify a lost packet, the
//! destination stores the last sequence number received from each route: a
//! packet with a sequence number S is lost when it has received packets with
//! sequence number greater than S on all routes from a certain source."

use std::collections::BTreeMap;

use crate::config::ReorderConfig;

/// What the reorder buffer releases to the upper layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderEvent {
    /// Packet with this sequence number delivered in order.
    Deliver(u32),
    /// This sequence number was declared lost (skipped).
    Lost(u32),
}

/// Per-(source-)flow reorder buffer.
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    /// Next sequence number the upper layer expects.
    next_seq: u32,
    /// Out-of-order packets waiting.
    pending: BTreeMap<u32, ()>,
    /// Highest sequence number seen per route (indexed by route id).
    highest_per_route: Vec<Option<u32>>,
    /// Cap on buffered packets (drop-oldest beyond this; real memory bound).
    capacity: usize,
}

impl ReorderBuffer {
    /// Builds a buffer from its typed configuration (see
    /// [`ReorderConfig`]).
    pub(crate) fn from_config(cfg: &ReorderConfig) -> Self {
        ReorderBuffer {
            next_seq: 0,
            pending: BTreeMap::new(),
            highest_per_route: vec![None; cfg.routes()],
            capacity: cfg.cap(),
        }
    }

    /// Number of packets currently buffered out of order.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// The next in-order sequence number expected.
    pub fn expected(&self) -> u32 {
        self.next_seq
    }

    /// Number of routes the buffer is currently keyed for.
    pub fn route_count(&self) -> usize {
        self.highest_per_route.len()
    }

    /// Re-keys the buffer for a new route set (route recomputation after a
    /// failure, §3.2): the expected sequence number and any buffered
    /// packets survive; the per-route high-water marks restart, so the
    /// loss rule waits until every *new* route has carried traffic.
    pub fn reset_routes(&mut self, route_count: usize) {
        self.highest_per_route = vec![None; route_count];
    }

    /// Accepts a packet that arrived on `route` with sequence `seq` and
    /// returns everything releasable, in order.
    pub fn accept(&mut self, route: usize, seq: u32) -> Vec<ReorderEvent> {
        let mut out = Vec::new();
        self.accept_into(route, seq, &mut out);
        out
    }

    /// Allocation-free variant of [`ReorderBuffer::accept`]: appends the
    /// releasable events to `out` (which the caller typically clears and
    /// reuses across packets). A stale duplicate appends nothing.
    pub fn accept_into(&mut self, route: usize, seq: u32, out: &mut Vec<ReorderEvent>) {
        let hi = &mut self.highest_per_route[route];
        if hi.is_none_or(|h| seq > h) {
            *hi = Some(seq);
        }
        if seq < self.next_seq {
            return; // stale duplicate
        }
        if seq == self.next_seq {
            // In order: every pending key is above `next_seq`, so inserting
            // `seq` would make it the oldest (the capacity rule declares
            // nothing) and the drain would take it straight back out.
            out.push(ReorderEvent::Deliver(seq));
            self.next_seq += 1;
            self.drain(out);
            return;
        }
        self.pending.insert(seq, ());
        if self.pending.len() > self.capacity {
            // Memory bound: force delivery up to the oldest buffered packet
            // (the over-capacity buffer is necessarily non-empty).
            if let Some(&oldest) = self.pending.keys().next() {
                while self.next_seq < oldest {
                    out.push(ReorderEvent::Lost(self.next_seq));
                    self.next_seq += 1;
                }
            }
        }
        self.drain(out);
    }

    /// Applies the all-routes-passed loss rule and releases in-order data.
    fn drain(&mut self, out: &mut Vec<ReorderEvent>) {
        loop {
            if self.pending.remove(&self.next_seq).is_some() {
                out.push(ReorderEvent::Deliver(self.next_seq));
                self.next_seq += 1;
                continue;
            }
            // next_seq missing: lost iff every route has seen beyond it.
            let all_passed = !self.highest_per_route.is_empty()
                && self.highest_per_route.iter().all(|h| h.is_some_and(|hi| hi > self.next_seq));
            if all_passed {
                out.push(ReorderEvent::Lost(self.next_seq));
                self.next_seq += 1;
                continue;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ReorderEvent::{Deliver, Lost};

    #[test]
    fn in_order_delivery_is_immediate() {
        let mut b = ReorderConfig::for_routes(2).build();
        assert_eq!(b.accept(0, 0), vec![Deliver(0)]);
        assert_eq!(b.accept(1, 1), vec![Deliver(1)]);
        assert_eq!(b.accept(0, 2), vec![Deliver(2)]);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn out_of_order_waits_for_the_gap() {
        let mut b = ReorderConfig::for_routes(2).build();
        // seq 1 arrives on route 0 before seq 0: route 1 hasn't passed 0
        // yet, so 0 may still arrive there — hold 1.
        assert_eq!(b.accept(0, 1), vec![]);
        assert_eq!(b.buffered(), 1);
        assert_eq!(b.accept(1, 0), vec![Deliver(0), Deliver(1)]);
    }

    #[test]
    fn loss_declared_when_all_routes_passed() {
        let mut b = ReorderConfig::for_routes(2).build();
        // seq 0 never arrives; both routes deliver beyond it.
        assert_eq!(b.accept(0, 1), vec![]);
        assert_eq!(b.accept(1, 2), vec![Lost(0), Deliver(1), Deliver(2)]);
    }

    #[test]
    fn single_route_losses_resolve_immediately_on_next_packet() {
        let mut b = ReorderConfig::for_routes(1).build();
        assert_eq!(b.accept(0, 0), vec![Deliver(0)]);
        // 1 lost; 2 arrives on the only route → 1 declared lost.
        assert_eq!(b.accept(0, 2), vec![Lost(1), Deliver(2)]);
    }

    #[test]
    fn slow_route_defers_loss_declaration() {
        let mut b = ReorderConfig::for_routes(2).build();
        // Route 0 races ahead; route 1 is silent: nothing can be declared.
        assert_eq!(b.accept(0, 5), vec![]);
        assert_eq!(b.accept(0, 6), vec![]);
        assert_eq!(b.buffered(), 2);
        // Route 1 finally passes seq 4: 0..=4 lost, 5 and 6 deliver.
        let events = b.accept(1, 7);
        assert_eq!(
            events,
            vec![Lost(0), Lost(1), Lost(2), Lost(3), Lost(4), Deliver(5), Deliver(6), Deliver(7)]
        );
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut b = ReorderConfig::for_routes(1).build();
        assert_eq!(b.accept(0, 0), vec![Deliver(0)]);
        assert_eq!(b.accept(0, 0), vec![]);
    }

    #[test]
    fn capacity_bound_forces_progress() {
        let mut b = ReorderConfig::for_routes(2).capacity(8).build();
        // Fill beyond capacity with a hole at 0 (route 1 stays behind).
        let mut forced = Vec::new();
        for s in 1..=9 {
            forced.extend(b.accept(0, s));
        }
        // The forced drain declares seq 0 lost and flushes the buffer.
        assert!(forced.contains(&Lost(0)));
        assert!(forced.contains(&Deliver(9)));
        assert!(b.buffered() <= 8);
    }

    #[test]
    fn accept_into_matches_accept_and_reuses_the_buffer() {
        let mut a = ReorderConfig::for_routes(2).build();
        let mut b = ReorderConfig::for_routes(2).build();
        let mut out = Vec::new();
        let arrivals = [(0, 1u32), (1, 0), (0, 2), (1, 4), (0, 3), (0, 3), (1, 6)];
        for (r, s) in arrivals {
            out.clear();
            b.accept_into(r, s, &mut out);
            assert_eq!(a.accept(r, s), out, "route {r} seq {s}");
        }
    }

    /// `accept_into` as it was before the in-order fast path: every arrival
    /// goes into the map and comes back out through the drain.
    struct InsertThenDrain {
        next_seq: u32,
        pending: BTreeMap<u32, ()>,
        highest_per_route: Vec<Option<u32>>,
        capacity: usize,
    }

    impl InsertThenDrain {
        fn accept_into(&mut self, route: usize, seq: u32, out: &mut Vec<ReorderEvent>) {
            let hi = &mut self.highest_per_route[route];
            if hi.is_none_or(|h| seq > h) {
                *hi = Some(seq);
            }
            if seq < self.next_seq {
                return;
            }
            self.pending.insert(seq, ());
            if self.pending.len() > self.capacity {
                if let Some(&oldest) = self.pending.keys().next() {
                    while self.next_seq < oldest {
                        out.push(Lost(self.next_seq));
                        self.next_seq += 1;
                    }
                }
            }
            loop {
                if self.pending.remove(&self.next_seq).is_some() {
                    out.push(Deliver(self.next_seq));
                    self.next_seq += 1;
                    continue;
                }
                let all_passed = !self.highest_per_route.is_empty()
                    && self
                        .highest_per_route
                        .iter()
                        .all(|h| h.is_some_and(|hi| hi > self.next_seq));
                if all_passed {
                    out.push(Lost(self.next_seq));
                    self.next_seq += 1;
                    continue;
                }
                break;
            }
        }
    }

    #[test]
    fn in_order_fast_path_matches_insert_then_drain() {
        use empower_model::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x5E0_4DE2);
        let mut fast_hits = 0;
        for case in 0..400usize {
            let capacity = [0, 1, 4, ReorderConfig::for_routes(1).cap()][case % 4];
            let mut routes = rng.gen_range(1usize..=3);
            let mut fast = ReorderConfig::for_routes(routes).capacity(capacity).build();
            let mut slow = InsertThenDrain {
                next_seq: 0,
                pending: BTreeMap::new(),
                highest_per_route: vec![None; routes],
                capacity,
            };
            let rekey_at = rng.gen_range(0usize..300);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            // The source's next sequence number; arrivals straddle it.
            let mut next = 0u32;
            for step in 0..300 {
                if step == rekey_at {
                    routes = rng.gen_range(1usize..=3);
                    fast.reset_routes(routes);
                    slow.highest_per_route = vec![None; routes];
                }
                let seq = match rng.gen_range(0u32..10) {
                    // A duplicate or a stale straggler.
                    0 => next.saturating_sub(rng.gen_range(1u32..=8)),
                    // Frames lost on the way: the source skips ahead.
                    1 => {
                        next += rng.gen_range(1u32..=4);
                        next
                    }
                    // Overtaken on a faster route: arrives ahead of its turn.
                    2 => next + rng.gen_range(1u32..=6),
                    _ => next,
                };
                next = next.max(seq + 1);
                let route = rng.gen_range(0..routes);
                fast_hits += usize::from(seq == fast.expected());
                got.clear();
                want.clear();
                fast.accept_into(route, seq, &mut got);
                slow.accept_into(route, seq, &mut want);
                let at = format!("case {case} step {step}: route {route} seq {seq}");
                assert_eq!(got, want, "{at}");
                assert_eq!(fast.expected(), slow.next_seq, "{at}");
                assert_eq!(fast.buffered(), slow.pending.len(), "{at}");
            }
        }
        assert!(fast_hits > 10_000, "the fast path was exercised only {fast_hits} times");
    }

    #[test]
    fn interleaved_two_route_stream_delivers_everything_in_order() {
        let mut b = ReorderConfig::for_routes(2).build();
        let mut delivered = Vec::new();
        // Route 0 gets even seqs, route 1 odd. Each route is FIFO (packets
        // on one route cannot overtake each other), but the two routes
        // interleave arbitrarily.
        let arrivals =
            [(0, 0u32), (1, 1), (0, 2), (0, 4), (1, 3), (1, 5), (0, 6), (1, 7), (0, 8), (1, 9)];
        for (r, s) in arrivals {
            for ev in b.accept(r, s) {
                if let Deliver(x) = ev {
                    delivered.push(x);
                }
            }
        }
        assert_eq!(delivered, (0..=9).collect::<Vec<u32>>());
    }
}
