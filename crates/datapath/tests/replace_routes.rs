#![forbid(unsafe_code)]
//! Mid-burst route replacement (§3.2 route recomputation): packets
//! admitted on the old route set are still in flight when the flow re-keys
//! to a smaller one. The wire sequence must continue across the re-key,
//! arrivals on retired route indices must fail the sink's
//! `route < route_count()` check (the stale-route policy every driver
//! applies before `accept`), deliveries must stay strictly in order, and
//! the whole seeded run must repeat exactly.

use std::collections::VecDeque;

use empower_datapath::{
    EmpowerHeader, FlowSink, FlowSource, IfaceId, ReorderConfig, ReorderEvent, SchedulerConfig,
    SourceRoute,
};
use empower_model::rng::{SeedableRng, StdRng};

const FRAME_BITS: u64 = 12_000;
/// Packets stay "on the wire" for this many admissions before reaching
/// the destination's sink.
const IN_FLIGHT: usize = 6;
/// Offer at which the route set shrinks from two routes to one.
const REKEY_AT: usize = 25;
const OFFERS: usize = 60;

fn route(ids: &[u16]) -> SourceRoute {
    let hops: Vec<IfaceId> = ids.iter().map(|&i| IfaceId(i)).collect();
    SourceRoute::new(&hops).unwrap()
}

/// Everything one seeded burst-with-rekey run did.
#[derive(Debug, PartialEq)]
struct BurstOutcome {
    /// (route, seq) of every admitted packet, in admission order.
    admitted: Vec<(usize, u32)>,
    /// Index into `admitted` of the first packet admitted after the re-key.
    first_after_rekey: usize,
    /// Arrivals whose route index the re-key retired.
    stale: u64,
    delivered: u64,
    events: Vec<ReorderEvent>,
}

/// One packet reaches the destination: the stale-route check, then the
/// sink.
fn arrive(sink: &mut FlowSink, out: &mut BurstOutcome, (r, h): (usize, EmpowerHeader)) {
    if r < sink.route_count() {
        out.delivered += sink.accept(r, h.seq, f64::from(h.price), &mut out.events);
    } else {
        out.stale += 1;
    }
}

/// Drives source → wire → sink with a fixed in-flight window, re-keying
/// 2 → 1 routes mid-burst on both sides.
fn run_burst(seed: u64) -> BurstOutcome {
    let sched = SchedulerConfig::for_routes(2).initial_rates(&[10.0, 10.0]);
    let mut source = FlowSource::new(&sched, vec![route(&[1, 2]), route(&[3, 4])]);
    let mut sink = FlowSink::new(&ReorderConfig::for_routes(2), false);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut in_flight: VecDeque<(usize, EmpowerHeader)> = VecDeque::new();
    let mut out = BurstOutcome {
        admitted: Vec::new(),
        first_after_rekey: 0,
        stale: 0,
        delivered: 0,
        events: Vec::new(),
    };

    let mut t = 0.0;
    for i in 0..OFFERS {
        t += 0.01;
        if i == REKEY_AT {
            // Route recomputation: one surviving route, fresh rates (the
            // re-key zeroes them). Packets in flight keep old indices.
            source.replace_routes(vec![route(&[5, 6])]);
            sink.replace_routes(1);
            source.set_rates(&[10.0]);
            out.first_after_rekey = out.admitted.len();
        }
        if let Some((r, mut h)) = source.admit(&mut rng, t, FRAME_BITS) {
            h.add_price(0.02);
            out.admitted.push((r, h.seq));
            in_flight.push_back((r, h));
        }
        while in_flight.len() > IN_FLIGHT {
            let pkt = in_flight.pop_front().unwrap();
            arrive(&mut sink, &mut out, pkt);
        }
    }
    // Drain the wire.
    while let Some(pkt) = in_flight.pop_front() {
        arrive(&mut sink, &mut out, pkt);
    }
    out
}

#[test]
fn rekey_mid_burst_continues_the_sequence_in_order() {
    let out = run_burst(0xEB);
    let k = out.first_after_rekey;
    assert!(k > 0 && k < out.admitted.len(), "admissions on both sides of the re-key");
    let seqs: Vec<u32> = out.admitted.iter().map(|&(_, s)| s).collect();
    assert_eq!(seqs, (0..seqs.len() as u32).collect::<Vec<_>>(), "the wire sequence continues");
    assert!(out.admitted[k..].iter().all(|&(r, _)| r == 0), "one route after the re-key");
    assert!(out.stale > 0, "packets in flight across the re-key carry retired route indices");

    // Every release names the next sequence number: deliveries are
    // strictly in order and each gap is declared lost exactly once.
    let released: Vec<u32> = out
        .events
        .iter()
        .map(|e| match *e {
            ReorderEvent::Deliver(s) | ReorderEvent::Lost(s) => s,
        })
        .collect();
    assert_eq!(released, (0..released.len() as u32).collect::<Vec<_>>());
    let delivered = out.events.iter().filter(|e| matches!(e, ReorderEvent::Deliver(_))).count();
    assert_eq!(delivered as u64, out.delivered);
    assert!(out.delivered > out.stale, "in-order deliveries before and after the re-key");
}

#[test]
fn rekey_mid_burst_counters_are_stable_across_runs() {
    assert_eq!(run_burst(0xEB), run_burst(0xEB), "a seeded run repeats exactly");
    assert_ne!(run_burst(0xEB).admitted, run_burst(0xEC).admitted, "the seed drives the draw");
}
