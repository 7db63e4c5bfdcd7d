//! The two stage values against the raw stage structs they wrap:
//! identical decision streams (admitted routes + wire sequence numbers,
//! reorder events, paced ACKs, delay-equalizer holds) under the same
//! seeds.
//!
//! The *simulator-level* gate lives in `crates/sim/tests/equivalence.rs`
//! (byte-identical `SimReport`s + telemetry manifests over the seeded
//! corpus); this one isolates the datapath crate itself.

use empower_datapath::{
    AckCollector, DelayEqualizer, FlowSink, FlowSource, IfaceId, ReorderConfig, ReorderEvent,
    RouteChoice, SchedulerConfig, SourceRoute,
};
use empower_model::rng::{SeedableRng, StdRng};

fn route(ids: &[u16]) -> SourceRoute {
    let hops: Vec<IfaceId> = ids.iter().map(|&i| IfaceId(i)).collect();
    SourceRoute::new(&hops).unwrap()
}

fn routes() -> Vec<SourceRoute> {
    vec![route(&[1, 2]), route(&[3, 4])]
}

fn sched_cfg() -> SchedulerConfig {
    SchedulerConfig::for_routes(2).initial_rates(&[3.0, 5.0])
}

#[test]
fn stages_match_the_raw_stage_structs() {
    let mut source = FlowSource::new(&sched_cfg(), routes());
    let mut sink = FlowSink::new(&ReorderConfig::for_routes(2), true);
    let mut raw_sched = sched_cfg().build();
    let mut raw_reorder = ReorderConfig::for_routes(2).build();
    let mut raw_acks = AckCollector::new(2);
    let mut raw_eq = DelayEqualizer::new(2);

    // Same seed, same offered load: the full (route, seq) admission
    // stream must match draw for draw.
    let mut rng_stage = StdRng::seed_from_u64(99);
    let mut rng_raw = StdRng::seed_from_u64(99);
    let mut stage_stream: Vec<(usize, u32)> = Vec::new();
    let mut raw_stream: Vec<(usize, u32)> = Vec::new();
    // 12 kbit frames fit the default bucket depth; 1 ms pacing offers
    // 12 Mbps against 8 Mbps admitted, so both admissions and refusals
    // appear in the stream.
    let bits = 12_000;
    let mut now = 0.0;
    for _ in 0..500 {
        now += 0.001;
        if let Some((r, h)) = source.admit(&mut rng_stage, now, bits) {
            assert_eq!(h.route, routes()[r], "the header names the drawn route");
            stage_stream.push((r, h.seq));
        }
        match raw_sched.offer(&mut rng_raw, now, bits) {
            RouteChoice::Route(r) => raw_stream.push((r, raw_sched.next_seq())),
            RouteChoice::Drop => {}
        }
    }
    assert!(stage_stream.len() > 100, "the load admits plenty of packets");
    assert!(stage_stream.len() < 500, "and refuses some");
    assert_eq!(stage_stream, raw_stream, "admission decisions diverged");

    // Replay the admitted stream into both receive sides with a
    // deterministic loss pattern: reorder events, delivery counts and the
    // paced ACK must match.
    let mut stage_events: Vec<ReorderEvent> = Vec::new();
    let mut raw_events: Vec<ReorderEvent> = Vec::new();
    let mut stage_delivered = 0u64;
    for &(r, seq) in &stage_stream {
        if seq % 17 == 3 {
            continue; // network loss
        }
        let price = 0.1 * (r as f64 + 1.0);
        stage_delivered += sink.accept(r, seq, price, &mut stage_events);
        raw_acks.observe_price(r, price);
        for ev in raw_reorder.accept(r, seq) {
            if matches!(ev, ReorderEvent::Deliver(_)) {
                raw_acks.count_delivery();
            }
            raw_events.push(ev);
        }
    }
    assert_eq!(stage_events, raw_events, "reorder streams diverged");
    assert!(stage_events.iter().any(|e| matches!(e, ReorderEvent::Lost(_))), "the loss rule fired");
    assert_eq!(stage_delivered, raw_acks.delivered());
    let stage_ack = sink.maybe_ack(1000.0).expect("ack due");
    let raw_ack = raw_acks.maybe_ack(1000.0).expect("ack due");
    assert_eq!(stage_ack, raw_ack, "paced ACKs diverged");

    // Delay equalization: the sink's hold matches the raw equalizer's for
    // the same delay observations.
    for i in 0..200u32 {
        let r = (i % 2) as usize;
        let delay = 0.010 + 0.005 * f64::from(i % 7);
        assert_eq!(sink.arrival_hold(r, delay), raw_eq.on_arrival(r, delay), "arrival {i}");
    }
}
