//! Property tests of the 20-byte wire codec: encode/decode round-trips
//! (up to max-hop routes), f32 price accumulation,
//! truncated/corrupted-buffer error paths, and the decoder checked against a
//! field-by-field reference on every route-slot pattern and truncation
//! length. Randomized cases come from a
//! deterministic seed sweep (the in-tree RNG replaces proptest; the
//! failing case index is in the assertion message).

use empower_datapath::{EmpowerHeader, HeaderError, IfaceId, SourceRoute, HEADER_LEN, MAX_HOPS};
use empower_model::rng::{Rng, SeedableRng, StdRng};

const CASES: u64 = 256;

fn random_route(rng: &mut StdRng, n_hops: usize) -> SourceRoute {
    let hops: Vec<IfaceId> = (0..n_hops).map(|_| IfaceId(rng.gen_range(1u16..=u16::MAX))).collect();
    SourceRoute::new(&hops).unwrap()
}

#[test]
fn headers_round_trip_all_route_lengths() {
    let mut rng = StdRng::seed_from_u64(0xE6C0);
    for case in 0..CASES {
        let n_hops = rng.gen_range(1..=MAX_HOPS);
        let mut h = EmpowerHeader::new(random_route(&mut rng, n_hops), rng.gen());
        h.price = rng.gen_range(0.0f64..1000.0) as f32;
        let mut fixed = [0u8; HEADER_LEN];
        h.encode_into(&mut fixed);
        let back = EmpowerHeader::decode(&mut &fixed[..]).unwrap();
        assert_eq!(back, h, "case {case}");
    }
}

#[test]
fn max_hop_routes_survive_the_wire() {
    let mut rng = StdRng::seed_from_u64(0xE6C1);
    for case in 0..CASES {
        let h = EmpowerHeader::new(random_route(&mut rng, MAX_HOPS), rng.gen());
        let mut bytes = [0u8; HEADER_LEN];
        h.encode_into(&mut bytes);
        let back = EmpowerHeader::decode(&mut &bytes[..]).unwrap();
        assert_eq!(back.route.len(), MAX_HOPS, "case {case}");
        assert_eq!(back, h, "case {case}");
    }
}

#[test]
fn price_accumulation_round_trips_bit_exactly() {
    // Per-hop contributions fold in f32 (the wire width); whatever the
    // source and the forwarders accumulated must decode to the same bits.
    let mut rng = StdRng::seed_from_u64(0xE6C2);
    for case in 0..CASES {
        let mut h = EmpowerHeader::new(random_route(&mut rng, 2), case as u32);
        let mut expected = 0.0f32;
        for _ in 0..rng.gen_range(1usize..=8) {
            let c = rng.gen_range(0.0f64..10.0);
            h.add_price(c);
            expected += c as f32;
        }
        let mut bytes = [0u8; HEADER_LEN];
        h.encode_into(&mut bytes);
        let back = EmpowerHeader::decode(&mut &bytes[..]).unwrap();
        assert_eq!(back.price.to_bits(), expected.to_bits(), "case {case}");
    }
}

#[test]
fn truncated_buffers_report_their_length() {
    let mut rng = StdRng::seed_from_u64(0xE6C3);
    let h = EmpowerHeader::new(random_route(&mut rng, 3), 7);
    let mut bytes = [0u8; HEADER_LEN];
    h.encode_into(&mut bytes);
    for got in 0..HEADER_LEN {
        let err = EmpowerHeader::decode(&mut &bytes[..got]).unwrap_err();
        assert_eq!(err, HeaderError::Truncated { got }, "prefix of {got} bytes");
    }
}

#[test]
fn decode_of_arbitrary_bytes_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xE6C4);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
        let _ = EmpowerHeader::decode(&mut bytes.as_slice());
    }
}

/// Takes the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, tail) = buf.split_at(N);
    *buf = tail;
    head.try_into().expect("split_at returned N bytes")
}

/// The decoder as it was before it read the buffer once: bounds check,
/// then one big-endian read per field, then the contiguity check.
fn field_by_field(buf: &mut &[u8]) -> Result<EmpowerHeader, HeaderError> {
    if buf.len() < HEADER_LEN {
        return Err(HeaderError::Truncated { got: buf.len() });
    }
    let mut hops = [IfaceId::EMPTY; MAX_HOPS];
    for h in &mut hops {
        *h = IfaceId(u16::from_be_bytes(take(buf)));
    }
    let price = f32::from_bits(u32::from_be_bytes(take(buf)));
    let seq = u32::from_be_bytes(take(buf));
    let len = hops.iter().position(|h| !h.is_set()).unwrap_or(MAX_HOPS);
    if hops[len..].iter().any(|h| h.is_set()) {
        return Err(HeaderError::NonContiguousRoute);
    }
    let route = SourceRoute::new(&hops[..len]).expect("a gap-free prefix is a valid route");
    Ok(EmpowerHeader { route, price, seq })
}

/// Same `Ok` (price compared by bits, so NaN payloads count) or same `Err`,
/// and the cursor left at the same place.
fn assert_decodes_alike(bytes: &[u8], what: &str) {
    let (mut got_at, mut want_at) = (bytes, bytes);
    let got = EmpowerHeader::decode(&mut got_at);
    let want = field_by_field(&mut want_at);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!((g.route, g.seq), (w.route, w.seq), "{what}");
            assert_eq!(g.price.to_bits(), w.price.to_bits(), "{what}");
        }
        _ => assert_eq!(got, want, "{what}"),
    }
    assert_eq!(got_at.len(), want_at.len(), "{what}: cursor position");
}

#[test]
fn decoder_agrees_with_the_field_by_field_reference_everywhere() {
    let mut rng = StdRng::seed_from_u64(0xE6C5);
    let (mut oks, mut gaps) = (0, 0);
    // Every occupancy pattern of the six route slots: each hop count 0–6
    // with nothing after it, and every placement of a gap before a set hop.
    for occupied in 0u32..1 << MAX_HOPS {
        for draw in 0..4 {
            let mut bytes = [0u8; HEADER_LEN + 3];
            for slot in 0..MAX_HOPS {
                if occupied & (1 << slot) != 0 {
                    let id = rng.gen_range(1u16..=u16::MAX);
                    bytes[2 * slot..2 * slot + 2].copy_from_slice(&id.to_be_bytes());
                }
            }
            // Any price bits, NaNs and infinities included, and any seq.
            for b in &mut bytes[2 * MAX_HOPS..] {
                *b = rng.gen::<u32>() as u8;
            }
            let what = format!("slots {occupied:06b} draw {draw}");
            for got in 0..HEADER_LEN {
                assert_decodes_alike(&bytes[..got], &format!("{what}, first {got} bytes"));
            }
            assert_decodes_alike(&bytes[..HEADER_LEN], &what);
            assert_decodes_alike(&bytes, &format!("{what}, 3 trailing bytes"));
            match EmpowerHeader::decode(&mut &bytes[..]) {
                Ok(_) => oks += 1,
                Err(HeaderError::NonContiguousRoute) => gaps += 1,
                Err(e) => panic!("{what}: unexpected {e}"),
            }
        }
    }
    // Gap-free patterns are the 7 prefixes 0..=6 hops long.
    assert_eq!((oks, gaps), (7 * 4, (64 - 7) * 4));
}

#[test]
fn route_gaps_are_rejected() {
    // A set hop after an empty slot is malformed on the wire.
    let mut bytes = [0u8; HEADER_LEN];
    bytes[4..6].copy_from_slice(&55u16.to_be_bytes());
    assert_eq!(EmpowerHeader::decode(&mut &bytes[..]), Err(HeaderError::NonContiguousRoute));
}
