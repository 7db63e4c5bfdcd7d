//! The fixed 20-byte EMPoWER header (§6.1).

use crate::wire::{Buf, BufMut};

use crate::iface_id::IfaceId;

/// Total header length on the wire, bytes.
pub const HEADER_LEN: usize = 20;
/// Maximum number of hops a source route can encode (12 bytes / 2).
pub const MAX_HOPS: usize = 6;

/// Decode/encode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// Input shorter than [`HEADER_LEN`].
    Truncated { got: usize },
    /// More hops than the fixed route field can hold.
    TooManyHops { got: usize },
    /// An empty slot appears before the end of the route.
    NonContiguousRoute,
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::Truncated { got } => {
                write!(f, "header needs {HEADER_LEN} bytes, got {got}")
            }
            HeaderError::TooManyHops { got } => {
                write!(f, "route has {got} hops, max is {MAX_HOPS}")
            }
            HeaderError::NonContiguousRoute => write!(f, "route has a gap"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// The source route: the ingress interface id of every hop, in order. A
/// 2-hop route therefore stores 2 ids; remaining slots are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceRoute {
    hops: [IfaceId; MAX_HOPS],
    len: u8,
}

impl Default for SourceRoute {
    /// The empty (zero-hop) route — invalid on the wire.
    fn default() -> Self {
        SourceRoute { hops: [IfaceId::EMPTY; MAX_HOPS], len: 0 }
    }
}

impl SourceRoute {
    /// Builds a route from ingress interface ids.
    pub fn new(hops: &[IfaceId]) -> Result<Self, HeaderError> {
        if hops.len() > MAX_HOPS {
            return Err(HeaderError::TooManyHops { got: hops.len() });
        }
        if hops.iter().any(|h| !h.is_set()) {
            return Err(HeaderError::NonContiguousRoute);
        }
        let mut arr = [IfaceId::EMPTY; MAX_HOPS];
        arr[..hops.len()].copy_from_slice(hops);
        Ok(SourceRoute { hops: arr, len: hops.len() as u8 })
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a (invalid on the wire) zero-hop route.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ingress interface of hop `i`.
    pub fn hop(&self, i: usize) -> Option<IfaceId> {
        (i < self.len()).then(|| self.hops[i])
    }

    /// All hops, in order.
    pub fn hops(&self) -> &[IfaceId] {
        &self.hops[..self.len()]
    }

    /// Given the interface a packet just arrived on, the ingress interface
    /// of the next hop — `None` when the arrival interface is the route's
    /// last hop (the packet is at its destination) or not on the route.
    pub fn next_hop_after(&self, arrived_on: IfaceId) -> Option<IfaceId> {
        let pos = self.hops().iter().position(|&h| h == arrived_on)?;
        self.hop(pos + 1)
    }

    /// True if `iface` is the final hop's ingress (destination check,
    /// `Check Dst` in Fig. 2).
    pub fn is_destination(&self, iface: IfaceId) -> bool {
        self.len > 0 && self.hops[self.len as usize - 1] == iface
    }
}

/// The layer-2.5 header carried by every EMPoWER data packet.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EmpowerHeader {
    pub route: SourceRoute,
    /// Accumulated route price `q_r` (§4.2); f32 on the wire (4 bytes).
    pub price: f32,
    /// Sequence number for destination-side reordering.
    pub seq: u32,
}

impl EmpowerHeader {
    /// Creates a header with zero accumulated price.
    pub fn new(route: SourceRoute, seq: u32) -> Self {
        EmpowerHeader { route, price: 0.0, seq }
    }

    /// Serializes into `buf` (exactly [`HEADER_LEN`] bytes).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        for i in 0..MAX_HOPS {
            buf.put_u16(self.route.hops[i].0);
        }
        buf.put_f32(self.price);
        buf.put_u32(self.seq);
    }

    /// Serializes into a caller-provided fixed buffer — the hot-path
    /// encoder: no allocation, no cursor bookkeeping, the type system
    /// guarantees the length.
    pub fn encode_into(&self, out: &mut [u8; HEADER_LEN]) {
        for i in 0..MAX_HOPS {
            out[2 * i..2 * i + 2].copy_from_slice(&self.route.hops[i].0.to_be_bytes());
        }
        out[12..16].copy_from_slice(&self.price.to_bits().to_be_bytes());
        out[16..20].copy_from_slice(&self.seq.to_be_bytes());
    }

    /// Parses a header from `buf`: one bounds check and one copy out of the
    /// cursor, then every field at its fixed offset.
    #[inline]
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, HeaderError> {
        if buf.remaining() < HEADER_LEN {
            return Err(HeaderError::Truncated { got: buf.remaining() });
        }
        let mut b = [0u8; HEADER_LEN];
        buf.copy_to_slice(&mut b);
        let mut hops = [IfaceId::EMPTY; MAX_HOPS];
        // Bit i set: slot i holds a hop.
        let mut set = 0u32;
        for (i, h) in hops.iter_mut().enumerate() {
            *h = IfaceId(u16::from_be_bytes([b[2 * i], b[2 * i + 1]]));
            set |= u32::from(h.is_set()) << i;
        }
        let price = f32::from_bits(u32::from_be_bytes([b[12], b[13], b[14], b[15]]));
        let seq = u32::from_be_bytes([b[16], b[17], b[18], b[19]]);
        // The route is the leading run of set slots: `set` must be a run of
        // low bits (adding one carries through all of them); anything set
        // after a gap is malformed.
        if set & (set + 1) != 0 {
            return Err(HeaderError::NonContiguousRoute);
        }
        Ok(EmpowerHeader { route: SourceRoute { hops, len: set.count_ones() as u8 }, price, seq })
    }

    /// Adds a forwarding node's price contribution (Eq. (9) summand).
    pub fn add_price(&mut self, contribution: f64) {
        self.price += contribution as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(ids: &[u16]) -> SourceRoute {
        let hops: Vec<IfaceId> = ids.iter().map(|&i| IfaceId(i)).collect();
        SourceRoute::new(&hops).unwrap()
    }

    #[test]
    fn header_is_exactly_20_bytes() {
        let h = EmpowerHeader::new(route(&[10, 20, 30]), 42);
        let mut fixed = [0u8; HEADER_LEN];
        h.encode_into(&mut fixed);
        let mut appended = Vec::new();
        h.encode(&mut appended);
        assert_eq!(appended.len(), HEADER_LEN);
        assert_eq!(appended.as_slice(), &fixed, "both encoders produce the same bytes");
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut h = EmpowerHeader::new(route(&[7, 9]), 0xdead_beef);
        h.add_price(0.125);
        h.add_price(0.5);
        let mut bytes = [0u8; HEADER_LEN];
        h.encode_into(&mut bytes);
        let back = EmpowerHeader::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.route.len(), 2);
        assert!((back.price - 0.625).abs() < 1e-6);
        assert_eq!(back.seq, 0xdead_beef);
    }

    #[test]
    fn six_hop_route_fits() {
        let h = EmpowerHeader::new(route(&[1, 2, 3, 4, 5, 6]), 1);
        let mut bytes = [0u8; HEADER_LEN];
        h.encode_into(&mut bytes);
        let back = EmpowerHeader::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.route.len(), 6);
    }

    #[test]
    fn seven_hops_are_rejected() {
        let hops: Vec<IfaceId> = (1..=7).map(IfaceId).collect();
        assert_eq!(SourceRoute::new(&hops).unwrap_err(), HeaderError::TooManyHops { got: 7 });
    }

    #[test]
    fn truncated_input_is_rejected() {
        let h = EmpowerHeader::new(route(&[1]), 5);
        let mut bytes = [0u8; HEADER_LEN];
        h.encode_into(&mut bytes);
        let err = EmpowerHeader::decode(&mut &bytes[..HEADER_LEN - 1]).unwrap_err();
        assert_eq!(err, HeaderError::Truncated { got: HEADER_LEN - 1 });
    }

    #[test]
    fn gap_in_route_is_rejected() {
        let mut bytes = [0u8; HEADER_LEN];
        EmpowerHeader::new(route(&[1, 2]), 5).encode_into(&mut bytes);
        // Zero hop 0, leaving hop 1 set: a gap at the front.
        bytes[0] = 0;
        bytes[1] = 0;
        assert_eq!(
            EmpowerHeader::decode(&mut bytes.as_slice()).unwrap_err(),
            HeaderError::NonContiguousRoute
        );
    }

    #[test]
    fn next_hop_walks_the_route() {
        let r = route(&[10, 20, 30]);
        assert_eq!(r.next_hop_after(IfaceId(10)), Some(IfaceId(20)));
        assert_eq!(r.next_hop_after(IfaceId(20)), Some(IfaceId(30)));
        assert_eq!(r.next_hop_after(IfaceId(30)), None); // destination
        assert_eq!(r.next_hop_after(IfaceId(99)), None); // off-route
    }

    #[test]
    fn destination_check_matches_last_hop() {
        let r = route(&[10, 20, 30]);
        assert!(r.is_destination(IfaceId(30)));
        assert!(!r.is_destination(IfaceId(20)));
    }

    #[test]
    fn price_survives_f32_precision_for_realistic_magnitudes() {
        // Route prices q_r are O(1); f32 gives ~7 digits, plenty.
        let mut h = EmpowerHeader::new(route(&[1]), 0);
        for _ in 0..1000 {
            h.add_price(0.001);
        }
        assert!((h.price - 1.0).abs() < 1e-3);
    }
}
