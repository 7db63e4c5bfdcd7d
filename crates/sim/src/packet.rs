//! Simulated frames.
//!
//! The slab itself lives in `empower-datapath`
//! ([`Pool`](empower_datapath::Pool)); this module keeps the simulator's
//! frame type and re-exports the pool under its historical
//! `PacketSlab`/`PacketId` names.

use empower_datapath::EmpowerHeader;

/// Handle into a [`PacketSlab`] (an alias of the datapath pool's
/// [`Handle`](empower_datapath::Handle)): link queues and the
/// busy-transmitter table hold these 4-byte ids instead of moving
/// header-sized [`SimPacket`] structs around.
pub use empower_datapath::Handle as PacketId;

/// Free-list slab pooling [`SimPacket`] storage. Slots are recycled
/// through a LIFO free list, so after warm-up the steady-state packet
/// churn performs no heap allocation: `insert` overwrites a freed slot
/// in place and `release` just pushes the index back.
pub type PacketSlab = empower_datapath::Pool<SimPacket>;

/// What a frame carries, beyond the EMPoWER layer-2.5 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Plain UDP-style data.
    Data,
    /// A TCP segment (the sequence number doubles as the TCP segment id).
    TcpData,
}

/// One frame in flight or queued.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// The wire header (source route, accumulated price, sequence number).
    pub header: EmpowerHeader,
    /// Frame size on the wire, bits (header + payload).
    pub size_bits: u64,
    /// Owning flow index.
    pub flow: usize,
    /// Which of the flow's routes this packet rides (redundant with the
    /// header's source route; kept for O(1) stats).
    pub route: usize,
    /// Emission time at the source, seconds.
    pub created_at: f64,
    pub kind: PacketKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_datapath::{IfaceId, SourceRoute};

    #[test]
    fn packet_carries_its_header() {
        let route = SourceRoute::new(&[IfaceId(3), IfaceId(4)]).unwrap();
        let p = SimPacket {
            header: EmpowerHeader::new(route, 7),
            size_bits: 96_000,
            flow: 0,
            route: 1,
            created_at: 0.5,
            kind: PacketKind::Data,
        };
        assert_eq!(p.header.seq, 7);
        assert_eq!(p.header.route.len(), 2);
        assert_eq!(p.kind, PacketKind::Data);
    }

    fn pkt(seq: u32) -> SimPacket {
        let route = SourceRoute::new(&[IfaceId(1)]).unwrap();
        SimPacket {
            header: EmpowerHeader::new(route, seq),
            size_bits: 96_000,
            flow: 0,
            route: 0,
            created_at: 0.0,
            kind: PacketKind::Data,
        }
    }

    #[test]
    fn slab_recycles_slots() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(pkt(1));
        let b = slab.insert(pkt(2));
        assert_eq!(slab.grows(), 2);
        assert_eq!(slab.live(), 2);
        slab.release(a);
        let c = slab.insert(pkt(3));
        assert_eq!(c, a, "freed slot is reused LIFO");
        assert_eq!(slab.hits(), 1);
        assert_eq!(slab.get(c).header.seq, 3);
        assert_eq!(slab.get(b).header.seq, 2);
        assert_eq!(slab.live(), 2);
    }
}
