//! Simulated frames and the slab that stores them.

use empower_datapath::EmpowerHeader;

/// Handle into a [`PacketSlab`]: link queues and the busy-transmitter
/// table hold these 4-byte ids instead of moving header-sized
/// [`SimPacket`] structs around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketId(pub u32);

/// Free-list slab pooling [`SimPacket`] storage. Slots are recycled
/// through a LIFO free list, so after warm-up the steady-state packet
/// churn performs no heap allocation: `insert` overwrites a freed slot
/// in place and `release` just pushes the index back.
#[derive(Debug, Default)]
pub struct PacketSlab {
    slots: Vec<SimPacket>,
    free: Vec<u32>,
    grows: u64,
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `pkt`, reusing a freed slot when one exists (the recycled
    /// slot is overwritten).
    pub fn insert(&mut self, pkt: SimPacket) -> PacketId {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = pkt;
            PacketId(idx)
        } else {
            self.grows += 1;
            self.slots.push(pkt);
            PacketId(self.slots.len() as u32 - 1)
        }
    }

    /// Returns `id`'s slot to the free list. The slot's contents stay in
    /// place until a later insert reuses them; reading through a released
    /// id is a logic error the debug assertion catches.
    pub fn release(&mut self, id: PacketId) {
        debug_assert!(!self.free.contains(&id.0), "double release of {id:?}");
        self.free.push(id.0);
    }

    /// Read access to a live packet.
    pub fn get(&self, id: PacketId) -> &SimPacket {
        &self.slots[id.0 as usize]
    }

    /// Write access to a live packet.
    pub fn get_mut(&mut self, id: PacketId) -> &mut SimPacket {
        &mut self.slots[id.0 as usize]
    }

    /// Inserts that grew the slab (one allocation-class event each).
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Packets currently live (inserted and not yet released).
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

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
    /// The engine's cursor into its table of resolved route walks: the
    /// step this frame takes when it next arrives. [`crate::Simulation`]
    /// sets it at emission and moves it per hop; the reference engine
    /// walks the header per hop instead and leaves it at 0.
    pub hop: u32,
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
            hop: 0,
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
            hop: 0,
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
        assert_eq!(slab.get(c).header.seq, 3);
        assert_eq!(slab.get(b).header.seq, 2);
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn steady_state_churn_stops_growing() {
        let mut slab = PacketSlab::new();
        let mut live = Vec::new();
        for i in 0..10_000u32 {
            live.push(slab.insert(pkt(i)));
            if live.len() > 8 {
                slab.release(live.remove(0));
            }
        }
        assert!(slab.grows() <= 9, "steady-state churn must not grow the slab");
        assert_eq!(slab.live(), 8);
    }
}
