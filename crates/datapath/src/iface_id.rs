//! Layer-2.5 interface identifiers.
//!
//! The implementation "uses short hashes of the interfaces' MAC addresses as
//! identifiers at layer 2.5" (§6.1), 2 bytes each. We synthesize a stable
//! MAC per (node, medium) pair, hash it with FNV-1a to 16 bits, and resolve
//! the (rare) collisions by linear probing inside the registry so that
//! forwarding in the simulator is never ambiguous — a real deployment would
//! simply re-roll its locally-administered MAC.

use std::collections::BTreeMap;

use empower_model::{Medium, Network, NodeId};

/// A 2-byte interface identifier. Zero is reserved as "empty route slot".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub u16);

impl IfaceId {
    /// The reserved empty value.
    pub const EMPTY: IfaceId = IfaceId(0);

    /// True if this slot holds a real interface.
    pub fn is_set(self) -> bool {
        self.0 != 0
    }
}

/// Synthesizes the MAC address of a (node, medium) interface: a
/// locally-administered OUI plus node id and medium tag.
pub fn synthetic_mac(node: NodeId, medium: Medium) -> [u8; 6] {
    let tag = medium.tag();
    [
        0x02, // locally administered, unicast
        0xe5, // "EMPoWER"
        (node.0 >> 8) as u8,
        node.0 as u8,
        (tag >> 8) as u8,
        tag as u8,
    ]
}

/// FNV-1a over the MAC, folded to 16 bits.
fn short_hash(mac: &[u8; 6]) -> u16 {
    let mut h: u32 = 0x811c9dc5;
    for &b in mac {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    ((h >> 16) ^ (h & 0xffff)) as u16
}

/// Bidirectional map between (node, medium) interfaces and their 2-byte ids.
#[derive(Debug, Clone, Default)]
pub struct IfaceRegistry {
    by_iface: BTreeMap<(NodeId, Medium), IfaceId>,
    by_id: BTreeMap<IfaceId, (NodeId, Medium)>,
}

impl IfaceRegistry {
    /// Registers every interface of `net`.
    pub fn for_network(net: &Network) -> Self {
        let mut reg = IfaceRegistry::default();
        for node in net.nodes() {
            for &m in &node.mediums {
                reg.register(node.id, m);
            }
        }
        reg
    }

    /// Registers one interface, probing past hash collisions and the
    /// reserved zero value.
    pub fn register(&mut self, node: NodeId, medium: Medium) -> IfaceId {
        if let Some(&id) = self.by_iface.get(&(node, medium)) {
            return id;
        }
        let mut candidate = short_hash(&synthetic_mac(node, medium));
        loop {
            let id = IfaceId(candidate);
            if id.is_set() && !self.by_id.contains_key(&id) {
                self.by_iface.insert((node, medium), id);
                self.by_id.insert(id, (node, medium));
                return id;
            }
            candidate = candidate.wrapping_add(1);
        }
    }

    /// Looks up an interface id.
    pub fn id_of(&self, node: NodeId, medium: Medium) -> Option<IfaceId> {
        self.by_iface.get(&(node, medium)).copied()
    }

    /// Reverse lookup.
    pub fn iface_of(&self, id: IfaceId) -> Option<(NodeId, Medium)> {
        self.by_id.get(&id).copied()
    }

    /// Number of registered interfaces.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True if no interface is registered.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::testbed22;

    #[test]
    fn macs_are_unique_and_local() {
        let a = synthetic_mac(NodeId(1), Medium::WIFI1);
        let b = synthetic_mac(NodeId(1), Medium::WIFI2);
        let c = synthetic_mac(NodeId(2), Medium::WIFI1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[0] & 0x02, 0x02, "locally administered bit");
        assert_eq!(a[0] & 0x01, 0, "unicast");
    }

    #[test]
    fn registry_round_trips() {
        let t = testbed22(1);
        let reg = IfaceRegistry::for_network(&t.net);
        assert_eq!(reg.len(), 22 * 3);
        for node in t.net.nodes() {
            for &m in &node.mediums {
                let id = reg.id_of(node.id, m).unwrap();
                assert!(id.is_set());
                assert_eq!(reg.iface_of(id), Some((node.id, m)));
            }
        }
    }

    #[test]
    fn ids_are_unique_even_under_collisions() {
        // Register a large population to force probe activity.
        let mut reg = IfaceRegistry::default();
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..5000u32 {
            let id = reg.register(NodeId(n), Medium::WIFI1);
            assert!(seen.insert(id), "duplicate id {id:?}");
        }
    }

    #[test]
    fn register_is_idempotent() {
        let mut reg = IfaceRegistry::default();
        let a = reg.register(NodeId(7), Medium::Plc);
        let b = reg.register(NodeId(7), Medium::Plc);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn zero_is_never_assigned() {
        let mut reg = IfaceRegistry::default();
        for n in 0..2000u32 {
            assert!(reg.register(NodeId(n), Medium::Plc).is_set());
        }
    }
}
