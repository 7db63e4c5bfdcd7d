//! Seeded hierarchical campus topologies: multi-floor, multi-building
//! deployments at 100/500/1000+-node scale.
//!
//! The paper's evaluation stops at one 22-node office floor (§6); the
//! ROADMAP's "millions of users" north star needs topologies where the
//! *locality* of the interference model (§4.1) becomes structural. A
//! campus is a grid of floors: every floor is a self-contained
//! hybrid-network cell — one floor router, `clients_per_floor` stations,
//! WiFi on the floor's reuse channel, PLC behind the floor's electrical
//! panel — and floors connect upward through interference-free switched
//! Ethernet risers (floor router → building router → campus core).
//!
//! Interference-domain structure by construction:
//!
//! * **WiFi**: floors are laid out on a grid with ≥ `FLOOR_SPACING_M`
//!   between floor origins — farther than the carrier-sense range plus
//!   both floors' WiFi radii — so even same-channel floors never share a
//!   domain. Channels cycle per floor (`wifi_channels`), the dense reuse
//!   pattern of real enterprise deployments. (The grid is planar; the
//!   horizontal spacing stands in for the concrete slabs that isolate
//!   stacked floors in the real building.)
//! * **PLC**: one [`PanelId`] per floor — hierarchical panels, so PLC
//!   domains end at the floor's breaker box, as in the enterprise
//!   deployment studies.
//! * **Ethernet**: risers never interfere with anything
//!   ([`Medium::may_interfere_with`]), so the backbone adds no coupling.
//!
//! The result: no interference domain, broadcast group or PLC panel
//! crosses a floor, so a floor's contention is a function of that floor's
//! traffic alone.

use crate::capacity::{CapacityModel, PlcCapacityModel, WifiCapacityModel};
use crate::geometry::Point;
use crate::graph::{Network, NetworkBuilder};
use crate::ids::{NodeId, PanelId};
use crate::medium::Medium;
use crate::rng::Rng;

/// Grid spacing between floor origins, metres. Must exceed the 70 m
/// carrier-sense range plus the floor diagonal so same-channel floors
/// stay out of each other's WiFi domains (worst-case endpoint distance
/// is `FLOOR_SPACING_M − FLOOR_W_M = 120 m > 70 m`).
const FLOOR_SPACING_M: f64 = 160.0;
/// Floor extent, metres.
const FLOOR_W_M: f64 = 40.0;
const FLOOR_H_M: f64 = 25.0;
/// Riser capacities, Mbps: gigabit floor uplinks, 10 GbE building spine.
const RISER_MBPS: f64 = 1000.0;
const SPINE_MBPS: f64 = 10_000.0;

/// Campus generation parameters.
#[derive(Debug, Clone)]
pub struct CampusConfig {
    /// Buildings on the campus (grid rows).
    pub buildings: u32,
    /// Floors per building (grid columns).
    pub floors_per_building: u32,
    /// Client stations per floor.
    pub clients_per_floor: u32,
    /// WiFi channel-reuse cycle length: floor `f` of every building uses
    /// channel `1 + f % wifi_channels`.
    pub wifi_channels: u8,
    /// Every `hybrid_every`-th client is hybrid PLC/WiFi; the rest are
    /// WiFi-only unless NLOS blocking kills their WiFi link, in which
    /// case they fall back to PLC (every client stays attached).
    pub hybrid_every: u32,
    pub wifi: WifiCapacityModel,
    pub plc: PlcCapacityModel,
}

impl CampusConfig {
    /// A campus with the given grid, defaulting the per-floor mix to
    /// 3-channel reuse and every-other-client hybrid.
    pub fn new(buildings: u32, floors_per_building: u32, clients_per_floor: u32) -> Self {
        CampusConfig {
            buildings,
            floors_per_building,
            clients_per_floor,
            wifi_channels: 3,
            hybrid_every: 2,
            wifi: WifiCapacityModel::default(),
            plc: PlcCapacityModel::default(),
        }
    }

    /// Total node count: per building, `floors × (router + clients)` plus
    /// the building router; plus the campus core.
    pub fn node_count(&self) -> usize {
        let per_building =
            self.floors_per_building as usize * (1 + self.clients_per_floor as usize);
        self.buildings as usize * (per_building + 1) + 1
    }
}

/// One generated floor cell.
#[derive(Debug, Clone)]
pub struct CampusFloor {
    /// Building (grid row) and floor (grid column) indices.
    pub building: u32,
    pub floor: u32,
    /// The floor router (hybrid WiFi/PLC, Ethernet uplink).
    pub router: NodeId,
    /// Client stations, in generation order.
    pub clients: Vec<NodeId>,
    /// Clients with a PLC link to the router (superset of the configured
    /// hybrid mix: WiFi-blocked clients fall back to PLC).
    pub plc_clients: Vec<NodeId>,
    /// The floor's WiFi reuse channel.
    pub channel: u8,
    /// The floor's electrical panel.
    pub panel: PanelId,
}

/// A generated campus.
#[derive(Debug, Clone)]
pub struct CampusTopology {
    pub net: Network,
    /// Floors in `(building, floor)` row-major order.
    pub floors: Vec<CampusFloor>,
    /// One Ethernet aggregation router per building.
    pub building_routers: Vec<NodeId>,
    /// The campus core switch.
    pub core: NodeId,
}

/// Generates a campus topology. Purely a function of the generator state
/// and the config: the same seeded [`Rng`] reproduces the same network.
pub fn campus<R: Rng + ?Sized>(rng: &mut R, config: &CampusConfig) -> CampusTopology {
    assert!(config.buildings > 0 && config.floors_per_building > 0, "empty campus");
    assert!(config.wifi_channels > 0, "at least one WiFi channel");
    let mut b = NetworkBuilder::new();
    let mut floors = Vec::new();

    let core = b.add_labeled_node(
        Point::new(-2.0 * FLOOR_SPACING_M, -FLOOR_SPACING_M),
        vec![Medium::Ethernet],
        None,
        "core",
    );
    let mut building_routers = Vec::new();
    for bi in 0..config.buildings {
        let br = b.add_labeled_node(
            Point::new(-FLOOR_SPACING_M, bi as f64 * FLOOR_SPACING_M),
            vec![Medium::Ethernet],
            None,
            format!("b{bi}/agg"),
        );
        b.add_duplex(br, core, Medium::Ethernet, SPINE_MBPS);
        building_routers.push(br);

        for fi in 0..config.floors_per_building {
            let origin = Point::new(fi as f64 * FLOOR_SPACING_M, bi as f64 * FLOOR_SPACING_M);
            let channel = 1 + (fi % config.wifi_channels as u32) as u8;
            let wifi = Medium::Wifi { channel };
            let panel = PanelId(bi * config.floors_per_building + fi);
            let router_pos = Point::new(origin.x + FLOOR_W_M / 2.0, origin.y + FLOOR_H_M / 2.0);
            let router = b.add_labeled_node(
                router_pos,
                vec![wifi, Medium::Plc, Medium::Ethernet],
                Some(panel),
                format!("b{bi}/f{fi}/ap"),
            );
            b.add_duplex(router, br, Medium::Ethernet, RISER_MBPS);

            let mut clients = Vec::new();
            let mut plc_clients = Vec::new();
            for ci in 0..config.clients_per_floor {
                let pos = Point::new(
                    origin.x + rng.gen_range(0.0..FLOOR_W_M),
                    origin.y + rng.gen_range(0.0..FLOOR_H_M),
                );
                let dist = pos.distance(router_pos);
                let wifi_cap = config.wifi.sample(rng, dist);
                let wants_plc = config.hybrid_every > 0 && ci % config.hybrid_every == 0;
                // WiFi-blocked clients keep connectivity through the
                // power line — the paper's core coverage argument
                // (§5.2.1) at campus scale.
                let use_plc = wants_plc || wifi_cap.is_none();
                let mut mediums = Vec::new();
                if wifi_cap.is_some() {
                    mediums.push(wifi);
                }
                if use_plc {
                    mediums.push(Medium::Plc);
                }
                let id = b.add_labeled_node(
                    pos,
                    mediums,
                    use_plc.then_some(panel),
                    format!("b{bi}/f{fi}/c{ci}"),
                );
                if let Some(cap) = wifi_cap {
                    b.add_duplex(id, router, wifi, cap);
                }
                if use_plc {
                    let cap = config
                        .plc
                        .sample(rng, dist)
                        .unwrap_or(config.plc.max_capacity_mbps * config.plc.quality_floor);
                    b.add_duplex(id, router, Medium::Plc, cap);
                    plc_clients.push(id);
                }
                clients.push(id);
            }
            floors.push(CampusFloor {
                building: bi,
                floor: fi,
                router,
                clients,
                plc_clients,
                channel,
                panel,
            });
        }
    }

    CampusTopology { net: b.build(), floors, building_routers, core }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::{CarrierSense, InterferenceMap};
    use crate::rng::{SeedableRng, StdRng};

    fn small() -> CampusTopology {
        let mut rng = StdRng::seed_from_u64(7);
        campus(&mut rng, &CampusConfig::new(2, 3, 5))
    }

    #[test]
    fn node_count_matches_formula() {
        let cfg = CampusConfig::new(2, 5, 9);
        assert_eq!(cfg.node_count(), 103);
        assert_eq!(CampusConfig::new(5, 10, 9).node_count(), 506);
        assert_eq!(CampusConfig::new(10, 10, 9).node_count(), 1011);
        let mut rng = StdRng::seed_from_u64(1);
        let t = campus(&mut rng, &cfg);
        assert_eq!(t.net.node_count(), cfg.node_count());
    }

    #[test]
    fn every_client_reaches_its_router() {
        let t = small();
        for fl in &t.floors {
            for &c in &fl.clients {
                let attached = t.net.out_links(c).any(|l| l.to == fl.router && l.is_alive());
                assert!(attached, "client {c} has no link to its floor router");
            }
        }
    }

    #[test]
    fn wifi_domains_stay_within_a_floor() {
        let t = small();
        let imap = InterferenceMap::build(&t.net, &CarrierSense::default());
        // Map every link to its floor (by router membership); Ethernet
        // links have no floor.
        let floor_of =
            |n: NodeId| t.floors.iter().position(|f| f.router == n || f.clients.contains(&n));
        for l in t.net.links() {
            if l.medium == Medium::Ethernet {
                continue;
            }
            let fa = floor_of(l.from).expect("shared-medium link endpoint on a floor");
            for &m in imap.domain(l.id) {
                let lm = t.net.link(m);
                let fb = floor_of(lm.from).expect("domain member on a floor");
                assert_eq!(fa, fb, "links {l:?} and {lm:?} share a domain across floors");
            }
        }
    }

    #[test]
    fn channels_cycle_and_panels_are_per_floor() {
        let t = small();
        assert_eq!(t.floors[0].channel, 1);
        assert_eq!(t.floors[1].channel, 2);
        assert_eq!(t.floors[2].channel, 3);
        // Same floor index in the next building reuses the channel.
        assert_eq!(t.floors[3].channel, 1);
        let panels: std::collections::BTreeSet<_> = t.floors.iter().map(|f| f.panel).collect();
        assert_eq!(panels.len(), t.floors.len(), "one panel per floor");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = campus(&mut StdRng::seed_from_u64(3), &CampusConfig::new(2, 2, 6));
        let b = campus(&mut StdRng::seed_from_u64(3), &CampusConfig::new(2, 2, 6));
        assert_eq!(a.net.link_count(), b.net.link_count());
        for (x, y) in a.net.links().iter().zip(b.net.links()) {
            assert_eq!(x.capacity_mbps, y.capacity_mbps);
            assert_eq!(x.medium, y.medium);
        }
    }

    #[test]
    fn risers_are_ethernet_and_reach_the_core() {
        let t = small();
        for fl in &t.floors {
            let up = t
                .net
                .out_links(fl.router)
                .find(|l| l.medium == Medium::Ethernet)
                .expect("floor uplink");
            assert_eq!(up.to, t.building_routers[fl.building as usize]);
        }
        for &br in &t.building_routers {
            assert!(t.net.out_links(br).any(|l| l.to == t.core));
        }
    }
}
