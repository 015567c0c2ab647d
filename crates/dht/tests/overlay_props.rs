//! Properties of the stabilized CAN bootstrap: `balanced_overlay` finds
//! exactly the neighbors an all-pairs `is_neighbor` scan finds, the
//! relation is symmetric, every node holds one shared second-hop map per
//! neighbor, every holder of a node's zone list holds the node's own
//! list, and `balanced_zones` splits as a largest-first linear scan
//! would.

use std::collections::BTreeMap;
use std::sync::Arc;

use pier_dht::can::{balanced_overlay, balanced_zones};
use pier_dht::geom::Zone;
use pier_dht::msg::{NeighborMap, Zones};
use pier_simnet::time::Time;
use pier_simnet::NodeId;
use proptest::prelude::*;

/// The partition by rescanning for the largest zone before every split
/// (lowest index on ties): the lower half keeps the index, the upper
/// half is appended.
fn linear_scan_zones(n: usize, d: usize) -> Vec<Zone> {
    let mut zones = vec![Zone::whole(d)];
    while zones.len() < n {
        let (idx, _) = zones
            .iter()
            .enumerate()
            .max_by_key(|(i, z)| (z.volume(d), usize::MAX - i))
            .unwrap();
        let z = zones[idx];
        let (a, b) = z.split(z.split_dim(d));
        zones[idx] = a;
        zones.push(b);
    }
    zones
}

/// Every node's neighbor ids by testing all pairs.
fn all_pairs_neighbors(zones: &[Zone], d: usize) -> Vec<Vec<NodeId>> {
    (0..zones.len())
        .map(|i| {
            (0..zones.len())
                .filter(|&j| j != i && zones[i].is_neighbor(&zones[j], d))
                .map(|j| j as NodeId)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn balanced_overlay_equals_the_all_pairs_scan(n in 1usize..701, d in 1usize..7) {
        let zones = balanced_zones(n, d);
        prop_assert_eq!(&zones, &linear_scan_zones(n, d));
        let states = balanced_overlay(n, d, Time::ZERO);
        prop_assert_eq!(states.len(), n);
        let want = all_pairs_neighbors(&zones, d);
        // Each neighbor's map, as the first node holding it holds it.
        let mut shared: BTreeMap<NodeId, &NeighborMap> = BTreeMap::new();
        for (i, s) in states.iter().enumerate() {
            prop_assert_eq!(s.me, i as NodeId);
            prop_assert_eq!(&s.zones[..], &[zones[i]][..]);
            let got: Vec<NodeId> = s.neighbors.keys().copied().collect();
            prop_assert_eq!(&got, &want[i]);
            for (&j, info) in &s.neighbors {
                prop_assert!(states[j as usize].neighbors.contains_key(&(i as NodeId)));
                prop_assert_eq!(&info.zones[..], &[zones[j as usize]][..]);
                // The neighbor's zones are its own list, not a copy.
                prop_assert!(Arc::ptr_eq(&states[j as usize].zones, &info.zones));
                // The second-hop map is the neighbor's own table...
                let table: Vec<(NodeId, Zones)> = states[j as usize]
                    .neighbors
                    .iter()
                    .map(|(&k, nk)| (k, nk.zones.clone()))
                    .collect();
                prop_assert_eq!(&info.their_neighbors[..], &table[..]);
                // ...and one allocation, whoever holds it.
                let first = shared.entry(j).or_insert(&info.their_neighbors);
                prop_assert!(Arc::ptr_eq(first, &info.their_neighbors));
                // ...whose entries are the named nodes' own lists.
                for (k, zk) in info.their_neighbors.iter() {
                    prop_assert!(Arc::ptr_eq(&states[*k as usize].zones, zk));
                }
            }
        }
    }
}
