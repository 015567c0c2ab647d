//! Property tests for the CAN coordinate geometry: zone split/merge
//! round-trips must preserve exact torus coverage and keep the neighbor
//! relation symmetric — the invariants node join (split) and graceful
//! leave (merge) rely on.

use pier_dht::geom::{splitmix64, Point, Zone, MAX_D};
use proptest::prelude::*;

const D: usize = 4;

/// A random bisection partition of the space, mirroring CAN joins.
fn random_partition(n: usize, seed: u64, d: usize) -> Vec<Zone> {
    let mut zones = vec![Zone::whole(d)];
    let mut s = seed;
    while zones.len() < n {
        s = splitmix64(s);
        let idx = (s as usize) % zones.len();
        let z = zones[idx];
        let (a, b) = z.split(z.split_dim(d));
        zones[idx] = a;
        zones.push(b);
    }
    zones
}

fn total_volume(zones: &[Zone], d: usize) -> u128 {
    zones.iter().map(|z| z.volume(d)).sum()
}

fn point_of(key: u64) -> Point {
    Point::from_key(key, D)
}

proptest! {
    /// split() then try_merge() is the identity on any zone of any
    /// partition: the leave protocol can always undo the join protocol.
    #[test]
    fn split_then_merge_is_identity(n in 1usize..48, seed in any::<u64>()) {
        let zones = random_partition(n, seed, D);
        for z in &zones {
            let dim = z.split_dim(D);
            let (a, b) = z.split(dim);
            prop_assert_eq!(a.try_merge(&b, D), Some(*z));
            prop_assert_eq!(b.try_merge(&a, D), Some(*z));
            // The two halves are face-neighbors, symmetrically.
            prop_assert!(a.is_neighbor(&b, D) && b.is_neighbor(&a, D));
        }
    }

    /// Splitting one zone of a partition and merging it back preserves
    /// exact torus coverage: total volume, and single ownership of any
    /// probe point, at every step of the round-trip.
    #[test]
    fn split_merge_round_trip_preserves_coverage(
        n in 1usize..48,
        seed in any::<u64>(),
        key in any::<u64>(),
    ) {
        let mut zones = random_partition(n, seed, D);
        let whole_vol = Zone::whole(D).volume(D);
        let victim = (splitmix64(seed ^ 0xA5) as usize) % zones.len();
        let z = zones[victim];
        let (a, b) = z.split(z.split_dim(D));
        // After the split: still an exact cover.
        zones[victim] = a;
        zones.push(b);
        prop_assert_eq!(total_volume(&zones, D), whole_vol);
        let p = point_of(key);
        prop_assert_eq!(zones.iter().filter(|q| q.contains(p, D)).count(), 1);
        // After the merge: the original partition, exactly covered again.
        let b = zones.pop().unwrap();
        let merged = zones[victim].try_merge(&b, D).expect("halves re-merge");
        zones[victim] = merged;
        prop_assert_eq!(merged, z);
        prop_assert_eq!(total_volume(&zones, D), whole_vol);
        prop_assert_eq!(zones.iter().filter(|q| q.contains(p, D)).count(), 1);
    }

    /// Neighbor symmetry survives a split/merge round-trip: while the
    /// halves exist, each inherits neighbors consistently — for every
    /// pair of zones in the modified partition the relation stays
    /// symmetric, and any old neighbor of the parent neighbors at least
    /// one half.
    #[test]
    fn split_keeps_neighbor_relation_symmetric(n in 2usize..32, seed in any::<u64>()) {
        let mut zones = random_partition(n, seed, D);
        let victim = (splitmix64(seed ^ 0x5A) as usize) % zones.len();
        let parent = zones[victim];
        let old_neighbors: Vec<Zone> = zones
            .iter()
            .filter(|q| parent.is_neighbor(q, D))
            .copied()
            .collect();
        let (a, b) = parent.split(parent.split_dim(D));
        zones[victim] = a;
        zones.push(b);
        for i in 0..zones.len() {
            for j in 0..zones.len() {
                prop_assert_eq!(
                    zones[i].is_neighbor(&zones[j], D),
                    zones[j].is_neighbor(&zones[i], D)
                );
            }
        }
        for q in &old_neighbors {
            prop_assert!(
                a.is_neighbor(q, D) || b.is_neighbor(q, D),
                "a parent's neighbor must touch one half"
            );
        }
    }

    /// Unused dimensions stay degenerate through split/merge, so volumes
    /// computed at the deployment's dimensionality remain exact.
    #[test]
    fn split_never_touches_unused_dimensions(seed in any::<u64>()) {
        let zones = random_partition(16, seed, D);
        for z in &zones {
            for i in D..MAX_D {
                prop_assert_eq!(z.lo(i), 0);
                prop_assert_eq!(z.hi(i), 1);
            }
        }
    }
}
