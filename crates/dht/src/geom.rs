//! Geometry of the CAN coordinate space.
//!
//! CAN (§3.1.1) partitions a logical d-dimensional Cartesian torus into
//! hyper-rectangular *zones*, one owner per zone. Coordinates are 32-bit
//! per dimension, and a zone is held at that width: per dimension its
//! lowest and its last (inclusive) coordinate, two `u32`s, so a zone is
//! 64 bytes — one cache line — at `MAX_D`. Its half-open bounds are read
//! as `u64`s through [`Zone::lo`] and [`Zone::hi`], where the exclusive
//! upper bound of the full space, `2^32`, is representable; all geometry
//! is arithmetic on those. Zones are produced only by bisection of the
//! full space, so an individual zone never wraps around the torus — but
//! *adjacency* and *distance* are toroidal.

/// Extent of each dimension: coordinates live in `[0, SPACE)`.
pub const SPACE: u64 = 1 << 32;

/// Maximum supported CAN dimensionality.
pub const MAX_D: usize = 8;

/// A point in the d-dimensional torus. Only the first `d` coordinates of
/// a deployment's configured dimensionality are meaningful.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Point {
    pub c: [u32; MAX_D],
}

impl Point {
    /// Derive the CAN point for a DHT key using d independent hash
    /// functions, one per dimension (paper, footnote 2).
    pub fn from_key(key: u64, d: usize) -> Point {
        let mut c = [0u32; MAX_D];
        for (i, ci) in c.iter_mut().enumerate().take(d) {
            *ci = (splitmix64(key ^ (0xA076_1D64_78BD_642F_u64.wrapping_mul(i as u64 + 1))) >> 32)
                as u32;
        }
        Point { c }
    }
}

/// Distance between two coordinates on the 2^32 circle.
#[inline]
pub fn circle_dist(a: u64, b: u64) -> u64 {
    let fwd = (a.wrapping_sub(b)) & (SPACE - 1);
    let bwd = (b.wrapping_sub(a)) & (SPACE - 1);
    fwd.min(bwd)
}

/// A zone: the half-open box `[lo, hi)` per dimension, `lo < hi <= SPACE`,
/// stored as `lo` and `last = hi - 1`, which fit 32 bits where `hi` may not.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Zone {
    lo: [u32; MAX_D],
    last: [u32; MAX_D],
}

const _: () = assert!(std::mem::size_of::<Zone>() == 64);

impl Zone {
    /// The entire coordinate space for dimensionality `d`: `[0, 1)` in
    /// the unused dimensions, so volume stays sane.
    pub fn whole(d: usize) -> Zone {
        let mut z = Zone {
            lo: [0; MAX_D],
            last: [0; MAX_D],
        };
        for i in 0..d {
            z.set(i, 0, SPACE);
        }
        z
    }

    /// Lower bound in dimension `i` (inclusive).
    #[inline]
    pub fn lo(&self, i: usize) -> u64 {
        self.lo[i] as u64
    }

    /// Upper bound in dimension `i` (exclusive), at most `SPACE`.
    #[inline]
    pub fn hi(&self, i: usize) -> u64 {
        self.last[i] as u64 + 1
    }

    /// Make dimension `i` the half-open interval `[lo, hi)`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, lo: u64, hi: u64) {
        assert!(lo < hi && hi <= SPACE, "empty or oversized extent");
        self.lo[i] = lo as u32;
        self.last[i] = (hi - 1) as u32;
    }

    pub fn contains(&self, p: Point, d: usize) -> bool {
        (0..d).all(|i| {
            let c = p.c[i] as u64;
            self.lo(i) <= c && c < self.hi(i)
        })
    }

    /// Hyper-volume in *scaled units*: per-dimension extents are divided
    /// by `2^shift` with `shift` chosen so the whole space fits in u128.
    /// Zone extents produced by bisection are powers of two ≥ 2^shift at
    /// every realistic scale, so sums and comparisons remain exact.
    pub fn volume(&self, d: usize) -> u128 {
        let shift = Self::volume_shift(d);
        let mut v: u128 = 1;
        for i in 0..d {
            v = v.saturating_mul(((self.hi(i) - self.lo(i)) >> shift) as u128);
        }
        v
    }

    /// Per-dimension scaling exponent so `(2^(32-shift))^d < 2^127`.
    #[inline]
    fn volume_shift(d: usize) -> u32 {
        32u32.saturating_sub(126 / d as u32)
    }

    /// Center point of the zone.
    pub fn center(&self, d: usize) -> Point {
        let mut c = [0u32; MAX_D];
        for (i, ci) in c.iter_mut().enumerate().take(d) {
            *ci = ((self.lo(i) + self.hi(i)) / 2).min(SPACE - 1) as u32;
        }
        Point { c }
    }

    /// Squared toroidal L2 distance from `p` to the closest point of the
    /// zone (0 when `p` is inside). On a circle the nearest point of an
    /// arc to an outside point is one of the arc's endpoints.
    pub fn dist2(&self, p: Point, d: usize) -> u128 {
        let mut sum: u128 = 0;
        for i in 0..d {
            let c = p.c[i] as u64;
            if self.lo(i) <= c && c < self.hi(i) {
                continue;
            }
            let dd = circle_dist(c, self.lo(i)).min(circle_dist(c, self.hi(i) - 1));
            sum += (dd as u128) * (dd as u128);
        }
        sum
    }

    /// Dimension with the largest extent (lowest index on ties) — the
    /// dimension along which this zone will next be split. Splitting the
    /// longest side keeps zones square-ish, which keeps greedy routing
    /// efficient regardless of join order.
    pub fn split_dim(&self, d: usize) -> usize {
        let mut best = 0;
        let mut best_ext = 0u64;
        for i in 0..d {
            let ext = self.hi(i) - self.lo(i);
            if ext > best_ext {
                best_ext = ext;
                best = i;
            }
        }
        best
    }

    /// Bisect into (lower, upper) halves along `dim`.
    pub fn split(&self, dim: usize) -> (Zone, Zone) {
        debug_assert!(self.hi(dim) - self.lo(dim) >= 2, "zone too thin to split");
        let mid = self.lo(dim) + (self.hi(dim) - self.lo(dim)) / 2;
        let mut lower = *self;
        let mut upper = *self;
        lower.set(dim, self.lo(dim), mid);
        upper.set(dim, mid, self.hi(dim));
        (lower, upper)
    }

    /// Standard (non-toroidal) interval overlap in dimension `i`.
    #[inline]
    fn overlaps_dim(&self, other: &Zone, i: usize) -> bool {
        self.lo(i).max(other.lo(i)) < self.hi(i).min(other.hi(i))
    }

    /// Whether the intervals abut in dimension `i`, including across the
    /// torus seam (`SPACE` wraps to 0).
    #[inline]
    fn abuts_dim(&self, other: &Zone, i: usize) -> bool {
        (self.hi(i) % SPACE) == other.lo(i) || (other.hi(i) % SPACE) == self.lo(i)
    }

    /// In how many dimensions the boxes abut without overlapping, when
    /// they overlap in all the others and abut in at most one; `None`
    /// when some dimension keeps them apart or they abut in two.
    #[inline]
    fn abut_dims(&self, other: &Zone, d: usize) -> Option<usize> {
        let mut abut_dims = 0;
        for i in 0..d {
            if self.overlaps_dim(other, i) {
                continue;
            }
            if abut_dims == 1 || !self.abuts_dim(other, i) {
                return None;
            }
            abut_dims = 1;
        }
        Some(abut_dims)
    }

    /// CAN neighbor relation: the zones share a (d-1)-dimensional face —
    /// they abut in exactly one dimension and overlap in all others.
    pub fn is_neighbor(&self, other: &Zone, d: usize) -> bool {
        self.abut_dims(other, d) == Some(1)
    }

    /// Whether this box can hold a CAN neighbor of `zone`: it overlaps
    /// `zone` in every dimension but at most one, and abuts it (across
    /// the torus seam too) in that one. Every box holding a zone that
    /// shares a face with `zone` passes, so a search over nested boxes
    /// may skip any box that fails.
    pub fn reaches(&self, zone: &Zone, d: usize) -> bool {
        self.abut_dims(zone, d).is_some()
    }

    /// Whether the zones overlap in every dimension (share interior).
    pub fn intersects(&self, other: &Zone, d: usize) -> bool {
        (0..d).all(|i| self.overlaps_dim(other, i))
    }

    /// Intersection box, if the zones intersect.
    pub fn intersection(&self, other: &Zone, d: usize) -> Option<Zone> {
        if !self.intersects(other, d) {
            return None;
        }
        let mut z = *self;
        for i in 0..d {
            z.set(i, self.lo(i).max(other.lo(i)), self.hi(i).min(other.hi(i)));
        }
        Some(z)
    }

    /// Guillotine decomposition of `self \ inner` into at most `2d`
    /// disjoint boxes, yielded as they are cut (per dimension, the slab
    /// below `inner` and then the one above). `inner` must be contained
    /// in `self`. Used by the multicast directed flood to hand unfinished
    /// space to sub-trees: once per delivery, so the slabs are not
    /// collected.
    pub fn subtract(&self, inner: &Zone, d: usize) -> impl Iterator<Item = Zone> {
        let (mut cur, inner) = (*self, *inner);
        (0..2 * d).filter_map(move |cut| {
            let i = cut / 2;
            let mut slab = cur;
            if cut % 2 == 0 {
                if cur.lo(i) >= inner.lo(i) {
                    return None;
                }
                slab.set(i, cur.lo(i), inner.lo(i));
                cur.set(i, inner.lo(i), cur.hi(i));
            } else {
                if inner.hi(i) >= cur.hi(i) {
                    return None;
                }
                slab.set(i, inner.hi(i), cur.hi(i));
                cur.set(i, cur.lo(i), inner.hi(i));
            }
            Some(slab)
        })
    }

    /// Whether two zones merge into a single box (same extent in all dims
    /// but one, where they abut without wrap). Returns the merged zone.
    pub fn try_merge(&self, other: &Zone, d: usize) -> Option<Zone> {
        let mut diff = None;
        for i in 0..d {
            if self.lo(i) == other.lo(i) && self.hi(i) == other.hi(i) {
                continue;
            }
            if diff.is_some() {
                return None;
            }
            if self.hi(i) == other.lo(i) || other.hi(i) == self.lo(i) {
                diff = Some(i);
            } else {
                return None;
            }
        }
        let i = diff?;
        let mut z = *self;
        z.set(i, self.lo(i).min(other.lo(i)), self.hi(i).max(other.hi(i)));
        Some(z)
    }
}

/// SplitMix64 — the workhorse hash for keys, points and ids.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash two 64-bit values into one (order-sensitive).
#[inline]
pub fn hash2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b.rotate_left(32))
}

/// Hash a string to a 64-bit id (FNV-1a).
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const D: usize = 4;

    #[test]
    fn whole_space_contains_everything() {
        let z = Zone::whole(D);
        for key in 0..200u64 {
            assert!(z.contains(Point::from_key(key, D), D));
        }
        assert_eq!(z.volume(2), (SPACE as u128) * (SPACE as u128));
    }

    #[test]
    fn split_partitions_the_zone() {
        let z = Zone::whole(D);
        let dim = z.split_dim(D);
        assert_eq!(dim, 0); // all extents equal, lowest index wins
        let (a, b) = z.split(dim);
        assert_eq!(a.volume(D) + b.volume(D), z.volume(D));
        for key in 0..500u64 {
            let p = Point::from_key(key, D);
            assert!(a.contains(p, D) ^ b.contains(p, D));
        }
        assert!(a.is_neighbor(&b, D));
        assert!(b.is_neighbor(&a, D));
    }

    #[test]
    fn split_dim_cycles_round_the_dimensions() {
        // Repeated halving of the whole space visits dims 0,1,2,3,0,1,...
        let mut z = Zone::whole(D);
        for round in 0..8 {
            let dim = z.split_dim(D);
            assert_eq!(dim, round % D);
            z = z.split(dim).0;
        }
    }

    #[test]
    fn neighbor_relation_wraps_around_the_torus() {
        // Two slabs at opposite ends of dim 0.
        let mut a = Zone::whole(D);
        a.set(0, 0, SPACE / 4);
        let mut b = Zone::whole(D);
        b.set(0, 3 * SPACE / 4, SPACE);
        assert!(a.is_neighbor(&b, D), "abut across the seam");
        // Shrink b in dim 1 so they still overlap there: still neighbors.
        b.set(1, 0, SPACE / 2);
        assert!(a.is_neighbor(&b, D));
        // Disjoint in dim 1 and abutting in dim 0 and dim 1: corner
        // contact only — not neighbors.
        let mut c = Zone::whole(D);
        c.set(0, 3 * SPACE / 4, SPACE);
        c.set(1, SPACE / 2, SPACE);
        let mut a2 = a;
        a2.set(1, 0, SPACE / 2);
        assert!(!a2.is_neighbor(&c, D));
    }

    #[test]
    fn dist2_zero_inside_positive_outside() {
        let (a, b) = Zone::whole(D).split(0);
        let mut inside = Point { c: [0; MAX_D] };
        inside.c[0] = 1;
        assert_eq!(a.dist2(inside, D), 0);
        let mut outside = inside;
        outside.c[0] = (SPACE / 2 + 10) as u32;
        assert!(a.dist2(outside, D) > 0);
        assert_eq!(b.dist2(outside, D), 0);
    }

    #[test]
    fn circle_dist_is_symmetric_and_wraps() {
        assert_eq!(circle_dist(0, SPACE - 1), 1);
        assert_eq!(circle_dist(SPACE - 1, 0), 1);
        assert_eq!(circle_dist(10, 10), 0);
        assert_eq!(circle_dist(0, SPACE / 2), SPACE / 2);
    }

    #[test]
    fn subtract_covers_exactly_the_difference() {
        let outer = Zone::whole(2);
        let mut inner = outer;
        inner.set(0, SPACE / 4, SPACE / 2);
        inner.set(1, SPACE / 8, SPACE / 2);
        let parts: Vec<Zone> = outer.subtract(&inner, 2).collect();
        // Per dimension, the slab below `inner` and then the one above.
        let cuts: Vec<(u64, u64)> = parts.iter().map(|z| (z.lo(0), z.hi(0))).collect();
        let (q, h) = (SPACE / 4, SPACE / 2);
        assert_eq!(cuts, [(0, q), (h, SPACE), (q, h), (q, h)]);
        assert_eq!((parts[2].hi(1), parts[3].lo(1)), (SPACE / 8, h));
        let vol: u128 = parts.iter().map(|z| z.volume(2)).sum();
        assert_eq!(vol + inner.volume(2), outer.volume(2));
        // Parts are pairwise disjoint and disjoint from inner.
        for (i, a) in parts.iter().enumerate() {
            assert!(!a.intersects(&inner, 2));
            for b in parts.iter().skip(i + 1) {
                assert!(!a.intersects(b, 2));
            }
        }
    }

    #[test]
    fn try_merge_restores_split() {
        let z = Zone::whole(D);
        let (a, b) = z.split(2);
        assert_eq!(a.try_merge(&b, D), Some(z));
        assert_eq!(b.try_merge(&a, D), Some(z));
        let (a1, _a2) = a.split(a.split_dim(D));
        assert_eq!(a1.try_merge(&b, D), None);
    }

    /// Build a random partition of the space by repeatedly splitting a
    /// random zone, mirroring how CAN joins carve the space.
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

    proptest! {
        #[test]
        fn partition_is_exact_cover(n in 1usize..64, seed in any::<u64>(), key in any::<u64>()) {
            let zones = random_partition(n, seed, D);
            let p = Point::from_key(key, D);
            let owners = zones.iter().filter(|z| z.contains(p, D)).count();
            prop_assert_eq!(owners, 1);
            let vol: u128 = zones.iter().map(|z| z.volume(D)).sum();
            prop_assert_eq!(vol, Zone::whole(D).volume(D));
        }

        #[test]
        fn neighbor_relation_is_symmetric(n in 2usize..48, seed in any::<u64>()) {
            let zones = random_partition(n, seed, D);
            for i in 0..zones.len() {
                for j in 0..zones.len() {
                    prop_assert_eq!(
                        zones[i].is_neighbor(&zones[j], D),
                        zones[j].is_neighbor(&zones[i], D)
                    );
                }
            }
        }

        #[test]
        fn dist2_respects_containment(n in 1usize..48, seed in any::<u64>(), key in any::<u64>()) {
            let zones = random_partition(n, seed, D);
            let p = Point::from_key(key, D);
            for z in &zones {
                prop_assert_eq!(z.contains(p, D), z.dist2(p, D) == 0);
            }
        }

        #[test]
        fn subtract_never_overlaps(seed in any::<u64>()) {
            let zones = random_partition(16, seed, D);
            let whole = Zone::whole(D);
            for z in &zones {
                let vol: u128 = whole.subtract(z, D).map(|q| q.volume(D)).sum();
                prop_assert_eq!(vol + z.volume(D), whole.volume(D));
            }
        }

        #[test]
        fn point_from_key_is_deterministic(key in any::<u64>()) {
            prop_assert_eq!(Point::from_key(key, D), Point::from_key(key, D));
        }
    }
}
