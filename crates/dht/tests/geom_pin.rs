//! Pin of the CAN geometry: what `Zone` computes, as one digest per
//! (n, d), for d up to `MAX_D`.
//!
//! Each line covers three things, folded into one FNV digest with a
//! count beside each so a moved line says what moved:
//! - every zone `balanced_overlay(n, d)` builds: its bounds in all
//!   `MAX_D` dimensions, its `volume` and its `center`;
//! - the greedy `next_hop` path of 256 seeded keys from every 16th node,
//!   hop by hop, to the node owning the key;
//! - a seeded 64-zone bisection partition and every box its splits went
//!   through (127 boxes): for every ordered pair, `is_neighbor`,
//!   `intersection`, the `subtract` boxes of that intersection and
//!   `try_merge`; and every box's `dist2` to 256 seeded points.
//!
//! Bounds are read through [`bounds`] alone, so a change of how a zone
//! stores them touches that helper and no expected line.

use pier_dht::can::{balanced_overlay, CanState};
use pier_dht::geom::{splitmix64, Point, Zone, MAX_D};
use pier_simnet::time::Time;

/// A zone's half-open extent `[lo, hi)` in dimension `i`.
fn bounds(z: &Zone, i: usize) -> (u64, u64) {
    (z.lo(i), z.hi(i))
}

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn wide(&mut self, w: u128) {
        self.word(w as u64);
        self.word((w >> 64) as u64);
    }

    fn zone(&mut self, z: &Zone) {
        for i in 0..MAX_D {
            let (lo, hi) = bounds(z, i);
            self.word(lo);
            self.word(hi);
        }
    }

    fn point(&mut self, p: Point) {
        for c in p.c {
            self.word(c as u64);
        }
    }
}

/// What one (n, d) line counts besides its digest.
#[derive(Default)]
struct Counts {
    zones: usize,
    hops: usize,
    neighbors: usize,
    intersections: usize,
    slabs: usize,
    merges: usize,
}

/// Every 16th node routes 256 seeded keys greedily to their owners.
fn routes(h: &mut Fnv, c: &mut Counts, states: &[CanState], n: usize, d: usize) {
    let mut s = (n as u64) << 8 | d as u64;
    for start in (0..states.len()).step_by(16) {
        for _ in 0..256 {
            s = splitmix64(s);
            let p = Point::from_key(s, d);
            let mut at = start;
            let mut path = 0;
            while !states[at].owns_point(p) {
                at = states[at].next_hop(p).expect("a neighbour") as usize;
                h.word(at as u64);
                path += 1;
                assert!(path <= n, "greedy route from {start} loops");
            }
            h.word(path as u64);
            c.hops += path;
        }
    }
}

/// A random bisection partition into `zones` zones, as CAN joins carve
/// the space, with every box any split produced (the whole space first).
fn partition_boxes(zones: usize, seed: u64, d: usize) -> Vec<Zone> {
    let mut live = vec![Zone::whole(d)];
    let mut boxes = live.clone();
    let mut s = seed;
    while live.len() < zones {
        s = splitmix64(s);
        let idx = (s as usize) % live.len();
        let z = live[idx];
        let (a, b) = z.split(z.split_dim(d));
        live[idx] = a;
        live.push(b);
        boxes.extend([a, b]);
    }
    boxes
}

/// Every pairwise relation over one seeded partition's boxes, and their
/// distances to 256 seeded points.
fn relations(h: &mut Fnv, c: &mut Counts, n: usize, d: usize) {
    let boxes = partition_boxes(64, splitmix64((n * 16 + d) as u64), d);
    for a in &boxes {
        for b in &boxes {
            let neighbor = a.is_neighbor(b, d);
            h.word(neighbor as u64);
            c.neighbors += neighbor as usize;
            if let Some(x) = a.intersection(b, d) {
                h.zone(&x);
                c.intersections += 1;
                for slab in a.subtract(&x, d) {
                    h.zone(&slab);
                    c.slabs += 1;
                }
            }
            if let Some(m) = a.try_merge(b, d) {
                h.zone(&m);
                c.merges += 1;
            }
        }
    }
    let mut s = !(n as u64) ^ d as u64;
    for _ in 0..256 {
        s = splitmix64(s);
        let p = Point::from_key(s, d);
        for z in &boxes {
            h.wide(z.dist2(p, d));
        }
    }
}

/// `n d zones hops neighbors intersections slabs merges digest`.
fn line(n: usize, d: usize) -> String {
    let states = balanced_overlay(n, d, Time::ZERO);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut c = Counts::default();
    for s in &states {
        for z in s.zones.iter() {
            h.zone(z);
            h.wide(z.volume(d));
            h.point(z.center(d));
            c.zones += 1;
        }
    }
    routes(&mut h, &mut c, &states, n, d);
    relations(&mut h, &mut c, n, d);
    format!(
        "{n} {d} {} {} {} {} {} {} {:016x}",
        c.zones, c.hops, c.neighbors, c.intersections, c.slabs, c.merges, h.0
    )
}

const NS: [usize; 2] = [257, 1_000];
const DS: [usize; 6] = [1, 2, 3, 4, 6, 8];

const PIN: [&str; 12] = [
    "257 1 257 280232 588 1755 1385 550 a91ebad463d4a3dc",
    "257 2 257 34593 1658 1983 2589 390 eb8819ecd0d57994",
    "257 3 257 21930 2862 1655 2369 386 4980a795e4845b2b",
    "257 4 257 17311 3656 1771 2997 388 a3519f11ab004c36",
    "257 6 257 17316 3766 1675 2921 348 a1b18174b53bb32c",
    "257 8 257 17487 4114 1775 3380 370 29b4a99f7e2e6af9",
    "1000 1 1000 4057144 584 1743 1363 522 198aa4122f37d570",
    "1000 2 1000 249320 1724 1891 2505 400 435483126a21ef50",
    "1000 3 1000 123808 2868 2187 3647 376 117a0730ef5d1fe8",
    "1000 4 1000 93737 3472 1595 2465 396 91500bb13ccf4c7b",
    "1000 6 1000 79125 3990 1719 3132 398 e194e4e2d0f4fc87",
    "1000 8 1000 79619 4102 1847 3689 362 9cfc423784318c33",
];

#[test]
fn zone_geometry_digests() {
    let now: Vec<String> = NS
        .iter()
        .flat_map(|&n| DS.iter().map(move |&d| line(n, d)))
        .collect();
    assert_eq!(now, PIN, "now:\n{now:#?}");
}
