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

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use pier_dht::can::{balanced_overlay, CanState};
use pier_dht::geom::{splitmix64, Point, Zone, MAX_D};
use pier_simnet::time::Time;

use pin::Fnv;

/// A zone's half-open extent `[lo, hi)` in dimension `i`.
fn bounds(z: &Zone, i: usize) -> (u64, u64) {
    (z.lo(i), z.hi(i))
}

impl Fnv {
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
    let mut h = Fnv::default();
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
        c.zones,
        c.hops,
        c.neighbors,
        c.intersections,
        c.slabs,
        c.merges,
        h.finish()
    )
}

const NS: [usize; 2] = [257, 1_000];
const DS: [usize; 6] = [1, 2, 3, 4, 6, 8];

#[test]
fn zone_geometry_digests() {
    let now: Vec<String> = NS
        .iter()
        .flat_map(|&n| DS.iter().map(move |&d| line(n, d)))
        .collect();
    pin!("zone_geometry_digests", now.join("\n"));
}
