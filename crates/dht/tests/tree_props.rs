//! Properties of the combine tree toward a key (`Overlay::tree_seat`) on
//! stabilized overlays of 8 to 1 024 nodes: there is one root, every
//! node's parent chain reaches it, the children a CAN node names are
//! exactly the nodes that name it as parent, and the shares of all
//! nodes sum to the whole key space on CAN and on Chord. A Chord node
//! that has lost its predecessor claims neither the root nor a share.

use pier_dht::overlay::{Overlay, TreeSeat};
use pier_dht::{DhtConfig, OverlayKind};
use pier_simnet::NodeId;
use proptest::prelude::*;

fn seats(n: usize, kind: OverlayKind, key: u64) -> Vec<TreeSeat> {
    let cfg = DhtConfig::static_network().with_overlay(kind);
    let overlays = Overlay::stabilized(n, &cfg);
    overlays.iter().map(|o| o.tree_seat(key)).collect()
}

fn check(n: usize, kind: OverlayKind, key: u64) {
    let seats = seats(n, kind, key);
    let roots: Vec<usize> = (0..n).filter(|&i| seats[i].parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "{:?} n={}: roots {:?}", kind, n, roots);
    for start in 0..n {
        let (mut at, mut hops) = (start, 0);
        while let Some(parent) = seats[at].parent {
            at = parent as usize;
            hops += 1;
            assert!(
                hops < n,
                "{:?} n={}: node {} never reaches the root",
                kind,
                n,
                start
            );
        }
        assert_eq!(at, roots[0]);
    }
    let whole = seats[0].whole;
    let shares = seats
        .iter()
        .try_fold(0u128, |sum, s| sum.checked_add(s.share));
    assert_eq!(shares, Some(whole), "{:?} n={}", kind, n);
    if kind == OverlayKind::Can {
        for (me, seat) in seats.iter().enumerate() {
            let named: Vec<NodeId> = (0..n as NodeId)
                .filter(|&c| seats[c as usize].parent == Some(me as NodeId))
                .collect();
            let mut children = seat.children.clone();
            children.sort_unstable();
            assert_eq!(children, named, "CAN n={}: children of {}", n, me);
        }
    }
}

#[test]
fn the_extremes_span_one_tree() {
    for kind in [OverlayKind::Can, OverlayKind::Chord] {
        for n in [8, 1024] {
            for key in [0, 7, u64::MAX] {
                check(n, kind, key);
            }
        }
    }
}

/// Chord, with one node's predecessor forgotten (it timed out, or no
/// notify has come yet): that node claims every key, yet it is no root
/// and holds no share, so no tree has two roots and the shares stay
/// below the whole. It hands what it holds to its successor. Unless it
/// owns the key, the tree keeps its one root and every chain reaches it.
fn check_without_predecessor(overlays: &[Overlay], lost: usize, key: u64) {
    let n = overlays.len();
    let owner = root_of(&seats_of(overlays, key));
    let mut overlays = overlays.to_vec();
    let Overlay::Chord(c) = &mut overlays[lost] else {
        unreachable!("a Chord overlay")
    };
    c.predecessor = None;
    let successor = c.successor().map(|(_, id)| id);
    let seats = seats_of(&overlays, key);
    assert_eq!(seats[lost].share, 0, "n={n}: node {lost} keeps a share");
    assert_eq!(seats[lost].parent, successor, "n={n}: node {lost}");
    let roots: Vec<usize> = (0..n).filter(|&i| seats[i].parent.is_none()).collect();
    let shares: u128 = seats.iter().map(|s| s.share).sum();
    assert!(shares < seats[0].whole, "n={n}: shares {shares}");
    if owner == lost {
        assert!(
            roots.is_empty(),
            "n={n}: roots {roots:?} beside the lost owner"
        );
        return;
    }
    assert_eq!(roots, [owner], "n={n}: node {lost} lost its predecessor");
    for start in 0..n {
        let (mut at, mut hops) = (start, 0);
        while let Some(parent) = seats[at].parent {
            at = parent as usize;
            hops += 1;
            assert!(hops < n, "n={n}: node {start} never reaches the root");
        }
    }
}

fn seats_of(overlays: &[Overlay], key: u64) -> Vec<TreeSeat> {
    overlays.iter().map(|o| o.tree_seat(key)).collect()
}

fn root_of(seats: &[TreeSeat]) -> usize {
    seats.iter().position(|s| s.parent.is_none()).unwrap()
}

#[test]
fn a_chord_node_without_a_predecessor_claims_no_root_and_no_share() {
    let cfg = DhtConfig::static_network().with_overlay(OverlayKind::Chord);
    for n in [8, 64, 1024] {
        let overlays = Overlay::stabilized(n, &cfg);
        for key in [0, 7, u64::MAX] {
            let owner = root_of(&seats_of(&overlays, key));
            let Overlay::Chord(c) = &overlays[owner] else {
                unreachable!("a Chord overlay")
            };
            let next = c.successor().unwrap().1 as usize;
            let prev = c.predecessor.unwrap().1 as usize;
            for lost in [owner, next, prev, n / 2] {
                check_without_predecessor(&overlays, lost, key);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_tree_spans_the_overlay(n in 8usize..1025, key in any::<u64>(), chord in any::<bool>()) {
        let kind = if chord { OverlayKind::Chord } else { OverlayKind::Can };
        check(n, kind, key);
    }
}
