//! End-to-end DHT tests on the discrete-event simulator: join protocol,
//! lookup-then-direct put/get, multicast coverage, soft-state aging and
//! renewal, failure detection with takeover. The provider scenarios run
//! once per overlay with the same assertions: DHT-agnosticism (§3.2) by
//! example.

use pier_dht::harness::{stabilized_can_sim, stabilized_chord_sim, stabilized_sim, DhtNode};
use pier_dht::{ns_of, DhtConfig, DhtEvent, OverlayKind};
use pier_simnet::time::Dur;
use pier_simnet::{NetConfig, NodeId, Sim};

type V = Vec<u8>;

const OVERLAYS: [OverlayKind; 2] = [OverlayKind::Can, OverlayKind::Chord];

fn cfg() -> DhtConfig {
    DhtConfig::default()
}

fn latency_only(seed: u64) -> NetConfig {
    NetConfig::latency_only(seed)
}

/// Grow an overlay by incremental joins through the real protocol.
fn grow_network(kind: OverlayKind, n: usize, seed: u64) -> Sim<DhtNode<V>> {
    let cfg = cfg().with_overlay(kind);
    let mut sim: Sim<DhtNode<V>> = Sim::new(latency_only(seed));
    sim.add_node(DhtNode::new(cfg.clone(), 0, None));
    for i in 1..n {
        sim.add_node(DhtNode::new(cfg.clone(), i as NodeId, Some(0)));
        // Let each join settle before the next (serial joins, like the
        // paper's setup phase).
        sim.run_for(Dur::from_secs(3));
    }
    sim.run_for(Dur::from_secs(10));
    sim
}

/// Run a provider scenario once per overlay, naming the overlay in the
/// captured output so a failure says which one it was.
fn on_each_overlay(scenario: impl Fn(OverlayKind)) {
    for kind in OVERLAYS {
        eprintln!("overlay: {kind:?}");
        scenario(kind);
    }
}

/// A pre-stabilized overlay of the given kind.
fn stabilized(kind: OverlayKind, n: usize, cfg: DhtConfig, seed: u64) -> Sim<DhtNode<V>> {
    stabilized_sim(n, cfg.with_overlay(kind), latency_only(seed))
}

#[test]
fn serial_joins_partition_the_space() {
    let n = 12;
    let mut sim = grow_network(OverlayKind::Can, n, 1);
    // Every node joined.
    for i in 0..n {
        assert!(
            sim.app(i as NodeId).unwrap().dht.is_joined(),
            "node {i} joined"
        );
    }
    // Every key has exactly one owner.
    for k in 0..200u64 {
        let key = pier_dht::key_of(ns_of("t"), k);
        let owners = (0..n)
            .filter(|&i| sim.app(i as NodeId).unwrap().dht.owns_key(key))
            .count();
        assert_eq!(owners, 1, "key {k}");
    }
    sim.run_for(Dur::ZERO);
}

#[test]
fn put_routes_to_owner_and_get_finds_it() {
    on_each_overlay(|kind| {
        let mut sim = grow_network(kind, 8, 2);
        let ns = ns_of("table");
        // Publish 50 items from node 3.
        sim.with_app(3, |node, ctx| {
            let mut env = pier_dht::CtxEnv { ctx };
            let mut ev = Vec::new();
            for rid in 0..50u64 {
                node.dht.put(
                    &mut env,
                    ns,
                    rid,
                    0,
                    vec![rid as u8],
                    Dur::from_secs(600),
                    &mut ev,
                );
            }
        });
        sim.run_for(Dur::from_secs(10));
        // All 50 items are stored somewhere, each at its key's owner.
        let total: usize = (0..8)
            .map(|i| sim.app(i).unwrap().dht.store.ns_len(ns))
            .sum();
        assert_eq!(total, 50);
        for i in 0..8u32 {
            let node = sim.app(i).unwrap();
            for e in node.dht.store.lscan(ns) {
                assert!(node.dht.owns_key(e.key), "item at node {i} is owned");
            }
        }
        // Gets from a different node return each item.
        sim.with_app(6, |node, ctx| {
            let now = ctx.now;
            let mut env = pier_dht::CtxEnv { ctx };
            let mut ev = Vec::new();
            for rid in 0..50u64 {
                node.dht.get(&mut env, ns, rid, rid, &mut ev);
            }
            for e in ev {
                node.events.push((now, e));
            }
        });
        sim.run_for(Dur::from_secs(10));
        let node = sim.app(6).unwrap();
        let mut got: Vec<u64> = node
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                DhtEvent::GetResult { token, items } if !items.is_empty() => Some(*token),
                _ => None,
            })
            .collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 50, "all gets answered with data");
    });
}

#[test]
fn multicast_reaches_every_node_exactly_once() {
    on_each_overlay(|kind| {
        for n in [1usize, 2, 5, 16, 40] {
            let mut sim = stabilized(kind, n, cfg(), 3);
            sim.with_app(0, |node, ctx| {
                let now = ctx.now;
                let mut env = pier_dht::CtxEnv { ctx };
                let mut ev = Vec::new();
                node.dht.multicast(&mut env, vec![9, 9, 9], &mut ev);
                for e in ev {
                    node.events.push((now, e));
                }
            });
            sim.run_for(Dur::from_secs(30));
            for i in 0..n {
                let deliveries = sim
                    .app(i as NodeId)
                    .unwrap()
                    .events_where(|e| matches!(e, DhtEvent::Multicast { .. }))
                    .count();
                assert_eq!(deliveries, 1, "n={n} node {i}");
            }
        }
    });
}

#[test]
fn multicast_latency_grows_slowly_with_n() {
    // Depth of the directed flood ~ sum of shrinking greedy routes; the
    // paper reports ~3 s at 1024 nodes with 100 ms hops.
    let mut worst = Vec::new();
    for n in [64usize, 512] {
        let mut sim: Sim<DhtNode<V>> = stabilized_can_sim(n, cfg(), latency_only(4));
        sim.with_app(0, |node, ctx| {
            let now = ctx.now;
            let mut env = pier_dht::CtxEnv { ctx };
            let mut ev = Vec::new();
            node.dht.multicast(&mut env, vec![1], &mut ev);
            for e in ev {
                node.events.push((now, e));
            }
        });
        sim.run_for(Dur::from_secs(60));
        let last = (0..n)
            .filter_map(|i| {
                sim.app(i as NodeId)
                    .unwrap()
                    .events_where(|e| matches!(e, DhtEvent::Multicast { .. }))
                    .map(|(t, _)| *t)
                    .next()
            })
            .max()
            .unwrap();
        worst.push(last.as_secs_f64());
    }
    assert!(worst[0] > 0.1, "multi-hop dissemination");
    assert!(worst[1] < 10.0, "512 nodes reached in {:.2}s", worst[1]);
    assert!(worst[1] / worst[0] < 4.0, "sub-linear growth: {worst:?}");
}

#[test]
fn soft_state_expires_without_renewal() {
    on_each_overlay(|kind| {
        let mut sim = stabilized(kind, 8, cfg(), 5);
        let ns = ns_of("soft");
        sim.with_app(0, |node, ctx| {
            let mut env = pier_dht::CtxEnv { ctx };
            let mut ev = Vec::new();
            for rid in 0..20u64 {
                node.dht
                    .put(&mut env, ns, rid, 0, vec![1], Dur::from_secs(30), &mut ev);
            }
        });
        sim.run_for(Dur::from_secs(10));
        let live: usize = (0..8)
            .map(|i| sim.app(i).unwrap().dht.store.ns_len(ns))
            .sum();
        assert_eq!(live, 20);
        // After the lifetime passes, owners discard everything.
        sim.run_for(Dur::from_secs(40));
        let live: usize = (0..8)
            .map(|i| sim.app(i).unwrap().dht.store.ns_len(ns))
            .sum();
        assert_eq!(live, 0, "items aged out");
    });
}

#[test]
fn renewal_keeps_items_alive_and_does_not_refire_newdata() {
    on_each_overlay(|kind| {
        let mut sim = stabilized(kind, 6, cfg(), 6);
        let ns = ns_of("renewed");
        let put_all = |sim: &mut Sim<DhtNode<V>>| {
            sim.with_app(0, |node, ctx| {
                let now = ctx.now;
                let mut env = pier_dht::CtxEnv { ctx };
                let mut ev = Vec::new();
                for rid in 0..10u64 {
                    node.dht
                        .renew(&mut env, ns, rid, 7, vec![2], Dur::from_secs(25), &mut ev);
                }
                // Keys node 0 owns itself fire `newData` synchronously.
                for e in ev {
                    node.events.push((now, e));
                }
            });
        };
        put_all(&mut sim);
        sim.run_for(Dur::from_secs(15));
        put_all(&mut sim); // renew before expiry
        sim.run_for(Dur::from_secs(15));
        put_all(&mut sim);
        sim.run_for(Dur::from_secs(15));
        let live: usize = (0..6)
            .map(|i| sim.app(i).unwrap().dht.store.ns_len(ns))
            .sum();
        assert_eq!(live, 10, "renewals kept items alive past 2 lifetimes");
        // newData fired exactly once per item across the whole network.
        let newdata: usize = (0..6)
            .map(|i| {
                sim.app(i)
                    .unwrap()
                    .events_where(|e| matches!(e, DhtEvent::NewData { .. }))
                    .count()
            })
            .sum();
        assert_eq!(newdata, 10);
    });
}

#[test]
fn node_failure_loses_items_until_republished() {
    on_each_overlay(|kind| {
        let mut cfgd = cfg();
        cfgd.keepalive = Dur::from_secs(2);
        cfgd.fail_after = Dur::from_secs(15);
        let mut sim = stabilized(kind, 8, cfgd, 7);
        let ns = ns_of("churny");
        sim.with_app(0, |node, ctx| {
            let mut env = pier_dht::CtxEnv { ctx };
            let mut ev = Vec::new();
            for rid in 0..40u64 {
                node.dht
                    .put(&mut env, ns, rid, 0, vec![3], Dur::from_secs(3600), &mut ev);
            }
        });
        sim.run_for(Dur::from_secs(10));
        // Fail the node holding the most items.
        let victim = (1..8)
            .max_by_key(|&i| sim.app(i).unwrap().dht.store.ns_len(ns))
            .unwrap();
        let lost = sim.app(victim).unwrap().dht.store.ns_len(ns);
        assert!(lost > 0);
        sim.fail_node(victim);
        sim.run_for(Dur::from_secs(30)); // detection (15 s) + takeover
        let live: usize = (0..8)
            .filter(|&i| i != victim)
            .map(|i| sim.app(i).unwrap().dht.store.ns_len(ns))
            .sum();
        assert_eq!(live, 40 - lost, "victim's items are gone (soft state)");
        // The dead zone was taken over: every key has exactly one live owner.
        for rid in 0..40u64 {
            let key = pier_dht::key_of(ns, rid);
            let owners = (0..8)
                .filter(|&i| i != victim)
                .filter(|&i| sim.app(i).unwrap().dht.owns_key(key))
                .count();
            assert_eq!(owners, 1, "rid {rid}");
        }
        // Republishing (the renewal loop) restores full coverage.
        sim.with_app(0, |node, ctx| {
            let mut env = pier_dht::CtxEnv { ctx };
            let mut ev = Vec::new();
            for rid in 0..40u64 {
                node.dht
                    .renew(&mut env, ns, rid, 0, vec![3], Dur::from_secs(3600), &mut ev);
            }
        });
        sim.run_for(Dur::from_secs(20));
        let live: usize = (0..8)
            .filter(|&i| i != victim)
            .map(|i| sim.app(i).unwrap().dht.store.ns_len(ns))
            .sum();
        assert_eq!(live, 40, "renewals restored the lost items");
    });
}

#[test]
fn chord_put_get_and_broadcast() {
    let n = 24;
    let cfgc = DhtConfig::default().with_overlay(OverlayKind::Chord);
    let mut sim: Sim<DhtNode<V>> = stabilized_chord_sim(n, cfgc, latency_only(8));
    let ns = ns_of("chordtab");
    sim.with_app(2, |node, ctx| {
        let now = ctx.now;
        let mut env = pier_dht::CtxEnv { ctx };
        let mut ev = Vec::new();
        for rid in 0..30u64 {
            node.dht
                .put(&mut env, ns, rid, 0, vec![5], Dur::from_secs(600), &mut ev);
        }
        node.dht.multicast(&mut env, vec![7], &mut ev);
        for e in ev {
            node.events.push((now, e));
        }
    });
    sim.run_for(Dur::from_secs(20));
    let total: usize = (0..n)
        .map(|i| sim.app(i as NodeId).unwrap().dht.store.ns_len(ns))
        .sum();
    assert_eq!(total, 30);
    // Items sit at their owners.
    for i in 0..n as NodeId {
        let node = sim.app(i).unwrap();
        for e in node.dht.store.lscan(ns) {
            assert!(node.dht.owns_key(e.key));
        }
    }
    // Broadcast reached everyone exactly once.
    for i in 0..n as NodeId {
        let c = sim
            .app(i)
            .unwrap()
            .events_where(|e| matches!(e, DhtEvent::Multicast { .. }))
            .count();
        assert_eq!(c, 1, "node {i}");
    }
    // Remote gets work.
    sim.with_app(9, |node, ctx| {
        let now = ctx.now;
        let mut env = pier_dht::CtxEnv { ctx };
        let mut ev = Vec::new();
        for rid in 0..30u64 {
            node.dht.get(&mut env, ns, rid, 1000 + rid, &mut ev);
        }
        for e in ev {
            node.events.push((now, e));
        }
    });
    sim.run_for(Dur::from_secs(20));
    let answered = sim
        .app(9)
        .unwrap()
        .events_where(|e| matches!(e, DhtEvent::GetResult { items, .. } if !items.is_empty()))
        .count();
    assert_eq!(answered, 30);
}

#[test]
fn chord_incremental_join_stabilizes() {
    let cfgc = DhtConfig::default().with_overlay(OverlayKind::Chord);
    let mut sim: Sim<DhtNode<V>> = Sim::new(latency_only(9));
    sim.add_node(DhtNode::new(cfgc.clone(), 0, None));
    for i in 1..8 {
        sim.add_node(DhtNode::new(cfgc.clone(), i, Some(0)));
        sim.run_for(Dur::from_secs(5));
    }
    // Let stabilization + finger repair run.
    sim.run_for(Dur::from_secs(120));
    for i in 0..8u32 {
        let node = sim.app(i).unwrap();
        assert!(node.dht.is_joined(), "node {i}");
        let chord = node.dht.chord().unwrap();
        assert!(chord.successor().is_some() || i == 0);
        assert!(chord.predecessor.is_some(), "node {i} has a predecessor");
    }
    // Ring keys are uniquely owned.
    for k in 0..100u64 {
        let key = pier_dht::key_of(ns_of("x"), k);
        let owners = (0..8)
            .filter(|&i| sim.app(i).unwrap().dht.owns_key(key))
            .count();
        assert_eq!(owners, 1, "key {k}");
    }
}

#[test]
fn traffic_meter_separates_upkeep_from_data() {
    let mut sim: Sim<DhtNode<V>> = stabilized_can_sim(8, cfg(), latency_only(10));
    sim.run_for(Dur::from_secs(10)); // only heartbeats
    let upkeep: u64 = (0..8)
        .map(|i| sim.app(i).unwrap().dht.meter.maintenance)
        .sum();
    let data: u64 = (0..8).map(|i| sim.app(i).unwrap().dht.meter.data).sum();
    assert!(upkeep > 0);
    assert_eq!(data, 0);
    sim.with_app(0, |node, ctx| {
        let mut env = pier_dht::CtxEnv { ctx };
        let mut ev = Vec::new();
        for rid in 0..20u64 {
            node.dht.put(
                &mut env,
                ns_of("d"),
                rid,
                0,
                vec![0; 512],
                Dur::from_secs(60),
                &mut ev,
            );
        }
    });
    sim.run_for(Dur::from_secs(10));
    let data: u64 = (0..8).map(|i| sim.app(i).unwrap().dht.meter.data).sum();
    assert!(data > 20 * 512, "puts counted as data traffic: {data}");
}

#[test]
fn a_node_that_leaves_stays_out() {
    // Six nodes joined via node 0; node 3 leaves and keeps running (its
    // maintenance timer still fires, and it still knows its bootstrap).
    let n = 6;
    let leaver: NodeId = 3;
    let mut sim = grow_network(OverlayKind::Can, n, 11);
    sim.with_app(leaver, |node, ctx| {
        node.dht.leave(&mut pier_dht::CtxEnv { ctx });
    });
    let sent_by_leaving = sim.app(leaver).unwrap().dht.meter;
    sim.run_for(Dur::from_secs(60));
    let node = sim.app(leaver).unwrap();
    assert!(!node.dht.is_joined(), "the leaver re-joined by itself");
    assert_eq!(
        node.dht.meter, sent_by_leaving,
        "the leaver sent nothing after leaving — no JoinLocate retry"
    );
    // What it handed over has exactly one owner among the rest.
    for k in 0..120u64 {
        let key = pier_dht::key_of(ns_of("x"), k);
        let owners = (0..n as NodeId)
            .filter(|&i| i != leaver)
            .filter(|&i| sim.app(i).unwrap().dht.owns_key(key))
            .count();
        assert_eq!(owners, 1, "key {k}");
    }
}

#[test]
fn message_for_the_other_overlay_is_dropped() {
    use pier_dht::geom::{Point, Zone};
    use pier_dht::msg::{CanMsg, ChordMsg, FindPurpose};
    use pier_dht::{Dht, DhtMsg, RecordingEnv, TrafficMeter};

    let to_can: Vec<DhtMsg<V>> = vec![
        DhtMsg::Chord(ChordMsg::GetNeighborhood),
        DhtMsg::Chord(ChordMsg::Notify { ring: 5 }),
        DhtMsg::Chord(ChordMsg::FindSucc {
            target: 9,
            token: 1,
            origin: 1,
            purpose: FindPurpose::Lookup,
            ttl: 8,
        }),
        DhtMsg::Chord(ChordMsg::Bcast {
            id: 3,
            origin: 1,
            payload: vec![1],
            limit: 0,
        }),
    ];
    let to_chord: Vec<DhtMsg<V>> = vec![
        DhtMsg::Can(CanMsg::Lookup {
            key: 7,
            token: 1,
            origin: 1,
            ttl: 8,
        }),
        DhtMsg::Can(CanMsg::JoinLocate {
            joiner: 9,
            p: Point::from_key(7, 4),
            ttl: 8,
        }),
        DhtMsg::Can(CanMsg::NeighborUpdate {
            zones: vec![Zone::whole(4)].into(),
        }),
        DhtMsg::Can(CanMsg::Mcast {
            id: 3,
            origin: 1,
            rect: Zone::whole(4),
            payload: vec![1],
            ttl: 8,
        }),
    ];
    for (kind, msgs) in [(OverlayKind::Can, to_can), (OverlayKind::Chord, to_chord)] {
        let mut dht: Dht<V> = Dht::stabilized(4, &cfg().with_overlay(kind)).swap_remove(0);
        let mut env = RecordingEnv::new(0);
        let mut events = Vec::new();
        for msg in msgs {
            dht.handle_message(&mut env, 1, msg, &mut events);
        }
        assert!(env.sent.is_empty(), "{kind:?} node sent {:?}", env.sent);
        assert!(events.is_empty(), "{kind:?} node raised {events:?}");
        assert_eq!(dht.meter, TrafficMeter::default());
    }
}

#[test]
fn repair_request_is_answered_in_the_zones_own_dimensionality() {
    use pier_dht::can::balanced_overlay;
    use pier_dht::geom::Point;
    use pier_dht::msg::RepairScope;
    use pier_dht::{Dht, DhtMsg, Entry, RecordingEnv};
    use pier_simnet::time::Time;

    // A d = 2 overlay under a config that still says `dims: 4`.
    let states = balanced_overlay(4, 2, Time::ZERO);
    let cfg = cfg().with_replication(2);
    assert_eq!(cfg.dims, 4);
    let mut dht: Dht<V> = Dht::with_can(cfg, 0, states[0].clone());
    for rid in 0..40u64 {
        dht.store.store(Entry {
            ns: 1,
            rid,
            iid: 0,
            key: pier_dht::key_of(1, rid),
            expires: Time(u64::MAX),
            val: vec![],
        });
    }
    let asker = &states[1];
    let mut want: Vec<u64> = (0..40u64)
        .filter(|&rid| asker.owns_point(Point::from_key(pier_dht::key_of(1, rid), 2)))
        .collect();
    assert!(!want.is_empty() && want.len() < 40);

    let mut env = RecordingEnv::new(0);
    let scope = RepairScope::Zones(asker.zones.clone());
    dht.handle_message(
        &mut env,
        1,
        DhtMsg::RepairRequest { scope },
        &mut Vec::new(),
    );
    let [(1, DhtMsg::RepairReply { items })] = &env.sent[..] else {
        panic!("one RepairReply to the asker, got {:?}", env.sent);
    };
    let mut got: Vec<u64> = items.iter().map(|e| e.rid).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
}
