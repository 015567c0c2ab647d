//! Property tests for soft-state replication under churn: random
//! kill schedules (seeded [`FaultScript::churn`]) against k ∈ {1, 2, 3},
//! on both engines.
//!
//! Invariants pinned here:
//!
//! * **Durability (k ≥ 2):** after every scripted failure has been
//!   detected, taken over, and repaired, every published item is still
//!   readable through the ordinary `get` path — some surviving replica
//!   answered the anti-entropy pull.
//! * **Exclusivity (any k):** each key has exactly one live owner, and
//!   exactly one *primary* copy network-wide — replicas never leak into
//!   primary stores of non-owners, so probes/lscan can never see an
//!   item twice.
//! * **No stale state (any k):** one sweep horizon after the last
//!   repair, no node's primary store holds an item whose key it does
//!   not own (anti-entropy + re-homing converged).

use pier_dht::harness::{stabilized_can_sim, DhtNode, DhtRequest};
use pier_dht::{ns_of, DhtConfig, DhtEvent, Ns};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{Deployment, FaultDriver, FaultScript, NetConfig, NodeId, Sim};
use proptest::prelude::*;

type V = Vec<u8>;

const N: usize = 10;
const ITEMS: u64 = 40;

fn churn_cfg(k: usize) -> DhtConfig {
    DhtConfig {
        keepalive: Dur::from_secs(1),
        fail_after: Dur::from_secs(5),
        ..DhtConfig::default()
    }
    .with_replication(k)
}

fn publish_all(sim: &mut Sim<DhtNode<V>>, ns: Ns) {
    sim.with_app(0, |node, ctx| {
        let mut env = pier_dht::CtxEnv { ctx };
        let mut ev = Vec::new();
        for rid in 0..ITEMS {
            node.dht.put(
                &mut env,
                ns,
                rid,
                0,
                vec![rid as u8],
                Dur::from_secs(3600),
                &mut ev,
            );
        }
    });
}

/// Run a seeded churn script (kills only, node 0 spared) to completion,
/// with enough settle after each fault for detection + takeover +
/// anti-entropy, and a final sweep horizon.
fn run_script(sim: &mut Sim<DhtNode<V>>, script: FaultScript) {
    let t0 = sim.now();
    FaultDriver::new(script).replay(sim, t0, |_| unreachable!("kill-only script"));
    // Final failure: detection (5 s) + takeover + repair + one re-home
    // cycle + one expiry sweep.
    sim.run_for(Dur::from_secs(25));
}

/// Every rid resolved through `get` from node 0 with a non-empty reply.
fn all_readable(sim: &mut Sim<DhtNode<V>>, ns: Ns) -> usize {
    let before = sim
        .app(0)
        .unwrap()
        .events_where(|e| matches!(e, DhtEvent::GetResult { items, .. } if !items.is_empty()))
        .count();
    sim.with_app(0, |node, ctx| {
        let now = ctx.now;
        let mut env = pier_dht::CtxEnv { ctx };
        let mut ev = Vec::new();
        for rid in 0..ITEMS {
            node.dht.get(&mut env, ns, rid, 7000 + rid, &mut ev);
        }
        for e in ev {
            node.events.push((now, e));
        }
    });
    sim.run_for(Dur::from_secs(15));
    sim.app(0)
        .unwrap()
        .events_where(|e| matches!(e, DhtEvent::GetResult { items, .. } if !items.is_empty()))
        .count()
        - before
}

/// Audit ownership and primary-copy exclusivity; returns the number of
/// rids with exactly one live primary copy.
fn audit_exclusive(sim: &Sim<DhtNode<V>>, ns: Ns) -> usize {
    let now = sim.now();
    let alive: Vec<NodeId> = (0..N as NodeId).filter(|&i| sim.alive(i)).collect();
    let mut primary_copies = 0usize;
    for rid in 0..ITEMS {
        let key = pier_dht::key_of(ns, rid);
        let owners: Vec<NodeId> = alive
            .iter()
            .copied()
            .filter(|&i| sim.app(i).unwrap().dht.owns_key(key))
            .collect();
        assert_eq!(owners.len(), 1, "rid {rid}: owners {owners:?}");
        let holders = alive
            .iter()
            .copied()
            .filter(|&i| {
                sim.app(i)
                    .unwrap()
                    .dht
                    .store
                    .get(ns, rid)
                    .any(|e| e.expires > now)
            })
            .count();
        assert!(holders <= 1, "rid {rid}: {holders} primary copies");
        primary_copies += holders;
    }
    // No stale primaries anywhere: every live primary entry is owned.
    for &i in &alive {
        let node = sim.app(i).unwrap();
        for e in node.dht.store.lscan(ns) {
            if e.expires > now {
                assert!(
                    node.dht.owns_key(e.key),
                    "node {i} holds rid {} but does not own its key",
                    e.rid
                );
            }
        }
    }
    primary_copies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random kill schedules, k ∈ {1, 2, 3}: exclusivity always holds;
    /// with k ≥ 2 every item survives and stays readable.
    #[test]
    fn churn_preserves_replicated_items(seed in any::<u64>(), k in 1usize..4) {
        let ns = ns_of("repl");
        let mut sim: Sim<DhtNode<V>> =
            stabilized_can_sim(N, churn_cfg(k), NetConfig::latency_only(seed));
        publish_all(&mut sim, ns);
        sim.run_for(Dur::from_secs(10));

        let candidates: Vec<NodeId> = (1..N as NodeId).collect();
        let script = FaultScript::churn(seed, Dur::from_secs(40), 2, &candidates);
        let killed = script.killed();
        run_script(&mut sim, script);
        for v in &killed {
            prop_assert!(!sim.alive(*v));
        }

        let primaries = audit_exclusive(&sim, ns);
        if k >= 2 {
            prop_assert_eq!(primaries, ITEMS as usize, "k={} lost items", k);
            let readable = all_readable(&mut sim, ns);
            prop_assert_eq!(readable, ITEMS as usize, "k={} unreadable items", k);
        } else {
            // k = 1 is the paper's soft-state baseline: items on the
            // killed nodes are simply gone until re-published.
            prop_assert!(primaries <= ITEMS as usize);
        }
    }
}

/// The same durability property on the wall-clock actor runtime: kill
/// a loaded node, wait out detection + takeover + anti-entropy, and
/// read everything back (k = 2).
#[test]
fn cluster_kill_heals_from_replicas() {
    let cfg = DhtConfig {
        keepalive: Dur::from_millis(500),
        fail_after: Dur::from_secs(2),
        ..DhtConfig::default()
    }
    .with_replication(2);
    let n = 8usize;
    let ns = ns_of("repl_cluster");
    let states = pier_dht::can::balanced_overlay(n, cfg.dims, Time::ZERO);
    let apps: Vec<DhtNode<V>> = states
        .into_iter()
        .enumerate()
        .map(|(i, st)| DhtNode::with_dht(pier_dht::Dht::with_can(cfg.clone(), i as NodeId, st)))
        .collect();
    let mut cluster = pier_simnet::Cluster::spawn(apps, 42);
    for rid in 0..30u64 {
        cluster.request(
            0,
            DhtRequest::Put {
                ns,
                rid,
                iid: 0,
                val: vec![1],
                lifetime: Dur::from_secs(3600),
            },
        );
    }
    cluster.settle(Dur::from_millis(1500));
    // Kill the most loaded non-querying node.
    let victim = (1..n as NodeId)
        .max_by_key(|&i| {
            cluster
                .request(i, DhtRequest::NsLen(ns))
                .map(|r| r.into_count())
        })
        .unwrap();
    let lost = cluster
        .request(victim, DhtRequest::NsLen(ns))
        .expect("victim alive before kill")
        .into_count();
    assert!(lost > 0, "victim must hold items for the test to bite");
    cluster.kill(victim);
    // Detection (2 s) + takeover + anti-entropy, wall clock.
    cluster.settle(Dur::from_millis(4500));
    for rid in 0..30u64 {
        cluster.request(
            0,
            DhtRequest::Get {
                ns,
                rid,
                token: rid,
            },
        );
    }
    cluster.settle(Dur::from_millis(1500));
    let answered = cluster
        .request(0, DhtRequest::NonEmptyGetResults)
        .expect("querying node alive")
        .into_count();
    cluster.shutdown();
    assert_eq!(answered, 30, "every item must survive the kill at k = 2");
}
