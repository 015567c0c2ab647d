//! Query-layer failover under soft-state replication (k = 2): a node
//! holding rehash state is killed mid-query, anti-entropy
//! heals its soft state at the takeover node, and the healed copies
//! re-fire `newData` → re-probe. These tests pin the *exact* result
//! multiset across that kill/heal cycle — full recall (the replicas
//! carried the state) and zero duplicates (re-probed pairs are dropped
//! by result identity at the initiator) — for both the symmetric-hash
//! probe path and the semi-join mini-probe path, plus the epoch-driven
//! standing aggregate (recall 1.0 at k = 2, measurably < 1.0 at k = 1).

use pier_core::expr::Expr;
use pier_core::plan::{
    AggCall, AggFunc, AggSpec, JoinSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec,
};
use pier_core::semantics::{reference_join, same_multiset};
use pier_core::testkit::*;
use pier_core::tuple;
use pier_core::tuple::Tuple;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::{NetConfig, NodeId};

const N: usize = 8;

fn replicated_cfg(k: usize) -> DhtConfig {
    DhtConfig {
        keepalive: Dur::from_secs(1),
        fail_after: Dur::from_secs(5),
        ..DhtConfig::default()
    }
    .with_replication(k)
}

/// A(pkey, jk) ⋈ B(pkey, jk) on jk: 3 A-rows and 2 B-rows per join-key
/// value, so every result has multiplicity structure a duplicate or a
/// dropped re-probe would disturb.
fn tables() -> (Vec<Tuple>, Vec<Tuple>) {
    let a: Vec<Tuple> = (0..18i64).map(|i| tuple![i, i % 6]).collect();
    let b: Vec<Tuple> = (0..12i64).map(|i| tuple![100 + i, i % 6]).collect();
    (a, b)
}

fn join_spec(strategy: JoinStrategy) -> JoinSpec {
    let left = ScanSpec::new("A", 2, 0).with_join_col(1);
    let right = ScanSpec::new("B", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(strategy, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    j
}

/// Install a join at k = 2 (standing under symmetric hash, one-shot
/// under the semi-join, which has no arrival path — every row is
/// published before install, so both see the same run), kill the node
/// holding the most query soft state once the initial dataflow has
/// completed, run well past detection + takeover + anti-entropy, and
/// require the initiator's multiset to still be *exactly* the
/// reference join.
fn kill_heal_exact(strategy: JoinStrategy, qid: u64, seed: u64) {
    let (a, b) = tables();
    let spec = join_spec(strategy);
    let expected = reference_join(&spec, &a, &b);
    assert_eq!(expected.len(), 36);

    let mut sim = stabilized_pier_sim(N, replicated_cfg(2), NetConfig::latency_only(seed));
    publish_round_robin(&mut sim, "A", &a, 0, Dur::from_secs(3600));
    publish_round_robin(&mut sim, "B", &b, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let op = QueryOp::Join {
        join: spec,
        agg: None,
    };
    let desc = match strategy {
        JoinStrategy::SymmetricHash => QueryDesc::standing(qid, 0, op, None),
        _ => QueryDesc::one_shot(qid, 0, op),
    };
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(30));
    let got: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(qid)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(
        same_multiset(&expected, &got),
        "pre-kill: expected {} rows, got {}",
        expected.len(),
        got.len()
    );

    // Kill the non-initiator node holding the most rehash/mini state so
    // the heal actually replays probes somewhere.
    let now = sim.now();
    let victim = (1..N as NodeId)
        .max_by_key(|&i| sim.app(i).unwrap().query_soft_state(now, qid, 0))
        .unwrap();
    assert!(
        sim.app(victim).unwrap().query_soft_state(now, qid, 0) > 0,
        "victim must hold query soft state"
    );
    sim.fail_node(victim);
    // Detection (5 s) + takeover + anti-entropy + healed-newData
    // re-probes, with margin.
    sim.run_for(Dur::from_secs(60));

    let got: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(qid)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(
        same_multiset(&expected, &got),
        "post-heal multiset must be exact: expected {} rows, got {} \
         (more = duplicate re-probe emissions, fewer = lost state)",
        expected.len(),
        got.len()
    );
}

#[test]
fn symmetric_hash_join_multiset_exact_across_kill_and_heal() {
    kill_heal_exact(JoinStrategy::SymmetricHash, 910, 31);
}

#[test]
fn semi_join_multiset_exact_across_kill_and_heal() {
    kill_heal_exact(JoinStrategy::SymmetricSemiJoin, 911, 32);
}

/// A drain frees the rows it hands over but keeps their identities: the
/// initiator drains the whole answer before the kill, and what the
/// healed replica re-sends after it is dropped, not logged again.
#[test]
fn a_drained_result_re_sent_by_a_healed_replica_is_still_dropped() {
    let qid = 912;
    let (a, b) = tables();
    let mut sim = stabilized_pier_sim(N, replicated_cfg(2), NetConfig::latency_only(31));
    publish_round_robin(&mut sim, "A", &a, 0, Dur::from_secs(3600));
    publish_round_robin(&mut sim, "B", &b, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let op = QueryOp::Join {
        join: join_spec(JoinStrategy::SymmetricHash),
        agg: None,
    };
    sim.with_app(0, |node, ctx| {
        node.submit(ctx, QueryDesc::standing(qid, 0, op, None))
    });
    sim.run_for(Dur::from_secs(30));
    let drained = sim.with_app(0, |node, _| node.drain_results(qid)).unwrap();
    assert_eq!(drained.len(), 36);
    assert!(sim.app(0).unwrap().query_results(qid).is_empty());

    let shipped = |sim: &pier_simnet::Sim<pier_core::PierNode>| -> u64 {
        (0..N as NodeId)
            .filter_map(|i| sim.app(i)?.metrics.query(qid).map(|m| m.results_shipped))
            .sum()
    };
    let before = shipped(&sim);
    let now = sim.now();
    let victim = (1..N as NodeId)
        .max_by_key(|&i| sim.app(i).unwrap().query_soft_state(now, qid, 0))
        .unwrap();
    sim.fail_node(victim);
    sim.run_for(Dur::from_secs(60));
    assert!(shipped(&sim) > before, "the healed replica re-sends");
    assert!(
        sim.app(0).unwrap().query_results(qid).is_empty(),
        "a re-sent result the initiator drained is dropped"
    );
}

/// Standing epoch aggregate (the multitenant shape: COUNT per group,
/// EPOCH-driven re-emission) across a mid-query kill. Returns the rows
/// reported in the final epoch's emission window.
fn epoch_counts_after_kill(k: usize, seed: u64) -> (Vec<Tuple>, usize) {
    let qid = 920 + k as u64;
    let epoch = Dur::from_secs(20);
    let rows: Vec<Tuple> = (0..40i64).map(|i| tuple![i, i % 5]).collect();
    let scan = ScanSpec::new("events", 2, 0);
    let agg = AggSpec::new(
        vec![1],
        vec![AggCall {
            func: AggFunc::Count,
            arg: None,
        }],
    )
    .with_epoch(epoch);
    let op = QueryOp::Agg { scan, agg };

    let mut sim = stabilized_pier_sim(N, replicated_cfg(k), NetConfig::latency_only(seed));
    // Long lifetime, *no* renewals: replication is the only channel that
    // can carry a killed node's base items to the next epoch.
    publish_round_robin(&mut sim, "events", &rows, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let mut desc = QueryDesc::standing(qid, 0, op, None);
    desc.n_nodes = N as u32;
    let t0 = sim.now();
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(50)); // two full epochs reported

    let ns = pier_dht::ns_of("events");
    let victim = (1..N as NodeId)
        .max_by_key(|&i| sim.app(i).unwrap().dht.store.ns_len(ns))
        .unwrap();
    let lost = sim.app(victim).unwrap().dht.store.ns_len(ns);
    assert!(lost > 0, "victim must hold base items");
    sim.fail_node(victim);
    sim.run_for(Dur::from_secs(70)); // detection + heal + ≥ 2 more epochs

    // The reports that arrived in the final epoch-length window are one
    // complete steady-state emission.
    let cut = sim.now().since(t0).as_micros() - epoch.as_micros();
    let last: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(qid)
        .iter()
        .filter(|(t, _)| t.since(t0).as_micros() > cut)
        .map(|(_, r)| r)
        .collect();
    (last, lost)
}

#[test]
fn epoch_aggregate_full_recall_at_k2_degraded_at_k1() {
    let expected: Vec<Tuple> = (0..5i64).map(|g| tuple![g, 8i64]).collect();

    // k = 2: the final epoch reports every group at its exact count —
    // healed replicas re-entered the running accumulators exactly once.
    let (at_k2, _) = epoch_counts_after_kill(2, 41);
    assert!(
        same_multiset(&expected, &at_k2),
        "k=2 final epoch must be exact: expected {expected:?} got {at_k2:?}"
    );

    // k = 1 (paper baseline): the killed node's items are gone and no
    // renewal loop re-publishes them, so the same epoch under-counts.
    let (at_k1, lost) = epoch_counts_after_kill(1, 41);
    let total: i64 = at_k1.iter().filter_map(|r| r.get(1).as_i64()).sum();
    assert!(
        total <= 40 - lost as i64,
        "k=1 must under-count by at least the victim's {lost} items, got total {total}"
    );
    assert!(!same_multiset(&expected, &at_k1), "k=1 recall must degrade");
}
