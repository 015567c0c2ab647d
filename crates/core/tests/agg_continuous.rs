//! Distributed aggregation (flat and hierarchical), the §2.1 SQL
//! examples end-to-end, and continuous/windowed queries.

use std::collections::HashMap;

use pier_core::agg::{AggState, GroupAccs};
use pier_core::catalog::Catalog;
use pier_core::expr::Expr;
use pier_core::item::{Part, Report};
use pier_core::plan::{
    qns, AggCall, AggFunc, AggSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec, Tenure,
};
use pier_core::semantics::{reference_eval, same_multiset};
use pier_core::sql::{parse_continuous_query, parse_query};
use pier_core::tenant::Quota;
use pier_core::testkit::*;
use pier_core::tuple;
use pier_core::tuple::Tuple;
use pier_core::value::Value;
use pier_core::PierNode;
use pier_core::{PierMsg, QpItem};
use pier_dht::overlay::TreeSeat;
use pier_dht::{key_of, DhtConfig, DhtMsg, Entry};
use pier_simnet::time::Dur;
use pier_simnet::{App, NetConfig, NodeId, Sim};

/// Synthetic intrusion fingerprints: node-spread reports, some frequent.
fn intrusion_rows(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let fp = format!("fp{}", i % 7);
            let addr = format!("10.0.0.{}", i % 13);
            tuple![i as i64, fp.as_str(), addr.as_str()]
        })
        .collect()
}

fn run_agg(hierarchical: bool) {
    let rows = intrusion_rows(120);
    let scan = ScanSpec::new("intrusions", 3, 0);
    let mut agg = AggSpec::new(
        vec![1],
        vec![AggCall {
            func: AggFunc::Count,
            arg: None,
        }],
    );
    agg.having = Some(Expr::gt(Expr::col(1), Expr::lit(10i64)));
    agg.hierarchical = hierarchical;
    agg.harvest = Dur::from_secs(8);
    let op = QueryOp::Agg {
        scan: scan.clone(),
        agg: agg.clone(),
    };
    let mut tables = HashMap::new();
    tables.insert("intrusions".to_string(), rows.clone());
    let expected = reference_eval(&op, &tables);
    assert!(!expected.is_empty());

    let n = 16;
    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(21));
    publish_round_robin(&mut sim, "intrusions", &rows, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let mut desc = QueryDesc::one_shot(31 + hierarchical as u64, 2, op);
    desc.n_nodes = n as u32;
    let results = run_query(&mut sim, 2, desc, Dur::from_secs(40));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "hier={hierarchical} expected {:?} got {:?}",
        expected,
        rows_of(&results)
    );
}

#[test]
fn flat_dht_aggregation_matches_reference() {
    run_agg(false);
}

#[test]
fn hierarchical_aggregation_matches_reference() {
    run_agg(true);
}

/// A hierarchical count loses only the rows a dead node stored. Node 1
/// of 16 dies and its neighbours take its zone over; a one-shot tree
/// COUNT submitted afterwards counts every row the live nodes hold —
/// its tree runs along the overlay as it now stands, so no live node's
/// part hangs under the dead one.
#[test]
fn a_dead_interior_node_loses_only_its_own_rows() {
    let rows = intrusion_rows(96);
    let scan = ScanSpec::new("intrusions", 3, 0);
    let count = AggCall {
        func: AggFunc::Count,
        arg: None,
    };
    let mut agg = AggSpec::new(vec![1], vec![count]);
    agg.hierarchical = true;
    let (n, dead) = (16, 1);
    let mut sim = stabilized_pier_sim(n, DhtConfig::default(), NetConfig::latency_only(23));
    publish_round_robin(&mut sim, "intrusions", &rows, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    sim.fail_node(dead);
    sim.run_for(Dur::from_secs(60));
    let ns = pier_dht::ns_of("intrusions");
    let held: usize = (0..n as NodeId)
        .filter_map(|id| sim.app(id))
        .map(|node| node.dht.lscan(ns).count())
        .sum();
    assert!(held < rows.len() && held > rows.len() / 2, "{held}");

    let desc = QueryDesc::one_shot(33, 0, QueryOp::Agg { scan, agg });
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(20));
    let counted: i64 = rows_of(&results)
        .iter()
        .map(|r| r.get(1).as_i64().unwrap())
        .sum();
    assert_eq!(
        counted, held as i64,
        "every row a live node holds is counted"
    );
}

/// A hierarchical COUNT on 16 nodes with one node out, which `pick`
/// chooses from the query's tree (every node's seat, and the root) and
/// `knock_out` takes out: one-shot, or standing under `epoch`. The root
/// submits the query, so it installs first and its deadlines come
/// first. Returns the rows the other nodes hold, and what each of the
/// root's emissions over 110 s counted.
fn counts_with_one_node_out(
    qid: u64,
    epoch: Option<Dur>,
    pick: impl Fn(&[TreeSeat], usize) -> usize,
    knock_out: impl FnOnce(&mut Sim<PierNode>, NodeId),
) -> (i64, Vec<i64>) {
    let rows = intrusion_rows(96);
    let scan = ScanSpec::new("intrusions", 3, 0);
    let count = AggCall {
        func: AggFunc::Count,
        arg: None,
    };
    let mut agg = AggSpec::new(vec![1], vec![count]);
    agg.hierarchical = true;
    agg.epoch = epoch;
    let n = 16;
    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(29));
    publish_round_robin(&mut sim, "intrusions", &rows, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let seats: Vec<TreeSeat> = (0..n as NodeId)
        .map(|id| sim.app(id).unwrap().dht.overlay.tree_seat(qns::tree(qid)))
        .collect();
    let root = seats.iter().position(|s| s.parent.is_none()).unwrap();
    let out = pick(&seats, root);
    let ns = pier_dht::ns_of("intrusions");
    let held = rows.len() - sim.app(out as NodeId).unwrap().dht.lscan(ns).count();
    knock_out(&mut sim, out as NodeId);

    let root = root as NodeId;
    let mut desc = QueryDesc::one_shot(qid, root, QueryOp::Agg { scan, agg }).with_tenant(5);
    if epoch.is_some() {
        desc.tenure = Tenure::Unwindowed { renew_every: None };
    }
    sim.with_node(root, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(110));
    let mut emissions: Vec<(_, i64)> = Vec::new();
    for (at, row) in sim.app(root).unwrap().query_results(qid).iter() {
        let count = row.get(1).as_i64().unwrap();
        match emissions.last_mut() {
            Some((last, sum)) if *last == at => *sum += count,
            _ => emissions.push((at, count)),
        }
    }
    (
        held as i64,
        emissions.into_iter().map(|(_, sum)| sum).collect(),
    )
}

/// The interior node with the most children in the tree.
fn busiest_interior(seats: &[TreeSeat], _root: usize) -> usize {
    (0..seats.len())
        .filter(|&id| seats[id].parent.is_some() && !seats[id].children.is_empty())
        .max_by_key(|&id| seats[id].children.len())
        .unwrap()
}

/// A node whose parent sits below the root's children, so that the
/// parent installs after the root and its deadlines come later.
fn below_the_roots_children(seats: &[TreeSeat], root: usize) -> usize {
    (0..seats.len())
        .find(|&id| {
            let parent = seats[id].parent.map(|p| p as usize);
            parent.is_some_and(|p| seats[p].parent.is_some_and(|g| g as usize != root))
        })
        .unwrap()
}

/// A hierarchical count loses only the rows of a node that refuses the
/// install: the busiest interior node rejects it (its tenant may
/// install nothing there), and the reports of its subtree go on past it
/// to its parent.
#[test]
fn an_interior_node_that_refuses_the_install_loses_only_its_own_rows() {
    let (held, counts) = counts_with_one_node_out(34, None, busiest_interior, |sim, refuser| {
        sim.with_node(refuser, |node, _| {
            let quota = Quota {
                max_standing: 0,
                ..Quota::unlimited()
            };
            node.governor.set_quota(5, quota);
        });
    });
    assert_eq!(
        counts,
        [held],
        "every row an installing node holds is counted"
    );
}

/// A node that dies unnoticed (no failure detection) holds its parent's
/// round to the parent's deadline, which comes after the root's: the
/// root waits past its own, past a one-shot harvest by its grace and
/// under an epoch by one epoch more, so that the parent's report counts.
#[test]
fn the_root_waits_for_what_a_parent_reports_at_its_deadline() {
    let dies = |sim: &mut Sim<PierNode>, dead| sim.fail_node(dead);
    let (held, counts) = counts_with_one_node_out(35, None, below_the_roots_children, dies);
    assert_eq!(counts, [held], "one-shot");
    let epoch = Some(Dur::from_secs(20));
    let (held, counts) = counts_with_one_node_out(36, epoch, below_the_roots_children, dies);
    assert!(counts.len() >= 3, "{counts:?}");
    assert!(
        counts.iter().all(|&c| c == held),
        "every epoch: {held}, {counts:?}"
    );
}

#[test]
fn intrusion_count_query_via_sql() {
    // §2.1: SELECT I.fingerprint, count(*) AS cnt FROM intrusions I
    //       GROUP BY I.fingerprint HAVING cnt > 10
    let catalog = Catalog::intrusion();
    let op = parse_query(
        "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I \
         GROUP BY I.fingerprint HAVING cnt > 10",
        &catalog,
        JoinStrategy::SymmetricHash,
    )
    .unwrap();
    let rows = intrusion_rows(100);
    let mut tables = HashMap::new();
    tables.insert("intrusions".to_string(), rows.clone());
    let expected = reference_eval(&op, &tables);

    let mut sim = stabilized_pier_sim(12, DhtConfig::static_network(), NetConfig::latency_only(5));
    publish_round_robin(&mut sim, "intrusions", &rows, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let desc = QueryDesc::one_shot(44, 0, op);
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(40));
    assert!(same_multiset(&expected, &rows_of(&results)));
}

#[test]
fn weighted_reputation_join_aggregate_via_sql() {
    // §2.1's third example: count(*) * sum(R.weight) with HAVING on the
    // alias, over a join of intrusions and reputation.
    let catalog = Catalog::intrusion();
    let op = parse_query(
        "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt \
         FROM intrusions I, reputation R WHERE R.address = I.address \
         GROUP BY I.fingerprint HAVING wcnt > 10",
        &catalog,
        JoinStrategy::SymmetricHash,
    )
    .unwrap();
    let intrusions = intrusion_rows(60);
    let reputation: Vec<Tuple> = (0..13)
        .map(|i| tuple![format!("10.0.0.{i}").as_str(), (i % 3) as i64])
        .collect();
    let mut tables = HashMap::new();
    tables.insert("intrusions".to_string(), intrusions.clone());
    tables.insert("reputation".to_string(), reputation.clone());
    let expected = reference_eval(&op, &tables);
    assert!(!expected.is_empty());

    let mut sim = stabilized_pier_sim(10, DhtConfig::static_network(), NetConfig::latency_only(6));
    publish_round_robin(&mut sim, "intrusions", &intrusions, 0, Dur::from_secs(3600));
    publish_round_robin(&mut sim, "reputation", &reputation, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let desc = QueryDesc::one_shot(45, 1, op);
    let results = run_query(&mut sim, 1, desc, Dur::from_secs(60));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "expected {expected:?} got {:?}",
        rows_of(&results)
    );
}

#[test]
fn epoch_join_aggregate_under_fetch_matches() {
    // The same weighted query as a standing epoch aggregate, joined by
    // Fetch Matches (reputation is hashed on its address). Fetch Matches
    // runs once over the tables at rest: rows published after install
    // would never reach the aggregate. The SQL front end refuses the
    // query, and a node that receives the descriptor anyway counts it
    // as a malformed install and runs nothing. (That Fetch Matches
    // output folds into a one-shot aggregation is
    // `sql_matrix::plain_join_each_strategy`'s to check.)
    let sql = "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt \
               FROM intrusions I, reputation R WHERE R.address = I.address \
               GROUP BY I.fingerprint EPOCH 20 SECONDS";
    let parse = |strategy| parse_continuous_query(sql, &Catalog::intrusion(), strategy, 46, 1);
    let why = parse(JoinStrategy::FetchMatches).unwrap_err();
    assert_eq!(why, "a standing join runs only under symmetric hash");

    let mut desc = parse(JoinStrategy::SymmetricHash).unwrap();
    desc.n_nodes = 10;
    if let QueryOp::Join { join, .. } = &mut desc.op {
        join.strategy = JoinStrategy::FetchMatches;
    }
    let intrusions = intrusion_rows(60);
    let reputation: Vec<Tuple> = (0..13)
        .map(|i| tuple![format!("10.0.0.{i}").as_str(), (i % 3) as i64])
        .collect();
    let mut sim = stabilized_pier_sim(10, DhtConfig::static_network(), NetConfig::latency_only(6));
    publish_round_robin(&mut sim, "intrusions", &intrusions, 0, Dur::from_secs(3600));
    publish_round_robin(&mut sim, "reputation", &reputation, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let results = run_query(&mut sim, 1, desc, Dur::from_secs(60));
    assert!(results.is_empty(), "{results:?}");
    let snap = metrics_snapshot(&sim);
    let dropped = |n: &pier_core::NodeMetrics| n.registry.malformed_installs;
    assert_eq!(snap.nodes.iter().map(dropped).sum::<u64>(), 10);
    assert!(snap.nodes.iter().all(|n| n.installed_queries == 0));
}

/// Partials that are not shaped like the query's own — what a peer on
/// another plan, or another query under a colliding namespace, would put
/// into `qns::agg(qid)` or send up the tree — are skipped where they
/// would be merged. Merged, the state kinds that disagree trip a
/// `debug_assert`, a surplus state is zip-truncated into the count, and
/// a key of another arity is emitted as a group of its own.
#[test]
fn foreign_shaped_partials_are_skipped() {
    let (count, max) = (AggState::Count(100), AggState::Max(Some(Value::I64(999))));
    let fp0 = || vec![Value::str("fp0")];
    let foreign: Vec<(Vec<Value>, Vec<AggState>)> = vec![
        (fp0(), vec![AggState::SumF(100.0), max.clone()]),
        (fp0(), vec![count.clone()]),
        (fp0(), vec![count.clone(), max.clone(), count.clone()]),
        (vec![Value::str("fp0"), Value::str("x")], vec![count, max]),
    ];
    let rows = intrusion_rows(60);
    let mut tables = HashMap::new();
    tables.insert("intrusions".to_string(), rows.clone());

    for hierarchical in [false, true] {
        let (n, qid, epoch) = (8, 47 + hierarchical as u64, Dur::from_secs(20));
        let mut desc = parse_continuous_query(
            "SELECT fingerprint, count(*), max(id) FROM intrusions \
             GROUP BY fingerprint EPOCH 20 SECONDS",
            &Catalog::intrusion(),
            JoinStrategy::SymmetricHash,
            qid,
            0,
        )
        .unwrap();
        desc.n_nodes = n as u32;
        if let QueryOp::Agg { agg, .. } = &mut desc.op {
            agg.hierarchical = hierarchical;
        }
        let expected = reference_eval(&desc.op, &tables);
        assert_eq!(expected.len(), 7);

        let mut sim =
            stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(12));
        publish_round_robin(&mut sim, "intrusions", &rows, 0, Dur::from_secs(3600));
        settle_publish(&mut sim);
        let t0 = sim.now();
        sim.with_app(0, |node, ctx| node.submit(ctx, desc));
        // Mid-epoch, every epoch: after the flat flush (5 s) and before
        // the harvest (10 s); between the tree's leaf and root flushes.
        for k in 0..3 {
            sim.run_for(Dur::from_secs(20 * k + 7) - sim.now().since(t0));
            let expires = sim.now() + epoch;
            for id in 0..n as NodeId {
                for (i, (group, states)) in foreign.iter().enumerate() {
                    let (group, states) = (group.clone().into(), states.clone());
                    let accs = GroupAccs { states }.into();
                    let msg = if hierarchical {
                        let part = Part::Groups([(group, accs)].into());
                        let (epoch, share) = (k as u32, u128::MAX);
                        PierMsg::Report(Box::new(Report {
                            qid,
                            epoch,
                            share,
                            part,
                        }))
                    } else {
                        let (ns, rid, iid) = (qns::agg(qid), i as u64, 1 << 20);
                        let val = QpItem::Partial { qid, group, accs };
                        let key = key_of(ns, rid);
                        PierMsg::Dht(DhtMsg::Put {
                            entry: Entry {
                                ns,
                                rid,
                                iid,
                                key,
                                expires,
                                val,
                            },
                        })
                    };
                    sim.with_app(id, |node, ctx| node.on_message(ctx, id, msg));
                }
            }
        }
        sim.run_for(Dur::from_secs(60) - sim.now().since(t0));
        let results = sim.app(0).unwrap().query_results(qid);
        for k in 0..3u64 {
            let in_epoch: Vec<Tuple> = results
                .iter()
                .filter(|(t, _)| t.since(t0).as_micros() / epoch.as_micros() == k)
                .map(|(_, r)| r)
                .collect();
            assert!(
                same_multiset(&expected, &in_epoch),
                "hier={hierarchical} epoch {k}: expected {expected:?} got {in_epoch:?}"
            );
        }
    }
}

#[test]
fn continuous_selection_streams_new_rows() {
    let scan = ScanSpec::new("feed", 2, 0).with_pred(Expr::gt(Expr::col(1), Expr::lit(5i64)));
    let project = vec![Expr::col(0), Expr::col(1)];
    let mut desc = QueryDesc::one_shot(50, 0, QueryOp::Scan { scan, project });
    desc.tenure = Tenure::Unwindowed { renew_every: None };

    let mut sim = stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(7));
    settle_publish(&mut sim);
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(10));
    assert!(sim.app(0).unwrap().query_results(50).is_empty());

    // Publish after the query is installed: matching rows stream out.
    let batch: Vec<Tuple> = (0..20i64).map(|k| tuple![k, k]).collect();
    publish_round_robin(&mut sim, "feed", &batch, 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(15));
    let got = sim.app(0).unwrap().query_results(50).len();
    assert_eq!(got, 14, "rows 6..=19 pass the predicate");

    // More rows keep streaming.
    let batch2: Vec<Tuple> = (100..105i64).map(|k| tuple![k, k]).collect();
    publish_round_robin(&mut sim, "feed", &batch2, 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(15));
    assert_eq!(sim.app(0).unwrap().query_results(50).len(), 19);
}

#[test]
fn continuous_windowed_join_evicts_old_state() {
    // A continuous SHJ with a 30 s window: tuples published more than a
    // window apart never join (their NQ state ages out — the soft-state
    // windowing of §7).
    let left = ScanSpec::new("A", 2, 0).with_join_col(1);
    let right = ScanSpec::new("B", 2, 0).with_join_col(1);
    let mut j = pier_core::plan::JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    let mut desc = QueryDesc::one_shot(60, 0, QueryOp::Join { join: j, agg: None });
    desc.tenure = Tenure::Windowed(Dur::from_secs(30));

    let mut sim = stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(8));
    settle_publish(&mut sim);
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(5));

    // a1 joins b1 (inside the window).
    publish_round_robin(&mut sim, "A", &[tuple![1i64, 7i64]], 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(10));
    publish_round_robin(&mut sim, "B", &[tuple![2i64, 7i64]], 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(10));
    assert_eq!(sim.app(0).unwrap().query_results(60).len(), 1);

    // b2 arrives 60 s after a1: a1's window state has expired.
    sim.run_for(Dur::from_secs(60));
    publish_round_robin(&mut sim, "B", &[tuple![3i64, 7i64]], 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(10));
    assert_eq!(
        sim.app(0).unwrap().query_results(60).len(),
        1,
        "expired window state must not join"
    );
}

#[test]
fn scan_query_with_strings_round_trips() {
    let rows: Vec<Tuple> = (0..10)
        .map(|i| tuple![i as i64, format!("host{i}").as_str()])
        .collect();
    let scan = ScanSpec::new("hosts", 2, 0);
    let project = vec![Expr::col(1)];
    let mut sim = stabilized_pier_sim(6, DhtConfig::static_network(), NetConfig::latency_only(9));
    publish_round_robin(&mut sim, "hosts", &rows, 0, Dur::from_secs(600));
    settle_publish(&mut sim);
    let desc = QueryDesc::one_shot(70, 3, QueryOp::Scan { scan, project });
    let results = run_query(&mut sim, 3, desc, Dur::from_secs(20));
    assert_eq!(results.len(), 10);
    assert!(rows_of(&results)
        .iter()
        .any(|t| t.get(0) == &Value::str("host7")));
}
