//! Edge cases of distributed execution: duplicate join values,
//! resourceID collisions (forced via tiny bucket counts), concurrent
//! queries, duplicate query delivery, string keys, NULL handling, and
//! NaN group keys.

use pier_core::expr::Expr;
use pier_core::plan::{
    AggCall, AggFunc, AggSpec, JoinSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec,
};
use pier_core::semantics::{reference_agg, reference_join, same_multiset};
use pier_core::testkit::*;
use pier_core::tuple;
use pier_core::tuple::Tuple;
use pier_core::value::Value;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::NetConfig;

fn setup(
    n: usize,
    seed: u64,
    tables: &[(&str, &[Tuple])],
) -> pier_simnet::Sim<pier_core::PierNode> {
    let mut sim = stabilized_pier_sim(
        n,
        DhtConfig::static_network(),
        NetConfig::latency_only(seed),
    );
    for (name, rows) in tables {
        publish_round_robin(&mut sim, name, rows, 0, Dur::from_secs(100_000));
    }
    settle_publish(&mut sim);
    sim
}

/// Many-to-many join values: duplicates must multiply correctly.
#[test]
fn many_to_many_join_produces_all_combinations() {
    // 4 left rows and 3 right rows share join value 7 -> 12 results.
    let left_rows: Vec<Tuple> = (0..6i64)
        .map(|k| tuple![k, if k < 4 { 7i64 } else { 8 }])
        .collect();
    let right_rows: Vec<Tuple> = (0..5i64)
        .map(|k| tuple![100 + k, if k < 3 { 7i64 } else { 9 }])
        .collect();
    for strategy in [JoinStrategy::SymmetricHash, JoinStrategy::SymmetricSemiJoin] {
        let left = ScanSpec::new("L", 2, 0).with_join_col(1);
        let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
        let mut j = JoinSpec::new(strategy, left, right);
        j.project = vec![Expr::col(0), Expr::col(2)];
        let expected = reference_join(&j, &left_rows, &right_rows);
        assert_eq!(expected.len(), 12);
        let mut sim = setup(8, 1, &[("L", &left_rows), ("Rt", &right_rows)]);
        let desc = QueryDesc::one_shot(1, 0, QueryOp::Join { join: j, agg: None });
        let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
        assert!(
            same_multiset(&expected, &rows_of(&results)),
            "{}: got {}",
            strategy.name(),
            results.len()
        );
    }
}

/// Forcing every rehashed tuple into a single bucket (computation_nodes
/// = 1) maximizes resourceID collisions; the join-value equality guard
/// must still keep results exact.
#[test]
fn single_bucket_rehash_survives_rid_collisions() {
    let left_rows: Vec<Tuple> = (0..30i64).map(|k| tuple![k, k % 5]).collect();
    let right_rows: Vec<Tuple> = (0..10i64).map(|k| tuple![100 + k, k % 5]).collect();
    let left = ScanSpec::new("L", 2, 0).with_join_col(1);
    let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    j.computation_nodes = Some(1);
    let expected = reference_join(&j, &left_rows, &right_rows);
    assert_eq!(expected.len(), 60); // 30 × 2 partners each
    let mut sim = setup(6, 2, &[("L", &left_rows), ("Rt", &right_rows)]);
    let desc = QueryDesc::one_shot(2, 0, QueryOp::Join { join: j, agg: None });
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
    assert!(same_multiset(&expected, &rows_of(&results)));
}

/// The semi-join fetches a side's full tuples by the primary key its
/// mini named, and a fetch returns every row stored under that key:
/// only one the scan selects, with the join value the minis matched on,
/// may join.
#[test]
fn semi_join_fetch_joins_only_selected_rows_of_the_join_value() {
    let left_rows = vec![
        tuple![1i64, 7i64, 5i64],
        tuple![1i64, 8i64, 5i64],
        tuple![1i64, 7i64, -5i64],
    ];
    let right_rows = vec![tuple![10i64, 7i64]];
    let left = ScanSpec::new("L", 3, 0)
        .with_pred(Expr::gt(Expr::col(2), Expr::lit(0i64)))
        .with_join_col(1);
    let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricSemiJoin, left, right);
    j.project = (0..4).map(Expr::col).collect();
    let expected = reference_join(&j, &left_rows, &right_rows);
    assert_eq!(expected, vec![tuple![1i64, 7i64, 5i64, 10i64]]);
    let mut sim = setup(4, 13, &[("L", &left_rows), ("Rt", &right_rows)]);
    let desc = QueryDesc::one_shot(13, 0, QueryOp::Join { join: j, agg: None });
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
    assert_eq!(rows_of(&results), expected);
}

/// Two different queries over the same tables run concurrently without
/// crosstalk (distinct query namespaces).
#[test]
fn concurrent_queries_are_isolated() {
    let rows: Vec<Tuple> = (0..40i64).map(|k| tuple![k, k % 4, k % 10]).collect();
    let srows: Vec<Tuple> = (0..4i64).map(|k| tuple![k, k * 11]).collect();
    let mut sim = setup(10, 3, &[("T", &rows), ("U", &srows)]);

    let mk = |strategy, pred_cut: i64| {
        let left = ScanSpec::new("T", 3, 0)
            .with_pred(Expr::gt(Expr::col(2), Expr::lit(pred_cut)))
            .with_join_col(1);
        let right = ScanSpec::new("U", 2, 0).with_join_col(0);
        let mut j = JoinSpec::new(strategy, left, right);
        j.project = vec![Expr::col(0), Expr::col(4)];
        j
    };
    let j1 = mk(JoinStrategy::SymmetricHash, 4);
    let j2 = mk(JoinStrategy::FetchMatches, 7);
    let e1 = reference_join(&j1, &rows, &srows);
    let e2 = reference_join(&j2, &rows, &srows);
    assert_ne!(e1.len(), e2.len());

    // Submit both at once from different initiators.
    sim.with_app(0, |node, ctx| {
        node.submit(
            ctx,
            QueryDesc::one_shot(
                10,
                0,
                QueryOp::Join {
                    join: j1,
                    agg: None,
                },
            ),
        )
    });
    sim.with_app(5, |node, ctx| {
        node.submit(
            ctx,
            QueryDesc::one_shot(
                11,
                5,
                QueryOp::Join {
                    join: j2,
                    agg: None,
                },
            ),
        )
    });
    sim.run_for(Dur::from_secs(60));
    let r1: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(10)
        .iter()
        .map(|(_, r)| r)
        .collect();
    let r2: Vec<Tuple> = sim
        .app(5)
        .unwrap()
        .query_results(11)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(same_multiset(&e1, &r1), "q1: {} vs {}", e1.len(), r1.len());
    assert!(same_multiset(&e2, &r2), "q2: {} vs {}", e2.len(), r2.len());
}

/// The same query multicast arriving twice (dedupe or retry) must not
/// duplicate results.
#[test]
fn duplicate_query_submission_does_not_duplicate_results() {
    let rows: Vec<Tuple> = (0..20i64).map(|k| tuple![k, k % 3]).collect();
    let srows: Vec<Tuple> = (0..3i64).map(|k| tuple![k, k]).collect();
    let left = ScanSpec::new("T", 2, 0).with_join_col(1);
    let right = ScanSpec::new("U", 2, 0).with_join_col(0);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0)];
    let expected = reference_join(&j, &rows, &srows);
    let mut sim = setup(8, 4, &[("T", &rows), ("U", &srows)]);
    let desc = QueryDesc::one_shot(20, 0, QueryOp::Join { join: j, agg: None });
    let desc2 = desc.clone();
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(2));
    sim.with_app(0, |node, ctx| node.submit(ctx, desc2)); // re-multicast
    sim.run_for(Dur::from_secs(60));
    let got: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(20)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(
        same_multiset(&expected, &got),
        "expected {} got {}",
        expected.len(),
        got.len()
    );
}

/// String join keys flow through hashing, rehash and probing intact.
#[test]
fn string_keyed_join() {
    let gw: Vec<Tuple> = (0..12i64)
        .map(|k| tuple![k, format!("d{}", k % 4).as_str()])
        .collect();
    let rb: Vec<Tuple> = (0..6i64)
        .map(|k| tuple![100 + k, format!("d{}", k % 3).as_str()])
        .collect();
    let left = ScanSpec::new("G", 2, 0).with_join_col(1);
    let right = ScanSpec::new("B", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0), Expr::col(1), Expr::col(2)];
    let expected = reference_join(&j, &gw, &rb);
    assert!(!expected.is_empty());
    let mut sim = setup(6, 5, &[("G", &gw), ("B", &rb)]);
    let desc = QueryDesc::one_shot(30, 1, QueryOp::Join { join: j, agg: None });
    let results = run_query(&mut sim, 1, desc, Dur::from_secs(60));
    assert!(same_multiset(&expected, &rows_of(&results)));
}

/// NULL join values: SQL semantics say NULL = NULL is not true — but our
/// engine joins on value equality where Null == Null. Verify distributed
/// execution agrees exactly with the reference (the semantics are
/// consistent, which is what matters for the reproduction).
#[test]
fn null_join_values_behave_consistently() {
    let l: Vec<Tuple> = vec![
        tuple![1i64, Value::Null],
        tuple![2i64, 7i64],
        tuple![3i64, Value::Null],
    ];
    let r: Vec<Tuple> = vec![tuple![10i64, Value::Null], tuple![11i64, 7i64]];
    let left = ScanSpec::new("L", 2, 0).with_join_col(1);
    let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    let expected = reference_join(&j, &l, &r);
    let mut sim = setup(5, 6, &[("L", &l), ("Rt", &r)]);
    let desc = QueryDesc::one_shot(40, 0, QueryOp::Join { join: j, agg: None });
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
    assert!(same_multiset(&expected, &rows_of(&results)));
}

/// `count(*) GROUP BY k` over keys `1.0, NaN, 2.0`, arriving in three
/// orders: a NaN key is one group of its own whatever the order, both
/// in the oracle and on a node folding the rows as they arrive, because
/// NaN sorts after every number and ties only with NaN. (Tied with every
/// number, it joined whichever group it met first, or swallowed the
/// rest.) Compared by `Debug` text, since `NaN != NaN`.
#[test]
fn nan_group_keys_are_a_group_of_their_own_in_any_order() {
    let count = AggCall {
        func: AggFunc::Count,
        arg: None,
    };
    let agg = AggSpec::new(vec![1], vec![count]);
    let want = "[Tuple { vals: [F64(1.0), I64(1)] }, Tuple { vals: [F64(2.0), I64(1)] }, \
                Tuple { vals: [F64(NaN), I64(1)] }]";
    let orders = [
        [1.0, f64::NAN, 2.0],
        [f64::NAN, 1.0, 2.0],
        [2.0, 1.0, f64::NAN],
    ];
    for (qid, keys) in (1..).zip(orders) {
        let rows: Vec<Tuple> = (0i64..).zip(keys).map(|(id, k)| tuple![id, k]).collect();
        assert_eq!(
            format!("{:?}", reference_agg(&agg, &rows)),
            want,
            "{keys:?}"
        );

        // Installed first, so each row folds as it arrives, in order.
        let mut sim = setup(1, 3, &[]);
        let scan = ScanSpec::new("K", 2, 0);
        let op = QueryOp::Agg {
            scan,
            agg: agg.clone().with_epoch(Dur::from_secs(20)),
        };
        let desc = QueryDesc::standing(qid, 0, op, None);
        sim.with_app(0, |node, ctx| {
            node.submit(ctx, desc);
            for row in rows {
                node.publish_rows(ctx, "K", vec![row], 0, Dur::from_secs(600));
            }
        });
        sim.run_for(Dur::from_secs(12));
        let results = sim.node(0).unwrap().query_results(qid);
        let got: Vec<Tuple> = results.iter().map(|(_, row)| row).collect();
        assert_eq!(format!("{got:?}"), want, "{keys:?} on a node");
    }
}

/// A join whose predicate rejects everything yields nothing but
/// terminates cleanly on every strategy.
#[test]
fn fully_selective_predicates_yield_empty_results() {
    let rows: Vec<Tuple> = (0..20i64).map(|k| tuple![k, k % 3, k]).collect();
    let srows: Vec<Tuple> = (0..3i64).map(|k| tuple![k, k]).collect();
    for strategy in JoinStrategy::ALL {
        let left = ScanSpec::new("T", 3, 0)
            .with_pred(Expr::gt(Expr::col(2), Expr::lit(10_000i64)))
            .with_join_col(1);
        let right = ScanSpec::new("U", 2, 0).with_join_col(0);
        let mut j = JoinSpec::new(strategy, left, right);
        j.project = vec![Expr::col(0)];
        let mut sim = setup(6, 7, &[("T", &rows), ("U", &srows)]);
        let desc = QueryDesc::one_shot(50, 0, QueryOp::Join { join: j, agg: None });
        let results = run_query(&mut sim, 0, desc, Dur::from_secs(40));
        assert!(results.is_empty(), "{}", strategy.name());
    }
}

/// A descriptor arrives from the network: a malformed one — a broken
/// join shape, any index past the arity of the tuple it would be
/// evaluated over (built here as struct literals, bypassing the
/// asserting constructors), or a lifetime its operator cannot run for
/// (a standing join under a strategy with no arrival path, an epoch on
/// a one-shot) — must be refused at install as a counted drop on every
/// node — never a panic at some later event — and must not disturb a
/// well-formed query installed beside it.
#[test]
fn malformed_join_descriptors_are_counted_drops() {
    use pier_core::plan::{AggCall, AggFunc, AggSpec, JoinStage, Tenure};
    let left_rows: Vec<Tuple> = (0..6i64).map(|k| tuple![k, k % 3]).collect();
    let right_rows: Vec<Tuple> = (0..3i64).map(|k| tuple![k, k]).collect();
    let good = || {
        let left = ScanSpec::new("L", 2, 0).with_join_col(1);
        let right = ScanSpec::new("Rt", 2, 0).with_join_col(0);
        let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
        j.project = vec![Expr::col(0), Expr::col(3)];
        j
    };
    let stage = |join_col: Option<usize>, left_col: usize| JoinStage {
        right: ScanSpec {
            join_col,
            ..ScanSpec::new("Rt", 2, 0)
        },
        left_col,
        stage_pred: None,
    };
    let with = |strategy: JoinStrategy, stages: Vec<JoinStage>| {
        let join = JoinSpec {
            strategy,
            stages,
            ..good()
        };
        QueryOp::Join { join, agg: None }
    };
    let count_by = |group_col: usize| {
        let count = AggCall {
            func: AggFunc::Count,
            arg: None,
        };
        AggSpec::new(vec![group_col], vec![count])
    };
    let shj = JoinStrategy::SymmetricHash;
    let (once, standing) = (Tenure::OneShot, Tenure::Unwindowed { renew_every: None });
    let malformed = [
        ("no stage", with(shj, vec![]), once),
        (
            "no right join column",
            with(shj, vec![stage(None, 1)]),
            once,
        ),
        (
            "right join column out of range",
            with(shj, vec![stage(Some(2), 1)]),
            once,
        ),
        (
            "left join column out of range",
            with(shj, vec![stage(Some(0), 2)]),
            once,
        ),
        (
            "second stage's left column out of range",
            with(shj, vec![stage(Some(0), 1), stage(Some(0), 4)]),
            once,
        ),
        (
            "Fetch Matches on a non-key column",
            with(JoinStrategy::FetchMatches, vec![stage(Some(1), 1)]),
            once,
        ),
        (
            "a semi-join pipeline",
            with(
                JoinStrategy::SymmetricSemiJoin,
                vec![stage(Some(0), 1), stage(Some(0), 1)],
            ),
            once,
        ),
        (
            "projected column past the concatenated arity",
            QueryOp::Join {
                join: JoinSpec {
                    project: vec![Expr::col(0), Expr::col(4)],
                    ..good()
                },
                agg: None,
            },
            once,
        ),
        (
            "stage predicate column past the concatenated arity",
            with(
                shj,
                vec![JoinStage {
                    stage_pred: Some(Expr::gt(Expr::col(4), Expr::lit(0i64))),
                    ..stage(Some(0), 1)
                }],
            ),
            once,
        ),
        (
            "group column past the scan's arity",
            QueryOp::Agg {
                scan: ScanSpec::new("L", 2, 0),
                agg: count_by(2),
            },
            once,
        ),
        (
            "group column past the join's projected arity",
            QueryOp::Join {
                join: good(),
                agg: Some(count_by(2)),
            },
            once,
        ),
        (
            "primary key past the arity under the semi-join rewrite",
            QueryOp::Join {
                join: JoinSpec {
                    strategy: JoinStrategy::SymmetricSemiJoin,
                    left: ScanSpec {
                        pkey_col: 2,
                        ..ScanSpec::new("L", 2, 0)
                    },
                    ..good()
                },
                agg: None,
            },
            once,
        ),
        (
            "scan projection past the arity",
            QueryOp::Scan {
                scan: ScanSpec::new("L", 2, 0),
                project: vec![Expr::col(2)],
            },
            once,
        ),
        (
            "HAVING column past the aggregation's output row",
            QueryOp::Agg {
                scan: ScanSpec::new("L", 2, 0),
                agg: AggSpec {
                    having: Some(Expr::gt(Expr::col(2), Expr::lit(0i64))),
                    ..count_by(1)
                },
            },
            once,
        ),
        (
            "a standing Fetch Matches join",
            with(JoinStrategy::FetchMatches, vec![stage(Some(0), 1)]),
            standing,
        ),
        (
            "a standing semi-join",
            with(JoinStrategy::SymmetricSemiJoin, vec![stage(Some(0), 1)]),
            standing,
        ),
        (
            "a windowed Bloom join",
            with(JoinStrategy::BloomFilter, vec![stage(Some(0), 1)]),
            Tenure::Windowed(Dur::from_secs(60)),
        ),
        (
            "an epoch on a one-shot aggregate",
            QueryOp::Agg {
                scan: ScanSpec::new("L", 2, 0),
                agg: count_by(1).with_epoch(Dur::from_secs(10)),
            },
            once,
        ),
    ];
    let expected = reference_join(&good(), &left_rows, &right_rows);
    assert_eq!(expected.len(), 6);
    for (what, op, tenure) in malformed {
        let mut sim = setup(4, 9, &[("L", &left_rows), ("Rt", &right_rows)]);
        let mut bad = QueryDesc::one_shot(61, 1, op);
        bad.tenure = tenure;
        sim.with_node(1, |node, ctx| node.submit(ctx, bad));
        let join = good();
        let ok = QueryDesc::one_shot(62, 0, QueryOp::Join { join, agg: None });
        let results = run_query(&mut sim, 0, ok, Dur::from_secs(30));
        assert!(same_multiset(&expected, &rows_of(&results)), "{what}");
        let snap = metrics_snapshot(&sim);
        let dropped = |n: &pier_core::NodeMetrics| n.registry.malformed_installs;
        assert_eq!(snap.nodes.iter().map(dropped).sum::<u64>(), 4, "{what}");
        assert!(
            snap.nodes.iter().all(|n| n.installed_queries == 1),
            "{what}"
        );
    }
}

/// Rows of the wrong width — another publisher's schema under the same
/// table name, a stage row of another plan under a colliding namespace —
/// are skipped where a node first views them. Read on, a missing column
/// would be a NULL group or a NULL join value; decoded, as they once
/// were, they indexed past the tuple and killed the node. Delivered to a
/// flat aggregate and a join aggregate both before install (the install
/// scan) and after (`newData`), and straight into the join's stage
/// namespace on both sides: no panic, and every epoch after the last
/// publish reports the oracle's answer over the well-formed rows.
#[test]
fn rows_of_the_wrong_width_are_skipped() {
    use pier_core::catalog::Catalog;
    use pier_core::item::{PierMsg, QpItem, Side};
    use pier_core::plan::qns;
    use pier_core::semantics::reference_eval;
    use pier_core::sql::parse_continuous_query;
    use pier_core::tuple::FlatRow;
    use pier_dht::{key_of, DhtMsg, Entry};
    use pier_simnet::{App, NodeId};
    use std::collections::HashMap;

    let intrusions = |ids: std::ops::Range<i64>| -> Vec<Tuple> {
        ids.map(|i| {
            let (fp, addr) = (format!("sig-{:04}", i % 2), format!("10.0.0.{}", i % 5));
            tuple![i, fp.as_str(), addr.as_str()]
        })
        .collect()
    };
    // Each passes the fingerprint selection: the column it lacks is the
    // group's (intrusions) or the aggregated one's (advisories).
    let short_intrusions =
        |ids: std::ops::Range<i64>| -> Vec<Tuple> { ids.map(|i| tuple![i, "sig-0001"]).collect() };
    let advisories = vec![tuple!["sig-0001", 3i64], tuple!["sig-0000", 5i64]];
    let short_advisories = vec![tuple!["sig-0001"]];

    let (n, epoch, life) = (8, Dur::from_secs(20), Dur::from_secs(3600));
    let query = |qid: u64, sql: &str| {
        let cat = Catalog::intrusion();
        let strategy = JoinStrategy::SymmetricHash;
        let mut desc = parse_continuous_query(sql, &cat, strategy, qid, 0).unwrap();
        desc.n_nodes = n as u32;
        desc
    };
    let (flat, joined) = (71, 72);
    let queries = [
        query(
            flat,
            "SELECT address, count(*) FROM intrusions WHERE fingerprint = 'sig-0001' \
             GROUP BY address EPOCH 20 SECONDS",
        ),
        query(
            joined,
            "SELECT I.address, count(*), max(A.severity) FROM intrusions I, advisories A \
             WHERE I.fingerprint = A.fingerprint AND I.fingerprint = 'sig-0001' \
             GROUP BY I.address EPOCH 20 SECONDS",
        ),
    ];
    let mut tables = HashMap::new();
    tables.insert("intrusions".to_string(), intrusions(0..60));
    tables.insert("advisories".to_string(), advisories.clone());
    let expected: Vec<Vec<Tuple>> = queries
        .iter()
        .map(|d| reference_eval(&d.op, &tables))
        .collect();
    assert!(expected.iter().all(|e| e.len() == 5), "{expected:?}");

    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(8));
    publish_round_robin(&mut sim, "intrusions", &intrusions(0..40), 0, life);
    publish_round_robin(&mut sim, "intrusions", &short_intrusions(100..110), 0, life);
    publish_round_robin(&mut sim, "advisories", &advisories, 0, life);
    publish_round_robin(&mut sim, "advisories", &short_advisories, 0, life);
    settle_publish(&mut sim);
    let t0 = sim.now();
    for desc in queries.iter().cloned() {
        sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    }

    sim.run_for(Dur::from_secs(7));
    publish_round_robin(&mut sim, "intrusions", &intrusions(40..60), 0, life);
    publish_round_robin(&mut sim, "intrusions", &short_intrusions(110..120), 0, life);
    // Stage rows one column short of the join's pruned layout, on either
    // side, under the join value that has partners.
    let ns = qns::rehash(joined);
    let join = Value::str("sig-0001");
    let rid = join.hash64();
    for (i, side) in [Side::Left, Side::Right].into_iter().enumerate() {
        let val = QpItem::Tagged {
            qid: joined,
            side,
            join: join.clone(),
            row: FlatRow::from_tuple(&tuple!["sig-0001"]),
        };
        let entry = Entry {
            ns,
            rid,
            iid: (1 << 20) + i as u32,
            key: key_of(ns, rid),
            expires: sim.now() + life,
            val,
        };
        for id in 0..n as NodeId {
            let msg = PierMsg::Dht(DhtMsg::Put {
                entry: entry.clone(),
            });
            sim.with_app(id, |node, ctx| node.on_message(ctx, id, msg));
        }
    }

    sim.run_for(Dur::from_secs(60) - sim.now().since(t0));
    for (desc, expected) in queries.iter().zip(&expected) {
        let results = sim.app(0).unwrap().query_results(desc.qid);
        for k in 1..3u64 {
            let in_epoch: Vec<Tuple> = results
                .iter()
                .filter(|(t, _)| t.since(t0).as_micros() / epoch.as_micros() == k)
                .map(|(_, r)| r.clone())
                .collect();
            assert!(
                same_multiset(expected, &in_epoch),
                "query {} epoch {k}: expected {expected:?} got {in_epoch:?}",
                desc.qid
            );
        }
    }
}

/// A Bloom report of another shape up a query's combine tree — another
/// plan's filters under a colliding qid, or a corrupt one — is refused
/// whole, share included. OR-ed in, it tripped `BloomFilter::union`'s
/// shape assertion and killed the node merging it; counted, its share
/// would let the root finish before every node's filters were in.
/// Delivered to every node before the query is submitted and again
/// while its multicast is in flight: no panic, and the oracle's answer.
#[test]
fn bloom_fragments_of_another_shape_are_skipped() {
    use pier_core::bloom::BloomFilter;
    use pier_core::item::{Part, PierMsg, Report};
    use pier_core::PierNode;
    use pier_simnet::{App, NodeId, Sim};

    let n = 8;
    let left_rows: Vec<Tuple> = (0..40i64).map(|k| tuple![k, k % 7]).collect();
    let right_rows: Vec<Tuple> = (0..5i64).map(|k| tuple![100 + k, k]).collect();
    let left = ScanSpec::new("L", 2, 0).with_join_col(1);
    let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::BloomFilter, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    let expected = reference_join(&j, &left_rows, &right_rows);
    assert!(!expected.is_empty());

    let qid = 80;
    let mut foreign = BloomFilter::new(128, 4);
    foreign.insert(1);
    assert!(!foreign.has_shape(j.bloom_bits, 4));
    let deliver = |sim: &mut Sim<PierNode>| {
        for id in 0..n as NodeId {
            let part = Part::Bloom([foreign.clone(), foreign.clone()]);
            let (epoch, share) = (0, u128::MAX);
            let msg = PierMsg::Report(Box::new(Report {
                qid,
                epoch,
                share,
                part,
            }));
            sim.with_app(id, |node, ctx| node.on_message(ctx, id, msg));
        }
    };

    let mut sim = setup(n, 12, &[("L", &left_rows), ("Rt", &right_rows)]);
    deliver(&mut sim);
    let mut desc = QueryDesc::one_shot(qid, 0, QueryOp::Join { join: j, agg: None });
    desc.n_nodes = n as u32;
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    deliver(&mut sim);
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
        "expected {} got {}",
        expected.len(),
        got.len()
    );
}
