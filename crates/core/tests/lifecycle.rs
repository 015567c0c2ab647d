//! The continuous-query soft-state lifecycle, end to end: expiry-correct
//! probes (regression tests for the expired-but-unswept bugs),
//! epoch-driven re-emission of aggregates against the
//! [`reference_epochs`] oracle, sliding-window aging, and the
//! rehash-renewal loop keeping a standing join-aggregate at recall 1.0
//! far past the fallback horizon.

use std::collections::HashMap;

use pier_core::catalog::Catalog;
use pier_core::expr::Expr;
use pier_core::node::PierNode;
use pier_core::plan::{AggSpec, JoinSpec, JoinStage, JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_core::semantics::{precision, recall, reference_epochs, same_multiset, TimedRows};
use pier_core::sql::parse_continuous_query;
use pier_core::testkit::*;
use pier_core::tuple;
use pier_core::tuple::Tuple;
use pier_core::value::Value;
use pier_dht::DhtConfig;
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, NodeId, Sim};

/// A config whose maintenance tick (and thus expiry sweep) is very
/// rare, so expired-but-unswept soft state lingers in the stores — the
/// regime the expiry-correct probe rules must handle.
fn lazy_sweep_cfg() -> DhtConfig {
    let mut cfg = DhtConfig::static_network();
    cfg.tick = Dur::from_secs(300);
    cfg
}

/// Bucket timed results into epochs of length `epoch` (emissions for
/// epoch k arrive about half an epoch after the k-th boundary).
fn per_epoch(results: &[(Dur, Tuple)], epoch: Dur, n_epochs: usize) -> Vec<Vec<Tuple>> {
    let mut out = vec![Vec::new(); n_epochs];
    for (at, row) in results {
        let k = (at.as_micros() / epoch.as_micros()) as usize;
        if k < n_epochs {
            out[k].push(row.clone());
        }
    }
    out
}

/// Assert every epoch's emissions equal the oracle's, with recall and
/// precision 1.0 (no lost groups, no phantom groups).
fn assert_epochs_match(got: &[Vec<Tuple>], expected: &[Vec<Tuple>]) {
    assert_eq!(got.len(), expected.len());
    for (k, (g, e)) in got.iter().zip(expected).enumerate() {
        assert!(
            same_multiset(g, e),
            "epoch {k}: got {g:?} expected {e:?} (recall {}, precision {})",
            recall(e, g),
            precision(e, g)
        );
    }
}

// ---------------------------------------------------------------------
// Regression: expired-but-unswept probes (binary and final stage)
// ---------------------------------------------------------------------

#[test]
fn binary_probe_skips_expired_unswept_partner() {
    // A continuous symmetric-hash join with a 20 s window on a network
    // that sweeps expired state only every 300 s: a tuple arriving 35 s
    // after its partner must NOT join the partner's expired (but still
    // stored) window state.
    let left = ScanSpec::new("A", 2, 0).with_join_col(1);
    let right = ScanSpec::new("B", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    let desc = QueryDesc::standing(
        90,
        0,
        QueryOp::Join { join: j, agg: None },
        Some(Dur::from_secs(20)),
    );

    let mut sim: Sim<PierNode> =
        stabilized_pier_sim(8, lazy_sweep_cfg(), NetConfig::latency_only(17));
    sim.run_for(Dur::from_secs(2));
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(3));

    // a1 published now; its rehashed window state expires 20 s later.
    publish_round_robin(&mut sim, "A", &[tuple![1i64, 7i64]], 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(35));
    // b1 arrives with a1 expired but unswept (next sweep is at t=300).
    publish_round_robin(&mut sim, "B", &[tuple![2i64, 7i64]], 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(10));
    assert_eq!(
        sim.app(0).unwrap().query_results(90).len(),
        0,
        "expired-but-unswept state must not join"
    );

    // Control: a co-live pair on a different join value still joins.
    publish_round_robin(&mut sim, "A", &[tuple![3i64, 8i64]], 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(5));
    publish_round_robin(&mut sim, "B", &[tuple![4i64, 8i64]], 0, Dur::from_secs(600));
    sim.run_for(Dur::from_secs(10));
    let rows: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(90)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(same_multiset(&rows, &[tuple![3i64, 4i64]]));
}

#[test]
fn final_stage_match_against_expired_intermediate_is_dropped() {
    // 3-way pipeline A ⨝ B ⨝ C with a 25 s window, lazy sweep. A and B
    // join early; the intermediate republished into the last stage ages
    // out before C arrives — the last-stage match must not emit.
    let base = ScanSpec::new("A", 2, 0);
    let s1 = JoinStage {
        right: ScanSpec::new("B", 2, 0).with_join_col(0),
        left_col: 1,
        stage_pred: None,
    };
    let s2 = JoinStage {
        right: ScanSpec::new("C", 2, 0).with_join_col(0),
        left_col: 3,
        stage_pred: None,
    };
    let mut m = JoinSpec::pipeline(base, vec![s1, s2]);
    m.project = vec![Expr::col(0), Expr::col(5)];
    let desc = QueryDesc::standing(
        91,
        0,
        QueryOp::Join { join: m, agg: None },
        Some(Dur::from_secs(25)),
    );

    let mut sim: Sim<PierNode> =
        stabilized_pier_sim(8, lazy_sweep_cfg(), NetConfig::latency_only(19));
    sim.run_for(Dur::from_secs(2));
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(3));

    publish_round_robin(&mut sim, "A", &[tuple![1i64, 7i64]], 0, Dur::from_secs(600));
    publish_round_robin(&mut sim, "B", &[tuple![7i64, 9i64]], 0, Dur::from_secs(600));
    // 55 s later the A⋈B intermediate (lifetime ≤ 25 s) has expired but
    // not been swept; a fresh C must not resurrect it.
    sim.run_for(Dur::from_secs(55));
    publish_round_robin(
        &mut sim,
        "C",
        &[tuple![9i64, 100i64]],
        0,
        Dur::from_secs(600),
    );
    sim.run_for(Dur::from_secs(10));
    assert_eq!(
        sim.app(0).unwrap().query_results(91).len(),
        0,
        "a last-stage match against an aged-out constituent is a phantom"
    );

    // Control: a fully co-live chain emits exactly once.
    publish_round_robin(&mut sim, "A", &[tuple![2i64, 8i64]], 0, Dur::from_secs(600));
    publish_round_robin(
        &mut sim,
        "B",
        &[tuple![8i64, 11i64]],
        0,
        Dur::from_secs(600),
    );
    sim.run_for(Dur::from_secs(5));
    publish_round_robin(
        &mut sim,
        "C",
        &[tuple![11i64, 200i64]],
        0,
        Dur::from_secs(600),
    );
    sim.run_for(Dur::from_secs(10));
    let rows: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(91)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(same_multiset(&rows, &[tuple![2i64, 200i64]]));
}

#[test]
fn null_min_max_match_reference_end_to_end() {
    // MIN/MAX over a column with NULLs: the engine's distributed answer
    // equals the (null-skipping) reference. Fails pre-fix, where any
    // NULL made MIN collapse to NULL.
    let rows: Vec<Tuple> = (0..24i64)
        .map(|i| {
            let v = if i % 3 == 0 {
                Value::Null
            } else {
                Value::I64(i)
            };
            tuple![i, i % 2, v]
        })
        .collect();
    let scan = ScanSpec::new("vals", 3, 0);
    let agg = AggSpec::new(
        vec![1],
        vec![
            pier_core::plan::AggCall {
                func: pier_core::plan::AggFunc::Min,
                arg: Some(Expr::col(2)),
            },
            pier_core::plan::AggCall {
                func: pier_core::plan::AggFunc::Max,
                arg: Some(Expr::col(2)),
            },
        ],
    );
    let op = QueryOp::Agg { scan, agg };
    let mut tables = HashMap::new();
    tables.insert("vals".to_string(), rows.clone());
    let expected = pier_core::semantics::reference_eval(&op, &tables);
    // Sanity: the reference itself skips nulls.
    for row in &expected {
        assert_ne!(row.get(1), &Value::Null, "min must skip nulls: {row}");
    }

    let mut sim = stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(5));
    publish_round_robin(&mut sim, "vals", &rows, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let desc = QueryDesc::one_shot(92, 0, op);
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(30));
    assert!(same_multiset(&expected, &rows_of(&results)));
}

// ---------------------------------------------------------------------
// Epoch-driven continuous aggregation vs the reference_epochs oracle
// ---------------------------------------------------------------------

/// Deterministic intrusion reports: `id`, fingerprint, address.
fn reports(start: i64, n: usize) -> Vec<Tuple> {
    (start..start + n as i64)
        .map(|i| {
            tuple![
                i,
                format!("fp{}", i % 3).as_str(),
                format!("10.0.0.{}", i % 5).as_str()
            ]
        })
        .collect()
}

#[test]
fn flat_epoch_aggregate_reemits_and_matches_oracle() {
    let catalog = Catalog::intrusion();
    let epoch = Dur::from_secs(30);
    let desc = parse_continuous_query(
        "SELECT I.address, count(*) AS cnt FROM intrusions I \
         GROUP BY I.address EPOCH 30 SECONDS",
        &catalog,
        JoinStrategy::SymmetricHash,
        93,
        0,
    )
    .unwrap();
    let op = desc.op.clone();

    let mut sim = stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(29));
    let batch0 = reports(0, 24);
    publish_round_robin(&mut sim, "intrusions", &batch0, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);

    let t0 = sim.now();
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    // A second batch lands mid-epoch-1 (clear of the boundary flush),
    // visible from epoch 2 on.
    sim.run_for(Dur::from_secs(42));
    let batch1 = reports(100, 10);
    publish_round_robin(&mut sim, "intrusions", &batch1, 0, Dur::from_secs(100_000));
    let t_batch1 = sim.now().since(t0);
    sim.run_for(Dur::from_secs(65)); // through epoch 2's emission

    let mut timed: HashMap<String, TimedRows> = HashMap::new();
    timed.insert(
        "intrusions".to_string(),
        batch0
            .iter()
            .map(|r| (Time::ZERO, r.clone()))
            .chain(batch1.iter().map(|r| (Time::ZERO + t_batch1, r.clone())))
            .collect(),
    );
    let expected = reference_epochs(&op, &timed, None, epoch, 3);
    assert!(!expected[0].is_empty() && expected[2].len() >= expected[0].len());

    let results: Vec<(Dur, Tuple)> = sim
        .app(0)
        .unwrap()
        .query_results(93)
        .iter()
        .map(|(t, r)| (t.since(t0), r))
        .collect();
    let got = per_epoch(&results, epoch, 3);
    assert_epochs_match(&got, &expected);
}

#[test]
fn windowed_epoch_aggregate_ages_contributions_out() {
    // WINDOW 45 EPOCH 30: a batch published before the query counts in
    // epochs 0 and 1, then slides out; a mid-stream batch counts in
    // epoch 2 only. Emissions must match the oracle epoch by epoch —
    // including the *empty* later epochs (no lingering groups).
    let catalog = Catalog::intrusion();
    let epoch = Dur::from_secs(30);
    let desc = parse_continuous_query(
        "SELECT I.address, count(*) AS cnt FROM intrusions I \
         GROUP BY I.address WINDOW 45 SECONDS EPOCH 30 SECONDS",
        &catalog,
        JoinStrategy::SymmetricHash,
        94,
        0,
    )
    .unwrap();
    let op = desc.op.clone();

    let mut sim = stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(31));
    let batch0 = reports(0, 15);
    publish_round_robin(&mut sim, "intrusions", &batch0, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);

    let t0 = sim.now();
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(42));
    let batch1 = reports(100, 8);
    publish_round_robin(&mut sim, "intrusions", &batch1, 0, Dur::from_secs(100_000));
    let t_batch1 = sim.now().since(t0);
    sim.run_for(Dur::from_secs(95)); // through epoch 3's (empty) slot

    let mut timed: HashMap<String, TimedRows> = HashMap::new();
    timed.insert(
        "intrusions".to_string(),
        batch0
            .iter()
            .map(|r| (Time::ZERO, r.clone()))
            .chain(batch1.iter().map(|r| (Time::ZERO + t_batch1, r.clone())))
            .collect(),
    );
    let expected = reference_epochs(&op, &timed, Some(Dur::from_secs(45)), epoch, 4);
    assert!(!expected[0].is_empty());
    assert!(
        expected[3].is_empty(),
        "everything should have aged out by epoch 3"
    );

    let results: Vec<(Dur, Tuple)> = sim
        .app(0)
        .unwrap()
        .query_results(94)
        .iter()
        .map(|(t, r)| (t.since(t0), r))
        .collect();
    let got = per_epoch(&results, epoch, 4);
    assert_epochs_match(&got, &expected);
}

#[test]
fn hierarchical_epoch_aggregate_reemits_per_epoch() {
    // The in-network (tree) aggregation path also re-arms per epoch:
    // the root re-emits growing counts as new reports stream in.
    let mut agg = AggSpec::new(
        vec![1],
        vec![pier_core::plan::AggCall {
            func: pier_core::plan::AggFunc::Count,
            arg: None,
        }],
    )
    .with_epoch(Dur::from_secs(30));
    agg.hierarchical = true;
    let scan = ScanSpec::new("intrusions", 3, 0);
    let mut desc = QueryDesc::standing(95, 0, QueryOp::Agg { scan, agg }, None);
    desc.n_nodes = 8;

    let mut sim = stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(37));
    publish_round_robin(
        &mut sim,
        "intrusions",
        &reports(0, 16),
        0,
        Dur::from_secs(100_000),
    );
    settle_publish(&mut sim);
    let t0 = sim.now();
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(35));
    publish_round_robin(
        &mut sim,
        "intrusions",
        &reports(100, 16),
        0,
        Dur::from_secs(100_000),
    );
    sim.run_for(Dur::from_secs(60));

    let results: Vec<(Dur, Tuple)> = sim
        .app(0)
        .unwrap()
        .query_results(95)
        .iter()
        .map(|(t, r)| (t.since(t0), r))
        .collect();
    let got = per_epoch(&results, Dur::from_secs(30), 3);
    let count_sum =
        |rows: &[Tuple]| -> i64 { rows.iter().map(|r| r.get(1).as_i64().unwrap()).sum() };
    assert_eq!(count_sum(&got[0]), 16, "epoch 0 sees the first batch");
    assert_eq!(
        count_sum(&got[2]),
        32,
        "the standing tree re-emits with the second batch folded in"
    );
}

// ---------------------------------------------------------------------
// The renewal loop: standing queries outliving the horizon
// ---------------------------------------------------------------------

#[test]
fn standing_binary_join_renews_post_install_rehash_state() {
    // Regression: the continuous join newData path (`rehash_table` of
    // the arrived row) must put with the renewal-derived lifetime AND
    // enroll the state in the query's renewal loop. A left row published
    // after install joins a right row arriving well past the query's
    // horizon (3 × 30 s = 90 s).
    let left = ScanSpec::new("A", 2, 0).with_join_col(1);
    let right = ScanSpec::new("B", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    let desc = QueryDesc::standing(97, 0, QueryOp::Join { join: j, agg: None }, None)
        .with_renewal(Dur::from_secs(30));

    let mut sim: Sim<PierNode> =
        stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(43));
    sim.run_for(Dur::from_secs(2));
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(3));

    // Published AFTER install: enters through its newData upcall, not
    // the install's scan of the stored rows.
    publish_round_robin(
        &mut sim,
        "A",
        &[tuple![1i64, 7i64]],
        0,
        Dur::from_secs(100_000),
    );
    // Past the unrenewed 600 s lifetime and many renewal horizons
    // later, the partner arrives.
    sim.run_for(Dur::from_secs(650));
    publish_round_robin(
        &mut sim,
        "B",
        &[tuple![2i64, 7i64]],
        0,
        Dur::from_secs(100_000),
    );
    sim.run_for(Dur::from_secs(10));
    let rows: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(97)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(
        same_multiset(&rows, &[tuple![1i64, 2i64]]),
        "post-install rehash state must be renewed past the horizon: {rows:?}"
    );
}

#[test]
fn an_expired_arrival_enters_no_standing_query() {
    // A base row whose lifetime ends while its put is in flight is
    // expired when it lands: it enters neither a standing scan nor a
    // standing symmetric-hash join, as a query installed at that instant
    // would not take it. The rows the publisher stores itself are live
    // when stored, and enter both.
    let scan = ScanSpec::new("E", 2, 0);
    let project = vec![Expr::col(0), Expr::col(1)];
    let scan_q = QueryDesc::standing(98, 0, QueryOp::Scan { scan, project }, None);
    let left = ScanSpec::new("E", 2, 0).with_join_col(1);
    let right = ScanSpec::new("P", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    let join_q = QueryDesc::standing(99, 0, QueryOp::Join { join: j, agg: None }, None);

    let mut sim: Sim<PierNode> =
        stabilized_pier_sim(8, lazy_sweep_cfg(), NetConfig::latency_only(5));
    let partners: Vec<Tuple> = (0..40i64).map(|k| tuple![1000 + k, k]).collect();
    publish_round_robin(&mut sim, "P", &partners, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    sim.with_app(0, |node, ctx| {
        node.submit(ctx, scan_q);
        node.submit(ctx, join_q);
    });
    sim.run_for(Dur::from_secs(5));

    // Published from node 3 with a 1 ms lifetime: a put that leaves the
    // node lands after it.
    let rows: Vec<Tuple> = (0..40i64).map(|k| tuple![k, k]).collect();
    let ns = pier_dht::ns_of("E");
    let publisher = &sim.app(3).unwrap().dht;
    let stored_live: Vec<Tuple> = (rows.iter())
        .filter(|r| publisher.owns_key(pier_dht::key_of(ns, r.get(0).hash64())))
        .cloned()
        .collect();
    assert!(
        !stored_live.is_empty() && stored_live.len() < rows.len(),
        "{} of the rows stored at the publisher",
        stored_live.len()
    );
    sim.with_app(3, |node, ctx| {
        node.publish_rows(ctx, "E", rows, 0, Dur::from_millis(1))
    });
    sim.run_for(Dur::from_secs(10));

    let results = |sim: &Sim<PierNode>, qid| -> Vec<Tuple> {
        let log = sim.app(0).unwrap().query_results(qid);
        log.iter().map(|(_, r)| r).collect()
    };
    let scanned = results(&sim, 98);
    assert!(
        same_multiset(&scanned, &stored_live),
        "the standing scan took {} rows, {} were live when stored",
        scanned.len(),
        stored_live.len()
    );
    let pairs: Vec<Tuple> = (stored_live.iter())
        .map(|r| {
            tuple![
                r.get(0).as_i64().unwrap(),
                1000 + r.get(0).as_i64().unwrap()
            ]
        })
        .collect();
    let joined = results(&sim, 99);
    assert!(
        same_multiset(&joined, &pairs),
        "the standing join answered {} pairs, {} rows were live when stored",
        joined.len(),
        pairs.len()
    );

    // A scan installed now takes none of them.
    let scan = ScanSpec::new("E", 2, 0);
    let project = vec![Expr::col(0)];
    let late = QueryDesc::one_shot(100, 0, QueryOp::Scan { scan, project });
    sim.with_app(0, |node, ctx| node.submit(ctx, late));
    sim.run_for(Dur::from_secs(5));
    assert!(results(&sim, 100).is_empty());
}

#[test]
fn standing_triage_joinagg_outlives_fallback_horizon() {
    // The paper's intrusion triage as a standing 3-way join-aggregate
    // (scaled down: `RENEW 30 SECONDS` derives a 90 s horizon; the run
    // covers 300 s ≈ 3.3 horizons). Recall and precision stay
    // 1.0 against the per-epoch oracle — pre-renewal, rehashed advisory
    // and reputation state aged out and late reports lost their joins.
    let n = 10usize;
    let epoch = Dur::from_secs(60);
    let n_epochs = 5usize;
    let catalog = Catalog::intrusion();
    let desc = parse_continuous_query(
        &format!("{} RENEW 30 SECONDS", pier_workload_sql(None, 60)),
        &catalog,
        JoinStrategy::SymmetricHash,
        96,
        0,
    )
    .unwrap();
    let op = desc.op.clone();

    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(41));
    let advisories: Vec<Tuple> = (0..3i64)
        .map(|f| tuple![format!("fp{f}").as_str(), f + 5])
        .collect();
    let reputation: Vec<Tuple> = (0..5i64)
        .map(|a| tuple![format!("10.0.0.{a}").as_str(), a % 3])
        .collect();
    publish_round_robin(
        &mut sim,
        "advisories",
        &advisories,
        0,
        Dur::from_secs(100_000),
    );
    publish_round_robin(
        &mut sim,
        "reputation",
        &reputation,
        0,
        Dur::from_secs(100_000),
    );
    let batch0 = reports(0, 12);
    publish_round_robin(&mut sim, "intrusions", &batch0, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);

    let t0 = sim.now();
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    let mut timed_reports: TimedRows = batch0.iter().map(|r| (Time::ZERO, r.clone())).collect();
    // A fresh batch of reports early in every epoch: the late ones land
    // long after the unrenewed state would have expired.
    for k in 1..n_epochs {
        sim.run_until(t0 + epoch.saturating_mul(k as u64) + Dur::from_secs(10));
        let batch = reports(k as i64 * 100, 12);
        publish_round_robin(&mut sim, "intrusions", &batch, 0, Dur::from_secs(100_000));
        let at = sim.now().since(t0);
        timed_reports.extend(batch.iter().map(|r| (Time::ZERO + at, r.clone())));
    }
    sim.run_until(t0 + epoch.saturating_mul(n_epochs as u64));

    let mut timed: HashMap<String, TimedRows> = HashMap::new();
    timed.insert("intrusions".to_string(), timed_reports);
    timed.insert(
        "advisories".to_string(),
        advisories.iter().map(|r| (Time::ZERO, r.clone())).collect(),
    );
    timed.insert(
        "reputation".to_string(),
        reputation.iter().map(|r| (Time::ZERO, r.clone())).collect(),
    );
    let expected = reference_epochs(&op, &timed, None, epoch, n_epochs);
    assert!(expected.iter().all(|e| !e.is_empty()));

    let results: Vec<(Dur, Tuple)> = sim
        .app(0)
        .unwrap()
        .query_results(96)
        .iter()
        .map(|(t, r)| (t.since(t0), r))
        .collect();
    let got = per_epoch(&results, epoch, n_epochs);
    assert_epochs_match(&got, &expected);
}

// ---------------------------------------------------------------------
// Query lifecycle: uninstall, per-query renewal, one-shot retirement
// ---------------------------------------------------------------------

/// Total live soft state a query left across the whole network.
fn residual(sim: &Sim<PierNode>, qid: u64, stages: usize) -> usize {
    let now = sim.now();
    (0..sim.node_count() as NodeId)
        .filter_map(|i| sim.app(i))
        .map(|node| node.query_soft_state(now, qid, stages))
        .sum()
}

#[test]
fn uninstall_reclaims_state_and_leaves_other_tenants_running() {
    // Two joins share an overlay: a one-shot Bloom join and a standing
    // unwindowed one renewing every 30 s (horizon 3 × 30 = 90 s).
    // Cancelling the Bloom join must (a) stop its dataflow, (b) cancel
    // its timers and leave no renewal ledger anywhere, (c) leave zero
    // residual soft state in its qns::* namespaces — the long-lived
    // (640 s) collector fragments included — and (d) leave the other
    // tenant at full recall: teardown is per-query, not per-node.
    let join = |strategy: JoinStrategy, left: &str, right: &str| {
        let l = ScanSpec::new(left, 2, 0).with_join_col(1);
        let r = ScanSpec::new(right, 2, 0).with_join_col(1);
        let mut j = JoinSpec::new(strategy, l, r);
        j.project = vec![Expr::col(0), Expr::col(2)];
        QueryOp::Join { join: j, agg: None }
    };
    let bloom = QueryDesc::one_shot(200, 0, join(JoinStrategy::BloomFilter, "A", "B"));
    let shj = join(JoinStrategy::SymmetricHash, "C", "D");
    let standing = QueryDesc::standing(201, 0, shj, None).with_renewal(Dur::from_secs(30));
    let n = 8;
    let mut sim: Sim<PierNode> =
        stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(53));
    sim.run_for(Dur::from_secs(2));
    sim.with_app(0, |node, ctx| node.submit(ctx, bloom));
    sim.with_app(0, |node, ctx| node.submit(ctx, standing));
    sim.run_for(Dur::from_secs(3));

    publish_round_robin(
        &mut sim,
        "A",
        &[tuple![1i64, 7i64]],
        0,
        Dur::from_secs(100_000),
    );
    publish_round_robin(
        &mut sim,
        "C",
        &[tuple![5i64, 9i64]],
        0,
        Dur::from_secs(100_000),
    );
    sim.run_for(Dur::from_secs(5));
    assert!(
        residual(&sim, 200, 0) > 0,
        "collector fragments exist pre-cancel"
    );

    // Tear query 200 down.
    sim.with_app(0, |node, ctx| node.cancel(ctx, 200));
    sim.run_for(Dur::from_secs(5));
    for i in 0..n as NodeId {
        let node = sim.app(i).unwrap();
        assert!(!node.has_query(200), "node {i} still has the query");
        assert_eq!(node.rehash_pub_count(200), 0, "renewal ledger freed");
        assert_eq!(
            node.outstanding_requests(),
            1,
            "node {i}: only the surviving tenant's renewal timer remains"
        );
        assert!(node.has_query(201), "the other tenant survives");
    }

    // A partner arriving after the cancel must not join…
    publish_round_robin(
        &mut sim,
        "B",
        &[tuple![2i64, 7i64]],
        0,
        Dur::from_secs(100_000),
    );
    sim.run_for(Dur::from_secs(10));
    assert_eq!(
        sim.app(0).unwrap().query_results(200).len(),
        0,
        "a cancelled query must not produce results"
    );
    // …while the surviving tenant still joins far past the horizon.
    sim.run_for(Dur::from_secs(200));
    publish_round_robin(
        &mut sim,
        "D",
        &[tuple![6i64, 9i64]],
        0,
        Dur::from_secs(100_000),
    );
    sim.run_for(Dur::from_secs(10));
    let rows: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(201)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(same_multiset(&rows, &[tuple![5i64, 6i64]]));

    // One horizon (90 s) after the cancel, the cancelled query's soft
    // state has aged out of every store — reclamation by expiry.
    assert_eq!(residual(&sim, 200, 0), 0, "zero residual soft state");
}

#[test]
fn per_query_renewal_outlives_horizon_without_node_loop() {
    // A standing join carrying its own RENEW period keeps its rehash
    // state alive; an identical query without one ages out at the fixed
    // 600 s horizon. Nothing else renews rehash state.
    let mk = |qid: u64, left: &str, right: &str, renew: Option<Dur>| {
        let l = ScanSpec::new(left, 2, 0).with_join_col(1);
        let r = ScanSpec::new(right, 2, 0).with_join_col(1);
        let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, l, r);
        j.project = vec![Expr::col(0), Expr::col(2)];
        let d = QueryDesc::standing(qid, 0, QueryOp::Join { join: j, agg: None }, None);
        match renew {
            Some(every) => d.with_renewal(every),
            None => d,
        }
    };
    let mut sim: Sim<PierNode> =
        stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(59));
    sim.run_for(Dur::from_secs(2));
    let renewed = mk(210, "A", "B", Some(Dur::from_secs(60)));
    let unrenewed = mk(211, "C", "D", None);
    sim.with_app(0, |node, ctx| node.submit(ctx, renewed));
    sim.with_app(0, |node, ctx| node.submit(ctx, unrenewed));
    sim.run_for(Dur::from_secs(3));
    publish_round_robin(
        &mut sim,
        "A",
        &[tuple![1i64, 7i64]],
        0,
        Dur::from_secs(100_000),
    );
    publish_round_robin(
        &mut sim,
        "C",
        &[tuple![3i64, 8i64]],
        0,
        Dur::from_secs(100_000),
    );
    // Far past the unrenewed 600 s horizon, the partners arrive.
    sim.run_for(Dur::from_secs(700));
    publish_round_robin(
        &mut sim,
        "B",
        &[tuple![2i64, 7i64]],
        0,
        Dur::from_secs(100_000),
    );
    publish_round_robin(
        &mut sim,
        "D",
        &[tuple![4i64, 8i64]],
        0,
        Dur::from_secs(100_000),
    );
    sim.run_for(Dur::from_secs(10));
    let rows: Vec<Tuple> = sim
        .app(0)
        .unwrap()
        .query_results(210)
        .iter()
        .map(|(_, r)| r)
        .collect();
    assert!(
        same_multiset(&rows, &[tuple![1i64, 2i64]]),
        "per-query renewal must keep the standing join alive: {rows:?}"
    );
    assert_eq!(
        sim.app(0).unwrap().query_results(211).len(),
        0,
        "without a renewal period the same join ages out at the fixed horizon"
    );
}

#[test]
fn one_shot_queries_release_timers_and_instances() {
    // Regression for unbounded map growth: one-shot aggregate queries
    // (flat, join-fed, and Bloom-strategy join-fed) must retire at
    // their terminal harvest — timer_actions AND the query registry
    // return to baseline at every node. Pre-fix, every instance,
    // ns-route, and any yet-unfired timer (e.g. a Bloom collector
    // deadline outlived by its early count-based flush) stayed for the
    // process lifetime.
    let n = 8;
    let mut sim: Sim<PierNode> =
        stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(61));
    let rows: Vec<Tuple> = (0..16i64).map(|i| tuple![i, i % 4, i % 3]).collect();
    publish_round_robin(&mut sim, "E", &rows, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "F", &rows, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    let baseline: Vec<usize> = (0..n as NodeId)
        .map(|i| sim.app(i).unwrap().outstanding_requests())
        .collect();
    assert!(baseline.iter().all(|&c| c == 0));

    let agg = || {
        AggSpec::new(
            vec![1],
            vec![pier_core::plan::AggCall {
                func: pier_core::plan::AggFunc::Count,
                arg: None,
            }],
        )
    };
    // Flat one-shot aggregates.
    for qid in 220..226 {
        let desc = QueryDesc::one_shot(
            qid,
            0,
            QueryOp::Agg {
                scan: ScanSpec::new("E", 3, 0),
                agg: agg(),
            },
        );
        sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    }
    // A Bloom-strategy join aggregate: its collector deadline timers
    // (10 s) outlive the 5 s harvest unless retirement drains them.
    let left = ScanSpec::new("E", 3, 0).with_join_col(1);
    let right = ScanSpec::new("F", 3, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::BloomFilter, left, right);
    j.project = vec![Expr::col(1), Expr::col(2)];
    let mut agg2 = agg();
    agg2.group_cols = vec![0];
    agg2.aggs[0].arg = None;
    let mut desc = QueryDesc::one_shot(
        226,
        0,
        QueryOp::Join {
            join: j,
            agg: Some(agg2),
        },
    );
    desc.n_nodes = n as u32;
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));

    // Past every harvest (5 s default) but *before* the 10 s Bloom
    // deadline would fire on its own.
    sim.run_for(Dur::from_secs(8));
    for i in 0..n as NodeId {
        let node = sim.app(i).unwrap();
        assert_eq!(
            node.outstanding_requests(),
            baseline[i as usize],
            "node {i}: timer_actions must return to baseline"
        );
        assert_eq!(
            node.installed_query_count(),
            0,
            "node {i}: one-shot instances must retire after their harvest"
        );
    }
    // The queries actually produced results before retiring.
    assert!(!sim.app(0).unwrap().query_results(220).is_empty());
    assert!(!sim.app(0).unwrap().query_results(226).is_empty());
}

/// A `get` the DHT abandons is answered, empty, so the node that asked
/// drops its request instead of holding it for ever. A one-shot Fetch
/// Matches join runs with node 1 dead: the gets routed through it or
/// owned by it are never answered, and past the give-up horizon no live
/// node holds one, while the query stays installed and its results
/// stand.
#[test]
fn abandoned_gets_are_answered_and_forgotten() {
    let n = 6;
    let mut sim: Sim<PierNode> =
        stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(5));
    let r: Vec<Tuple> = (0..60i64).map(|k| tuple![k, k % 20]).collect();
    let s: Vec<Tuple> = (0..20i64).map(|k| tuple![k, k]).collect();
    publish_round_robin(&mut sim, "R", &r, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "S", &s, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    sim.fail_node(1);

    let left = ScanSpec::new("R", 2, 0).with_join_col(1);
    let right = ScanSpec::new("S", 2, 0).with_join_col(0);
    let mut j = JoinSpec::new(JoinStrategy::FetchMatches, left, right);
    j.project = vec![Expr::col(0), Expr::col(3)];
    let desc = QueryDesc::one_shot(77, 0, QueryOp::Join { join: j, agg: None });
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    let live = [0, 2, 3, 4, 5];
    let outstanding = |sim: &Sim<PierNode>| -> usize {
        let nodes = live.iter().map(|&i| sim.app(i).unwrap());
        nodes.map(PierNode::outstanding_requests).sum()
    };

    sim.run_for(Dur::from_secs(30));
    assert_eq!(outstanding(&sim), 7, "gets the dead node never answers");
    assert_eq!(sim.app(0).unwrap().query_results(77).len(), 44);

    sim.run_for(Dur::from_secs(1_200));
    assert_eq!(outstanding(&sim), 0, "every abandoned get answered");
    for &i in &live {
        assert!(
            sim.app(i).unwrap().has_query(77),
            "node {i} keeps the query"
        );
    }
    assert_eq!(sim.app(0).unwrap().query_results(77).len(), 44);
}

/// The workload crate owns the canonical standing-triage SQL; tests in
/// `pier_core` re-state it here to avoid a dev-dependency cycle.
fn pier_workload_sql(window_secs: Option<u64>, epoch_secs: u64) -> String {
    let window = window_secs.map_or(String::new(), |w| format!(" WINDOW {w} SECONDS"));
    format!(
        "SELECT I.address, count(*) AS reports, max(A.severity) AS sev \
         FROM intrusions I, advisories A, reputation R \
         WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
         GROUP BY I.address{window} EPOCH {epoch_secs} SECONDS"
    )
}
