//! End-to-end correctness of the four distributed join strategies (§4):
//! on a simulated network, every strategy must produce exactly the
//! multiset of results that a centralized evaluation produces.

use pier_core::expr::{Expr, Func};
use pier_core::plan::{JoinSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_core::semantics::{reference_join, same_multiset};
use pier_core::testkit::*;
use pier_core::tuple;
use pier_core::tuple::Tuple;
use pier_core::value::Value;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::NetConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Small R/S tables in the shape of §5.1: R has 10× the tuples of S, 90%
/// of R tuples have a matching S tuple, uniform attributes.
fn tables(seed: u64, n_s: i64) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_r = n_s * 10;
    // S(pkey, num2, num3)
    let s: Vec<Tuple> = (0..n_s)
        .map(|k| tuple![k, rng.gen_range(0..100i64), rng.gen_range(0..100i64)])
        .collect();
    // R(pkey, num1, num2, num3, pad): num1 joins S.pkey for 90% of rows.
    let r: Vec<Tuple> = (0..n_r)
        .map(|k| {
            let num1 = if rng.gen_bool(0.9) {
                rng.gen_range(0..n_s)
            } else {
                n_s + rng.gen_range(0..n_s) // no match
            };
            Tuple::new(vec![
                Value::I64(k),
                Value::I64(num1),
                Value::I64(rng.gen_range(0..100)),
                Value::I64(rng.gen_range(0..100)),
                Value::Pad(64),
            ])
        })
        .collect();
    (r, s)
}

fn workload_join(strategy: JoinStrategy) -> JoinSpec {
    let left = ScanSpec::new("R", 5, 0)
        .with_pred(Expr::gt(Expr::col(2), Expr::lit(49i64)))
        .with_join_col(1);
    let right = ScanSpec::new("S", 3, 0)
        .with_pred(Expr::gt(Expr::col(1), Expr::lit(49i64)))
        .with_join_col(0);
    let mut j = JoinSpec::new(strategy, left, right);
    j.stages[0].stage_pred = Some(Expr::gt(
        Expr::Call(Func::WorkloadF, vec![Expr::col(3), Expr::col(7)]),
        Expr::lit(29i64),
    ));
    // SELECT R.pkey, S.pkey, R.pad
    j.project = vec![Expr::col(0), Expr::col(5), Expr::col(4)];
    j
}

fn run_strategy(strategy: JoinStrategy, n_nodes: usize, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let (r, s) = tables(seed, 20);
    let j = workload_join(strategy);
    let expected = reference_join(&j, &r, &s);

    let mut sim = stabilized_pier_sim(
        n_nodes,
        DhtConfig::static_network(),
        NetConfig::latency_only(seed),
    );
    publish_round_robin(&mut sim, "R", &r, 0, Dur::from_secs(3600));
    publish_round_robin(&mut sim, "S", &s, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);

    let desc = QueryDesc::one_shot(
        seed.wrapping_mul(31) + strategy as u64,
        0,
        QueryOp::Join { join: j, agg: None },
    );
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
    (expected, rows_of(&results))
}

#[test]
fn symmetric_hash_join_matches_reference() {
    let (expected, actual) = run_strategy(JoinStrategy::SymmetricHash, 10, 1);
    assert!(!expected.is_empty(), "workload produced results");
    assert!(
        same_multiset(&expected, &actual),
        "expected {} got {}",
        expected.len(),
        actual.len()
    );
}

#[test]
fn fetch_matches_matches_reference() {
    let (expected, actual) = run_strategy(JoinStrategy::FetchMatches, 10, 2);
    assert!(!expected.is_empty());
    assert!(
        same_multiset(&expected, &actual),
        "expected {} got {}",
        expected.len(),
        actual.len()
    );
}

#[test]
fn symmetric_semi_join_matches_reference() {
    let (expected, actual) = run_strategy(JoinStrategy::SymmetricSemiJoin, 10, 3);
    assert!(!expected.is_empty());
    assert!(
        same_multiset(&expected, &actual),
        "expected {} got {}",
        expected.len(),
        actual.len()
    );
}

#[test]
fn bloom_filter_join_matches_reference() {
    let (expected, actual) = run_strategy(JoinStrategy::BloomFilter, 10, 4);
    assert!(!expected.is_empty());
    assert!(
        same_multiset(&expected, &actual),
        "expected {} got {}",
        expected.len(),
        actual.len()
    );
}

/// The collector's own fragment is stored inside `bloom_start`'s `put`;
/// when it is the one that completes the count — always, on one node —
/// its `newData` must reach the collector, so the filter is multicast at
/// once and not at the 10 s fallback deadline.
#[test]
fn bloom_collector_counts_its_own_fragment() {
    let (r, s) = tables(5, 20);
    let j = workload_join(JoinStrategy::BloomFilter);
    let expected = reference_join(&j, &r, &s);
    assert!(!expected.is_empty());

    let mut sim = stabilized_pier_sim(1, DhtConfig::static_network(), NetConfig::latency_only(5));
    publish_round_robin(&mut sim, "R", &r, 0, Dur::from_secs(3600));
    publish_round_robin(&mut sim, "S", &s, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);

    let mut desc = QueryDesc::one_shot(55, 0, QueryOp::Join { join: j, agg: None });
    desc.n_nodes = 1;
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(5));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "expected {} got {} before the collector's deadline",
        expected.len(),
        results.len()
    );
}

#[test]
fn all_strategies_agree_on_a_bigger_network() {
    let mut outputs = Vec::new();
    // One shared seed: every strategy answers the same workload, so the
    // result counts must agree across strategies.
    for strategy in JoinStrategy::ALL.iter() {
        let (expected, actual) = run_strategy(*strategy, 24, 100);
        assert!(
            same_multiset(&expected, &actual),
            "{}: expected {} got {}",
            strategy.name(),
            expected.len(),
            actual.len()
        );
        outputs.push(actual.len());
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn computation_nodes_constraint_preserves_results() {
    // Confining the rehash to 2 buckets must not change the answer.
    let (r, s) = tables(7, 15);
    let mut j = workload_join(JoinStrategy::SymmetricHash);
    j.computation_nodes = Some(2);
    let expected = reference_join(&j, &r, &s);
    let mut sim = stabilized_pier_sim(12, DhtConfig::static_network(), NetConfig::latency_only(7));
    publish_round_robin(&mut sim, "R", &r, 0, Dur::from_secs(3600));
    publish_round_robin(&mut sim, "S", &s, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let desc = QueryDesc::one_shot(777, 3, QueryOp::Join { join: j, agg: None });
    let results = run_query(&mut sim, 3, desc, Dur::from_secs(60));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "expected {} got {}",
        expected.len(),
        results.len()
    );
}

#[test]
fn empty_tables_produce_empty_results_without_hanging() {
    let j = workload_join(JoinStrategy::SymmetricHash);
    let mut sim = stabilized_pier_sim(6, DhtConfig::static_network(), NetConfig::latency_only(9));
    settle_publish(&mut sim);
    let desc = QueryDesc::one_shot(5, 0, QueryOp::Join { join: j, agg: None });
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(30));
    assert!(results.is_empty());
}

#[test]
fn selection_query_returns_projected_rows() {
    let (r, _s) = tables(11, 10);
    let scan = ScanSpec::new("R", 5, 0).with_pred(Expr::gt(Expr::col(2), Expr::lit(79i64)));
    let project = vec![Expr::col(0), Expr::col(2)];
    let expected: Vec<Tuple> = r
        .iter()
        .filter(|t| t.get(2) > &Value::I64(79))
        .map(|t| t.project(&[0, 2]))
        .collect();
    let mut sim = stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(11));
    publish_round_robin(&mut sim, "R", &r, 0, Dur::from_secs(3600));
    settle_publish(&mut sim);
    let desc = QueryDesc::one_shot(6, 2, QueryOp::Scan { scan, project });
    let results = run_query(&mut sim, 2, desc, Dur::from_secs(30));
    assert!(same_multiset(&expected, &rows_of(&results)));
}
