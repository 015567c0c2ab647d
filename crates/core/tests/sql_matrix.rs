//! SQL → distributed execution equivalence matrix: a battery of queries
//! parsed by the front-end, run on a simulated network, and compared to
//! the centralized reference evaluation of the same parsed plan.

use std::collections::HashMap;

use pier_core::catalog::Catalog;
use pier_core::plan::{JoinStrategy, QueryDesc};
use pier_core::semantics::{reference_eval, same_multiset};
use pier_core::sql::parse_query;
use pier_core::testkit::*;
use pier_core::tuple;
use pier_core::tuple::{ColType, Tuple};
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::NetConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_simple(
        "emp",
        &[
            ("id", ColType::I64),
            ("dept", ColType::I64),
            ("salary", ColType::I64),
            ("name", ColType::Str),
        ],
        0,
    );
    c.register_simple("dept", &[("id", ColType::I64), ("budget", ColType::I64)], 0);
    c
}

fn data(seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let depts: Vec<Tuple> = (0..6i64)
        .map(|d| tuple![d, rng.gen_range(100..1000i64)])
        .collect();
    let emps: Vec<Tuple> = (0..80i64)
        .map(|i| {
            tuple![
                i,
                rng.gen_range(0..8i64), // some depts have no row
                rng.gen_range(30..200i64),
                format!("e{}", i % 10).as_str()
            ]
        })
        .collect();
    (emps, depts)
}

/// Parse, evaluate centrally, run distributed, compare.
fn check(sql: &str, qid: u64, strategy: JoinStrategy) {
    let cat = catalog();
    let op = parse_query(sql, &cat, strategy).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
    let (emps, depts) = data(qid);
    let mut tables = HashMap::new();
    tables.insert("emp".to_string(), emps.clone());
    tables.insert("dept".to_string(), depts.clone());
    let expected = reference_eval(&op, &tables);

    let mut sim = stabilized_pier_sim(9, DhtConfig::static_network(), NetConfig::latency_only(qid));
    publish_round_robin(&mut sim, "emp", &emps, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "dept", &depts, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    let mut desc = QueryDesc::one_shot(qid, 0, op);
    desc.n_nodes = 9;
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "{sql}\nexpected {} got {}",
        expected.len(),
        results.len()
    );
}

#[test]
fn projection_only() {
    check("SELECT id, salary FROM emp", 1, JoinStrategy::SymmetricHash);
}

#[test]
fn star_select_with_predicate() {
    check(
        "SELECT * FROM emp WHERE salary > 100",
        2,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn arithmetic_projection() {
    check(
        "SELECT id, salary * 2 + 1 FROM emp WHERE salary % 2 = 0",
        3,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn string_predicate() {
    check(
        "SELECT id FROM emp WHERE name = 'e3'",
        4,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn plain_join_each_strategy() {
    for (i, strategy) in JoinStrategy::ALL.iter().enumerate() {
        check(
            "SELECT e.id, d.budget FROM emp e, dept d WHERE e.dept = d.id",
            10 + i as u64,
            *strategy,
        );
        // Every strategy ends in the same sink, so every strategy feeds
        // an aggregation (Fetch Matches and the semi-join once shipped
        // their raw join rows to the initiator instead).
        check(
            "SELECT d.id, count(*), sum(e.salary) FROM emp e, dept d \
             WHERE e.dept = d.id GROUP BY d.id",
            60 + i as u64,
            *strategy,
        );
    }
}

#[test]
fn join_with_local_and_post_predicates() {
    check(
        "SELECT e.id FROM emp e, dept d \
         WHERE e.dept = d.id AND e.salary > 80 AND d.budget > 300 \
         AND e.salary < d.budget",
        20,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn group_by_count_and_sum() {
    check(
        "SELECT dept, count(*), sum(salary) FROM emp GROUP BY dept",
        30,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn group_by_having_alias() {
    check(
        "SELECT dept, count(*) AS c FROM emp GROUP BY dept HAVING c > 10",
        31,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn min_max_avg() {
    check(
        "SELECT dept, min(salary), max(salary), avg(salary) FROM emp GROUP BY dept",
        32,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn global_aggregate_without_group_by() {
    check("SELECT count(*) FROM emp", 33, JoinStrategy::SymmetricHash);
}

#[test]
fn join_aggregate() {
    check(
        "SELECT d.id, count(*) FROM emp e, dept d WHERE e.dept = d.id GROUP BY d.id",
        40,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn aggregate_expression_over_two_aggs() {
    check(
        "SELECT dept, count(*) * sum(salary) AS blended FROM emp \
         GROUP BY dept HAVING blended > 1000",
        41,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn or_predicates() {
    check(
        "SELECT id FROM emp WHERE salary > 180 OR dept = 2",
        50,
        JoinStrategy::SymmetricHash,
    );
}

#[test]
fn not_predicate() {
    check(
        "SELECT id FROM emp WHERE NOT (salary > 100)",
        51,
        JoinStrategy::SymmetricHash,
    );
}
