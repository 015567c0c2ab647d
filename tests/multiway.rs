//! End-to-end multi-way join pipelines: N-table SQL queries executed on
//! simulated overlays and checked against the centralized reference
//! evaluator by multiset equality.

use pier::qp::plan::{QueryDesc, Tenure};
use pier::qp::semantics::{reference_eval, same_multiset};
use pier::qp::testkit::*;
use pier::qp::{
    parse_query, plan_sql, Catalog, CostParams, JoinStrategy, Objective, QueryOp, TableStats,
};
use pier::simnet::time::Dur;
use pier::simnet::NetConfig;
use pier::workload::{intrusion, RsParams, RsWorkload};
use pier_dht::DhtConfig;

fn small_workload(seed: u64) -> RsWorkload {
    RsWorkload::generate(RsParams {
        s_rows: 30,
        t_rows: 50,
        seed,
        ..Default::default()
    })
}

fn publish_rst(sim: &mut pier::simnet::Sim<pier::qp::PierNode>, wl: &RsWorkload) {
    let life = Dur::from_secs(100_000);
    publish_round_robin(sim, "R", &wl.r, 0, life);
    publish_round_robin(sim, "S", &wl.s, 0, life);
    publish_round_robin(sim, "T", &wl.t, 0, life);
    settle_publish(sim);
}

/// The acceptance query: a 3-table SQL join parsed, multicast, executed
/// as a chained symmetric-hash pipeline, and compared to the reference.
#[test]
fn three_table_sql_join_end_to_end() {
    let wl = small_workload(21);
    let catalog = Catalog::workload();
    let op = parse_query(
        "SELECT R.pkey, S.pkey, T.pkey FROM R, S, T \
         WHERE R.num1 = S.pkey AND S.num3 = T.pkey",
        &catalog,
        JoinStrategy::SymmetricHash,
    )
    .unwrap();
    let expected = reference_eval(&op, &wl.tables());
    assert!(!expected.is_empty(), "workload produces 3-way matches");

    let mut sim = stabilized_pier_sim(12, DhtConfig::static_network(), NetConfig::latency_only(21));
    publish_rst(&mut sim, &wl);
    let desc = QueryDesc::one_shot(1, 0, op);
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(90));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "expected {} got {}",
        expected.len(),
        results.len()
    );
}

/// The full 3-way workload query (predicates on R, T, and a cross-table
/// f() evaluated mid-pipeline), hand-built rather than parsed.
#[test]
fn workload_multiway_query_matches_reference() {
    let wl = small_workload(22);
    let expected = wl.expected_multi();
    assert!(!expected.is_empty());
    let mut sim = stabilized_pier_sim(10, DhtConfig::static_network(), NetConfig::latency_only(22));
    publish_rst(&mut sim, &wl);
    let results = run_query(&mut sim, 3, wl.multi_query(7, 3), Dur::from_secs(90));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "expected {} got {}",
        expected.len(),
        results.len()
    );
}

/// The cost-based planner reorders the pipeline (T is smallest, so it
/// becomes the base); the reordered plan still matches its reference.
#[test]
fn planner_ordered_pipeline_end_to_end() {
    let wl = small_workload(23);
    let mut catalog = Catalog::workload();
    for (name, rows, bytes) in [
        ("R", wl.r.len(), 1024),
        ("S", wl.s.len(), 100),
        ("T", wl.t.len(), 100),
    ] {
        catalog.set_stats(
            name,
            TableStats {
                rows: rows as u64,
                avg_tuple_bytes: bytes,
            },
        );
    }
    let op = plan_sql(
        "SELECT R.pkey, S.pkey, T.pkey FROM R, S, T \
         WHERE R.num1 = S.pkey AND S.num3 = T.pkey",
        &catalog,
        &CostParams::paper_baseline(10.0),
        Objective::Traffic,
    )
    .unwrap();
    let QueryOp::Join { join: m, .. } = &op else {
        panic!("expected a pipeline")
    };
    assert_eq!(
        m.left.table, "S",
        "greedy order starts at the smallest table"
    );
    assert_eq!(
        m.stages.last().unwrap().right.table,
        "R",
        "the wide, expensive table joins last"
    );

    let expected = reference_eval(&op, &wl.tables());
    assert!(!expected.is_empty());
    let mut sim = stabilized_pier_sim(10, DhtConfig::static_network(), NetConfig::latency_only(23));
    publish_rst(&mut sim, &wl);
    let desc = QueryDesc::one_shot(9, 2, op);
    let results = run_query(&mut sim, 2, desc, Dur::from_secs(90));
    assert!(same_multiset(&expected, &rows_of(&results)));
}

/// The §2.1-flavoured 3-way star: intrusion reports joined with
/// advisories and reporter reputations.
#[test]
fn intrusion_star_query_end_to_end() {
    let reports = intrusion::intrusions(60, 12, 30, 31);
    let advisories = intrusion::advisories(12, 31);
    let reputations = intrusion::reputations(30, 31);
    let catalog = Catalog::intrusion();
    let op = parse_query(
        "SELECT I.address, A.severity, R.weight \
         FROM intrusions I, advisories A, reputation R \
         WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
         AND A.severity > 4",
        &catalog,
        JoinStrategy::SymmetricHash,
    )
    .unwrap();
    let mut tables = std::collections::HashMap::new();
    tables.insert("intrusions".to_string(), reports.clone());
    tables.insert("advisories".to_string(), advisories.clone());
    tables.insert("reputation".to_string(), reputations.clone());
    let expected = reference_eval(&op, &tables);
    assert!(!expected.is_empty(), "star query has answers");

    let mut sim = stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(31));
    let life = Dur::from_secs(100_000);
    publish_round_robin(&mut sim, "intrusions", &reports, 0, life);
    publish_round_robin(&mut sim, "advisories", &advisories, 0, life);
    publish_round_robin(&mut sim, "reputation", &reputations, 0, life);
    settle_publish(&mut sim);
    let desc = QueryDesc::one_shot(4, 1, op);
    let results = run_query(&mut sim, 1, desc, Dur::from_secs(90));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "expected {} got {}",
        expected.len(),
        results.len()
    );
}

/// Windowed pipelines must not resurrect aged-out state: a stage
/// intermediate lives only as long as its shortest-lived constituent,
/// so a T partner arriving after R's window has closed joins nothing —
/// while the same dance entirely inside the window produces results.
#[test]
fn windowed_pipeline_caps_intermediate_lifetime() {
    let wl = small_workload(25);
    let window = Dur::from_secs(30);
    let life = Dur::from_secs(100_000);
    let run_phase = |qid: u64, s_delay: u64, t_delay: u64, tail: u64| -> usize {
        let mut sim = stabilized_pier_sim(
            10,
            DhtConfig::static_network(),
            NetConfig::latency_only(qid),
        );
        publish_round_robin(&mut sim, "R", &wl.r, 0, life);
        settle_publish(&mut sim);
        let mut desc = wl.multi_query(qid, 0);
        desc.tenure = Tenure::Windowed(window);
        sim.with_app(0, |node, ctx| node.submit(ctx, desc));
        sim.run_for(Dur::from_secs(s_delay));
        publish_round_robin(&mut sim, "S", &wl.s, 0, life);
        sim.run_for(Dur::from_secs(t_delay - s_delay));
        publish_round_robin(&mut sim, "T", &wl.t, 0, life);
        sim.run_for(Dur::from_secs(tail));
        sim.app(0).unwrap().query_results(qid).len()
    };
    // Control: S at +5, T at +10 — everything inside the 30 s window.
    let in_window = run_phase(8, 5, 10, 20);
    assert!(in_window > 0, "in-window pipeline produces results");
    // S at +25 forms R++S intermediates whose R constituent expires at
    // +30; T only arrives at +45. A window-restarting intermediate
    // would still be alive — the capped one is not.
    let after_window = run_phase(9, 25, 45, 30);
    assert_eq!(
        after_window, 0,
        "no results may join state that left the window"
    );
}

/// Continuous pipelines: base tuples published *after* installation flow
/// through every stage incrementally (intermediates are soft state).
#[test]
fn continuous_multiway_picks_up_late_tuples() {
    let wl = small_workload(24);
    // Split R: first half published up front, second half mid-query.
    let half = wl.r.len() / 2;
    let (early, late) = wl.r.split_at(half);

    let mut sim = stabilized_pier_sim(10, DhtConfig::static_network(), NetConfig::latency_only(24));
    let life = Dur::from_secs(100_000);
    publish_round_robin(&mut sim, "R", early, 0, life);
    publish_round_robin(&mut sim, "S", &wl.s, 0, life);
    publish_round_robin(&mut sim, "T", &wl.t, 0, life);
    settle_publish(&mut sim);

    let mut desc = wl.multi_query(5, 0);
    desc.tenure = Tenure::Unwindowed { renew_every: None };
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(60));
    let mid = sim.app(0).unwrap().query_results(5).len();

    publish_round_robin(&mut sim, "R", late, 0, life);
    sim.run_for(Dur::from_secs(60));
    let results: Vec<_> = sim
        .app(0)
        .unwrap()
        .query_results(5)
        .iter()
        .map(|(_, r)| r)
        .collect();
    let expected = wl.expected_multi();
    assert!(
        results.len() > mid,
        "late tuples produced incremental results ({mid} -> {})",
        results.len()
    );
    assert!(
        same_multiset(&expected, &results),
        "expected {} got {}",
        expected.len(),
        results.len()
    );
}
