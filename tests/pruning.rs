//! The §4.2 acceptance check for schema-aware dataflow: on the padded
//! 3-way workload, per-stage republished intermediates must exclude
//! `R.pad` until the final ship, results must still match the
//! centralized reference exactly, and the narrow-SELECT variant must
//! rehash at most half the aggregate bytes of the same query reading
//! every column.

use pier::qp::item::{QpItem, Side};
use pier::qp::plan::{qns, JoinSpec, QueryDesc, QueryOp};
use pier::qp::semantics::{reference_eval, reference_multijoin, same_multiset};
use pier::qp::testkit::*;
use pier::qp::value::Value;
use pier::qp::{plan_sql, Catalog, CostParams, Objective, TableStats};
use pier::simnet::time::Dur;
use pier::simnet::{NetConfig, Sim};
use pier::workload::{RsParams, RsWorkload};
use pier_dht::DhtConfig;

fn workload(seed: u64) -> RsWorkload {
    RsWorkload::generate(RsParams {
        s_rows: 30,
        t_rows: 50,
        seed,
        ..Default::default()
    })
}

fn publish_rst(sim: &mut Sim<pier::qp::PierNode>, wl: &RsWorkload) {
    let life = Dur::from_secs(100_000);
    publish_round_robin(sim, "R", &wl.r, 0, life);
    publish_round_robin(sim, "S", &wl.s, 0, life);
    publish_round_robin(sim, "T", &wl.t, 0, life);
    settle_publish(sim);
}

fn has_pad(t: &pier::qp::Tuple) -> bool {
    t.vals.iter().any(|v| matches!(v, Value::Pad(_)))
}

/// The padded workload query — `R.pad` IS selected, so it must reach
/// the initiator — planned cost-based: the byte-accurate join order
/// defers wide R to the last stage, and pruning keeps it off every
/// intermediate edge. We then inspect the DHT stores of every node:
/// no republished (Side::Left) stage tuple may carry the pad; only R's
/// own final-stage rehash and the shipped results do.
#[test]
fn pad_rides_no_intermediate_until_the_final_ship() {
    let wl = workload(77);
    let mut catalog = Catalog::workload();
    for (name, rows, bytes) in [
        ("R", wl.r.len(), 1024u64),
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
        "SELECT R.pkey, S.pkey, T.pkey, R.pad FROM R, S, T \
         WHERE R.num1 = S.pkey AND S.num3 = T.pkey \
         AND R.num2 > 49 AND T.num2 > 49 AND f(R.num3, S.num3) > 49",
        &catalog,
        &CostParams::paper_baseline(10.0),
        Objective::Traffic,
    )
    .unwrap();
    let QueryOp::Join { join: m, .. } = &op else {
        panic!("expected a pipeline")
    };
    let n_stages = m.stages.len();
    assert_eq!(
        m.stages.last().unwrap().right.table,
        "R",
        "the byte-accurate order joins wide R last"
    );

    let expected = reference_eval(&op, &wl.tables());
    assert!(!expected.is_empty());
    let n = 10;
    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(77));
    publish_rst(&mut sim, &wl);
    let qid = 5;
    let desc = QueryDesc::one_shot(qid, 0, op);
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(120));

    // Results match the reference and do carry the 1 KB pad.
    assert!(same_multiset(&expected, &rows_of(&results)));
    assert!(results.iter().all(|(_, r)| has_pad(r)));

    // Audit every node's stage namespaces: republished intermediates
    // (Side::Left beyond the stage-0 base) never carry the pad; only
    // R's Side::Right fragments at the final stage do.
    let mut left_entries = 0usize;
    let mut right_pad_entries = 0usize;
    for i in 0..n {
        let node = sim.app(i as u32).unwrap();
        for k in 0..n_stages {
            for e in node.dht.store.lscan(qns::stage(qid, k)) {
                let QpItem::Tagged { side, row, .. } = &e.val else {
                    continue;
                };
                let row = row.decode();
                match side {
                    Side::Left => {
                        left_entries += 1;
                        assert!(
                            !has_pad(&row),
                            "stage {k}: republished intermediate carries the pad"
                        );
                    }
                    Side::Right => {
                        if has_pad(&row) {
                            assert_eq!(k, n_stages - 1, "pad only in R's final-stage rehash");
                            right_pad_entries += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(left_entries > 0, "the audit saw republished intermediates");
    assert!(right_pad_entries > 0, "R's own rehash still ships the pad");
}

/// The narrow-SELECT variant (nobody reads the pad): pruning at least
/// halves aggregate rehash traffic vs the same query reading every
/// column (nothing to prune, so every edge full-width), and each returns
/// its reference multiset — the `pier_bench pruning` acceptance bound as
/// a test.
#[test]
fn pruning_at_least_halves_rehash_traffic_when_pad_is_dropped() {
    let wl = workload(78);
    let run = |join: JoinSpec| -> (Vec<pier::qp::Tuple>, u64) {
        let n = 10;
        let mut sim =
            stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(78));
        publish_rst(&mut sim, &wl);
        let pre: u64 = (0..n)
            .map(|i| sim.app(i as u32).unwrap().dht.meter.query_traffic())
            .sum();
        let desc = QueryDesc::one_shot(9, 0, QueryOp::Join { join, agg: None });
        let results = run_query(&mut sim, 0, desc, Dur::from_secs(120));
        let post: u64 = (0..n)
            .map(|i| sim.app(i as u32).unwrap().dht.meter.query_traffic())
            .sum();
        (rows_of(&results), post - pre)
    };
    let narrow = wl.multi_join_spec_narrow();
    let every_column = wl.multi_join_spec_every_column();
    let narrow_expected = reference_multijoin(&narrow, &wl.tables());
    let full_expected = reference_multijoin(&every_column, &wl.tables());
    assert!(!narrow_expected.is_empty());
    let (pruned_rows, pruned_bytes) = run(narrow);
    let (full_rows, full_bytes) = run(every_column);
    assert!(same_multiset(&narrow_expected, &pruned_rows));
    assert!(same_multiset(&full_expected, &full_rows));
    assert!(
        pruned_bytes * 2 <= full_bytes,
        "pruned {pruned_bytes} B vs every column {full_bytes} B"
    );
}
