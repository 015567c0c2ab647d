//! Stage state that raced the query's install multicast: rehash puts of
//! other nodes can land at a node before the query does, and must each
//! pair exactly once when it installs — with each other, with the
//! node's own rehash, and with the matches they republish into the next
//! stage. On a one-node `Sim` the raced entries are written straight
//! into the store (nothing routes the namespace yet, so nothing probes
//! them), under instanceIDs the node never draws: a colliding one would
//! turn a raced put into a renewal. Rows are compared sorted, as the
//! emission order inside the install handler is not pinned.

use pier_core::expr::Expr;
use pier_core::item::{QpItem, Side};
use pier_core::plan::{qns, JoinSpec, JoinStage, JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_core::testkit::*;
use pier_core::tuple;
use pier_core::tuple::{Columns, Concat, FlatRow, Select, Tuple};
use pier_core::value::Value;
use pier_core::PierNode;
use pier_dht::{key_of, DhtConfig, Entry, Ns};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, Sim};

const LIFE: Dur = Dur(100_000 * 1_000_000);

fn one_node() -> Sim<PierNode> {
    stabilized_pier_sim(1, DhtConfig::static_network(), NetConfig::latency_only(5))
}

/// Store `val` under its join value in `ns` as the `i`-th raced entry.
fn race(sim: &mut Sim<PierNode>, ns: Ns, i: u32, join: &Value, expires: Time, val: QpItem) {
    let rid = join.hash64();
    let entry = Entry {
        ns,
        rid,
        iid: 0xF000_0000 | i,
        key: key_of(ns, rid),
        expires,
        val,
    };
    let stored = sim.with_app(0, |node, _| node.dht.store.store_new(entry).is_some());
    assert_eq!(stored, Some(true), "raced entry {i} renewed another");
}

fn tagged(qid: u64, side: Side, join: Value, row: FlatRow) -> QpItem {
    QpItem::Tagged {
        qid,
        side,
        join,
        row,
    }
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

fn results(sim: &Sim<PierNode>, qid: u64) -> Vec<Tuple> {
    let node = sim.app(0).unwrap();
    sorted(node.query_results(qid).iter().map(|(_, r)| r).collect())
}

/// `A(a,x) ⋈ B(b,x,y) ⋈ C(c,y)`: raced entries on both sides of both
/// stages (an expired one among them), a raced intermediate at stage 1,
/// and rows of the node's own under each stage's right table.
#[test]
fn raced_stage_state_pairs_exactly_once() {
    let qid = 31;
    let head = ScanSpec::new("A", 2, 0).with_join_col(1);
    let stages = vec![
        JoinStage {
            right: ScanSpec::new("B", 3, 0).with_join_col(1),
            left_col: 1,
            stage_pred: None,
        },
        JoinStage {
            right: ScanSpec::new("C", 2, 0).with_join_col(1),
            left_col: 4,
            stage_pred: None,
        },
    ];
    let mut j = JoinSpec::pipeline(head, stages);
    j.project = vec![Expr::col(0), Expr::col(2), Expr::col(5)];
    let desc = QueryDesc::one_shot(qid, 0, QueryOp::Join { join: j, agg: None });
    let view = desc.clone().certified().unwrap().unwrap();
    let pruned =
        |t: usize, row: Tuple| FlatRow::from_columns(&Select::new(&row, view.keep_for_table(t)));

    let mut sim = one_node();
    sim.with_app(0, |node, ctx| {
        node.publish_rows(ctx, "B", vec![tuple![101i64, 10i64, 60i64]], 0, LIFE);
        node.publish_rows(ctx, "C", vec![tuple![1001i64, 50i64]], 0, LIFE);
    });
    settle_publish(&mut sim);

    let (live, gone) = (sim.now() + LIFE, sim.now());
    let (ns0, ns1) = (qns::stage_of(qid, 2, 0), qns::stage_of(qid, 2, 1));
    let stage0 = [
        (Side::Left, 0, tuple![1i64, 10i64], live),
        (Side::Left, 0, tuple![2i64, 10i64], live),
        (Side::Right, 1, tuple![100i64, 10i64, 50i64], live),
        (Side::Right, 1, tuple![103i64, 10i64, 50i64], gone),
    ];
    for (i, (side, t, row, expires)) in stage0.into_iter().enumerate() {
        let join = row.value(1);
        let val = tagged(qid, side, join.clone(), pruned(t, row));
        race(&mut sim, ns0, i as u32, &join, expires, val);
    }
    for (i, row) in [tuple![1000i64, 50i64], tuple![1002i64, 60i64]]
        .into_iter()
        .enumerate()
    {
        let join = row.value(1);
        let val = tagged(qid, Side::Right, join.clone(), pruned(2, row));
        race(&mut sim, ns1, 10 + i as u32, &join, live, val);
    }
    let (a3, b3) = (
        pruned(0, tuple![3i64, 20i64]),
        pruned(1, tuple![102i64, 20i64, 60i64]),
    );
    let joined = Concat::new(a3.view(), b3.view());
    let emit = view.stages[0].pass(&joined).unwrap();
    let mid = FlatRow::from_columns(&Select::new(&joined, emit));
    let join = mid.view().value(view.stages[1].join_idx_left);
    assert_eq!(join, Value::I64(60));
    let val = tagged(qid, Side::Left, join.clone(), mid);
    race(&mut sim, ns1, 12, &join, live, val);

    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(30));
    let want = [
        [1, 100, 1000],
        [1, 100, 1001],
        [1, 101, 1002],
        [2, 100, 1000],
        [2, 100, 1001],
        [2, 101, 1002],
        [3, 102, 1002],
    ];
    let want = sorted(want.iter().map(|&[a, b, c]| tuple![a, b, c]).collect());
    assert_eq!(results(&sim, qid), want);
}

/// A semi-join `L(k,j) ⋈ Rt(k,j)`: raced minis on both sides (an
/// expired one among them) beside the node's own.
#[test]
fn raced_minis_pair_exactly_once() {
    let qid = 32;
    let left = ScanSpec::new("L", 2, 0).with_join_col(1);
    let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricSemiJoin, left, right);
    j.project = vec![Expr::col(0), Expr::col(2)];
    let desc = QueryDesc::one_shot(qid, 0, QueryOp::Join { join: j, agg: None });

    let mut sim = one_node();
    sim.with_app(0, |node, ctx| {
        let l = vec![tuple![1i64, 7i64], tuple![2i64, 7i64]];
        node.publish_rows(ctx, "L", l, 0, LIFE);
        node.publish_rows(ctx, "Rt", vec![tuple![10i64, 7i64]], 0, LIFE);
    });
    settle_publish(&mut sim);

    let (live, gone) = (sim.now() + LIFE, sim.now());
    let join = Value::I64(7);
    let minis = [
        (Side::Left, 2, live),
        (Side::Right, 10, live),
        (Side::Right, 10, gone),
    ];
    for (i, (side, pkey, expires)) in minis.into_iter().enumerate() {
        let val = QpItem::Mini {
            qid,
            side,
            pkey: Value::I64(pkey),
            join: join.clone(),
        };
        race(&mut sim, qns::rehash(qid), i as u32, &join, expires, val);
    }

    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(30));
    let want = [[1, 10], [1, 10], [2, 10], [2, 10], [2, 10], [2, 10]];
    let want = sorted(want.iter().map(|&[l, r]: &[i64; 2]| tuple![l, r]).collect());
    assert_eq!(results(&sim, qid), want);
}
