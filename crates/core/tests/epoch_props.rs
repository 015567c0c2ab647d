//! The epoch oracle against its definition: for random ops (scans,
//! grouped aggregates, 2- and 3-way joins with or without an aggregate,
//! a table read at several positions under different predicates), random
//! timed tables, windows and instants (unsorted, repeated),
//! `reference_epochs_at` returns at every instant what `reference_eval`
//! returns over a copy of the rows live at it. Rows compare as multisets
//! per instant, an `F64` by its bits, so a sum folded in another order
//! shows.

use std::collections::BTreeMap;

use pier_core::expr::Expr;
use pier_core::plan::{AggCall, AggFunc, AggSpec, JoinSpec, JoinStage, QueryOp, ScanSpec};
use pier_core::semantics::{reference_epochs_at, reference_eval, TimedRows};
use pier_core::{BinOp, Tuple, Value};
use pier_simnet::time::{Dur, Time};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NAMES: [&str; 3] = ["A", "B", "C"];
const ARITY: usize = 3;

fn value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..4) {
        0 => Value::F64([1e16, -1e16, 0.5, 2.0, 0.1][rng.gen_range(0..5usize)]),
        1 => Value::str(["x", "y"][rng.gen_range(0..2usize)]),
        _ => Value::I64(rng.gen_range(0..4)),
    }
}

/// Three tables of `ARITY` columns, rows published at random whole
/// seconds in 0..100, not in time order.
fn timed_tables(rng: &mut SmallRng) -> BTreeMap<String, TimedRows> {
    NAMES
        .iter()
        .map(|name| {
            let rows = (0..rng.gen_range(0..12))
                .map(|_| {
                    let at = Time(rng.gen_range(0..100u64) * 1_000_000);
                    (at, Tuple::new((0..ARITY).map(|_| value(rng)).collect()))
                })
                .collect();
            (name.to_string(), rows)
        })
        .collect()
}

/// `col op lit` over the first `width` columns.
fn pred(rng: &mut SmallRng, width: usize) -> Expr {
    let op = [BinOp::Gt, BinOp::Lt, BinOp::Ne][rng.gen_range(0..3usize)];
    let lit = Value::I64(rng.gen_range(0..4));
    Expr::bin(op, Expr::col(rng.gen_range(0..width)), Expr::lit(lit))
}

/// A scan of a random table, with a predicate half the time.
fn scan(rng: &mut SmallRng) -> ScanSpec {
    let s = ScanSpec::new(NAMES[rng.gen_range(0..NAMES.len())], ARITY, 0);
    if rng.gen_bool(0.5) {
        s.with_pred(pred(rng, ARITY))
    } else {
        s
    }
}

fn cols(rng: &mut SmallRng, width: usize, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..width)).collect()
}

/// A grouped aggregate over rows `width` wide: zero to two group
/// columns, one to three calls.
fn agg(rng: &mut SmallRng, width: usize) -> AggSpec {
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let n_calls = rng.gen_range(1..4);
    let calls = (0..n_calls)
        .map(|_| {
            let func = funcs[rng.gen_range(0..funcs.len())];
            let arg = (func != AggFunc::Count || rng.gen_bool(0.5))
                .then(|| Expr::col(rng.gen_range(0..width)));
            AggCall { func, arg }
        })
        .collect();
    let n_groups = rng.gen_range(0..3);
    AggSpec::new(cols(rng, width, n_groups), calls)
}

/// A left-deep join of two or three random scans (one table may sit at
/// several positions), a stage predicate now and then, a random SELECT.
fn join(rng: &mut SmallRng) -> JoinSpec {
    let n_stages = rng.gen_range(1..3);
    let stages = (0..n_stages)
        .map(|k| {
            let width = (k + 1) * ARITY;
            JoinStage {
                right: scan(rng).with_join_col(rng.gen_range(0..ARITY)),
                left_col: rng.gen_range(0..width),
                stage_pred: rng.gen_bool(0.3).then(|| pred(rng, width + ARITY)),
            }
        })
        .collect();
    let mut j = JoinSpec::pipeline(scan(rng), stages);
    let width = (n_stages + 1) * ARITY;
    let n_out = rng.gen_range(1..5);
    j.project = cols(rng, width, n_out).into_iter().map(Expr::col).collect();
    j
}

fn op(rng: &mut SmallRng) -> QueryOp {
    match rng.gen_range(0..4) {
        0 => {
            let n_out = rng.gen_range(1..4);
            QueryOp::Scan {
                scan: scan(rng),
                project: cols(rng, ARITY, n_out).into_iter().map(Expr::col).collect(),
            }
        }
        1 => QueryOp::Agg {
            scan: scan(rng),
            agg: agg(rng, ARITY),
        },
        _ => {
            let join = join(rng);
            let width = join.project.len();
            let agg = rng.gen_bool(0.6).then(|| agg(rng, width));
            QueryOp::Join { join, agg }
        }
    }
}

/// The oracle's definition: at every instant, a copy of each table's
/// rows live at it, evaluated as a snapshot.
fn model(
    op: &QueryOp,
    tables: &BTreeMap<String, TimedRows>,
    window: Option<Dur>,
    instants: &[Time],
) -> Vec<Vec<Tuple>> {
    instants
        .iter()
        .map(|&at| {
            let snap: BTreeMap<String, Vec<Tuple>> = tables
                .iter()
                .map(|(name, rows)| {
                    let live = rows
                        .iter()
                        .filter(|(t, _)| *t <= at && window.is_none_or(|w| *t + w > at))
                        .map(|(_, r)| r.clone())
                        .collect();
                    (name.clone(), live)
                })
                .collect();
            reference_eval(op, &snap)
        })
        .collect()
}

/// One instant's rows as a sorted multiset, each value by its kind and,
/// for an `F64`, its bits.
fn exact(rows: &[Tuple]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            r.vals
                .iter()
                .map(|v| match v {
                    Value::F64(x) => format!("F64#{:016x}", x.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn epochs_at_equals_a_snapshot_per_instant(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tables = timed_tables(&mut rng);
        let op = op(&mut rng);
        let window = rng
            .gen_bool(0.5)
            .then(|| Dur::from_secs(rng.gen_range(1..60)));
        let n_instants = rng.gen_range(0..8);
        let instants: Vec<Time> = (0..n_instants)
            .map(|_| Time(rng.gen_range(0..120u64) * 1_000_000))
            .collect();
        let got = reference_epochs_at(&op, &tables, window, &instants);
        let want = model(&op, &tables, window, &instants);
        prop_assert_eq!(got.len(), instants.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(exact(g), exact(w), "{:?} at {:?}", op, instants);
        }
    }
}
