//! Pin of the centralized oracles: what the join oracles
//! (`reference_join`, `reference_multijoin`, `reference_windowed_join`)
//! return, in order, one row a line in `Debug` form; and what the epoch
//! oracles (`reference_epochs`, `reference_epochs_at`) and
//! `reference_eval` return, rows sorted per epoch.
//!
//! The join keys are the values whose equality is easy to get wrong:
//! integers on both sides of 2^53 (where `I64(2^53 + 1) == I64(2^53)`
//! through the numeric view), `F64` ±0.0 and NaN, `Bool`s equal to
//! numbers, `Null`, the empty and non-ASCII strings, and `Pad`. The
//! oracle suites compare answers as multisets; only this file sees the
//! order an oracle emits rows in, and every `==` it settles.
//!
//! The epoch pins run one table `E(id, grp, x)` of unsorted publication
//! instants through a scan, a grouped aggregate, 2- and 3-way joins
//! feeding aggregates, and a self-join whose two positions filter `E`
//! differently; windowed and running, at epoch boundaries and at
//! unsorted, repeated instants. Group `a`'s `x` values (1e16, 1, −1e16,
//! 0.5) sum to 0.5 only when folded in table order, so a `sum` or `avg`
//! here pins the order an aggregate folds its rows in. Every group
//! column holds one value kind.

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use std::collections::BTreeMap;

use pier_core::expr::Expr;
use pier_core::plan::{AggCall, AggFunc, AggSpec, JoinSpec, JoinStage, QueryOp, ScanSpec};
use pier_core::semantics::{
    reference_epochs, reference_epochs_at, reference_eval, reference_join, reference_multijoin,
    reference_windowed_join, TimedRows,
};
use pier_core::{BinOp, JoinStrategy, Tuple, Value};
use pier_simnet::time::{Dur, Time};

/// The twenty join keys, in the order `L` holds them.
fn keys() -> Vec<Value> {
    vec![
        Value::I64((1 << 53) - 1),
        Value::I64(1 << 53),
        Value::I64((1 << 53) + 1),
        Value::F64(9_007_199_254_740_992.0), // 2^53
        Value::F64(0.0),
        Value::F64(-0.0),
        Value::I64(0),
        Value::Bool(false),
        Value::Bool(true),
        Value::F64(1.0),
        Value::I64(1),
        Value::F64(f64::NAN),
        Value::Null,
        Value::str(""),
        Value::str("é"),
        Value::str("日本"),
        Value::str("a"),
        Value::Pad(0),
        Value::Pad(8),
        Value::I64(-1),
    ]
}

/// `L(id, key)`: each key once, then two repeats.
fn left() -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = keys()
        .into_iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![Value::I64(i as i64), k]))
        .collect();
    rows.push(Tuple::new(vec![Value::I64(20), Value::F64(-0.0)]));
    rows.push(Tuple::new(vec![Value::I64(21), Value::str("")]));
    rows
}

/// `R(key, rid, y)`: the keys in reverse, every third `y` negative, then
/// three repeats.
fn right() -> Vec<Tuple> {
    let k = keys();
    let mut rows: Vec<Tuple> = (0..20)
        .map(|i| {
            let y = if i % 3 == 0 { -1 } else { i as i64 };
            Tuple::new(vec![
                k[19 - i].clone(),
                Value::I64(100 + i as i64),
                Value::I64(y),
            ])
        })
        .collect();
    for (key, rid, y) in [
        (Value::Bool(true), 120, 5),
        (Value::Null, 121, 7),
        (Value::F64(f64::NAN), 122, 1),
    ] {
        rows.push(Tuple::new(vec![key, Value::I64(rid), Value::I64(y)]));
    }
    rows
}

/// `C(v, tag)`, joined on `R.y`: numeric keys of three kinds.
fn third() -> Vec<Tuple> {
    [
        (Value::F64(2.0), "two"),
        (Value::I64(4), "four"),
        (Value::Bool(true), "one"),
        (Value::F64(1.0), "uno"),
        (Value::I64(5), "five"),
        (Value::F64(-1.0), "minus"),
        (Value::I64(7), "seven"),
    ]
    .into_iter()
    .map(|(v, tag)| Tuple::new(vec![v, Value::str(tag)]))
    .collect()
}

fn all_cols(n: usize) -> Vec<Expr> {
    (0..n).map(Expr::col).collect()
}

/// `L ⋈ R` on `L.key = R.key`, every column out.
fn two_table() -> JoinSpec {
    let l = ScanSpec::new("L", 2, 0).with_join_col(1);
    let r = ScanSpec::new("R", 3, 1).with_join_col(0);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, l, r);
    j.project = all_cols(5);
    j
}

fn text(rows: &[Tuple]) -> String {
    rows.iter().map(|r| format!("{:?}\n", r.vals)).collect()
}

#[test]
fn reference_join_in_order() {
    let now = text(&reference_join(&two_table(), &left(), &right()));
    pin!("reference_join_in_order", now);
}

#[test]
fn reference_multijoin_in_order() {
    // L ⋈ R (R.y > 0) ⋈ C on R.y = C.v, keeping rows whose tag is not
    // "uno"; out: L.id, R.rid, C.v, C.tag.
    let r = ScanSpec::new("R", 3, 1)
        .with_join_col(0)
        .with_pred(Expr::gt(Expr::col(2), Expr::lit(0i64)));
    let s1 = JoinStage {
        right: r,
        left_col: 1,
        stage_pred: None,
    };
    let s2 = JoinStage {
        right: ScanSpec::new("C", 2, 0).with_join_col(0),
        left_col: 4,
        stage_pred: Some(Expr::bin(BinOp::Ne, Expr::col(6), Expr::lit("uno"))),
    };
    let mut m = JoinSpec::pipeline(ScanSpec::new("L", 2, 0), vec![s1, s2]);
    m.project = vec![Expr::col(0), Expr::col(3), Expr::col(5), Expr::col(6)];
    let tables = BTreeMap::from([
        ("L".to_string(), left()),
        ("R".to_string(), right()),
        ("C".to_string(), third()),
    ]);
    let now = text(&reference_multijoin(&m, &tables));
    pin!("reference_multijoin_in_order", now);
}

#[test]
fn reference_windowed_join_in_order() {
    // L row i published at i s, R row i at 2i s; a 9 s window.
    let at = |s: usize| Time(s as u64 * 1_000_000);
    let l: Vec<(Time, Tuple)> = left()
        .into_iter()
        .enumerate()
        .map(|(i, r)| (at(i), r))
        .collect();
    let r: Vec<(Time, Tuple)> = right()
        .into_iter()
        .enumerate()
        .map(|(i, r)| (at(2 * i), r))
        .collect();
    let now = text(&reference_windowed_join(
        &two_table(),
        &l,
        &r,
        Dur::from_secs(9),
    ));
    pin!("reference_windowed_join_in_order", now);
}

/// `E(id, grp, x)`, `D(grp, sev)` and `T(sev, tag)` with their
/// publication instants, in seconds, not sorted by time.
fn timed_tables() -> BTreeMap<String, TimedRows> {
    let at = |s: u64| Time(s * 1_000_000);
    let e = [
        (0, "a", 1e16),
        (5, "b", 2.0),
        (10, "a", 1.0),
        (10, "c", 3.5),
        (25, "a", -1e16),
        (40, "b", -7.25),
        (30, "a", 0.5),
        (55, "c", 1.0),
        (60, "é", 4.0),
        (75, "b", 0.125),
        (90, "a", 2.0),
        (0, "c", 6.0),
    ];
    let d = [
        (0, "a", 3),
        (20, "b", 5),
        (50, "c", 1),
        (70, "a", 7),
        (10, "z", 9),
    ];
    let t = [
        (0, 3, "low"),
        (35, 5, "mid"),
        (0, 7, "high"),
        (45, 1, "min"),
        (80, 5, "mid2"),
    ];
    let e = e
        .iter()
        .enumerate()
        .map(|(i, &(s, grp, x))| {
            let row = vec![Value::I64(i as i64), Value::str(grp), Value::F64(x)];
            (at(s), Tuple::new(row))
        })
        .collect();
    let d = d
        .iter()
        .map(|&(s, grp, sev)| (at(s), Tuple::new(vec![Value::str(grp), Value::I64(sev)])))
        .collect();
    let t = t
        .iter()
        .map(|&(s, sev, tag)| (at(s), Tuple::new(vec![Value::I64(sev), Value::str(tag)])))
        .collect();
    BTreeMap::from([
        ("E".to_string(), e),
        ("D".to_string(), d),
        ("T".to_string(), t),
    ])
}

fn call(func: AggFunc, arg: Option<usize>) -> AggCall {
    AggCall {
        func,
        arg: arg.map(Expr::col),
    }
}

/// The five ops the epoch pins evaluate, by name.
fn epoch_ops() -> Vec<(&'static str, QueryOp)> {
    let e = || ScanSpec::new("E", 3, 0);
    // SELECT * FROM E WHERE x >= 1
    let scan = QueryOp::Scan {
        scan: e().with_pred(Expr::bin(BinOp::Ge, Expr::col(2), Expr::lit(1.0))),
        project: all_cols(3),
    };
    // SELECT grp, count(*), sum(x), min(x), max(x), avg(x) FROM E GROUP BY grp
    let agg = QueryOp::Agg {
        scan: e(),
        agg: AggSpec::new(
            vec![1],
            vec![
                call(AggFunc::Count, None),
                call(AggFunc::Sum, Some(2)),
                call(AggFunc::Min, Some(2)),
                call(AggFunc::Max, Some(2)),
                call(AggFunc::Avg, Some(2)),
            ],
        ),
    };
    // E ⋈ D on grp: per E.grp, count(*), max(D.sev), sum(E.x)
    let d = ScanSpec::new("D", 2, 0).with_join_col(0);
    let mut j2 = JoinSpec::new(JoinStrategy::SymmetricHash, e().with_join_col(1), d.clone());
    j2.project = all_cols(5);
    let join2 = QueryOp::Join {
        join: j2,
        agg: Some(AggSpec::new(
            vec![1],
            vec![
                call(AggFunc::Count, None),
                call(AggFunc::Max, Some(4)),
                call(AggFunc::Sum, Some(2)),
            ],
        )),
    };
    // E ⋈ D on grp ⋈ T on sev: per T.tag, count(*), sum(E.x)
    let s1 = JoinStage {
        right: d,
        left_col: 1,
        stage_pred: None,
    };
    let s2 = JoinStage {
        right: ScanSpec::new("T", 2, 0).with_join_col(0),
        left_col: 4,
        stage_pred: None,
    };
    let mut j3 = JoinSpec::pipeline(e(), vec![s1, s2]);
    j3.project = all_cols(7);
    let join3 = QueryOp::Join {
        join: j3,
        agg: Some(AggSpec::new(
            vec![6],
            vec![call(AggFunc::Count, None), call(AggFunc::Sum, Some(2))],
        )),
    };
    // E (x > 0) ⋈ E (id < 6) on grp: per left grp, count(*), sum(right x)
    let left = e()
        .with_join_col(1)
        .with_pred(Expr::gt(Expr::col(2), Expr::lit(0.0)));
    let right = e()
        .with_join_col(1)
        .with_pred(Expr::bin(BinOp::Lt, Expr::col(0), Expr::lit(6i64)));
    let mut js = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    js.project = all_cols(6);
    let self_join = QueryOp::Join {
        join: js,
        agg: Some(AggSpec::new(
            vec![1],
            vec![call(AggFunc::Count, None), call(AggFunc::Sum, Some(5))],
        )),
    };
    vec![
        ("scan", scan),
        ("agg", agg),
        ("join2", join2),
        ("join3", join3),
        ("self_join", self_join),
    ]
}

/// One epoch's rows, one a line in `Debug` form, sorted.
fn sorted(rows: &[Tuple]) -> String {
    let mut lines: Vec<String> = rows.iter().map(|r| format!("{:?}\n", r.vals)).collect();
    lines.sort();
    lines.concat()
}

fn epochs_text(name: &str, epochs: &[Vec<Tuple>]) -> String {
    epochs
        .iter()
        .enumerate()
        .map(|(k, rows)| format!("{name} @{k}\n{}", sorted(rows)))
        .collect()
}

#[test]
fn epoch_oracles_per_epoch() {
    let tables = timed_tables();
    let epoch = Dur::from_secs(20);
    let window = Dur::from_secs(30);
    let at = |s: u64| Time(s * 1_000_000);
    let instants = [at(50), at(0), at(20), at(20), at(95), at(10)];
    let mut now = String::new();
    for (name, op) in epoch_ops() {
        for (mode, w) in [("running", None), ("windowed", Some(window))] {
            let by_epoch = reference_epochs(&op, &tables, w, epoch, 6);
            now += &epochs_text(&format!("{name} {mode} epochs"), &by_epoch);
            let by_instant = reference_epochs_at(&op, &tables, w, &instants);
            now += &epochs_text(&format!("{name} {mode} instants"), &by_instant);
        }
    }
    pin!("epoch_oracles_per_epoch", now);
}

#[test]
fn reference_eval_over_whole_tables() {
    let tables: BTreeMap<String, Vec<Tuple>> = timed_tables()
        .into_iter()
        .map(|(name, rows)| (name, rows.into_iter().map(|(_, r)| r).collect()))
        .collect();
    let now: String = epoch_ops()
        .iter()
        .map(|(name, op)| format!("{name}\n{}", sorted(&reference_eval(op, &tables))))
        .collect();
    pin!("reference_eval_over_whole_tables", now);
}
