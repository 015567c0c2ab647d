//! Pin of the centralized join oracles: what `reference_join`,
//! `reference_multijoin` and `reference_windowed_join` return, in order,
//! one row a line in `Debug` form.
//!
//! The join keys are the values whose equality is easy to get wrong:
//! integers on both sides of 2^53 (where `I64(2^53 + 1) == I64(2^53)`
//! through the numeric view), `F64` ±0.0 and NaN, `Bool`s equal to
//! numbers, `Null`, the empty and non-ASCII strings, and `Pad`. The
//! oracle suites compare answers as multisets; only this file sees the
//! order an oracle emits rows in, and every `==` it settles.

use std::collections::BTreeMap;

use pier_core::expr::Expr;
use pier_core::plan::{JoinSpec, JoinStage, ScanSpec};
use pier_core::semantics::{reference_join, reference_multijoin, reference_windowed_join};
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

const JOIN: &str = r#"[I64(0), I64(9007199254740991), I64(9007199254740991), I64(119), I64(19)]
[I64(1), I64(9007199254740992), F64(9007199254740992.0), I64(116), I64(16)]
[I64(1), I64(9007199254740992), I64(9007199254740993), I64(117), I64(17)]
[I64(1), I64(9007199254740992), I64(9007199254740992), I64(118), I64(-1)]
[I64(2), I64(9007199254740993), F64(9007199254740992.0), I64(116), I64(16)]
[I64(2), I64(9007199254740993), I64(9007199254740993), I64(117), I64(17)]
[I64(2), I64(9007199254740993), I64(9007199254740992), I64(118), I64(-1)]
[I64(3), F64(9007199254740992.0), F64(9007199254740992.0), I64(116), I64(16)]
[I64(3), F64(9007199254740992.0), I64(9007199254740993), I64(117), I64(17)]
[I64(3), F64(9007199254740992.0), I64(9007199254740992), I64(118), I64(-1)]
[I64(4), F64(0.0), Bool(false), I64(112), I64(-1)]
[I64(4), F64(0.0), I64(0), I64(113), I64(13)]
[I64(4), F64(0.0), F64(-0.0), I64(114), I64(14)]
[I64(4), F64(0.0), F64(0.0), I64(115), I64(-1)]
[I64(5), F64(-0.0), Bool(false), I64(112), I64(-1)]
[I64(5), F64(-0.0), I64(0), I64(113), I64(13)]
[I64(5), F64(-0.0), F64(-0.0), I64(114), I64(14)]
[I64(5), F64(-0.0), F64(0.0), I64(115), I64(-1)]
[I64(6), I64(0), Bool(false), I64(112), I64(-1)]
[I64(6), I64(0), I64(0), I64(113), I64(13)]
[I64(6), I64(0), F64(-0.0), I64(114), I64(14)]
[I64(6), I64(0), F64(0.0), I64(115), I64(-1)]
[I64(7), Bool(false), Bool(false), I64(112), I64(-1)]
[I64(7), Bool(false), I64(0), I64(113), I64(13)]
[I64(7), Bool(false), F64(-0.0), I64(114), I64(14)]
[I64(7), Bool(false), F64(0.0), I64(115), I64(-1)]
[I64(8), Bool(true), I64(1), I64(109), I64(-1)]
[I64(8), Bool(true), F64(1.0), I64(110), I64(10)]
[I64(8), Bool(true), Bool(true), I64(111), I64(11)]
[I64(8), Bool(true), Bool(true), I64(120), I64(5)]
[I64(9), F64(1.0), I64(1), I64(109), I64(-1)]
[I64(9), F64(1.0), F64(1.0), I64(110), I64(10)]
[I64(9), F64(1.0), Bool(true), I64(111), I64(11)]
[I64(9), F64(1.0), Bool(true), I64(120), I64(5)]
[I64(10), I64(1), I64(1), I64(109), I64(-1)]
[I64(10), I64(1), F64(1.0), I64(110), I64(10)]
[I64(10), I64(1), Bool(true), I64(111), I64(11)]
[I64(10), I64(1), Bool(true), I64(120), I64(5)]
[I64(12), Null, Null, I64(107), I64(7)]
[I64(12), Null, Null, I64(121), I64(7)]
[I64(13), Str(""), Str(""), I64(106), I64(-1)]
[I64(14), Str("é"), Str("é"), I64(105), I64(5)]
[I64(15), Str("日本"), Str("日本"), I64(104), I64(4)]
[I64(16), Str("a"), Str("a"), I64(103), I64(-1)]
[I64(17), Pad(0), Pad(0), I64(102), I64(2)]
[I64(18), Pad(8), Pad(8), I64(101), I64(1)]
[I64(19), I64(-1), I64(-1), I64(100), I64(-1)]
[I64(20), F64(-0.0), Bool(false), I64(112), I64(-1)]
[I64(20), F64(-0.0), I64(0), I64(113), I64(13)]
[I64(20), F64(-0.0), F64(-0.0), I64(114), I64(14)]
[I64(20), F64(-0.0), F64(0.0), I64(115), I64(-1)]
[I64(21), Str(""), Str(""), I64(106), I64(-1)]
"#;

const MULTIJOIN: &str = r#"[I64(8), I64(120), I64(5), Str("five")]
[I64(9), I64(120), I64(5), Str("five")]
[I64(10), I64(120), I64(5), Str("five")]
[I64(12), I64(107), I64(7), Str("seven")]
[I64(12), I64(121), I64(7), Str("seven")]
[I64(14), I64(105), I64(5), Str("five")]
[I64(15), I64(104), I64(4), Str("four")]
[I64(17), I64(102), F64(2.0), Str("two")]
[I64(18), I64(101), Bool(true), Str("one")]
"#;

const WINDOWED: &str = r#"[I64(10), I64(1), I64(1), I64(109), I64(-1)]
[I64(12), Null, Null, I64(107), I64(7)]
[I64(13), Str(""), Str(""), I64(106), I64(-1)]
[I64(14), Str("é"), Str("é"), I64(105), I64(5)]
[I64(15), Str("日本"), Str("日本"), I64(104), I64(4)]
[I64(20), F64(-0.0), Bool(false), I64(112), I64(-1)]
[I64(20), F64(-0.0), I64(0), I64(113), I64(13)]
[I64(20), F64(-0.0), F64(-0.0), I64(114), I64(14)]
"#;

#[test]
fn reference_join_in_order() {
    let now = text(&reference_join(&two_table(), &left(), &right()));
    assert_eq!(now, JOIN, "now:\n{now}");
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
    assert_eq!(now, MULTIJOIN, "now:\n{now}");
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
    assert_eq!(now, WINDOWED, "now:\n{now}");
}
