//! Expression and value semantics, pinned as values. The end-to-end
//! oracles check these only indirectly (a wrong comparison shows up as a
//! wrong answer somewhere); here every operator, every built-in and
//! every pairing of value kinds has its absolute output written down.
//! Outputs are compared by their `Debug` form, which tells `I64(3)` from
//! `F64(3.0)` and `-0.0` from `0.0` where `==` would not.
//!
//! A moved line here is a semantics change: name what moved it.

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

mod common;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use pier_core::expr::{BinOp, Expr, Func};
use pier_core::{Tuple, Value};

use common::{random_expr, random_tuple};
use pin::Fnv;

fn show_row(t: &Tuple) -> String {
    let vals: Vec<String> = t.vals.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", vals.join(", "))
}

/// Case `seed` of the table: one tree, one row, what it evaluates to.
fn case(seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = random_tuple(&mut rng);
    let e = random_expr(&mut rng, 3);
    format!("{e} @ {} => {:?}", show_row(&t), e.eval(&t))
}

#[test]
fn fixed_seed_table_of_absolute_outputs() {
    // Seeds 0..32 in full, and an FNV-1a digest of the lines of seeds
    // 0..4096.
    let lines: Vec<String> = (0..32).map(case).collect();
    let mut digest = Fnv::default();
    for seed in 0..4096 {
        digest.bytes(case(seed).as_bytes());
        digest.bytes(b"\n");
    }
    pin!(
        "table", lines.join("\n");
        "digest_4096", format!("{:#018x}", digest.finish())
    );
}

// ---------------------------------------------------------------------
// Hand-written cases: one per rule
// ---------------------------------------------------------------------

fn check(e: Expr, t: &Tuple, want: &str) {
    assert_eq!(format!("{:?}", e.eval(t)), want, "{e} @ {}", show_row(t));
}

fn call(f: Func, args: Vec<Expr>) -> Expr {
    Expr::Call(f, args)
}

#[test]
fn arithmetic_is_integer_on_integers_and_float_otherwise() {
    let t = Tuple::new(vec![
        Value::I64(7),
        Value::I64(-2),
        Value::F64(2.5),
        Value::Bool(true),
        Value::str("x"),
        Value::Null,
    ]);
    let bin = |op, l, r| Expr::bin(op, Expr::col(l), Expr::col(r));
    check(bin(BinOp::Add, 0, 1), &t, "I64(5)");
    check(bin(BinOp::Div, 0, 1), &t, "I64(-3)");
    check(bin(BinOp::Mod, 1, 0), &t, "I64(5)"); // rem_euclid
    check(bin(BinOp::Mul, 0, 2), &t, "F64(17.5)");
    check(bin(BinOp::Add, 0, 3), &t, "F64(8.0)"); // Bool is numeric, not I64
    check(bin(BinOp::Sub, 3, 3), &t, "F64(0.0)");
    check(bin(BinOp::Add, 0, 4), &t, "Null");
    check(bin(BinOp::Add, 0, 5), &t, "Null");
    check(bin(BinOp::Add, 0, 9), &t, "Null"); // out of range
    let zero = |op| Expr::bin(op, Expr::col(0), Expr::lit(0i64));
    check(zero(BinOp::Div), &t, "Null");
    check(zero(BinOp::Mod), &t, "Null");
    check(
        Expr::bin(BinOp::Div, Expr::col(2), Expr::lit(0.0)),
        &t,
        "Null",
    );
    check(
        Expr::bin(BinOp::Mod, Expr::lit(-0.5), Expr::col(2)),
        &t,
        "F64(2.0)",
    );
    check(
        Expr::bin(BinOp::Mul, Expr::lit(i64::MAX), Expr::lit(2i64)),
        &t,
        "I64(-2)",
    ); // wraps
    check(
        Expr::bin(BinOp::Add, Expr::lit((1i64 << 53) + 1), Expr::lit(0.0)),
        &t,
        "F64(9007199254740992.0)",
    ); // through f64
}

#[test]
fn comparisons_are_numeric_across_kinds_and_ranked_otherwise() {
    let t = Tuple::new(vec![]);
    let cmp = |op, l: Value, r: Value| Expr::bin(op, Expr::Lit(l), Expr::Lit(r));
    check(
        cmp(BinOp::Eq, Value::I64(3), Value::F64(3.0)),
        &t,
        "Bool(true)",
    );
    check(
        cmp(BinOp::Eq, Value::Bool(true), Value::I64(1)),
        &t,
        "Bool(true)",
    );
    check(
        cmp(BinOp::Eq, Value::F64(0.0), Value::F64(-0.0)),
        &t,
        "Bool(true)",
    );
    check(cmp(BinOp::Eq, Value::Null, Value::Null), &t, "Bool(true)");
    check(
        cmp(BinOp::Eq, Value::I64(1), Value::str("1")),
        &t,
        "Bool(false)",
    );
    check(
        cmp(BinOp::Ne, Value::Pad(8), Value::Pad(9)),
        &t,
        "Bool(true)",
    );
    // 2^53 + 1 is compared as the f64 it rounds to.
    let big = Value::I64((1 << 53) + 1);
    check(
        cmp(BinOp::Eq, big.clone(), Value::I64(1 << 53)),
        &t,
        "Bool(true)",
    );
    check(cmp(BinOp::Gt, big, Value::I64(1 << 53)), &t, "Bool(false)");
    // NaN: unequal to itself, and after every number.
    let nan = Value::F64(f64::NAN);
    check(cmp(BinOp::Eq, nan.clone(), nan.clone()), &t, "Bool(false)");
    check(cmp(BinOp::Ne, nan.clone(), nan.clone()), &t, "Bool(true)");
    check(
        cmp(BinOp::Le, nan.clone(), Value::I64(0)),
        &t,
        "Bool(false)",
    );
    check(cmp(BinOp::Ge, nan.clone(), Value::I64(0)), &t, "Bool(true)");
    check(cmp(BinOp::Lt, nan, Value::I64(0)), &t, "Bool(false)");
    // Null < numbers < Str < Pad.
    check(
        cmp(BinOp::Lt, Value::Null, Value::I64(i64::MIN + 1)),
        &t,
        "Bool(true)",
    );
    check(
        cmp(BinOp::Lt, Value::F64(1e18), Value::str("")),
        &t,
        "Bool(true)",
    );
    check(
        cmp(BinOp::Lt, Value::str("zz"), Value::Pad(0)),
        &t,
        "Bool(true)",
    );
    check(
        cmp(BinOp::Lt, Value::str("ab"), Value::str("b")),
        &t,
        "Bool(true)",
    );
    check(
        cmp(BinOp::Lt, Value::str("z"), Value::str("é")),
        &t,
        "Bool(true)",
    ); // by bytes
}

#[test]
fn logicals_short_circuit_and_yield_bools() {
    let t = Tuple::new(vec![Value::I64(2), Value::str(""), Value::Pad(0)]);
    // The right side would be Null -> false; it is never the answer.
    check(Expr::and(Expr::lit(false), Expr::col(9)), &t, "Bool(false)");
    check(Expr::and(Expr::col(0), Expr::col(9)), &t, "Bool(false)");
    check(Expr::and(Expr::col(0), Expr::col(2)), &t, "Bool(true)"); // Pad is truthy
    check(Expr::and(Expr::col(0), Expr::col(1)), &t, "Bool(false)"); // "" is not
    check(
        Expr::bin(BinOp::Or, Expr::col(0), Expr::col(9)),
        &t,
        "Bool(true)",
    );
    check(
        Expr::bin(BinOp::Or, Expr::col(1), Expr::lit(0.0)),
        &t,
        "Bool(false)",
    );
    check(
        Expr::bin(BinOp::Or, Expr::col(1), Expr::lit(f64::NAN)),
        &t,
        "Bool(true)",
    ); // NaN != 0.0
    check(Expr::Not(Box::new(Expr::col(9))), &t, "Bool(true)");
    check(Expr::Not(Box::new(Expr::col(0))), &t, "Bool(false)");
    // Nested: (false AND x) OR (true AND NOT false).
    let nested = Expr::bin(
        BinOp::Or,
        Expr::and(Expr::lit(false), Expr::col(0)),
        Expr::and(Expr::lit(true), Expr::Not(Box::new(Expr::lit(false)))),
    );
    check(nested, &t, "Bool(true)");
}

#[test]
fn the_four_built_ins() {
    let t = Tuple::new(vec![
        Value::I64(60),
        Value::I64(70),
        Value::F64(-2.5),
        Value::str("b"),
        Value::F64(60.0),
    ]);
    let cols = |cs: &[usize]| cs.iter().map(|&c| Expr::col(c)).collect::<Vec<_>>();
    // (x + y) mod 100, on the integer views; extra arguments are ignored.
    check(call(Func::WorkloadF, cols(&[0, 1])), &t, "I64(30)");
    check(call(Func::WorkloadF, cols(&[0, 2])), &t, "I64(58)"); // -2.5 as i64 = -2
    check(call(Func::WorkloadF, cols(&[2, 2])), &t, "I64(96)"); // rem_euclid
    check(call(Func::WorkloadF, cols(&[0, 1, 3])), &t, "I64(30)");
    check(call(Func::WorkloadF, cols(&[0])), &t, "Null");
    check(call(Func::WorkloadF, cols(&[0, 3])), &t, "Null");
    check(call(Func::WorkloadF, vec![]), &t, "Null");
    check(call(Func::Abs, cols(&[2])), &t, "F64(2.5)");
    check(
        call(Func::Abs, vec![Expr::lit(-3i64), Expr::col(3)]),
        &t,
        "I64(3)",
    );
    check(call(Func::Abs, cols(&[3])), &t, "Null");
    check(call(Func::Abs, vec![Expr::lit(true)]), &t, "Null"); // Bool is not a number here
    check(call(Func::Abs, vec![]), &t, "Null");
    check(call(Func::Min, cols(&[0, 1, 2])), &t, "F64(-2.5)");
    check(call(Func::Max, cols(&[0, 1, 2, 3])), &t, "Str(\"b\")"); // Str outranks numbers
    check(call(Func::Min, cols(&[3, 9])), &t, "Null"); // Null is least
    check(call(Func::Min, vec![]), &t, "Null");
    check(call(Func::Max, vec![]), &t, "Null");
    // Ties: min keeps the first of equals, max the last.
    check(call(Func::Min, cols(&[0, 4])), &t, "I64(60)");
    check(call(Func::Min, cols(&[4, 0])), &t, "F64(60.0)");
    check(call(Func::Max, cols(&[0, 4])), &t, "F64(60.0)");
    check(call(Func::Max, cols(&[4, 0])), &t, "I64(60)");
}

// ---------------------------------------------------------------------
// The value zoo: `==`, `cmp` and `hash64` on every ordered pair
// ---------------------------------------------------------------------

fn zoo() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::I64(-1),
        Value::I64(0),
        Value::I64(1),
        Value::I64(3),
        Value::F64(3.0),
        Value::F64(-0.0),
        Value::F64(0.5),
        Value::F64(f64::NAN),
        Value::I64(1 << 53),
        Value::I64((1 << 53) + 1),
        Value::F64(9_007_199_254_740_992.0),
        Value::str(""),
        Value::str("a"),
        Value::str("ab"),
        Value::str("é"),
        Value::Pad(0),
        Value::Pad(8),
    ]
}

#[test]
fn zoo_equality_order_and_hash() {
    let zoo = zoo();
    // Row `i`, column `j`: `zoo[i] == zoo[j]`, then `zoo[i].cmp(&zoo[j])`.
    let eq: Vec<String> = zoo
        .iter()
        .map(|a| zoo.iter().map(|b| if a == b { '=' } else { '.' }).collect())
        .collect();
    let cmp: Vec<String> = zoo
        .iter()
        .map(|a| {
            zoo.iter()
                .map(|b| match a.cmp(b) {
                    Ordering::Less => '<',
                    Ordering::Equal => '=',
                    Ordering::Greater => '>',
                })
                .collect()
        })
        .collect();
    let hash: Vec<String> = zoo.iter().map(|v| format!("{:#x}", v.hash64())).collect();
    pin!(
        "zoo_eq", eq.join("\n");
        "zoo_cmp", cmp.join("\n");
        "zoo_hash", hash.join("\n")
    );
    // What the tables say, said again: `partial_cmp` is `cmp`, and
    // std's `Hash` feeds `hash64` and nothing else.
    for a in &zoo {
        for b in &zoo {
            assert_eq!(a.partial_cmp(b), Some(a.cmp(b)));
        }
        let (mut got, mut want) = (DefaultHasher::new(), DefaultHasher::new());
        a.hash(&mut got);
        want.write_u64(a.hash64());
        assert_eq!(got.finish(), want.finish());
    }
}

#[test]
fn truthiness_views_and_wire_sizes_of_the_zoo() {
    let shown: Vec<String> = zoo()
        .iter()
        .map(|v| {
            format!(
                "{v:?}: {} {:?} {:?} {:?} {}",
                v.truthy(),
                v.as_f64(),
                v.as_i64(),
                v.as_str(),
                v.wire_size()
            )
        })
        .collect();
    pin!("zoo_views", shown.join("\n"));
}

// ---------------------------------------------------------------------
// Properties over the generators
// ---------------------------------------------------------------------

fn same(a: &Value, b: &Value) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn operators_agree_with_the_value_they_are_defined_by(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = random_tuple(&mut rng);
        let (l, r) = (random_expr(&mut rng, 2), random_expr(&mut rng, 2));
        let (lv, rv) = (l.eval(&t), r.eval(&t));
        let bin = |op| Expr::bin(op, l.clone(), r.clone()).eval(&t);

        prop_assert!(same(&bin(BinOp::Eq), &Value::Bool(lv == rv)));
        prop_assert!(same(&bin(BinOp::Ne), &Value::Bool(lv != rv)));
        prop_assert!(same(&bin(BinOp::Lt), &Value::Bool(lv.cmp(&rv) == Ordering::Less)));
        prop_assert!(same(&bin(BinOp::Le), &Value::Bool(lv.cmp(&rv) != Ordering::Greater)));
        prop_assert!(same(&bin(BinOp::Gt), &Value::Bool(lv.cmp(&rv) == Ordering::Greater)));
        prop_assert!(same(&bin(BinOp::Ge), &Value::Bool(lv.cmp(&rv) != Ordering::Less)));
        prop_assert!(same(&bin(BinOp::And), &Value::Bool(lv.truthy() && rv.truthy())));
        prop_assert!(same(&bin(BinOp::Or), &Value::Bool(lv.truthy() || rv.truthy())));
        prop_assert!(same(&Expr::Not(Box::new(l.clone())).eval(&t), &Value::Bool(!lv.truthy())));
        prop_assert_eq!(l.matches(&t), lv.truthy());

        // Min and max are the iterator's: first of equal minima, last of
        // equal maxima.
        let args = vec![l.clone(), r.clone(), random_expr(&mut rng, 1)];
        let vals: Vec<Value> = args.iter().map(|a| a.eval(&t)).collect();
        let min = Expr::Call(Func::Min, args.clone()).eval(&t);
        let max = Expr::Call(Func::Max, args).eval(&t);
        prop_assert!(same(&min, vals.iter().min().unwrap()));
        prop_assert!(same(&max, vals.iter().max().unwrap()));
    }

    #[test]
    fn a_column_is_its_value_or_null(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = random_tuple(&mut rng);
        for i in 0..8 {
            let want = t.vals.get(i).cloned().unwrap_or(Value::Null);
            prop_assert!(same(&Expr::col(i).eval(&t), &want));
        }
    }
}
