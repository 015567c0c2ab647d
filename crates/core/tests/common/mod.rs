//! Generators shared by the expression pin and the encoding properties:
//! values drawn from small pools (so equalities, ties and type clashes
//! actually occur), tuples of them, and expression trees over every
//! operator and built-in.
//!
//! Magnitudes stop at 2^61 and `WorkloadF` takes only leaves: its
//! `x + y` is a plain `i64` addition, which a debug build checks.

#![allow(dead_code)] // each test binary uses its own subset

use rand::rngs::SmallRng;
use rand::Rng;

use pier_core::expr::{BinOp, Expr, Func};
use pier_core::{Tuple, Value};

const I64_POOL: [i64; 12] = [
    0,
    1,
    -1,
    2,
    3,
    7,
    -40,
    100,
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1, // not an f64
    -(1 << 61),
];

const F64_POOL: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    3.0,
    2.5,
    -0.5,
    7.0,
    f64::NAN,
    9_007_199_254_740_992.0, // 2^53
    9_007_199_254_740_994.0, // the next f64 after it
    1e18,
    -1e18,
];

const STR_POOL: [&str; 8] = ["", "a", "ab", "b", "é", "日本", "sig-0001", "sig-0002"];

const PAD_POOL: [u32; 3] = [0, 8, 1000];

pub fn random_value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..16u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen::<u64>() & 1 == 1),
        2..=7 => Value::I64(I64_POOL[rng.gen_range(0..I64_POOL.len())]),
        8..=11 => Value::F64(F64_POOL[rng.gen_range(0..F64_POOL.len())]),
        12..=14 => Value::str(STR_POOL[rng.gen_range(0..STR_POOL.len())]),
        _ => Value::Pad(PAD_POOL[rng.gen_range(0..PAD_POOL.len())]),
    }
}

/// Twenty values, two or more of every kind, where `==` is easy to get
/// wrong: ±0.0 beside `I64(0)` and `Bool(false)`, NaN, `I64(2^53 + 1)`
/// beside `I64(2^53)` and `F64(2^53)`, the empty and a non-ASCII string.
/// (`expr_pin.rs` pins `==`, `cmp` and `hash64` over the same list.)
pub fn zoo() -> Vec<Value> {
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

/// Mostly six columns, sometimes fewer; [`random_expr`] refers to seven.
pub fn random_tuple(rng: &mut SmallRng) -> Tuple {
    let arity = [0, 1, 3, 5, 6, 6, 6, 6][rng.gen_range(0..8usize)];
    Tuple::new((0..arity).map(|_| random_value(rng)).collect())
}

fn leaf(rng: &mut SmallRng) -> Expr {
    if rng.gen_range(0..3u32) == 0 {
        Expr::Lit(random_value(rng))
    } else {
        Expr::Col(rng.gen_range(0..7usize))
    }
}

const BIN_OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

/// A tree at most `depth` operators deep. Calls take zero to four
/// arguments whatever the function reads.
pub fn random_expr(rng: &mut SmallRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_range(0..5u32) == 0 {
        return leaf(rng);
    }
    let sub = |rng: &mut SmallRng| random_expr(rng, depth - 1);
    match rng.gen_range(0..10u32) {
        0..=5 => {
            let op = BIN_OPS[rng.gen_range(0..BIN_OPS.len())];
            Expr::bin(op, sub(rng), sub(rng))
        }
        6 => Expr::Not(Box::new(sub(rng))),
        7 => {
            let n = rng.gen_range(0..4usize);
            Expr::Call(Func::WorkloadF, (0..n).map(|_| leaf(rng)).collect())
        }
        8 => {
            let n = rng.gen_range(0..3usize);
            Expr::Call(Func::Abs, (0..n).map(|_| sub(rng)).collect())
        }
        _ => {
            let f = if rng.gen::<u64>() & 1 == 1 {
                Func::Min
            } else {
                Func::Max
            };
            let n = rng.gen_range(0..5usize);
            Expr::Call(f, (0..n).map(|_| sub(rng)).collect())
        }
    }
}
