//! Scalar expressions over tuples.
//!
//! Expressions are resolved to column indices at plan-build time (by the
//! SQL front-end or by hand-wired plans) and evaluated dynamically. The
//! small built-in function table includes `f(x, y)` — the paper's §5.1
//! workload applies an opaque two-table predicate `f(R.num3, S.num3) >
//! constant3` that forces evaluation *above* the equi-join.

use std::fmt;

use crate::tuple::Columns;
use crate::value::{ValRef, Value};

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Built-in scalar functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Func {
    /// The workload's opaque cross-table function: `(x + y) mod 100`.
    /// Uniform inputs make `f(x,y) > c` have selectivity `(100-c)/100`,
    /// which is how experiments dial the §5.1 `constant3`.
    WorkloadF,
    Abs,
    Min,
    Max,
}

/// An expression tree over a single (possibly concatenated) tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference by index.
    Col(usize),
    Lit(Value),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Call(Func, Vec<Expr>),
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    pub fn gt(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Gt, l, r)
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Eq, l, r)
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::And, l, r)
    }

    /// Conjunction of many predicates (`true` if empty).
    pub fn conjunction(mut preds: Vec<Expr>) -> Expr {
        match preds.len() {
            0 => Expr::lit(true),
            1 => preds.pop().unwrap(),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().unwrap();
                it.fold(first, Expr::and)
            }
        }
    }

    /// Evaluate over anything that hands out columns — a
    /// [`crate::tuple::Tuple`], an encoded row read in place
    /// ([`crate::tuple::RowRef`]) or a view over one. Columns and
    /// literals are borrowed, everything computed is a scalar, so
    /// evaluation never touches the heap.
    pub fn eval_ref<'a, R: Columns + ?Sized>(&'a self, row: &'a R) -> ValRef<'a> {
        match self {
            Expr::Col(i) => row.col(*i),
            Expr::Lit(v) => v.as_ref(),
            Expr::Not(e) => ValRef::Bool(!e.eval_ref(row).truthy()),
            Expr::Bin(op, l, r) => {
                let lv = l.eval_ref(row);
                match op {
                    // Short-circuit logicals.
                    BinOp::And => {
                        return ValRef::Bool(lv.truthy() && r.eval_ref(row).truthy());
                    }
                    BinOp::Or => {
                        return ValRef::Bool(lv.truthy() || r.eval_ref(row).truthy());
                    }
                    _ => {}
                }
                let rv = r.eval_ref(row);
                match op {
                    BinOp::Eq => ValRef::Bool(lv == rv),
                    BinOp::Ne => ValRef::Bool(lv != rv),
                    BinOp::Lt => ValRef::Bool(lv < rv),
                    BinOp::Le => ValRef::Bool(lv <= rv),
                    BinOp::Gt => ValRef::Bool(lv > rv),
                    BinOp::Ge => ValRef::Bool(lv >= rv),
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        arith(*op, lv, rv)
                    }
                    BinOp::And | BinOp::Or => unreachable!(),
                }
            }
            Expr::Call(f, args) => {
                let mut vals = args.iter().map(|a| a.eval_ref(row));
                match f {
                    Func::WorkloadF => {
                        let x = vals.next().and_then(|v| v.as_i64());
                        let y = vals.next().and_then(|v| v.as_i64());
                        match (x, y) {
                            (Some(x), Some(y)) => ValRef::I64((x + y).rem_euclid(100)),
                            _ => ValRef::Null,
                        }
                    }
                    Func::Abs => match vals.next() {
                        Some(ValRef::I64(i)) => ValRef::I64(i.abs()),
                        Some(ValRef::F64(x)) => ValRef::F64(x.abs()),
                        _ => ValRef::Null,
                    },
                    Func::Min => vals.min().unwrap_or(ValRef::Null),
                    Func::Max => vals.max().unwrap_or(ValRef::Null),
                }
            }
        }
    }

    /// Evaluate to an owned value. A bare column of a row that holds
    /// owned values ([`Columns::value`]) or a literal shares the
    /// `Arc<str>` it holds (a projection of a tuple copies no strings);
    /// anything else is [`Self::eval_ref`]'s answer, owned.
    pub fn eval<R: Columns + ?Sized>(&self, row: &R) -> Value {
        match self {
            Expr::Col(i) => row.value(*i),
            Expr::Lit(v) => v.clone(),
            _ => self.eval_ref(row).to_value(),
        }
    }

    /// Evaluate as a predicate.
    pub fn matches<R: Columns + ?Sized>(&self, row: &R) -> bool {
        self.eval_ref(row).truthy()
    }

    /// Remap column references through `map[i] -> new index`; `None`
    /// means the column was projected away (returns Err).
    pub fn remap_cols(&self, map: &dyn Fn(usize) -> Option<usize>) -> Result<Expr, String> {
        Ok(match self {
            Expr::Col(i) => Expr::Col(map(*i).ok_or_else(|| format!("column {i} projected away"))?),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Not(e) => Expr::Not(Box::new(e.remap_cols(map)?)),
            Expr::Bin(op, l, r) => Expr::bin(*op, l.remap_cols(map)?, r.remap_cols(map)?),
            Expr::Call(f, args) => Expr::Call(
                *f,
                args.iter()
                    .map(|a| a.remap_cols(map))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// Rewrite every column reference through `map`, in place: the
    /// re-indexing of a tree whose shape does not change (FROM order →
    /// join order, global → table-local), which needs no new nodes.
    pub fn map_cols(&mut self, map: &dyn Fn(usize) -> usize) {
        match self {
            Expr::Col(i) => *i = map(*i),
            Expr::Lit(_) => {}
            Expr::Not(e) => e.map_cols(map),
            Expr::Bin(_, l, r) => {
                l.map_cols(map);
                r.map_cols(map);
            }
            Expr::Call(_, args) => args.iter_mut().for_each(|a| a.map_cols(map)),
        }
    }

    /// Does every column reference index a tuple of `arity` columns?
    pub fn cols_within(&self, arity: usize) -> bool {
        match self {
            Expr::Col(i) => *i < arity,
            Expr::Lit(_) => true,
            Expr::Not(e) => e.cols_within(arity),
            Expr::Bin(_, l, r) => l.cols_within(arity) && r.cols_within(arity),
            Expr::Call(_, args) => args.iter().all(|a| a.cols_within(arity)),
        }
    }

    /// Columns referenced by this expression.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::Lit(_) => {}
            Expr::Not(e) => e.columns(out),
            Expr::Bin(_, l, r) => {
                l.columns(out);
                r.columns(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.columns(out);
                }
            }
        }
    }

    /// Estimated wire size when shipped inside a query descriptor.
    pub fn wire_size(&self) -> usize {
        match self {
            Expr::Col(_) => 3,
            Expr::Lit(v) => 1 + v.wire_size(),
            Expr::Not(e) => 1 + e.wire_size(),
            Expr::Bin(_, l, r) => 2 + l.wire_size() + r.wire_size(),
            Expr::Call(_, args) => 2 + args.iter().map(Expr::wire_size).sum::<usize>(),
        }
    }
}

/// Expressions evaluated over a row, read as the row of their values: a
/// query's output row before anything is built for it. A column is
/// evaluated each time it is read.
pub struct Projection<'a, R: ?Sized> {
    exprs: &'a [Expr],
    row: &'a R,
}

impl<'a, R: Columns + ?Sized> Projection<'a, R> {
    pub fn new(exprs: &'a [Expr], row: &'a R) -> Self {
        Projection { exprs, row }
    }
}

impl<R: Columns + ?Sized> Columns for Projection<'_, R> {
    fn arity(&self) -> usize {
        self.exprs.len()
    }
    fn col(&self, i: usize) -> ValRef<'_> {
        self.exprs
            .get(i)
            .map_or(ValRef::Null, |e| e.eval_ref(self.row))
    }
    fn value(&self, i: usize) -> Value {
        self.exprs.get(i).map_or(Value::Null, |e| e.eval(self.row))
    }
}

fn arith(op: BinOp, l: ValRef<'_>, r: ValRef<'_>) -> ValRef<'static> {
    // Integer arithmetic when both sides are integers; else float.
    if let (ValRef::I64(a), ValRef::I64(b)) = (l, r) {
        return match op {
            BinOp::Add => ValRef::I64(a.wrapping_add(b)),
            BinOp::Sub => ValRef::I64(a.wrapping_sub(b)),
            BinOp::Mul => ValRef::I64(a.wrapping_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    ValRef::Null
                } else {
                    ValRef::I64(a / b)
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    ValRef::Null
                } else {
                    ValRef::I64(a.rem_euclid(b))
                }
            }
            _ => unreachable!(),
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => match op {
            BinOp::Add => ValRef::F64(a + b),
            BinOp::Sub => ValRef::F64(a - b),
            BinOp::Mul => ValRef::F64(a * b),
            BinOp::Div => {
                if b == 0.0 {
                    ValRef::Null
                } else {
                    ValRef::F64(a / b)
                }
            }
            BinOp::Mod => {
                if b == 0.0 {
                    ValRef::Null
                } else {
                    ValRef::F64(a.rem_euclid(b))
                }
            }
            _ => unreachable!(),
        },
        _ => ValRef::Null,
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::Bin(op, l, r) => write!(f, "({l} {op:?} {r})"),
            Expr::Call(func, args) => {
                write!(f, "{func:?}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn comparisons_and_arithmetic() {
        let t = tuple![10i64, 3i64, 2.5];
        let e = Expr::gt(Expr::col(0), Expr::col(1));
        assert!(e.matches(&t));
        let sum = Expr::bin(BinOp::Add, Expr::col(0), Expr::col(2));
        assert_eq!(sum.eval(&t), Value::F64(12.5));
        let m = Expr::bin(BinOp::Mod, Expr::col(0), Expr::col(1));
        assert_eq!(m.eval(&t), Value::I64(1));
        let div0 = Expr::bin(BinOp::Div, Expr::col(0), Expr::lit(0i64));
        assert_eq!(div0.eval(&t), Value::Null);
    }

    #[test]
    fn short_circuit_logicals() {
        let t = tuple![1i64];
        // Col(9) is out of range -> Null; AND short-circuits before it.
        let e = Expr::and(Expr::lit(false), Expr::col(9));
        assert!(!e.matches(&t));
        let o = Expr::bin(BinOp::Or, Expr::lit(true), Expr::col(9));
        assert!(o.matches(&t));
    }

    #[test]
    fn workload_f_selectivity_shape() {
        // f(x, y) = (x + y) mod 100: over uniform x,y the predicate
        // f > 49 holds for half the domain.
        let mut hits = 0;
        let total = 100 * 100;
        for x in 0..100i64 {
            for y in 0..100i64 {
                let t = tuple![x, y];
                let e = Expr::gt(
                    Expr::Call(Func::WorkloadF, vec![Expr::col(0), Expr::col(1)]),
                    Expr::lit(49i64),
                );
                if e.matches(&t) {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits * 2, total);
    }

    #[test]
    fn shift_and_remap_columns() {
        let e = Expr::eq(Expr::col(1), Expr::lit(5i64));
        let remapped = e
            .remap_cols(&|i| if i == 1 { Some(0) } else { None })
            .unwrap();
        assert_eq!(remapped, Expr::eq(Expr::col(0), Expr::lit(5i64)));
        assert!(Expr::col(2).remap_cols(&|_| None).is_err());
    }

    #[test]
    fn conjunction_of_zero_one_many() {
        let t = tuple![1i64];
        assert!(Expr::conjunction(vec![]).matches(&t));
        assert!(Expr::conjunction(vec![Expr::lit(true)]).matches(&t));
        assert!(!Expr::conjunction(vec![Expr::lit(true), Expr::lit(false)]).matches(&t));
    }

    #[test]
    fn columns_collects_unique_refs() {
        let e = Expr::and(
            Expr::gt(Expr::col(2), Expr::col(0)),
            Expr::eq(Expr::col(2), Expr::lit(1i64)),
        );
        let mut cols = Vec::new();
        e.columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 2]);
    }
}
