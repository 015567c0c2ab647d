//! Aggregate accumulators: partial states that merge associatively, the
//! basis of both flat DHT-based grouping and hierarchical (in-network)
//! aggregation.

use crate::plan::{AggCall, AggFunc};
use crate::tuple::{Columns, Tuple};
use crate::value::{ValRef, Value};

/// Mergeable partial state of one aggregate.
#[derive(Clone, Debug, PartialEq)]
pub enum AggState {
    Count(i64),
    SumF(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl AggState {
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::SumF(0.0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Is this the state [`AggState::new`] starts `func` from, whatever
    /// it has accumulated since?
    fn is_of(&self, func: AggFunc) -> bool {
        matches!(
            (self, func),
            (AggState::Count(_), AggFunc::Count)
                | (AggState::SumF(_), AggFunc::Sum)
                | (AggState::Min(_), AggFunc::Min)
                | (AggState::Max(_), AggFunc::Max)
                | (AggState::Avg { .. }, AggFunc::Avg)
        )
    }

    /// Fold one input value in (None for `count(*)`). Only a new MIN or
    /// MAX is copied out of it.
    pub fn update(&mut self, v: Option<ValRef<'_>>) {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::SumF(s) => {
                if let Some(v) = v.and_then(|v| v.as_f64()) {
                    *s += v;
                }
            }
            // SQL semantics: MIN/MAX range over non-null inputs only.
            // `Value::Null` sorts below every value, so folding it in
            // would make every null-bearing MIN collapse to NULL.
            AggState::Min(m) => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    if m.as_ref().is_none_or(|cur| v < cur.as_ref()) {
                        *m = Some(v.to_value());
                    }
                }
            }
            AggState::Max(m) => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    if m.as_ref().is_none_or(|cur| v > cur.as_ref()) {
                        *m = Some(v.to_value());
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = v.and_then(|v| v.as_f64()) {
                    *sum += v;
                    *n += 1;
                }
            }
        }
    }

    /// Merge another partial of the same shape (associative/commutative).
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumF(a), AggState::SumF(b)) => *a += b,
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b.as_ref().filter(|bv| !bv.is_null()) {
                    if a.as_ref().is_none_or(|av| bv < av) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b.as_ref().filter(|bv| !bv.is_null()) {
                    if a.as_ref().is_none_or(|av| bv > av) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Avg { sum: s1, n: n1 }, AggState::Avg { sum: s2, n: n2 }) => {
                *s1 += s2;
                *n1 += n2;
            }
            (a, b) => debug_assert!(false, "merging mismatched agg states {a:?} / {b:?}"),
        }
    }

    /// Final value of the aggregate.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(c) => Value::I64(*c),
            AggState::SumF(s) => {
                // Integral sums surface as integers so `count * sum`
                // expressions stay in integer arithmetic when possible.
                if s.fract() == 0.0 && s.abs() < 9e15 {
                    Value::I64(*s as i64)
                } else {
                    Value::F64(*s)
                }
            }
            AggState::Min(m) | AggState::Max(m) => m.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::F64(sum / *n as f64)
                }
            }
        }
    }

    pub fn wire_size(&self) -> usize {
        match self {
            AggState::Count(_) | AggState::SumF(_) => 9,
            AggState::Min(m) | AggState::Max(m) => 1 + m.as_ref().map_or(0, Value::wire_size),
            AggState::Avg { .. } => 17,
        }
    }
}

/// A group's accumulators across all aggregate calls of a query. Plain
/// and owned: the oracles fold through it at full speed. Where a group
/// is handed on — a node's running totals, the partial put from them,
/// the copy an owner stores — it travels as an `Arc<GroupAccs>` and the
/// sharing is the node's business (`node::agg`).
#[derive(Clone, Debug, PartialEq)]
pub struct GroupAccs {
    pub states: Vec<AggState>,
}

impl GroupAccs {
    pub fn new(calls: &[AggCall]) -> GroupAccs {
        GroupAccs {
            states: calls.iter().map(|c| AggState::new(c.func)).collect(),
        }
    }

    /// Does this partial hold one state per call of `calls`, each of the
    /// call's kind? What a partial that arrived from the network is
    /// asked before it is merged with a query's own.
    pub fn fits(&self, calls: &[AggCall]) -> bool {
        self.states.len() == calls.len()
            && self.states.iter().zip(calls).all(|(s, c)| s.is_of(c.func))
    }

    /// Fold an input row into every accumulator: a tuple, or a row read
    /// where it lies. Arguments are evaluated borrowed.
    pub fn update<R: Columns + ?Sized>(&mut self, calls: &[AggCall], row: &R) {
        for (state, call) in self.states.iter_mut().zip(calls) {
            state.update(call.arg.as_ref().map(|e| e.eval_ref(row)));
        }
    }

    pub fn merge(&mut self, other: &GroupAccs) {
        for (a, b) in self.states.iter_mut().zip(&other.states) {
            a.merge(b);
        }
    }

    /// Write the virtual output row `[group values..., finalized
    /// aggs...]` into `row`, reusing its buffer.
    pub fn output_row(&self, group: &[Value], row: &mut Tuple) {
        row.vals.clear();
        row.vals.extend_from_slice(group);
        row.vals.extend(self.states.iter().map(AggState::finalize));
    }

    pub fn wire_size(&self) -> usize {
        self.states.iter().map(AggState::wire_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::tuple;

    fn calls() -> Vec<AggCall> {
        vec![
            AggCall {
                func: AggFunc::Count,
                arg: None,
            },
            AggCall {
                func: AggFunc::Sum,
                arg: Some(Expr::col(0)),
            },
            AggCall {
                func: AggFunc::Min,
                arg: Some(Expr::col(0)),
            },
            AggCall {
                func: AggFunc::Max,
                arg: Some(Expr::col(0)),
            },
            AggCall {
                func: AggFunc::Avg,
                arg: Some(Expr::col(0)),
            },
        ]
    }

    fn output(g: &GroupAccs, group: &[Value]) -> Tuple {
        let mut row = tuple![Value::str("left over from the last group")];
        g.output_row(group, &mut row);
        row
    }

    #[test]
    fn accumulate_then_finalize() {
        let calls = calls();
        let mut g = GroupAccs::new(&calls);
        for v in [3i64, 1, 4, 1, 5] {
            g.update(&calls, &tuple![v]);
        }
        let out = output(&g, &[Value::str("k")]);
        assert_eq!(out.get(1), &Value::I64(5)); // count
        assert_eq!(out.get(2), &Value::I64(14)); // sum (integral)
        assert_eq!(out.get(3), &Value::I64(1)); // min
        assert_eq!(out.get(4), &Value::I64(5)); // max
        assert_eq!(out.get(5), &Value::F64(2.8)); // avg
    }

    #[test]
    fn merge_equals_sequential_update() {
        let calls = calls();
        let rows: Vec<Tuple> = (0..20i64).map(|v| tuple![v * 7 % 13]).collect();
        let mut whole = GroupAccs::new(&calls);
        for r in &rows {
            whole.update(&calls, r);
        }
        let mut a = GroupAccs::new(&calls);
        let mut b = GroupAccs::new(&calls);
        for (i, r) in rows.iter().enumerate() {
            if i % 2 == 0 {
                a.update(&calls, r);
            } else {
                b.update(&calls, r);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_group_finalizes_to_neutral_values() {
        let calls = calls();
        let g = GroupAccs::new(&calls);
        let out = output(&g, &[]);
        assert_eq!(out.get(0), &Value::I64(0));
        assert_eq!(out.get(2), &Value::Null);
        assert_eq!(out.get(4), &Value::Null);
    }

    #[test]
    fn min_max_skip_nulls() {
        // Regression: Value::Null sorts below everything, so a single
        // NULL input used to turn MIN into NULL instead of the least
        // non-null value.
        let calls = calls();
        let mut g = GroupAccs::new(&calls);
        for v in [Value::Null, Value::I64(4), Value::Null, Value::I64(2)] {
            g.update(&calls, &Tuple::new(vec![v]));
        }
        let out = output(&g, &[]);
        assert_eq!(out.get(0), &Value::I64(4), "count(*) still counts rows");
        assert_eq!(out.get(2), &Value::I64(2), "min skips nulls");
        assert_eq!(out.get(3), &Value::I64(4), "max skips nulls");
        // All-null input finalizes to NULL, like the empty group.
        let mut all_null = GroupAccs::new(&calls);
        all_null.update(&calls, &tuple![Value::Null]);
        assert_eq!(output(&all_null, &[]).get(2), &Value::Null);
        assert_eq!(output(&all_null, &[]).get(3), &Value::Null);
    }

    #[test]
    fn merge_skips_null_min_max_partials() {
        let calls = calls();
        let mut a = GroupAccs::new(&calls);
        a.update(&calls, &tuple![7i64]);
        // A partial whose MIN/MAX never saw a non-null value merges as a
        // no-op (and a hand-built Some(Null) partial must not win).
        let mut b = GroupAccs::new(&calls);
        b.states[2] = AggState::Min(Some(Value::Null));
        b.states[3] = AggState::Max(Some(Value::Null));
        a.merge(&b);
        let out = output(&a, &[]);
        assert_eq!(out.get(2), &Value::I64(7));
        assert_eq!(out.get(3), &Value::I64(7));
    }

    #[test]
    fn count_ignores_argument() {
        let calls = vec![AggCall {
            func: AggFunc::Count,
            arg: None,
        }];
        let mut g = GroupAccs::new(&calls);
        g.update(&calls, &tuple![Value::Null]);
        g.update(&calls, &tuple![1i64]);
        assert_eq!(output(&g, &[]).get(0), &Value::I64(2));
    }

    #[test]
    fn fits_asks_for_one_state_of_each_calls_kind() {
        let calls = calls();
        let mut g = GroupAccs::new(&calls);
        g.update(&calls, &tuple![3i64]);
        assert!(g.fits(&calls));
        assert!(!g.fits(&calls[..4]), "a state too many");
        assert!(!GroupAccs::new(&calls[..4]).fits(&calls), "a state short");
        let swapped: Vec<AggCall> = calls.iter().rev().cloned().collect();
        assert!(!g.fits(&swapped), "the right count of the wrong kinds");
        assert!(GroupAccs::new(&[]).fits(&[]));
    }
}
