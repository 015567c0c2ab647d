//! Aggregate accumulators: partial states that merge associatively, the
//! basis of both flat DHT-based grouping and hierarchical (in-network)
//! aggregation.

use std::collections::BTreeMap;
use std::sync::Arc;

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

/// Accumulators by group key, in key order. The key is allocated once,
/// when the node first sees the group, and shared from there on: by the
/// scratch map a flush's report builds, by every partial put or sent for
/// the group, by the owner's store and its harvest. The accumulators are
/// one allocation, shared the same way and copied on write
/// (`Arc::make_mut`, in `node::agg`): a flush's snapshot is a refcount
/// bump, what is stored or in flight never changes, and only a group
/// that received a row since its last flush copies its accumulators,
/// once, at that row.
pub type Groups = BTreeMap<Arc<[Value]>, Arc<[AggState]>>;

/// One group's accumulators, a state per aggregate call, as a slice:
/// what a [`GroupAccs`] owns, and what a node shares as an
/// `Arc<[AggState]>` — one allocation, copied on write
/// (`Arc::make_mut`) by the node (`node::agg`).
pub trait Accs {
    /// Does this partial hold one state per call of `calls`, each of the
    /// call's kind? What a partial that arrived from the network is
    /// asked before it is merged with a query's own.
    fn fits(&self, calls: &[AggCall]) -> bool;
    /// Fold an input row into every accumulator: a tuple, or a row read
    /// where it lies. Arguments are evaluated borrowed.
    fn update<R: Columns + ?Sized>(&mut self, calls: &[AggCall], row: &R);
    fn merge(&mut self, other: &[AggState]);
    /// Write the virtual output row `[group values..., finalized
    /// aggs...]` into `row`, reusing its buffer.
    fn output_row(&self, group: &[Value], row: &mut Tuple);
    fn wire_size(&self) -> usize;
}

impl Accs for [AggState] {
    fn fits(&self, calls: &[AggCall]) -> bool {
        self.len() == calls.len() && self.iter().zip(calls).all(|(s, c)| s.is_of(c.func))
    }

    fn update<R: Columns + ?Sized>(&mut self, calls: &[AggCall], row: &R) {
        for (state, call) in self.iter_mut().zip(calls) {
            state.update(call.arg.as_ref().map(|e| e.eval_ref(row)));
        }
    }

    fn merge(&mut self, other: &[AggState]) {
        for (a, b) in self.iter_mut().zip(other) {
            a.merge(b);
        }
    }

    fn output_row(&self, group: &[Value], row: &mut Tuple) {
        row.vals.clear();
        row.vals.extend_from_slice(group);
        row.vals.extend(self.iter().map(AggState::finalize));
    }

    fn wire_size(&self) -> usize {
        self.iter().map(AggState::wire_size).sum()
    }
}

/// A group's accumulators across all aggregate calls of a query, plain
/// and owned: the oracles fold through it at full speed. Its methods are
/// the slice's ([`Accs`]).
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

    pub fn update<R: Columns + ?Sized>(&mut self, calls: &[AggCall], row: &R) {
        self.states.update(calls, row)
    }

    pub fn merge(&mut self, other: &GroupAccs) {
        self.states.merge(&other.states)
    }

    pub fn output_row(&self, group: &[Value], row: &mut Tuple) {
        self.states.output_row(group, row)
    }
}

/// A group's accumulators as a node shares them: one allocation.
impl From<GroupAccs> for Arc<[AggState]> {
    fn from(accs: GroupAccs) -> Self {
        accs.states.into()
    }
}

/// The partials an owner harvests, merged where they lie: each is held
/// by a refcount, never copied, and a group's partials are merged into
/// a reused buffer only where there are two or more. Kept per
/// thread by the node and reused, so a harvest allocates nothing here
/// once it has grown.
#[derive(Default)]
pub struct Harvest {
    partials: Vec<Held>,
    /// The merged accumulators of each group with more than one partial,
    /// in group order, one state per call each.
    merged: Vec<AggState>,
}

/// A partial as a [`Harvest`] holds it: its key, its place in push
/// order, its accumulators.
type Held = (Arc<[Value]>, u32, Arc<[AggState]>);

impl Harvest {
    /// Add one group's partial; they merge in the order they are pushed.
    pub fn push(&mut self, group: &Arc<[Value]>, accs: &Arc<[AggState]>) {
        let at = self.partials.len() as u32;
        self.partials
            .push((Arc::clone(group), at, Arc::clone(accs)));
    }

    /// Every group pushed, in `[Value]`'s order: its key as first pushed
    /// and its partials merged in push order — the first one's states,
    /// the others merged into them one by one. Keys that tie (`I64(3)`
    /// and `F64(3.0)`, integers that round to one `f64`, NaNs) are one
    /// group. This is what merging the partials, in push order, into a
    /// map keyed by group gives, and in that map's order.
    pub fn groups(&mut self) -> impl Iterator<Item = (&[Value], &[AggState])> {
        // Sorted by key, ties in push order: a stable sort that needs
        // no scratch buffer.
        self.partials
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let same = |a: &Held, b: &Held| a.0.cmp(&b.0).is_eq();
        self.merged.clear();
        for run in self.partials.chunk_by(same).filter(|run| run.len() > 1) {
            let from = self.merged.len();
            self.merged.extend_from_slice(&run[0].2);
            for (_, _, accs) in &run[1..] {
                self.merged[from..].merge(accs);
            }
        }
        let mut merged = &self.merged[..];
        self.partials.chunk_by(same).map(move |run| {
            let states = match run {
                [(_, _, only)] => &only[..],
                _ => {
                    let (states, rest) = merged.split_at(run[0].2.len());
                    merged = rest;
                    states
                }
            };
            (&run[0].0[..], states)
        })
    }

    /// Let go of every partial pushed, keeping the buffers.
    pub fn clear(&mut self) {
        self.partials.clear();
        self.merged.clear();
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
        assert!(g.states.fits(&calls));
        assert!(!g.states.fits(&calls[..4]), "a state too many");
        assert!(
            !GroupAccs::new(&calls[..4]).states.fits(&calls),
            "a state short"
        );
        let swapped: Vec<AggCall> = calls.iter().rev().cloned().collect();
        assert!(
            !g.states.fits(&swapped),
            "the right count of the wrong kinds"
        );
        assert!(GroupAccs::new(&[]).states.fits(&[]));
    }
}
