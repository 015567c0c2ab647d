//! Reference (centralized) query evaluation and result-quality metrics.
//!
//! PIER gives best-effort answers under dilated-reachable-snapshot
//! semantics (§3.3.1) and the paper measures quality as *recall* against
//! the reachable snapshot (§5.6). This module computes the ground truth
//! by evaluating the same query descriptor centrally over the published
//! tables, plus multiset recall/precision between expected and actual.
//! Every oracle reads rows where they lie: each input position of a
//! query gets its table's rows once per call, by reference, with that
//! position's scan predicate applied there. A join probes each table
//! through an index built once per evaluation: an index narrows, `==`
//! decides.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;

use pier_simnet::time::{Dur, Time};

use crate::agg::GroupAccs;
use crate::plan::{AggSpec, JoinSpec, PipelineSchema, QueryOp, ScanSpec};
use crate::tuple::Tuple;
use crate::value::{JoinKey, Value};

/// Rows of one table with their publication instants (relative to the
/// query's submission) — the input shape of the windowed and per-epoch
/// oracles.
pub type TimedRows = Vec<(Time, Tuple)>;

/// One input position's rows with their publication instants: the rows
/// of the table it scans that pass its predicate, in table order.
type Timed<'a> = Vec<(Time, &'a Tuple)>;

/// Named base tables, as the oracles read them: a map from table name to
/// rows. An oracle only looks tables up by name, so any such map serves;
/// a caller on an emission path holds a `BTreeMap`.
pub trait Tables<R> {
    /// The rows of table `name`, or none when the set has no such table.
    fn rows(&self, name: &str) -> &[R];
}

impl<R> Tables<R> for BTreeMap<String, Vec<R>> {
    fn rows(&self, name: &str) -> &[R] {
        self.get(name).map_or(&[], Vec::as_slice)
    }
}

impl<R, S: BuildHasher> Tables<R> for HashMap<String, Vec<R>, S> {
    fn rows(&self, name: &str) -> &[R] {
        self.get(name).map_or(&[], Vec::as_slice)
    }
}

/// A row of a table without instants, as published at the start.
fn at_zero(row: &Tuple) -> (Time, &Tuple) {
    (Time::ZERO, row)
}

/// A timed row, borrowed.
fn by_ref((at, row): &(Time, Tuple)) -> (Time, &Tuple) {
    (*at, row)
}

/// The rows of `rows` that pass `scan`'s predicate, by reference, in
/// order: what input position `scan` reads.
fn passing<'a, R>(
    scan: &ScanSpec,
    rows: &'a [R],
    timed: impl Fn(&'a R) -> (Time, &'a Tuple),
) -> Timed<'a> {
    rows.iter()
        .map(timed)
        .filter(|(_, r)| scan.pred.as_ref().is_none_or(|p| p.matches(r)))
        .collect()
}

/// What each input position of `scans` reads from `tables`. Positions
/// are kept apart, not merged by table name, so a table read at two
/// positions under different predicates gives each its own rows.
fn read<'a, 's, R: 'a>(
    scans: impl IntoIterator<Item = &'s ScanSpec>,
    tables: &'a impl Tables<R>,
    timed: impl Fn(&'a R) -> (Time, &'a Tuple) + Copy,
) -> Vec<Timed<'a>> {
    scans
        .into_iter()
        .map(|scan| passing(scan, tables.rows(&scan.table), timed))
        .collect()
}

/// The input positions of a join: pipeline table `t` at position `t`.
fn join_scans(j: &JoinSpec) -> impl Iterator<Item = &ScanSpec> {
    (0..j.n_tables()).map(|t| j.table(t))
}

/// The input positions of a whole query op.
fn op_scans(op: &QueryOp) -> Vec<&ScanSpec> {
    match op {
        QueryOp::Scan { scan, .. } | QueryOp::Agg { scan, .. } => vec![scan],
        QueryOp::Join { join, .. } => join_scans(join).collect(),
    }
}

/// The one centralized join evaluator behind the four join oracles
/// below: left-deep over `rows[t]` (pipeline table `t`'s rows, already
/// past its scan predicate), exactly mirroring the distributed
/// dataflow's concatenation order, predicates, and final projection. An
/// index narrows, `==` decides: each stage's right rows are indexed once,
/// from [`Value::join_key`] to their ascending positions, and a probe
/// visits only the positions under its key, in order, so rows come out
/// as a nested loop would emit them. With a `window`, a result exists iff
/// every constituent was simultaneously inside it, i.e. `max(t) − min(t)
/// < window`: the later arrival probes while the earlier one's rehashed
/// soft state (lifetime = window) is still live, and intermediates
/// inherit the shortest-lived constituent's remaining lifetime, so the
/// pairwise rule composes across stages into exactly this span check.
fn eval_join(j: &JoinSpec, rows: &[Timed], window: Option<Dur>) -> Vec<Tuple> {
    /// Stage `k`'s right rows by join key.
    type Index<'a> = HashMap<JoinKey<'a>, Vec<usize>>;
    /// Extend one accumulated row, whose constituents were published
    /// within `lo..=hi`, through stages `k..`.
    fn extend(
        (j, rows, index, window): (&JoinSpec, &[Timed], &[Index], Option<Dur>),
        k: usize,
        (lo, hi, acc): (Time, Time, &Tuple),
        out: &mut Vec<Tuple>,
    ) {
        let Some(st) = j.stages.get(k) else {
            out.push(Tuple::new(j.project.iter().map(|e| e.eval(acc)).collect()));
            return;
        };
        let jr = st.right.join_col.expect("join col");
        let left = acc.get(st.left_col);
        let Some(hits) = left.join_key().and_then(|key| index[k].get(&key)) else {
            return;
        };
        for &pos in hits {
            let (at, r) = rows[k + 1][pos];
            if left != r.get(jr) {
                continue;
            }
            let (lo, hi) = (lo.min(at), hi.max(at));
            if window.is_some_and(|w| hi.since(lo) >= w) {
                continue; // never co-live inside the window
            }
            let joined = acc.concat(r);
            if st.stage_pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                extend((j, rows, index, window), k + 1, (lo, hi, &joined), out);
            }
        }
    }
    let index: Vec<Index> = j
        .stages
        .iter()
        .zip(&rows[1..])
        .map(|(st, right)| {
            let jr = st.right.join_col.expect("join col");
            let mut by_key = Index::new();
            for (pos, &(_, r)) in right.iter().enumerate() {
                // NaN has no key: it is equal to nothing.
                if let Some(key) = r.get(jr).join_key() {
                    by_key.entry(key).or_default().push(pos);
                }
            }
            by_key
        })
        .collect();
    let mut out = Vec::new();
    for &(at, l) in &rows[0] {
        extend((j, rows, &index, window), 0, (at, at, l), &mut out);
    }
    out
}

/// Centralized evaluation of a two-table join over full tables.
pub fn reference_join(j: &JoinSpec, left: &[Tuple], right: &[Tuple]) -> Vec<Tuple> {
    let rows = [
        passing(j.table(0), left, at_zero),
        passing(j.table(1), right, at_zero),
    ];
    eval_join(j, &rows, None)
}

/// Centralized left-deep evaluation of a join over named base tables.
pub fn reference_multijoin(j: &JoinSpec, tables: &impl Tables<Tuple>) -> Vec<Tuple> {
    eval_join(j, &read(join_scans(j), tables, at_zero), None)
}

/// Centralized evaluation of a continuous *windowed* two-table join: a
/// pair joins iff `|t_left − t_right| < window`.
pub fn reference_windowed_join(
    j: &JoinSpec,
    left: &TimedRows,
    right: &TimedRows,
    window: Dur,
) -> Vec<Tuple> {
    let rows = [
        passing(j.table(0), left, by_ref),
        passing(j.table(1), right, by_ref),
    ];
    eval_join(j, &rows, Some(window))
}

/// Centralized evaluation of a continuous *windowed* join over named
/// base tables.
pub fn reference_windowed_multijoin(
    j: &JoinSpec,
    tables: &impl Tables<(Time, Tuple)>,
    window: Dur,
) -> Vec<Tuple> {
    eval_join(j, &read(join_scans(j), tables, by_ref), Some(window))
}

/// Centralized evaluation of a join *through the pruned dataflow*:
/// tuples are projected onto the same per-edge [`PipelineSchema`] layouts
/// the distributed executor ships, and every predicate and output
/// expression is evaluated in its remapped form. Agreement with
/// [`reference_multijoin`] (which works over full-width concatenations)
/// certifies that projection pushdown preserves the result multiset —
/// the invariant the proptests pin.
pub fn reference_pipeline(j: &JoinSpec, tables: &impl Tables<Tuple>) -> Vec<Tuple> {
    let v = PipelineSchema::new(j).expect("well-formed join spec");
    // Each table's rehash: scan predicate on the full row, then project.
    let shipped = |t: usize| -> Vec<Tuple> {
        let scan = j.table(t);
        tables
            .rows(&scan.table)
            .iter()
            .filter(|r| scan.pred.as_ref().is_none_or(|p| p.matches(r)))
            .map(|r| r.project(v.keep_for_table(t)))
            .collect()
    };
    let mut acc = shipped(0);
    for (k, view) in v.stages.iter().enumerate() {
        let right = shipped(k + 1);
        let mut next = Vec::new();
        for a in &acc {
            for r in &right {
                if a.get(view.join_idx_left) == r.get(view.join_idx_right) {
                    let joined = a.concat(r);
                    if let Some(emit) = view.pass(&joined) {
                        next.push(joined.project(emit));
                    }
                }
            }
        }
        acc = next;
    }
    acc.iter()
        .map(|t| Tuple::new(v.project.iter().map(|e| e.eval(t)).collect()))
        .collect()
}

/// Per-epoch oracle for epoch-driven continuous aggregation: epoch `k`
/// (k = 0, 1, …) reports the query evaluated over every row published
/// at or before `k * epoch` that has not yet aged out of the sliding
/// window (`publish + window > k * epoch`; no window means a running
/// aggregate over everything seen so far). The engine emits epoch `k`'s
/// groups about half an epoch after the boundary, so results bucketed
/// by `floor(arrival / epoch)` line up with this oracle's epochs.
pub fn reference_epochs(
    op: &QueryOp,
    tables: &impl Tables<(Time, Tuple)>,
    window: Option<Dur>,
    epoch: Dur,
    n_epochs: usize,
) -> Vec<Vec<Tuple>> {
    let instants: Vec<Time> = (0..n_epochs)
        .map(|k| Time::ZERO + epoch.saturating_mul(k as u64))
        .collect();
    reference_epochs_at(op, tables, window, &instants)
}

/// [`reference_epochs`] at arbitrary evaluation instants — the oracle of
/// a query that is only *live* for part of a run: pass the epoch
/// boundaries of its own install→uninstall span (row times relative to
/// its install), and nothing past its teardown is ever expected. This
/// is what restricts a multi-tenant workload's ground truth to each
/// standing query's lifetime.
///
/// Each input position reads its rows once per call, past its scan
/// predicate; an instant keeps, by reference and in table order, the
/// ones live at it, and evaluates the op over those. No row is copied,
/// so an instant costs what the op's own output and groups cost.
pub fn reference_epochs_at(
    op: &QueryOp,
    tables: &impl Tables<(Time, Tuple)>,
    window: Option<Dur>,
    instants: &[Time],
) -> Vec<Vec<Tuple>> {
    let inputs = read(op_scans(op), tables, by_ref);
    let mut live: Vec<Timed> = vec![Vec::new(); inputs.len()];
    instants
        .iter()
        .map(|&at| {
            for (live, rows) in live.iter_mut().zip(&inputs) {
                live.clear();
                live.extend(
                    rows.iter()
                        .filter(|(t, _)| *t <= at && window.is_none_or(|w| *t + w > at)),
                );
            }
            eval_op(op, &live)
        })
        .collect()
}

/// Centralized evaluation of grouped aggregation over input rows.
pub fn reference_agg(agg: &AggSpec, rows: &[Tuple]) -> Vec<Tuple> {
    aggregate(agg, rows)
}

/// Grouped aggregation over `rows`, folded in the order given. Groups
/// are keyed as a node keys them (`node::agg`'s `Groups`): by their
/// values in `[Value]`'s order, so numbers `==` across kinds fold into
/// one group, and groups come out in key order. A row's key is written
/// into one scratch buffer and the map probed with it borrowed; only a
/// new group allocates its key.
fn aggregate<'a>(agg: &AggSpec, rows: impl IntoIterator<Item = &'a Tuple>) -> Vec<Tuple> {
    let mut groups: BTreeMap<Vec<Value>, GroupAccs> = BTreeMap::new();
    let mut key: Vec<Value> = Vec::new();
    for row in rows {
        key.clear();
        key.extend(agg.group_cols.iter().map(|&c| row.get(c).clone()));
        match groups.get_mut(key.as_slice()) {
            Some(accs) => accs.update(&agg.aggs, row),
            None => {
                let mut accs = GroupAccs::new(&agg.aggs);
                accs.update(&agg.aggs, row);
                groups.insert(key.clone(), accs);
            }
        }
    }
    let mut out = Vec::new();
    let mut virt = Tuple::new(Vec::new());
    for (key, accs) in &groups {
        accs.output_row(key, &mut virt);
        if agg.having.as_ref().is_none_or(|h| h.matches(&virt)) {
            out.push(Tuple::new(
                agg.output.iter().map(|e| e.eval(&virt)).collect(),
            ));
        }
    }
    out
}

/// The one evaluator of a whole query op, over what each of its input
/// positions reads (`inputs[t]`, past that position's scan predicate):
/// a snapshot, so a join applies no window.
fn eval_op(op: &QueryOp, inputs: &[Timed]) -> Vec<Tuple> {
    match op {
        QueryOp::Scan { project, .. } => inputs[0]
            .iter()
            .map(|&(_, r)| Tuple::new(project.iter().map(|e| e.eval(r)).collect()))
            .collect(),
        QueryOp::Agg { agg, .. } => aggregate(agg, inputs[0].iter().map(|&(_, r)| r)),
        QueryOp::Join { join, agg } => {
            let joined = eval_join(join, inputs, None);
            match agg {
                Some(agg) => aggregate(agg, &joined),
                None => joined,
            }
        }
    }
}

/// Centralized evaluation of a whole query op over named base tables.
pub fn reference_eval(op: &QueryOp, tables: &impl Tables<Tuple>) -> Vec<Tuple> {
    eval_op(op, &read(op_scans(op), tables, at_zero))
}

/// Multiset counts of tuples (display form as key: Values are hashable
/// but a canonical string keeps diagnostics readable).
fn counts(rows: &[Tuple]) -> HashMap<String, usize> {
    let mut m = HashMap::new();
    for r in rows {
        *m.entry(r.to_string()).or_insert(0) += 1;
    }
    m
}

/// Multiset recall: |expected ∩ actual| / |expected| (1.0 when both
/// empty). The paper's quality metric (§2.2a, §5.6).
pub fn recall(expected: &[Tuple], actual: &[Tuple]) -> f64 {
    if expected.is_empty() {
        return 1.0;
    }
    let exp = counts(expected);
    let act = counts(actual);
    let hit: usize = exp
        .iter()
        .map(|(k, &n)| n.min(act.get(k).copied().unwrap_or(0)))
        .sum();
    hit as f64 / expected.len() as f64
}

/// Multiset precision: |expected ∩ actual| / |actual|.
pub fn precision(expected: &[Tuple], actual: &[Tuple]) -> f64 {
    if actual.is_empty() {
        return 1.0;
    }
    let exp = counts(expected);
    let act = counts(actual);
    let hit: usize = act
        .iter()
        .map(|(k, &n)| n.min(exp.get(k).copied().unwrap_or(0)))
        .sum();
    hit as f64 / actual.len() as f64
}

/// Exact multiset equality of result sets (order-insensitive).
pub fn same_multiset(a: &[Tuple], b: &[Tuple]) -> bool {
    a.len() == b.len() && counts(a) == counts(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::{JoinStrategy, ScanSpec};
    use crate::tuple;
    use std::collections::HashMap;

    #[test]
    fn reference_join_applies_all_predicates() {
        let left = ScanSpec::new("L", 2, 0)
            .with_pred(Expr::gt(Expr::col(1), Expr::lit(0i64)))
            .with_join_col(1);
        let right = ScanSpec::new("R", 2, 0).with_join_col(0);
        let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
        j.project = vec![Expr::col(0), Expr::col(3)];
        let l = vec![
            tuple![1i64, 10i64],
            tuple![2i64, -5i64],
            tuple![3i64, 10i64],
        ];
        let r = vec![tuple![10i64, 100i64], tuple![7i64, 200i64]];
        let out = reference_join(&j, &l, &r);
        assert!(same_multiset(
            &out,
            &[tuple![1i64, 100i64], tuple![3i64, 100i64]]
        ));
    }

    #[test]
    fn reference_multijoin_chains_three_tables() {
        use crate::plan::JoinStage;
        // A(k, x) ⨝ B(x, y) on A.x = B.x, then ⨝ C(y, v) on B.y = C.y,
        // with a stage predicate on C.v.
        let base = ScanSpec::new("A", 2, 0);
        let s1 = JoinStage {
            right: ScanSpec::new("B", 2, 0).with_join_col(0),
            left_col: 1,
            stage_pred: None,
        };
        let s2 = JoinStage {
            right: ScanSpec::new("C", 2, 0).with_join_col(0),
            left_col: 3, // B.y within A ++ B
            stage_pred: Some(Expr::gt(Expr::col(5), Expr::lit(10i64))),
        };
        let mut m = JoinSpec::pipeline(base, vec![s1, s2]);
        m.project = vec![Expr::col(0), Expr::col(5)]; // A.k, C.v
        let mut tables = HashMap::new();
        tables.insert(
            "A".to_string(),
            vec![tuple![1i64, 7i64], tuple![2i64, 8i64], tuple![3i64, 7i64]],
        );
        tables.insert(
            "B".to_string(),
            vec![tuple![7i64, 70i64], tuple![8i64, 80i64]],
        );
        tables.insert(
            "C".to_string(),
            vec![tuple![70i64, 100i64], tuple![80i64, 5i64]],
        );
        let out = reference_multijoin(&m, &tables);
        // A(2) joins B(8) joins C(80) but v = 5 fails the stage pred.
        assert!(same_multiset(
            &out,
            &[tuple![1i64, 100i64], tuple![3i64, 100i64]]
        ));
        // And through the QueryOp wrapper.
        let via_op = reference_eval(
            &QueryOp::Join {
                join: m.clone(),
                agg: None,
            },
            &tables,
        );
        assert!(same_multiset(&out, &via_op));
        // The pruned dataflow agrees with the full-width evaluation.
        let pruned = reference_pipeline(&m, &tables);
        assert!(same_multiset(&out, &pruned));
    }

    #[test]
    fn windowed_join_requires_co_live_state() {
        let left = ScanSpec::new("L", 2, 0).with_join_col(1);
        let right = ScanSpec::new("R", 2, 0).with_join_col(1);
        let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
        j.project = vec![Expr::col(0), Expr::col(2)];
        let at = |s: u64| pier_simnet::time::Time(s * 1_000_000);
        let l = vec![(at(0), tuple![1i64, 7i64]), (at(100), tuple![2i64, 7i64])];
        let r = vec![(at(20), tuple![3i64, 7i64]), (at(130), tuple![4i64, 7i64])];
        let w = pier_simnet::time::Dur::from_secs(40);
        let out = reference_windowed_join(&j, &l, &r, w);
        // (1,3): gap 20 < 40 ✓; (1,4): 130 ✗; (2,3): 80 ✗; (2,4): 30 ✓.
        assert!(same_multiset(
            &out,
            &[tuple![1i64, 3i64], tuple![2i64, 4i64]]
        ));
    }

    #[test]
    fn windowed_multijoin_bounds_the_constituent_span() {
        use crate::plan::JoinStage;
        let base = ScanSpec::new("A", 2, 0);
        let s1 = JoinStage {
            right: ScanSpec::new("B", 2, 0).with_join_col(0),
            left_col: 1,
            stage_pred: None,
        };
        let s2 = JoinStage {
            right: ScanSpec::new("C", 2, 0).with_join_col(0),
            left_col: 3,
            stage_pred: None,
        };
        let mut m = JoinSpec::pipeline(base, vec![s1, s2]);
        m.project = vec![Expr::col(0), Expr::col(5)];
        let at = |s: u64| pier_simnet::time::Time(s * 1_000_000);
        let mut tables = HashMap::new();
        tables.insert("A".to_string(), vec![(at(0), tuple![1i64, 7i64])]);
        tables.insert("B".to_string(), vec![(at(30), tuple![7i64, 9i64])]);
        tables.insert(
            "C".to_string(),
            vec![
                (at(50), tuple![9i64, 100i64]),
                (at(70), tuple![9i64, 200i64]),
            ],
        );
        let w = pier_simnet::time::Dur::from_secs(60);
        // A@0, B@30, C@50 span 50 < 60 ✓; with C@70 the span is 70 ✗ —
        // even though B@30 and C@70 pairwise miss co-living with A only.
        let out = reference_windowed_multijoin(&m, &tables, w);
        assert!(same_multiset(&out, &[tuple![1i64, 100i64]]));
    }

    #[test]
    fn epoch_oracle_slides_the_window() {
        use crate::plan::{AggCall, AggFunc};
        let scan = ScanSpec::new("F", 2, 0);
        let agg = AggSpec::new(
            vec![1],
            vec![AggCall {
                func: AggFunc::Count,
                arg: None,
            }],
        );
        let op = QueryOp::Agg { scan, agg };
        let at = |s: u64| pier_simnet::time::Time(s * 1_000_000);
        let mut tables = HashMap::new();
        tables.insert(
            "F".to_string(),
            vec![
                (at(0), tuple![1i64, 5i64]),
                (at(25), tuple![2i64, 5i64]),
                (at(45), tuple![3i64, 5i64]),
            ],
        );
        let e = pier_simnet::time::Dur::from_secs(20);
        let w = pier_simnet::time::Dur::from_secs(50);
        // Epochs at t = 0, 20, 40, 60, 80.
        let per_epoch = reference_epochs(&op, &tables, Some(w), e, 5);
        let counts: Vec<i64> = per_epoch
            .iter()
            .map(|rows| rows.first().map_or(0, |r| r.get(1).as_i64().unwrap()))
            .collect();
        // t=0: {0}; t=20: {0}; t=40: {0,25}; t=60: {25,45} (0 aged out);
        // t=80: {45}.
        assert_eq!(counts, vec![1, 1, 2, 2, 1]);
        // Unwindowed: a running total.
        let running = reference_epochs(&op, &tables, None, e, 5);
        let counts: Vec<i64> = running
            .iter()
            .map(|rows| rows.first().map_or(0, |r| r.get(1).as_i64().unwrap()))
            .collect();
        assert_eq!(counts, vec![1, 1, 2, 3, 3]);
    }

    /// Groups are keyed as a node keys them: numbers `==` across kinds
    /// share a group (under the key the first of its rows brought), and
    /// groups come out in key order.
    #[test]
    fn agg_groups_numbers_equal_across_kinds_together() {
        use crate::plan::{AggCall, AggFunc};
        let agg = AggSpec::new(
            vec![0],
            vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(Expr::col(1)),
                },
            ],
        );
        let rows = [
            tuple![Value::str("a"), 64i64],
            tuple![3i64, 1i64],
            tuple![3.0f64, 2i64],
            tuple![1i64, 4i64],
            tuple![true, 8i64],
            tuple![-0.0f64, 16i64],
            tuple![0i64, 32i64],
        ];
        let out: Vec<String> = reference_agg(&agg, &rows)
            .iter()
            .map(|r| format!("{:?}", r.vals))
            .collect();
        assert_eq!(
            out,
            [
                "[F64(-0.0), I64(2), I64(48)]",
                "[I64(1), I64(2), I64(12)]",
                "[I64(3), I64(2), I64(3)]",
                "[Str(\"a\"), I64(1), I64(64)]",
            ]
        );
    }

    #[test]
    fn recall_and_precision_multiset_semantics() {
        let exp = vec![tuple![1i64], tuple![1i64], tuple![2i64]];
        let act = vec![tuple![1i64], tuple![2i64], tuple![9i64]];
        assert!((recall(&exp, &act) - 2.0 / 3.0).abs() < 1e-9);
        assert!((precision(&exp, &act) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(recall(&[], &act), 1.0);
        assert_eq!(precision(&exp, &[]), 1.0);
    }

    #[test]
    fn same_multiset_detects_duplicates() {
        let a = vec![tuple![1i64], tuple![1i64]];
        let b = vec![tuple![1i64]];
        assert!(!same_multiset(&a, &b));
        let c = vec![tuple![1i64], tuple![1i64]];
        assert!(same_multiset(&a, &c));
    }
}
