//! Projection-pushdown properties: for random SELECT / WHERE column
//! subsets over 2- and 3-way queries, the schema-aware (pruned)
//! dataflow must produce exactly the multiset the full-width reference
//! evaluation produces — centrally (many random cases through
//! [`reference_pipeline`]) and end-to-end on simulated overlays (a
//! smaller sample), and the no-churn recall bound of
//! `tests/strategy_churn.rs` (recall = precision = 1) must hold under
//! pruning.

use std::collections::HashMap;

use pier_core::expr::Expr;
use pier_core::plan::{
    JoinSpec, JoinStage, JoinStrategy, PipelineSchema, QueryDesc, QueryOp, ScanSpec,
};
use pier_core::semantics::{
    precision, recall, reference_eval, reference_multijoin, reference_pipeline, same_multiset,
};
use pier_core::testkit::*;
use pier_core::tuple::Tuple;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::NetConfig;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Three small base tables A(0..3), B(3..6), C(6..9), integer-valued
/// with narrow domains so joins actually match.
fn tables(rng: &mut SmallRng) -> HashMap<String, Vec<Tuple>> {
    let mut out = HashMap::new();
    for name in ["A", "B", "C"] {
        let rows: Vec<Tuple> = (0..rng.gen_range(4..14i64))
            .map(|_| {
                Tuple::new(
                    (0..3)
                        .map(|_| pier_core::value::Value::I64(rng.gen_range(0..6)))
                        .collect(),
                )
            })
            .collect();
        out.insert(name.to_string(), rows);
    }
    out
}

/// A random 3-way spec over A ⨝ B ⨝ C: random join columns, a random
/// optional predicate at each stage, and a random SELECT subset.
fn random_spec(rng: &mut SmallRng) -> JoinSpec {
    let mut base = ScanSpec::new("A", 3, 0);
    if rng.gen_range(0..2) == 1 {
        base = base.with_pred(Expr::gt(
            Expr::col(rng.gen_range(0..3)),
            Expr::lit(rng.gen_range(0..4i64)),
        ));
    }
    let s1 = JoinStage {
        right: ScanSpec::new("B", 3, 0).with_join_col(rng.gen_range(0..3)),
        left_col: rng.gen_range(0..3),
        stage_pred: (rng.gen_range(0..2) == 1).then(|| {
            Expr::gt(
                Expr::col(rng.gen_range(0..6)),
                Expr::lit(rng.gen_range(0..4i64)),
            )
        }),
    };
    let s2 = JoinStage {
        right: ScanSpec::new("C", 3, 0).with_join_col(rng.gen_range(0..3)),
        left_col: rng.gen_range(0..6),
        stage_pred: (rng.gen_range(0..2) == 1).then(|| {
            Expr::gt(
                Expr::col(rng.gen_range(0..9)),
                Expr::lit(rng.gen_range(0..4i64)),
            )
        }),
    };
    let mut m = JoinSpec::pipeline(base, vec![s1, s2]);
    // Random non-empty SELECT column subset (duplicates allowed).
    let n_sel = rng.gen_range(1..5usize);
    m.project = (0..n_sel).map(|_| Expr::col(rng.gen_range(0..9))).collect();
    m
}

/// A random binary symmetric-hash join A ⨝ B: random join columns, a
/// random optional stage predicate, and a random SELECT subset.
fn random_binary(rng: &mut SmallRng) -> JoinSpec {
    let left = ScanSpec::new("A", 3, 0).with_join_col(rng.gen_range(0..3));
    let right = ScanSpec::new("B", 3, 0).with_join_col(rng.gen_range(0..3));
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    if rng.gen_range(0..2) == 1 {
        j.stages[0].stage_pred = Some(Expr::gt(
            Expr::col(rng.gen_range(0..6)),
            Expr::lit(rng.gen_range(0..4i64)),
        ));
    }
    j.project = (0..rng.gen_range(1..4usize))
        .map(|_| Expr::col(rng.gen_range(0..6)))
        .collect();
    j
}

/// The all-columns model of a join's layout: `keep_base`, then each
/// stage's `keep_right` and `emit`, with every column on every edge.
type Layout = (Vec<usize>, Vec<(Vec<usize>, Vec<usize>)>);

fn full_width(j: &JoinSpec) -> Layout {
    let stages = (0..j.stages.len())
        .map(|k| {
            let keep_right = (0..j.stages[k].right.arity).collect();
            (keep_right, (0..j.arity_after(k)).collect())
        })
        .collect();
    ((0..j.left.arity).collect(), stages)
}

fn layout(v: &PipelineSchema) -> Layout {
    let stages = v.stages.iter();
    let stages = stages.map(|st| (st.keep_right.clone(), st.emit.clone()));
    (v.keep_base.clone(), stages.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The pruned dataflow is result-equivalent to the full-width
    /// reference for arbitrary SELECT/WHERE subsets of a 3-way join.
    #[test]
    fn pruned_pipeline_matches_full_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tabs = tables(&mut rng);
        let m = random_spec(&mut rng);
        let full = reference_multijoin(&m, &tabs);
        let pruned = reference_pipeline(&m, &tabs);
        prop_assert!(
            same_multiset(&full, &pruned),
            "seed {}: full {} vs pruned {}", seed, full.len(), pruned.len()
        );
    }

    /// Binary joins: the one-stage schema evaluates every expression
    /// identically on pruned and full layouts.
    #[test]
    fn pruned_binary_join_matches_full_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tabs = tables(&mut rng);
        let j = random_binary(&mut rng);
        let full = pier_core::semantics::reference_join(&j, &tabs["A"], &tabs["B"]);
        // Walk the pruned dataflow centrally.
        let v = PipelineSchema::new(&j).unwrap();
        let st = &v.stages[0];
        let mut pruned = Vec::new();
        for a in &tabs["A"] {
            let ap = a.project(&v.keep_base);
            for b in &tabs["B"] {
                if ap.get(st.join_idx_left) != b.get(j.stages[0].right.join_col.unwrap()) {
                    continue;
                }
                let joined = ap.concat(&b.project(&st.keep_right));
                if st.pred.as_ref().is_none_or(|p| p.matches(&joined)) {
                    let out = joined.project(&st.emit);
                    pruned.push(Tuple::new(
                        v.project.iter().map(|e| e.eval(&out)).collect(),
                    ));
                }
            }
        }
        prop_assert!(same_multiset(&full, &pruned));
    }

    /// A SELECT that reads every column leaves nothing to prune: a
    /// random 2- or 3-way spec so projected compiles to the full-width
    /// layout, every column on every edge.
    #[test]
    fn every_column_select_gets_the_full_width_layout(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut j = if rng.gen_range(0..2) == 1 {
            random_binary(&mut rng)
        } else {
            random_spec(&mut rng)
        };
        j.project = (0..j.arity()).map(Expr::col).collect();
        let v = PipelineSchema::new(&j).unwrap();
        prop_assert_eq!(layout(&v), full_width(&j), "seed {}", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// End-to-end: random 2- and 3-way queries with random SELECT/WHERE
    /// subsets, executed on a simulated overlay with pruning on, are
    /// multiset-equal to the centralized reference, and the no-churn
    /// recall/precision bounds (cf. `tests/strategy_churn.rs`) hold.
    #[test]
    fn distributed_pruned_results_match_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tabs = tables(&mut rng);
        let op = if rng.gen_range(0..2) == 1 {
            // 2-way: a random binary symmetric-hash join.
            let left = ScanSpec::new("A", 3, 0).with_join_col(rng.gen_range(0..3));
            let right = ScanSpec::new("B", 3, 0).with_join_col(rng.gen_range(0..3));
            let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
            j.project = (0..rng.gen_range(1..4usize))
                .map(|_| Expr::col(rng.gen_range(0..6)))
                .collect();
            QueryOp::Join { join: j, agg: None }
        } else {
            QueryOp::Join { join: random_spec(&mut rng), agg: None }
        };
        let expected = reference_eval(&op, &tabs);

        let mut sim = stabilized_pier_sim(
            8,
            DhtConfig::static_network(),
            NetConfig::latency_only(seed),
        );
        let life = Dur::from_secs(100_000);
        for name in ["A", "B", "C"] {
            publish_round_robin(&mut sim, name, &tabs[name], 0, life);
        }
        settle_publish(&mut sim);
        let desc = QueryDesc::one_shot(1, 0, op);
        let results = rows_of(&run_query(&mut sim, 0, desc, Dur::from_secs(90)));
        prop_assert!(
            same_multiset(&expected, &results),
            "seed {}: expected {} got {}", seed, expected.len(), results.len()
        );
        prop_assert!((recall(&expected, &results) - 1.0).abs() < 1e-9);
        prop_assert!((precision(&expected, &results) - 1.0).abs() < 1e-9);
    }
}
