//! The §5.1 synthetic workload.
//!
//! ```sql
//! SELECT R.pkey, S.pkey, R.pad
//! FROM R, S
//! WHERE R.num1 = S.pkey
//!   AND R.num2 > constant1
//!   AND S.num2 > constant2
//!   AND f(R.num3, S.num3) > constant3
//! ```
//!
//! * `|R| = 10 · |S|`, attributes uniform.
//! * Predicate constants chosen for a target selectivity (default 50 %).
//! * 90 % of R tuples have exactly one matching S tuple; the rest none.
//! * `R.pad` sizes result tuples to 1 KB.
//!
//! Beyond the paper's binary workload, a third table `T(pkey, num2,
//! num3)` extends the schema for multi-way pipelines: `S.num3` joins
//! `T.pkey`, and `t_rows` dials the fraction of S rows with a T partner
//! (`S.num3` is uniform in `0..100`).

use pier_core::expr::{Expr, Func};
use pier_core::plan::{JoinSpec, JoinStage, JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_core::tuple::Tuple;
use pier_core::value::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Knobs of the workload generator.
#[derive(Clone, Copy, Debug)]
pub struct RsParams {
    /// Number of S tuples (R gets 10× this).
    pub s_rows: u64,
    /// Selectivity of `R.num2 > constant1`, in percent.
    pub sel_r_pct: u32,
    /// Selectivity of `S.num2 > constant2`, in percent (the Fig. 4/5
    /// sweep variable).
    pub sel_s_pct: u32,
    /// Selectivity of `f(R.num3, S.num3) > constant3`, in percent.
    pub sel_f_pct: u32,
    /// Fraction of R rows with a matching S row, in percent (paper: 90).
    pub match_pct: u32,
    /// Pad bytes appended to R so result tuples are ~1 KB (paper value).
    pub pad_bytes: u32,
    /// Number of T tuples (third table for multi-way pipelines). T keys
    /// cover `0..t_rows`, so `min(t_rows, 100)` % of S rows join a T row.
    pub t_rows: u64,
    pub seed: u64,
}

impl Default for RsParams {
    fn default() -> Self {
        RsParams {
            s_rows: 100,
            sel_r_pct: 50,
            sel_s_pct: 50,
            sel_f_pct: 50,
            match_pct: 90,
            pad_bytes: 1000,
            t_rows: 60,
            seed: 0xF1E1D,
        }
    }
}

/// Generated tables plus the query that §5 runs over them.
#[derive(Clone, Debug)]
pub struct RsWorkload {
    pub params: RsParams,
    /// `R(pkey, num1, num2, num3, pad)`.
    pub r: Vec<Tuple>,
    /// `S(pkey, num2, num3)`.
    pub s: Vec<Tuple>,
    /// `T(pkey, num2, num3)` — the multi-way extension table.
    pub t: Vec<Tuple>,
}

impl RsWorkload {
    pub fn generate(params: RsParams) -> RsWorkload {
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let n_s = params.s_rows as i64;
        let s: Vec<Tuple> = (0..n_s)
            .map(|k| {
                Tuple::new(vec![
                    Value::I64(k),
                    Value::I64(rng.gen_range(0..100)),
                    Value::I64(rng.gen_range(0..100)),
                ])
            })
            .collect();
        let r: Vec<Tuple> = (0..n_s * 10)
            .map(|k| {
                // 90% match exactly one S.pkey; 10% point past the table.
                let num1 = if rng.gen_range(0..100i64) < params.match_pct as i64 {
                    rng.gen_range(0..n_s)
                } else {
                    n_s + rng.gen_range(0..n_s.max(1))
                };
                Tuple::new(vec![
                    Value::I64(k),
                    Value::I64(num1),
                    Value::I64(rng.gen_range(0..100)),
                    Value::I64(rng.gen_range(0..100)),
                    Value::Pad(params.pad_bytes),
                ])
            })
            .collect();
        // T is generated after R and S so binary-workload bytes are
        // identical per seed whether or not T is used.
        let t: Vec<Tuple> = (0..params.t_rows as i64)
            .map(|k| {
                Tuple::new(vec![
                    Value::I64(k),
                    Value::I64(rng.gen_range(0..100i64)),
                    Value::I64(rng.gen_range(0..100i64)),
                ])
            })
            .collect();
        RsWorkload { params, r, s, t }
    }

    /// Predicate constant for a selectivity in percent over uniform
    /// 0..100 values: `x > c` keeps `100 - c - 1 ... ` — we use
    /// `c = 99 - sel` so that exactly `sel` of the 100 values pass.
    fn cutoff(sel_pct: u32) -> i64 {
        99 - sel_pct.min(100) as i64
    }

    /// The §5.1 join spec under a given strategy.
    pub fn join_spec(&self, strategy: JoinStrategy) -> JoinSpec {
        let p = &self.params;
        let left = ScanSpec::new("R", 5, 0)
            .with_pred(Expr::gt(Expr::col(2), Expr::lit(Self::cutoff(p.sel_r_pct))))
            .with_join_col(1);
        let right = ScanSpec::new("S", 3, 0)
            .with_pred(Expr::gt(Expr::col(1), Expr::lit(Self::cutoff(p.sel_s_pct))))
            .with_join_col(0);
        let mut j = JoinSpec::new(strategy, left, right);
        j.stages[0].stage_pred = Some(Expr::gt(
            Expr::Call(Func::WorkloadF, vec![Expr::col(3), Expr::col(7)]),
            Expr::lit(Self::cutoff(p.sel_f_pct)),
        ));
        // SELECT R.pkey, S.pkey, R.pad
        j.project = vec![Expr::col(0), Expr::col(5), Expr::col(4)];
        // Size the filters for the keys they will summarize (~8 bits per
        // R key); at paper scale this is negligible next to the tables.
        j.bloom_bits = ((self.r.len() as u32) * 8).max(2048);
        j
    }

    fn one_shot(qid: u64, initiator: u32, join: JoinSpec) -> QueryDesc {
        QueryDesc::one_shot(qid, initiator, QueryOp::Join { join, agg: None })
    }

    /// A complete one-shot query descriptor.
    pub fn query(&self, qid: u64, initiator: u32, strategy: JoinStrategy) -> QueryDesc {
        Self::one_shot(qid, initiator, self.join_spec(strategy))
    }

    /// Ground-truth result multiset via the reference evaluator.
    pub fn expected(&self, strategy: JoinStrategy) -> Vec<Tuple> {
        pier_core::semantics::reference_join(&self.join_spec(strategy), &self.r, &self.s)
    }

    /// The 3-way extension of the §5.1 query, as a left-deep pipeline:
    ///
    /// ```sql
    /// SELECT R.pkey, S.pkey, T.pkey, R.pad
    /// FROM R, S, T
    /// WHERE R.num1 = S.pkey AND S.num3 = T.pkey
    ///   AND R.num2 > constant1 AND T.num2 > constant2
    ///   AND f(R.num3, S.num3) > constant3
    /// ```
    pub fn multi_join_spec(&self) -> JoinSpec {
        let p = &self.params;
        let base = ScanSpec::new("R", 5, 0)
            .with_pred(Expr::gt(Expr::col(2), Expr::lit(Self::cutoff(p.sel_r_pct))));
        let s_stage = JoinStage {
            right: ScanSpec::new("S", 3, 0).with_join_col(0),
            left_col: 1, // R.num1
            // f(R.num3, S.num3) > c3 becomes evaluable at this stage.
            stage_pred: Some(Expr::gt(
                Expr::Call(Func::WorkloadF, vec![Expr::col(3), Expr::col(7)]),
                Expr::lit(Self::cutoff(p.sel_f_pct)),
            )),
        };
        let t_stage = JoinStage {
            right: ScanSpec::new("T", 3, 0)
                .with_pred(Expr::gt(Expr::col(1), Expr::lit(Self::cutoff(p.sel_s_pct))))
                .with_join_col(0),
            left_col: 7, // S.num3 within R ++ S
            stage_pred: None,
        };
        let mut m = JoinSpec::pipeline(base, vec![s_stage, t_stage]);
        // SELECT R.pkey, S.pkey, T.pkey, R.pad
        m.project = vec![Expr::col(0), Expr::col(5), Expr::col(8), Expr::col(4)];
        m
    }

    /// A complete one-shot 3-way pipeline query descriptor.
    pub fn multi_query(&self, qid: u64, initiator: u32) -> QueryDesc {
        Self::one_shot(qid, initiator, self.multi_join_spec())
    }

    /// Ground-truth multiset for [`Self::multi_join_spec`].
    pub fn expected_multi(&self) -> Vec<Tuple> {
        pier_core::semantics::reference_multijoin(&self.multi_join_spec(), &self.tables())
    }

    /// The 3-way query with a narrow SELECT — `R.pad` is published with
    /// every R tuple but read by nobody downstream, the projection-
    /// pushdown showcase (`pier_bench pruning`):
    ///
    /// ```sql
    /// SELECT R.pkey, S.pkey, T.pkey FROM R, S, T ...
    /// ```
    pub fn multi_join_spec_narrow(&self) -> JoinSpec {
        let mut m = self.multi_join_spec();
        m.project = vec![Expr::col(0), Expr::col(5), Expr::col(8)];
        m
    }

    /// The 3-way query with a SELECT over every column of R ++ S ++ T:
    /// no column is left to prune, so every edge carries full-width
    /// rows — the byte baseline of `pier_bench pruning`.
    pub fn multi_join_spec_every_column(&self) -> JoinSpec {
        let mut m = self.multi_join_spec();
        m.project = (0..m.arity()).map(Expr::col).collect();
        m
    }

    /// The base tables keyed by name, as the reference evaluator wants.
    pub fn tables(&self) -> std::collections::HashMap<String, Vec<Tuple>> {
        let mut m = std::collections::HashMap::new();
        m.insert("R".to_string(), self.r.clone());
        m.insert("S".to_string(), self.s.clone());
        m.insert("T".to_string(), self.t.clone());
        m
    }

    /// Total wire bytes of the base tables (the paper's "database size").
    pub fn total_bytes(&self) -> u64 {
        let sum = |ts: &[Tuple]| ts.iter().map(|t| t.wire_size() as u64).sum::<u64>();
        sum(&self.r) + sum(&self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_section_5_1() {
        let wl = RsWorkload::generate(RsParams {
            s_rows: 200,
            ..Default::default()
        });
        assert_eq!(wl.s.len(), 200);
        assert_eq!(wl.r.len(), 2000);
        // ~90% of R rows match some S row.
        let matches =
            wl.r.iter()
                .filter(|t| t.get(1).as_i64().unwrap() < 200)
                .count();
        let frac = matches as f64 / 2000.0;
        assert!((frac - 0.9).abs() < 0.05, "match fraction {frac}");
        // R tuples are ~1 KB on the wire.
        assert!(wl.r[0].wire_size() > 1000);
    }

    #[test]
    fn third_table_and_multiway_ground_truth() {
        let wl = RsWorkload::generate(RsParams {
            s_rows: 100,
            t_rows: 60,
            ..Default::default()
        });
        assert_eq!(wl.t.len(), 60);
        // ~60% of S rows have num3 < 60 and thus a T partner.
        let matched =
            wl.s.iter()
                .filter(|t| t.get(2).as_i64().unwrap() < 60)
                .count() as f64
                / wl.s.len() as f64;
        assert!((matched - 0.6).abs() < 0.15, "S→T match fraction {matched}");
        let out = wl.expected_multi();
        assert!(!out.is_empty());
        // Every result row passed all three stages: 4 output columns.
        assert!(out.iter().all(|r| r.arity() == 4));
        // Cross-check the reference pipeline with a manual triple loop.
        let c1 = 99 - wl.params.sel_r_pct as i64;
        let c2 = 99 - wl.params.sel_s_pct as i64;
        let c3 = 99 - wl.params.sel_f_pct as i64;
        let mut manual = 0usize;
        for r in &wl.r {
            if r.get(2).as_i64().unwrap() <= c1 {
                continue;
            }
            for s in &wl.s {
                if r.get(1) != s.get(0) {
                    continue;
                }
                let f = (r.get(3).as_i64().unwrap() + s.get(2).as_i64().unwrap()) % 100;
                if f <= c3 {
                    continue;
                }
                for t in &wl.t {
                    if s.get(2) == t.get(0) && t.get(1).as_i64().unwrap() > c2 {
                        manual += 1;
                    }
                }
            }
        }
        assert_eq!(out.len(), manual);
    }

    #[test]
    fn predicate_selectivities_track_parameters() {
        let wl = RsWorkload::generate(RsParams {
            s_rows: 500,
            sel_r_pct: 30,
            sel_s_pct: 70,
            ..Default::default()
        });
        let j = wl.join_spec(JoinStrategy::SymmetricHash);
        let sel_r =
            wl.r.iter()
                .filter(|t| j.left.pred.as_ref().unwrap().matches(t))
                .count() as f64
                / wl.r.len() as f64;
        let sel_s =
            wl.s.iter()
                .filter(|t| j.stages[0].right.pred.as_ref().unwrap().matches(t))
                .count() as f64
                / wl.s.len() as f64;
        assert!((sel_r - 0.3).abs() < 0.05, "sel_r {sel_r}");
        assert!((sel_s - 0.7).abs() < 0.05, "sel_s {sel_s}");
    }

    #[test]
    fn expected_results_scale_with_selectivity() {
        let lo = RsWorkload::generate(RsParams {
            s_rows: 300,
            sel_s_pct: 10,
            ..Default::default()
        });
        let hi = RsWorkload::generate(RsParams {
            s_rows: 300,
            sel_s_pct: 90,
            seed: RsParams::default().seed,
            ..Default::default()
        });
        let n_lo = lo.expected(JoinStrategy::SymmetricHash).len();
        let n_hi = hi.expected(JoinStrategy::SymmetricHash).len();
        assert!(n_hi > 4 * n_lo, "lo {n_lo} hi {n_hi}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RsWorkload::generate(RsParams::default());
        let b = RsWorkload::generate(RsParams::default());
        assert_eq!(a.r, b.r);
        assert_eq!(a.s, b.s);
        let c = RsWorkload::generate(RsParams {
            seed: 9,
            ..Default::default()
        });
        assert_ne!(a.r, c.r);
    }
}
