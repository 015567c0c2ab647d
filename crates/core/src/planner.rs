//! The declarative top of the stack: SQL in, cost-optimized distributed
//! plan out. Ties together the parser ([`crate::sql`]), the catalog's
//! statistics, and the §5.5.1-based cost model ([`crate::optimizer`]):
//! binary joins get the cheapest of the four §4 strategies for the
//! chosen objective; N-way joins additionally get a greedy cost-based
//! join order ([`crate::optimizer::greedy_join_order`]) before lowering
//! to a left-deep symmetric-hash pipeline. Costing is byte-accurate:
//! the required-columns analysis of the SQL layer combines with the
//! catalog's per-column widths ([`crate::catalog::TableDef::col_widths`])
//! so both the join order and the strategy choice react to *where wide
//! columns get dropped* by projection pushdown.

use crate::catalog::Catalog;
use crate::optimizer::{
    choose_strategy, greedy_join_order, CostParams, JoinStats, Objective, TableCard,
};
use crate::plan::{JoinStrategy, PipelineSchema, QueryOp};
use crate::sql::{lower_parsed, parse_sql, plan_info};

/// Parse `sql` and, for join queries, pick the cheapest strategy (and,
/// for 3+-table queries, the join order) for the objective using catalog
/// statistics and the network cost parameters.
pub fn plan_sql(
    sql: &str,
    catalog: &Catalog,
    net: &CostParams,
    objective: Objective,
) -> Result<QueryOp, String> {
    let parsed = parse_sql(sql, catalog)?;
    if parsed.window.is_some() || parsed.epoch.is_some() || parsed.renew.is_some() {
        // A bare QueryOp has nowhere to carry the window, and an epoch
        // or renewal period only makes sense on a standing descriptor;
        // see `sql::parse_continuous_query` for standing queries.
        return Err(
            "WINDOW/EPOCH/RENEW make a query continuous — use parse_continuous_query".into(),
        );
    }
    let from_order: Vec<usize> = (0..parsed.n_tables()).collect();
    if parsed.n_tables() >= 3 {
        // Greedy cost-based join-order search over catalog cardinalities
        // (pipelines chain symmetric-hash stages; the binary strategy
        // repertoire does not apply). Widths are per-column: a table
        // contributes only its *shipped* columns to intermediates.
        let info = plan_info(&parsed)?;
        let cards: Vec<TableCard> = info
            .table_names
            .iter()
            .zip(&info.has_pred)
            .zip(&info.ship_cols)
            .map(|((name, &has_pred), ship)| {
                let def = catalog
                    .get(name)
                    .ok_or_else(|| format!("no stats for {name}"))?;
                Ok(TableCard {
                    rows: def.stats.rows as f64,
                    bytes: def.stats.avg_tuple_bytes as f64,
                    ship_bytes: def.ship_bytes(ship) as f64,
                    // The classical 1/2 for predicates we cannot derive.
                    sel: if has_pred { 0.5 } else { 1.0 },
                })
            })
            .collect::<Result<_, String>>()?;
        let order = greedy_join_order(&cards, &info.edges);
        return lower_parsed(&parsed, &order, JoinStrategy::SymmetricHash);
    }
    let mut op = lower_parsed(&parsed, &from_order, JoinStrategy::SymmetricHash)?;
    if let QueryOp::Join { join: j, .. } = &mut op {
        let right_scan = &j.stages[0].right;
        let left = catalog
            .get(&j.left.table)
            .ok_or_else(|| format!("no stats for {}", j.left.table))?;
        let right = catalog
            .get(&right_scan.table)
            .ok_or_else(|| format!("no stats for {}", right_scan.table))?;
        // Default selectivity estimate for predicates we cannot derive:
        // the classical 1/2 for range predicates, 1 when absent.
        let sel = |has_pred: bool| if has_pred { 0.5 } else { 1.0 };
        // Byte-accurate widths: rehashes ship the pruned projection the
        // executor will actually use; fetches move full base tuples.
        let schema = PipelineSchema::new(j, true)?;
        let result_cols = &schema.stages[0].out_globals;
        let la = j.left.arity;
        let (res_l, res_r): (Vec<usize>, Vec<usize>) =
            result_cols.iter().copied().partition(|&c| c < la);
        let res_r: Vec<usize> = res_r.into_iter().map(|c| c - la).collect();
        let stats = JoinStats {
            rows_r: left.stats.rows as f64,
            rows_s: right.stats.rows as f64,
            bytes_r: left.stats.avg_tuple_bytes as f64,
            bytes_s: right.stats.avg_tuple_bytes as f64,
            ship_r: left.ship_bytes(&schema.keep_base) as f64,
            ship_s: right.ship_bytes(&schema.stages[0].keep_right) as f64,
            sel_r: sel(j.left.pred.is_some()),
            sel_s: sel(right_scan.pred.is_some()),
            match_r: 0.9,
            bytes_result: (left.ship_bytes(&res_l) + right.ship_bytes(&res_r)) as f64,
            bloom_bytes: (left.stats.rows as f64).max(2048.0),
        };
        // Fetch Matches is only valid when the fetched table is hashed on
        // the join key (resourceID = pkey, §4.1).
        let fm_valid = right_scan.join_col == Some(right_scan.pkey_col);
        j.strategy = choose_strategy(net, &stats, objective);
        if j.strategy == JoinStrategy::FetchMatches && !fm_valid {
            j.strategy = JoinStrategy::SymmetricHash;
        }
    }
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableStats;

    const WORKLOAD_SQL: &str = "SELECT R.pkey, S.pkey, R.pad FROM R, S \
         WHERE R.num1 = S.pkey AND R.num2 > 50 AND S.num2 > 50";

    fn catalog() -> Catalog {
        let mut c = Catalog::workload();
        c.set_stats(
            "R",
            TableStats {
                rows: 100_000,
                avg_tuple_bytes: 1024,
            },
        );
        c.set_stats(
            "S",
            TableStats {
                rows: 10_000,
                avg_tuple_bytes: 100,
            },
        );
        c
    }

    #[test]
    fn latency_objective_picks_symmetric_hash() {
        let op = plan_sql(
            WORKLOAD_SQL,
            &catalog(),
            &CostParams::paper_baseline(1024.0),
            Objective::Latency,
        )
        .unwrap();
        let QueryOp::Join { join: j, .. } = op else {
            panic!()
        };
        assert_eq!(j.strategy, JoinStrategy::SymmetricHash);
    }

    #[test]
    fn traffic_objective_avoids_full_rehash() {
        let op = plan_sql(
            WORKLOAD_SQL,
            &catalog(),
            &CostParams::paper_baseline(1024.0),
            Objective::Traffic,
        )
        .unwrap();
        let QueryOp::Join { join: j, .. } = op else {
            panic!()
        };
        assert_ne!(j.strategy, JoinStrategy::SymmetricHash);
    }

    #[test]
    fn fetch_matches_demoted_when_join_key_is_not_pkey() {
        // Join on S.num2 (not S's pkey): FM would be incorrect, so the
        // planner must not choose it even if the model liked it.
        let sql = "SELECT R.pkey FROM R, S WHERE R.num1 = S.num2";
        for objective in [Objective::Latency, Objective::Traffic] {
            let op = plan_sql(
                sql,
                &catalog(),
                &CostParams::paper_baseline(64.0),
                objective,
            )
            .unwrap();
            let QueryOp::Join { join: j, .. } = op else {
                panic!()
            };
            assert_ne!(j.strategy, JoinStrategy::FetchMatches);
        }
    }

    #[test]
    fn multiway_queries_get_a_cost_based_join_order() {
        // R is huge and wide, S medium, T small: the greedy search must
        // start the pipeline at T and join the expensive R last.
        let mut c = catalog();
        c.set_stats(
            "T",
            TableStats {
                rows: 1000,
                avg_tuple_bytes: 100,
            },
        );
        let op = plan_sql(
            "SELECT R.pkey, T.pkey FROM R, S, T \
             WHERE R.num1 = S.pkey AND S.num3 = T.pkey",
            &c,
            &CostParams::paper_baseline(1024.0),
            Objective::Traffic,
        )
        .unwrap();
        let QueryOp::Join { join: m, .. } = op else {
            panic!()
        };
        assert_eq!(m.left.table, "T");
        assert_eq!(m.stages[0].right.table, "S");
        assert_eq!(m.stages[1].right.table, "R");
        // T.pkey sits at accumulated column 0; R joins S.pkey at
        // accumulated column 3 (T ++ S).
        assert_eq!(m.stages[0].left_col, 0);
        assert_eq!(m.stages[1].left_col, 3);
        // Output columns still follow the SELECT list, not the order.
        assert_eq!(m.project.len(), 2);
    }

    #[test]
    fn plan_sql_rejects_continuous_clauses() {
        // plan_sql returns a bare QueryOp, which cannot carry a window
        // and must not silently wrap an epoch in a one-shot.
        let net = CostParams::paper_baseline(64.0);
        for sql in [
            "SELECT pkey FROM S WINDOW 10 SECONDS",
            "SELECT num2, count(*) FROM S GROUP BY num2 EPOCH 15 SECONDS",
        ] {
            let err = plan_sql(sql, &catalog(), &net, Objective::Latency).unwrap_err();
            assert!(err.contains("parse_continuous_query"), "{err}");
        }
    }

    #[test]
    fn non_join_queries_pass_through() {
        let op = plan_sql(
            "SELECT pkey FROM S WHERE num2 > 10",
            &catalog(),
            &CostParams::paper_baseline(64.0),
            Objective::Latency,
        )
        .unwrap();
        assert!(matches!(op, QueryOp::Scan { .. }));
    }
}
