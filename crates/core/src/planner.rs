//! The declarative top of the stack: SQL in, cost-optimized distributed
//! plan out. Ties together the bound query ([`crate::sql`]), the
//! catalog's statistics, and the §5.5.1-based cost model
//! ([`crate::optimizer`]): each FROM table becomes one
//! [`TableCard`] — catalog rows and width, the default selectivity of
//! its pushed-down predicate, and the byte-accurate width of the
//! columns the bound query says it ships
//! ([`crate::catalog::TableDef::ship_bytes`]) — so both decisions react
//! to *where wide columns get dropped* by projection pushdown. N-way
//! joins get a greedy cost-based join order
//! ([`crate::optimizer::greedy_join_order`]) before lowering to a
//! left-deep symmetric-hash pipeline; binary joins get the cheapest of
//! the four §4 strategies for the chosen objective.

use crate::catalog::Catalog;
use crate::optimizer::{
    choose_strategy, default_selectivity, greedy_join_order, CostParams, JoinStats, Objective,
    TableCard,
};
use crate::plan::{JoinStrategy, QueryOp};
use crate::sql::{lower_parsed, parse_one_shot};

/// Parse `sql` and, for join queries, pick the cheapest strategy (and,
/// for 3+-table queries, the join order) for the objective using catalog
/// statistics and the network cost parameters.
pub fn plan_sql(
    sql: &str,
    catalog: &Catalog,
    net: &CostParams,
    objective: Objective,
) -> Result<QueryOp, String> {
    let parsed = parse_one_shot(sql, catalog)?;
    let cards: Vec<TableCard> = parsed
        .tables
        .iter()
        .zip(parsed.shipped_cols(true))
        .map(|(t, ship)| TableCard {
            rows: t.def.stats.rows as f64,
            bytes: t.def.stats.avg_tuple_bytes as f64,
            ship_bytes: t.def.ship_bytes(&ship) as f64,
            sel: default_selectivity(t.has_pred()),
        })
        .collect();
    // Greedy cost-based join-order search (FROM order for up to two
    // tables; longer pipelines chain symmetric-hash stages, so the
    // binary strategy repertoire does not apply to them).
    let order = greedy_join_order(&cards, &parsed.join_edges());
    let mut op = lower_parsed(&parsed, &order, JoinStrategy::SymmetricHash)?;
    let QueryOp::Join { join: j, .. } = &mut op else {
        return Ok(op);
    };
    if let [left, right] = &cards[..] {
        // A result carries what the output reads of each side; filters
        // are sized for the left table's keys.
        let out = parsed.shipped_cols(false);
        let out_bytes = |t: usize| parsed.tables[t].def.ship_bytes(&out[t]) as f64;
        let mut stats = JoinStats::stage(left, right);
        stats.bytes_result = out_bytes(0) + out_bytes(1);
        stats.bloom_bytes = left.rows.max(2048.0);
        j.strategy = choose_strategy(net, &stats, objective);
        // Fetch Matches is only valid when the fetched table is hashed on
        // the join key (resourceID = pkey, §4.1).
        let fetched = &j.stages[0].right;
        if j.strategy == JoinStrategy::FetchMatches && fetched.join_col != Some(fetched.pkey_col) {
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
