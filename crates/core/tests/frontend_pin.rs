//! Absolute pins of the SQL front end's outputs: for a corpus of
//! queries through the three public entry points (`parse_query`,
//! `parse_continuous_query`, `plan_sql`), the join order, the strategy,
//! the descriptor's wire size, and the length and FNV-1a-64 hash of the
//! lowered operator's `Debug` text — so any change to name binding,
//! conjunct classification, join-order search, strategy choice or
//! expression lowering shows up as a moved line here, not three layers
//! later as a moved `traffic_mb`. A refused query pins its message.
//!
//! The numbers were taken before the front end was rebuilt around one
//! bound query form; every line held across that change without edits.
//! One stretch of the text is left out of the hash: whatever `JoinSpec`
//! prints between `computation_nodes` and `bloom_bits`. At the time of
//! the pin that was a collector timeout no caller ever set, which the
//! same change turned into a constant — leaving it out keeps this file
//! byte-identical (and green) on both sides of the change.
//!
//! The tenant SQL is verbatim from `pier_workload::intrusion` (which
//! depends on this crate, so it cannot be imported here), and the table
//! rates are the ones `pier_bench multitenant` derives from its seed.

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use pier_core::catalog::{Catalog, TableStats};
use pier_core::optimizer::{CostParams, Objective, TableRate};
use pier_core::plan::{JoinStrategy, QueryDesc, QueryOp};
use pier_core::planner::plan_sql;
use pier_core::sql::{parse_continuous_query, parse_query};
use pier_core::tenant::TenantGovernor;

use pin::Fnv;

const SHJ: JoinStrategy = JoinStrategy::SymmetricHash;

/// `tables|strategy|wire_size|debug len|debug hash` of a descriptor.
fn line(desc: &QueryDesc) -> String {
    let (tables, strategy) = match &desc.op {
        QueryOp::Scan { scan, .. } | QueryOp::Agg { scan, .. } => (scan.table.clone(), "-"),
        QueryOp::Join { join, .. } => (
            (0..join.n_tables())
                .map(|t| join.table(t).table.as_str())
                .collect::<Vec<_>>()
                .join(","),
            join.strategy.name(),
        ),
    };
    let mut text = format!("{:?}", desc.op);
    if let Some(at) = text.find("computation_nodes: None, ") {
        let from = at + "computation_nodes: None, ".len();
        let to = from + text[from..].find("bloom_bits: ").unwrap();
        text.replace_range(from..to, "");
    }
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    format!(
        "{tables}|{strategy}|{}|{}|{:016x}",
        desc.wire_size(),
        text.len(),
        h.finish()
    )
}

fn one_shot(planned: Result<QueryOp, String>) -> String {
    match planned {
        Ok(op) => line(&QueryDesc::one_shot(1, 0, op)),
        Err(why) => format!("ERR {why}"),
    }
}

fn standing(sql: &str, catalog: &Catalog) -> String {
    match parse_continuous_query(sql, catalog, SHJ, 1, 0) {
        Ok(desc) => format!(
            "{}|w={:?}|r={:?}",
            line(&desc),
            desc.tenure.window(),
            desc.tenure.renew_every()
        ),
        Err(why) => format!("ERR {why}"),
    }
}

/// Every ordering of three FROM items, as FROM-clause text.
fn from_permutations(items: [&str; 3]) -> Vec<String> {
    [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ]
    .iter()
    .map(|p| p.map(|i| items[i]).join(", "))
    .collect()
}

const WORKLOAD_SQL: &str = "SELECT R.pkey, S.pkey, R.pad FROM R, S \
     WHERE R.num1 = S.pkey AND R.num2 > 50 AND S.num2 > 50 \
     AND f(R.num3, S.num3) > 30";

const WORKLOAD_3WAY_SQL: &str = "SELECT R.pkey, S.pkey, T.pkey FROM R, S, T \
     WHERE R.num1 = S.pkey AND S.num3 = T.pkey \
     AND R.num2 > 50 AND T.num2 > 50 AND f(R.num3, S.num3) > 30";

#[test]
fn workload_query_under_every_strategy() {
    let wl = Catalog::workload();
    let got: Vec<String> = JoinStrategy::ALL
        .into_iter()
        .map(|s| one_shot(parse_query(WORKLOAD_SQL, &wl, s)))
        .collect();
    pin!("workload_query_under_every_strategy", got.join("\n"));
}

#[test]
fn three_table_chain_under_every_from_order() {
    let wl = Catalog::workload();
    let got: Vec<String> = from_permutations(["R", "S", "T"])
        .iter()
        .map(|from| {
            let sql = format!(
                "SELECT R.pkey, S.pkey, T.pkey FROM {from} \
                 WHERE R.num1 = S.pkey AND S.num3 = T.pkey \
                 AND R.num2 > 50 AND T.num2 > 50 AND f(R.num3, S.num3) > 30"
            );
            one_shot(parse_query(&sql, &wl, SHJ))
        })
        .collect();
    pin!("three_table_chain_under_every_from_order", got.join("\n"));
}

#[test]
fn three_table_star_with_aggregation_under_every_from_order() {
    let intr = Catalog::intrusion();
    let got: Vec<String> = from_permutations(["intrusions I", "advisories A", "reputation R"])
        .iter()
        .map(|from| {
            let sql = format!(
                "SELECT I.fingerprint, count(*) AS cnt, max(A.severity) \
                 FROM {from} \
                 WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
                 AND A.severity > 6 AND R.weight > 1 \
                 GROUP BY I.fingerprint HAVING cnt > 2"
            );
            one_shot(parse_query(&sql, &intr, SHJ))
        })
        .collect();
    pin!(
        "three_table_star_with_aggregation_under_every_from_order",
        got.join("\n")
    );
}

#[test]
fn the_three_intrusion_queries() {
    let intr = Catalog::intrusion();
    let got = [
        one_shot(parse_query(
            "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I \
             GROUP BY I.fingerprint HAVING cnt > 10",
            &intr,
            SHJ,
        )),
        one_shot(parse_query(
            "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt \
             FROM intrusions I, reputation R WHERE R.address = I.address \
             GROUP BY I.fingerprint HAVING wcnt > 10",
            &intr,
            SHJ,
        )),
        one_shot(parse_query(
            "SELECT S.source FROM spamGateways AS S, robots AS R \
             WHERE S.smtpGWDomain = R.clientDomain",
            &intr,
            JoinStrategy::SymmetricSemiJoin,
        )),
    ];
    pin!("the_three_intrusion_queries", got.join("\n"));
}

// Verbatim from `pier_workload::intrusion`.

fn triage_standing_sql(window_secs: Option<u64>, epoch_secs: u64) -> String {
    let window = window_secs.map_or(String::new(), |w| format!(" WINDOW {w} SECONDS"));
    format!(
        "SELECT I.address, count(*) AS reports, max(A.severity) AS sev \
         FROM intrusions I, advisories A, reputation R \
         WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
         GROUP BY I.address{window} EPOCH {epoch_secs} SECONDS"
    )
}

fn tenant_count_sql(fp: u64, epoch_secs: u64) -> String {
    format!(
        "SELECT I.address, count(*) AS reports FROM intrusions I \
         WHERE I.fingerprint = 'sig-{fp:04}' \
         GROUP BY I.address EPOCH {epoch_secs} SECONDS"
    )
}

fn tenant_severity_sql(fp: u64, epoch_secs: u64, renew_secs: u64) -> String {
    format!(
        "SELECT I.address, count(*) AS reports, max(A.severity) AS sev \
         FROM intrusions I, advisories A \
         WHERE I.fingerprint = A.fingerprint AND I.fingerprint = 'sig-{fp:04}' \
         GROUP BY I.address EPOCH {epoch_secs} SECONDS RENEW {renew_secs} SECONDS"
    )
}

fn tenant_triage_sql(fp: u64, epoch_secs: u64, renew_secs: u64) -> String {
    format!(
        "SELECT I.address, count(*) AS reports, max(A.severity) AS sev \
         FROM intrusions I, advisories A, reputation R \
         WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
         AND I.fingerprint = 'sig-{fp:04}' \
         GROUP BY I.address EPOCH {epoch_secs} SECONDS RENEW {renew_secs} SECONDS"
    )
}

#[test]
fn standing_tenant_queries() {
    let intr = Catalog::intrusion();
    let got = [
        standing(&tenant_count_sql(3, 30), &intr),
        standing(&tenant_severity_sql(1, 30, 40), &intr),
        standing(&tenant_triage_sql(0, 30, 40), &intr),
        standing(&triage_standing_sql(None, 30), &intr),
        standing(&triage_standing_sql(Some(120), 30), &intr),
    ];
    pin!("standing_tenant_queries", got.join("\n"));
}

/// The three tenant classes priced as `pier_bench multitenant` prices
/// them (seed 7171: one 16-row batch per 30 s epoch, static side
/// tables at a trickle), pinned to the bit.
#[test]
fn tenant_class_prices() {
    let intr = Catalog::intrusion();
    let mut governor = TenantGovernor::new();
    for (table, rows_per_sec, avg_tuple_bytes) in [
        ("intrusions", 16.0 / 30.0, 36.3125),
        ("advisories", 0.05, 24.0),
        ("reputation", 0.05, 24.375),
    ] {
        governor.set_table_rate(
            pier_dht::ns_of(table),
            TableRate {
                rows_per_sec,
                avg_tuple_bytes,
            },
        );
    }
    let price = |sql: String| {
        let desc = parse_continuous_query(&sql, &intr, SHJ, 4000, 0).unwrap();
        format!("{:016x}", governor.price(&desc).to_bits())
    };
    let got = [
        price(tenant_triage_sql(0, 30, 40)),
        price(tenant_severity_sql(1, 30, 40)),
        price(tenant_count_sql(3, 30)),
    ];
    pin!("tenant_class_prices", got.join("\n"));
}

/// R huge and 1 KB wide, S medium, T small — the statistics of
/// `planner::tests::multiway_queries_get_a_cost_based_join_order`.
fn skewed_catalog() -> Catalog {
    let mut c = Catalog::workload();
    for (table, rows, avg_tuple_bytes) in
        [("R", 100_000, 1024), ("S", 10_000, 100), ("T", 1000, 100)]
    {
        c.set_stats(
            table,
            TableStats {
                rows,
                avg_tuple_bytes,
            },
        );
    }
    c
}

#[test]
fn cost_based_plans_under_both_objectives_and_two_catalogs() {
    let net = CostParams::paper_baseline(1024.0);
    let mut got = Vec::new();
    for catalog in [Catalog::workload(), skewed_catalog()] {
        for sql in [WORKLOAD_SQL, WORKLOAD_3WAY_SQL] {
            for objective in [Objective::Latency, Objective::Traffic] {
                got.push(one_shot(plan_sql(sql, &catalog, &net, objective)));
            }
        }
    }
    pin!(
        "cost_based_plans_under_both_objectives_and_two_catalogs",
        got.join("\n")
    );
}
