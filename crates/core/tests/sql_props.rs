//! The SQL front end, by search: random well-formed 1-, 2- and 3-table
//! queries over the workload catalog — random SELECT subsets (incl.
//! `*`), aliases, scalar and aggregate calls, single-table / equality /
//! residual conjuncts, optional GROUP BY and HAVING-by-alias — must
//! mean the same thing however they are ordered:
//!
//! * every FROM-clause permutation the front end accepts evaluates to
//!   the same multiset under [`reference_eval`] (a permutation may only
//!   be refused as a cross product);
//! * so does the join order `plan_sql` chooses, under random catalog
//!   statistics and both objectives;
//! * every descriptor the front end emits passes the whole-descriptor
//!   certificate a node demands at install ([`QueryDesc::check`]);
//! * and no input — accepted or refused, down to token soup — panics
//!   `parse_query`, `parse_continuous_query` or `plan_sql`.

use std::collections::HashMap;

use pier_core::catalog::{Catalog, TableStats};
use pier_core::optimizer::{CostParams, Objective};
use pier_core::plan::{JoinStrategy, QueryDesc, QueryOp, Tenure};
use pier_core::planner::plan_sql;
use pier_core::semantics::{reference_eval, same_multiset};
use pier_core::sql::{parse_continuous_query, parse_query};
use pier_core::tuple::Tuple;
use pier_core::value::Value;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SHJ: JoinStrategy = JoinStrategy::SymmetricHash;

/// The workload tables and their integer columns (`R.pad` aside).
const TABLES: [(&str, &[&str]); 3] = [
    ("R", &["pkey", "num1", "num2", "num3"]),
    ("S", &["pkey", "num2", "num3"]),
    ("T", &["pkey", "num2", "num3"]),
];

/// Small tables over narrow domains, so joins match and groups repeat.
fn tables(rng: &mut SmallRng) -> HashMap<String, Vec<Tuple>> {
    let mut out = HashMap::new();
    for (name, cols) in TABLES {
        let rows = (0..rng.gen_range(4..16i64))
            .map(|pkey| {
                let mut vals = vec![Value::I64(pkey)];
                vals.extend((1..cols.len()).map(|_| Value::I64(rng.gen_range(0..6))));
                if name == "R" {
                    vals.push(Value::Pad(8));
                }
                Tuple::new(vals)
            })
            .collect();
        out.insert(name.to_string(), rows);
    }
    out
}

fn pick<'a>(rng: &mut SmallRng, of: &[&'a str]) -> &'a str {
    of[rng.gen_range(0..of.len())]
}

/// A generated query, its FROM items kept apart so they can be
/// permuted.
struct Query {
    select: String,
    from: Vec<String>,
    /// WHERE … GROUP BY … HAVING …
    tail: String,
}

impl Query {
    fn sql(&self, order: &[usize]) -> String {
        let from: Vec<&str> = order.iter().map(|&i| self.from[i].as_str()).collect();
        format!(
            "SELECT {} FROM {}{}",
            self.select,
            from.join(", "),
            self.tail
        )
    }
}

/// A random well-formed query whose join graph is connected in
/// generation order (table i joins some table before it).
fn random_query(rng: &mut SmallRng) -> Query {
    let n = rng.gen_range(1..4usize);
    let mut which = [0, 1, 2];
    for i in (1..3).rev() {
        which.swap(i, rng.gen_range(0..i + 1));
    }
    // Each table is referred to by its alias if it has one — or, now
    // and then, by its own name all the same.
    let mut from = Vec::new();
    let mut names: Vec<(Vec<&str>, &[&str])> = Vec::new();
    for (i, &t) in which[..n].iter().enumerate() {
        let (table, cols) = TABLES[t];
        let alias = ["a", "b", "c"][i];
        match rng.gen_range(0..3) {
            0 => {
                from.push(table.to_string());
                names.push((vec![table], cols));
            }
            k => {
                let spelled = if k == 1 { " AS " } else { " " };
                from.push(format!("{table}{spelled}{alias}"));
                names.push((vec![alias, alias, table], cols));
            }
        }
    }
    let col_of = |rng: &mut SmallRng, t: usize| {
        let (quals, cols) = &names[t];
        let col = pick(rng, cols);
        // `num1` is R's alone, so with R present it needs no qualifier.
        if col == "num1" && rng.gen_range(0..2) == 0 {
            col.to_string()
        } else {
            format!("{}.{col}", pick(rng, quals))
        }
    };
    let col = |rng: &mut SmallRng| {
        let t = rng.gen_range(0..n);
        col_of(rng, t)
    };

    // WHERE: the connecting equalities, then a random mix.
    let mut conjuncts = Vec::new();
    for t in 1..n {
        let earlier = rng.gen_range(0..t);
        let (l, r) = (col_of(rng, t), col_of(rng, earlier));
        conjuncts.push(if rng.gen_range(0..2) == 0 {
            format!("{l} = {r}")
        } else {
            format!("{r} = {l}")
        });
    }
    for _ in 0..rng.gen_range(0..4) {
        let k = rng.gen_range(0..5);
        let (x, y) = (col(rng), col(rng));
        conjuncts.push(match rng.gen_range(0..8) {
            0 => format!("{x} > {k}"),
            1 => format!("{x} - 3 >= -{k}"),
            2 => format!("NOT {x} = {k}"),
            3 => format!("({x} < {k} OR {y} > 2)"),
            4 => format!("f({x}, {y}) > {k}"),
            5 => format!("{x} + {y} <> {k} * 2"),
            6 => format!("{x} = {y}"),
            _ => "1 = 1".to_string(),
        });
    }
    for i in (1..conjuncts.len()).rev() {
        conjuncts.swap(i, rng.gen_range(0..i + 1));
    }
    let mut tail = String::new();
    if !conjuncts.is_empty() {
        tail = format!(" WHERE {}", conjuncts.join(" AND "));
    }

    let select = match rng.gen_range(0..5) {
        0 => "*".to_string(),
        1 | 2 => {
            let items: Vec<String> = (0..rng.gen_range(1..5))
                .map(|i| {
                    let (x, y) = (col(rng), col(rng));
                    let item = match rng.gen_range(0..6) {
                        0 | 1 => x,
                        2 => format!("{x} + {}", rng.gen_range(0..9)),
                        3 => format!("abs({x} - 3)"),
                        4 => format!("f({x}, {y})"),
                        _ => format!("-{x} * least({y}, 2)"),
                    };
                    match rng.gen_range(0..3) {
                        0 => format!("{item} AS x{i}"),
                        _ => item,
                    }
                })
                .collect();
            items.join(", ")
        }
        _ => {
            let groups: Vec<String> = (0..rng.gen_range(0..3)).map(|_| col(rng)).collect();
            let mut items = groups.clone();
            let mut aliases = Vec::new();
            for i in 0..rng.gen_range(1..4) {
                let x = col(rng);
                let call = match rng.gen_range(0..6) {
                    0 => "count(*)".to_string(),
                    1 => format!("sum({x})"),
                    2 => format!("min({x} + 1)"),
                    3 => format!("max({x})"),
                    4 => format!("avg({x})"),
                    _ => format!("count(*) * sum({x})"),
                };
                if rng.gen_range(0..2) == 0 {
                    aliases.push(format!("agg{i}"));
                    items.push(format!("{call} AS agg{i}"));
                } else {
                    items.push(call);
                }
            }
            if !groups.is_empty() {
                tail += &format!(" GROUP BY {}", groups.join(", "));
            }
            let k = rng.gen_range(0..4);
            match (rng.gen_range(0..3), aliases.first()) {
                (0, Some(alias)) => tail += &format!(" HAVING {alias} > {k}"),
                (1, _) => tail += &format!(" HAVING count(*) > {k}"),
                _ => {}
            }
            items.join(", ")
        }
    };
    Query { select, from, tail }
}

/// Every permutation of `0..n` (n ≤ 3), identity first.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    match n {
        1 => vec![vec![0]],
        2 => vec![vec![0, 1], vec![1, 0]],
        _ => vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ],
    }
}

fn certified(op: &QueryOp) -> Result<(), &'static str> {
    QueryDesc::one_shot(1, 0, op.clone()).check()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn every_accepted_order_means_the_same(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = tables(&mut rng);
        let q = random_query(&mut rng);
        let mut catalog = Catalog::workload();
        let orders = permutations(q.from.len());
        let written = q.sql(&orders[0]);
        let op = parse_query(&written, &catalog, SHJ)
            .unwrap_or_else(|e| panic!("seed {seed}: {written}: {e}"));
        prop_assert_eq!(certified(&op), Ok(()), "seed {}: {}", seed, written);
        let baseline = reference_eval(&op, &data);
        // `*` expands in FROM order: under a permuted FROM clause its
        // rows compare as bags of values.
        let unordered = |mut rows: Vec<Tuple>| {
            if q.select == "*" {
                for row in &mut rows {
                    row.vals.sort_by_key(Value::to_string);
                }
            }
            rows
        };
        let permutable = unordered(baseline.clone());

        // (a) Every FROM-clause permutation: the same multiset, or a
        // refused cross product.
        for order in &orders[1..] {
            let sql = q.sql(order);
            match parse_query(&sql, &catalog, SHJ) {
                Ok(op) => {
                    prop_assert_eq!(certified(&op), Ok(()), "seed {}: {}", seed, sql);
                    let got = unordered(reference_eval(&op, &data));
                    prop_assert!(
                        same_multiset(&permutable, &got),
                        "seed {}: {}\n{} rows, but {} as written:\n{}",
                        seed, sql, got.len(), baseline.len(), written
                    );
                }
                Err(why) => prop_assert!(
                    why.contains("cross products"), "seed {}: {}: {}", seed, sql, why
                ),
            }
        }

        // Two tables: any strategy lowers to the same answer, Fetch
        // Matches only on the fetched table's key.
        if q.from.len() == 2 {
            for strategy in JoinStrategy::ALL {
                match parse_query(&written, &catalog, strategy) {
                    Ok(op) => {
                        prop_assert_eq!(certified(&op), Ok(()));
                        prop_assert!(same_multiset(&baseline, &reference_eval(&op, &data)));
                    }
                    Err(why) => prop_assert!(
                        strategy == JoinStrategy::FetchMatches && why.contains("Fetch Matches"),
                        "seed {}: {}: {}", seed, written, why
                    ),
                }
            }
        }

        // (b) The planner's choice, under random statistics.
        for (table, _) in TABLES {
            let stats = TableStats {
                rows: 1 << rng.gen_range(0..20u32),
                avg_tuple_bytes: rng.gen_range(20..2000),
            };
            catalog.set_stats(table, stats);
        }
        let net = CostParams::paper_baseline(1024.0);
        for objective in [Objective::Latency, Objective::Traffic] {
            let op = plan_sql(&written, &catalog, &net, objective)
                .unwrap_or_else(|e| panic!("seed {seed}: {written}: {e}"));
            prop_assert_eq!(certified(&op), Ok(()), "seed {}: {}", seed, written);
            prop_assert!(
                same_multiset(&baseline, &reference_eval(&op, &data)),
                "seed {}: planned {}", seed, written
            );
        }
    }

    /// Standing clauses on a well-formed query: accepted descriptors are
    /// certified, and the one-shot entry points refuse exactly the
    /// queries that carry one.
    #[test]
    fn standing_clauses_bind_or_are_refused(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let q = random_query(&mut rng);
        let catalog = Catalog::workload();
        let order: Vec<usize> = (0..q.from.len()).collect();
        let mut sql = q.sql(&order);
        let mut standing = false;
        for clause in ["WINDOW", "EPOCH", "RENEW"] {
            if rng.gen_range(0..3) == 0 {
                standing = true;
                let n = rng.gen_range(0..90);
                let unit = pick(&mut rng, &["", " SECONDS", " MS", " MINUTES"]);
                sql += &format!(" {clause} {n}{unit}");
            }
        }
        if let Ok(desc) = parse_continuous_query(&sql, &catalog, SHJ, 7, 0) {
            prop_assert_eq!(desc.check(), Ok(()), "seed {}: {}", seed, sql);
            prop_assert_ne!(desc.tenure, Tenure::OneShot);
        }
        let net = CostParams::paper_baseline(64.0);
        prop_assert_eq!(parse_query(&sql, &catalog, SHJ).is_err(), standing);
        prop_assert_eq!(plan_sql(&sql, &catalog, &net, Objective::Traffic).is_err(), standing);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// (d) Token soup, and well-formed queries with tokens dropped,
    /// doubled or swapped: whatever the verdict, nobody panics, and
    /// whatever is accepted is certified.
    #[test]
    fn no_input_panics_the_front_end(seed in any::<u64>()) {
        const WORDS: [&str; 48] = [
            "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "AND", "OR", "NOT", "AS",
            "WINDOW", "EPOCH", "RENEW", "SECONDS", "MS", "R", "S", "T", "a", "pkey", "num1",
            "num2", "num3", "pad", "count", "sum", "max", "avg", "f", "abs", "nosuch", "(", ")",
            ",", ".", "*", "+", "-", "/", "%", "=", "<>", "<=", "!=", "7", "0", "2.5", "'sig'",
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut toks: Vec<String> = if rng.gen_range(0..2) == 0 {
            (0..rng.gen_range(0..24)).map(|_| pick(&mut rng, &WORDS).to_string()).collect()
        } else {
            let q = random_query(&mut rng);
            let order: Vec<usize> = (0..q.from.len()).collect();
            let spaced = q.sql(&order).replace('(', " ( ").replace(')', " ) ").replace(',', " , ");
            spaced.split_whitespace().map(str::to_string).collect()
        };
        for _ in 0..rng.gen_range(0..4) {
            if toks.is_empty() {
                break;
            }
            let (at, other) = (rng.gen_range(0..toks.len()), rng.gen_range(0..toks.len()));
            match rng.gen_range(0..4) {
                0 => drop(toks.remove(at)),
                1 => toks.insert(at, toks[at].clone()),
                2 => toks.swap(at, other),
                _ => toks[at] = pick(&mut rng, &["'", "é", "99999999999999999999", "1.2.3", ";"]).to_string(),
            }
        }
        let sql = toks.join(" ");
        let catalog = Catalog::workload();
        let net = CostParams::paper_baseline(64.0);
        let strategy = JoinStrategy::ALL[rng.gen_range(0..4usize)];
        let planned = [
            parse_query(&sql, &catalog, strategy),
            plan_sql(&sql, &catalog, &net, Objective::Latency),
            parse_continuous_query(&sql, &catalog, strategy, 1, 0).map(|desc| desc.op),
        ];
        for op in planned.into_iter().flatten() {
            prop_assert_eq!(certified(&op), Ok(()), "seed {}: {}", seed, sql);
        }
    }
}
