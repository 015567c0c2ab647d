//! # pier-bench
//!
//! Experiment harness for PIER (Huebsch et al., VLDB 2003): shared
//! infrastructure for the binaries under `src/bin/` that regenerate
//! every table and figure of the paper's §5. (Micro-operation timings
//! live in the performance ledger, `benchmark/src/micro.rs`.)
//!
//! Each `exp_*` binary wraps one function of [`experiments`], prints a
//! human-readable table, and writes CSV under `results/`; the
//! experiment-binary index lives in the repository `README.md`. Run
//! parameters default to minutes-scale networks; [`full_scale`]
//! (`PIER_FULL=1`) switches to paper-scale ones.
//!
//! The building blocks here — [`JoinRun`] describing one distributed
//! join run and [`RunMetrics`] carrying its measured outcomes
//! (time-to-30th-tuple, time-to-last, aggregate and max-inbound query
//! traffic, recall) — are shared by the experiments and reusable from
//! tests.

pub mod gate;

use std::fmt::Write as _;
use std::path::PathBuf;

use pier_core::plan::{JoinStrategy, QueryDesc, QueryOp};
use pier_core::testkit::{
    publish_round_robin, rows_of, run_query, settle_publish, stabilized_pier_sim, time_to_kth,
    time_to_last,
};
use pier_core::PierNode;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::{NetConfig, Sim};
use pier_workload::{RsParams, RsWorkload};

/// Scale of an experiment run. `PIER_FULL=1` selects paper-scale
/// parameters; the default keeps every binary under a few minutes.
pub fn full_scale() -> bool {
    std::env::var("PIER_FULL").is_ok_and(|v| v == "1")
}

/// Metrics from one distributed join run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMetrics {
    pub n_nodes: usize,
    pub results: usize,
    pub expected: usize,
    /// Seconds to the 30th result tuple (Fig. 3/7/8 metric).
    pub t_30th: f64,
    /// Seconds to the last result tuple (Table 4 / Fig. 5 metric).
    pub t_last: f64,
    /// Aggregate query traffic in MB (Fig. 4 metric): lookups, rehash
    /// and fetch data, multicasts — overlay upkeep excluded.
    pub traffic_mb: f64,
    /// DHT-layer query traffic only (rehash puts, stage republishes,
    /// lookups, fetches) — the direct result-delivery bytes excluded,
    /// so projection-pushdown savings are visible even when the final
    /// ship dominates.
    pub rehash_mb: f64,
    /// Maximum inbound bytes at any single node, MB.
    pub max_inbound_mb: f64,
    pub recall: f64,
}

/// Configuration of one join experiment run.
#[derive(Clone)]
pub struct JoinRun {
    pub n_nodes: usize,
    pub strategy: JoinStrategy,
    pub params: RsParams,
    pub net: NetConfig,
    pub computation_nodes: Option<u32>,
    /// Virtual time to let the query run.
    pub settle: Dur,
    pub dht: DhtConfig,
}

impl JoinRun {
    pub fn new(n_nodes: usize, strategy: JoinStrategy, params: RsParams, net: NetConfig) -> Self {
        JoinRun {
            n_nodes,
            strategy,
            params,
            net,
            computation_nodes: None,
            settle: Dur::from_secs(400),
            dht: DhtConfig::static_network(),
        }
    }
}

/// Execute the §5.1 workload join once and collect the §5 metrics.
pub fn run_join(cfg: &JoinRun) -> RunMetrics {
    let wl = RsWorkload::generate(cfg.params);
    let expected = wl.expected(cfg.strategy);
    let mut join = wl.join_spec(cfg.strategy);
    join.computation_nodes = cfg.computation_nodes;
    execute_workload_query(
        cfg,
        &wl,
        QueryOp::Join { join, agg: None },
        expected,
        false,
        true,
    )
}

/// Execute the 3-way pipeline extension of the workload (R ⨝ S ⨝ T as
/// chained symmetric-hash stages) and collect the same metrics.
/// `strategy` and `computation_nodes` of the run config do not apply.
pub fn run_multi_join(cfg: &JoinRun) -> RunMetrics {
    let wl = RsWorkload::generate(cfg.params);
    let expected = wl.expected_multi();
    let op = QueryOp::Join {
        join: wl.multi_join_spec(),
        agg: None,
    };
    execute_workload_query(cfg, &wl, op, expected, true, true)
}

/// Execute the narrow-SELECT 3-way pipeline (`R.pad` published but read
/// by nobody downstream) with schema-aware pruning on or off — the
/// `exp_pruning` measurement core.
pub fn run_multi_join_pruning(cfg: &JoinRun, prune: bool) -> RunMetrics {
    let wl = RsWorkload::generate(cfg.params);
    let expected = wl.expected_multi_narrow();
    let op = QueryOp::Join {
        join: wl.multi_join_spec_narrow(),
        agg: None,
    };
    execute_workload_query(cfg, &wl, op, expected, true, prune)
}

/// Shared measurement core: publish the workload tables, snapshot the
/// traffic meters, run one query, and extract the §5 metrics.
fn execute_workload_query(
    cfg: &JoinRun,
    wl: &RsWorkload,
    op: QueryOp,
    expected: Vec<pier_core::Tuple>,
    with_t: bool,
    prune: bool,
) -> RunMetrics {
    let mut sim: Sim<PierNode> = stabilized_pier_sim(cfg.n_nodes, cfg.dht.clone(), cfg.net.clone());
    publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
    if with_t {
        publish_round_robin(&mut sim, "T", &wl.t, 0, Dur::from_secs(100_000));
    }
    settle_publish(&mut sim);
    sim.run_for(Dur::from_secs(30));

    // Snapshot traffic after load, before the query.
    let pre_stats = sim.stats();
    let meter_pre: u64 = (0..cfg.n_nodes)
        .map(|i| sim.app(i as u32).unwrap().dht.meter.query_traffic())
        .sum();

    let mut desc = QueryDesc::one_shot(1, 0, op).with_prune(prune);
    desc.n_nodes = cfg.n_nodes as u32;
    let results = run_query(&mut sim, 0, desc, cfg.settle);

    let meter_post: u64 = (0..cfg.n_nodes)
        .map(|i| {
            sim.app(i as u32)
                .map(|n| n.dht.meter.query_traffic())
                .unwrap_or(0)
        })
        .sum();
    // Query traffic = DHT-layer query bytes + direct result bytes.
    let engine = sim.stats().since(&pre_stats);
    let result_bytes: u64 = results
        .iter()
        .map(|(_, r)| (pier_dht::msg::HEADER_BYTES + 8 + r.wire_size()) as u64)
        .sum();
    let traffic = (meter_post - meter_pre) + result_bytes;

    let actual = rows_of(&results);
    RunMetrics {
        n_nodes: cfg.n_nodes,
        results: results.len(),
        expected: expected.len(),
        t_30th: time_to_kth(&results, 30).map_or(f64::NAN, |d| d.as_secs_f64()),
        t_last: time_to_last(&results).map_or(f64::NAN, |d| d.as_secs_f64()),
        traffic_mb: traffic as f64 / 1e6,
        rehash_mb: (meter_post - meter_pre) as f64 / 1e6,
        max_inbound_mb: engine.max_inbound() as f64 / 1e6,
        recall: pier_core::semantics::recall(&expected, &actual),
    }
}

/// Average a metric extractor over several seeds.
pub fn average<F: Fn(u64) -> f64>(seeds: &[u64], f: F) -> f64 {
    let vals: Vec<f64> = seeds
        .iter()
        .map(|&s| f(s))
        .filter(|v| v.is_finite())
        .collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// A simple results table: header + rows, printed aligned and saved as
/// CSV under `results/<name>.csv`.
pub struct ResultTable {
    pub name: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    pub fn new(name: &str, header: &[&str]) -> Self {
        ResultTable {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    pub fn fmt_cell(v: f64) -> String {
        if v.is_nan() {
            "-".to_string()
        } else if v >= 100.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.2}")
        }
    }

    /// Print to stdout and write `results/<name>.csv`.
    pub fn emit(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        println!("\n== {} ==\n{out}", self.name);

        let dir = results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let mut csv = self.header.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let _ = std::fs::write(dir.join(format!("{}.csv", self.name)), csv);
    }
}

/// Where experiment outputs land (workspace `results/`).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results")
}

/// Paper-style label for a strategy (figure legends).
pub fn strategy_label(s: JoinStrategy) -> &'static str {
    match s {
        JoinStrategy::SymmetricHash => "Sym. Hash Join",
        JoinStrategy::FetchMatches => "Fetch Matches",
        JoinStrategy::SymmetricSemiJoin => "Sym. Semi-Join",
        JoinStrategy::BloomFilter => "Bloom Filter",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_run_produces_finite_metrics() {
        let params = RsParams {
            s_rows: 12,
            ..Default::default()
        };
        let run = JoinRun::new(
            8,
            JoinStrategy::SymmetricHash,
            params,
            NetConfig::latency_only(1),
        );
        let m = run_join(&run);
        assert!(m.results > 0);
        assert!((m.recall - 1.0).abs() < 1e-9, "recall {}", m.recall);
        assert!(m.t_last > 0.0);
        assert!(m.traffic_mb > 0.0);
    }

    #[test]
    fn deployed_join_runs_on_both_backends() {
        use experiments::deployed_join_run;
        let cfg = DhtConfig::static_network;
        let sim = stabilized_pier_sim(8, cfg(), NetConfig::latency_only(77));
        let cluster = pier_core::testkit::stabilized_pier_cluster(8, cfg(), 77);
        let (_, on_sim) = deployed_join_run(sim, Dur::from_secs(1));
        let (_, on_cluster) = deployed_join_run(cluster, Dur::from_millis(50));
        // Same workload, same oracle: the backends agree on the answer.
        assert!(on_sim > 0);
        assert_eq!(on_sim, on_cluster);
    }

    #[test]
    fn average_skips_nan() {
        let avg = average(&[1, 2, 3], |s| if s == 2 { f64::NAN } else { s as f64 });
        assert!((avg - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table_formatting_and_csv() {
        let mut t = ResultTable::new("unit_test_table", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.emit();
        let csv = std::fs::read_to_string(results_dir().join("unit_test_table.csv")).unwrap();
        assert!(csv.starts_with("a,b\n1,2"));
    }
}
pub mod experiments;
