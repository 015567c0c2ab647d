//! # pier-bench
//!
//! Experiment harness for PIER (Huebsch et al., VLDB 2003): one binary,
//! `pier_bench`, over the registry [`experiments::EXPERIMENTS`], which
//! regenerates every table and figure of the paper's §5 plus this
//! repository's extensions. (Micro-operation timings live in the
//! performance ledger, `benchmark/src/micro.rs`.)
//!
//! `pier_bench list` prints the index (also in the repository
//! `README.md`), `pier_bench <name>…` runs the named experiments in the
//! order given, `pier_bench all` the whole registry, `pier_bench gated`
//! those whose artifact is committed. Each experiment builds one
//! [`Artifact`], which prints a table and writes
//! `results/BENCH_<name>.json`; a committed artifact holds only
//! seed-determined values, so the regression gate is
//! `pier_bench gated && git diff --exit-code -- results/`. There is no
//! switch: each experiment has one parameter set, and that gate re-runs
//! every committed artifact.
//!
//! The building blocks here — [`JoinRun`] describing one distributed
//! join run and [`RunMetrics`] carrying its measured outcomes
//! (time-to-30th-tuple, time-to-last, aggregate and max-inbound query
//! traffic, recall) — are shared by the experiments and reusable from
//! tests.

mod artifact;
pub mod experiments;

pub use artifact::{Artifact, Cell};

use std::path::PathBuf;

use pier_core::plan::{JoinSpec, JoinStrategy, QueryDesc, QueryOp};
use pier_core::semantics::reference_multijoin;
use pier_core::testkit::{
    publish_round_robin, rows_of, run_query, settle_publish, stabilized_pier_sim, time_to_kth,
    time_to_last,
};
use pier_core::PierNode;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::{NetConfig, Sim};
use pier_workload::{RsParams, RsWorkload};

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
    /// Aggregate query traffic in MB (Fig. 4 metric): every byte the
    /// engine delivers once the query is submitted — lookups, rehash and
    /// fetch data, multicasts, result shipping. The network is static,
    /// so no overlay upkeep is among them.
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
    execute_workload_query(cfg, &wl, join, expected)
}

/// Execute a 3-way pipeline over the workload (R ⨝ S ⨝ T as chained
/// symmetric-hash stages) and collect the same metrics, recall against
/// [`reference_multijoin`]. `spec` picks the query:
/// [`RsWorkload::multi_join_spec`], or the `pruning` experiment's narrow
/// SELECT and its every-column baseline. `strategy` and
/// `computation_nodes` of the run config do not apply.
pub fn run_multi_join(cfg: &JoinRun, spec: fn(&RsWorkload) -> JoinSpec) -> RunMetrics {
    let wl = RsWorkload::generate(cfg.params);
    let join = spec(&wl);
    let expected = reference_multijoin(&join, &wl.tables());
    execute_workload_query(cfg, &wl, join, expected)
}

/// Shared measurement core: publish the workload tables the join reads,
/// snapshot the traffic meters, run the join once, and extract the §5
/// metrics.
fn execute_workload_query(
    cfg: &JoinRun,
    wl: &RsWorkload,
    join: JoinSpec,
    expected: Vec<pier_core::Tuple>,
) -> RunMetrics {
    // Every byte the engine delivers after the snapshot is query traffic
    // only while no overlay upkeep runs.
    assert!(!cfg.dht.maintenance, "query traffic needs a static network");
    let mut sim: Sim<PierNode> = stabilized_pier_sim(cfg.n_nodes, cfg.dht.clone(), cfg.net.clone());
    for (name, rows) in [("R", &wl.r), ("S", &wl.s), ("T", &wl.t)] {
        if (0..join.n_tables()).any(|t| join.table(t).table == name) {
            publish_round_robin(&mut sim, name, rows, 0, Dur::from_secs(100_000));
        }
    }
    settle_publish(&mut sim);
    sim.run_for(Dur::from_secs(30));

    // Snapshot traffic after load, before the query.
    let pre_stats = sim.stats();
    let meter_pre: u64 = (0..cfg.n_nodes)
        .map(|i| sim.app(i as u32).unwrap().dht.meter.query_traffic())
        .sum();

    let mut desc = QueryDesc::one_shot(1, 0, QueryOp::Join { join, agg: None });
    desc.n_nodes = cfg.n_nodes as u32;
    let results = run_query(&mut sim, 0, desc, cfg.settle);

    let meter_post: u64 = (0..cfg.n_nodes)
        .map(|i| {
            sim.app(i as u32)
                .map(|n| n.dht.meter.query_traffic())
                .unwrap_or(0)
        })
        .sum();
    let engine = sim.stats().since(&pre_stats);

    let actual = rows_of(&results);
    RunMetrics {
        n_nodes: cfg.n_nodes,
        results: results.len(),
        expected: expected.len(),
        t_30th: time_to_kth(&results, 30).map_or(f64::NAN, |d| d.as_secs_f64()),
        t_last: time_to_last(&results).map_or(f64::NAN, |d| d.as_secs_f64()),
        traffic_mb: engine.bytes as f64 / 1e6,
        rehash_mb: (meter_post - meter_pre) as f64 / 1e6,
        max_inbound_mb: engine.max_inbound() as f64 / 1e6,
        recall: pier_core::semantics::recall(&expected, &actual),
    }
}

/// Average `f` over `items` (seeds, runs, samples), skipping non-finite
/// values; NaN when none is finite.
pub fn average<T: Copy>(items: &[T], f: impl Fn(T) -> f64) -> f64 {
    let vals: Vec<f64> = items
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

/// Where artifacts land: the workspace `results/`.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
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

    /// The committed file format, byte for byte: every cell kind, the
    /// `scaleup` shape (a ladder row and a W-sweep row with different
    /// keys, wall-clock values as host cells) and a row lacking an
    /// optional key. Host cells show in the table and nowhere else.
    #[test]
    fn artifact_renders_the_committed_layout() {
        let mut art = Artifact::new("golden");
        art.meta("workload", format!("{} \"quoted\" shapes", 2));
        art.meta("run_s", Cell::f(1919.6, 0));
        art.meta("host_cores", Cell::from(8usize).host());
        art.row([
            ("nodes", 100usize.into()),
            ("events", 35_111u64.into()),
            ("best_wall_s", Cell::f(0.0061, 3).host()),
            ("recall", Cell::f(1.0, 4)),
        ]);
        art.row([
            ("nodes", 100usize.into()),
            ("w", 2u32.into()),
            ("speedup_vs_seq", Cell::f(1.3456, 3).host()),
            ("identical", true.into()),
        ]);
        for k in [1usize, 2] {
            let slo = (k >= 2).then(|| ("slo_recall", Cell::f(0.98437, 4)));
            let cells = [("tier", "mid".into()), ("k", k.into())].into_iter();
            art.row(cells.chain(slo).chain([("t_30th", Cell::f(f64::NAN, 2))]));
        }
        let json = r#"{
  "experiment": "golden",
  "workload": "2 \"quoted\" shapes",
  "run_s": 1920,
  "rows": [
    {"nodes": 100, "events": 35111, "recall": 1.0000},
    {"nodes": 100, "w": 2, "identical": true},
    {"tier": "mid", "k": 1, "t_30th": null},
    {"tier": "mid", "k": 2, "slo_recall": 0.9844, "t_30th": null}
  ]
}
"#;
        assert_eq!(art.json(), json);
        let table = r#"
== golden ==
workload: 2 \"quoted\" shapes
run_s: 1920
host_cores: 8
nodes  events  best_wall_s  recall  w  speedup_vs_seq  identical  tier  k  t_30th  slo_recall
---------------------------------------------------------------------------------------------
  100   35111        0.006  1.0000  -               -          -     -  -       -           -
  100       -            -       -  2           1.346       true     -  -       -           -
    -       -            -       -  -               -          -   mid  1    null           -
    -       -            -       -  -               -          -   mid  2    null      0.9844
"#;
        assert_eq!(art.table(), table);
    }
}
