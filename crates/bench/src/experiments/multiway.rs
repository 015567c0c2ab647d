//! Multi-way join pipelines (§7 "richer queries", built).

use pier_core::plan::JoinStrategy;
use pier_simnet::time::Dur;
use pier_simnet::NetConfig;
use pier_workload::RsWorkload;

use super::{params_for_nodes, SEEDS};
use crate::{average, run_join, run_multi_join, Artifact, Cell, JoinRun, RunMetrics};

/// Binary workload join vs the 3-way pipeline extension across network
/// sizes: time-to-last, aggregate query traffic, and recall. The
/// pipeline pays one extra rehash per added table but stays fully
/// pipelined, so its latency grows by roughly one stage depth, not
/// multiplicatively.
pub fn multiway() {
    let mut art = Artifact::new("multiway");
    for n in [16usize, 64, 256, 1024] {
        let cfg = |seed| {
            let mut params = params_for_nodes(n, seed);
            params.t_rows = 80;
            let mut run = JoinRun::new(
                n,
                JoinStrategy::SymmetricHash,
                params,
                NetConfig::paper_baseline(seed),
            );
            run.settle = Dur::from_secs(600);
            run
        };
        let two: Vec<RunMetrics> = SEEDS.iter().map(|&s| run_join(&cfg(s))).collect();
        let three: Vec<RunMetrics> = SEEDS
            .iter()
            .map(|&s| run_multi_join(&cfg(s), RsWorkload::multi_join_spec))
            .collect();
        art.row([
            ("nodes", n.into()),
            ("2way_t_last_s", Cell::f(average(&two, |m| m.t_last), 2)),
            ("3way_t_last_s", Cell::f(average(&three, |m| m.t_last), 2)),
            (
                "2way_traffic_mb",
                Cell::f(average(&two, |m| m.traffic_mb), 2),
            ),
            (
                "3way_traffic_mb",
                Cell::f(average(&three, |m| m.traffic_mb), 2),
            ),
            ("3way_recall", Cell::f(average(&three, |m| m.recall), 2)),
        ]);
    }
    art.emit();
}
