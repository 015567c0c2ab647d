//! Schema-aware projection pushdown (the §4.2 byte argument).

use pier_core::plan::{JoinSpec, JoinStrategy};
use pier_simnet::time::Dur;
use pier_simnet::NetConfig;
use pier_workload::RsWorkload;

use super::{params_for_nodes, SEEDS};
use crate::{average, run_multi_join, Artifact, Cell, JoinRun, RunMetrics};

/// The 3-way padded workload (`R` carries a 1 KB pad nobody downstream
/// reads) against the same query reading every column, which leaves
/// nothing to prune and so runs the full-width layout: aggregate rehash
/// traffic must at least halve once intermediates stop carrying the
/// pad. Hard-asserts the win and both queries' results, so the gate
/// fails if the optimization silently regresses.
pub fn pruning() {
    let mut art = Artifact::new("pruning");
    art.meta(
        "query",
        "SELECT R.pkey, S.pkey, T.pkey FROM R, S, T (R carries a 1 KB pad)",
    );
    art.meta(
        "baseline",
        "the same query with SELECT R.*, S.*, T.* (every column, so every edge full-width)",
    );
    art.meta("metric", "aggregate DHT-layer rehash traffic, MB");
    for n in [16usize, 64, 256] {
        let measure = |spec: fn(&RsWorkload) -> JoinSpec| -> Vec<RunMetrics> {
            let run = |&seed: &u64| {
                let mut params = params_for_nodes(n, seed);
                params.t_rows = 80;
                let mut run = JoinRun::new(
                    n,
                    JoinStrategy::SymmetricHash,
                    params,
                    NetConfig::paper_baseline(seed),
                );
                run.settle = Dur::from_secs(600);
                run_multi_join(&run, spec)
            };
            SEEDS.iter().map(run).collect()
        };
        let pruned = measure(RsWorkload::multi_join_spec_narrow);
        let baseline = measure(RsWorkload::multi_join_spec_every_column);
        let p_mb = average(&pruned, |m| m.rehash_mb);
        let b_mb = average(&baseline, |m| m.rehash_mb);
        let p_rec = average(&pruned, |m| m.recall);
        let b_rec = average(&baseline, |m| m.recall);
        art.row([
            ("nodes", n.into()),
            ("pruned_rehash_mb", Cell::f(p_mb, 4)),
            ("unpruned_rehash_mb", Cell::f(b_mb, 4)),
            ("ratio", Cell::f(b_mb / p_mb, 2)),
            ("pruned_recall", Cell::f(p_rec, 4)),
            ("unpruned_recall", Cell::f(b_rec, 4)),
        ]);
        assert!(
            (p_rec - 1.0).abs() < 1e-9 && (b_rec - 1.0).abs() < 1e-9,
            "both queries must return their reference results: recall {p_rec} / {b_rec}"
        );
        assert!(
            2.0 * p_mb <= b_mb,
            "pruning must at least halve rehash traffic: {p_mb:.3} MB vs {b_mb:.3} MB"
        );
    }
    art.emit();
}
