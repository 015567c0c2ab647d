//! Schema-aware projection pushdown (the §4.2 byte argument).

use pier_core::plan::JoinStrategy;
use pier_simnet::time::Dur;
use pier_simnet::NetConfig;

use super::{params_for_nodes, seeds};
use crate::{average, full_scale, run_multi_join_pruning, Artifact, Cell, JoinRun, RunMetrics};

/// The 3-way padded workload (`R` carries a 1 KB pad nobody downstream
/// reads) with schema-aware pruning on vs off: aggregate rehash traffic
/// must collapse once intermediates stop carrying the pad. Hard-asserts
/// the win and unchanged results, so the gate fails if the optimization
/// silently regresses.
pub fn pruning() {
    let node_counts: Vec<usize> = if full_scale() {
        vec![16, 64, 256]
    } else {
        vec![8, 16]
    };
    let mut art = Artifact::new("pruning");
    art.meta(
        "query",
        "SELECT R.pkey, S.pkey, T.pkey FROM R, S, T (R carries a 1 KB pad)",
    );
    art.meta("metric", "aggregate DHT-layer rehash traffic, MB");
    for &n in &node_counts {
        let measure = |prune: bool| -> Vec<RunMetrics> {
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
                run_multi_join_pruning(&run, prune)
            };
            seeds().iter().map(run).collect()
        };
        let (pruned, unpruned) = (measure(true), measure(false));
        let p_mb = average(&pruned, |m| m.rehash_mb);
        let u_mb = average(&unpruned, |m| m.rehash_mb);
        let p_rec = average(&pruned, |m| m.recall);
        let u_rec = average(&unpruned, |m| m.recall);
        art.row([
            ("nodes", n.into()),
            ("pruned_rehash_mb", Cell::f(p_mb, 4)),
            ("unpruned_rehash_mb", Cell::f(u_mb, 4)),
            ("ratio", Cell::f(u_mb / p_mb, 2)),
            ("pruned_recall", Cell::f(p_rec, 4)),
            ("unpruned_recall", Cell::f(u_rec, 4)),
        ]);
        assert!(
            (p_rec - 1.0).abs() < 1e-9 && (u_rec - 1.0).abs() < 1e-9,
            "pruning must not change results: recall {p_rec} / {u_rec}"
        );
        assert!(
            p_mb < u_mb,
            "pruned rehash traffic ({p_mb:.3} MB) must beat unpruned ({u_mb:.3} MB)"
        );
    }
    art.emit();
}
