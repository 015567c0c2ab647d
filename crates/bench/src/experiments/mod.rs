//! The experiments of §5 and this repository's extensions, one function
//! per registry entry; each builds one [`crate::Artifact`] and emits it.

mod ablations;
mod churn_slo;
mod continuous;
mod multitenant;
mod multiway;
mod paper;
mod pruning;
mod scaleup;

pub use paper::deployed_join_run;

use crate::results_dir;
use pier_core::semantics::TimedRows;
use pier_core::Tuple;
use pier_simnet::time::Time;
use pier_workload::RsParams;
use std::collections::BTreeMap;

/// One runnable experiment: `pier_bench <name>` calls `run`, which
/// writes `results/BENCH_<name>.json`.
pub struct Experiment {
    pub name: &'static str,
    pub about: &'static str,
    pub run: fn(),
}

macro_rules! registry {
    ($($module:ident :: $name:ident: $about:literal,)*) => {
        &[$(Experiment { name: stringify!($name), about: $about, run: $module::$name }),*]
    };
}

/// Every experiment `pier_bench` can run, in `pier_bench all` order.
pub const EXPERIMENTS: &[Experiment] = registry![
    paper::centralized: "§5.3 — centralized vs distributed join: inbound load per computation node",
    paper::fig3: "Fig. 3 — scale-up, 2→2 048 nodes: time to 30th tuple, load proportional to nodes",
    paper::table4: "Table 4 — join strategies at infinite bandwidth: measured vs analytical",
    paper::fig4_5: "Fig. 4 + 5 — selectivity sweep: traffic and time to last tuple per strategy",
    paper::fig6: "Fig. 6 — recall under churn per soft-state refresh period",
    paper::fig7: "Fig. 7 — scale-up on the transit-stub topology",
    paper::fig8: "Fig. 8 — the Cluster deployment, 2 to 1 024 nodes (wall-clock, host cells)",
    multiway::multiway: "binary workload join vs its 3-way pipeline extension",
    pruning::pruning: "projection pushdown: rehash traffic, narrow SELECT vs every column (committed)",
    continuous::continuous: "standing 3-way triage over 3+ soft-state horizons (committed)",
    multitenant::multitenant: "1 000 quota-governed standing queries, install to reclaim (committed)",
    churn_slo::churn_slo: "scan recall under scripted kills, replication k = 1..3 (committed)",
    scaleup::scaleup: "engine scale-up to 10^4 nodes, W-sweep bit-identity (committed)",
    ablations::ablation_dims: "CAN dimensionality: hops and time to 30th tuple",
    ablations::chord: "CAN vs Chord under every join strategy (§3.2 portability)",
    ablations::agg: "flat vs hierarchical DHT aggregation",
];

/// The `pier_bench list` text: one line per experiment.
pub fn index() -> String {
    let lines = EXPERIMENTS
        .iter()
        .map(|e| format!("  {:<14} {}", e.name, e.about));
    lines.collect::<Vec<_>>().join("\n")
}

/// Resolves command-line arguments to the experiments to run, in the
/// order given: a registry name, `all` (the registry), or `gated` (the
/// experiments whose artifact is already under `results/` — the
/// committed files are the list). `Err` carries the message to print.
pub fn select<S: AsRef<str>>(args: &[S]) -> Result<Vec<&'static Experiment>, String> {
    let mut chosen = Vec::new();
    for arg in args.iter().map(AsRef::as_ref) {
        match arg {
            "all" => chosen.extend(EXPERIMENTS),
            "gated" => chosen.extend(EXPERIMENTS.iter().filter(|e| {
                let artifact = format!("BENCH_{}.json", e.name);
                results_dir().join(artifact).exists()
            })),
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => chosen.push(e),
                None => return Err(format!("unknown experiment {name:?}; known:\n{}", index())),
            },
        }
    }
    if chosen.is_empty() {
        return Err(format!(
            "usage: pier_bench list | all | gated | <name>...\n{}",
            index()
        ));
    }
    Ok(chosen)
}

/// The workload seeds a multi-seed experiment averages over.
const SEEDS: &[u64] = &[11, 22];

fn params_for_nodes(n: usize, seed: u64) -> RsParams {
    // Load proportional to the network size (each node contributes a
    // fixed amount of source data, as in Fig. 3: ~20 R tuples ≈ 20 KB),
    // with a floor so the 30th-tuple metric is defined at small n.
    RsParams {
        s_rows: (n as u64 * 2).max(40),
        seed,
        ..Default::default()
    }
}

/// The intrusion workload as the table set the `semantics` epoch
/// oracles take: the report stream with its publication instants, the
/// two side tables published at time zero.
fn intrusion_tables(
    reports: TimedRows,
    advisories: &[Tuple],
    reputation: &[Tuple],
) -> BTreeMap<String, TimedRows> {
    let at_zero = |rows: &[Tuple]| rows.iter().map(|r| (Time::ZERO, r.clone())).collect();
    BTreeMap::from([
        ("intrusions".to_string(), reports),
        ("advisories".to_string(), at_zero(advisories)),
        ("reputation".to_string(), at_zero(reputation)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(chosen: impl IntoIterator<Item = &'static Experiment>) -> Vec<&'static str> {
        chosen.into_iter().map(|e| e.name).collect()
    }

    #[test]
    fn registry_names_are_unique() {
        let mut sorted = names(EXPERIMENTS);
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), EXPERIMENTS.len());
    }

    #[test]
    fn select_keeps_argument_order_and_expands_all() {
        let picked = select(&["table4", "chord", "agg"]).unwrap();
        assert_eq!(names(picked), ["table4", "chord", "agg"]);
        let all = select(&["all"]).unwrap();
        assert_eq!(names(all), names(EXPERIMENTS));
    }

    #[test]
    fn select_rejects_unknown_names_and_no_arguments() {
        let err = select(&["fig3", "exp_fig3"]).err().expect("unknown name");
        assert!(
            err.contains("\"exp_fig3\"") && err.contains(&index()),
            "{err}"
        );
        assert!(select::<&str>(&[]).is_err());
    }

    /// `gated` is the registry filtered by the artifacts present, so it
    /// covers every committed one; and no artifact under `results/` is
    /// an orphan that would pass `git diff` forever because nothing
    /// regenerates it.
    #[test]
    fn artifacts_on_disk_and_registry_agree() {
        let gated = names(select(&["gated"]).unwrap());
        for committed in [
            "pruning",
            "continuous",
            "multitenant",
            "churn_slo",
            "scaleup",
        ] {
            assert!(gated.contains(&committed), "{committed} not in {gated:?}");
        }
        for entry in std::fs::read_dir(results_dir()).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            if let Some(name) = file
                .strip_prefix("BENCH_")
                .and_then(|f| f.strip_suffix(".json"))
            {
                assert!(gated.contains(&name), "{file} has no registered experiment");
            }
        }
    }

    #[test]
    fn readme_index_lists_exactly_the_registry() {
        let readme = include_str!("../../../../README.md");
        let listed: Vec<&str> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `pier_bench ")?.split('`').next())
            .collect();
        assert_eq!(listed, names(EXPERIMENTS));
    }
}
