//! Bench-trajectory gate: compare freshly produced `results/BENCH_*.json`
//! artifacts against the committed baselines and fail on a >15%
//! regression in any experiment's headline metric — or on any change at
//! all in a simulated outcome that must repeat bit-for-bit ([`EXACT`])
//! — so the trajectory recorded in `results/` cannot silently decay.
//!
//! The artifacts are hand-formatted JSON written by the `exp_*` bins;
//! rather than pull in a JSON dependency (the container is offline), the
//! gate extracts `"key": <value>` pairs textually — exactly the shape
//! those writers emit — and aggregates them per metric.

use std::fmt::Write as _;
use std::path::Path;

/// Which direction is an improvement for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How multiple per-row samples of a metric fold into one headline value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    Min,
    Mean,
    Sum,
}

/// One headline metric of one experiment artifact.
#[derive(Clone, Copy, Debug)]
pub struct Headline {
    /// `BENCH_<experiment>.json` this metric lives in.
    pub experiment: &'static str,
    /// JSON key extracted from the artifact's rows.
    pub key: &'static str,
    pub fold: Fold,
    pub better: Better,
}

/// Maximum tolerated headline regression: 15%.
pub const TOLERANCE: f64 = 0.15;

/// The headline metric(s) per experiment: traffic must not grow, and
/// recall/ratio must not shrink, by more than [`TOLERANCE`].
pub const HEADLINES: &[Headline] = &[
    Headline {
        experiment: "pruning",
        key: "ratio",
        fold: Fold::Mean,
        better: Better::Higher,
    },
    Headline {
        experiment: "pruning",
        key: "pruned_rehash_mb",
        fold: Fold::Sum,
        better: Better::Lower,
    },
    Headline {
        experiment: "continuous",
        key: "recall",
        fold: Fold::Min,
        better: Better::Higher,
    },
    Headline {
        experiment: "continuous",
        key: "epoch_mb",
        fold: Fold::Sum,
        better: Better::Lower,
    },
    Headline {
        experiment: "multitenant",
        key: "min_recall",
        fold: Fold::Min,
        better: Better::Higher,
    },
    Headline {
        experiment: "multitenant",
        key: "traffic_mb",
        fold: Fold::Sum,
        better: Better::Lower,
    },
    // multitenant fairness: the worst per-tenant live-span recall under
    // quota governance (admission control + token-bucket shedding). A
    // starved co-tenant sinks this below 1.0 — the regression the
    // backpressure layer exists to prevent. (`extract` keys on the
    // leading quote, so this never collides with the per-class
    // `min_recall` rows.)
    Headline {
        experiment: "multitenant",
        key: "fairness_min_recall",
        fold: Fold::Min,
        better: Better::Higher,
    },
    // churn_slo: the replicated (k ≥ 2) recall frontier under scripted
    // churn must not sink, and scans must stay duplicate-free. The
    // artifact carries `slo_recall` only in k ≥ 2 rows, so the Min fold
    // tracks the SLO surface without the k = 1 baseline dragging it down.
    Headline {
        experiment: "churn_slo",
        key: "slo_recall",
        fold: Fold::Min,
        better: Better::Higher,
    },
    Headline {
        experiment: "churn_slo",
        key: "duplicates",
        fold: Fold::Sum,
        better: Better::Lower,
    },
];

/// `(experiment, key)` pairs gated exact-equal, row for row. These are
/// simulated outcomes — functions of the seed alone, identical on every
/// host — so any difference is a behaviour change, not noise. `scaleup`
/// is gated *only* here: its `events_per_sec{,_sharded}` columns are
/// wall-clock on whatever host runs them (same-code spread measured at
/// 31 % on the CI class of machine, twice the 15 % tolerance), so they
/// are printed and recorded but not compared.
pub const EXACT: &[(&str, &str)] = &[
    ("scaleup", "events"),
    ("scaleup", "results"),
    ("scaleup", "identical"),
];

/// Every `"key": <value>` occurrence in the artifact text, as written
/// (a number or a bare word, up to the next `,` or `}`).
pub fn extract_raw<'j>(json: &'j str, key: &str) -> Vec<&'j str> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        out.push(rest[..end].trim());
    }
    out
}

/// Every `"key": <number>` occurrence in the artifact text.
pub fn extract(json: &str, key: &str) -> Vec<f64> {
    extract_raw(json, key)
        .into_iter()
        .filter_map(|v| v.parse().ok())
        .collect()
}

fn fold(vals: &[f64], how: Fold) -> Option<f64> {
    if vals.is_empty() {
        return None;
    }
    Some(match how {
        Fold::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
        Fold::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
        Fold::Sum => vals.iter().sum(),
    })
}

/// Compare one experiment artifact pair against every headline that
/// applies to it. Returns human-readable verdict lines; `Err` lines are
/// regressions beyond [`TOLERANCE`] or broken [`EXACT`] equalities.
pub fn compare(experiment: &str, baseline: &str, fresh: &str) -> Result<Vec<String>, Vec<String>> {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    let registered = HEADLINES.iter().map(|h| h.experiment);
    if !registered
        .chain(EXACT.iter().map(|e| e.0))
        .any(|e| e == experiment)
    {
        // An artifact nobody registered a headline for would otherwise
        // pass silently — the exact decay this gate exists to prevent.
        return Err(vec![format!(
            "FAIL {experiment}: no headline metrics registered in gate::HEADLINES \
             for this BENCH artifact"
        )]);
    }
    for h in HEADLINES.iter().filter(|h| h.experiment == experiment) {
        let (Some(old), Some(new)) = (
            fold(&extract(baseline, h.key), h.fold),
            fold(&extract(fresh, h.key), h.fold),
        ) else {
            failures.push(format!(
                "{experiment}: headline '{}' missing from baseline or fresh artifact",
                h.key
            ));
            continue;
        };
        let ok = match h.better {
            // A zero baseline cannot shrink below tolerance; any finite
            // growth over a zero baseline is treated as within bounds
            // only when the absolute value stays negligible.
            Better::Higher => new >= old * (1.0 - TOLERANCE),
            Better::Lower => new <= old * (1.0 + TOLERANCE) || new - old < 1e-9,
        };
        let line = format!(
            "{experiment}.{} ({:?}, {:?} is better): baseline {old:.4} -> fresh {new:.4}",
            h.key, h.fold, h.better
        );
        if ok {
            report.push(format!("OK   {line}"));
        } else {
            failures.push(format!(
                "FAIL {line} (>{:.0}% regression)",
                TOLERANCE * 100.0
            ));
        }
    }
    for (_, key) in EXACT.iter().filter(|e| e.0 == experiment) {
        let (old, new) = (extract_raw(baseline, key), extract_raw(fresh, key));
        // An exact key absent from the baseline gates nothing: a failure.
        if !old.is_empty() && old == new {
            let rows = old.len();
            report.push(format!(
                "OK   {experiment}.{key} (exact): {rows} rows equal"
            ));
        } else {
            failures.push(format!(
                "FAIL {experiment}.{key} (exact): baseline {old:?} -> fresh {new:?}"
            ));
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        failures.extend(report);
        Err(failures)
    }
}

/// Gate a whole results directory: every committed `BENCH_*.json` in
/// `baseline_dir` must have a fresh counterpart in `fresh_dir` whose
/// headline metrics have not regressed. Returns the full report, or the
/// failure lines.
pub fn check_dirs(baseline_dir: &Path, fresh_dir: &Path) -> Result<String, String> {
    let mut report = String::new();
    let mut failed = false;
    let mut entries: Vec<_> = std::fs::read_dir(baseline_dir)
        .map_err(|e| format!("read {}: {e}", baseline_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines under {}",
            baseline_dir.display()
        ));
    }
    for name in entries {
        let experiment = name
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let old = std::fs::read_to_string(baseline_dir.join(&name))
            .map_err(|e| format!("read baseline {name}: {e}"))?;
        let fresh_path = fresh_dir.join(&name);
        let new = match std::fs::read_to_string(&fresh_path) {
            Ok(s) => s,
            Err(e) => {
                failed = true;
                let _ = writeln!(report, "FAIL {experiment}: fresh artifact missing ({e})");
                continue;
            }
        };
        match compare(&experiment, &old, &new) {
            Ok(lines) => {
                for l in lines {
                    let _ = writeln!(report, "{l}");
                }
            }
            Err(lines) => {
                failed = true;
                for l in lines {
                    let _ = writeln!(report, "{l}");
                }
            }
        }
    }
    if failed {
        Err(report)
    } else {
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn continuous_artifact(recall: f64, mb: f64) -> String {
        format!(
            "{{\n  \"experiment\": \"continuous\",\n  \"rows\": [\n    \
             {{\"epoch\": 0, \"recall\": {recall:.4}, \"precision\": 1.0, \"epoch_mb\": {mb:.4}}},\n    \
             {{\"epoch\": 1, \"recall\": 1.0000, \"precision\": 1.0, \"epoch_mb\": {mb:.4}}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn extract_reads_every_occurrence() {
        let j = continuous_artifact(0.98, 1.5);
        assert_eq!(extract(&j, "recall"), vec![0.98, 1.0]);
        assert_eq!(extract(&j, "epoch_mb"), vec![1.5, 1.5]);
        assert!(extract(&j, "absent").is_empty());
    }

    #[test]
    fn unchanged_artifacts_pass() {
        let j = continuous_artifact(1.0, 2.0);
        assert!(compare("continuous", &j, &j).is_ok());
    }

    #[test]
    fn injected_traffic_regression_fails_the_gate() {
        // +20% traffic (> the 15% tolerance) must fail…
        let old = continuous_artifact(1.0, 2.0);
        let worse = continuous_artifact(1.0, 2.4);
        let err = compare("continuous", &old, &worse).unwrap_err();
        assert!(
            err.iter()
                .any(|l| l.contains("FAIL") && l.contains("epoch_mb")),
            "{err:?}"
        );
        // …while +10% stays within bounds.
        let slightly = continuous_artifact(1.0, 2.2);
        assert!(compare("continuous", &old, &slightly).is_ok());
    }

    #[test]
    fn injected_recall_regression_fails_the_gate() {
        let old = continuous_artifact(1.0, 2.0);
        let worse = continuous_artifact(0.80, 2.0);
        let err = compare("continuous", &old, &worse).unwrap_err();
        assert!(err.iter().any(|l| l.contains("recall")), "{err:?}");
    }

    #[test]
    fn missing_headline_is_a_failure() {
        let old = continuous_artifact(1.0, 2.0);
        assert!(compare("continuous", &old, "{}").is_err());
    }

    #[test]
    fn unregistered_experiment_is_a_failure() {
        // A new BENCH_*.json with no HEADLINES entry must not pass
        // silently.
        let j = "{\"experiment\": \"newexp\", \"rows\": [{\"metric\": 1.0}]}";
        let err = compare("newexp", j, j).unwrap_err();
        assert!(err[0].contains("no headline metrics"), "{err:?}");
    }

    fn multitenant_artifact(fairness: f64, class_recall: f64) -> String {
        format!(
            "{{\"experiment\": \"multitenant\", \"traffic_mb\": 35.0,\n  \
             \"fairness_min_recall\": {fairness:.4},\n  \"rows\": [\n    \
             {{\"class\": \"flat\", \"tenants\": 438, \"min_recall\": {class_recall:.4}, \
             \"min_precision\": 1.0}}\n]}}"
        )
    }

    #[test]
    fn multitenant_starvation_regression_fails_the_gate() {
        let old = multitenant_artifact(1.0, 1.0);
        // The fairness key folds alone: the per-class `min_recall` rows
        // must not leak into it (nor vice versa).
        assert_eq!(extract(&old, "fairness_min_recall"), vec![1.0]);
        assert_eq!(extract(&old, "min_recall"), vec![1.0]);
        // A starved co-tenant (fairness sunk, per-class rows intact)
        // fails on exactly the fairness headline.
        let starved = multitenant_artifact(0.60, 1.0);
        let err = compare("multitenant", &old, &starved).unwrap_err();
        assert!(
            err.iter()
                .any(|l| l.contains("FAIL") && l.contains("fairness_min_recall")),
            "{err:?}"
        );
        assert!(
            err.iter()
                .any(|l| l.contains("OK") && l.contains("multitenant.min_recall")),
            "per-class headline must still pass: {err:?}"
        );
        assert!(compare("multitenant", &old, &old).is_ok());
    }

    fn churn_artifact(k2_recall: f64, dups: usize) -> String {
        format!(
            "{{\"experiment\": \"churn_slo\", \"rows\": [\n  \
             {{\"tier\": \"mid\", \"kills\": 4, \"k\": 1, \"recall\": 0.9167, \"duplicates\": 0}},\n  \
             {{\"tier\": \"mid\", \"kills\": 4, \"k\": 2, \"recall\": {k2_recall:.4}, \
             \"slo_recall\": {k2_recall:.4}, \"duplicates\": {dups}}}\n]}}"
        )
    }

    #[test]
    fn churn_slo_recall_regression_fails_the_gate() {
        let old = churn_artifact(1.0, 0);
        // The k = 1 baseline row must not leak into the slo_recall fold…
        assert_eq!(extract(&old, "slo_recall"), vec![1.0]);
        // …and a sunk k ≥ 2 frontier fails.
        let worse = churn_artifact(0.80, 0);
        let err = compare("churn_slo", &old, &worse).unwrap_err();
        assert!(
            err.iter()
                .any(|l| l.contains("FAIL") && l.contains("slo_recall")),
            "{err:?}"
        );
        assert!(compare("churn_slo", &old, &old).is_ok());
    }

    #[test]
    fn churn_slo_duplicates_over_zero_baseline_fail() {
        // Any duplicate over a zero baseline is a regression (the
        // Better::Lower zero-baseline branch tolerates only < 1e-9).
        let old = churn_artifact(1.0, 0);
        let dup = churn_artifact(1.0, 2);
        let err = compare("churn_slo", &old, &dup).unwrap_err();
        assert!(
            err.iter()
                .any(|l| l.contains("FAIL") && l.contains("duplicates")),
            "{err:?}"
        );
    }

    /// The scale-up artifact with host-dependent throughput scaled by
    /// `speed`, and the simulated outcomes of its 10^4-node rows as given.
    fn scaleup_artifact(speed: f64, events: u64, results: u64, identical: bool) -> String {
        format!(
            "{{\"experiment\": \"scaleup\", \"rows\": [\n  \
             {{\"nodes\": 100, \"events\": 60000, \"wall_s\": 0.050, \
             \"events_per_sec\": {:.0}, \"results\": 40, \"recall\": 1.0000}},\n  \
             {{\"nodes\": 10000, \"events\": {events}, \"wall_s\": 5.000, \
             \"events_per_sec\": {:.0}, \"results\": {results}, \"recall\": 1.0000}},\n  \
             {{\"nodes\": 10000, \"w\": 4, \"events\": {events}, \
             \"events_per_sec_sharded\": {:.0}, \"identical\": {identical}}}\n]}}",
            1_200_000.0 * speed,
            1_000_000.0 * speed,
            2_500_000.0 * speed
        )
    }

    #[test]
    fn scaleup_is_gated_exactly_and_not_on_wall_clock() {
        let old = scaleup_artifact(1.0, 6_000_000, 1000, true);
        assert_eq!(extract_raw(&old, "identical"), vec!["true"]);
        assert_eq!(extract_raw(&old, "results"), vec!["40", "1000"]);
        // Host speed is not a regression: half the throughput passes…
        let report = compare(
            "scaleup",
            &old,
            &scaleup_artifact(0.5, 6_000_000, 1000, true),
        );
        assert_eq!(report.unwrap().len(), 3, "one OK line per exact key");
        // …while one event more or less, one result row, or a lost
        // bit-identity each fail on exactly their own key.
        for (fresh, key) in [
            (scaleup_artifact(1.0, 6_000_001, 1000, true), "events"),
            (scaleup_artifact(1.0, 6_000_000, 999, true), "results"),
            (scaleup_artifact(1.0, 6_000_000, 1000, false), "identical"),
        ] {
            let err = compare("scaleup", &old, &fresh).unwrap_err();
            let failed: Vec<_> = err.iter().filter(|l| l.contains("FAIL")).collect();
            assert_eq!(failed.len(), 1, "{err:?}");
            assert!(
                failed[0].contains(&format!("scaleup.{key} (exact)")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn pruning_ratio_shrink_fails() {
        let mk = |ratio: f64| {
            format!(
                "{{\"experiment\": \"pruning\", \"rows\": [{{\"nodes\": 8, \
                 \"pruned_rehash_mb\": 1.0, \"ratio\": {ratio:.2}}}]}}"
            )
        };
        assert!(compare("pruning", &mk(3.2), &mk(3.0)).is_ok());
        assert!(compare("pruning", &mk(3.2), &mk(2.0)).is_err());
    }
}
