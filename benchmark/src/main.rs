//! The PIER performance ledger: runs one workload as repeated
//! (set-up → measured phase) reps in one process, checks every answer
//! against the `pier_core::semantics` oracles, and reports the
//! end-to-end metrics (`--trace 0`) or, after one extra traced rep and
//! the micro-operations, the per-layer ones (`--trace 1`). See
//! `benchmark/README.md` for the metric catalogue and the noise policy.

mod alloc;
mod estimate;
mod host;
mod json;
mod metrics;
mod micro;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use metrics::{Kind, Row, RunSummary, END_TO_END};
use trace::Tracer;
use workloads::{run_rep, Rep, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: pier_benchmark --workload <name> [--seed N] [--seconds S | --reps N] \
                     [--trace 0|1] [--out DIR]\n       pier_benchmark --compare DIR_A DIR_B";

/// Fewest reps a run makes, warm-up included, however slow the host.
const MIN_REPS: usize = 3;
/// Share of `--seconds` a traced run spends on timed reps before the
/// traced rep and the micro-operations.
const TRACED_RUN_REP_SHARE: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// Fixed rep count (warm-up included) instead of a time budget.
    reps: Option<usize>,
    trace: bool,
    out: PathBuf,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 40.0,
        reps: None,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: &String| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: {v:?} is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(value()?)? as u64,
            "--seconds" => args.seconds = number(value()?)?,
            "--reps" => args.reps = Some((number(value()?)? as usize).max(2)),
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                return Ok(Command::Compare(a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}\n{USAGE}",
            args.workload
        ));
    }
    Ok(Command::Run(args))
}

/// Warm-up plus timed reps: a fixed count, or as many as fit `budget`.
fn run_reps(workload: &str, seed: u64, fixed: Option<usize>, budget: Duration) -> Vec<Rep> {
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(run_rep(workload, seed, &mut Tracer::off()));
        let n = reps.len();
        let done = match fixed {
            Some(want) => n >= want,
            None => {
                let elapsed = started.elapsed();
                n >= MIN_REPS && elapsed + elapsed / n as u32 > budget
            }
        };
        if done {
            return reps;
        }
    }
}

/// Figures this repository has committed elsewhere for the default
/// seed; the ledger must reproduce them or it measures something else.
fn continuity_errors(workload: &str, seed: u64, rep: &Rep) -> Vec<String> {
    if seed != 11 {
        return Vec::new();
    }
    let total_events = rep.setup_events + rep.exact.events;
    let mut errors = Vec::new();
    let mut pin = |what: &str, got: u64, want: u64| {
        if got != want {
            errors.push(format!(
                "{workload} at seed 11: {what} is {got}, committed {want}"
            ));
        }
    };
    match workload {
        "join_wan" => {
            pin("publish+query events", total_events, 582_413);
            pin("results", rep.exact.got, 4_748);
        }
        // results/BENCH_scaleup.json, the 10^4-node row.
        "scaleup_10k" => {
            pin("publish+query events", total_events, 3_375_669);
            pin("results", rep.exact.got, 1_181);
        }
        // exp_multitenant under PIER_FULL=1.
        "standing_tenants" => {
            pin("timeline events", rep.exact.events, 1_427_173);
            if let Some(layers) = &rep.layers {
                pin("rejected installs", layers.rejected_installs, 1);
                pin("shed publishes", layers.shed_publishes, 510);
            }
        }
        _ => {}
    }
    errors
}

/// `ShardedSim` at one shard must reach, event for event, what `Sim`
/// reaches on `scaleup_10k`'s job: one rep of it, held to the same
/// simulated outcomes (heap traffic is the engine's own and may differ).
fn sharded_identity_errors(args: &Args, seq: &Rep) -> Vec<String> {
    if args.workload != "scaleup_10k" {
        return Vec::new();
    }
    let sharded = workloads::sharded_twin_of_scaleup(args.seed);
    if sharded.exact == seq.exact {
        Vec::new()
    } else {
        vec![format!(
            "ShardedSim at one shard diverged from Sim: {:?} vs {:?}",
            sharded.exact, seq.exact
        )]
    }
}

fn read_result(dir: &Path, workload: &str) -> Option<Json> {
    let text = std::fs::read_to_string(dir.join(format!("{workload}.json"))).ok()?;
    let doc = Json::parse(&text).ok()?;
    (doc.get("workload").and_then(Json::as_str) == Some(workload)).then_some(doc)
}

fn metric_value(doc: &Json, section: &str, name: &str) -> Option<f64> {
    doc.get(section)?.get(name)?.get("value")?.as_f64()
}

fn rows_json(rows: &[Row]) -> Json {
    Json::obj(rows.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }))
}

fn run(args: &Args) -> Result<(), String> {
    let budget = if args.trace {
        args.seconds * TRACED_RUN_REP_SHARE
    } else {
        args.seconds
    };
    let mut reps = run_reps(
        &args.workload,
        args.seed,
        args.reps,
        Duration::from_secs_f64(budget),
    );
    // The first rep pays for page faults and cold caches the later ones
    // do not: it warms up and is not timed.
    reps.remove(0);
    let first = &reps[0];
    let mut errors = Vec::new();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.exact != first.exact {
            errors.push(format!(
                "rep {i} diverged: {:?} vs {:?}",
                rep.exact, first.exact
            ));
        }
        if rep.heap != first.heap {
            errors.push(format!(
                "rep {i} diverged: {:?} vs {:?}",
                rep.heap, first.heap
            ));
        }
    }
    let summary = RunSummary::of(&reps);

    // The traced rep, its spans, and the per-layer metrics built on them.
    let traced = args.trace.then(|| {
        let mut tracer = Tracer::on();
        let rep = run_rep(&args.workload, args.seed, &mut tracer);
        let query_cpu = tracer.cpu_of("query.") + tracer.cpu_of("tenant.");
        let rows = metrics::per_layer(&rep, query_cpu, &summary, &reps, &micro::measure());
        (rep, tracer, rows)
    });
    if let Some((rep, _, _)) = &traced {
        if rep.exact != first.exact {
            errors.push(format!(
                "tracing perturbed the run: {:?} vs {:?}",
                rep.exact, first.exact
            ));
        }
        errors.extend(sharded_identity_errors(args, first));
    }
    // Every rep agrees with the first, so one rep stands for all in the
    // continuity check; the traced one also carries the layer counters.
    let pinned = traced.as_ref().map_or(first, |(rep, _, _)| rep);
    errors.extend(continuity_errors(&args.workload, args.seed, pinned));

    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let e2e = metrics::end_to_end(first, &summary, peak_rss_mb);

    let checked = || reps.iter().chain(traced.as_ref().map(|(rep, _, _)| rep));
    let attempted: u64 = checked().map(|r| r.exact.attempted()).sum();
    let failed: u64 = checked()
        .map(|r| r.exact.attempted() - r.exact.matched)
        .sum();
    let correct = failed == 0 && errors.is_empty();

    // Everything the run learned goes to the output directory; stdout
    // gets the metrics the caller asked for.
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut doc = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        ("reps_run", Json::Num(summary.reps_run as f64)),
        ("reps_kept", Json::Num(summary.reps_kept as f64)),
        ("steal_share", Json::Num(summary.steal_share)),
        ("cpu_s", Json::Num(summary.cpu_s)),
        ("cpu_iqr_share", Json::Num(summary.cpu_iqr_share)),
        (
            "reps",
            Json::Arr(
                reps.iter()
                    .zip(&summary.keep)
                    .map(|(r, &kept)| {
                        Json::obj([
                            ("setup_s", Json::Num(r.host.setup_cpu_s)),
                            ("cpu_s", Json::Num(r.host.cpu_s)),
                            ("wall_s", Json::Num(r.host.wall_s)),
                            ("rep_wall_s", Json::Num(r.host.rep_wall_s)),
                            ("steal_share", Json::Num(r.host.steal_share)),
                            ("kept", Json::Bool(kept)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", rows_json(&e2e)),
    ];
    if let Some((_, tracer, rows)) = &traced {
        doc.push(("per_layer", rows_json(rows)));
        let trace_doc = Json::obj([
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Num(args.seed as f64)),
            ("spans", tracer.to_json()),
        ]);
        let path = args.out.join(format!("trace_{}.json", args.workload));
        std::fs::write(&path, trace_doc.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = args.out.join(format!("{}.json", args.workload));
    std::fs::write(&path, Json::obj(doc).render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let reported: &[Row] = match &traced {
        Some((_, _, rows)) => rows,
        None => &e2e,
    };
    for (name, value, unit) in reported {
        println!("{}/{name} {value} {unit}", args.workload);
    }
    if traced.is_none() {
        // Not gated, but what a person running this wants to see.
        println!("{}/bench.cpu_s {} s", args.workload, summary.cpu_s);
    }
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    // NaN would not be JSON; a metric without a value fails the run.
    if let Some((name, _, _)) = reported.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} has no finite value"));
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", rows_json(reported)),
        ])
        .render()
    );
    if correct {
        Ok(())
    } else {
        Err(format!("{failed} of {attempted} result rows were wrong"))
    }
}

/// A/A report: two result sets of the same code and seed, side by side.
/// Exact metrics must be identical; host metrics may differ by their
/// bound.
fn compare(a: &Path, b: &Path) -> Result<(), String> {
    println!(
        "{:<18} {:<14} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "gap", "bound"
    );
    let mut failures = 0;
    for workload in WORKLOADS {
        let (Some(doc_a), Some(doc_b)) = (read_result(a, workload), read_result(b, workload))
        else {
            return Err(format!("{workload}.json missing from {a:?} or {b:?}"));
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(&doc_a, "end_to_end", def.name),
                metric_value(&doc_b, "end_to_end", def.name),
            ) else {
                return Err(format!("{workload}/{} missing", def.name));
            };
            // Positive when B is worse than A.
            let worse = if def.higher_is_better {
                va - vb
            } else {
                vb - va
            };
            let gap = if va == vb { 0.0 } else { worse / va.abs() };
            let allowed = match def.kind {
                Kind::Exact => 0.0,
                Kind::Host => def.bound,
            };
            let pass = gap.abs() <= allowed;
            failures += usize::from(!pass);
            println!(
                "{workload:<18} {:<14} {va:>16.6} {vb:>16.6} {:>8.2}% {:>5.0}%  {}",
                def.name,
                gap * 100.0,
                allowed * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        for doc in [&doc_a, &doc_b] {
            let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "{workload:<18} bench.cpu_s {:.6} (not gated) reps_kept {}/{} steal_share {:.4} \
                 cpu_iqr_share {:.4}",
                num("cpu_s"),
                num("reps_kept"),
                num("reps_run"),
                num("steal_share"),
                num("cpu_iqr_share")
            );
        }
    }
    if failures == 0 {
        println!("A/A: PASS");
        Ok(())
    } else {
        Err(format!("A/A: {failures} metric(s) outside their bound"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare(a, b)) => compare(&a, &b),
        Err(usage) => Err(usage),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pier_benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cmd = parse_args(&argv(
            "--workload join_wan --seed 7 --seconds 20 --trace 1 --out x/y",
        ));
        let Ok(Command::Run(a)) = cmd else {
            panic!("run command")
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.reps),
            ("join_wan", 7, 20.0, true, None)
        );
        assert_eq!(a.out, PathBuf::from("x/y"));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload join_wan --seed",
            "--workload join_wan --seconds -3",
            "--workload join_wan --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn continuity_pins_apply_to_the_default_seed_only() {
        let rep = workloads::JoinJob {
            nodes: 8,
            s_rows: 80,
            bandwidth_limited: false,
            horizon_s: 30,
            shards: None,
        }
        .rep(11, &mut Tracer::off());
        assert!(continuity_errors("scaleup_10k", 12, &rep).is_empty());
        let errors = continuity_errors("scaleup_10k", 11, &rep);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("committed 3375669"));
    }
}
