//! Engine scale-up: the Fig. 3 ladder pushed to 10^4 nodes.

use pier_core::plan::JoinStrategy;
use pier_core::testkit::{
    publish_round_robin, rows_of, run_query, settle_publish, stabilized_pier_sharded, PierEngine,
};
use pier_core::Tuple;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::{NetConfig, ShardMap};
use pier_workload::{RsParams, RsWorkload};

use crate::{Artifact, Cell};

/// One scale-up measurement: build an `n`-node overlay, run one full
/// workload round (publish + settle + symmetric-hash join) and report
/// engine throughput as events processed per wall-clock second, with
/// recall against the reference evaluator as the correctness guard.
///
/// The workload is ~1 R tuple per node (with a floor), so the event
/// count grows roughly linearly with `n` and the 10^4 point stays a
/// smoke-sized run.
struct ScaleupRun {
    events: u64,
    wall: f64,
    rows: Vec<Tuple>,
    recall: f64,
}

fn scaleup_drive(sim: &mut impl PierEngine, n: usize, seed: u64) -> ScaleupRun {
    let params = RsParams {
        s_rows: (n as u64 / 10).max(40),
        seed,
        ..Default::default()
    };
    let wl = RsWorkload::generate(params);

    let e0 = sim.events_processed();
    let t0 = std::time::Instant::now();
    publish_round_robin(sim, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_round_robin(sim, "S", &wl.s, 0, Dur::from_secs(100_000));
    settle_publish(sim);
    sim.run_for(Dur::from_secs(30));

    let expected = wl.expected(JoinStrategy::SymmetricHash);
    let mut desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    desc.n_nodes = n as u32;
    let results = run_query(sim, 0, desc, Dur::from_secs(120));
    let wall = t0.elapsed().as_secs_f64();
    let events = sim.events_processed() - e0;

    let rows = rows_of(&results);
    let recall = pier_core::semantics::recall(&expected, &rows);
    assert!(
        recall > 0.999,
        "scale-up at n={n} must stay correct (recall {recall:.4})"
    );
    ScaleupRun {
        events,
        wall,
        rows,
        recall,
    }
}

/// One ladder point on `w` cores, best-of-reps: the first run's
/// outcomes (every rep must repeat them), the rep count, and the
/// fastest wall time. Reps scale inversely with the per-rep event count.
fn scaleup_point(n: usize, seed: u64, w: usize) -> (ScaleupRun, u64, f64) {
    let run = || {
        let (dht, net) = (DhtConfig::static_network(), NetConfig::latency_only(seed));
        let mut sim = stabilized_pier_sharded(n, dht, net, ShardMap::round_robin(w));
        scaleup_drive(&mut sim, n, seed)
    };
    let first = run();
    let reps = (2_000_000 / first.events.max(1)).clamp(2, 64);
    let mut best = first.wall;
    for _ in 1..reps {
        let rerun = run();
        assert_eq!(
            (rerun.events, rerun.rows.len()),
            (first.events, first.rows.len()),
            "reps must be deterministic (n={n}, W={w})"
        );
        best = best.min(rerun.wall);
    }
    (first, reps, best)
}

/// Engine throughput across 10^2 → 10^4 nodes on one core, then the
/// 10^4-node point again on W ∈ {2, 4} cores (W = 1 *is* the ladder
/// row: a one-shard engine runs the same inline loop). Every sharded
/// run must reproduce the one-core result rows and event count
/// bit-for-bit — the conservative time-window barrier is exact, not
/// approximate.
///
/// `events`, `results`, `recall` and `identical` are functions of the
/// seed and are committed. The wall-clock columns are the host's speed,
/// not the code's (31 % same-code spread on the CI class of machine),
/// so they are host cells: printed, never committed; the performance
/// ledger under `benchmark/` measures them properly. Each is
/// best-of-reps — the run is deterministic, so the *fastest* rep is the
/// engine's throughput with the one-sided OS noise filtered out.
///
/// On hosts with ≥ 4 cores the W = 4 point must reach ≥ 2.5× sequential
/// throughput; on smaller hosts (CI smoke boxes are often 1–2 cores) the
/// sweep still runs — the bit-identity asserts are the point there — but
/// the speedup floor is skipped because there is no parallelism to buy.
pub fn scaleup() {
    let ladder = [100usize, 1_000, 10_000];
    let seed = 11u64;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut art = Artifact::new("scaleup");
    art.meta(
        "workload",
        "static CAN overlay at 100/1000/10000 nodes, ~1 R tuple per node (floor 400), \
         publish + symmetric-hash join, latency-only network; plus a W-sweep from \
         W = 2 at the 10000-node point (bit-identical to one core at every W; W = 1 is \
         the ladder row itself, the same inline loop)",
    );
    art.meta(
        "metric",
        "events processed, result rows, recall vs the reference evaluator (must stay \
         1.0) and W-sweep bit-identity: all functions of the seed. Wall-clock \
         throughput is printed by the run but is the host's speed, so it is not recorded",
    );
    art.meta("host_cores", Cell::from(cores).host());
    let mut top = None;
    for n in ladder {
        let (first, reps, best) = scaleup_point(n, seed, 1);
        art.row([
            ("nodes", n.into()),
            ("events", first.events.into()),
            ("results", first.rows.len().into()),
            ("recall", Cell::f(first.recall, 4)),
            ("reps", Cell::from(reps).host()),
            ("best_wall_s", Cell::f(best, 3).host()),
            (
                "events_per_sec",
                Cell::f(first.events as f64 / best, 0).host(),
            ),
        ]);
        top = Some((n, first, best));
    }

    let (n, seq, seq_best) = top.expect("ladder is non-empty");
    for w in [2usize, 4] {
        let (first, reps, best) = scaleup_point(n, seed, w);
        assert_eq!(
            first.events, seq.events,
            "sharded W={w} must process the same events as sequential"
        );
        assert_eq!(
            first.rows, seq.rows,
            "sharded W={w} must reproduce the sequential result rows bit-for-bit"
        );
        let speedup = seq_best / best;
        if w >= 4 && cores >= 4 {
            assert!(
                speedup >= 2.5,
                "W={w} on a {cores}-core host must reach >= 2.5x sequential \
                 throughput (got {speedup:.2}x)"
            );
        }
        art.row([
            ("nodes", n.into()),
            ("w", w.into()),
            ("events", first.events.into()),
            ("identical", true.into()),
            ("reps", Cell::from(reps).host()),
            ("best_wall_s", Cell::f(best, 3).host()),
            (
                "events_per_sec",
                Cell::f(first.events as f64 / best, 0).host(),
            ),
            ("speedup_vs_seq", Cell::f(speedup, 3).host()),
        ]);
    }
    art.emit();
}
