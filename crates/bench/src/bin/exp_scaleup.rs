//! Engine scale-up: the Fig. 3 ladder pushed through 10^2 → 10^4 nodes
//! on one static CAN overlay per point, ~1 R tuple of source data per
//! node, publish + symmetric-hash join on a latency-only network.
//! Reports engine throughput (events processed per wall-clock second)
//! and hard-asserts recall 1.0 vs the reference evaluator at every
//! point — the 10^4-node run must complete *correctly*, not just fast.
//!
//! After the one-core ladder, the 10^4-node point is re-run on
//! W ∈ {2, 4, …, `--shards N`} cores (default 4; W = 1 is the ladder
//! row itself — a one-shard engine runs the same inline loop): every
//! width must reproduce the one-core result rows and event count
//! bit-for-bit, and on ≥ 4-core hosts W = 4 must reach ≥ 2.5× one-core
//! throughput.
//!
//! Writes `results/BENCH_scaleup.json` (CI bench-trajectory artifact:
//! `events`, `results` and `identical` gated exact-equal row for row;
//! the wall-clock `events_per_sec{,_sharded}` recorded, not gated).
fn main() {
    let mut shards = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                let v = args.next().expect("--shards needs a value");
                shards = v.parse().expect("--shards must be a positive integer");
                assert!(shards >= 1, "--shards must be >= 1");
            }
            other => panic!("unknown argument {other:?} (expected --shards N)"),
        }
    }
    pier_bench::experiments::scaleup_with_shards(shards);
}
