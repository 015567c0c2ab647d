//! Bench-trajectory gate (CI): `bench_gate <baseline_dir> <fresh_dir>`
//! compares the committed `BENCH_*.json` artifacts against freshly
//! regenerated ones and exits non-zero on a >15% regression in any
//! experiment's headline metric (see `pier_bench::gate::HEADLINES`) or
//! on any difference in an exactly-gated simulated outcome
//! (`pier_bench::gate::EXACT`).
use std::path::Path;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_gate <baseline_dir> <fresh_dir>");
        exit(2);
    }
    match pier_bench::gate::check_dirs(Path::new(&args[1]), Path::new(&args[2])) {
        Ok(report) => {
            print!("{report}");
            println!("bench-trajectory gate: OK");
        }
        Err(report) => {
            print!("{report}");
            eprintln!("bench-trajectory gate: FAILED (headline regression or exact-key mismatch)");
            exit(1);
        }
    }
}
