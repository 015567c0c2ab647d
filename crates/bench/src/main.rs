//! `pier_bench` — the one experiment binary.
//!
//! ```text
//! pier_bench list               the experiment index
//! pier_bench <name>...          run the named experiments, in that order
//! pier_bench all                run the whole registry
//! pier_bench gated              run those whose artifact is committed
//! ```
//!
//! There is no switch: each experiment runs its one parameter set. Each
//! prints its own wall seconds, and a run of several prints the total;
//! neither goes into an artifact. An unknown name exits 2 with the index.
use pier_bench::experiments::{index, select};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        println!("{}", index());
        return;
    }
    let chosen = select(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let t0 = Instant::now();
    for experiment in &chosen {
        let start = Instant::now();
        (experiment.run)();
        let secs = start.elapsed().as_secs_f64();
        println!("{}: {secs:.1} s", experiment.name);
    }
    if chosen.len() > 1 {
        let secs = t0.elapsed().as_secs_f64();
        println!("total: {secs:.1} s, {} experiments", chosen.len());
    }
}
