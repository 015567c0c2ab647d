//! `pier_bench` — the one experiment binary.
//!
//! ```text
//! pier_bench list               the experiment index
//! pier_bench <name>...          run the named experiments, in that order
//! pier_bench all                run the whole registry
//! pier_bench gated              run those whose artifact is committed
//! ```
//!
//! `PIER_FULL=1` switches to paper-scale parameters (artifacts then go
//! to `results/full/`). An unknown name exits 2 with the index.
use pier_bench::experiments::{index, select};

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
    let t0 = std::time::Instant::now();
    for experiment in chosen {
        (experiment.run)();
        let at = t0.elapsed().as_secs_f64();
        eprintln!("{} done at {at:.0}s", experiment.name);
    }
}
