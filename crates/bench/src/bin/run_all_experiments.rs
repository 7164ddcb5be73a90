//! Runs every experiment of the paper's evaluation and rewrites
//! `EXPERIMENTS.md` with paper-vs-measured results.
//!
//! ```text
//! cargo run --release -p gpusimpow-bench --bin run_all_experiments \
//!     [-- --small] [--per-cluster] [--threads N] [out.md]
//! ```
//!
//! `--threads` bounds the simulation fan-out (default: the machine's
//! available parallelism). Thread count only affects wall-clock time;
//! the written report is byte-identical for any setting.
//! `--per-cluster` appends the scoped per-cluster power-attribution
//! section (the committed `EXPERIMENTS.md` is generated without it).

use gpusimpow_bench::{cli, report};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let per_cluster = args.iter().any(|a| a == "--per-cluster");
    let pool = cli::pool_from_args(&args);
    let mut out_path = "EXPERIMENTS.md".to_string();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--threads" {
            i += 2; // skip the flag and its value
        } else if args[i].starts_with("--") {
            i += 1;
        } else {
            out_path = args[i].clone();
            break;
        }
    }

    let md = report::generate(small, per_cluster, &pool);
    std::fs::write(&out_path, md).expect("write EXPERIMENTS.md");
    eprintln!("wrote {out_path}");
}
