//! The front door to every experiment of the paper's evaluation:
//! rewrites `EXPERIMENTS.md` with paper-vs-measured results, or renders
//! the named sections alone.
//!
//! ```text
//! cargo run --release -p gpusimpow-bench --bin run_all_experiments \
//!     [-- --small] [--per-cluster] [--only=NAME[,NAME]] [--threads N] [out.md]
//! ```
//!
//! `--only=` selects sections of `report::SECTIONS` by name (an unknown
//! name exits non-zero listing the valid ones) and prints them to
//! stdout, or to `out.md` when given; without it the full report goes to
//! `out.md` (default `EXPERIMENTS.md`). Only the `=` form is accepted —
//! the output path is the first argument not starting with `--`.
//! `--threads` bounds the simulation fan-out (default: the machine's
//! available parallelism). Thread count only affects wall-clock time;
//! the output is byte-identical for any setting.
//! `--per-cluster` appends the scoped per-cluster power-attribution
//! section (the committed `EXPERIMENTS.md` is generated without it).

use gpusimpow_bench::{cli, report};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let per_cluster = args.iter().any(|a| a == "--per-cluster");
    let pool = cli::pool_from_args(&args);
    if args.iter().any(|a| a == "--only") {
        // A space-separated value would be taken for the output path.
        eprintln!("--only takes its names as --only=NAME[,NAME]");
        std::process::exit(2);
    }
    let mut out_path = None;
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--threads" {
            i += 2; // skip the flag and its value
        } else if args[i].starts_with("--") {
            i += 1;
        } else {
            out_path = Some(args[i].clone());
            break;
        }
    }

    let md = match cli::eq_flag(&args, "only") {
        Some(names) => {
            let ctx = report::Ctx { small, pool: &pool };
            report::generate_only(&names, &ctx).unwrap_or_else(|msg| {
                eprintln!("{msg}");
                std::process::exit(2);
            })
        }
        None => {
            out_path.get_or_insert_with(|| "EXPERIMENTS.md".to_string());
            report::generate(small, per_cluster, &pool)
        }
    };
    match out_path {
        Some(path) => {
            std::fs::write(&path, md).expect("write the report");
            eprintln!("wrote {path}");
        }
        None => print!("{md}"),
    }
}
