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
//! the output path is the first argument not starting with `-`. Any
//! other flag exits 2 listing the valid ones, before anything is written.
//! `--threads` bounds the simulation fan-out (default: the machine's
//! available parallelism). Thread count only affects wall-clock time;
//! the output is byte-identical for any setting.
//! `--per-cluster` appends the scoped per-cluster power-attribution
//! section (the committed `EXPERIMENTS.md` is generated without it).

use gpusimpow_bench::{cli, report};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pool = cli::pool_from_args(&args);
    let (mut small, mut per_cluster) = (false, false);
    let mut out_path = None;
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--threads" => {
                rest.next(); // its value
            }
            "--small" => small = true,
            "--per-cluster" => per_cluster = true,
            "--only" => {
                // A space-separated value would be taken for the output path.
                eprintln!("--only takes its names as --only=NAME[,NAME]");
                std::process::exit(2);
            }
            a if a.starts_with("--only=") || a.starts_with("--threads=") => {}
            a if a.starts_with('-') => {
                // Skipping it would rewrite EXPERIMENTS.md in full.
                eprintln!(
                    "unknown flag {a}; valid flags: --small, --per-cluster, \
                     --only=NAME[,NAME], --threads N"
                );
                std::process::exit(2);
            }
            a => {
                out_path.get_or_insert_with(|| a.to_string());
            }
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
