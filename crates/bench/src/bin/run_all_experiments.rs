//! The one experiment binary: rewrites `EXPERIMENTS.md` with
//! paper-vs-measured results, or renders the named sections alone.
//!
//! ```text
//! cargo run --release -p gpusimpow-bench --bin run_all_experiments \
//!     [-- --small] [--only=NAME[,NAME]] [--threads N] [out.md]
//! ```
//!
//! `--only=` selects rows of `report::SECTIONS` by name (an unknown name
//! exits 2 listing the valid ones) and prints them to stdout, or to
//! `out.md` when given; without it the full report goes to `out.md`
//! (default `EXPERIMENTS.md`). The output path is the first argument not
//! starting with `-`. Any other flag, a space-separated `--only` value
//! and a missing or non-numeric `--threads` value exit 2 before anything
//! is written. `--threads` (or `--threads=N`) bounds the simulation
//! fan-out (default: the machine's available parallelism); the output is
//! byte-identical for any setting.

use gpusimpow_bench::report;
use gpusimpow_sim::SimPool;

/// Reports a command-line error and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}; valid flags: --small, --only=NAME[,NAME], --threads N");
    std::process::exit(2);
}

fn main() {
    let (mut small, mut only, mut threads, mut out_path) = (false, None, 0, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, value) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        match (flag, value) {
            ("--small", None) => small = true,
            ("--only", Some(names)) => only = Some(names.to_string()),
            // A space-separated value would be taken for the output path.
            ("--only", None) => usage("--only takes its names as --only=NAME[,NAME]"),
            ("--threads", value) => {
                let value = value.map(str::to_string).or_else(|| args.next());
                let value = value.unwrap_or_else(|| usage("--threads needs a value"));
                threads = value.parse().unwrap_or_else(|_| {
                    usage(&format!("--threads expects a number, got {value:?}"))
                });
            }
            // Skipping it would rewrite EXPERIMENTS.md in full.
            _ if arg.starts_with('-') => usage(&format!("unknown flag {arg}")),
            _ => {
                out_path.get_or_insert_with(|| arg.clone());
            }
        }
    }

    let pool = SimPool::new(threads);
    let md = match only {
        Some(names) => {
            let ctx = report::Ctx { small, pool: &pool };
            report::generate_only(&names, &ctx).unwrap_or_else(|msg| {
                eprintln!("{msg}");
                std::process::exit(2);
            })
        }
        None => {
            out_path.get_or_insert_with(|| "EXPERIMENTS.md".to_string());
            report::generate(small, &pool)
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
