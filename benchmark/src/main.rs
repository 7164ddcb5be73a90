//! `gpusimpow-benchmark run` / `compare` — see `benchmark/README.md`.
//!
//! ```text
//! run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
//! compare A.json B.json
//! ```
//!
//! `run --workload NAME` measures one workload in this process and ends
//! its standard output with one JSON line `{correct, attempted, failed,
//! metrics}`. `run` without `--workload` runs all six, each in a child
//! process of its own (so `peak_rss_mb` is the workload's alone), and
//! writes one results file stamped with a single commit.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use benchmark::compare::compare;
use benchmark::host;
use benchmark::json::Value;
use benchmark::run::{results_header, run_named, RunOptions};
use benchmark::spec::{DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  gpusimpow-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  gpusimpow-benchmark compare A.json B.json";

struct RunArgs {
    workload: Option<String>,
    options: RunOptions,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        options: RunOptions {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            corrupt_payloads: false,
        },
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let next = args.get(i + 1).map(String::as_str);
        // `--trace` takes an optional 0/1; every other value is required.
        let mut value = |what: &str| -> Result<&str, String> {
            i += 1;
            next.ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag {
            "--workload" => parsed.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                parsed.options.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.options.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file name")?)),
            "--trace" => match next {
                Some("0") => {
                    i += 1;
                }
                Some("1") => {
                    i += 1;
                    parsed.options.trace = true;
                }
                _ => parsed.options.trace = true,
            },
            "--smoke" => parsed.options.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(parsed)
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process. The contract line is the last thing
/// printed.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let record = run_named(name, &args.options)?;
    record.print();
    if let Some(out) = &args.out {
        write_json(out, &record.to_json())?;
    }
    println!("{}", record.contract_line());
    Ok(record.correct())
}

/// Every workload, one child process each, merged into one results
/// file under a single header.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut results = results_header(&args.options);
    let mut workloads = Value::object();
    let mut all_correct = true;
    for name in WORKLOADS {
        let part = host::out_dir().join(format!("part_{name}.json"));
        let mut child = std::process::Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", name])
            .args(["--seed", &args.options.seed.to_string()])
            .args(["--seconds", &args.options.seconds.to_string()])
            .args(["--trace", if args.options.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.options.smoke {
            child.arg("--smoke");
        }
        let done = child
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run the {name} child: {e}"))?;
        all_correct &= done.status.success();
        // The child's report, minus the driver's JSON line that ends it.
        let report = String::from_utf8_lossy(&done.stdout);
        let report = report.trim_end();
        println!("{}", report.rsplit_once('\n').map_or("", |(head, _)| head));
        workloads.set(name, read_json(&part)?);
        let _ = std::fs::remove_file(&part);
    }
    results.set("workloads", workloads);
    let default_name = if args.options.trace {
        "results_trace.json"
    } else {
        "results.json"
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| host::out_dir().join(default_name));
    write_json(&out, &results)?;
    println!("results written to {}", out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|parsed| match parsed.workload.clone() {
                Some(name) => run_one(&name, &parsed),
                None => run_all(&parsed),
            })
        }
        Some((cmd, [a, b])) if cmd == "compare" => read_json(Path::new(a))
            .and_then(|a| Ok((a, read_json(Path::new(b))?)))
            .and_then(|(a, b)| {
                let benchmark = read_json(&host::benchmark_json_path())?;
                compare(&a, &b, &benchmark).map(|(worse, _)| worse == 0)
            }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
