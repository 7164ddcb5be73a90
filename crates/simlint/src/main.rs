//! simlint CLI — see the library docs for what is checked.
//!
//! ```text
//! cargo run -p simlint                              # check, exit 1 on findings
//! cargo run -p simlint -- --root path/to/workspace
//! cargo run -p simlint -- --update-unsafe-manifest  # rewrite UNSAFE.md
//! cargo run -p simlint -- --json report.json        # machine-readable report
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut update_manifest = false;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("simlint: --root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--update-unsafe-manifest" => update_manifest = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("simlint: --json needs an output path (use - for stdout)");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: simlint [--root PATH] [--update-unsafe-manifest] [--json PATH]\n\
                     \n\
                     Checks the workspace invariants no compiler enforces:\n\
                     determinism (no HashMap iteration / wall clock in\n\
                     result-bearing crates), unit safety (no raw f64 math on\n\
                     unwrapped quantities in the power model), hot-path and\n\
                     decode-path discipline (allocation, panic and arithmetic\n\
                     rules), float determinism, the core step's\n\
                     two-phase contract, unsafe audit (SAFETY comments +\n\
                     UNSAFE.md inventory), and registry coverage (every\n\
                     EventKind priced, base-model, or documented unpriced).\n\
                     Exits 1 when anything fires. `--json` additionally\n\
                     writes a schema-versioned machine-readable report to\n\
                     PATH (`-` for stdout)."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = match simlint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "simlint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let mut diagnostics = report.diagnostics;
    if update_manifest {
        let path = root.join("UNSAFE.md");
        if let Err(e) = std::fs::write(&path, &report.unsafe_manifest) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("simlint: wrote {}", path.display());
        diagnostics.retain(|d| d.lint != simlint::unsafety::UNSAFE_MANIFEST_DRIFT);
    }

    if let Some(path) = &json_path {
        let json = simlint::json_report(&diagnostics, report.files_checked);
        if path.as_os_str() == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for d in &diagnostics {
        println!("{d}");
    }
    if diagnostics.is_empty() {
        println!(
            "simlint: {} files checked, no findings",
            report.files_checked
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("simlint: {} finding(s)", diagnostics.len());
        ExitCode::FAILURE
    }
}
