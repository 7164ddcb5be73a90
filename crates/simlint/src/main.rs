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
                     Checks the workspace invariants rustc, clippy and the\n\
                     test suite cannot see: unit safety (no raw f64 math on\n\
                     unwrapped quantities in the power and trace crates),\n\
                     cfg-divergent float kernels, no memory mutation or\n\
                     interior mutability on the tick path, and the unsafe\n\
                     audit (SAFETY comments + UNSAFE.md inventory).\n\
                     Determinism and panic-free decoding are clippy's\n\
                     (clippy.toml and the decode modules' #![deny]).\n\
                     Exits 1 when anything fires. `--json` additionally\n\
                     writes a schema-versioned machine-readable report to\n\
                     PATH; with `-` the report goes to stdout and the\n\
                     finding lines to stderr."
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

    // With the JSON report on stdout, the human-readable lines go to
    // stderr so stdout stays one parseable document.
    let json_to_stdout = json_path.as_ref().is_some_and(|p| p.as_os_str() == "-");
    let say = |line: String| {
        if json_to_stdout {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    let mut diagnostics = report.diagnostics;
    if update_manifest {
        let path = root.join("UNSAFE.md");
        if let Err(e) = std::fs::write(&path, &report.unsafe_manifest) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        say(format!("simlint: wrote {}", path.display()));
        diagnostics.retain(|d| d.lint != simlint::unsafety::UNSAFE_MANIFEST_DRIFT);
    }

    if let Some(path) = &json_path {
        let json = simlint::json_report(&diagnostics, report.files_checked);
        if json_to_stdout {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for d in &diagnostics {
        say(d.to_string());
    }
    if diagnostics.is_empty() {
        say(format!(
            "simlint: {} files checked, no findings",
            report.files_checked
        ));
        ExitCode::SUCCESS
    } else {
        eprintln!("simlint: {} finding(s)", diagnostics.len());
        ExitCode::FAILURE
    }
}
