//! simlint CLI — see the library docs for what is checked.
//!
//! ```text
//! cargo run -p simlint                              # check, exit 1 on findings
//! cargo run -p simlint -- --root path/to/workspace
//! cargo run -p simlint -- --update-unsafe-manifest  # rewrite UNSAFE.md
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut update_manifest = false;
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
            "--help" | "-h" => {
                println!(
                    "usage: simlint [--root PATH] [--update-unsafe-manifest]\n\
                     \n\
                     Checks the workspace invariants rustc, clippy and the\n\
                     test suite cannot see: unit safety (no raw f64 math on\n\
                     unwrapped quantities in the power and trace crates),\n\
                     cfg-divergent float kernels, no interior mutability\n\
                     on the tick path, and the unsafe audit (SAFETY\n\
                     comments + UNSAFE.md inventory). Determinism and\n\
                     panic-free decoding are clippy's (clippy.toml and the\n\
                     decode modules' #![deny]). Exits 1 when anything\n\
                     fires."
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
