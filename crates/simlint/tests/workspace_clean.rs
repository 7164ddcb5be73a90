//! Self-check: the real workspace passes every simlint pass, and the
//! checked-in `UNSAFE.md` matches the regenerated inventory. This is
//! the same run CI performs via `cargo run -p simlint`, kept as a test
//! so `cargo test` alone catches invariant regressions.

use simlint::scope::{FLOAT_CRATES, UNIT_CRATES};
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn workspace_has_no_findings_and_manifest_is_current() {
    let report = simlint::run_workspace(&workspace_root()).unwrap();
    assert!(
        report.diagnostics.is_empty(),
        "simlint findings in the workspace:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walk sees the whole first-party tree (sanity floor so a
    // broken walker cannot silently pass by checking nothing).
    assert!(report.files_checked > 100, "{}", report.files_checked);
}

#[test]
fn curated_scope_crates_exist() {
    // A renamed or deleted crate must fail here rather than linger as a
    // scope prefix that matches nothing.
    let root = workspace_root();
    for krate in UNIT_CRATES.iter().chain(FLOAT_CRATES) {
        assert!(
            root.join(krate).join("src").is_dir(),
            "scope lists `{krate}`, which has no src/ directory"
        );
    }
}

#[test]
fn json_to_stdout_is_exactly_the_report() {
    let root = workspace_root();
    let report = simlint::run_workspace(&root).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--root")
        .arg(&root)
        .args(["--json", "-"])
        .output()
        .unwrap();
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        simlint::json_report(&report.diagnostics, report.files_checked)
    );
}
