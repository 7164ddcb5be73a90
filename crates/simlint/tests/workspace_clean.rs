//! Self-check: the real workspace passes every simlint pass, and the
//! checked-in `UNSAFE.md` matches the regenerated inventory. This is
//! the same run CI performs via `cargo run -p simlint`, kept as a test
//! so `cargo test` alone catches invariant regressions.

use simlint::scope::ScopeConfig;
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
fn discovered_scopes_cover_the_static_mirror() {
    // Fixture tests run under `ScopeConfig::default_static`; this pins
    // that discovery on the real tree yields at least those prefixes,
    // so the fixtures never exercise a scope the workspace run lacks.
    let discovered = ScopeConfig::discover(&workspace_root()).unwrap();
    let fixed = ScopeConfig::default_static();
    for (name, want, have) in [
        (
            "determinism",
            &fixed.determinism_prefixes,
            &discovered.determinism_prefixes,
        ),
        ("units", &fixed.units_prefixes, &discovered.units_prefixes),
        ("floats", &fixed.float_prefixes, &discovered.float_prefixes),
    ] {
        for prefix in want {
            assert!(
                have.contains(prefix),
                "{name}: discovery lost `{prefix}`: {have:?}"
            );
        }
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
