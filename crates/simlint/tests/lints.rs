//! Fixture tests: one good/bad pair per lint family, driven through the
//! same entry points the CLI uses. Fixtures live under
//! `tests/fixtures/` (not test targets — they are lexed, never
//! compiled) and are checked under synthetic workspace-relative paths
//! so the path-scoping rules are exercised too.

use simlint::{check_source, phase, unsafety, Diagnostic, SourceFile};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_names(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = diags.iter().map(|d| d.lint).collect();
    names.sort_unstable();
    names
}

#[test]
fn units_bad_flags_each_raw_operation() {
    let diags = check_source("crates/power/src/fixture.rs", &fixture("units_bad.rs"));
    assert!(
        diags.iter().all(|d| d.lint == "raw_unit_math"),
        "{diags:#?}"
    );
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    // joules()/seconds() on line 5, 2.0*watts() on 6, volts()*volts()
    // on 7, total(p).watts()/3.0 on 8.
    assert_eq!(lines, vec![5, 5, 6, 7, 7, 8], "{diags:#?}");
}

#[test]
fn units_good_typed_math_rendering_and_tests_are_clean() {
    let diags = check_source("crates/power/src/fixture.rs", &fixture("units_good.rs"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn units_lint_only_applies_to_the_power_crate() {
    let diags = check_source("crates/measure/src/fixture.rs", &fixture("units_bad.rs"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn units_lint_covers_the_trace_crate() {
    // Traces are content-addressed archival artifacts, so the trace
    // crate is held to the same unit discipline as the power model.
    let diags = check_source("crates/trace/src/fixture.rs", &fixture("units_bad.rs"));
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![5, 5, 6, 7, 7, 8], "{diags:#?}");
    let diags = check_source("crates/trace/src/fixture.rs", &fixture("units_good.rs"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn unsafe_bad_catches_missing_and_stranded_safety_comments() {
    let diags = check_source("crates/sim/src/fixture.rs", &fixture("unsafe_bad.rs"));
    assert_eq!(lint_names(&diags), ["undocumented_unsafe"; 2], "{diags:#?}");
}

#[test]
fn unsafe_good_is_clean_and_inventoried() {
    let src = fixture("unsafe_good.rs");
    let diags = check_source("crates/sim/src/fixture.rs", &src);
    assert!(diags.is_empty(), "{diags:#?}");
    // Keyword occurrences in strings and comments are not sites.
    let sites = unsafety::sites(&SourceFile::parse("crates/sim/src/fixture.rs", &src));
    assert_eq!(sites.len(), 2);
    assert!(sites.iter().all(|s| s.doc.is_some()));
    let manifest = unsafety::manifest(&[("crates/sim/src/fixture.rs".to_string(), sites)]);
    assert!(manifest.contains("Total `unsafe` keywords in first-party code: 2"));
    assert!(manifest.contains("SAFETY: `p` is non-null and aligned by the caller's contract."));
}

#[test]
fn justified_allow_markers_suppress_above_and_trailing() {
    let diags = check_source("crates/sim/src/fixture.rs", &fixture("allow_good.rs"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn rotten_allow_markers_are_findings_and_do_not_suppress() {
    // Markers naming a lint that moved to clippy
    // (`nondeterministic_collection`, `panic_path`) or was deleted
    // (`lane_loop_alloc`, `phase_mut_memory`) are as unknown as a
    // made-up one.
    let diags = check_source("crates/sim/src/fixture.rs", &fixture("allow_bad.rs"));
    assert_eq!(
        lint_names(&diags),
        [
            "missing_justification",
            "missing_justification",
            "undocumented_unsafe",
            "unknown_lint",
            "unknown_lint",
            "unknown_lint",
            "unknown_lint",
            "unknown_lint",
            "unknown_lint",
        ],
        "{diags:#?}"
    );
}

#[test]
fn diagnostics_render_as_file_line_lint_message() {
    let diags = check_source("crates/sim/src/fixture.rs", &fixture("unsafe_bad.rs"));
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/sim/src/fixture.rs:4: undocumented_unsafe: "),
        "{rendered}"
    );
}

#[test]
fn floats_bad_flags_divergent_kernels() {
    let diags = check_source("crates/power/src/fixture.rs", &fixture("floats_bad.rs"));
    let divergent: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.lint == "float_cfg_divergence")
        .collect();
    assert_eq!(divergent.len(), 1, "{diags:#?}");
    assert!(divergent[0].message.contains("lane_energy"), "{diags:#?}");
}

#[test]
fn floats_good_build_invariant_math_is_clean() {
    let diags = check_source("crates/power/src/fixture.rs", &fixture("floats_good.rs"));
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn float_lints_only_cover_the_float_bearing_crates() {
    // The serve crate moves floats around but computes none of the
    // published results itself.
    let diags = check_source("crates/serve/src/fixture.rs", &fixture("floats_bad.rs"));
    assert!(
        diags.iter().all(|d| d.lint != "float_cfg_divergence"),
        "{diags:#?}"
    );
}

#[test]
fn phase_bad_flags_interior_mutability_across_files() {
    let core = SourceFile::parse("crates/sim/src/core/mod.rs", &fixture("phase_bad.rs"));
    let helper = SourceFile::parse("crates/sim/src/func.rs", &fixture("phase_bad_helper.rs"));
    let diags = phase::check(&[&core, &helper]);
    // Interior mutability: the atomic counter in the core file and the
    // Mutex the cross-file kernel reaches; the unreached helper's lock
    // must not fire.
    let interior: Vec<(&str, u32)> = diags
        .iter()
        .filter(|d| d.lint == "phase_interior_mut")
        .map(|d| (d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        interior,
        vec![
            ("crates/sim/src/core/mod.rs", 20),
            ("crates/sim/src/func.rs", 10),
        ],
        "{diags:#?}"
    );
}

#[test]
fn phase_good_buffered_stores_are_clean() {
    let core = SourceFile::parse("crates/sim/src/core/mod.rs", &fixture("phase_good.rs"));
    let diags = phase::check(&[&core]);
    assert!(diags.is_empty(), "{diags:#?}");
}
