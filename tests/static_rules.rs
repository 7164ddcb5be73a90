//! Source rules that neither rustc nor clippy can hold on their own.
//!
//! * **No build-divergent float code.** `EXPERIMENTS.md`, the golden
//!   pins and every `SimPool` width compare floats bit for bit, so the
//!   result crates (`crates/{sim,power,pm}/src`) must compute the same
//!   code on every host. A `cfg(..)`, `cfg!(..)`, `cfg_attr(..)` other
//!   than `cfg(test)`, or a `target_feature` there takes a path that CI,
//!   running one host, tests only one side of. The only such sites are
//!   the three of the AVX+FMA row kernel in `crates/sim/src/func.rs`,
//!   which `func::tests::ffma_rows_match_scalar_at_every_length` pins
//!   bit for bit to the scalar fallback.
//! * **Nested clippy configs repeat the root.** Clippy reads only the
//!   nearest `clippy.toml`, so `crates/sim/clippy.toml` (interior
//!   mutability) and `crates/power/clippy.toml` (unit extractors)
//!   replace the root file for their crates. Each must keep every
//!   banned path of the root, in the same list, and every
//!   `allow-*-in-tests` key, or the determinism and decode rules
//!   silently weaken in exactly those two crates.
//!
//! Both are text searches: no parser, no dependency.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose floats feed bit-compared results.
const FLOAT_CRATES: &[&str] = &["crates/sim", "crates/power", "crates/pm"];

/// The one file allowed build-divergent code, and how many sites it has:
/// the `cfg(target_arch)` on the call in `eval_ffma_lanes`, the one on
/// `mod fma_x86`, and `ffma_rows`' `target_feature`.
const DIVERGENT_FILE: &str = "crates/sim/src/func.rs";
const DIVERGENT_SITES: usize = 3;

/// The nested clippy configs that must repeat the root one.
const NESTED_CLIPPY: &[&str] = &["crates/sim/clippy.toml", "crates/power/clippy.toml"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The build-divergent attributes and macros in one line of code (its
/// `//` comment already cut off): `cfg(`, `cfg!(` and `cfg_attr(`
/// except `cfg(test)`, and `target_feature`.
fn divergent_in(code: &str) -> Vec<&'static str> {
    let mut found = Vec::new();
    for (at, _) in code
        .match_indices("cfg")
        .chain(code.match_indices("target_feature"))
    {
        if code[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let rest = &code[at..];
        if let Some(after) = rest.strip_prefix("target_feature") {
            if !after.starts_with(is_ident) {
                found.push("target_feature");
            }
            continue;
        }
        let Some(rest) = rest.strip_prefix("cfg") else {
            continue;
        };
        let kind = ["(", "!(", "_attr("]
            .into_iter()
            .find(|open| rest.trim_start().starts_with(open));
        match kind {
            Some("(") if rest.trim_start().starts_with("(test)") => {}
            Some("(") => found.push("cfg("),
            Some("!(") => found.push("cfg!("),
            Some(_) => found.push("cfg_attr("),
            None => {}
        }
    }
    found
}

#[test]
fn float_crates_have_no_build_divergent_code() {
    let mut sites = Vec::new();
    for krate in FLOAT_CRATES {
        let mut files = Vec::new();
        rust_files(&root().join(krate).join("src"), &mut files);
        assert!(!files.is_empty(), "{krate}/src holds no Rust files");
        for path in files {
            let rel = path
                .strip_prefix(root())
                .expect("under the repo root")
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&path).expect("readable source");
            for (n, line) in text.lines().enumerate() {
                let code = line.split("//").next().unwrap_or_default();
                for what in divergent_in(code) {
                    sites.push((rel.clone(), n + 1, what, line.trim().to_string()));
                }
            }
        }
    }
    let listing = sites
        .iter()
        .map(|(file, n, what, line)| format!("  {file} line {n}: {what} in `{line}`"))
        .collect::<Vec<_>>()
        .join("\n");
    let elsewhere = sites.iter().filter(|s| s.0 != DIVERGENT_FILE).count();
    let allowed = sites.len() - elsewhere;
    assert!(
        elsewhere == 0 && allowed == DIVERGENT_SITES,
        "build-divergent code in the float crates: expected exactly the \
         {DIVERGENT_SITES} sites of {DIVERGENT_FILE}, found:\n{listing}\n\
         Every host must compute the same floats. A new divergent path needs \
         a differential test pinning both sides bit for bit, and this count \
         raised in the same diff."
    );
}

#[test]
fn divergence_scan_sees_every_form() {
    assert_eq!(divergent_in(r#"#[cfg(target_arch = "x86_64")]"#), ["cfg("]);
    assert_eq!(divergent_in("if cfg!(windows) {"), ["cfg!("]);
    assert_eq!(divergent_in("#[cfg_attr(unix, inline)]"), ["cfg_attr("]);
    assert_eq!(
        divergent_in(r#"#[target_feature(enable = "avx")]"#),
        ["target_feature"]
    );
    assert_eq!(divergent_in("#[cfg(test)]"), Vec::<&str>::new());
    assert_eq!(divergent_in("let cfg = gpu_cfg(x);"), Vec::<&str>::new());
    assert_eq!(divergent_in("#[cfg(all(test, unix))]"), ["cfg("]);
}

/// `(list, path)` for every `path = ".."` entry of a clippy config, with
/// the `disallowed-*` list it sits in, and every `allow-*-in-tests`
/// setting as `("key=value", "")`.
fn clippy_entries(text: &str) -> Vec<(String, String)> {
    let mut list = String::new();
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_suffix("= [") {
            list = name.trim().to_string();
        } else if line == "]" {
            list.clear();
        } else if let Some(rest) = line.split("path = \"").nth(1) {
            let path = rest.split('"').next().unwrap_or_default();
            out.push((list.clone(), path.to_string()));
        } else if line.starts_with("allow-") && line.contains("-in-tests") {
            out.push((line.split_whitespace().collect(), String::new()));
        }
    }
    out
}

#[test]
fn nested_clippy_configs_repeat_the_root() {
    let root_entries = clippy_entries(&fs::read_to_string(root().join("clippy.toml")).unwrap());
    assert!(
        root_entries
            .iter()
            .any(|(list, _)| list == "disallowed-types")
            && root_entries.iter().any(|(_, path)| path.is_empty()),
        "the root clippy.toml parsed to nothing useful: {root_entries:?}"
    );
    let mut missing = Vec::new();
    for nested in NESTED_CLIPPY {
        let text =
            fs::read_to_string(root().join(nested)).unwrap_or_else(|e| panic!("{nested}: {e}"));
        let entries = clippy_entries(&text);
        for entry in &root_entries {
            if !entries.contains(entry) {
                missing.push(format!("  {nested}: {} {}", entry.0, entry.1));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "clippy reads only the nearest clippy.toml, so these root entries \
         are not enforced in their crate:\n{}",
        missing.join("\n")
    );
}
