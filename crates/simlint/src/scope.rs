//! Lint-scope discovery from the workspace manifest.
//!
//! Until this module existed, each pass carried a hard-coded directory
//! list — and `crates/trace` shipped a whole binary format before
//! anyone noticed it was missing from every list. Scopes are now
//! derived from the workspace's own `Cargo.toml` members, so a new
//! crate is linted from its first commit and can only leave a scope
//! through an explicit, documented opt-out below.
//!
//! Three kinds of scope exist:
//!
//! * **Discovery-driven** (determinism): every first-party member is in
//!   unless opted out.
//!   Opt-outs: `vendor/*` (third-party API stand-ins, not our code)
//!   and `crates/bench` (reads the wall clock by design — that is its
//!   job). The root meta-crate re-exports only and has no `src`
//!   logic of its own; members under `crates/` are the policy unit.
//! * **Policy lists validated against discovery** (units, float
//!   determinism): widening these is a semantic decision — the
//!   circuit crate, for instance, legitimately computes on raw
//!   capacitance/voltage magnitudes, so auto-widening `raw_unit_math`
//!   to every member would force allows onto code whose job is raw
//!   math. The named crates are intersected with the discovered
//!   member set, so a renamed or deleted crate drops out instead of
//!   lingering as a dead path prefix.
//! * **Fixed file sets** inside one crate: the tick path
//!   ([`tick_path`], hot-path allocation and phase discipline) and the
//!   decode files ([`crate::untrusted::scope`]).

use std::fs;
use std::io;
use std::path::Path;

/// Members the determinism lints never apply to, with the reason a
/// reviewer needs. Everything else discovered under `crates/` is in.
const DETERMINISM_OPT_OUTS: &[(&str, &str)] = &[(
    "bench",
    "benchmarks read the wall clock on purpose; their output is not a \
     simulation result",
)];

/// Crates whose code must keep unit arithmetic inside the
/// `gpusimpow_tech::units` newtypes. Curated, not discovered: see the
/// module docs.
const UNIT_CRATES: &[&str] = &["power", "trace"];

/// Crates whose float arithmetic feeds bit-compared results, for the
/// float-determinism family. Curated for the same reason as
/// [`UNIT_CRATES`].
const FLOAT_CRATES: &[&str] = &["sim", "power", "pm"];

/// The directory holding the SIMT core's per-stage modules.
const SIM_CORE_DIR: &str = "crates/sim/src/core/";

/// The files the per-cycle tick path runs through: everything under
/// `crates/sim/src/core/` plus `crates/sim/src/{func,ldst,wheel}.rs`.
/// The hot-path allocation lint scans their loop bodies; the phase pass
/// walks the tick call graph across them. The core directory matches
/// as a *prefix*, not as a file list, so a further split of the core
/// cannot drop a file out of scope.
pub fn tick_path(rel_path: &str) -> bool {
    rel_path.starts_with(SIM_CORE_DIR)
        || matches!(
            rel_path,
            "crates/sim/src/func.rs" | "crates/sim/src/ldst.rs" | "crates/sim/src/wheel.rs"
        )
}

/// Resolved path-prefix scopes every per-file pass consults.
#[derive(Debug, Clone)]
pub struct ScopeConfig {
    /// `crates/<name>/src/` prefixes in determinism scope.
    pub determinism_prefixes: Vec<String>,
    /// Prefixes in raw-unit-math scope.
    pub units_prefixes: Vec<String>,
    /// Prefixes in float-determinism scope.
    pub float_prefixes: Vec<String>,
}

fn src_prefix(member: &str) -> String {
    format!("{member}/src/")
}

impl ScopeConfig {
    /// The static mirror of the discovered scopes on the current tree.
    /// Fixture tests use this so they stay hermetic (no workspace walk);
    /// `tests/workspace_clean.rs` pins that discovery on the real tree
    /// yields a superset of these prefixes.
    pub fn default_static() -> ScopeConfig {
        ScopeConfig {
            determinism_prefixes: [
                "crates/sim",
                "crates/power",
                "crates/pm",
                "crates/serve",
                "crates/trace",
            ]
            .iter()
            .map(|m| src_prefix(m))
            .collect(),
            units_prefixes: vec![src_prefix("crates/power"), src_prefix("crates/trace")],
            float_prefixes: vec![
                src_prefix("crates/sim"),
                src_prefix("crates/power"),
                src_prefix("crates/pm"),
            ],
        }
    }

    /// Builds the scopes from the workspace manifest at `root`.
    pub fn discover(root: &Path) -> io::Result<ScopeConfig> {
        let members = workspace_members(root)?;
        let crates: Vec<&String> = members
            .iter()
            .filter(|m| m.starts_with("crates/"))
            .collect();
        let name_of = |m: &str| m.strip_prefix("crates/").unwrap_or(m).to_string();
        let determinism_prefixes = crates
            .iter()
            .filter(|m| {
                let name = name_of(m);
                !DETERMINISM_OPT_OUTS.iter().any(|(n, _)| *n == name)
            })
            .map(|m| src_prefix(m))
            .collect();
        let from_list = |list: &[&str]| -> Vec<String> {
            crates
                .iter()
                .filter(|m| list.contains(&name_of(m).as_str()))
                .map(|m| src_prefix(m))
                .collect()
        };
        Ok(ScopeConfig {
            determinism_prefixes,
            units_prefixes: from_list(UNIT_CRATES),
            float_prefixes: from_list(FLOAT_CRATES),
        })
    }

    /// Whether `rel_path` is in determinism scope.
    pub fn determinism(&self, rel_path: &str) -> bool {
        self.determinism_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }

    /// Whether `rel_path` is in raw-unit-math scope.
    pub fn units(&self, rel_path: &str) -> bool {
        self.units_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }

    /// Whether `rel_path` is in float-determinism scope.
    pub fn floats(&self, rel_path: &str) -> bool {
        self.float_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }
}

/// Expands the `[workspace] members` globs of `root/Cargo.toml` into
/// the list of member directories (workspace-relative, `/`-separated),
/// keeping only directories that actually contain a `Cargo.toml`.
pub fn workspace_members(root: &Path) -> io::Result<Vec<String>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut out = Vec::new();
    for pattern in member_patterns(&manifest) {
        if let Some(prefix) = pattern.strip_suffix("/*") {
            let dir = root.join(prefix);
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            let mut found: Vec<String> = entries
                .flatten()
                .filter(|e| e.path().join("Cargo.toml").is_file())
                .map(|e| format!("{prefix}/{}", e.file_name().to_string_lossy()))
                .collect();
            found.sort();
            out.extend(found);
        } else if root.join(&pattern).join("Cargo.toml").is_file() {
            out.push(pattern);
        }
    }
    Ok(out)
}

/// Pulls the string entries of the `members = [...]` array out of a
/// manifest without a TOML dependency. Tolerates line comments and
/// arbitrary line breaking inside the array.
fn member_patterns(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open_rel) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let after_open = &manifest[start + open_rel + 1..];
    let Some(close) = after_open.find(']') else {
        return Vec::new();
    };
    let body = &after_open[..close];
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.split('#').next().unwrap_or("");
        let mut rest = line;
        while let Some(q1) = rest.find('"') {
            let tail = &rest[q1 + 1..];
            let Some(q2) = tail.find('"') else { break };
            out.push(tail[..q2].to_string());
            rest = &tail[q2 + 1..];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch_workspace(name: &str, members_line: &str, crates: &[&str]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("simlint-scope-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            format!("[workspace]\nmembers = {members_line}\n"),
        )
        .unwrap();
        for c in crates {
            let dir = root.join("crates").join(c);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("Cargo.toml"), "[package]\n").unwrap();
        }
        root
    }

    #[test]
    fn new_member_lands_in_determinism_scope_automatically() {
        let root = scratch_workspace(
            "new-member",
            r#"["crates/*"]"#,
            &["sim", "bench", "brandnew"],
        );
        let cfg = ScopeConfig::discover(&root).unwrap();
        // The crate nobody hand-listed is in scope from its first file…
        assert!(cfg.determinism("crates/brandnew/src/lib.rs"), "{cfg:?}");
        assert!(cfg.determinism("crates/sim/src/core/issue.rs"));
        // …while the documented opt-out stays out.
        assert!(!cfg.determinism("crates/bench/src/report.rs"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn curated_scopes_drop_missing_members() {
        let root = scratch_workspace("curated", r#"["crates/*"]"#, &["power", "sim"]);
        let cfg = ScopeConfig::discover(&root).unwrap();
        assert!(cfg.units("crates/power/src/registry.rs"));
        // `trace` is on the curated list but absent from this
        // workspace, so its prefix must not linger.
        assert!(
            !cfg.units_prefixes.iter().any(|p| p.contains("trace")),
            "{cfg:?}"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn member_array_parsing_survives_comments_and_wrapping() {
        let patterns = member_patterns(
            "[workspace]\nmembers = [\n  \"crates/*\", # the real code\n  \"vendor/*\",\n]\n",
        );
        assert_eq!(patterns, ["crates/*", "vendor/*"]);
    }

    #[test]
    fn tick_path_follows_the_core_directory_not_a_file_list() {
        for file in [
            "mod.rs",
            "issue.rs",
            "execute.rs",
            "mem.rs",
            "not_split_yet.rs",
        ] {
            let path = format!("{SIM_CORE_DIR}{file}");
            assert!(tick_path(&path), "{path}");
        }
        // The pre-split single file is gone; nothing may still match it.
        assert!(!tick_path("crates/sim/src/core.rs"));
    }

    #[test]
    fn static_default_matches_curated_lists() {
        let cfg = ScopeConfig::default_static();
        assert!(cfg.determinism("crates/trace/src/wire.rs"));
        assert!(!cfg.determinism("crates/bench/src/report.rs"));
        assert!(cfg.units("crates/trace/src/codec.rs"));
        assert!(!cfg.units("crates/measure/src/fixture.rs"));
        assert!(cfg.floats("crates/pm/src/governor.rs"));
        assert!(!cfg.floats("crates/serve/src/job.rs"));
    }
}
