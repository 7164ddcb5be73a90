//! simlint — the workspace invariant checker.
//!
//! `rustc`, clippy and the test suite enforce a great deal; this crate
//! keeps only the *simulator's* rules that none of them can see. A lint
//! stays only while a seeded violation of its rule gets through
//! `cargo build`, `cargo clippy -D warnings` and `cargo test
//! --workspace` but not simlint (DESIGN.md §14). Determinism (no
//! hash-ordered collections, no wall clock) and panic-free decoding are
//! clippy's: the root `clippy.toml` and the `#![deny]` list at the top
//! of each decode module. simlint is dependency-free: a
//! comment/string-aware lexer ([`lexer`]) yields tokens, bracket
//! partners and item extents, and every pass reads those. The unit and
//! float scopes are curated crate lists ([`scope`]).
//!
//! * **Float determinism** ([`floats`]): `#[cfg]`-divergent kernels
//!   must not do float math unless pinned bit-identical to the
//!   fallback (`float_cfg_divergence`).
//! * **Phase discipline** ([`phase`]): the compute phase of the
//!   two-phase core step — everything reachable from `tick`,
//!   cross-file — must not touch interior mutability
//!   (`phase_interior_mut`).
//! * **Unit safety** ([`units`]): energy/power/time arithmetic in the
//!   power model must stay inside the `gpusimpow_tech::units` newtypes;
//!   unwrapping to raw `f64` mid-computation is where dimensional bugs
//!   hide.
//! * **Unsafe audit** ([`unsafety`]): every `unsafe` keyword needs a
//!   `// SAFETY:` comment, and the full inventory is checked into
//!   `UNSAFE.md` so new unsafe code cannot land without a reviewed
//!   manifest diff.
//!
//! Run it as `cargo run -p simlint` from the workspace root; it prints
//! `file:line: lint: message` per finding and exits non-zero when
//! anything fires. Findings are suppressed per site with a justified
//! marker comment:
//!
//! ```text
//! // simlint: allow(raw_unit_math): percent column of a report,
//! // rendering rather than physics.
//! ```
//!
//! A marker without the `: reason` tail is itself a finding
//! (`missing_justification`), and a marker naming a lint that does not
//! exist — including one that moved to clippy — is `unknown_lint`, so
//! suppressions cannot rot silently.

pub mod floats;
pub mod lexer;
pub mod phase;
pub mod scope;
pub mod units;
pub mod unsafety;

use lexer::{items, lex, Item, Lexed};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Every lint simlint can emit, for `allow(...)` name validation.
pub const LINTS: &[&str] = &[
    units::RAW_UNIT_MATH,
    unsafety::UNDOCUMENTED_UNSAFE,
    unsafety::UNSAFE_MANIFEST_DRIFT,
    floats::FLOAT_CFG_DIVERGENCE,
    phase::PHASE_INTERIOR_MUT,
    MISSING_JUSTIFICATION,
    UNKNOWN_LINT,
];

/// An `allow` marker whose `: reason` tail is missing or empty.
pub const MISSING_JUSTIFICATION: &str = "missing_justification";
/// An `allow` marker naming a lint simlint does not define.
pub const UNKNOWN_LINT: &str = "unknown_lint";

/// One finding, printed as `file:line: lint: message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Stable lint name (one of [`LINTS`]).
    pub lint: &'static str,
    /// Human explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A parsed `// simlint: allow(lint): reason` marker.
#[derive(Debug, Clone)]
struct Allow {
    lint: String,
    /// Line the marker itself is on (for diagnostics about the marker).
    line: u32,
    /// Last line of the enclosing comment block; the marker suppresses
    /// from its own line through `extent + 1`, so it works trailing the
    /// offending code or above it, even with a wrapped reason.
    extent: u32,
    has_reason: bool,
}

/// One lexed source file plus its suppression markers — the input every
/// per-file pass consumes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Token and comment streams.
    pub lexed: Lexed,
    /// Every `fn`/`impl`/`mod`/`trait` of the file ([`lexer::items`]).
    pub(crate) items: Vec<Item>,
    allows: Vec<Allow>,
}

const ALLOW_PREFIX: &str = "simlint: allow(";

impl SourceFile {
    /// Lexes `src` and collects its `allow` markers.
    ///
    /// A marker must *start* its comment line (`// simlint: allow(x):
    /// reason`); the lint name in running prose — like this sentence —
    /// is not a marker. The reason may wrap onto following comment
    /// lines; only the first must be non-empty.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let mut allows = Vec::new();
        for c in &lexed.comments {
            for (idx, raw_line) in c.text.lines().enumerate() {
                // Strip exactly one comment introducer, so a marker
                // quoted inside doc text (`//! // simlint: ...`) still
                // leads with `//` afterwards and is ignored.
                let mut body = raw_line.trim_start();
                if let Some(stripped) = body.strip_prefix("//") {
                    body = stripped.strip_prefix(['!', '/']).unwrap_or(stripped);
                } else if let Some(stripped) = body.strip_prefix("/*") {
                    body = stripped.strip_prefix(['!', '*']).unwrap_or(stripped);
                }
                let Some(rest) = body.trim_start().strip_prefix(ALLOW_PREFIX) else {
                    continue;
                };
                let Some(close) = rest.find(')') else {
                    continue;
                };
                let lint = rest[..close].trim().to_string();
                let tail = rest[close + 1..].trim_start();
                let has_reason = tail
                    .strip_prefix(':')
                    .is_some_and(|r| !r.trim_matches(['/', '*', ' ']).is_empty());
                allows.push(Allow {
                    lint,
                    line: c.line_start + idx as u32,
                    extent: c.line_end,
                    has_reason,
                });
            }
        }
        SourceFile {
            rel_path: rel_path.to_string(),
            items: items(&lexed),
            lexed,
            allows,
        }
    }

    /// Builds a diagnostic against this file.
    pub(crate) fn diag(&self, line: u32, lint: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.rel_path.clone(),
            line,
            lint,
            message,
        }
    }

    /// Whether a justified marker suppresses `lint` on `line`.
    fn allowed(&self, lint: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.has_reason && a.lint == lint && a.line <= line && line <= a.extent + 1)
    }

    /// Findings about the markers themselves. Never suppressible.
    fn marker_diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for a in &self.allows {
            if !LINTS.contains(&a.lint.as_str()) {
                out.push(self.diag(
                    a.line,
                    UNKNOWN_LINT,
                    format!(
                        "allow marker names `{}`, which is not a simlint lint",
                        a.lint
                    ),
                ));
            }
            if !a.has_reason {
                out.push(self.diag(
                    a.line,
                    MISSING_JUSTIFICATION,
                    format!(
                        "allow({}) needs a `: reason` tail — unexplained suppressions rot",
                        a.lint
                    ),
                ));
            }
        }
        out
    }
}

/// Runs every per-file pass applicable to `rel_path` on `src` and
/// returns the surviving (non-suppressed) findings. This is the entry
/// point the fixture tests drive.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    check_file(&SourceFile::parse(rel_path, src))
}

/// Every per-file pass applicable to `file`, with suppressions applied
/// and marker findings added.
fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let rel_path = file.rel_path.as_str();
    let mut raw = Vec::new();
    if scope::units(rel_path) {
        raw.extend(units::check(file));
    }
    if scope::floats(rel_path) {
        raw.extend(floats::check(file));
    }
    raw.extend(unsafety::check(file));
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| !file.allowed(d.lint, d.line))
        .collect();
    out.extend(file.marker_diagnostics());
    out
}

/// Everything one workspace run produces.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Surviving findings across all passes, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// The regenerated `UNSAFE.md` content (what the checked-in file
    /// must equal).
    pub unsafe_manifest: String,
    /// Number of `.rs` files checked.
    pub files_checked: usize,
}

/// Relative `/`-separated path of `path` under `root`.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Every first-party `.rs` file under `dir`, in sorted path order:
/// build outputs (`target`), vendored stand-ins (`vendor`), `.git` and
/// simlint's own lint fixtures (`fixtures`) are skipped.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| Ok(e?.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git" | "fixtures") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Checks the whole workspace rooted at `root`: every file
/// `collect_rs_files` yields, parsed once and handed to every pass,
/// the cross-file phase pass over the tick path, and `UNSAFE.md` drift.
pub fn run_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;

    let mut diagnostics = Vec::new();
    let mut unsafe_files = Vec::new();
    let mut phase_files = Vec::new();

    for path in &paths {
        let rel_path = rel(root, path);
        let file = SourceFile::parse(&rel_path, &fs::read_to_string(path)?);
        diagnostics.extend(check_file(&file));
        let sites = unsafety::sites(&file);
        if !sites.is_empty() {
            unsafe_files.push((rel_path.clone(), sites));
        }
        if scope::tick_path(&rel_path) {
            phase_files.push(file);
        }
    }

    let phase_refs: Vec<&SourceFile> = phase_files.iter().collect();
    diagnostics.extend(phase::check(&phase_refs));

    let unsafe_manifest = unsafety::manifest(&unsafe_files);
    let on_disk = fs::read_to_string(root.join("UNSAFE.md")).unwrap_or_default();
    if on_disk != unsafe_manifest {
        diagnostics.push(Diagnostic {
            file: "UNSAFE.md".to_string(),
            line: 1,
            lint: unsafety::UNSAFE_MANIFEST_DRIFT,
            message: "inventory is stale; regenerate with \
                      `cargo run -p simlint -- --update-unsafe-manifest` \
                      and commit the diff"
                .to_string(),
        });
    }

    Ok(WorkspaceReport {
        diagnostics,
        unsafe_manifest,
        files_checked: paths.len(),
    })
}
