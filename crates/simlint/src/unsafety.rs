//! Unsafe audit: every `unsafe` documented, inventoried in `UNSAFE.md`.
//!
//! The workspace contains almost no unsafe code (the AVX row kernels
//! of `crates/sim/src/func.rs` and a counting allocator in one test),
//! and the audit keeps it that way by construction:
//!
//! * every `unsafe` keyword must carry a `// SAFETY:` comment within
//!   the five preceding lines ([`UNDOCUMENTED_UNSAFE`]);
//! * the complete inventory — file, ordinal, and the SAFETY summary —
//!   is regenerated on every run and compared against the checked-in
//!   `UNSAFE.md` ([`UNSAFE_MANIFEST_DRIFT`]). New unsafe code therefore
//!   cannot merge without a reviewable manifest diff.
//!
//! The manifest deliberately records no line numbers: unrelated edits
//! above an unsafe block must not churn it. What it pins is the *set*
//! of audited sites and their justifications.

use crate::lexer::TokKind;
use crate::{Diagnostic, SourceFile};

/// An `unsafe` keyword with no `// SAFETY:` comment directly above it.
pub const UNDOCUMENTED_UNSAFE: &str = "undocumented_unsafe";
/// `UNSAFE.md` no longer matches the regenerated inventory.
pub const UNSAFE_MANIFEST_DRIFT: &str = "unsafe_manifest_drift";

/// How many lines above an `unsafe` keyword its SAFETY comment may
/// end. Five fits a one-line `unsafe` header plus rustfmt-wrapped
/// attribute lines without letting a stale comment from a different
/// item count.
const SAFETY_WINDOW: u32 = 5;

/// One `unsafe` keyword found in a file.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the keyword (diagnostics only; not in the
    /// manifest).
    pub line: u32,
    /// First line of the adjacent `SAFETY:` comment, normalised, or
    /// `None` when undocumented.
    pub doc: Option<String>,
}

/// Extracts the text after `SAFETY:` on its first line, stripped of
/// comment decorations.
fn safety_summary(comment: &str) -> String {
    let Some(pos) = comment.find("SAFETY:") else {
        return String::new();
    };
    let rest = &comment[pos + "SAFETY:".len()..];
    let first = rest.lines().next().unwrap_or("");
    first.trim().trim_end_matches("*/").trim().to_string()
}

/// Every `unsafe` keyword in `file`, paired with its SAFETY summary
/// when one is adjacent.
pub fn sites(file: &SourceFile) -> Vec<UnsafeSite> {
    let mut out = Vec::new();
    for t in &file.lexed.tokens {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let doc = file
            .lexed
            .comments
            .iter()
            .rfind(|c| {
                c.text.contains("SAFETY:")
                    && c.line_end <= t.line
                    && c.line_end + SAFETY_WINDOW >= t.line
            })
            .map(|c| safety_summary(&c.text));
        out.push(UnsafeSite { line: t.line, doc });
    }
    out
}

/// Flags undocumented sites.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    sites(file)
        .into_iter()
        .filter(|s| s.doc.is_none())
        .map(|s| {
            file.diag(
                s.line,
                UNDOCUMENTED_UNSAFE,
                "`unsafe` without a `// SAFETY:` comment in the preceding \
                 five lines; state the invariant that makes this sound"
                    .to_string(),
            )
        })
        .collect()
}

/// Renders the canonical `UNSAFE.md` from per-file site lists (paths
/// must already be sorted; [`crate::run_workspace`] walks in sorted
/// order).
pub fn manifest(files: &[(String, Vec<UnsafeSite>)]) -> String {
    let total: usize = files.iter().map(|(_, s)| s.len()).sum();
    let mut out = String::from(
        "# Unsafe-code inventory\n\
         \n\
         Generated by `cargo run -p simlint -- --update-unsafe-manifest`.\n\
         CI runs simlint as a blocking job, and a stale copy of this file\n\
         fails it (`unsafe_manifest_drift`) — so `unsafe` code can only\n\
         land together with a reviewable diff of this inventory. Entries\n\
         carry the first line of each site's mandatory `// SAFETY:`\n\
         comment; line numbers are deliberately omitted so unrelated\n\
         edits do not churn the manifest.\n",
    );
    out.push_str(&format!(
        "\nTotal `unsafe` keywords in first-party code: {total}\n"
    ));
    for (path, sites) in files {
        out.push_str(&format!("\n## {path}\n\n"));
        for (i, site) in sites.iter().enumerate() {
            match &site.doc {
                Some(doc) => out.push_str(&format!("{}. SAFETY: {}\n", i + 1, doc)),
                None => out.push_str(&format!(
                    "{}. UNDOCUMENTED (fails `undocumented_unsafe`)\n",
                    i + 1
                )),
            }
        }
    }
    out
}
