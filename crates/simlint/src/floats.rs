//! Float-determinism lint: build-divergent float math.
//!
//! The workspace's bit-identity contract (EXPERIMENTS.md is
//! byte-compared; accelerated and dense loops, and every `SimPool`
//! width, must agree bit for bit) makes floating-point arithmetic
//! sensitive to *which code* computes it, not just to its inputs.
//! [`FLOAT_CFG_DIVERGENCE`] flags float arithmetic inside an item that
//! only exists in some builds — `#[cfg(...)]` or `#[target_feature]`
//! paths. Two hosts taking different branches of a `cfg` must still
//! produce identical floats; any divergent float kernel needs a marker
//! pointing at the test that pins both paths to the same bits (see
//! `eval_ffma_lanes`' hardware-vs-libm differential test). No other
//! instrument can see this: CI runs one host, so it only ever tests one
//! side of the `cfg`.
//!
//! Scope: the float-bearing result crates, `crates/{sim,power,pm}`
//! (see [`crate::scope`]). Test items are exempt.

use crate::lexer::{own_body, ItemKind, TokKind, Token};
use crate::{Diagnostic, SourceFile};

/// Float arithmetic in a `#[cfg]`/`#[target_feature]`-divergent item.
pub const FLOAT_CFG_DIVERGENCE: &str = "float_cfg_divergence";

/// Whether `t` is float math on sight: `f32`/`f64`, `mul_add`, a
/// float SIMD intrinsic (`_mm*_..._ps/_pd`) or a float literal.
fn is_float(t: &Token) -> bool {
    match t.kind {
        TokKind::Ident => {
            matches!(t.text.as_str(), "f32" | "f64" | "mul_add")
                || (t.text.starts_with("_mm")
                    && (t.text.ends_with("_ps") || t.text.ends_with("_pd")))
        }
        TokKind::Num => {
            let lower = t.text.to_ascii_lowercase();
            !lower.starts_with("0x")
                && !lower.starts_with("0b")
                && !lower.starts_with("0o")
                && (lower.ends_with("f32")
                    || lower.ends_with("f64")
                    || lower.contains('.')
                    || lower.contains('e'))
        }
        _ => false,
    }
}

/// Flags float-computing fns that exist only in some builds: a float
/// token in the signature or in the body outside nested items. One
/// finding per fn, at its `fn` line; divergence inherits from
/// enclosing items (a fn inside `#[cfg(target_arch = ...)] mod` is
/// divergent even with clean attributes of its own).
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for (i, item) in file.items.iter().enumerate() {
        if item.kind != ItemKind::Fn || item.test || !item.divergent {
            continue;
        }
        if !item
            .head
            .clone()
            .chain(own_body(&file.items, i))
            .any(|j| is_float(&toks[j]))
        {
            continue;
        }
        out.push(file.diag(
            item.line,
            FLOAT_CFG_DIVERGENCE,
            format!(
                "`{}` computes on floats but only exists under a `#[cfg]`/\
                 `#[target_feature]` gate; builds that take the other path must \
                 produce bit-identical results — add a differential test pinning \
                 both paths and justify with an allow marker",
                item.name
            ),
        ));
    }
    out
}
