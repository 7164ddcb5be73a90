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

use crate::syntax::{Expr, Item, ItemKind, LitKind, Stmt};
use crate::{Diagnostic, SourceFile};

/// Float arithmetic in a `#[cfg]`/`#[target_feature]`-divergent item.
pub const FLOAT_CFG_DIVERGENCE: &str = "float_cfg_divergence";

/// Interned names of float SIMD intrinsics (`_mm*_..._ps/_pd`).
fn float_intrinsic(name: &str) -> bool {
    name.starts_with("_mm") && (name.ends_with("_ps") || name.ends_with("_pd"))
}

/// Whether this fn visibly computes on floats: `f32`/`f64` in the
/// signature, float literals/paths in the body, `mul_add`, or float
/// SIMD intrinsics.
fn fn_does_float_math(item: &Item) -> bool {
    if let Some(sig) = &item.sig {
        let ret_float = sig.ret.iter().any(|t| t == "f32" || t == "f64");
        let param_float = sig
            .params
            .iter()
            .any(|p| p.ty.iter().any(|t| t == "f32" || t == "f64"));
        if ret_float || param_float {
            return true;
        }
    }
    let mut hit = false;
    if let Some(body) = &item.body {
        body.walk_exprs(&mut |e| match e {
            Expr::Lit {
                kind: LitKind::Float,
                ..
            } => hit = true,
            Expr::Path { segs, .. }
                if segs
                    .iter()
                    .any(|s| s == "f32" || s == "f64" || float_intrinsic(s)) =>
            {
                hit = true;
            }
            Expr::MethodCall { method, .. } if method == "mul_add" => hit = true,
            _ => {}
        });
    }
    hit
}

/// Flags float-computing fns that exist only in some builds. One
/// finding per fn, at its declaration line; divergence inherits from
/// enclosing items (a fn inside `#[cfg(target_arch = ...)] mod` is
/// divergent even with clean attributes of its own).
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    fn rec(items: &[Item], in_test: bool, divergent: bool, out: &mut Vec<(u32, String)>) {
        for item in items {
            let in_test = in_test || item.is_test_only();
            let divergent = divergent || item.is_divergent();
            if item.kind == ItemKind::Fn && !in_test && divergent && fn_does_float_math(item) {
                out.push((
                    item.line,
                    item.name.clone().unwrap_or_else(|| "_".to_string()),
                ));
            }
            rec(&item.children, in_test, divergent, out);
            if let Some(body) = &item.body {
                let mut nested = Vec::new();
                body.walk_stmts(&mut |stmt| {
                    if let Stmt::Item(it) = stmt {
                        nested.push(it);
                    }
                });
                for it in nested {
                    rec(std::slice::from_ref(it), in_test, divergent, out);
                }
            }
        }
    }
    let mut hits = Vec::new();
    rec(&file.ast.items, false, false, &mut hits);
    for (line, name) in hits {
        out.push(file.diag(
            line,
            FLOAT_CFG_DIVERGENCE,
            format!(
                "`{name}` computes on floats but only exists under a `#[cfg]`/\
                 `#[target_feature]` gate; builds that take the other path must \
                 produce bit-identical results — add a differential test pinning \
                 both paths and justify with an allow marker"
            ),
        ));
    }
    out
}
