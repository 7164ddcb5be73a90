//! Float-determinism lints: reduction order and build-divergent math.
//!
//! The workspace's bit-identity contract (EXPERIMENTS.md is
//! byte-compared; accelerated and dense loops, and every `SimPool`
//! width, must agree bit for bit) makes floating-point arithmetic
//! order-sensitive in a way integer code is not:
//! `(a + b) + c != a + (b + c)` for floats, so the *order* of a
//! reduction is part of the result. Two ways order sneaks out from
//! under the determinism lints:
//!
//! * [`FLOAT_REDUCE_ORDER`]: a float `sum`/`product`/`fold`/`reduce`
//!   whose iteration source does not guarantee an order — map
//!   `values()`/`keys()` views, parallel iterators, channel drains.
//!   The collection types may themselves be allowed (a `BTreeMap` is
//!   deterministic), but a reduction spelled over an order-ambiguous
//!   view deserves a justified marker saying why the order is fixed.
//! * [`FLOAT_CFG_DIVERGENCE`]: float arithmetic inside an item that
//!   only exists in some builds — `#[cfg(...)]` or
//!   `#[target_feature]` paths. Two hosts taking different branches of
//!   a `cfg` must still produce identical floats; any divergent float
//!   kernel needs a marker pointing at the test that pins both paths
//!   to the same bits (see `eval_ffma_lanes`' hardware-vs-libm
//!   differential test).
//!
//! Scope: the float-bearing result crates, `crates/{sim,power,pm}`
//! (see [`crate::scope`]). Test items are exempt.

use crate::syntax::{exempt_item, visit_exprs, Expr, Item, ItemKind, LitKind, Stmt};
use crate::{Diagnostic, SourceFile};

/// Float reduction over an iteration with no guaranteed order.
pub const FLOAT_REDUCE_ORDER: &str = "float_reduce_order";
/// Float arithmetic in a `#[cfg]`/`#[target_feature]`-divergent item.
pub const FLOAT_CFG_DIVERGENCE: &str = "float_cfg_divergence";

/// Reduction methods whose result depends on iteration order for
/// floats.
const REDUCERS: &[&str] = &["sum", "product", "fold", "reduce"];

/// Iteration sources that do not promise a stable order at the call
/// site.
const UNORDERED_SOURCES: &[&str] = &[
    "values",
    "keys",
    "into_values",
    "into_keys",
    "par_iter",
    "into_par_iter",
    "par_bridge",
    "try_iter",
];

/// Whether `e` mentions float-typed computation: an `f32`/`f64` path
/// segment or a float literal anywhere inside.
fn mentions_float(e: &Expr) -> bool {
    let mut hit = false;
    e.walk(&mut |node| match node {
        Expr::Lit {
            kind: LitKind::Float,
            ..
        } => hit = true,
        Expr::Path { segs, .. } if segs.iter().any(|s| s == "f32" || s == "f64") => hit = true,
        _ => {}
    });
    hit
}

/// Whether a reducer call is a *float* reduction: float turbofish
/// (`sum::<f64>()`) or float-mentioning arguments
/// (`fold(f64::NAN, ...)`, `fold(0.0, ...)`).
fn float_reducer(turbofish: &[String], args: &[Expr]) -> bool {
    turbofish.iter().any(|t| t == "f32" || t == "f64") || args.iter().any(mentions_float)
}

/// Flags order-ambiguous float reductions.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    visit_exprs(
        &file.ast.items,
        &|item| exempt_item(item, false),
        &mut |node| {
            let Expr::MethodCall {
                recv,
                method,
                turbofish,
                args,
                line,
            } = node
            else {
                return;
            };
            if !REDUCERS.contains(&method.as_str()) || !float_reducer(turbofish, args) {
                return;
            }
            let mut unordered: Option<&str> = None;
            recv.walk(&mut |r| {
                if let Expr::MethodCall { method, .. } = r {
                    if UNORDERED_SOURCES.contains(&method.as_str()) {
                        unordered = Some(method.as_str());
                    }
                }
            });
            if let Some(src) = unordered {
                out.push(file.diag(
                    *line,
                    FLOAT_REDUCE_ORDER,
                    format!(
                        "float `.{method}()` reduces over `.{src}()`, whose iteration \
                         order is not guaranteed at this call site; float addition is \
                         not associative, so fix the order (collect + sort, or index \
                         order) or justify why it is already stable"
                    ),
                ));
            }
        },
    );
    out.extend(divergence(file));
    out
}

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
fn divergence(file: &SourceFile) -> Vec<Diagnostic> {
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
