//! Unit-safety lint: keep energy/power/time math inside the newtypes.
//!
//! `crates/tech` provides `Joules`, `Watts`, `Seconds`, `Volts`,
//! `Hertz` and `Cycles` with exactly the physically meaningful
//! operators (`Energy / Time = Power`, `Cycles / Freq = Time`, …).
//! Dimensional bugs enter when code unwraps a quantity with an
//! extractor like `.watts()` and keeps computing on the raw `f64` —
//! the compiler can no longer see that `joules * hertz` was meant.
//!
//! This pass walks the expression IR and flags an extractor call whose
//! result feeds a `*` or `/` operand: either as the direct left operand
//! of the operator, or anywhere on the receiver-chain spine of the
//! right operand (`2.0 * total(p).watts()` taints `watts` through the
//! chain). A parenthesised extractor — `(p.watts()) * x` — is a
//! deliberate raw-math grouping and is left to the human, exactly as
//! the original token-adjacency pass behaved.
//!
//! Two regions are exempt by construction:
//!
//! * `#[cfg(test)]` / `#[test]` items — assertions legitimately compare
//!   raw magnitudes;
//! * `Display`/`Debug` impls — percent columns and unit formatting are
//!   rendering, not physics, and rewriting them through newtype
//!   division would perturb float bit-identity of committed reports.
//!
//! Anything else needs either a typed rewrite (preferred — see
//! `Voltage::squared` replacing `vdd.volts() * vdd.volts()`) or a
//! justified `// simlint: allow(raw_unit_math): …` marker.

use crate::syntax::{visit_exprs, Expr, Item, ItemKind};
use crate::{Diagnostic, SourceFile};

/// Raw `f64` multiplication/division on an unwrapped unit value.
pub const RAW_UNIT_MATH: &str = "raw_unit_math";

/// Methods that unwrap a `gpusimpow_tech::units` newtype to `f64`.
const EXTRACTORS: &[&str] = &[
    "joules",
    "picojoules",
    "watts",
    "milliwatts",
    "seconds",
    "nanos",
    "millis",
    "hertz",
    "mhz",
    "volts",
    "amperes",
    "farads",
];

/// Whether `e` is a bare extractor call: `.name()` with no arguments.
fn extractor_call(e: &Expr) -> Option<(&str, u32)> {
    if let Expr::MethodCall {
        method, args, line, ..
    } = e
    {
        if args.is_empty() && EXTRACTORS.contains(&method.as_str()) {
            return Some((method.as_str(), *line));
        }
    }
    None
}

/// Extractor calls on the leftmost receiver-chain spine of `e` — the
/// calls whose token stream a left-adjacent operator directly precedes.
/// Parentheses end the spine (their contents are not left-adjacent to
/// anything outside).
fn spine_extractors<'e>(mut e: &'e Expr, out: &mut Vec<(&'e str, u32)>) {
    loop {
        if let Some(hit) = extractor_call(e) {
            out.push(hit);
        }
        e = match e {
            Expr::MethodCall { recv, .. } | Expr::Field { recv, .. } | Expr::Index { recv, .. } => {
                recv
            }
            Expr::Call { callee, .. } => callee,
            Expr::Cast { expr, .. } | Expr::Try { expr, .. } => expr,
            _ => return,
        };
    }
}

/// The exempt regions: test-only items and `Display`/`Debug` impls.
fn exempt(item: &Item) -> bool {
    item.is_test_only()
        || (item.kind == ItemKind::Impl
            && item
                .trait_path
                .as_ref()
                .is_some_and(|tp| tp.iter().any(|s| s == "Display" || s == "Debug")))
}

/// Flags extractor calls feeding raw `*`/`/` arithmetic, outside test
/// items and `Display`/`Debug` impls.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    visit_exprs(&file.ast.items, &exempt, &mut |node| {
        let Expr::Binary {
            op: "*" | "/",
            lhs,
            rhs,
            ..
        } = node
        else {
            return;
        };
        let mut hits = Vec::new();
        // The left operand feeds the operator only when the
        // extractor call itself ends it (`.watts() *`); a `?` or
        // cast in between changes what the operator sees.
        if let Some(hit) = extractor_call(lhs) {
            hits.push(hit);
        }
        // The right operand is tainted along its whole receiver
        // spine: every extractor there has the operator directly to
        // its left.
        spine_extractors(rhs, &mut hits);
        for (method, line) in hits {
            out.push(file.diag(
                line,
                RAW_UNIT_MATH,
                format!(
                    "`.{method}()` unwraps a typed quantity straight into raw f64 \
                         arithmetic; use the newtype operators in \
                         gpusimpow_tech::units (they encode the only physically \
                         meaningful combinations) or justify with an allow marker"
                ),
            ));
        }
    });
    out
}
