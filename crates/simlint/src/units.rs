//! Unit-safety lint: keep energy/power/time math inside the newtypes.
//!
//! `crates/tech` provides `Joules`, `Watts`, `Seconds`, `Volts`,
//! `Hertz` and `Cycles` with exactly the physically meaningful
//! operators (`Energy / Time = Power`, `Cycles / Freq = Time`, …).
//! Dimensional bugs enter when code unwraps a quantity with an
//! extractor like `.watts()` and keeps computing on the raw `f64` —
//! the compiler can no longer see that `joules * hertz` was meant.
//!
//! This pass flags an extractor call whose result feeds a `*` or `/`
//! operand: either as the direct left operand of the operator (the
//! call's `)` is the token before it), or anywhere on the postfix chain
//! that starts the right operand (`2.0 * total(p).watts()` taints
//! `watts` through the chain). A parenthesised extractor — `(p.watts())
//! * x` — is a deliberate raw-math grouping and is left to the human,
//! and so is one behind a `?`, a cast or a unary operator.
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

use std::collections::BTreeSet;

use crate::lexer::{Item, ItemKind, Lexed, TokKind};
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

/// Whether tokens `i..i + 3` are a bare extractor call `name()`.
fn extractor_call(lx: &Lexed, i: usize) -> bool {
    EXTRACTORS.contains(&lx.text(i)) && lx.text(i + 1) == "(" && lx.text(i + 2) == ")"
}

/// Whether the `*` or `/` at `i` is a binary multiply or divide: not a
/// compound assignment, and a `*` must follow an operand (otherwise it
/// is a dereference or a raw-pointer type).
fn mul_or_div(lx: &Lexed, i: usize) -> bool {
    let op = &lx.tokens[i];
    if op.kind != TokKind::Punct || !matches!(op.text.as_str(), "*" | "/") || lx.text(i + 1) == "="
    {
        return false;
    }
    op.text == "/"
        || i.checked_sub(1).is_some_and(|p| {
            let prev = &lx.tokens[p];
            match prev.kind {
                TokKind::Ident => !matches!(
                    prev.text.as_str(),
                    "as" | "return" | "in" | "match" | "if" | "while" | "mut"
                ),
                TokKind::Num | TokKind::Str | TokKind::Char => true,
                TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                TokKind::Lifetime => false,
            }
        })
}

/// Index just past a `<...>` generic list starting at `i`.
fn skip_angles(lx: &Lexed, mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < lx.tokens.len() {
        match lx.text(i) {
            "<" => depth += 1,
            ">" if lx.text(i - 1) != "-" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index just past a path starting at `i`: `a::b::<T>::c`.
fn skip_path(lx: &Lexed, mut i: usize) -> usize {
    i += 1;
    while lx.text(i) == ":" && lx.text(i + 1) == ":" {
        i = if lx.text(i + 2) == "<" {
            skip_angles(lx, i + 2)
        } else {
            i + 3
        };
    }
    i
}

/// Extractor calls on the postfix chain of the operand starting at `i`
/// — a path, literal, macro call or bracket group, then any `.field`,
/// `.method(..)`, `(..)`, `[..]`, `?` and `as Type`. A prefix operator
/// ends the chain before it starts.
fn spine_extractors(lx: &Lexed, mut i: usize, out: &mut BTreeSet<usize>) {
    let Some(first) = lx.tokens.get(i) else {
        return;
    };
    i = match first.kind {
        TokKind::Ident => {
            let end = skip_path(lx, i);
            if lx.text(end) == "!" && matches!(lx.text(end + 1), "(" | "[" | "{") {
                lx.skip_group(end + 1)
            } else {
                end
            }
        }
        TokKind::Num | TokKind::Str | TokKind::Char => i + 1,
        TokKind::Punct if matches!(first.text.as_str(), "(" | "[") => lx.skip_group(i),
        _ => return,
    };
    loop {
        match lx.text(i) {
            "." => {
                let name = i + 1;
                i += 2;
                if lx.text(i) == ":" && lx.text(i + 1) == ":" {
                    i = skip_angles(lx, i + 2);
                }
                if lx.text(i) == "(" {
                    if extractor_call(lx, name) {
                        out.insert(name);
                    }
                    i = lx.skip_group(i);
                }
            }
            "(" | "[" => i = lx.skip_group(i),
            "?" => i += 1,
            "as" => i = skip_path(lx, i + 1),
            _ => return,
        }
    }
}

/// The exempt regions: test-only items and `Display`/`Debug` impls.
fn exempt(lx: &Lexed, item: &Item) -> bool {
    item.test
        || (item.kind == ItemKind::Impl
            && item
                .head
                .clone()
                .take_while(|&i| lx.text(i) != "for")
                .any(|i| matches!(lx.text(i), "Display" | "Debug")))
}

/// Flags extractor calls feeding raw `*`/`/` arithmetic, outside test
/// items and `Display`/`Debug` impls.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let lx = &file.lexed;
    let exempt: Vec<_> = file
        .items
        .iter()
        .filter(|item| exempt(lx, item))
        .map(|item| item.span.clone())
        .collect();
    let mut hits = BTreeSet::new();
    for op in 0..lx.tokens.len() {
        if !mul_or_div(lx, op) || exempt.iter().any(|r| r.contains(&op)) {
            continue;
        }
        // The left operand feeds the operator only when the extractor
        // call itself ends it (`.watts() *`); a `?` or cast in between
        // changes what the operator sees.
        if op >= 4 && lx.text(op - 4) == "." && extractor_call(lx, op - 3) {
            hits.insert(op - 3);
        }
        // The right operand is tainted along its whole postfix chain.
        spine_extractors(lx, op + 1, &mut hits);
    }
    hits.into_iter()
        .map(|i| {
            file.diag(
                lx.tokens[i].line,
                RAW_UNIT_MATH,
                format!(
                    "`.{}()` unwraps a typed quantity straight into raw f64 \
                     arithmetic; use the newtype operators in \
                     gpusimpow_tech::units (they encode the only physically \
                     meaningful combinations) or justify with an allow marker",
                    lx.tokens[i].text
                ),
            )
        })
        .collect()
}
