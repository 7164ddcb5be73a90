//! Determinism lints: no hash-ordered collections, no wall clock.
//!
//! The workspace's headline contract is that a simulation run is a pure
//! function of its inputs — `EXPERIMENTS.md` is regenerated in CI and
//! byte-compared, and the equivalence tests compare accelerated, dense
//! and replayed runs bit for bit. Two std features silently break
//! that:
//!
//! * `HashMap`/`HashSet` iteration order depends on `RandomState`'s
//!   per-process seed, so any drain/iterate over one injects run-to-run
//!   noise (this bit `StreamingCore::commit_stores` once already).
//! * `Instant`/`SystemTime`/`thread::current()` import host-machine
//!   state; simulated time must come from the cycle counters.
//!
//! Scope: every workspace member discovered from the root manifest
//! (see [`crate::scope`]), minus the documented opt-outs —
//! `crates/bench` legitimately reads the wall clock.
//!
//! Deliberately a *token* pass, not an IR pass: a `HashMap` in a
//! struct field, a type alias, or a generic bound is just as
//! order-unstable as one in an expression, and the item IR skips type
//! positions by design. Scanning every identifier token catches all
//! of them at the cost of also flagging mentions in type context —
//! which is exactly the coverage this lint wants.

use crate::lexer::TokKind;
use crate::{Diagnostic, SourceFile};

/// `HashMap`/`HashSet` named in result-bearing code.
pub const NONDETERMINISTIC_COLLECTION: &str = "nondeterministic_collection";
/// Wall-clock or thread-identity access in result-bearing code.
pub const WALL_CLOCK: &str = "wall_clock";

/// Runs both determinism lints over one file's token stream. The whole
/// file is in scope — tests included, since a flaky test is still
/// nondeterminism.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => out.push(file.diag(
                t.line,
                NONDETERMINISTIC_COLLECTION,
                format!(
                    "`{}` iteration order varies per process (seeded `RandomState`); \
                     use `BTreeMap`/`BTreeSet` or an index-keyed `Vec` so results \
                     stay bit-identical",
                    t.text
                ),
            )),
            "Instant" | "SystemTime" => out.push(file.diag(
                t.line,
                WALL_CLOCK,
                format!(
                    "`{}` reads host time; simulated time must come from the \
                     cycle counters (move timing code to crates/bench)",
                    t.text
                ),
            )),
            "thread"
                if toks.get(i + 1).is_some_and(|t| t.text == ":")
                    && toks.get(i + 2).is_some_and(|t| t.text == ":")
                    && toks
                        .get(i + 3)
                        .is_some_and(|t| t.kind == TokKind::Ident && t.text == "current") =>
            {
                out.push(
                    file.diag(
                        t.line,
                        WALL_CLOCK,
                        "`thread::current()` identity is scheduler-dependent; key \
                     per-worker state by the worker's own index instead"
                            .to_string(),
                    ),
                )
            }
            _ => {}
        }
    }
    out
}
