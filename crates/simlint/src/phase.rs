//! Phase-discipline lints for the two-phase core step.
//!
//! Every shader cycle is stepped in two phases (DESIGN.md §10,
//! `Gpu::launch_impl`): during the *compute* phase every core runs
//! `Core::tick` against a shared **read-only** `GpuMemory` snapshot
//! and buffers its global stores; the *commit* phase then applies
//! those buffers in core-id order through `Core::commit_stores`. That
//! split is what defines cross-core store visibility (one cycle
//! later), what lets the cycle loop tick only the cores that are due
//! and skip empty commit phases ("compute phases have no cross-core
//! coupling"), and what keeps concurrent `SimPool` jobs from reaching
//! each other.
//!
//! Two passes make the contract structural:
//!
//! * [`PHASE_MUT_MEMORY`]: a function reachable from the compute phase
//!   must not take `&mut GpuMemory`. Only the commit API
//!   ([`COMMIT_API`]) may. The borrow checker rejects a one-line
//!   violation — `tick` gets its memory through the `&GpuMemory`
//!   binding in `Gpu::launch_impl` — but an edit that widens that
//!   binding and `tick`'s signature together compiles, and no test
//!   notices stores committed mid-compute-phase (DESIGN.md §14). Every
//!   write to shared memory from the tick path needs such a parameter,
//!   so this one check also covers a tick-path call to the commit API.
//! * [`PHASE_INTERIOR_MUT`]: compute-reachable code must not touch
//!   interior mutability — `Cell`/`RefCell`/`Mutex`/`RwLock`/
//!   `UnsafeCell`/atomics, whether named directly, taken as a
//!   parameter, or read via a unit-level `static`. One core's tick
//!   would then be visible to another's in the same cycle, and results
//!   would depend on the order cores are walked in and on which cycles
//!   the accelerators skip.
//!
//! The analysis is cross-file over the tick path
//! ([`crate::scope::tick_path`]) because the tick path criss-crosses
//! those files. Roots are the functions named `tick`. The call graph is
//! read off tokens: a fn's callees are the identifiers in its body that
//! name a fn of the unit, which covers calls, method calls and function
//! values passed through macros (`alu!(.., func::eval_imad_lanes, ..)`).
//! A local binding or field that shares a fn's name over-approximates,
//! so the failure mode is a justified allow, not a hole. Test items are
//! exempt. Findings are allow-filtered against the file they land in,
//! like every per-file pass.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{own_body, ItemKind, Lexed, TokKind, Token};
use crate::{Diagnostic, SourceFile};

/// `&mut GpuMemory` in a compute-phase signature.
pub const PHASE_MUT_MEMORY: &str = "phase_mut_memory";
/// Interior mutability reached from the compute phase.
pub const PHASE_INTERIOR_MUT: &str = "phase_interior_mut";

/// The one function allowed to take `&mut GpuMemory`: the commit
/// entry point.
const COMMIT_API: &str = "commit_stores";

/// Interior-mutability type names.
const INTERIOR_TYPES: &[&str] = &[
    "Cell",
    "RefCell",
    "Mutex",
    "RwLock",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

fn is_interior(t: &Token) -> bool {
    t.kind == TokKind::Ident && INTERIOR_TYPES.contains(&t.text.as_str())
}

/// Names of the `const`/`static` items of `lx` whose type or
/// initialiser names an interior-mutability type, at any nesting depth.
fn interior_statics<'a>(lx: &'a Lexed, out: &mut BTreeSet<&'a str>) {
    for (i, t) in lx.tokens.iter().enumerate() {
        // `<const N: usize>` and `*const T` are not items.
        if !matches!(t.text.as_str(), "static" | "const")
            || t.kind != TokKind::Ident
            || matches!(lx.text(i.wrapping_sub(1)), "<" | "," | "*")
        {
            continue;
        }
        let name = if lx.text(i + 1) == "mut" {
            i + 2
        } else {
            i + 1
        };
        if lx.tokens.get(name).is_none_or(|t| t.kind != TokKind::Ident) || lx.text(name + 1) != ":"
        {
            continue;
        }
        // The type and initialiser run to the `;` outside any group.
        let mut end = name + 2;
        while end < lx.tokens.len() && lx.text(end) != ";" {
            end = lx.skip_group(end);
        }
        if lx.tokens[name + 2..end].iter().any(is_interior) {
            out.insert(lx.text(name));
        }
    }
}

/// Each typed parameter of the fn whose head is `head`: the line of its
/// first token and its type tokens (after the `:`).
fn params(lx: &Lexed, head: std::ops::Range<usize>) -> Vec<(u32, &[Token])> {
    // The parameter list is the first `(` outside the generics. Angle
    // depth skips `>` of a `->`; every other bracket is a group.
    let mut angle = 0i32;
    let mut open = None;
    for i in head.skip(2) {
        match lx.text(i) {
            "<" => angle += 1,
            ">" if lx.text(i - 1) != "-" => angle -= 1,
            "(" if angle == 0 => {
                open = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(open) = open else {
        return Vec::new();
    };
    let close = lx.skip_group(open) - 1;
    let mut out = Vec::new();
    let mut start = open + 1;
    let mut i = start;
    while i <= close {
        match lx.text(i) {
            "<" => angle += 1,
            ">" if lx.text(i - 1) != "-" => angle -= 1,
            "(" | "[" if i < close => {
                i = lx.skip_group(i);
                continue;
            }
            _ => {}
        }
        if i == close || (angle == 0 && lx.text(i) == ",") {
            let colon = (start..i)
                .find(|&j| lx.text(j) == ":" && lx.text(j + 1) != ":" && lx.text(j - 1) != ":");
            if let Some(colon) = colon {
                out.push((lx.tokens[start].line, &lx.tokens[colon + 1..i]));
            }
            start = i + 1;
        }
        i += 1;
    }
    out
}

/// Cross-checks the tick path. `files` are the in-scope sources in any
/// order; findings are already allow-filtered per file.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    // Every non-test fn of the unit, as (file, item index).
    let fns: Vec<(usize, usize)> = files
        .iter()
        .enumerate()
        .flat_map(|(f, file)| {
            file.items
                .iter()
                .enumerate()
                .filter(|(_, item)| item.kind == ItemKind::Fn && !item.test)
                .map(move |(i, _)| (f, i))
        })
        .collect();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (n, &(f, i)) in fns.iter().enumerate() {
        by_name
            .entry(files[f].items[i].name.as_str())
            .or_default()
            .push(n);
    }
    let bodies: Vec<Vec<usize>> = fns
        .iter()
        .map(|&(f, i)| own_body(&files[f].items, i))
        .collect();
    let mut statics = BTreeSet::new();
    for file in files {
        interior_statics(&file.lexed, &mut statics);
    }

    // Reachability from every `tick`, following callee names.
    let mut seen: BTreeSet<usize> = by_name.get("tick").into_iter().flatten().copied().collect();
    let mut queue: Vec<usize> = seen.iter().copied().collect();
    while let Some(n) = queue.pop() {
        let lx = &files[fns[n].0].lexed;
        for &t in &bodies[n] {
            for &m in by_name.get(lx.text(t)).into_iter().flatten() {
                if seen.insert(m) {
                    queue.push(m);
                }
            }
        }
    }

    let mut out = Vec::new();
    for n in seen {
        let (f, i) = fns[n];
        let file = files[f];
        let lx = &file.lexed;
        let item = &file.items[i];
        let fn_name = item.name.as_str();
        let params = params(lx, item.head.clone());
        let mut raw = Vec::new();

        if fn_name != COMMIT_API {
            for (line, ty) in &params {
                if ty.iter().any(|t| t.text == "mut") && ty.iter().any(|t| t.text == "GpuMemory") {
                    raw.push(file.diag(
                        *line,
                        PHASE_MUT_MEMORY,
                        format!(
                            "compute-phase function `{fn_name}` takes `&mut GpuMemory`; \
                             the tick path reads a shared snapshot — buffer stores and \
                             apply them in `{COMMIT_API}` during the commit phase"
                        ),
                    ));
                }
            }
        }

        // One interior-mutability finding per fn: the first mention
        // (interior-typed parameter, directly named type, or unit-level
        // interior static read by its bare name).
        let bare = |t: usize| {
            lx.text(t.wrapping_sub(1)) != "."
                && lx.text(t.wrapping_sub(1)) != ":"
                && lx.text(t + 1) != ":"
        };
        let first = params
            .iter()
            .find(|(_, ty)| ty.iter().any(is_interior))
            .map(|(line, _)| *line)
            .or_else(|| {
                bodies[n]
                    .iter()
                    .find(|&&t| {
                        is_interior(&lx.tokens[t]) || (statics.contains(lx.text(t)) && bare(t))
                    })
                    .map(|&t| lx.tokens[t].line)
            });
        if let Some(line) = first {
            raw.push(file.diag(
                line,
                PHASE_INTERIOR_MUT,
                format!(
                    "compute-phase function `{fn_name}` reaches interior \
                     mutability; mutation through a shared reference during the \
                     compute phase makes results interleaving-dependent — move \
                     the state into the core or behind the commit phase"
                ),
            ));
        }
        out.extend(raw.into_iter().filter(|d| !file.allowed(d.lint, d.line)));
    }
    out
}
