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
//! those files. Roots are the functions named `tick`; reachability is
//! the decode passes' walker (`untrusted::reachable`), which
//! follows call, method and function-value names within the unit
//! (collisions over-approximate, so the failure mode is a justified
//! allow, not a hole). Test items are exempt. Findings are
//! allow-filtered against the file they land in, like every per-file
//! pass.

use std::collections::BTreeSet;

use crate::syntax::{Expr, ItemKind};
use crate::untrusted::{collect_fns, reachable};
use crate::{Diagnostic, SourceFile};

/// `&mut GpuMemory` in a compute-phase signature.
pub const PHASE_MUT_MEMORY: &str = "phase_mut_memory";
/// Interior mutability reached from the compute phase.
pub const PHASE_INTERIOR_MUT: &str = "phase_interior_mut";

/// The one function allowed to take `&mut GpuMemory`: the commit
/// entry point.
pub const COMMIT_API: &str = "commit_stores";

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

fn is_interior_type(tokens: &[String]) -> bool {
    tokens.iter().any(|t| INTERIOR_TYPES.contains(&t.as_str()))
}

/// Names of the unit's `const`/`static` items whose type or initialiser
/// names an interior-mutability type, at any nesting depth.
fn interior_statics(files: &[&SourceFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in files {
        file.ast.walk_items(&mut |item| {
            let Some(name) = &item.name else { return };
            if item.kind != ItemKind::Const {
                return;
            }
            let mut interior = is_interior_type(&item.ty);
            if let Some(init) = &item.init {
                init.walk(&mut |e| {
                    if let Expr::Path { segs, .. } = e {
                        interior |= is_interior_type(segs);
                    }
                });
            }
            if interior {
                out.insert(name.clone());
            }
        });
    }
    out
}

/// Cross-checks the tick path. `files` are the in-scope sources in any
/// order; findings are already allow-filtered per file.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut fns = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        collect_fns(idx, &file.ast.items, false, &mut fns);
    }
    let statics = interior_statics(files);

    let mut out = Vec::new();
    for i in reachable(&fns, |item| item.name.as_deref() == Some("tick")) {
        let node = &fns[i];
        let file = files[node.file];
        let item = node.item;
        let fn_name = item.name.as_deref().unwrap_or("_");
        let params = item.sig.as_ref().map_or(&[][..], |sig| &sig.params[..]);
        let mut raw = Vec::new();

        if fn_name != COMMIT_API {
            for p in params {
                if p.ty.iter().any(|t| t == "mut") && p.ty.iter().any(|t| t == "GpuMemory") {
                    raw.push(file.diag(
                        p.line,
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

        if let Some(body) = &item.body {
            // One interior-mutability finding per fn: the first mention
            // (interior-typed parameter, directly named type, or
            // unit-level interior static read by name).
            let mut line = params
                .iter()
                .find(|p| is_interior_type(&p.ty))
                .map(|p| p.line);
            body.walk_exprs(&mut |e| {
                if let (None, Expr::Path { segs, line: l }) = (line, e) {
                    if is_interior_type(segs) || (segs.len() == 1 && statics.contains(&segs[0])) {
                        line = Some(*l);
                    }
                }
            });
            if let Some(line) = line {
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
        }
        out.extend(raw.into_iter().filter(|d| !file.allowed(d.lint, d.line)));
    }
    out
}
