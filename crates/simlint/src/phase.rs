//! Phase-discipline lints for the two-phase core step.
//!
//! Every shader cycle is stepped in two phases (DESIGN.md §10,
//! `Gpu::launch_impl`): during the *compute* phase every core runs
//! `Core::tick` against a shared **read-only** [`GpuMemory`] snapshot
//! and buffers its global stores; the *commit* phase then applies
//! those buffers in core-id order through `Core::commit_stores`. That
//! split is what defines cross-core store visibility (one cycle
//! later), what lets the cycle loop tick only the cores that are due
//! and skip empty commit phases ("compute phases have no cross-core
//! coupling"), and what keeps concurrent `SimPool` jobs from reaching
//! each other. Any mutation of shared state from inside the compute
//! phase makes one core's tick visible to another's in the same cycle
//! — results would then depend on the order cores are walked in and on
//! which cycles the accelerators skip, which the accelerated-vs-dense
//! tests would catch only for the kernels they happen to run. These
//! passes make the contract structural:
//!
//! * [`PHASE_MUT_MEMORY`]: a function reachable from the compute phase
//!   must not take `&mut GpuMemory`. Only the commit API
//!   ([`COMMIT_API`]) may; it must not itself be compute-reachable.
//! * [`PHASE_INTERIOR_MUT`]: compute-reachable code must not touch
//!   interior mutability — `Cell`/`RefCell`/`Mutex`/`RwLock`/
//!   `UnsafeCell`/atomics, whether named directly, taken as a
//!   parameter, or read via a unit-level `static`. Mutation through a
//!   shared reference is exactly what phase separation exists to
//!   exclude.
//! * [`PHASE_COMMIT_API`]: no compute-reachable function may call the
//!   commit API. Commits are driven by the launch loop between phases;
//!   a tick-path commit would write to memory other cores read later
//!   in the same cycle.
//!
//! The analysis is cross-file over the compute unit —
//! `crates/sim/src/core/*.rs` plus
//! `crates/sim/src/{func,ldst,wheel}.rs` — because the
//! tick path criss-crosses those files. Roots are the functions named
//! `tick`; reachability follows call and method names within the unit
//! (collisions over-approximate, so the failure mode is a justified
//! allow, not a hole). Test items are exempt. Findings are
//! allow-filtered against the file they land in, like every per-file
//! pass.

use std::collections::{BTreeMap, BTreeSet};

use crate::scope::SIM_CORE_DIR;
use crate::syntax::{Expr, Item, ItemKind, Stmt};
use crate::{Diagnostic, SourceFile};

/// `&mut GpuMemory` in a compute-phase signature.
pub const PHASE_MUT_MEMORY: &str = "phase_mut_memory";
/// Interior mutability reached from the compute phase.
pub const PHASE_INTERIOR_MUT: &str = "phase_interior_mut";
/// Compute-phase call into the commit API.
pub const PHASE_COMMIT_API: &str = "phase_commit_api";

/// The one function allowed to take `&mut GpuMemory`: the commit
/// entry point.
pub const COMMIT_API: &str = "commit_stores";

/// Compute-phase root functions.
const ROOTS: &[&str] = &["tick"];

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

/// The files forming the compute unit the tick path runs through.
pub fn scope(rel_path: &str) -> bool {
    rel_path.starts_with(SIM_CORE_DIR)
        || matches!(
            rel_path,
            "crates/sim/src/func.rs" | "crates/sim/src/ldst.rs" | "crates/sim/src/wheel.rs"
        )
}

fn is_interior_type(tokens: &[String]) -> bool {
    tokens.iter().any(|t| INTERIOR_TYPES.contains(&t.as_str()))
}

/// One function of the unit.
struct FnNode<'a> {
    file: usize,
    item: &'a Item,
    in_test: bool,
}

fn collect<'a>(
    file_idx: usize,
    items: &'a [Item],
    in_test: bool,
    fns: &mut Vec<FnNode<'a>>,
    statics: &mut BTreeMap<String, bool>,
) {
    for item in items {
        let in_test = in_test || item.is_test_only();
        match item.kind {
            ItemKind::Fn => fns.push(FnNode {
                file: file_idx,
                item,
                in_test,
            }),
            ItemKind::Const => {
                if let Some(name) = &item.name {
                    let mut interior = is_interior_type(&item.ty);
                    if let Some(init) = &item.init {
                        init.walk(&mut |e| {
                            if let Expr::Path { segs, .. } = e {
                                if is_interior_type(segs) {
                                    interior = true;
                                }
                            }
                        });
                    }
                    statics
                        .entry(name.clone())
                        .and_modify(|v| *v = *v || interior)
                        .or_insert(interior);
                }
            }
            _ => {}
        }
        collect(file_idx, &item.children, in_test, fns, statics);
        if let Some(body) = &item.body {
            let mut nested = Vec::new();
            body.walk_stmts(&mut |stmt| {
                if let Stmt::Item(it) = stmt {
                    nested.push(it);
                }
            });
            for it in nested {
                collect(file_idx, std::slice::from_ref(it), in_test, fns, statics);
            }
        }
    }
}

/// Names bound locally inside `item`: parameters, `let` bindings,
/// closure parameters, and `match`-pattern identifiers. A bare path
/// mention of one of these is a variable read, not a function edge.
fn bound_names(item: &Item) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if let Some(sig) = &item.sig {
        for p in &sig.params {
            out.insert(p.name.clone());
        }
    }
    if let Some(body) = &item.body {
        body.walk_stmts(&mut |stmt| {
            if let Stmt::Let { names, .. } = stmt {
                out.extend(names.iter().cloned());
            }
        });
        body.walk_exprs(&mut |e| match e {
            Expr::Closure { params, .. } => out.extend(params.iter().cloned()),
            Expr::Match { arms, .. } => {
                for arm in arms {
                    out.extend(
                        arm.pat
                            .iter()
                            .filter(|t| t.starts_with(|c: char| c.is_lowercase() || c == '_'))
                            .cloned(),
                    );
                }
            }
            _ => {}
        });
    }
    out
}

/// Called or referenced function names in `item`'s body. Bare path
/// mentions count as edges too — the tick path passes lane kernels as
/// function values (`ternary!(.., func::eval_ffma_lanes)`), and a
/// reference that never runs only over-approximates. Single-segment
/// mentions of locally-bound names are variable reads and are dropped;
/// resolution against the unit's own `fn` table keeps variant and
/// constant paths from adding noise.
fn callees(item: &Item) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let Some(body) = &item.body else {
        return out;
    };
    let bound = bound_names(item);
    body.walk_exprs(&mut |e| match e {
        Expr::MethodCall { method, .. } => {
            out.insert(method.clone());
        }
        Expr::Path { segs, .. } => {
            if let Some(last) = segs.last() {
                if segs.len() > 1 || !bound.contains(last) {
                    out.insert(last.clone());
                }
            }
        }
        _ => {}
    });
    out
}

/// Cross-checks the compute unit. `files` are the in-scope sources in
/// any order; findings are already allow-filtered per file.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut fns: Vec<FnNode<'_>> = Vec::new();
    let mut statics: BTreeMap<String, bool> = BTreeMap::new();
    for (idx, file) in files.iter().enumerate() {
        collect(idx, &file.ast.items, false, &mut fns, &mut statics);
    }

    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, node) in fns.iter().enumerate() {
        if let Some(name) = node.item.name.as_deref() {
            by_name.entry(name).or_default().push(i);
        }
    }

    // Reachability from the tick roots. The commit API is deliberately
    // not traversed even if referenced: its body is the one place
    // `&mut GpuMemory` is legal, and the *call* is flagged separately.
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for (i, node) in fns.iter().enumerate() {
        if !node.in_test
            && node
                .item
                .name
                .as_deref()
                .is_some_and(|n| ROOTS.contains(&n))
        {
            seen.insert(i);
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        for name in callees(fns[i].item) {
            if name == COMMIT_API {
                continue;
            }
            for &j in by_name.get(name.as_str()).into_iter().flatten() {
                if !fns[j].in_test && seen.insert(j) {
                    queue.push(j);
                }
            }
        }
    }

    let mut out = Vec::new();
    for i in seen {
        let node = &fns[i];
        let file = files[node.file];
        let item = node.item;
        let fn_name = item.name.as_deref().unwrap_or("_");
        let mut raw: Vec<Diagnostic> = Vec::new();

        if let Some(sig) = &item.sig {
            for p in &sig.params {
                let mutable = p.ty.iter().any(|t| t == "mut");
                if mutable && p.ty.iter().any(|t| t == "GpuMemory") && fn_name != COMMIT_API {
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
            // One interior-mutability finding per fn: the first
            // mention (directly named type, interior-typed parameter,
            // or unit-level interior static read by name).
            let mut interior_line: Option<u32> = None;
            if let Some(sig) = &item.sig {
                for p in &sig.params {
                    if is_interior_type(&p.ty) && interior_line.is_none() {
                        interior_line = Some(p.line);
                    }
                }
            }
            body.walk_exprs(&mut |e| {
                if interior_line.is_some() {
                    return;
                }
                if let Expr::Path { segs, line } = e {
                    if is_interior_type(segs)
                        || (segs.len() == 1 && statics.get(&segs[0]).copied().unwrap_or(false))
                    {
                        interior_line = Some(*line);
                    }
                }
            });
            if let Some(line) = interior_line {
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

            body.walk_exprs(&mut |e| {
                let called = match e {
                    Expr::MethodCall { method, line, .. } if method == COMMIT_API => Some(*line),
                    Expr::Call { callee, line, .. } => match &**callee {
                        Expr::Path { segs, .. } if segs.last().is_some_and(|s| s == COMMIT_API) => {
                            Some(*line)
                        }
                        _ => None,
                    },
                    _ => None,
                };
                if let Some(line) = called {
                    raw.push(file.diag(
                        line,
                        PHASE_COMMIT_API,
                        format!(
                            "`{COMMIT_API}` called from compute-phase function \
                             `{fn_name}`; commits run serially between phases — \
                             drive them from the engine loop, not the tick path"
                        ),
                    ));
                }
            });
        }

        out.extend(raw.into_iter().filter(|d| !file.allowed(d.lint, d.line)));
    }
    out
}
