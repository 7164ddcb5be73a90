//! Hot-path allocation lint: no heap allocation inside loop bodies of
//! the SoA warp pipeline.
//!
//! The steady-state contract of the execute/LD-ST hot path is that a
//! warm `Gpu` allocates nothing per executed instruction — lane
//! operands live in [`LaneScratch`]-style reusable buffers, and the
//! coalescer and uncore queues recycle their capacity. The runtime side
//! of that contract is enforced by `tests/steady_state_alloc.rs` (a
//! counting global allocator); this lint is the static side, catching
//! the regression at review time instead of in a ratio assertion:
//! an allocating expression (`vec!`, `Vec::new`, `.collect()`, …)
//! written inside a `for`/`while`/`loop` body of a hot-path file.
//!
//! Scope: the tick-path files ([`crate::scope::tick_path`]) — where
//! the per-cycle pipeline lives. Launch-setup allocations that happen to
//! sit in loops (one register file per dispatched warp, for example)
//! are grid-proportional, not cycle-proportional, and carry a justified
//! `simlint: allow(lane_loop_alloc)` marker.
//!
//! The pass walks the expression IR: loop bodies are [`Expr::Loop`]
//! nodes (so `impl Trait for Type` and `for<'a>` bounds can no longer
//! even look like loops), allocation sites are macro-call, path and
//! method-call nodes, and closures inside a loop body inherit the
//! loop context (the closure runs per iteration). Test items are
//! exempt — a `#[cfg(test)]` helper building a `Vec` per iteration
//! costs nothing at simulation time.

use crate::syntax::{Expr, Item, Stmt};
use crate::{Diagnostic, SourceFile};

/// Heap allocation inside a loop body of a hot-path file.
pub const LANE_LOOP_ALLOC: &str = "lane_loop_alloc";

/// Owning container/smart-pointer types whose `::new`-style
/// constructors allocate (or will on first push).
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Box",
    "String",
    "Rc",
    "Arc",
];

/// Constructor names that pair with [`ALLOC_TYPES`].
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Method calls that produce a fresh owned allocation.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_string", "to_owned"];

/// Macros that expand to an allocation.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// A `Type::ctor` path match: the last two segments name an allocating
/// constructor of an [`ALLOC_TYPES`] type (`std::collections::BinaryHeap::new`
/// matches through its full path).
fn ctor_path(e: &Expr) -> Option<(&str, &str, u32)> {
    if let Expr::Path { segs, line } = e {
        if segs.len() >= 2 {
            let ty = &segs[segs.len() - 2];
            let ctor = &segs[segs.len() - 1];
            if ALLOC_TYPES.contains(&ty.as_str()) && ALLOC_CTORS.contains(&ctor.as_str()) {
                return Some((ty, ctor, *line));
            }
        }
    }
    None
}

/// Walks `e` reporting sites for which `hit` returns a diagnostic,
/// tracking whether the site sits inside a loop body. The traversal
/// mirrors [`Expr::walk`] but threads the loop context: loop bodies set
/// it, loop heads and everything else inherit it (so an allocation in
/// the condition of a `while` nested in a `for` is still a per-
/// iteration allocation of the outer loop).
fn scan_expr(e: &Expr, in_loop: bool, sink: &mut impl FnMut(&Expr)) {
    if in_loop {
        sink(e);
    }
    match e {
        Expr::Loop { head, body, .. } => {
            if let Some(h) = head {
                scan_expr(h, in_loop, sink);
            }
            scan_block(body, true, sink);
        }
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
        Expr::MethodCall { recv, args, .. } => {
            scan_expr(recv, in_loop, sink);
            for a in args {
                scan_expr(a, in_loop, sink);
            }
        }
        Expr::Call { callee, args, .. } => {
            scan_expr(callee, in_loop, sink);
            for a in args {
                scan_expr(a, in_loop, sink);
            }
        }
        Expr::Index { recv, index, .. } => {
            scan_expr(recv, in_loop, sink);
            scan_expr(index, in_loop, sink);
        }
        Expr::Field { recv, .. } => scan_expr(recv, in_loop, sink),
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            scan_expr(lhs, in_loop, sink);
            scan_expr(rhs, in_loop, sink);
        }
        Expr::Unary { expr, .. }
        | Expr::Ref { expr, .. }
        | Expr::Cast { expr, .. }
        | Expr::Try { expr, .. }
        | Expr::Paren { expr, .. } => scan_expr(expr, in_loop, sink),
        Expr::MacroCall { args, .. } => {
            for a in args {
                scan_expr(a, in_loop, sink);
            }
        }
        Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
            for x in items {
                scan_expr(x, in_loop, sink);
            }
        }
        Expr::Range { lo, hi, .. } => {
            if let Some(x) = lo {
                scan_expr(x, in_loop, sink);
            }
            if let Some(x) = hi {
                scan_expr(x, in_loop, sink);
            }
        }
        Expr::StructLit { fields, .. } => {
            for x in fields {
                scan_expr(x, in_loop, sink);
            }
        }
        Expr::Block { block, .. } => scan_block(block, in_loop, sink),
        Expr::If {
            cond, then, els, ..
        } => {
            scan_expr(cond, in_loop, sink);
            scan_block(then, in_loop, sink);
            if let Some(x) = els {
                scan_expr(x, in_loop, sink);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            scan_expr(scrutinee, in_loop, sink);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    scan_expr(g, in_loop, sink);
                }
                scan_expr(&arm.body, in_loop, sink);
            }
        }
        Expr::Closure { body, .. } => scan_expr(body, in_loop, sink),
        Expr::Jump { expr, .. } => {
            if let Some(x) = expr {
                scan_expr(x, in_loop, sink);
            }
        }
    }
}

fn scan_block(b: &crate::syntax::Block, in_loop: bool, sink: &mut impl FnMut(&Expr)) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    scan_expr(e, in_loop, sink);
                }
                if let Some(eb) = els {
                    scan_block(eb, in_loop, sink);
                }
            }
            Stmt::Expr(e) => scan_expr(e, in_loop, sink),
            Stmt::Item(item) => scan_item(item, sink),
        }
    }
}

/// Items reset the loop context: a `fn` defined inside a loop body does
/// not run per iteration by virtue of its position.
fn scan_item(item: &Item, sink: &mut impl FnMut(&Expr)) {
    if item.is_test_only() {
        return;
    }
    if let Some(init) = &item.init {
        scan_expr(init, false, sink);
    }
    if let Some(body) = &item.body {
        scan_block(body, false, sink);
    }
    for child in &item.children {
        scan_item(child, sink);
    }
}

/// Flags allocating expressions inside loop bodies, skipping test
/// items.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut sink = |e: &Expr| {
        let (what, line) = match e {
            Expr::MacroCall { name, line, .. } if ALLOC_MACROS.contains(&name.as_str()) => {
                (format!("`{name}!`"), *line)
            }
            Expr::MethodCall { method, line, .. } if ALLOC_METHODS.contains(&method.as_str()) => {
                (format!("`.{method}()`"), *line)
            }
            _ => match ctor_path(e) {
                Some((ty, ctor, line)) => (format!("`{ty}::{ctor}`"), line),
                None => return,
            },
        };
        out.push(file.diag(
            line,
            LANE_LOOP_ALLOC,
            format!(
                "{what} allocates on every iteration of an enclosing loop in the \
                 warp hot path; hoist the buffer out of the loop or reuse a \
                 scratch field (see `LaneScratch`), so the steady state stays \
                 allocation-free"
            ),
        ));
    };
    for item in &file.ast.items {
        scan_item(item, &mut sink);
    }
    out
}
