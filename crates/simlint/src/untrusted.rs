//! Untrusted-input lints: no panics, no unchecked length arithmetic on
//! decode paths.
//!
//! The serve and trace crates parse bytes that arrive from outside the
//! process — a socket frame, a cache entry or capture file on disk.
//! Those bytes are adversarial by assumption: a malformed length prefix
//! must surface as a typed `CodecError` (alias `TraceError`; wrapped in
//! `WireError` at the socket), never as a panic (a denial of service
//! for the batch server, a corrupted-archive crash for replay) and
//! never as silently wrong arithmetic. Two passes enforce that,
//! both confined to the decode surface:
//!
//! * [`PANIC_PATH`]: inside functions reachable from a decode entry
//!   point, flag `unwrap`/`expect`, `panic!`-family macros, and `[]`
//!   indexing/slicing — each is a reachable panic on malformed input.
//!   Entry points are the functions whose return type mentions one of
//!   the wire error types; reachability is the same-file call graph
//!   from those roots (method and function calls resolved by name).
//! * [`DECODE_ARITH`]: flag unchecked `+`/`*`/`<<` (and their
//!   compound-assignment forms) on values derived from decoded
//!   lengths/counts, and `as` casts that narrow such a value. Taint
//!   starts at width-decoding reader calls (`.u16()`, `.varint()`, …)
//!   and at length-like parameters (`n`, `len`, `count`, `cap`, …),
//!   then propagates through `let` bindings and assignments to a
//!   fixpoint. `checked_add`/`saturating_mul`/`try_into` are method
//!   calls, not operators, so the approved spellings pass untouched.
//!
//! Scope: the files that decode external bytes — the shared cursor and
//! digest in `crates/trace/src/{wire,digest}.rs`, the trace format in
//! `crates/trace/src/{codec,format}.rs`, and the service's three
//! formats in `crates/serve/src/{proto,job,store}.rs`. Encoders in the same
//! files are out of the blast radius automatically: they return plain
//! values, so they are not entry points, and nothing on the decode
//! side calls them.
//!
//! Known approximations, chosen so the failure mode is a missed
//! finding or a justified allow, never a silent hole in the decode
//! surface itself: calls are resolved by bare name (a collision with
//! an out-of-file method pulls extra functions into scope —
//! conservative), match-arm pattern bindings do not carry taint, and
//! `debug_assert!` is exempt (it compiles out of release servers).

use std::collections::{BTreeMap, BTreeSet};

use crate::syntax::{Block, Expr, Item, ItemKind, Stmt};
use crate::{Diagnostic, SourceFile};

/// A reachable panic (`unwrap`, indexing, `panic!`…) on a decode path.
pub const PANIC_PATH: &str = "panic_path";
/// Unchecked arithmetic or narrowing on a decoded length/count.
pub const DECODE_ARITH: &str = "decode_arith";

/// Error types whose appearance in a return type marks a decode entry
/// point.
const WIRE_ERRORS: &[&str] = &["CodecError", "WireError", "TraceError", "JobError"];

/// Macros that panic at runtime. `debug_assert*` is deliberately
/// absent: it compiles out of release builds.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Reader methods that yield an attacker-controlled integer, with the
/// bit width of what they decode.
const DECODE_SOURCES: &[(&str, u32)] = &[
    ("u8", 8),
    ("u16", 16),
    ("u32", 32),
    ("u64", 64),
    ("varint", 64),
    ("varint_u32", 32),
    ("varint_i32", 32),
    ("count", 64),
];

/// Cast-target widths. `usize`/`isize` count as 32: the simulator
/// builds for 32-bit targets too, so `u64 as usize` is a narrowing.
const TYPE_WIDTHS: &[(&str, u32)] = &[
    ("u8", 8),
    ("i8", 8),
    ("u16", 16),
    ("i16", 16),
    ("u32", 32),
    ("i32", 32),
    ("usize", 32),
    ("isize", 32),
    ("u64", 64),
    ("i64", 64),
    ("u128", 128),
    ("i128", 128),
];

/// The files that decode bytes from outside the process.
pub fn scope(rel_path: &str) -> bool {
    matches!(
        rel_path,
        "crates/serve/src/proto.rs"
            | "crates/serve/src/job.rs"
            | "crates/serve/src/store.rs"
            | "crates/trace/src/codec.rs"
            | "crates/trace/src/digest.rs"
            | "crates/trace/src/wire.rs"
            | "crates/trace/src/format.rs"
    )
}

/// Whether a parameter name announces a length/count/size.
fn lengthy_param(name: &str) -> bool {
    matches!(name, "n" | "len" | "count" | "cap" | "size")
        || name.ends_with("_len")
        || name.ends_with("_count")
        || name.ends_with("_size")
}

/// One function in the file, with its ancestry-aware test flag.
struct FnNode<'a> {
    item: &'a Item,
    in_test: bool,
}

/// Collects every `fn` with test-ness inherited from enclosing items
/// (`ast.fns()` cannot see that a fn sits inside a `#[cfg(test)]`
/// module).
fn collect_fns<'a>(items: &'a [Item], in_test: bool, out: &mut Vec<FnNode<'a>>) {
    for item in items {
        let in_test = in_test || item.is_test_only();
        if item.kind == ItemKind::Fn {
            out.push(FnNode { item, in_test });
        }
        collect_fns(&item.children, in_test, out);
        if let Some(body) = &item.body {
            let mut nested = Vec::new();
            body.walk_stmts(&mut |stmt| {
                if let Stmt::Item(it) = stmt {
                    nested.push(it);
                }
            });
            for it in nested {
                collect_fns(std::slice::from_ref(it), in_test, out);
            }
        }
    }
}

/// Call edges out of `body`: bare names of called functions and
/// methods.
fn callees(body: &Block) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    body.walk_exprs(&mut |e| match e {
        Expr::MethodCall { method, .. } => {
            out.insert(method.clone());
        }
        Expr::Call { callee, .. } => {
            if let Expr::Path { segs, .. } = &**callee {
                if let Some(last) = segs.last() {
                    out.insert(last.clone());
                }
            }
        }
        _ => {}
    });
    out
}

/// Indices of the functions reachable from decode entry points.
fn reachable(fns: &[FnNode<'_>]) -> BTreeSet<usize> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, node) in fns.iter().enumerate() {
        if let Some(name) = node.item.name.as_deref() {
            by_name.entry(name).or_default().push(i);
        }
    }
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for (i, node) in fns.iter().enumerate() {
        let is_entry = node
            .item
            .sig
            .as_ref()
            .is_some_and(|s| s.ret.iter().any(|t| WIRE_ERRORS.contains(&t.as_str())));
        if is_entry && !node.in_test && seen.insert(i) {
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        let Some(body) = &fns[i].item.body else {
            continue;
        };
        for name in callees(body) {
            for &j in by_name.get(name.as_str()).into_iter().flatten() {
                if !fns[j].in_test && seen.insert(j) {
                    queue.push(j);
                }
            }
        }
    }
    seen
}

/// Width of the decoded data flowing through `e`, if any: the widest
/// decode-source call or tainted name mentioned anywhere inside it.
fn taint_width(e: &Expr, taints: &BTreeMap<String, u32>) -> Option<u32> {
    let mut width: Option<u32> = None;
    let mut bump = |w: u32| width = Some(width.map_or(w, |prev| prev.max(w)));
    e.walk(&mut |node| match node {
        Expr::MethodCall { method, .. } => {
            if let Some((_, w)) = DECODE_SOURCES.iter().find(|(m, _)| m == method) {
                bump(*w);
            }
        }
        Expr::Path { segs, .. } if segs.len() == 1 => {
            if let Some(w) = taints.get(&segs[0]) {
                bump(*w);
            }
        }
        _ => {}
    });
    width
}

/// Tainted local names of `item`, to a fixpoint across `let` bindings
/// and assignments. Seeds: length-like parameters and decode-source
/// calls in initialisers.
fn tainted_names(item: &Item) -> BTreeMap<String, u32> {
    let mut taints: BTreeMap<String, u32> = BTreeMap::new();
    if let Some(sig) = &item.sig {
        for p in &sig.params {
            if lengthy_param(&p.name) {
                taints.insert(p.name.clone(), 64);
            }
        }
    }
    let Some(body) = &item.body else {
        return taints;
    };
    // Collect the (names, value) pairs once, then iterate to a
    // fixpoint so `let a = n; let b = a * 2;` converges regardless of
    // collection order.
    let mut bindings: Vec<(Vec<String>, &Expr)> = Vec::new();
    body.walk_stmts(&mut |stmt| {
        if let Stmt::Let {
            names,
            init: Some(init),
            ..
        } = stmt
        {
            bindings.push((names.clone(), init));
        }
    });
    body.walk_exprs(&mut |e| {
        if let Expr::Assign { lhs, rhs, .. } = e {
            if let Expr::Path { segs, .. } = &**lhs {
                if segs.len() == 1 {
                    bindings.push((vec![segs[0].clone()], rhs));
                }
            }
        }
    });
    loop {
        let mut changed = false;
        for (names, value) in &bindings {
            if let Some(w) = taint_width(value, &taints) {
                for name in names {
                    let prev = taints.get(name).copied();
                    if prev.is_none_or(|p| p < w) {
                        taints.insert(name.clone(), w);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return taints;
        }
    }
}

/// Runs both untrusted-input passes over one decode-scope file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let mut fns = Vec::new();
    collect_fns(&file.ast.items, false, &mut fns);
    let live = reachable(&fns);
    let mut out = Vec::new();
    for i in live {
        let item = fns[i].item;
        let Some(body) = &item.body else { continue };
        let fn_name = item.name.as_deref().unwrap_or("_");
        let taints = tainted_names(item);
        body.walk_exprs(&mut |e| match e {
            Expr::MethodCall { method, line, .. } if method == "unwrap" || method == "expect" => {
                out.push(file.diag(
                    *line,
                    PANIC_PATH,
                    format!(
                        "`.{method}()` in `{fn_name}` is reachable from a decode entry \
                         point; malformed input must surface as a typed error, not a \
                         panic — propagate with `?` or handle the `None`/`Err` case"
                    ),
                ));
            }
            Expr::MacroCall { name, line, .. } if PANIC_MACROS.contains(&name.as_str()) => {
                out.push(file.diag(
                    *line,
                    PANIC_PATH,
                    format!(
                        "`{name}!` in `{fn_name}` is reachable from a decode entry \
                         point and panics the process on attacker-shaped input; \
                         return a typed wire error instead"
                    ),
                ));
            }
            Expr::Index { line, .. } => {
                out.push(file.diag(
                    *line,
                    PANIC_PATH,
                    format!(
                        "`[..]` indexing in `{fn_name}` is reachable from a decode \
                         entry point and panics on truncated input; use `.get(..)` \
                         and propagate a typed error"
                    ),
                ));
            }
            Expr::Binary {
                op: op @ ("+" | "*" | "<<"),
                lhs,
                rhs,
                line,
            } if taint_width(lhs, &taints).is_some() || taint_width(rhs, &taints).is_some() => {
                out.push(file.diag(
                    *line,
                    DECODE_ARITH,
                    format!(
                        "unchecked `{op}` on a decoded length/count in `{fn_name}` \
                         can overflow and address the wrong bytes; use \
                         `checked_{}` or validate against the input size first",
                        match *op {
                            "+" => "add",
                            "*" => "mul",
                            _ => "shl",
                        }
                    ),
                ));
            }
            Expr::Assign {
                op: op @ ("+=" | "*=" | "<<="),
                lhs,
                rhs,
                line,
            } if taint_width(lhs, &taints).is_some() || taint_width(rhs, &taints).is_some() => {
                out.push(file.diag(
                    *line,
                    DECODE_ARITH,
                    format!(
                        "unchecked `{op}` on a decoded length/count in `{fn_name}` \
                         can overflow; use the checked operation and propagate a \
                         typed error"
                    ),
                ));
            }
            Expr::Cast { expr, ty, line } => {
                let target = ty
                    .iter()
                    .rev()
                    .find_map(|t| TYPE_WIDTHS.iter().find(|(n, _)| n == t).map(|(_, w)| *w));
                if let (Some(src), Some(tgt)) = (taint_width(expr, &taints), target) {
                    if src > tgt {
                        out.push(file.diag(
                            *line,
                            DECODE_ARITH,
                            format!(
                                "`as` narrows a {src}-bit decoded value to {tgt} bits \
                                 in `{fn_name}`; a truncated length silently addresses \
                                 the wrong bytes — use `try_from` and propagate a \
                                 typed error"
                            ),
                        ));
                    }
                }
            }
            _ => {}
        });
    }
    out
}
