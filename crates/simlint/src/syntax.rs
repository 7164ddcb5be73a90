//! A tolerant item/block/expression parser producing the typed IR every
//! lint pass consumes.
//!
//! This is deliberately *not* a full Rust grammar. The lint families
//! need four things token streams cannot give them:
//!
//! * **item structure** — which tokens are a `fn` (name, parameter
//!   types, return type, body), which items carry `#[test]` /
//!   `#[cfg(...)]` attributes, which `impl` blocks implement
//!   `Display`/`Debug`;
//! * **expression shapes** — method-call chains (`r.u32("len")?`),
//!   index expressions (`buf[pos..end]`), `as` cast chains, operator
//!   chains with their operands;
//! * **binding structure** — `let` names and initialisers, enough for
//!   intra-function taint propagation;
//! * **call edges** — callee names, enough for same-scope reachability
//!   (decode entry points, the compute-phase call graph).
//!
//! The parser is total: it never fails. Token runs it cannot shape
//! become [`Expr::Opaque`] leaves and parsing continues at the next
//! statement boundary, so a pass walking the IR sees everything the
//! grammar subset covers and silently skips nothing else (the corpus
//! test in `tests/syntax_corpus.rs` keeps the opaque fraction honest on
//! the real workspace). Macro invocation arguments are re-parsed as
//! comma-separated expressions when they parse cleanly (`assert!`,
//! `write!`, `vec!` bodies), and skipped otherwise (`macro_rules!`
//! tables like `for_each_event!`).
//!
//! Known, accepted approximations (each picked because the lint scopes
//! never hit them or the failure mode is an `Opaque` leaf, not a wrong
//! shape): match-arm patterns are token runs, `cfg`-stripped code is
//! parsed as committed, and type positions are flattened token lists
//! rather than trees.

use crate::lexer::{Lexed, TokKind, Token};

/// The parse of one source file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One `#[...]` attribute, flattened to its inner token texts.
#[derive(Debug, Clone)]
pub struct Attr {
    /// 1-based line of the `#`.
    pub line: u32,
    /// Token texts between the brackets: `#[cfg(test)]` stores
    /// `["cfg", "(", "test", ")"]`.
    pub tokens: Vec<String>,
}

impl Attr {
    /// The attribute's leading identifier (`cfg`, `test`, `derive`...).
    pub fn name(&self) -> &str {
        self.tokens.first().map(String::as_str).unwrap_or("")
    }

    /// `#[test]` (exactly).
    pub fn is_test(&self) -> bool {
        self.tokens.len() == 1 && self.name() == "test"
    }

    /// `#[cfg(...)]` whose arguments mention `test`.
    pub fn is_cfg_test(&self) -> bool {
        self.name() == "cfg" && self.tokens.iter().any(|t| t == "test")
    }

    /// A `#[cfg(...)]` that does *not* mention `test`: the item exists
    /// in some builds and not others (`target_arch`, feature flags).
    pub fn is_cfg_non_test(&self) -> bool {
        self.name() == "cfg" && !self.tokens.iter().any(|t| t == "test")
    }

    /// `#[target_feature(enable = ...)]` — code selected per host CPU.
    pub fn is_target_feature(&self) -> bool {
        self.name() == "target_feature"
    }
}

/// What an [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free or associated).
    Fn,
    /// `struct` / `enum` / `union` (body skipped).
    Type,
    /// `trait` block (children are its items).
    Trait,
    /// `impl` block (children are its items).
    Impl,
    /// `mod` block (children are its items).
    Mod,
    /// `use` declaration.
    Use,
    /// `const` or `static` with a parsed initialiser.
    Const,
    /// `type` alias.
    Alias,
    /// `macro_rules!` definition (body skipped).
    MacroDef,
    /// Item-level macro invocation (args skipped).
    MacroCall,
    /// Anything the item grammar does not cover.
    Other,
}

/// One parsed item.
#[derive(Debug)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Declared name, when the form has one.
    pub name: Option<String>,
    /// 1-based line of the first token (after attributes).
    pub line: u32,
    /// Outer attributes.
    pub attrs: Vec<Attr>,
    /// `fn` signature.
    pub sig: Option<FnSig>,
    /// `impl Trait for Type`: the trait path tokens (`None` for
    /// inherent impls).
    pub trait_path: Option<Vec<String>>,
    /// `impl`: the self-type tokens; `const`/`static`: the type tokens.
    pub ty: Vec<String>,
    /// `fn` body.
    pub body: Option<Block>,
    /// `const`/`static` initialiser.
    pub init: Option<Expr>,
    /// `impl`/`mod`/`trait` members.
    pub children: Vec<Item>,
}

impl Item {
    /// Whether this item is test-only: `#[test]` or `#[cfg(test)]`.
    pub fn is_test_only(&self) -> bool {
        self.attrs.iter().any(|a| a.is_test() || a.is_cfg_test())
    }

    /// Whether this item exists only under a non-test `#[cfg(...)]`
    /// or `#[target_feature]` — a build- or host-divergent path.
    pub fn is_divergent(&self) -> bool {
        self.attrs
            .iter()
            .any(|a| a.is_cfg_non_test() || a.is_target_feature())
    }
}

/// A `fn` signature: parameters and return-type tokens.
#[derive(Debug, Default)]
pub struct FnSig {
    /// Parameters in order (including a `self` receiver as name
    /// `self`).
    pub params: Vec<Param>,
    /// Return-type token texts (empty when the fn returns `()`).
    pub ret: Vec<String>,
}

/// One parameter.
#[derive(Debug)]
pub struct Param {
    /// Primary binding name (`self` for receivers, `""` for bare
    /// types in trait declarations).
    pub name: String,
    /// Type token texts.
    pub ty: Vec<String>,
    /// 1-based line.
    pub line: u32,
}

/// A `{ ... }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let` binding.
    Let {
        /// Names bound by the pattern (keywords and `_` excluded).
        names: Vec<String>,
        /// Declared type tokens (empty when inferred).
        ty: Vec<String>,
        /// Initialiser.
        init: Option<Expr>,
        /// `let ... else { ... }` diverging block.
        els: Option<Block>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// Expression statement.
    Expr(Expr),
    /// Nested item (`fn`, `use`, `const`... inside a block).
    Item(Item),
}

/// Loop flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `for pat in iter { }`
    For,
    /// `while cond { }` / `while let pat = expr { }`
    While,
    /// `loop { }`
    Loop,
}

/// Literal flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// Integer literal.
    Int,
    /// Float literal (`1.5`, `2e9`, `1f64`).
    Float,
    /// String literal.
    Str,
    /// Char/byte literal.
    Char,
}

/// One `match` arm.
#[derive(Debug)]
pub struct Arm {
    /// Raw pattern token texts (patterns are not structured).
    pub pat: Vec<String>,
    /// `if` guard expression.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
    /// 1-based line of the pattern's first token.
    pub line: u32,
}

/// One parsed expression.
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` (turbofish generics skipped).
    Path {
        /// Segment names.
        segs: Vec<String>,
        /// 1-based line.
        line: u32,
    },
    /// Literal.
    Lit {
        /// Literal class.
        kind: LitKind,
        /// Literal text.
        text: String,
        /// 1-based line.
        line: u32,
    },
    /// `recv.method(args)` / `recv.method::<T>(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Turbofish token texts (empty when absent).
        turbofish: Vec<String>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the method name.
        line: u32,
    },
    /// `callee(args)`.
    Call {
        /// Callee (usually a `Path`).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `recv[index]`.
    Index {
        /// Receiver.
        recv: Box<Expr>,
        /// Index expression (a `Range` for slicing).
        index: Box<Expr>,
        /// 1-based line of the `[`.
        line: u32,
    },
    /// `recv.field`.
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name (or tuple index text).
        name: String,
        /// 1-based line.
        line: u32,
    },
    /// `lhs op rhs` for non-assigning binary operators.
    Binary {
        /// Operator text (`+`, `<<`, `==`, `&&`...).
        op: &'static str,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 1-based line of the operator.
        line: u32,
    },
    /// `lhs op rhs` for `=` and compound assignment.
    Assign {
        /// Operator text (`=`, `+=`, `<<=`, ...).
        op: &'static str,
        /// Assignee.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
        /// 1-based line of the operator.
        line: u32,
    },
    /// Prefix `-`, `!`, `*`.
    Unary {
        /// Operator text.
        op: &'static str,
        /// Operand.
        expr: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `&expr` / `&mut expr`.
    Ref {
        /// Whether the borrow is mutable.
        is_mut: bool,
        /// Operand.
        expr: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `expr as Type`.
    Cast {
        /// Value being cast.
        expr: Box<Expr>,
        /// Target type token texts.
        ty: Vec<String>,
        /// 1-based line of the `as`.
        line: u32,
    },
    /// `expr?`.
    Try {
        /// Operand.
        expr: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `name!(args)`; `args` parsed as expressions when they parse
    /// cleanly.
    MacroCall {
        /// Macro name (last path segment).
        name: String,
        /// Cleanly parsed arguments (possibly empty).
        args: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `(expr)` — kept explicit so adjacency-sensitive ports of the
    /// token-level passes behave identically.
    Paren {
        /// Inner expression.
        expr: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `(a, b, ...)`.
    Tuple {
        /// Elements.
        items: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `[a, b]` / `[elem; n]`.
    Array {
        /// Elements (two entries for the repeat form).
        items: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `lo..hi` / `lo..=hi` with either end optional.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// `Path { field: expr, .. }`.
    StructLit {
        /// Path segments of the struct name.
        segs: Vec<String>,
        /// Field value expressions (shorthand fields become `Path`s).
        fields: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// Block expression (incl. `unsafe { ... }`).
    Block {
        /// The block.
        block: Block,
        /// 1-based line of the `{`.
        line: u32,
    },
    /// `if cond { } else ...` (incl. `if let`).
    If {
        /// Condition (the scrutinee for `if let`).
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// `else` branch: a `Block` or another `If`.
        els: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
        /// 1-based line.
        line: u32,
    },
    /// `for`/`while`/`loop`.
    Loop {
        /// Flavour.
        kind: LoopKind,
        /// Iterated/condition expression (`None` for `loop`).
        head: Option<Box<Expr>>,
        /// Body.
        body: Block,
        /// 1-based line of the keyword.
        line: u32,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        /// Parameter names.
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `return` / `break` / `continue` with optional value.
    Jump {
        /// Keyword text.
        keyword: &'static str,
        /// Carried value.
        expr: Option<Box<Expr>>,
        /// 1-based line.
        line: u32,
    },
    /// A token the expression grammar could not shape.
    Opaque {
        /// 1-based line.
        line: u32,
    },
}

impl Expr {
    /// Pre-order walk over this expression and every nested one,
    /// including block statements, arm guards/bodies and closure
    /// bodies. Nested *items* (a `fn` defined inside a block) are not
    /// entered — callers walk items separately.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Call { callee, args, .. } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Index { recv, index, .. } => {
                recv.walk(f);
                index.walk(f);
            }
            Expr::Field { recv, .. } => recv.walk(f),
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Unary { expr, .. }
            | Expr::Ref { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Try { expr, .. }
            | Expr::Paren { expr, .. } => expr.walk(f),
            Expr::MacroCall { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for e in items {
                    e.walk(f);
                }
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    e.walk(f);
                }
                if let Some(e) = hi {
                    e.walk(f);
                }
            }
            Expr::StructLit { fields, .. } => {
                for e in fields {
                    e.walk(f);
                }
            }
            Expr::Block { block, .. } => block.walk_exprs(f),
            Expr::If {
                cond, then, els, ..
            } => {
                cond.walk(f);
                then.walk_exprs(f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        g.walk(f);
                    }
                    arm.body.walk(f);
                }
            }
            Expr::Loop { head, body, .. } => {
                if let Some(e) = head {
                    e.walk(f);
                }
                body.walk_exprs(f);
            }
            Expr::Closure { body, .. } => body.walk(f),
            Expr::Jump { expr, .. } => {
                if let Some(e) = expr {
                    e.walk(f);
                }
            }
        }
    }
}

/// Visits the blocks nested inside `e` that are not themselves inside
/// another nested block — the direct block children. Callers recurse
/// via the statements of the yielded blocks, so each block is yielded
/// exactly once.
fn direct_blocks<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Block)) {
    match e {
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
        Expr::Block { block, .. } => f(block),
        Expr::If {
            cond, then, els, ..
        } => {
            direct_blocks(cond, f);
            f(then);
            if let Some(x) = els {
                direct_blocks(x, f);
            }
        }
        Expr::Loop { head, body, .. } => {
            if let Some(h) = head {
                direct_blocks(h, f);
            }
            f(body);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            direct_blocks(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    direct_blocks(g, f);
                }
                direct_blocks(&arm.body, f);
            }
        }
        Expr::Closure { body, .. } => direct_blocks(body, f),
        Expr::MethodCall { recv, args, .. } => {
            direct_blocks(recv, f);
            for a in args {
                direct_blocks(a, f);
            }
        }
        Expr::Call { callee, args, .. } => {
            direct_blocks(callee, f);
            for a in args {
                direct_blocks(a, f);
            }
        }
        Expr::Index { recv, index, .. } => {
            direct_blocks(recv, f);
            direct_blocks(index, f);
        }
        Expr::Field { recv, .. } => direct_blocks(recv, f),
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            direct_blocks(lhs, f);
            direct_blocks(rhs, f);
        }
        Expr::Unary { expr, .. }
        | Expr::Ref { expr, .. }
        | Expr::Cast { expr, .. }
        | Expr::Try { expr, .. }
        | Expr::Paren { expr, .. } => direct_blocks(expr, f),
        Expr::MacroCall { args, .. } => {
            for a in args {
                direct_blocks(a, f);
            }
        }
        Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
            for x in items {
                direct_blocks(x, f);
            }
        }
        Expr::Range { lo, hi, .. } => {
            if let Some(x) = lo {
                direct_blocks(x, f);
            }
            if let Some(x) = hi {
                direct_blocks(x, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for x in fields {
                direct_blocks(x, f);
            }
        }
        Expr::Jump { expr, .. } => {
            if let Some(x) = expr {
                direct_blocks(x, f);
            }
        }
    }
}

impl Block {
    /// Walks every statement in this block and in every block nested
    /// inside its expressions (`if`/`match`/loop bodies, closures,
    /// nested `{}` blocks), at any depth. Statements of nested *items*
    /// are not visited — an inner `fn` is its own scope.
    pub fn walk_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for stmt in &self.stmts {
            f(stmt);
            match stmt {
                Stmt::Let { init, els, .. } => {
                    if let Some(e) = init {
                        direct_blocks(e, &mut |b| b.walk_stmts(f));
                    }
                    if let Some(eb) = els {
                        eb.walk_stmts(f);
                    }
                }
                Stmt::Expr(e) => direct_blocks(e, &mut |b| b.walk_stmts(f)),
                Stmt::Item(_) => {}
            }
        }
    }

    /// Walks every expression directly in this block (statement
    /// expressions and `let` initialisers), recursively. Nested items
    /// are not entered.
    pub fn walk_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Let { init, els, .. } => {
                    if let Some(e) = init {
                        e.walk(f);
                    }
                    if let Some(b) = els {
                        b.walk_exprs(f);
                    }
                }
                Stmt::Expr(e) => e.walk(f),
                Stmt::Item(_) => {}
            }
        }
    }
}

impl Ast {
    /// Depth-first walk over every item, including `impl`/`mod`/`trait`
    /// members and items nested in blocks at any depth.
    pub fn walk_items(&self, f: &mut impl FnMut(&Item)) {
        fn rec(item: &Item, f: &mut impl FnMut(&Item)) {
            f(item);
            for child in &item.children {
                rec(child, f);
            }
            if let Some(body) = &item.body {
                body.walk_stmts(&mut |stmt| {
                    if let Stmt::Item(nested) = stmt {
                        rec(nested, f);
                    }
                });
            }
        }
        for item in &self.items {
            rec(item, f);
        }
    }
}

/// Walks every expression under `items`, skipping whole items (at any
/// nesting depth) for which `skip` returns true. The scan re-enters
/// nested block items through their own `skip` check, so a
/// `#[cfg(test)]` helper inside a function body is exempted the same
/// way a top-level test module is. `f` sees every expression node
/// exactly once, pre-order.
pub fn visit_exprs(items: &[Item], skip: &impl Fn(&Item) -> bool, f: &mut impl FnMut(&Expr)) {
    fn item(it: &Item, skip: &impl Fn(&Item) -> bool, f: &mut impl FnMut(&Expr)) {
        if skip(it) {
            return;
        }
        if let Some(init) = &it.init {
            init.walk(f);
        }
        if let Some(body) = &it.body {
            block(body, skip, f);
        }
        for child in &it.children {
            item(child, skip, f);
        }
    }
    fn block(b: &Block, skip: &impl Fn(&Item) -> bool, f: &mut impl FnMut(&Expr)) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { init, els, .. } => {
                    if let Some(e) = init {
                        e.walk(f);
                    }
                    if let Some(eb) = els {
                        block(eb, skip, f);
                    }
                }
                Stmt::Expr(e) => e.walk(f),
                Stmt::Item(nested) => item(nested, skip, f),
            }
        }
    }
    for it in items {
        item(it, skip, f);
    }
}

/// Parses one lexed file into the IR. Total: never fails.
pub fn parse(lexed: &Lexed) -> Ast {
    let mut p = Parser {
        t: &lexed.tokens,
        i: 0,
    };
    let mut items = Vec::new();
    while p.i < p.t.len() {
        let before = p.i;
        items.push(p.item());
        if p.i == before {
            // Defensive: item() always advances, but never loop forever.
            p.i += 1;
        }
    }
    Ast { items }
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
}

/// Item-introducing keywords (after visibility/modifiers).
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "trait",
    "impl",
    "mod",
    "use",
    "const",
    "static",
    "type",
    "macro_rules",
    "extern",
];

impl<'a> Parser<'a> {
    fn text(&self, k: usize) -> &str {
        self.t.get(k).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn kind(&self, k: usize) -> Option<TokKind> {
        self.t.get(k).map(|t| t.kind)
    }

    fn cur(&self) -> &str {
        self.text(self.i)
    }

    fn line_at(&self, k: usize) -> u32 {
        self.t
            .get(k.min(self.t.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn line(&self) -> u32 {
        self.line_at(self.i)
    }

    fn at_punct(&self, s: &str) -> bool {
        self.kind(self.i) == Some(TokKind::Punct) && self.cur() == s
    }

    fn punct_at(&self, k: usize, s: &str) -> bool {
        self.kind(k) == Some(TokKind::Punct) && self.text(k) == s
    }

    fn at_ident(&self, s: &str) -> bool {
        self.kind(self.i) == Some(TokKind::Ident) && self.cur() == s
    }

    fn is_ident(&self, k: usize) -> bool {
        self.kind(k) == Some(TokKind::Ident)
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// Index just past the group opened by the delimiter at `open`
    /// (`(`/`[`/`{`), balanced over all three delimiter kinds.
    fn after_group(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut k = open;
        while k < self.t.len() {
            if self.kind(k) == Some(TokKind::Punct) {
                match self.text(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            return k + 1;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        self.t.len()
    }

    /// Skips a `<...>` generic group starting at the current `<`.
    /// A `>` directly preceded by `-` is part of `->` and does not
    /// close the group.
    fn skip_angles(&mut self) {
        debug_assert!(self.at_punct("<"));
        let mut depth = 0i32;
        while self.i < self.t.len() {
            if self.kind(self.i) == Some(TokKind::Punct) {
                match self.cur() {
                    "<" => depth += 1,
                    ">" if !(self.i > 0 && self.punct_at(self.i - 1, "-")) => {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            return;
                        }
                    }
                    ";" => return, // malformed; bail before eating the file
                    "(" | "[" | "{" => {
                        self.i = self.after_group(self.i);
                        continue;
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    /// Collects outer attributes; inner (`#![...]`) attributes are
    /// skipped without recording.
    fn attrs(&mut self) -> Vec<Attr> {
        let mut out = Vec::new();
        while self.at_punct("#") {
            let line = self.line();
            let inner = self.punct_at(self.i + 1, "!");
            let open = self.i + 1 + usize::from(inner);
            if !self.punct_at(open, "[") {
                break;
            }
            let end = self.after_group(open);
            if !inner {
                let tokens = self.t[open + 1..end.saturating_sub(1)]
                    .iter()
                    .map(|t| t.text.clone())
                    .collect();
                out.push(Attr { line, tokens });
            }
            self.i = end;
        }
        out
    }

    /// Parses one item. Always advances.
    fn item(&mut self) -> Item {
        let attrs = self.attrs();
        let line = self.line();

        // Visibility and modifiers.
        loop {
            if self.at_ident("pub") {
                self.i += 1;
                if self.at_punct("(") {
                    self.i = self.after_group(self.i);
                }
                continue;
            }
            if (self.at_ident("unsafe") || self.at_ident("async") || self.at_ident("default"))
                && self.is_ident(self.i + 1)
            {
                self.i += 1;
                continue;
            }
            if self.at_ident("const") && self.text(self.i + 1) == "fn" {
                self.i += 1;
                continue;
            }
            if self.at_ident("extern")
                && self.kind(self.i + 1) == Some(TokKind::Str)
                && self.text(self.i + 2) == "fn"
            {
                self.i += 2;
                continue;
            }
            break;
        }

        let mut item = Item {
            kind: ItemKind::Other,
            name: None,
            line,
            attrs,
            sig: None,
            trait_path: None,
            ty: Vec::new(),
            body: None,
            init: None,
            children: Vec::new(),
        };

        match self.cur() {
            "fn" if self.is_ident(self.i) => self.item_fn(&mut item),
            "struct" | "enum" | "union" if self.is_ident(self.i) => {
                self.i += 1;
                item.kind = ItemKind::Type;
                item.name = self.take_name();
                self.skip_to_item_end();
            }
            "trait" if self.is_ident(self.i) => {
                self.i += 1;
                item.kind = ItemKind::Trait;
                item.name = self.take_name();
                self.skip_until_body_or_semi();
                if self.at_punct("{") {
                    self.item_children(&mut item);
                }
            }
            "impl" if self.is_ident(self.i) => self.item_impl(&mut item),
            "mod" if self.is_ident(self.i) => {
                self.i += 1;
                item.kind = ItemKind::Mod;
                item.name = self.take_name();
                if self.at_punct("{") {
                    self.item_children(&mut item);
                } else {
                    self.eat_punct(";");
                }
            }
            "use" if self.is_ident(self.i) => {
                self.i += 1;
                item.kind = ItemKind::Use;
                self.skip_to_semi();
            }
            "const" | "static" if self.is_ident(self.i) => self.item_const(&mut item),
            "type" if self.is_ident(self.i) => {
                self.i += 1;
                item.kind = ItemKind::Alias;
                item.name = self.take_name();
                self.skip_to_semi();
            }
            "macro_rules" if self.is_ident(self.i) => {
                self.i += 1;
                item.kind = ItemKind::MacroDef;
                self.eat_punct("!");
                item.name = self.take_name();
                if matches!(self.cur(), "{" | "(" | "[") {
                    self.i = self.after_group(self.i);
                    self.eat_punct(";");
                }
            }
            "extern" if self.is_ident(self.i) => {
                self.i += 1;
                item.kind = ItemKind::Other;
                if self.kind(self.i) == Some(TokKind::Str) {
                    self.i += 1;
                }
                if self.at_punct("{") {
                    self.item_children(&mut item);
                } else {
                    self.skip_to_semi();
                }
            }
            _ if self.is_ident(self.i) && self.punct_at(self.i + 1, "!") => {
                // Item-level macro invocation: `name! { ... }`.
                item.kind = ItemKind::MacroCall;
                item.name = Some(self.cur().to_string());
                self.i += 2;
                // `macro_rules`-style `name! ident { ... }`.
                if self.is_ident(self.i) {
                    self.i += 1;
                }
                if matches!(self.cur(), "{" | "(" | "[") {
                    self.i = self.after_group(self.i);
                }
                self.eat_punct(";");
            }
            _ => {
                // Unknown: consume a single token so the caller makes
                // progress.
                self.i += 1;
            }
        }
        item
    }

    fn take_name(&mut self) -> Option<String> {
        if self.is_ident(self.i) {
            let name = self.cur().to_string();
            self.i += 1;
            Some(name)
        } else {
            None
        }
    }

    /// After a `struct`/`enum` name: skips generics/where and the body
    /// (brace group or `;`).
    fn skip_to_item_end(&mut self) {
        while self.i < self.t.len() {
            match self.cur() {
                "<" if self.kind(self.i) == Some(TokKind::Punct) => self.skip_angles(),
                ";" => {
                    self.i += 1;
                    return;
                }
                "{" => {
                    self.i = self.after_group(self.i);
                    return;
                }
                "(" => {
                    // Tuple struct: `(fields)` then optional where + `;`.
                    self.i = self.after_group(self.i);
                }
                _ => self.i += 1,
            }
        }
    }

    /// Skips to the opening `{` of a trait/impl body, or past a `;`.
    fn skip_until_body_or_semi(&mut self) {
        while self.i < self.t.len() {
            match self.cur() {
                "<" if self.kind(self.i) == Some(TokKind::Punct) => self.skip_angles(),
                "{" => return,
                ";" => {
                    self.i += 1;
                    return;
                }
                "(" | "[" => self.i = self.after_group(self.i),
                _ => self.i += 1,
            }
        }
    }

    fn skip_to_semi(&mut self) {
        while self.i < self.t.len() {
            match self.cur() {
                ";" => {
                    self.i += 1;
                    return;
                }
                "{" | "(" | "[" => self.i = self.after_group(self.i),
                _ => self.i += 1,
            }
        }
    }

    /// Parses the `{ items }` body of an impl/trait/mod into children.
    fn item_children(&mut self, item: &mut Item) {
        debug_assert!(self.at_punct("{"));
        self.i += 1;
        while self.i < self.t.len() && !self.at_punct("}") {
            let before = self.i;
            item.children.push(self.item());
            if self.i == before {
                self.i += 1;
            }
        }
        self.eat_punct("}");
    }

    fn item_fn(&mut self, item: &mut Item) {
        self.i += 1; // fn
        item.kind = ItemKind::Fn;
        item.name = self.take_name();
        if self.at_punct("<") {
            self.skip_angles();
        }
        let mut sig = FnSig::default();
        if self.at_punct("(") {
            let close = self.after_group(self.i).saturating_sub(1);
            sig.params = self.fn_params(self.i + 1, close);
            self.i = close + 1;
        }
        if self.at_punct("-") && self.punct_at(self.i + 1, ">") {
            self.i += 2;
            sig.ret = self.type_tokens_until(&["{", ";", "where"]);
        }
        if self.at_ident("where") {
            while self.i < self.t.len() && !self.at_punct("{") && !self.at_punct(";") {
                match self.cur() {
                    "<" if self.kind(self.i) == Some(TokKind::Punct) => self.skip_angles(),
                    "(" | "[" => self.i = self.after_group(self.i),
                    _ => self.i += 1,
                }
            }
        }
        item.sig = Some(sig);
        if self.at_punct("{") {
            item.body = Some(self.block());
        } else {
            self.eat_punct(";");
        }
    }

    /// Parses parameter list tokens in `[lo, hi)` (exclusive of the
    /// closing paren).
    fn fn_params(&mut self, lo: usize, hi: usize) -> Vec<Param> {
        let mut params = Vec::new();
        let mut k = lo;
        while k < hi {
            // One comma-separated segment at depth 0.
            let seg_start = k;
            let mut depth = 0usize;
            while k < hi {
                if self.kind(k) == Some(TokKind::Punct) {
                    match self.text(k) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "<" => {
                            // Angle groups may contain commas.
                            let save = self.i;
                            self.i = k;
                            self.skip_angles();
                            k = self.i;
                            self.i = save;
                            continue;
                        }
                        "," if depth == 0 => break,
                        _ => {}
                    }
                }
                k += 1;
            }
            let seg_end = k;
            k += 1; // past comma
            if seg_start >= seg_end {
                continue;
            }
            let line = self.line_at(seg_start);
            // Find the top-level `:` splitting pattern from type.
            let mut colon = None;
            let mut depth = 0usize;
            for j in seg_start..seg_end {
                if self.kind(j) == Some(TokKind::Punct) {
                    match self.text(j) {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                        ":" if depth == 0 && !self.punct_at(j + 1, ":") && {
                            // Not the tail of a `::`.
                            !(j > seg_start && self.punct_at(j - 1, ":"))
                        } =>
                        {
                            colon = Some(j);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            let (pat_end, ty): (usize, Vec<String>) = match colon {
                Some(c) => (
                    c,
                    self.t[c + 1..seg_end]
                        .iter()
                        .map(|t| t.text.clone())
                        .collect(),
                ),
                None => (seg_end, Vec::new()),
            };
            // Receiver segment (`self`, `&self`, `&mut self`, `mut self`).
            let is_receiver = (seg_start..pat_end).any(|j| self.text(j) == "self");
            let name = if is_receiver {
                "self".to_string()
            } else {
                (seg_start..pat_end)
                    .find(|&j| self.is_ident(j) && !matches!(self.text(j), "mut" | "ref" | "_"))
                    .map(|j| self.text(j).to_string())
                    .unwrap_or_default()
            };
            let ty = if is_receiver && ty.is_empty() {
                self.t[seg_start..pat_end]
                    .iter()
                    .map(|t| t.text.clone())
                    .collect()
            } else {
                ty
            };
            params.push(Param { name, ty, line });
        }
        params
    }

    fn item_impl(&mut self, item: &mut Item) {
        self.i += 1; // impl
        item.kind = ItemKind::Impl;
        if self.at_punct("<") {
            self.skip_angles();
        }
        // Tokens up to `for` (trait path) or body (self type).
        let mut first = Vec::new();
        let mut saw_for = false;
        while self.i < self.t.len() {
            if self.at_punct("{") || self.at_punct(";") || self.at_ident("where") {
                break;
            }
            if self.at_ident("for") {
                saw_for = true;
                self.i += 1;
                break;
            }
            if self.at_punct("<") {
                let lo = self.i;
                self.skip_angles();
                for t in &self.t[lo..self.i] {
                    first.push(t.text.clone());
                }
                continue;
            }
            first.push(self.cur().to_string());
            self.i += 1;
        }
        if saw_for {
            item.trait_path = Some(first);
            item.ty = self.type_tokens_until(&["{", "where", ";"]);
        } else {
            item.ty = first;
        }
        if self.at_ident("where") {
            while self.i < self.t.len() && !self.at_punct("{") {
                match self.cur() {
                    "<" if self.kind(self.i) == Some(TokKind::Punct) => self.skip_angles(),
                    "(" | "[" => self.i = self.after_group(self.i),
                    _ => self.i += 1,
                }
            }
        }
        if self.at_punct("{") {
            self.item_children(item);
        } else {
            self.eat_punct(";");
        }
    }

    fn item_const(&mut self, item: &mut Item) {
        self.i += 1; // const / static
        item.kind = ItemKind::Const;
        self.eat_ident("mut");
        item.name = self.take_name();
        if self.eat_punct(":") {
            item.ty = self.type_tokens_until(&["=", ";"]);
        }
        if self.eat_punct("=") {
            item.init = Some(self.expr(false));
        }
        self.eat_punct(";");
    }

    /// Collects type tokens until one of `stops` at delimiter depth 0.
    /// `stops` entries are matched against both punct and ident text.
    fn type_tokens_until(&mut self, stops: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        while self.i < self.t.len() {
            let cur = self.cur();
            if stops.contains(&cur) {
                break;
            }
            match cur {
                "<" if self.kind(self.i) == Some(TokKind::Punct) => {
                    let lo = self.i;
                    self.skip_angles();
                    for t in &self.t[lo..self.i] {
                        out.push(t.text.clone());
                    }
                }
                "(" | "[" => {
                    let lo = self.i;
                    self.i = self.after_group(self.i);
                    for t in &self.t[lo..self.i] {
                        out.push(t.text.clone());
                    }
                }
                _ => {
                    out.push(cur.to_string());
                    self.i += 1;
                }
            }
        }
        out
    }

    /// Parses a brace block.
    fn block(&mut self) -> Block {
        debug_assert!(self.at_punct("{"));
        self.i += 1;
        let mut stmts = Vec::new();
        while self.i < self.t.len() && !self.at_punct("}") {
            let before = self.i;
            if let Some(stmt) = self.stmt() {
                stmts.push(stmt);
            }
            if self.i == before {
                self.i += 1; // never stall
            }
        }
        self.eat_punct("}");
        Block { stmts }
    }

    /// Parses one statement, or `None` for stray semicolons.
    fn stmt(&mut self) -> Option<Stmt> {
        if self.eat_punct(";") {
            return None;
        }
        // Attributes may precede statements and nested items; peek past
        // them to classify, but let item() re-collect its own.
        let save = self.i;
        let _ = self.attrs();
        let is_item = {
            let head = self.cur();
            let head_is_item_kw = self.is_ident(self.i)
                && ITEM_KEYWORDS.contains(&head)
                // `const` here must not swallow expression-position
                // keywords; a `const` statement is an item form.
                && match head {
                    "unsafe" => false, // handled below
                    _ => true,
                };
            let unsafe_item = self.at_ident("unsafe")
                && matches!(self.text(self.i + 1), "fn" | "impl" | "trait" | "extern");
            let pub_item = self.at_ident("pub");
            head_is_item_kw || unsafe_item || pub_item
        };
        self.i = save;
        if is_item {
            return Some(Stmt::Item(self.item()));
        }
        let _ = self.attrs();
        if self.at_ident("let") {
            let line = self.line();
            self.i += 1;
            let (names, _) = self.pattern_until(&["=", ":", ";"]);
            let mut ty = Vec::new();
            if self.eat_punct(":") {
                ty = self.type_tokens_until(&["=", ";"]);
            }
            let mut init = None;
            let mut els = None;
            if self.eat_punct("=") {
                init = Some(self.expr(false));
                if self.eat_ident("else") && self.at_punct("{") {
                    els = Some(self.block());
                }
            }
            self.eat_punct(";");
            return Some(Stmt::Let {
                names,
                ty,
                init,
                els,
                line,
            });
        }
        let e = self.expr(false);
        self.eat_punct(";");
        Some(Stmt::Expr(e))
    }

    /// Scans a pattern, stopping at any of `stops` at depth 0. A `=`
    /// stop does not match the `=` of `==`/`=>`/`<=`-like pairs, and an
    /// `=` preceded by `.` (`..=` ranges) does not stop. Returns the
    /// bound names and the stop text.
    fn pattern_until(&mut self, stops: &[&str]) -> (Vec<String>, String) {
        let mut names = Vec::new();
        let mut depth = 0usize;
        while self.i < self.t.len() {
            let cur = self.cur();
            if depth == 0 && stops.contains(&"=>") && cur == "=" && self.punct_at(self.i + 1, ">") {
                return (names, "=>".to_string());
            }
            if depth == 0 && stops.contains(&cur) {
                let genuine_eq = cur != "="
                    || !(self.punct_at(self.i + 1, "=")
                        || self.punct_at(self.i + 1, ">")
                        || (self.i > 0 && self.punct_at(self.i - 1, ".")));
                if genuine_eq {
                    return (names, cur.to_string());
                }
            }
            if depth == 0 && (cur == "{" && !stops.contains(&"{")) {
                // A brace in pattern position (struct pattern) — enter.
                depth += 1;
                self.i += 1;
                continue;
            }
            match self.kind(self.i) {
                Some(TokKind::Punct) => match cur {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            return (names, cur.to_string());
                        }
                        depth -= 1;
                    }
                    _ => {}
                },
                Some(TokKind::Ident)
                    if !(matches!(
                        cur,
                        "mut" | "ref" | "_" | "Some" | "None" | "Ok" | "Err" | "box"
                    ) || self.punct_at(self.i + 1, ":")
                        || self.punct_at(self.i + 1, "!")
                        || (self.i > 0 && self.punct_at(self.i - 1, ":"))) =>
                {
                    names.push(cur.to_string());
                }
                _ => {}
            }
            self.i += 1;
        }
        (names, String::new())
    }

    /// Splits the token range `[lo, hi]` (inclusive) on top-level
    /// commas and parses each piece as an expression. Pieces that do
    /// not parse cleanly become `Opaque`.
    fn comma_exprs(&self, lo: usize, hi: usize) -> Vec<Expr> {
        let mut out = Vec::new();
        if lo > hi || lo >= self.t.len() {
            return out;
        }
        let mut seg_start = lo;
        let mut depth = 0usize;
        let mut k = lo;
        let flush = |seg_start: usize, seg_end: usize, out: &mut Vec<Expr>| {
            if seg_start > seg_end {
                return;
            }
            let mut sub = Parser {
                t: self.t,
                i: seg_start,
            };
            let e = sub.expr(false);
            if sub.i > seg_end + 1 || sub.i <= seg_start {
                out.push(Expr::Opaque {
                    line: self.line_at(seg_start),
                });
            } else if sub.i == seg_end + 1 {
                out.push(e);
            } else {
                // Leftover tokens: the piece is not a plain expression.
                out.push(Expr::Opaque {
                    line: self.line_at(seg_start),
                });
            }
        };
        while k <= hi && k < self.t.len() {
            if self.kind(k) == Some(TokKind::Punct) {
                match self.text(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "," if depth == 0 => {
                        flush(seg_start, k.saturating_sub(1), &mut out);
                        seg_start = k + 1;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        flush(seg_start, hi.min(self.t.len().saturating_sub(1)), &mut out);
        out
    }

    /// Whether the token at `k` can begin an expression.
    fn starts_expr(&self, k: usize) -> bool {
        match self.kind(k) {
            Some(TokKind::Num)
            | Some(TokKind::Str)
            | Some(TokKind::Char)
            | Some(TokKind::Lifetime) => true,
            Some(TokKind::Ident) => !matches!(self.text(k), "else" | "in" | "where" | "as"),
            Some(TokKind::Punct) => {
                matches!(
                    self.text(k),
                    "(" | "[" | "{" | "&" | "*" | "!" | "|" | "-" | "<" | "#"
                ) || (self.text(k) == "." && self.punct_at(k + 1, "."))
            }
            None => false,
        }
    }

    /// Parses one expression.
    fn expr(&mut self, no_struct: bool) -> Expr {
        self.pratt(0, no_struct)
    }

    /// Pratt loop over infix operators with binding power >= `min_bp`.
    fn pratt(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.prefix(no_struct);
        while let Some((op, len, bp, assign)) = self.infix_op() {
            if bp < min_bp {
                break;
            }
            let line = self.line();
            if op == ".." || op == "..=" {
                self.i += len;
                let hi = if self.starts_expr(self.i) {
                    Some(Box::new(self.pratt(bp + 1, no_struct)))
                } else {
                    None
                };
                lhs = Expr::Range {
                    lo: Some(Box::new(lhs)),
                    hi,
                    line,
                };
                continue;
            }
            self.i += len;
            // Assignment is right-associative; everything else left.
            let rhs = self.pratt(if assign { bp } else { bp + 1 }, no_struct);
            lhs = if assign {
                Expr::Assign {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                }
            } else {
                Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                }
            };
        }
        lhs
    }

    /// Recognises the infix operator at the cursor: returns its
    /// canonical text, token length, binding power and whether it
    /// assigns. Multi-character operators are assembled from adjacent
    /// single-character punct tokens.
    fn infix_op(&self) -> Option<(&'static str, usize, u8, bool)> {
        if self.kind(self.i) != Some(TokKind::Punct) {
            return None;
        }
        let a = self.cur();
        let b = self.text(self.i + 1);
        let c = self.text(self.i + 2);
        let two = |x: &str| b == x;
        Some(match a {
            "=" if two("=") => ("==", 2, 5, false),
            "=" if two(">") => return None, // `=>`: never infix
            "=" => ("=", 1, 1, true),
            "+" if two("=") => ("+=", 2, 1, true),
            "+" => ("+", 1, 10, false),
            "-" if two("=") => ("-=", 2, 1, true),
            "-" if two(">") => return None, // `->`: closure/fn type
            "-" => ("-", 1, 10, false),
            "*" if two("=") => ("*=", 2, 1, true),
            "*" => ("*", 1, 11, false),
            "/" if two("=") => ("/=", 2, 1, true),
            "/" => ("/", 1, 11, false),
            "%" if two("=") => ("%=", 2, 1, true),
            "%" => ("%", 1, 11, false),
            "^" if two("=") => ("^=", 2, 1, true),
            "^" => ("^", 1, 7, false),
            "<" if two("<") && c == "=" => ("<<=", 3, 1, true),
            "<" if two("<") => ("<<", 2, 9, false),
            "<" if two("=") => ("<=", 2, 5, false),
            "<" => ("<", 1, 5, false),
            ">" if two(">") && c == "=" => (">>=", 3, 1, true),
            ">" if two(">") => (">>", 2, 9, false),
            ">" if two("=") => (">=", 2, 5, false),
            ">" => (">", 1, 5, false),
            "&" if two("&") => ("&&", 2, 4, false),
            "&" if two("=") => ("&=", 2, 1, true),
            "&" => ("&", 1, 8, false),
            "|" if two("|") => ("||", 2, 3, false),
            "|" if two("=") => ("|=", 2, 1, true),
            "|" => ("|", 1, 6, false),
            "!" if two("=") => ("!=", 2, 5, false),
            "." if two(".") && c == "=" => ("..=", 3, 2, false),
            "." if two(".") => ("..", 2, 2, false),
            _ => return None,
        })
    }

    /// Parses a primary expression plus its postfix chain.
    fn prefix(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let e = match self.kind(self.i) {
            Some(TokKind::Num) => {
                let text = self.cur().to_string();
                self.i += 1;
                Expr::Lit {
                    kind: num_lit_kind(&text),
                    text,
                    line,
                }
            }
            Some(TokKind::Str) => {
                let text = self.cur().to_string();
                self.i += 1;
                Expr::Lit {
                    kind: LitKind::Str,
                    text,
                    line,
                }
            }
            Some(TokKind::Char) => {
                let text = self.cur().to_string();
                self.i += 1;
                Expr::Lit {
                    kind: LitKind::Char,
                    text,
                    line,
                }
            }
            Some(TokKind::Lifetime) => {
                // Loop label: `'a: loop { ... }`, or `break 'a`.
                self.i += 1;
                if self.eat_punct(":") {
                    return self.prefix(no_struct);
                }
                Expr::Opaque { line }
            }
            Some(TokKind::Ident) => return self.ident_expr(no_struct),
            Some(TokKind::Punct) => match self.cur() {
                "(" => {
                    let open = self.i;
                    let end = self.after_group(open);
                    let items = self.comma_exprs(open + 1, end.saturating_sub(2));
                    self.i = end;
                    let trailing_comma = end >= 2 && self.punct_at(end - 2, ",");
                    if items.len() == 1 && !trailing_comma {
                        Expr::Paren {
                            expr: Box::new(items.into_iter().next().unwrap()),
                            line,
                        }
                    } else {
                        Expr::Tuple { items, line }
                    }
                }
                "[" => {
                    let open = self.i;
                    let end = self.after_group(open);
                    // `[elem; n]` repeat form: split on top-level `;`.
                    let mut semi = None;
                    let mut depth = 0usize;
                    for k in open + 1..end.saturating_sub(1) {
                        if self.kind(k) == Some(TokKind::Punct) {
                            match self.text(k) {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                                ";" if depth == 0 => {
                                    semi = Some(k);
                                    break;
                                }
                                _ => {}
                            }
                        }
                    }
                    let items = match semi {
                        Some(s) => {
                            let mut v = self.comma_exprs(open + 1, s.saturating_sub(1));
                            v.extend(self.comma_exprs(s + 1, end.saturating_sub(2)));
                            v
                        }
                        None => self.comma_exprs(open + 1, end.saturating_sub(2)),
                    };
                    self.i = end;
                    Expr::Array { items, line }
                }
                "{" => {
                    let block = self.block();
                    Expr::Block { block, line }
                }
                "&" => {
                    self.i += 1;
                    let is_mut = self.eat_ident("mut");
                    let expr = self.pratt(12, no_struct);
                    Expr::Ref {
                        is_mut,
                        expr: Box::new(expr),
                        line,
                    }
                }
                "*" | "!" | "-" => {
                    let op: &'static str = match self.cur() {
                        "*" => "*",
                        "!" => "!",
                        _ => "-",
                    };
                    self.i += 1;
                    let expr = self.pratt(12, no_struct);
                    Expr::Unary {
                        op,
                        expr: Box::new(expr),
                        line,
                    }
                }
                "|" => return self.closure(line, no_struct),
                "." if self.punct_at(self.i + 1, ".") => {
                    // Prefix range `..hi` / `..=hi` / bare `..`.
                    self.i += 2;
                    self.eat_punct("=");
                    let hi = if self.starts_expr(self.i) {
                        Some(Box::new(self.pratt(3, no_struct)))
                    } else {
                        None
                    };
                    Expr::Range { lo: None, hi, line }
                }
                "<" => {
                    // Qualified path `<T as Trait>::assoc(...)`.
                    self.skip_angles();
                    let mut segs = vec!["<qualified>".to_string()];
                    while self.at_punct(":") && self.punct_at(self.i + 1, ":") {
                        self.i += 2;
                        if self.at_punct("<") {
                            self.skip_angles();
                            continue;
                        }
                        if self.is_ident(self.i) {
                            segs.push(self.cur().to_string());
                            self.i += 1;
                        } else {
                            break;
                        }
                    }
                    Expr::Path { segs, line }
                }
                "#" => {
                    // Expression-position attribute: skip it, parse on.
                    let _ = self.attrs();
                    return self.prefix(no_struct);
                }
                _ => {
                    self.i += 1;
                    Expr::Opaque { line }
                }
            },
            None => Expr::Opaque { line },
        };
        self.postfix(e, no_struct)
    }

    /// Identifier-led expressions: keywords and paths.
    fn ident_expr(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        match self.cur() {
            "if" => {
                let e = self.parse_if();
                self.postfix(e, no_struct)
            }
            "match" => {
                self.i += 1;
                let scrutinee = self.pratt(0, true);
                let mut arms = Vec::new();
                if self.at_punct("{") {
                    self.i += 1;
                    while self.i < self.t.len() && !self.at_punct("}") {
                        let before = self.i;
                        let _ = self.attrs();
                        let arm_line = self.line();
                        let (pat_names, stop) = self.pattern_until(&["=>", "if"]);
                        let _ = pat_names;
                        let mut guard = None;
                        if stop == "if" {
                            self.i += 1; // `if`
                            guard = Some(self.pratt(0, true));
                        }
                        // Expect `=>`.
                        if self.at_punct("=") && self.punct_at(self.i + 1, ">") {
                            self.i += 2;
                        }
                        let body = self.expr(false);
                        self.eat_punct(",");
                        arms.push(Arm {
                            pat: Vec::new(),
                            guard,
                            body,
                            line: arm_line,
                        });
                        if self.i == before {
                            self.i += 1;
                        }
                    }
                    self.eat_punct("}");
                }
                let e = Expr::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                    line,
                };
                self.postfix(e, no_struct)
            }
            "for" => {
                self.i += 1;
                let _ = self.pattern_until(&["in"]);
                self.eat_ident("in");
                let head = self.pratt(0, true);
                let body = if self.at_punct("{") {
                    self.block()
                } else {
                    Block::default()
                };
                Expr::Loop {
                    kind: LoopKind::For,
                    head: Some(Box::new(head)),
                    body,
                    line,
                }
            }
            "while" => {
                self.i += 1;
                let head = if self.eat_ident("let") {
                    let _ = self.pattern_until(&["="]);
                    self.eat_punct("=");
                    self.pratt(0, true)
                } else {
                    self.pratt(0, true)
                };
                let body = if self.at_punct("{") {
                    self.block()
                } else {
                    Block::default()
                };
                Expr::Loop {
                    kind: LoopKind::While,
                    head: Some(Box::new(head)),
                    body,
                    line,
                }
            }
            "loop" => {
                self.i += 1;
                let body = if self.at_punct("{") {
                    self.block()
                } else {
                    Block::default()
                };
                Expr::Loop {
                    kind: LoopKind::Loop,
                    head: None,
                    body,
                    line,
                }
            }
            "unsafe" if self.punct_at(self.i + 1, "{") => {
                self.i += 1;
                let block = self.block();
                let e = Expr::Block { block, line };
                self.postfix(e, no_struct)
            }
            "move" => {
                self.i += 1;
                if self.at_punct("|") {
                    self.closure(line, no_struct)
                } else {
                    Expr::Opaque { line }
                }
            }
            "return" | "break" | "continue" => {
                let keyword: &'static str = match self.cur() {
                    "return" => "return",
                    "break" => "break",
                    _ => "continue",
                };
                self.i += 1;
                if self.kind(self.i) == Some(TokKind::Lifetime) {
                    self.i += 1; // break label
                }
                let expr = if self.starts_expr(self.i) && !self.at_punct("{") {
                    Some(Box::new(self.pratt(0, no_struct)))
                } else {
                    None
                };
                Expr::Jump {
                    keyword,
                    expr,
                    line,
                }
            }
            "let" => {
                // let-chain operand inside a condition.
                self.i += 1;
                let _ = self.pattern_until(&["="]);
                self.eat_punct("=");
                let e = self.pratt(5, true);
                self.postfix(e, no_struct)
            }
            _ => {
                let e = self.path_led(no_struct);
                self.postfix(e, no_struct)
            }
        }
    }

    fn parse_if(&mut self) -> Expr {
        let line = self.line();
        self.i += 1; // if
        let cond = if self.eat_ident("let") {
            let _ = self.pattern_until(&["="]);
            self.eat_punct("=");
            self.pratt(0, true)
        } else {
            self.pratt(0, true)
        };
        let then = if self.at_punct("{") {
            self.block()
        } else {
            Block::default()
        };
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.parse_if()))
            } else if self.at_punct("{") {
                let block = self.block();
                Some(Box::new(Expr::Block {
                    block,
                    line: self.line(),
                }))
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            els,
            line,
        }
    }

    /// A path, then macro call / struct literal disambiguation.
    fn path_led(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let mut segs = Vec::new();
        if self.is_ident(self.i) {
            segs.push(self.cur().to_string());
            self.i += 1;
        } else {
            self.i += 1;
            return Expr::Opaque { line };
        }
        loop {
            if self.at_punct(":") && self.punct_at(self.i + 1, ":") {
                if self.punct_at(self.i + 2, "<") {
                    // Turbofish in a path: `Vec::<u8>::new`.
                    self.i += 2;
                    self.skip_angles();
                    continue;
                }
                if self.is_ident(self.i + 2) {
                    segs.push(self.text(self.i + 2).to_string());
                    self.i += 3;
                    continue;
                }
            }
            break;
        }
        if self.at_punct("!") && matches!(self.text(self.i + 1), "(" | "[" | "{") {
            // Macro call.
            let name = segs.last().cloned().unwrap_or_default();
            self.i += 1;
            let open = self.i;
            let end = self.after_group(open);
            let (lo, hi) = (open + 1, end.saturating_sub(2));
            let args = if lo <= hi {
                self.comma_exprs(lo, hi)
            } else {
                Vec::new()
            };
            self.i = end;
            return Expr::MacroCall { name, args, line };
        }
        if self.at_punct("{") && !no_struct {
            // Struct literal.
            self.i += 1;
            let mut fields = Vec::new();
            while self.i < self.t.len() && !self.at_punct("}") {
                let before = self.i;
                let _ = self.attrs();
                if self.at_punct(".") && self.punct_at(self.i + 1, ".") {
                    // `..base`
                    self.i += 2;
                    if self.starts_expr(self.i) {
                        fields.push(self.expr(false));
                    }
                } else if self.is_ident(self.i) && self.punct_at(self.i + 1, ":") {
                    let fline = self.line();
                    let _ = fline;
                    self.i += 2;
                    fields.push(self.expr(false));
                } else if self.is_ident(self.i) {
                    // Shorthand `Foo { x }`.
                    fields.push(Expr::Path {
                        segs: vec![self.cur().to_string()],
                        line: self.line(),
                    });
                    self.i += 1;
                }
                self.eat_punct(",");
                if self.i == before {
                    self.i += 1;
                }
            }
            self.eat_punct("}");
            return Expr::StructLit { segs, fields, line };
        }
        Expr::Path { segs, line }
    }

    /// `|params| body`, cursor on the first `|`.
    fn closure(&mut self, line: u32, no_struct: bool) -> Expr {
        debug_assert!(self.at_punct("|"));
        let mut params = Vec::new();
        if self.punct_at(self.i + 1, "|") {
            self.i += 2; // `||`
        } else {
            self.i += 1;
            // Scan to the closing `|` at depth 0.
            let mut depth = 0usize;
            let mut expecting_name = true;
            while self.i < self.t.len() {
                let cur = self.cur();
                match self.kind(self.i) {
                    Some(TokKind::Punct) => match cur {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "<" => {
                            self.skip_angles();
                            continue;
                        }
                        "|" if depth == 0 => {
                            self.i += 1;
                            break;
                        }
                        "," if depth == 0 => expecting_name = true,
                        ":" if depth == 0 => expecting_name = false,
                        _ => {}
                    },
                    Some(TokKind::Ident)
                        if expecting_name && !matches!(cur, "mut" | "ref" | "_") =>
                    {
                        params.push(cur.to_string());
                        expecting_name = false;
                    }
                    _ => {}
                }
                self.i += 1;
            }
        }
        // Optional `-> Type` before a block body.
        if self.at_punct("-") && self.punct_at(self.i + 1, ">") {
            self.i += 2;
            let _ = self.type_tokens_until(&["{"]);
        }
        let body = if self.at_punct("{") {
            let block = self.block();
            Expr::Block {
                block,
                line: self.line(),
            }
        } else {
            self.pratt(2, no_struct)
        };
        Expr::Closure {
            params,
            body: Box::new(body),
            line,
        }
    }

    /// Applies postfix operators: `.method(..)`, `.field`, `(..)`,
    /// `[..]`, `?`, `as Type`.
    fn postfix(&mut self, mut e: Expr, no_struct: bool) -> Expr {
        loop {
            match self.kind(self.i) {
                Some(TokKind::Punct) => match self.cur() {
                    "." => {
                        if self.punct_at(self.i + 1, ".") {
                            break; // range — infix handles it
                        }
                        if self.is_ident(self.i + 1) {
                            let line = self.line_at(self.i + 1);
                            let name = self.text(self.i + 1).to_string();
                            self.i += 2;
                            let mut turbofish = Vec::new();
                            if self.at_punct(":")
                                && self.punct_at(self.i + 1, ":")
                                && self.punct_at(self.i + 2, "<")
                            {
                                self.i += 2;
                                let lo = self.i;
                                self.skip_angles();
                                turbofish =
                                    self.t[lo..self.i].iter().map(|t| t.text.clone()).collect();
                            }
                            if self.at_punct("(") {
                                let open = self.i;
                                let end = self.after_group(open);
                                let args = self.comma_exprs(open + 1, end.saturating_sub(2));
                                self.i = end;
                                e = Expr::MethodCall {
                                    recv: Box::new(e),
                                    method: name,
                                    turbofish,
                                    args,
                                    line,
                                };
                            } else {
                                e = Expr::Field {
                                    recv: Box::new(e),
                                    name,
                                    line,
                                };
                            }
                        } else if self.kind(self.i + 1) == Some(TokKind::Num) {
                            let line = self.line_at(self.i + 1);
                            let name = self.text(self.i + 1).to_string();
                            self.i += 2;
                            e = Expr::Field {
                                recv: Box::new(e),
                                name,
                                line,
                            };
                        } else {
                            break;
                        }
                    }
                    "(" => {
                        let line = self.line();
                        let open = self.i;
                        let end = self.after_group(open);
                        let args = self.comma_exprs(open + 1, end.saturating_sub(2));
                        self.i = end;
                        e = Expr::Call {
                            callee: Box::new(e),
                            args,
                            line,
                        };
                    }
                    "[" => {
                        let line = self.line();
                        let open = self.i;
                        let end = self.after_group(open);
                        let mut inner = self.comma_exprs(open + 1, end.saturating_sub(2));
                        self.i = end;
                        let index = if inner.len() == 1 {
                            inner.pop().unwrap()
                        } else {
                            Expr::Opaque { line }
                        };
                        e = Expr::Index {
                            recv: Box::new(e),
                            index: Box::new(index),
                            line,
                        };
                    }
                    "?" => {
                        let line = self.line();
                        self.i += 1;
                        e = Expr::Try {
                            expr: Box::new(e),
                            line,
                        };
                    }
                    _ => break,
                },
                Some(TokKind::Ident) if self.cur() == "as" => {
                    let line = self.line();
                    self.i += 1;
                    let ty = self.cast_type_tokens();
                    e = Expr::Cast {
                        expr: Box::new(e),
                        ty,
                        line,
                    };
                }
                _ => break,
            }
        }
        let _ = no_struct;
        e
    }

    /// Type tokens after `as`: a path with generics, references,
    /// pointers, parenthesised/slice types. Stops at any operator that
    /// cannot continue a cast type (`+` included — Rust requires
    /// parentheses there).
    fn cast_type_tokens(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match self.kind(self.i) {
                Some(TokKind::Ident) => {
                    match self.cur() {
                        "as" => break, // chained cast: postfix loop re-enters
                        "dyn" | "impl" | "mut" | "const" | "fn" => {}
                        _ => {}
                    }
                    out.push(self.cur().to_string());
                    self.i += 1;
                    // Path continuation.
                    while self.at_punct(":") && self.punct_at(self.i + 1, ":") {
                        out.push("::".to_string());
                        self.i += 2;
                        if self.at_punct("<") {
                            let lo = self.i;
                            self.skip_angles();
                            for t in &self.t[lo..self.i] {
                                out.push(t.text.clone());
                            }
                        } else if self.is_ident(self.i) {
                            out.push(self.cur().to_string());
                            self.i += 1;
                        }
                    }
                    if self.at_punct("<") {
                        let lo = self.i;
                        self.skip_angles();
                        for t in &self.t[lo..self.i] {
                            out.push(t.text.clone());
                        }
                    }
                    // After a complete path, only pointer/paren forms
                    // continue a type.
                    if !(self.at_punct("(") || self.at_punct("[")) {
                        break;
                    }
                }
                Some(TokKind::Punct) => match self.cur() {
                    "&" => {
                        out.push("&".to_string());
                        self.i += 1;
                        if self.kind(self.i) == Some(TokKind::Lifetime) {
                            self.i += 1;
                        }
                        if self.at_ident("mut") {
                            out.push("mut".to_string());
                            self.i += 1;
                        }
                    }
                    "*" if matches!(self.text(self.i + 1), "const" | "mut") => {
                        out.push("*".to_string());
                        out.push(self.text(self.i + 1).to_string());
                        self.i += 2;
                    }
                    "(" | "[" => {
                        let lo = self.i;
                        self.i = self.after_group(self.i);
                        for t in &self.t[lo..self.i] {
                            out.push(t.text.clone());
                        }
                        break;
                    }
                    _ => break,
                },
                Some(TokKind::Lifetime) => {
                    self.i += 1;
                }
                _ => break,
            }
        }
        out
    }
}

/// Classifies a numeric literal's text.
fn num_lit_kind(text: &str) -> LitKind {
    let lower = text.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0b") || lower.starts_with("0o") {
        return LitKind::Int;
    }
    if lower.ends_with("f32") || lower.ends_with("f64") {
        return LitKind::Float;
    }
    if lower.contains('.') || lower.contains('e') {
        return LitKind::Float;
    }
    LitKind::Int
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    fn fn_names(ast: &Ast) -> Vec<String> {
        let mut out = Vec::new();
        ast.walk_items(&mut |item| {
            if item.kind == ItemKind::Fn {
                out.push(item.name.clone().unwrap_or_default());
            }
        });
        out
    }

    fn only_fn(ast: &Ast) -> &Item {
        assert_eq!(fn_names(ast).len(), 1, "{ast:#?}");
        &ast.items[0]
    }

    #[test]
    fn fn_signature_is_structured() {
        let ast = parse_src(
            "impl Reader { pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> { self.take(2) } }",
        );
        assert_eq!(fn_names(&ast), ["u16"]);
        let imp = &ast.items[0];
        assert_eq!(imp.ty, ["Reader"]);
        let f = &imp.children[0];
        let sig = f.sig.as_ref().unwrap();
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.params[0].name, "self");
        assert_eq!(sig.params[1].name, "what");
        assert!(sig.ret.contains(&"WireError".to_string()), "{:?}", sig.ret);
    }

    #[test]
    fn method_chain_and_try_shape() {
        let ast = parse_src(
            "fn f(r: &mut R) -> Result<u32, E> { let n = r.u32(\"len\")?.max(1); Ok(n) }",
        );
        let f = only_fn(&ast);
        let body = f.body.as_ref().unwrap();
        let Stmt::Let { names, init, .. } = &body.stmts[0] else {
            panic!("{body:#?}")
        };
        assert_eq!(names, &["n"]);
        // max( try( u32(recv, args) ) )
        let Expr::MethodCall { method, recv, .. } = init.as_ref().unwrap() else {
            panic!("{init:#?}")
        };
        assert_eq!(method, "max");
        let Expr::Try { expr, .. } = recv.as_ref() else {
            panic!("{recv:#?}")
        };
        let Expr::MethodCall { method, .. } = expr.as_ref() else {
            panic!("{expr:#?}")
        };
        assert_eq!(method, "u32");
    }

    #[test]
    fn nested_index_and_slicing() {
        let ast = parse_src("fn f(b: &[u8], i: usize, n: usize) -> u8 { b[table[i]..i + n][0] }");
        let f = only_fn(&ast);
        let mut indexes = 0;
        let mut ranges = 0;
        f.body.as_ref().unwrap().walk_exprs(&mut |e| match e {
            Expr::Index { .. } => indexes += 1,
            Expr::Range { .. } => ranges += 1,
            _ => {}
        });
        assert_eq!(indexes, 3); // b[..], table[i], [0]
        assert_eq!(ranges, 1);
    }

    #[test]
    fn cast_chains_flatten() {
        let ast = parse_src("fn f(x: u64) -> usize { (x as u32 as usize) + x as usize }");
        let f = only_fn(&ast);
        let mut casts: Vec<Vec<String>> = Vec::new();
        f.body.as_ref().unwrap().walk_exprs(&mut |e| {
            if let Expr::Cast { ty, .. } = e {
                casts.push(ty.clone());
            }
        });
        assert_eq!(casts.len(), 3, "{casts:?}");
        assert!(casts.iter().any(|t| t == &["u32"]));
        assert_eq!(casts.iter().filter(|t| *t == &["usize"]).count(), 2);
    }

    #[test]
    fn operators_assemble_from_single_char_puncts() {
        let ast = parse_src(
            "fn f(a: u32, b: u32) -> bool { let c = a << 2; let d = c + b * 3; d >= a && d != b }",
        );
        let f = only_fn(&ast);
        let mut ops = Vec::new();
        f.body.as_ref().unwrap().walk_exprs(&mut |e| {
            if let Expr::Binary { op, .. } = e {
                ops.push(*op);
            }
        });
        ops.sort_unstable();
        assert_eq!(ops, ["!=", "&&", "*", "+", "<<", ">="]);
    }

    #[test]
    fn test_attrs_mark_items() {
        let ast = parse_src(
            "#[cfg(test)] mod tests { #[test] fn t() { let m = HashMap::new(); } }\nfn real() {}",
        );
        let mut tests = 0;
        ast.walk_items(&mut |item| tests += usize::from(item.is_test_only()));
        assert_eq!(tests, 2); // the mod and the fn
        assert_eq!(ast.items.len(), 2);
        assert!(!ast.items[1].is_test_only());
    }

    #[test]
    fn cfg_divergent_items_are_marked() {
        let ast = parse_src(
            "#[cfg(target_arch = \"x86_64\")] mod simd { #[target_feature(enable = \"avx\")] pub unsafe fn rows() {} }",
        );
        assert!(ast.items[0].is_divergent());
        assert!(!ast.items[0].is_test_only());
    }

    #[test]
    fn fmt_impls_are_found() {
        let ast = parse_src(
            "impl fmt::Display for W { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"{}\", self.0) } }",
        );
        let trait_path = ast.items[0].trait_path.as_deref().unwrap_or_default();
        assert!(trait_path.iter().any(|t| t == "Display"), "{trait_path:?}");
    }

    #[test]
    fn loops_nest_and_carry_bodies() {
        let ast = parse_src(
            "fn f(xs: &[u32]) { for x in xs { let mut i = 0; while i < 4 { i += 1; } loop { break; } } }",
        );
        let f = only_fn(&ast);
        let mut kinds = Vec::new();
        f.body.as_ref().unwrap().walk_exprs(&mut |e| {
            if let Expr::Loop { kind, .. } = e {
                kinds.push(*kind);
            }
        });
        assert_eq!(kinds, [LoopKind::For, LoopKind::While, LoopKind::Loop]);
    }

    #[test]
    fn match_arms_guards_and_bodies_parse() {
        let ast = parse_src(
            "fn f(x: Option<u32>) -> u32 { match x { Some(v) if v > 2 => v.max(3), Some(v) => v, None => 0 } }",
        );
        let f = only_fn(&ast);
        let mut arms = 0;
        let mut guards = 0;
        f.body.as_ref().unwrap().walk_exprs(&mut |e| {
            if let Expr::Match { arms: a, .. } = e {
                arms += a.len();
                guards += a.iter().filter(|arm| arm.guard.is_some()).count();
            }
        });
        assert_eq!((arms, guards), (3, 1));
    }

    #[test]
    fn closures_and_macro_args_parse() {
        let ast = parse_src(
            "fn f(xs: Vec<u32>) -> u64 { assert!(xs.len() < 10, \"big\"); xs.iter().map(|x| *x as u64).sum::<u64>() }",
        );
        let f = only_fn(&ast);
        let mut saw_closure = false;
        let mut sum_turbofish = Vec::new();
        let mut macro_name = String::new();
        f.body.as_ref().unwrap().walk_exprs(&mut |e| match e {
            Expr::Closure { .. } => saw_closure = true,
            Expr::MethodCall {
                method, turbofish, ..
            } if method == "sum" => sum_turbofish = turbofish.clone(),
            Expr::MacroCall { name, args, .. } => {
                macro_name = name.clone();
                assert!(!args.is_empty());
            }
            _ => {}
        });
        assert!(saw_closure);
        assert_eq!(macro_name, "assert");
        assert!(
            sum_turbofish.contains(&"u64".to_string()),
            "{sum_turbofish:?}"
        );
    }

    #[test]
    fn struct_literals_vs_condition_blocks() {
        let ast = parse_src(
            "fn f(w: bool) -> P { if w { return P { x: 1, y: 2 }; } P { x: 0, ..Default::default() } }",
        );
        let f = only_fn(&ast);
        let mut lits = 0;
        f.body.as_ref().unwrap().walk_exprs(&mut |e| {
            if let Expr::StructLit { segs, .. } = e {
                assert_eq!(segs, &["P"]);
                lits += 1;
            }
        });
        assert_eq!(lits, 2);
    }

    #[test]
    fn const_initialisers_are_expressions() {
        let ast = parse_src(
            "pub const UNPRICED_EVENTS: &[EventKind] = &[EventKind::DramRefresh, EventKind::NocFlits];",
        );
        let item = &ast.items[0];
        assert_eq!(item.kind, ItemKind::Const);
        assert_eq!(item.name.as_deref(), Some("UNPRICED_EVENTS"));
        let mut paths = Vec::new();
        item.init.as_ref().unwrap().walk(&mut |e| {
            if let Expr::Path { segs, .. } = e {
                paths.push(segs.join("::"));
            }
        });
        assert_eq!(paths, ["EventKind::DramRefresh", "EventKind::NocFlits"]);
    }

    #[test]
    fn item_macro_calls_are_items() {
        let ast = parse_src("for_each_event! { (A, a, Core, PerCore, \"doc\") }");
        let item = &ast.items[0];
        assert_eq!(item.kind, ItemKind::MacroCall);
        assert_eq!(item.name.as_deref(), Some("for_each_event"));
    }

    #[test]
    fn parser_never_stalls_on_garbage() {
        let ast = parse_src("@@ %% fn ok() { let x = 1 + ; } ## }}}}");
        // It recovered enough to find the fn.
        assert!(fn_names(&ast).iter().any(|f| f == "ok"));
    }

    #[test]
    fn generic_fn_bounds_with_arrow_types_parse() {
        let ast = parse_src(
            "pub fn run<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<T> where I: Send, F: Fn(I) -> T + Sync { inputs.into_iter().map(f).collect() }",
        );
        let f = only_fn(&ast);
        assert_eq!(f.name.as_deref(), Some("run"));
        assert!(f.body.is_some());
        let sig = f.sig.as_ref().unwrap();
        assert_eq!(sig.params.len(), 3);
        assert_eq!(sig.params[2].name, "f");
    }
}
