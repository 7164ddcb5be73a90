//! Corpus test: the syntax layer must digest every first-party source
//! file in the workspace. The parser is dependency-free and recovers
//! with `Expr::Opaque` rather than failing, so "digest" is quantified:
//! every file yields items, the item walk finds the workspace's
//! functions, and opaque expressions stay a rare remainder instead of
//! a silent majority. A grammar regression (a new syntax form the
//! item scanner chokes on, a statement boundary bug that swallows a
//! body) shows up here as a collapsed count long before a lint
//! quietly stops seeing the code it is supposed to check.

use simlint::lexer::lex;
use simlint::syntax::{self, Expr, Item, ItemKind};
use std::path::{Path, PathBuf};

/// Workspace root, two levels above the simlint manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/simlint sits two levels under the root")
        .to_path_buf()
}

struct Tally {
    files: usize,
    items: usize,
    fns: usize,
    fn_bodies: usize,
    exprs: usize,
    opaque: usize,
}

#[test]
fn every_workspace_source_file_parses_with_low_opacity() {
    let root = workspace_root();
    let mut paths = Vec::new();
    simlint::collect_rs_files(&root, &mut paths).expect("workspace walk");
    assert!(
        paths.len() >= 100,
        "corpus walk found only {} files — wrong root?",
        paths.len()
    );

    let mut t = Tally {
        files: 0,
        items: 0,
        fns: 0,
        fn_bodies: 0,
        exprs: 0,
        opaque: 0,
    };
    for path in &paths {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let ast = syntax::parse(&lex(&src));
        t.files += 1;
        let mut file_items = 0usize;
        ast.walk_items(&mut |item: &Item| {
            file_items += 1;
            if item.kind == ItemKind::Fn {
                t.fns += 1;
                if let Some(body) = &item.body {
                    t.fn_bodies += 1;
                    body.walk_exprs(&mut |e: &Expr| {
                        t.exprs += 1;
                        if matches!(e, Expr::Opaque { .. }) {
                            t.opaque += 1;
                        }
                    });
                }
            }
        });
        t.items += file_items;
        // Every non-empty source file in this workspace declares at
        // least one item (a file of only comments would not, but the
        // tree has none and a parser bug mimics exactly that).
        assert!(
            file_items > 0 || src.trim().is_empty(),
            "{}: parser produced no items",
            path.display()
        );
    }

    eprintln!(
        "corpus: {} files, {} items, {} fns ({} with bodies), {} exprs ({} opaque)",
        t.files, t.items, t.fns, t.fn_bodies, t.exprs, t.opaque
    );
    // Order-of-magnitude floors, far below the current counts, so the
    // test flags structural collapse without chasing every refactor.
    assert!(t.items >= 1_000, "items collapsed: {}", t.items);
    assert!(t.fns >= 500, "fns collapsed: {}", t.fns);
    assert!(
        t.fn_bodies * 10 >= t.fns * 9,
        "bodies went missing: {} bodies for {} fns",
        t.fn_bodies,
        t.fns
    );
    assert!(t.exprs >= 10_000, "expressions collapsed: {}", t.exprs);
    // The recovery token must stay the exception: under 2% of all
    // expressions across the corpus.
    assert!(
        t.opaque * 50 <= t.exprs,
        "opacity too high: {} opaque of {} exprs",
        t.opaque,
        t.exprs
    );
}
