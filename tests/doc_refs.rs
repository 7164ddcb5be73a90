//! The docs that describe the system as it is must name only what
//! exists. This test reads them and fails, naming file and line, on:
//!
//! * a backticked word that contains `/` or ends in `.rs` and names no
//!   file or directory. It resolves from the repo root or from
//!   `crates/`, `{a,b}` lists expand, and `*` matches any one entry; a
//!   bare `name.rs` must match a file name somewhere in the tree;
//! * a `file.rs::name` whose file has no `fn name`;
//! * a `name!` macro that is not a std macro and has no `macro_rules!
//!   name` in the tree;
//! * an `--only=` section missing from the `name: "…"` rows of
//!   `crates/bench/src/report.rs`;
//! * a `--bin` name with no `src/bin/<name>.rs` and no `[[bin]]` of that
//!   name;
//! * any `file.rs:N` line pointer: nothing can check a line number, so
//!   the docs cite item paths (`Gpu::launch_impl`) instead.
//!
//! It is a file walk and a text search: no parser, no dependency.
//! CHANGELOG.md and ROADMAP.md are out of scope, because they name
//! removed items on purpose.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The docs checked, relative to the repo root.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Macros the standard library and the prelude provide.
const STD_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "cfg",
    "concat",
    "dbg",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "env",
    "eprint",
    "eprintln",
    "format",
    "include_bytes",
    "include_str",
    "matches",
    "panic",
    "print",
    "println",
    "stringify",
    "todo",
    "unimplemented",
    "unreachable",
    "vec",
    "write",
    "writeln",
];

/// Every file and directory of the tree, and the text of its `.rs` and
/// `Cargo.toml` files.
struct Tree {
    root: PathBuf,
    /// Repo-relative paths with `/` separators, files and directories.
    paths: BTreeSet<String>,
    /// `(path, text)` of every `.rs` file.
    sources: Vec<(String, String)>,
    /// `(path, text)` of every `Cargo.toml`.
    manifests: Vec<(String, String)>,
}

impl Tree {
    fn walk(root: &Path) -> Tree {
        let mut tree = Tree {
            root: root.to_path_buf(),
            paths: BTreeSet::new(),
            sources: Vec::new(),
            manifests: Vec::new(),
        };
        tree.visit(root);
        tree
    }

    /// Build outputs (`target`) and git's own store are not the tree.
    fn visit(&mut self, dir: &Path) {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name == "target" || name == ".git" {
                continue;
            }
            let rel = self.rel(&path);
            self.paths.insert(rel.clone());
            if path.is_dir() {
                self.visit(&path);
                continue;
            }
            if name.ends_with(".rs") {
                self.sources
                    .push((rel, fs::read_to_string(&path).unwrap_or_default()));
            } else if name == "Cargo.toml" {
                self.manifests
                    .push((rel, fs::read_to_string(&path).unwrap_or_default()));
            }
        }
    }

    fn rel(&self, path: &Path) -> String {
        let rel = path.strip_prefix(&self.root).unwrap();
        let parts: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
        parts.join("/")
    }

    /// The repo-relative path `cited` names, from the root or from
    /// `crates/`; a `*` component matches any one entry.
    fn resolve(&self, cited: &str) -> Option<&String> {
        let cited = cited.trim_end_matches('/');
        ["", "crates/"].iter().find_map(|base| {
            let candidate = format!("{base}{cited}");
            self.paths.iter().find(|p| glob_match(&candidate, p))
        })
    }

    fn text_of(&self, path: &str) -> Option<&str> {
        self.sources
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, text)| text.as_str())
    }
}

/// `pattern` and `path` have the same components, `*` matching any.
fn glob_match(pattern: &str, path: &str) -> bool {
    let (pat, got): (Vec<_>, Vec<_>) = (pattern.split('/').collect(), path.split('/').collect());
    pat.len() == got.len() && pat.iter().zip(&got).all(|(p, g)| *p == "*" || p == g)
}

/// Every alternative of the `{a,b}` lists in `word`.
fn expand_braces(word: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (word.find('{'), word.find('}')) else {
        return vec![word.to_string()];
    };
    if close < open {
        return vec![word.to_string()];
    }
    word[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &word[..open], &word[close + 1..])))
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `text` holds `item` (`fn name`, `macro_rules! name`) as a whole
/// word.
fn defines(text: &str, item: &str) -> bool {
    text.match_indices(item)
        .any(|(at, _)| !text[at + item.len()..].starts_with(is_ident))
}

/// One markdown doc split into lines, with fenced code blocks marked.
struct Doc {
    name: &'static str,
    /// `(1-based line, text, inside a fenced block)`.
    lines: Vec<(usize, String, bool)>,
}

impl Doc {
    fn read(root: &Path, name: &'static str) -> Doc {
        let text =
            fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let mut fenced = false;
        let mut lines = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let fence = line.trim_start().starts_with("```");
            lines.push((i + 1, line.to_string(), fenced || fence));
            if fence {
                fenced = !fenced;
            }
        }
        Doc { name, lines }
    }

    /// The backticked spans outside fenced blocks, each with the line it
    /// opens on. A span may wrap across lines but not across a blank
    /// line.
    fn spans(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        let mut open: Option<(usize, String)> = None;
        for (line_no, line, fenced) in &self.lines {
            if *fenced || line.trim().is_empty() {
                open = None;
                continue;
            }
            let mut rest = line.as_str();
            if let Some((_, span)) = open.as_mut() {
                span.push(' ');
            }
            while !rest.is_empty() {
                match (open.take(), rest.find('`')) {
                    (Some((at, mut span)), Some(tick)) => {
                        span.push_str(&rest[..tick]);
                        out.push((at, span));
                        rest = &rest[tick + 1..];
                    }
                    (Some((at, mut span)), None) => {
                        span.push_str(rest);
                        open = Some((at, span));
                        rest = "";
                    }
                    (None, Some(tick)) => {
                        open = Some((*line_no, String::new()));
                        rest = &rest[tick + 1..];
                    }
                    (None, None) => rest = "",
                }
            }
        }
        out
    }
}

/// The names that follow `flag` on `line`: `--only=a,b` gives `a` and
/// `b`, `--bin x` gives `x`. Placeholders such as `--only=NAME` give
/// nothing.
fn flag_values(line: &str, flag: &str) -> Vec<String> {
    line.match_indices(flag)
        .flat_map(|(at, _)| {
            let tail = line[at + flag.len()..].trim_start();
            let value: String = tail
                .chars()
                .take_while(|&c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_-,".contains(c))
                .collect();
            value
                .split(',')
                .filter(|v| !v.is_empty())
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The `name` of every `name!` macro call in `span`.
fn macros_in(span: &str) -> Vec<&str> {
    span.match_indices('!')
        .filter(|&(at, _)| !span[at + 1..].starts_with('='))
        .filter_map(|(at, _)| {
            let head = &span[..at];
            let start = head
                .char_indices()
                .rev()
                .take_while(|&(_, c)| is_ident(c))
                .last()
                .map(|(i, _)| i)?;
            let name = &head[start..];
            name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                .then_some(name)
        })
        .collect()
}

/// The `file.rs:N` line pointers on `line`.
fn line_pointers(line: &str) -> Vec<&str> {
    line.match_indices(".rs:")
        .filter(|&(at, _)| line[at + 4..].starts_with(|c: char| c.is_ascii_digit()))
        .map(|(at, _)| {
            let start = line[..at]
                .rfind(|c: char| !(is_ident(c) || "/.-{},".contains(c)))
                .map_or(0, |i| i + 1);
            let digits = line[at + 4..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |n| at + 4 + n);
            &line[start..digits]
        })
        .collect()
}

/// Every dangling name in `doc`, as `doc:line: message`.
fn check_doc(tree: &Tree, sections: &BTreeSet<String>, doc: &Doc) -> Vec<String> {
    let mut out = Vec::new();
    let mut fail = |line: usize, msg: String| out.push(format!("{}:{line}: {msg}", doc.name));

    for (line_no, line, _) in &doc.lines {
        for pointer in line_pointers(line) {
            fail(
                *line_no,
                format!("`{pointer}` is a line pointer; cite an item path instead"),
            );
        }
        for name in flag_values(line, "--only=") {
            if !sections.contains(&name) {
                fail(
                    *line_no,
                    format!("`--only={name}` is not a section of crates/bench/src/report.rs"),
                );
            }
        }
        for name in flag_values(line, "--bin ") {
            let as_file = format!("src/bin/{name}.rs");
            let declared = format!("name = \"{name}\"");
            let exists = tree.paths.iter().any(|p| p.ends_with(&as_file))
                || tree
                    .manifests
                    .iter()
                    .any(|(_, text)| text.contains("[[bin]]") && text.contains(&declared));
            if !exists {
                fail(*line_no, format!("`--bin {name}` names no binary"));
            }
        }
    }

    for (line_no, span) in doc.spans() {
        for word in span.split_whitespace() {
            let word = word
                .trim_start_matches(['(', '['])
                .trim_end_matches([')', ']', ',', ';', ':', '.']);
            if let Some((file, item)) = word.split_once(".rs::") {
                let file = format!("{file}.rs");
                let name = item.rsplit("::").next().unwrap().trim_end_matches("()");
                match tree.resolve(&file) {
                    None => fail(line_no, format!("`{file}` names no file")),
                    Some(path)
                        if !defines(tree.text_of(path).unwrap_or(""), &format!("fn {name}")) =>
                    {
                        fail(line_no, format!("`{path}` has no `fn {name}`"))
                    }
                    Some(_) => {}
                }
                continue;
            }
            let path_like = word.chars().all(|c| is_ident(c) || "/.-{},*".contains(c))
                && word.contains(|c: char| c.is_ascii_alphabetic())
                && !word.starts_with('/');
            if !path_like || !(word.contains('/') || word.ends_with(".rs")) {
                continue;
            }
            for cited in expand_braces(word) {
                let found = if cited.contains('/') {
                    tree.resolve(&cited).is_some()
                } else {
                    tree.paths
                        .iter()
                        .any(|p| p.rsplit('/').next() == Some(&cited))
                };
                if !found {
                    fail(line_no, format!("`{cited}` names no file"));
                }
            }
        }
        for name in macros_in(&span) {
            let defined = format!("macro_rules! {name}");
            let exists = STD_MACROS.contains(&name)
                || tree.sources.iter().any(|(_, text)| defines(text, &defined));
            if !exists {
                fail(line_no, format!("`{name}!` is no macro of the tree or std"));
            }
        }
    }
    out
}

#[test]
fn every_name_the_docs_cite_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tree = Tree::walk(root);
    let report = tree
        .text_of("crates/bench/src/report.rs")
        .expect("crates/bench/src/report.rs holds the section table");
    let sections: BTreeSet<String> = report
        .lines()
        .filter_map(|l| l.trim().strip_prefix("name: \""))
        .filter_map(|l| l.split('"').next())
        .map(str::to_string)
        .collect();
    assert!(!sections.is_empty(), "no `name: \"…\"` rows in report.rs");

    let failures: Vec<String> = DOCS
        .iter()
        .flat_map(|name| check_doc(&tree, &sections, &Doc::read(root, name)))
        .collect();
    assert!(
        failures.is_empty(),
        "{} dangling name(s) in the docs:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
