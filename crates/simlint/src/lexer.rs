//! A small comment/string-aware Rust lexer.
//!
//! The lint passes need exactly three things `grep` cannot give them:
//! tokens that are provably *code* (not the inside of a string literal
//! or a doc comment), the line each token starts on, and the comments
//! themselves (for `// SAFETY:` audits and `simlint: allow(...)`
//! markers). This lexer stops at the token level: identifiers, single
//! punctuation characters, literals and lifetimes, plus the partner of
//! every bracket. On top of that, `items` finds the extent of every
//! `fn`, `impl`, `mod` and `trait`: its attributes, its keyword and its
//! matching brace. That is all the structure the passes read.
//!
//! Handled Rust syntax: line and (nested) block comments, string /
//! raw-string / byte-string literals with arbitrary `#` fences, char
//! and byte literals with escapes, lifetimes vs. char literals, and
//! numeric literals including `1.5e-3` style exponents. Shebang lines
//! and `cfg`-stripped code are not special-cased — the passes operate
//! on source text as committed.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `unsafe`, `fn`, …).
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
    /// String, raw-string, byte-string literal (text excludes quotes).
    Str,
    /// Char or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// A lifetime (`'a`, `'static`), text without the leading `'`.
    Lifetime,
}

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what is included).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// One comment (line or block, doc or plain), with its span of lines.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line_start: u32,
    /// 1-based line the comment ends on.
    pub line_end: u32,
    /// Full comment text including the `//` / `/*` introducers.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
    /// For each `(`, `[` or `{` token the index of its closer and for
    /// each closer the index of its opener; [`NO_PARTNER`] for every
    /// other token and for an unbalanced bracket.
    pub(crate) partner: Vec<usize>,
}

/// [`Lexed::partner`] of a token that has none.
pub(crate) const NO_PARTNER: usize = usize::MAX;

impl Lexed {
    /// Text of token `i`, or `""` past the end.
    pub(crate) fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    /// The index after the bracket group that opens at `i`, or `i + 1`
    /// when token `i` opens none.
    pub(crate) fn skip_group(&self, i: usize) -> usize {
        match self.partner.get(i) {
            Some(&p) if p != NO_PARTNER && p > i => p + 1,
            _ => i + 1,
        }
    }
}

/// Lexes Rust source text. Never fails: unterminated constructs are
/// consumed to end of input (the compiler will reject such files long
/// before simlint's verdict matters).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && (b[i + 1] == '/' || b[i + 1] == '*') {
            let start_line = line;
            let start = i;
            if b[i + 1] == '/' {
                while i < n && b[i] != '\n' {
                    i += 1;
                }
            } else {
                i += 2;
                let mut depth = 1usize;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        bump!();
                    }
                }
            }
            let text: String = b[start..i.min(n)].iter().collect();
            // Runs of `//` comments on consecutive lines form one
            // logical block (a wrapped SAFETY paragraph is the prime
            // example), so merge them into a single Comment.
            match out.comments.last_mut() {
                Some(prev)
                    if text.starts_with("//")
                        && prev.text.starts_with("//")
                        && prev.line_end + 1 == start_line =>
                {
                    prev.text.push('\n');
                    prev.text.push_str(&text);
                    prev.line_end = start_line;
                }
                _ => out.comments.push(Comment {
                    line_start: start_line,
                    line_end: line,
                    text,
                }),
            }
            continue;
        }
        // Raw strings / byte strings: r"", r#""#, b"", br#""#.
        if c == 'r' || c == 'b' {
            let mut j = i;
            let mut is_raw = false;
            if b[j] == 'b' && j + 1 < n && (b[j + 1] == 'r' || b[j + 1] == '"' || b[j + 1] == '\'')
            {
                j += 1;
            }
            if j < n && b[j] == 'r' && j + 1 < n && (b[j + 1] == '"' || b[j + 1] == '#') {
                is_raw = true;
                j += 1;
            }
            if is_raw {
                let start_line = line;
                let mut hashes = 0usize;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    // Advance `i` to the opening quote, tracking lines.
                    while i <= j {
                        bump!();
                    }
                    let body_start = i;
                    'raw: while i < n {
                        if b[i] == '"' {
                            let mut k = i + 1;
                            let mut seen = 0usize;
                            while k < n && b[k] == '#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                out.tokens.push(Token {
                                    kind: TokKind::Str,
                                    text: b[body_start..i].iter().collect(),
                                    line: start_line,
                                });
                                while i < k {
                                    bump!();
                                }
                                break 'raw;
                            }
                        }
                        bump!();
                    }
                    continue;
                }
            }
            if j > i && j < n && (b[j] == '"' || b[j] == '\'') {
                // b"..." or b'x': treat like the plain literal below by
                // skipping the prefix.
                i = j;
            }
        }
        let c = b[i];
        // String literal.
        if c == '"' {
            let start_line = line;
            bump!();
            let body_start = i;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    bump!();
                    bump!();
                } else if b[i] == '"' {
                    break;
                } else {
                    bump!();
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: b[body_start..i.min(n)].iter().collect(),
                line: start_line,
            });
            if i < n {
                bump!(); // closing quote
            }
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let start_line = line;
            // Lifetime: 'ident not followed by a closing quote.
            if i + 1 < n && (b[i + 1].is_alphanumeric() || b[i + 1] == '_') {
                let mut j = i + 1;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                if j < n && b[j] != '\'' {
                    out.tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: b[i + 1..j].iter().collect(),
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
            }
            // Char literal.
            bump!();
            let body_start = i;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    bump!();
                    bump!();
                } else if b[i] == '\'' {
                    break;
                } else {
                    bump!();
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Char,
                text: b[body_start..i.min(n)].iter().collect(),
                line: start_line,
            });
            if i < n {
                bump!();
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Number, including `1.5`, `1e9`, `1.5e-3`, `0xff`, `1_000u64`.
        if c.is_ascii_digit() {
            let start_line = line;
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            if i < n && b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            }
            // Exponent sign: `1.5e` followed by +/- digits.
            if i < n
                && (b[i] == '+' || b[i] == '-')
                && b[i - 1].eq_ignore_ascii_case(&'e')
                && i + 1 < n
                && b[i + 1].is_ascii_digit()
            {
                i += 1;
                while i < n && b[i].is_ascii_digit() {
                    i += 1;
                }
            }
            out.tokens.push(Token {
                kind: TokKind::Num,
                text: b[start..i].iter().collect(),
                line: start_line,
            });
            continue;
        }
        // Anything else: single punctuation character.
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out.partner = vec![NO_PARTNER; out.tokens.len()];
    let mut open = Vec::new();
    for (i, t) in out.tokens.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(" | "[" | "{") => open.push(i),
            (TokKind::Punct, ")" | "]" | "}") => {
                if let Some(o) = open.pop() {
                    out.partner[o] = i;
                    out.partner[i] = o;
                }
            }
            _ => {}
        }
    }
    out
}

/// The keyword an [`Item`] starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ItemKind {
    /// `fn` (free, associated, or a bodiless trait declaration).
    Fn,
    /// `impl` block.
    Impl,
    /// `mod`, inline or `mod name;`.
    Mod,
    /// `trait` block.
    Trait,
}

/// One `fn`, `impl`, `mod` or `trait` item: its outer attributes, its
/// keyword and its matching brace. Ranges index [`Lexed::tokens`].
#[derive(Debug, Clone)]
pub(crate) struct Item {
    /// Which keyword.
    pub kind: ItemKind,
    /// The identifier after the keyword (`""` for `impl`).
    pub name: String,
    /// 1-based line of the keyword.
    pub line: u32,
    /// The whole item: first outer attribute through the closing brace.
    pub span: std::ops::Range<usize>,
    /// The keyword up to the body: a fn's signature, an impl's header.
    pub head: std::ops::Range<usize>,
    /// Inside the braces; empty for a bodiless `fn f();` or `mod m;`.
    pub body: std::ops::Range<usize>,
    /// `#[test]` or `#[cfg(test)]` on this item or an enclosing one.
    pub test: bool,
    /// A `#[cfg]` that does not mention `test`, or a
    /// `#[target_feature]`, on this item or an enclosing one: the item
    /// exists in some builds or on some hosts only.
    pub divergent: bool,
}

/// Every `fn`, `impl`, `mod` and `trait` item of `lexed`, at any
/// nesting depth, in source order (so an item's enclosing items come
/// before it). `fn name`, `mod name` and `trait name` are always items;
/// `impl` counts only where an item can start, since `-> impl Trait`
/// names a type.
pub(crate) fn items(lexed: &Lexed) -> Vec<Item> {
    let toks = &lexed.tokens;
    let text = |i: usize| lexed.text(i);
    let mut out: Vec<Item> = Vec::new();
    // Bodies still open at the current keyword: (end, test, divergent).
    let mut enclosing: Vec<(usize, bool, bool)> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        let kind = match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fn") => ItemKind::Fn,
            (TokKind::Ident, "impl") => ItemKind::Impl,
            (TokKind::Ident, "mod") => ItemKind::Mod,
            (TokKind::Ident, "trait") => ItemKind::Trait,
            _ => continue,
        };
        // Back over modifiers (`pub(crate) const unsafe extern "C"`)...
        let mut start = k;
        while let Some(p) = start.checked_sub(1).map(|i| &toks[i]) {
            let opener = lexed.partner[start - 1].checked_sub(1);
            if p.kind == TokKind::Str
                || (p.kind == TokKind::Ident
                    && matches!(
                        p.text.as_str(),
                        "pub" | "unsafe" | "const" | "async" | "extern" | "default"
                    ))
            {
                start -= 1;
            } else if p.text == ")" && opener.is_some_and(|o| text(o) == "pub") {
                start = lexed.partner[start - 1] - 1;
            } else {
                break;
            }
        }
        // ...then back over outer attributes.
        let (mut test, mut divergent) = (false, false);
        while start >= 2 && text(start - 1) == "]" {
            let open = lexed.partner[start - 1];
            if open.checked_sub(1).is_none_or(|o| text(o) != "#") {
                break;
            }
            let attr = &toks[open + 1..start - 1];
            let name = attr.first().map_or("", |t| t.text.as_str());
            let mentions_test = attr.iter().any(|t| t.text == "test");
            test |= (attr.len() == 1 && name == "test") || (name == "cfg" && mentions_test);
            divergent |= (name == "cfg" && !mentions_test) || name == "target_feature";
            start = open - 1;
        }
        let is_item = match kind {
            ItemKind::Impl => start == 0 || matches!(text(start - 1), ";" | "{" | "}" | "]"),
            _ => toks.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident),
        };
        if !is_item {
            continue;
        }
        let mut open = k + 1;
        while open < toks.len() && !matches!(text(open), "{" | ";") {
            open = lexed.skip_group(open);
        }
        let (body, end) = if text(open) == "{" {
            let close = lexed.partner[open].min(toks.len());
            (open + 1..close, (close + 1).min(toks.len()))
        } else {
            (open..open, (open + 1).min(toks.len()))
        };
        while enclosing.last().is_some_and(|&(end, ..)| end <= k) {
            enclosing.pop();
        }
        if let Some(&(_, t, d)) = enclosing.last() {
            test |= t;
            divergent |= d;
        }
        if text(open) == "{" {
            enclosing.push((body.end, test, divergent));
        }
        out.push(Item {
            kind,
            name: if kind == ItemKind::Impl {
                String::new()
            } else {
                text(k + 1).to_string()
            },
            line: t.line,
            span: start..end,
            head: k..open,
            body,
            test,
            divergent,
        });
    }
    out
}

/// Token indices of item `i`'s body that belong to no item nested in
/// it.
pub(crate) fn own_body(items: &[Item], i: usize) -> Vec<usize> {
    let body = items[i].body.clone();
    let mut out = Vec::new();
    let mut next = body.start;
    for nested in &items[i + 1..] {
        if nested.span.start >= body.end {
            break;
        }
        if nested.span.start >= next {
            out.extend(next..nested.span.start);
            next = nested.span.end;
        }
    }
    out.extend(next..body.end);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
// HashMap in a comment
/* HashMap in a /* nested */ block */
let s = "HashMap in a string";
let r = r#"HashMap raw "quoted" here"#;
let real = HashMap::new();
"##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let esc = '\\''; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a"]);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "/* one\ntwo\nthree */\nunsafe";
        let lexed = lex(src);
        assert_eq!(lexed.comments[0].line_start, 1);
        assert_eq!(lexed.comments[0].line_end, 3);
        let t = &lexed.tokens[0];
        assert_eq!((t.text.as_str(), t.line), ("unsafe", 4));
    }

    #[test]
    fn numbers_with_exponents_stay_one_token() {
        let lexed = lex("let x = 1.5e-3 - 2;");
        let nums: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["1.5e-3", "2"]);
        let minuses = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct && t.text == "-")
            .count();
        assert_eq!(minuses, 1);
    }

    #[test]
    fn items_span_attributes_keyword_and_matching_brace() {
        let lexed = lex(r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
#[cfg(target_arch = "x86_64")]
pub(crate) unsafe fn k() -> impl Iterator<Item = u8> { fn inner() {} loop {} }
impl fmt::Display for X { fn fmt(&self) {} }
trait T { fn decl(&self); }
"#);
        let items = items(&lexed);
        let summary: Vec<_> = items
            .iter()
            .map(|i| (i.kind, i.name.as_str(), i.test, i.divergent))
            .collect();
        use ItemKind::*;
        assert_eq!(
            summary,
            [
                (Mod, "tests", true, false),
                (Fn, "t", true, false),
                (Fn, "k", false, true),
                (Fn, "inner", false, true),
                (Impl, "", false, false),
                (Fn, "fmt", false, false),
                (Trait, "T", false, false),
                (Fn, "decl", false, false),
            ]
        );
        // `k` starts at its attribute, its head runs to the body, and
        // its own body leaves out the nested `inner`.
        let k = &items[2];
        assert_eq!(lexed.text(k.span.start), "#");
        assert_eq!(lexed.text(k.head.end), "{");
        let own: Vec<&str> = own_body(&items, 2).iter().map(|&i| lexed.text(i)).collect();
        assert_eq!(own, ["loop", "{", "}"]);
        assert!(items[7].body.is_empty());
    }

    #[test]
    fn byte_strings_and_raw_byte_strings_lex_as_strings() {
        let lexed = lex(r##"let a = b"bytes"; let b = br#"raw"#;"##);
        let strs = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .count();
        assert_eq!(strs, 2);
    }
}
