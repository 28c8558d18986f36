//! Line lexer: blanks comments and string/char-literal contents, records
//! line-comment text, and marks `#[cfg(test)]` regions.
//!
//! The lexer is the analyzer's first stage: it turns raw source into
//! per-line views where only *code* characters survive, so neither the
//! line lints nor the tokenizer ([`crate::tokens`]) can be fooled by a
//! lint keyword inside a string, a doc comment, or a nested block
//! comment.

/// Per-line views of one source file.
pub(crate) struct FileView {
    /// Raw lines, as written.
    pub raw: Vec<String>,
    /// Lines with comments and string/char-literal contents blanked to
    /// spaces — what the token lints scan.
    pub code: Vec<String>,
    /// Whether each line sits in a `#[cfg(test)]` region.
    pub test: Vec<bool>,
    /// The text after a line comment's `//`, when the lexer saw one in
    /// code position (so `//` inside a string never counts).
    pub comment: Vec<Option<String>>,
}

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Normal,
    /// Nesting depth of `/* */`.
    Block(usize),
    Str,
    /// `r##"..."##` with this many hashes.
    RawStr(usize),
}

pub(crate) fn lex(text: &str) -> FileView {
    let raw: Vec<String> = text.lines().map(str::to_string).collect();
    let mut code = Vec::with_capacity(raw.len());
    let mut comment: Vec<Option<String>> = Vec::with_capacity(raw.len());
    let mut state = LexState::Normal;

    for line in &raw {
        let bytes: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(line.len());
        let mut line_comment: Option<String> = None;
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            match state {
                LexState::Block(depth) => {
                    if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        state = LexState::Block(depth + 1);
                        out.push_str("  ");
                        i += 2;
                    } else if c == '*' && bytes.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            LexState::Normal
                        } else {
                            LexState::Block(depth - 1)
                        };
                        out.push_str("  ");
                        i += 2;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                LexState::Str => {
                    if c == '\\' {
                        out.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        state = LexState::Normal;
                        out.push(' ');
                        i += 1;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if c == '"' && closes_raw(&bytes, i, hashes) {
                        state = LexState::Normal;
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        i += 1 + hashes;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                LexState::Normal => {
                    if c == '/' && bytes.get(i + 1) == Some(&'/') {
                        // Line comment: record its text, blank the rest.
                        if line_comment.is_none() {
                            line_comment = Some(bytes[i + 2..].iter().collect());
                        }
                        while i < bytes.len() {
                            out.push(' ');
                            i += 1;
                        }
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        state = LexState::Block(1);
                        out.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        state = LexState::Str;
                        out.push(' ');
                        i += 1;
                    } else if c == 'r' && is_raw_str_start(&bytes, i) {
                        let hashes = count_hashes(&bytes, i + 1);
                        state = LexState::RawStr(hashes);
                        for _ in 0..hashes + 2 {
                            out.push(' ');
                        }
                        i += hashes + 2;
                    } else if c == '\'' {
                        // Char literal vs lifetime: a literal closes with
                        // a quote after one (possibly escaped) character.
                        if bytes.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip to the closing quote.
                            let mut j = i + 2;
                            while j < bytes.len() && bytes[j] != '\'' {
                                j += 1;
                            }
                            for _ in i..=j.min(bytes.len() - 1) {
                                out.push(' ');
                            }
                            i = j + 1;
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            out.push_str("   ");
                            i += 3;
                        } else {
                            // Lifetime: keep as code.
                            out.push('\'');
                            i += 1;
                        }
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
            }
        }
        code.push(out);
        comment.push(line_comment);
    }

    let test = mark_test_regions(&code);
    FileView {
        raw,
        code,
        test,
        comment,
    }
}

fn is_raw_str_start(bytes: &[char], i: usize) -> bool {
    // `r"` or `r#...#"`, not part of an identifier like `striped_r`.
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let hashes = count_hashes(bytes, i + 1);
    bytes.get(i + 1 + hashes) == Some(&'"')
}

fn count_hashes(bytes: &[char], mut i: usize) -> usize {
    let mut n = 0;
    while bytes.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

fn closes_raw(bytes: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Marks the lines covered by `#[cfg(test)]` items: from the attribute
/// through the matching close brace of the item it gates.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut test = vec![false; code.len()];
    let mut depth = 0usize;
    let mut region_depth: Option<usize> = None;
    let mut pending = false;

    for (i, line) in code.iter().enumerate() {
        if region_depth.is_some() || pending {
            test[i] = true;
        }
        if line.contains("#[cfg(test") {
            pending = true;
            test[i] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && region_depth.is_none() {
                        region_depth = Some(depth);
                        pending = false;
                        test[i] = true;
                    }
                }
                '}' => {
                    if region_depth == Some(depth) {
                        region_depth = None;
                    }
                    depth = depth.saturating_sub(1);
                }
                // `#[cfg(test)] use …;` — the attribute gated a
                // braceless item; the region ends here.
                ';' if pending && region_depth.is_none() => pending = false,
                _ => {}
            }
        }
    }
    test
}

/// Where `needle` first appears in `haystack` delimited by
/// non-identifier chars.
pub(crate) fn find_word(haystack: &str, needle: &str) -> Option<usize> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !haystack[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !haystack[at + needle.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn lexer_blanks_comments_and_strings() {
        let v = lex(
            "let x = \"HashMap\"; // HashMap\nlet y = 'a';\n/* HashMap\nHashMap */ let z = 1;\n",
        );
        assert!(!v.code[0].contains("HashMap"), "{}", v.code[0]);
        assert!(!v.code[1].contains('a'));
        assert!(!v.code[2].contains("HashMap"));
        assert!(v.code[3].contains("let z"));
        assert!(!v.code[3].contains("HashMap"));
    }

    #[test]
    fn lexer_blanks_string_quotes_entirely() {
        let v = lex("let s = \"a[0].unwrap()\";\nlet r = r#\"x[1]\"#;\n");
        assert!(!v.code[0].contains('"'), "{:?}", v.code[0]);
        assert!(!v.code[0].contains("unwrap"));
        assert!(!v.code[1].contains('"'), "{:?}", v.code[1]);
        assert!(!v.code[1].contains("x[1]"));
    }

    #[test]
    fn lexer_keeps_lifetimes() {
        let v = lex("impl<'a> Foo<'a> { fn f(&'a self) {} }\n");
        assert!(v.code[0].contains("<'a>"));
    }

    #[test]
    fn cfg_test_regions_cover_the_gated_item() {
        let v = lex("fn a() {}\n#[cfg(test)]\nmod test {\n    fn b() {}\n}\nfn c() {}\n");
        assert_eq!(v.test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn word_boundaries_respected() {
        assert_eq!(
            find_word("use std::collections::HashMap;", "HashMap"),
            Some(22)
        );
        assert_eq!(find_word("forbid(unsafe_code)", "unsafe"), None);
        assert_eq!(find_word("MyHashMapLike", "HashMap"), None);
    }
}
