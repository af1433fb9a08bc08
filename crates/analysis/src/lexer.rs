//! A minimal hand-rolled Rust lexer: splits a source file into lines of
//! *code text* (string and char literal contents blanked, comments
//! removed) and *comment text* (for waiver detection).
//!
//! The analyzer's rules are line-level pattern matches; the lexer's only
//! job is to make those matches sound — a `.lock()` inside a string
//! literal or a doc comment must not fire a diagnostic, and a waiver
//! inside a string must not suppress one. No external dependencies: the
//! workspace builds offline.

/// One source line, split into its analyzable channels.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code with comments removed and literal contents blanked (the
    /// delimiting quotes remain so tokens do not merge).
    pub code: String,
    /// Concatenated comment text of the line (waiver scanning).
    pub comment: String,
}

/// Lexer state carried across lines.
enum State {
    Normal,
    /// Inside `/* … */`; Rust block comments nest, so track the depth.
    BlockComment(u32),
    /// Inside a normal `"…"` string.
    Str,
    /// Inside a raw string `r##"…"##` with this many hashes.
    RawStr(u32),
}

/// Split `source` into per-line code/comment channels.
pub fn split_lines(source: &str) -> Vec<Line> {
    let mut out: Vec<Line> = Vec::new();
    let mut state = State::Normal;
    for raw in source.lines() {
        let mut line = Line::default();
        let b: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        while i < b.len() {
            match state {
                State::BlockComment(depth) => {
                    if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        if depth == 1 {
                            state = State::Normal;
                        } else {
                            state = State::BlockComment(depth - 1);
                        }
                        i += 2;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        state = State::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(b[i]);
                        i += 1;
                    }
                }
                State::Str => {
                    if b[i] == '\\' {
                        i += 2; // skip the escaped char (may run past EOL)
                    } else if b[i] == '"' {
                        line.code.push('"');
                        state = State::Normal;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if b[i] == '"' {
                        let mut n = 0u32;
                        while n < hashes && b.get(i + 1 + n as usize) == Some(&'#') {
                            n += 1;
                        }
                        if n == hashes {
                            line.code.push('"');
                            state = State::Normal;
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    i += 1;
                }
                State::Normal => {
                    let c = b[i];
                    if c == '/' && b.get(i + 1) == Some(&'/') {
                        // Line comment (incl. doc comments) to EOL.
                        line.comment.extend(&b[i + 2..]);
                        i = b.len();
                    } else if c == '/' && b.get(i + 1) == Some(&'*') {
                        state = State::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        line.code.push('"');
                        state = State::Str;
                        i += 1;
                    } else if (c == 'r' || c == 'b')
                        && !prev_is_ident(&line.code)
                        && raw_string_hashes(&b, i).is_some()
                    {
                        let (hashes, skip) = raw_string_hashes(&b, i).unwrap();
                        line.code.push('"');
                        state = State::RawStr(hashes);
                        i += skip;
                    } else if c == '\'' {
                        // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                        let next = b.get(i + 1).copied();
                        let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                            && b.get(i + 2) != Some(&'\'');
                        if is_lifetime {
                            line.code.push('\'');
                            i += 1;
                        } else {
                            // Char literal: consume to the closing quote.
                            line.code.push('\'');
                            i += 1;
                            while i < b.len() {
                                if b[i] == '\\' {
                                    i += 2;
                                } else if b[i] == '\'' {
                                    line.code.push('\'');
                                    i += 1;
                                    break;
                                } else {
                                    i += 1;
                                }
                            }
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(line);
    }
    out
}

/// Whether the code buffer ends in an identifier char (so the `r` of
/// `barrier"x"` or `b` of `sub"..."` is not taken for a raw-string
/// prefix).
fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If position `i` starts a raw (byte) string prefix (`r"`, `r#"`,
/// `br#"`, …), return `(hash_count, chars_to_skip_through_quote)`.
fn raw_string_hashes(b: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if b.get(j) == Some(&'b') {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

/// Net brace delta of a code line (opens − closes).
pub fn brace_delta(code: &str) -> i32 {
    let mut d = 0;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Per-line flags marking `#[cfg(test)]` module bodies: the rules skip
/// test code (tests assert *on* determinism; they are not part of the
/// placement- or stats-critical paths the contracts protect).
pub fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut depth: i32 = 0;
    let mut pending_attr = false;
    // Depth at which the innermost test mod opened, if any.
    let mut test_open_depth: Option<i32> = None;
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if test_open_depth.is_some() {
            flags[i] = true;
        }
        if code.contains("#[cfg(test)]") {
            pending_attr = true;
        }
        if pending_attr && code.contains("mod") && code.contains('{') {
            if test_open_depth.is_none() {
                test_open_depth = Some(depth);
                flags[i] = true;
            }
            pending_attr = false;
        }
        depth += brace_delta(code);
        if let Some(open) = test_open_depth {
            if depth <= open {
                test_open_depth = None;
            }
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let src = "let a = 1; // trailing .lock()\n/* block\nstill comment */ let b = 2;\n";
        let lines = split_lines(src);
        assert_eq!(lines[0].code.trim_end(), "let a = 1;");
        assert!(lines[0].comment.contains(".lock()"));
        assert_eq!(lines[1].code, "");
        assert_eq!(lines[2].code.trim(), "let b = 2;");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* b */ still */ code();\n";
        let lines = split_lines(src);
        assert_eq!(lines[0].code.trim(), "code();");
    }

    #[test]
    fn blanks_string_contents() {
        let src = "let s = \"Instant::now() .lock()\"; s.len();\n";
        let lines = split_lines(src);
        assert!(!lines[0].code.contains("Instant"));
        assert!(!lines[0].code.contains(".lock()"));
        assert!(lines[0].code.contains("s.len()"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let src = "let s = r#\"x \" .lock() \"# ; let t = \"a\\\"b.lock()\";\nnext();\n";
        let lines = split_lines(src);
        assert!(!lines[0].code.contains(".lock()"));
        assert_eq!(lines[1].code.trim(), "next();");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = '{'; }\n";
        let lines = split_lines(src);
        // The brace inside the char literal must not count.
        assert_eq!(brace_delta(&lines[0].code), 0);
        assert!(lines[0].code.contains("fn f<'a>"));
    }

    #[test]
    fn multiline_strings_span_lines() {
        let src = "let s = \"first\nInstant::now()\nlast\"; done();\n";
        let lines = split_lines(src);
        assert!(!lines[1].code.contains("Instant"));
        assert!(lines[2].code.contains("done()"));
    }

    #[test]
    fn test_region_detection() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    fn inner() {}
}
fn after() {}
";
        let lines = split_lines(src);
        let flags = test_regions(&lines);
        assert_eq!(flags, vec![false, false, true, true, true, false]);
    }
}
