//! A minimal Rust lexer: just enough to blank out comments and literal
//! contents so the rule passes can do honest substring matching.
//!
//! [`clean_source`] returns a string of the *same byte length* as the
//! input in which every comment and every string/char-literal body has
//! been replaced by spaces (newlines are preserved so that byte offsets
//! and line numbers stay aligned with the original).

/// Lexer state while sweeping the source.
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    CharLit,
}

/// Returns `source` with comments and literal contents blanked to
/// spaces, preserving length and line structure.
/// Public for `tests/lexer_props.rs`.
#[must_use]
pub fn clean_source(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut state = State::Normal;
    let mut i = 0;

    // Pushes a blanked byte: newlines survive, everything else spaces.
    fn blank(out: &mut Vec<u8>, b: u8) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Normal => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if b == b'"' {
                    state = State::Str { raw_hashes: None };
                    out.push(b);
                    i += 1;
                } else if (b == b'r' || b == b'b') && !prev_is_ident(bytes, i) {
                    // Possible raw/byte string prefix: r", br", b", r#".
                    let (consumed, hashes) = raw_prefix(bytes, i);
                    if consumed > 0 {
                        out.extend_from_slice(&bytes[i..i + consumed]);
                        i += consumed;
                        if bytes.get(i.wrapping_sub(1)) == Some(&b'\'') {
                            state = State::CharLit; // b'x'
                        } else {
                            state = State::Str { raw_hashes: hashes };
                        }
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else if b == b'\'' {
                    // Lifetime or char literal. A char literal is 'x',
                    // '\...' or a multi-byte char; a lifetime is 'ident
                    // with no closing quote right after.
                    if is_char_literal(bytes, i) {
                        state = State::CharLit;
                    }
                    out.push(b);
                    i += 1;
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            State::LineComment => {
                if b == b'\n' {
                    state = State::Normal;
                }
                blank(&mut out, b);
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else {
                    blank(&mut out, b);
                    i += 1;
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => {
                    if b == b'\\' && i + 1 < bytes.len() {
                        blank(&mut out, b);
                        blank(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if b == b'"' {
                        state = State::Normal;
                        out.push(b);
                        i += 1;
                    } else {
                        blank(&mut out, b);
                        i += 1;
                    }
                }
                Some(h) => {
                    let close = i + 1 + h as usize;
                    let hashes = bytes.get(i + 1..close);
                    if b == b'"' && hashes.is_some_and(|s| s.iter().all(|&c| c == b'#')) {
                        out.push(b);
                        out.extend_from_slice(&bytes[i + 1..close]);
                        i = close;
                        state = State::Normal;
                    } else {
                        blank(&mut out, b);
                        i += 1;
                    }
                }
            },
            State::CharLit => {
                if b == b'\\' && i + 1 < bytes.len() {
                    blank(&mut out, b);
                    blank(&mut out, bytes[i + 1]);
                    i += 2;
                } else if b == b'\'' {
                    state = State::Normal;
                    out.push(b);
                    i += 1;
                } else {
                    blank(&mut out, b);
                    i += 1;
                }
            }
        }
    }
    // Source files are UTF-8; blanking replaces whole non-ASCII chars
    // byte-by-byte with spaces, which keeps the result valid UTF-8 only
    // if we never split a kept multi-byte char — kept bytes are copied
    // verbatim in full, so this holds.
    String::from_utf8(out).unwrap_or_default()
}

/// Is the byte before `i` part of an identifier (so `r`/`b` is a name
/// suffix, not a literal prefix)?
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// If `bytes[i..]` starts a raw/byte string or byte-char prefix, returns
/// (bytes consumed through the opening quote, hash count for raw).
fn raw_prefix(bytes: &[u8], i: usize) -> (usize, Option<u32>) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if bytes.get(j) == Some(&b'\'') {
            return (j - i + 1, None); // b'x'
        }
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        let mut hashes = 0u32;
        while bytes.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if bytes.get(j) == Some(&b'"') {
            return (j - i + 1, Some(hashes));
        }
        return (0, None);
    }
    if bytes.get(j) == Some(&b'"') {
        return (j - i + 1, None); // b"..." — escaped like a plain string
    }
    (0, None)
}

/// Distinguishes `'c'` / `'\n'` char literals from `'lifetime` uses.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => {
            // 'x' — closing quote within the next few bytes (chars can
            // be multi-byte UTF-8, up to 4 bytes).
            (2..=5).any(|d| bytes.get(i + d) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\''))
        }
        None => false,
    }
}

/// 1-based line number of byte `offset` in `text`.
#[must_use]
pub(crate) fn line_of(text: &str, offset: usize) -> usize {
    text.as_bytes()[..offset.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Byte spans of items annotated `#[cfg(test)]` in *clean* source
/// (typically the `mod tests` block), so rules can skip test-only code.
/// Public for `tests/lexer_props.rs`.
#[must_use]
pub fn test_spans(clean: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut search = 0;
    while let Some(rel) = clean[search..].find("#[cfg(test)]") {
        let attr_start = search + rel;
        let mut j = attr_start + "#[cfg(test)]".len();
        let bytes = clean.as_bytes();
        // Skip whitespace and further attributes between the cfg and the
        // item it gates.
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'#' {
                // Skip one #[...] attribute (brackets never nest deeply
                // enough here to need full matching, but match anyway).
                let mut depth = 0;
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        // The gated item runs to its matching close brace, or to the
        // first `;` for brace-less items (`use`, `mod x;`).
        let mut depth = 0i32;
        let mut end = clean.len();
        let mut k = j;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        spans.push((attr_start, end));
        search = end.max(attr_start + 1);
    }
    spans
}

/// Finds the next occurrence of `word` in `text[from..]` that is not
/// part of a larger identifier; returns its byte offset.
#[must_use]
pub(crate) fn find_word(text: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut start = from;
    while let Some(rel) = text[start..].find(word) {
        let at = start + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_and_block_comments() {
        let src = "let a = 1; // HashMap here\nlet b = /* HashMap */ 2;\n";
        let clean = clean_source(src);
        assert_eq!(clean.len(), src.len());
        assert!(!clean.contains("HashMap"));
        assert!(clean.contains("let a = 1;"));
        assert!(clean.contains("let b ="));
    }

    #[test]
    fn blanks_string_contents_but_keeps_quotes() {
        let src = r#"let s = "HashMap::new()"; let t = 'H';"#;
        let clean = clean_source(src);
        assert!(!clean.contains("HashMap"));
        assert!(clean.contains("let s = \""));
        assert_eq!(clean.len(), src.len());
    }

    #[test]
    fn preserves_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        assert_eq!(clean_source(src), src);
    }

    #[test]
    fn handles_escapes_and_raw_strings() {
        let src = r##"let a = "esc \" HashMap"; let b = r#"raw HashMap"#;"##;
        let clean = clean_source(src);
        assert!(!clean.contains("HashMap"));
        assert_eq!(clean.len(), src.len());
    }

    #[test]
    fn test_spans_cover_test_module() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { foo(); }\n}\nfn tail() {}\n";
        let clean = clean_source(src);
        let spans = test_spans(&clean);
        assert_eq!(spans.len(), 1);
        let (s, e) = spans[0];
        assert!(clean[s..e].contains("mod tests"));
        assert!(!clean[s..e].contains("tail"));
    }

    #[test]
    fn find_word_respects_boundaries() {
        let text = "BTreeMap HashMapX HashMap";
        let at = find_word(text, "HashMap", 0).unwrap();
        assert_eq!(&text[at..at + 7], "HashMap");
        assert_eq!(at, 18);
    }

    #[test]
    fn line_of_counts_from_one() {
        let text = "a\nb\nc";
        assert_eq!(line_of(text, 0), 1);
        assert_eq!(line_of(text, 2), 2);
        assert_eq!(line_of(text, 4), 3);
    }
}
