//! Shared source-scanning machinery for the syntactic passes.
//!
//! Every eden-lint pass works the same way: read `.rs` files, strip
//! comments and string literals so pattern matching only sees code, skip
//! `#[cfg(test)]` items, and honour `// eden-lint: <kind>(<body>)`
//! annotations. This module owns those mechanics so the passes
//! (`lockorder`, `atomics`, `blocking`, `protocol`) stay about their
//! rules, not about tokenizing.

use std::path::{Path, PathBuf};

/// One `// eden-lint: kind(body)` marker found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// The marker kind: `holds`, `ordering`, `nonblocking`.
    pub kind: String,
    /// The text between the parentheses (must itself be paren-free).
    pub body: String,
    /// 1-based source line the marker sits on.
    pub line: usize,
}

/// One scanned source line.
#[derive(Debug)]
pub struct ScanLine {
    /// 1-based line number.
    pub number: usize,
    /// The line with comments stripped and literal contents blanked.
    pub code: String,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A whole file, pre-processed for the passes.
#[derive(Debug)]
pub struct FileScan {
    /// The file's path as given to [`scan_file`].
    pub path: String,
    /// Every line, stripped and test-classified.
    pub lines: Vec<ScanLine>,
    /// Every `eden-lint:` annotation, in source order.
    pub annotations: Vec<Annotation>,
}

impl FileScan {
    /// The stripped lines joined with `\n` — byte offsets in the result
    /// map back to lines via [`FileScan::line_of`]. Test lines are
    /// blanked so offset math stays intact while their content can never
    /// match a pattern.
    pub fn joined_code(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            if line.in_test {
                out.push_str(&" ".repeat(line.code.len()));
            } else {
                out.push_str(&line.code);
            }
            out.push('\n');
        }
        out
    }

    /// Map a byte offset in [`FileScan::joined_code`] to its 1-based line.
    pub fn line_of(&self, joined: &str, offset: usize) -> usize {
        joined[..offset].matches('\n').count() + 1
    }

    /// Annotations of one kind, in source order.
    pub fn annotations_of(&self, kind: &str) -> Vec<&Annotation> {
        self.annotations.iter().filter(|a| a.kind == kind).collect()
    }
}

/// Strip line comments and neutralise string/char literal *contents* so
/// brace counting and pattern matching only see code. Literal state is
/// per-line (multi-line strings are out of scope — the passes' patterns
/// are chosen to stay far from them).
pub fn strip_noise(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        if in_str {
            if c == '\\' {
                chars.next();
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        if in_char {
            if c == '\\' {
                chars.next();
            } else if c == '\'' {
                in_char = false;
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_str = true;
                out.push(' ');
            }
            // A lifetime (`'a`) is not a char literal: only enter char
            // state when a closing quote is plausibly near.
            '\'' if line.contains("')") || line.matches('\'').count() >= 2 => {
                in_char = true;
                out.push(' ');
            }
            _ => out.push(c),
        }
    }
    out
}

/// Collapse runs of whitespace and re-join method chains (`foo .bar` →
/// `foo.bar`) so multi-line statements match single-line patterns.
pub fn collapse_ws(s: &str) -> String {
    s.split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .replace(" .", ".")
}

/// Extract every `eden-lint: kind(body)` marker from a raw source line.
fn parse_annotations(raw: &str, lineno: usize, out: &mut Vec<Annotation>) {
    let mut rest = raw;
    while let Some(idx) = rest.find("eden-lint:") {
        rest = &rest[idx + "eden-lint:".len()..];
        let trimmed = rest.trim_start();
        let kind: String = trimmed
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        let after = &trimmed[kind.len()..];
        if kind.is_empty() || !after.starts_with('(') {
            continue;
        }
        let Some(end) = after.find(')') else { continue };
        out.push(Annotation {
            kind,
            body: after[1..end].trim().to_owned(),
            line: lineno,
        });
        rest = &after[end..];
    }
}

/// Read and pre-process one file: strip noise per line, find annotations,
/// and mark every line belonging to a `#[cfg(test)]` item.
pub fn scan_file(path: &Path) -> std::io::Result<FileScan> {
    let text = std::fs::read_to_string(path)?;
    Ok(scan_text(&path.display().to_string(), &text))
}

/// [`scan_file`] on in-memory text (for unit tests and fixtures).
pub fn scan_text(path: &str, text: &str) -> FileScan {
    let mut lines = Vec::new();
    let mut annotations = Vec::new();
    let mut depth: usize = 0;
    // `#[cfg(test)]` seen; waiting to learn what item it gates.
    let mut pending_test = false;
    // Depth the current test item opened at; in-test until we return
    // below it. (Nested cfg(test) inside a test region changes nothing.)
    let mut test_exit: Option<usize> = None;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        parse_annotations(raw, lineno, &mut annotations);
        let code = strip_noise(raw);
        let in_test_before = test_exit.is_some();

        let trimmed = code.trim();
        if !in_test_before && trimmed.contains("#[cfg(test)]") {
            pending_test = true;
        }
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        let mut in_test = in_test_before || pending_test;
        if pending_test && !trimmed.is_empty() && !trimmed.contains("#[cfg(test)]") {
            if opens > 0 {
                // The gated item's body opens here; skip until it closes.
                test_exit = Some(depth);
                pending_test = false;
            } else if trimmed.ends_with(';') {
                // A braceless gated item (`#[cfg(test)] use ...;`).
                pending_test = false;
            }
        }
        depth += opens;
        depth = depth.saturating_sub(closes);
        if let Some(exit) = test_exit {
            if depth <= exit {
                test_exit = None;
                // The closing line itself still belongs to the item.
                in_test = true;
            }
        }
        lines.push(ScanLine {
            number: lineno,
            code,
            in_test,
        });
    }
    FileScan {
        path: path.to_owned(),
        lines,
        annotations,
    }
}

/// Recursively collect `.rs` files under `root` (or `root` itself).
pub fn collect_rs(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    for entry in std::fs::read_dir(root)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walk backward from `open` (the byte index of a `(`) over the method
/// chain it terminates and return `(method, receiver)` — the identifier
/// directly before the paren, and the nearest named receiver behind it:
/// chained call groups (`()`), index groups (`[]`), and numeric tuple
/// fields (`.0`) are skipped, so `core.park_bit().store(` names
/// `park_bit` and `self.cells[i].store(` names `cells`. A dot-less call
/// (`fence(`) returns the function name as both. Inside a `macro_rules!`
/// body a name may be a metavariable, and keeps its `$`: `c.$field.load(`
/// names `$field`, one site standing for every expansion.
pub fn call_chain(code: &[u8], open: usize) -> Option<(String, String)> {
    let ident_end = |mut i: usize| -> usize {
        while i > 0 && (code[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        i
    };
    let read_ident = |end: usize| -> Option<(String, usize)> {
        let mut start = end;
        while start > 0 {
            let c = code[start - 1] as char;
            if c.is_alphanumeric() || c == '_' {
                start -= 1;
            } else {
                break;
            }
        }
        if start < end && start > 0 && code[start - 1] == b'$' {
            start -= 1;
        }
        (start < end).then(|| (String::from_utf8_lossy(&code[start..end]).into_owned(), start))
    };
    let skip_group = |mut i: usize, open_ch: u8, close_ch: u8| -> Option<usize> {
        // `i` points just past a `close_ch`; return index of its opener.
        let mut depth = 0usize;
        while i > 0 {
            i -= 1;
            if code[i] == close_ch {
                depth += 1;
            } else if code[i] == open_ch {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    };

    let end = ident_end(open);
    let (method, mut pos) = read_ident(end)?;
    // Not a method chain? Then the identifier is a plain function call.
    let before = ident_end(pos);
    if before == 0 || code[before - 1] != b'.' {
        return Some((method.clone(), method));
    }
    pos = before - 1; // at the '.'
    loop {
        let end = ident_end(pos);
        if end == 0 {
            return None;
        }
        match code[end - 1] {
            b')' => {
                pos = skip_group(end, b'(', b')')?;
                // The group was a call: skip its callee name too, then
                // continue from whatever precedes it.
                let cal_end = ident_end(pos);
                let (_, start) = read_ident(cal_end)?;
                let prev = ident_end(start);
                if prev == 0 || code[prev - 1] != b'.' {
                    // `park_bit()` with no receiver dot: the call itself
                    // is the best name we have.
                    let (name, _) = read_ident(cal_end)?;
                    return Some((method, name));
                }
                // `a.b().c...`: the called name is the receiver name.
                let (name, _) = read_ident(cal_end)?;
                return Some((method, name));
            }
            b']' => {
                pos = skip_group(end, b'[', b']')?;
                continue;
            }
            _ => {
                let (name, start) = read_ident(end)?;
                if name.chars().all(|c| c.is_ascii_digit()) {
                    // A tuple index (`.0`): keep walking left.
                    let prev = ident_end(start);
                    if prev > 0 && code[prev - 1] == b'.' {
                        pos = prev - 1;
                        continue;
                    }
                    return Some((method, name));
                }
                // `self.park_state.store(` → receiver chain may continue
                // left (`self.`), but the *last* field is the name.
                return Some((method, name));
            }
        }
    }
}

/// The byte index of the `)` matching the `(` at `open`, if balanced.
pub fn matching_paren(code: &[u8], open: usize) -> Option<usize> {
    matching(code, open, b'(', b')')
}

/// The byte index of the `}` matching the `{` at `open`, if balanced.
pub fn matching_brace(code: &[u8], open: usize) -> Option<usize> {
    matching(code, open, b'{', b'}')
}

fn matching(code: &[u8], open: usize, opener: u8, closer: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in code.iter().enumerate().skip(open) {
        if b == opener {
            depth += 1;
        } else if b == closer {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_items_are_masked() {
        let scan = scan_text(
            "mem.rs",
            "fn live() { a(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn gone() { b(); }\n\
             }\n\
             fn live_again() { c(); }\n",
        );
        let flags: Vec<bool> = scan.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
        let joined = scan.joined_code();
        assert!(joined.contains("live_again"));
        assert!(!joined.contains("gone"));
    }

    #[test]
    fn braceless_cfg_test_item_masks_one_statement() {
        let scan = scan_text(
            "mem.rs",
            "#[cfg(test)]\nuse crate::test_helpers;\nfn live() {}\n",
        );
        let flags: Vec<bool> = scan.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![true, true, false]);
    }

    #[test]
    fn annotations_parse_kind_and_body() {
        let scan = scan_text(
            "mem.rs",
            "// eden-lint: nonblocking(dedicated thread)\nx.wait();\n// eden-lint: holds(registry-shard, mailbox-queue)\n",
        );
        assert_eq!(scan.annotations.len(), 2);
        assert_eq!(scan.annotations[0].kind, "nonblocking");
        assert_eq!(scan.annotations[0].body, "dedicated thread");
        assert_eq!(scan.annotations[0].line, 1);
        assert_eq!(scan.annotations[1].body, "registry-shard, mailbox-queue");
    }

    #[test]
    fn call_chain_walks_receivers() {
        let code = b"self.park_state.load(Ordering::Acquire)";
        let open = code.iter().position(|&b| b == b'(').unwrap();
        assert_eq!(
            call_chain(code, open),
            Some(("load".into(), "park_state".into()))
        );

        let code = b"core.park_bit().store(park::QUEUED, Ordering::Release)";
        let open = 21; // the '(' after `.store`
        assert_eq!(code[open], b'(');
        assert_eq!(
            call_chain(code, open),
            Some(("store".into(), "park_bit".into()))
        );

        let code = b"self.cells[b as usize & self.mask].store(p, Ordering::Relaxed)";
        let open = code.len() - 22;
        assert_eq!(code[open], b'(');
        assert_eq!(
            call_chain(code, open),
            Some(("store".into(), "cells".into()))
        );

        let code = b"self.wakes_pending.0.fetch_add(1, Ordering::SeqCst)";
        let open = code.iter().position(|&b| b == b'(').unwrap();
        assert_eq!(
            call_chain(code, open),
            Some(("fetch_add".into(), "wakes_pending".into()))
        );

        let code = b"self.cell().$field.fetch_add(1, Ordering::Relaxed)";
        let open = code.iter().rposition(|&b| b == b'(').unwrap();
        assert_eq!(
            call_chain(code, open),
            Some(("fetch_add".into(), "$field".into()))
        );

        let code = b"fence(Ordering::SeqCst)";
        let open = 5;
        assert_eq!(call_chain(code, open), Some(("fence".into(), "fence".into())));
    }

    #[test]
    fn strings_and_comments_are_noise() {
        let scan = scan_text("mem.rs", "let x = \"Ordering::SeqCst\"; // Ordering::Relaxed\n");
        assert!(!scan.joined_code().contains("Ordering"));
    }
}
