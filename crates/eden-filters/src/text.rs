//! Line-oriented text filters — the bread-and-butter utilities of §3.
//!
//! Every filter here is a pure [`Transform`] over `Value::Str` lines, so it
//! can be mounted in any discipline. Non-string records pass through the
//! text filters untouched (streams are homogeneous in practice, §6, but a
//! filter must not panic on a stray record). A line a filter leaves alone
//! goes on as the record it came in; one it makes is built in a scratch
//! buffer and copied out once.

use std::fmt::Write as _;

use eden_core::Value;
use eden_transput::{Emitter, Transform};

use crate::pattern::Pattern;

fn as_line(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// §3's motivating example: "a program whose output is a copy of its input
/// except that all lines beginning with 'C' have been omitted. Such a
/// filter might be used to strip comment lines from a Fortran program."
#[derive(Debug)]
pub struct StripComments {
    prefix: String,
}

impl StripComments {
    /// Drop lines starting with `prefix`.
    pub fn new(prefix: impl Into<String>) -> StripComments {
        StripComments {
            prefix: prefix.into(),
        }
    }

    /// The Fortran configuration from the paper.
    pub fn fortran() -> StripComments {
        StripComments::new("C")
    }
}

impl Transform for StripComments {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        match as_line(&item) {
            Some(line) if line.starts_with(&self.prefix) => {}
            _ => out.emit(item),
        }
    }
    fn name(&self) -> &'static str {
        "strip-comments"
    }
}

/// Keep (or delete) lines matching a glob pattern — the parameterised
/// filter of §3.
#[derive(Debug)]
pub struct Grep {
    pattern: Pattern,
    keep_matches: bool,
}

impl Grep {
    /// Keep only lines containing a match.
    pub fn matching(pattern: &str) -> Grep {
        Grep {
            pattern: Pattern::compile(pattern),
            keep_matches: true,
        }
    }

    /// Delete lines containing a match (the paper's "deletes all lines
    /// matching a pattern given as an argument").
    pub fn deleting(pattern: &str) -> Grep {
        Grep {
            pattern: Pattern::compile(pattern),
            keep_matches: false,
        }
    }
}

impl Transform for Grep {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        let matched = as_line(&item)
            .map(|l| self.pattern.contained_in(l))
            .unwrap_or(false);
        if matched == self.keep_matches {
            out.emit(item);
        }
    }
    fn name(&self) -> &'static str {
        "grep"
    }
}

/// Prefix each line with its (1-based) line number.
#[derive(Debug)]
pub struct LineNumber {
    next: u64,
    /// Where a numbered line is built before it is copied out, once.
    scratch: String,
}

impl LineNumber {
    /// Numbering starts at 1.
    pub fn new() -> LineNumber {
        LineNumber {
            next: 1,
            scratch: String::new(),
        }
    }
}

impl Default for LineNumber {
    fn default() -> Self {
        LineNumber::new()
    }
}

impl Transform for LineNumber {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        match as_line(&item) {
            Some(line) => {
                self.scratch.clear();
                write!(self.scratch, "{:>6}  {line}", self.next)
                    .expect("writing to a String does not fail");
                out.emit(Value::str(self.scratch.as_str()));
                self.next += 1;
            }
            None => out.emit(item),
        }
    }
    fn name(&self) -> &'static str {
        "line-number"
    }
    fn state(&self) -> Option<Value> {
        Some(Value::record([("next", Value::Int(self.next as i64))]))
    }
    fn restore(&mut self, state: &Value) -> eden_core::Result<()> {
        self.next = state.field("next")?.as_int()?.max(1) as u64;
        Ok(())
    }
}

/// Case folding, with `str::to_uppercase` / `to_lowercase` semantics. A
/// line that is already folded passes through as the record it came in.
#[derive(Debug)]
pub struct CaseFold {
    upper: bool,
    /// Where a line is folded before it is copied out, once.
    scratch: String,
}

impl CaseFold {
    fn new(upper: bool) -> CaseFold {
        CaseFold {
            upper,
            scratch: String::new(),
        }
    }

    /// Uppercase every line.
    pub fn upper() -> CaseFold {
        CaseFold::new(true)
    }

    /// Lowercase every line.
    pub fn lower() -> CaseFold {
        CaseFold::new(false)
    }
}

impl Transform for CaseFold {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        let Some(line) = as_line(&item) else {
            return out.emit(item);
        };
        if line.is_ascii() {
            // On ASCII the Unicode mappings are the ASCII ones, in place.
            self.scratch.clear();
            self.scratch.push_str(line);
            if self.upper {
                self.scratch.make_ascii_uppercase();
            } else {
                self.scratch.make_ascii_lowercase();
            }
        } else if self.upper {
            self.scratch = line.to_uppercase();
        } else {
            self.scratch = line.to_lowercase();
        }
        if self.scratch == line {
            out.emit(item);
        } else {
            out.emit(Value::str(self.scratch.as_str()));
        }
    }
    fn name(&self) -> &'static str {
        "case-fold"
    }
}

/// Replace tabs with spaces to the next `width`-column tab stop.
#[derive(Debug)]
pub struct ExpandTabs {
    width: usize,
}

impl ExpandTabs {
    /// Tab stops every `width` columns (at least 1).
    pub fn new(width: usize) -> ExpandTabs {
        ExpandTabs {
            width: width.max(1),
        }
    }
}

impl Transform for ExpandTabs {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        match as_line(&item) {
            Some(line) => {
                let mut expanded = String::with_capacity(line.len());
                let mut col = 0usize;
                for c in line.chars() {
                    if c == '\t' {
                        let pad = self.width - (col % self.width);
                        expanded.extend(std::iter::repeat_n(' ', pad));
                        col += pad;
                    } else {
                        expanded.push(c);
                        col += 1;
                    }
                }
                out.emit(Value::str(expanded));
            }
            None => out.emit(item),
        }
    }
    fn name(&self) -> &'static str {
        "expand-tabs"
    }
}

/// Pass only the first `n` records, like `head`.
#[derive(Debug)]
pub struct Head {
    remaining: u64,
}

impl Head {
    /// Keep the first `n` records.
    pub fn new(n: u64) -> Head {
        Head { remaining: n }
    }
}

impl Transform for Head {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if self.remaining > 0 {
            self.remaining -= 1;
            out.emit(item);
        }
    }
    fn name(&self) -> &'static str {
        "head"
    }
    fn state(&self) -> Option<Value> {
        Some(Value::record([(
            "remaining",
            Value::Int(self.remaining as i64),
        )]))
    }
    fn restore(&mut self, state: &Value) -> eden_core::Result<()> {
        self.remaining = state.field("remaining")?.as_int()?.max(0) as u64;
        Ok(())
    }
}

/// Pass only the last `n` records, like `tail` (buffers at most `n`).
#[derive(Debug)]
pub struct Tail {
    n: usize,
    window: std::collections::VecDeque<Value>,
}

impl Tail {
    /// Keep the last `n` records.
    pub fn new(n: usize) -> Tail {
        Tail {
            n,
            window: std::collections::VecDeque::new(),
        }
    }
}

impl Transform for Tail {
    fn push(&mut self, item: Value, _out: &mut Emitter) {
        if self.n == 0 {
            return;
        }
        if self.window.len() == self.n {
            self.window.pop_front();
        }
        self.window.push_back(item);
    }
    fn flush(&mut self, out: &mut Emitter) {
        for item in self.window.drain(..) {
            out.emit(item);
        }
    }
    fn name(&self) -> &'static str {
        "tail"
    }
}

/// Drop blank (empty or whitespace-only) lines.
#[derive(Debug)]
pub struct SqueezeBlank;

impl Transform for SqueezeBlank {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        match as_line(&item) {
            Some(line) if line.trim().is_empty() => {}
            _ => out.emit(item),
        }
    }
    fn name(&self) -> &'static str {
        "squeeze-blank"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_transput::transform::apply_offline;

    fn lines(ls: &[&str]) -> Vec<Value> {
        ls.iter().map(|l| Value::str(*l)).collect()
    }

    fn run(t: &mut dyn Transform, input: &[&str]) -> Vec<Value> {
        apply_offline(t, lines(input)).0
    }

    #[test]
    fn strip_comments_fortran() {
        let out = run(
            &mut StripComments::fortran(),
            &["C this is a comment", "      X = 1", "C another", "      END"],
        );
        assert_eq!(out, lines(&["      X = 1", "      END"]));
    }

    #[test]
    fn grep_keeps_and_deletes() {
        let input = ["an error here", "all good", "error again"];
        assert_eq!(
            run(&mut Grep::matching("error"), &input),
            lines(&["an error here", "error again"])
        );
        assert_eq!(run(&mut Grep::deleting("error"), &input), lines(&["all good"]));
    }

    #[test]
    fn grep_with_glob() {
        let out = run(&mut Grep::matching("e?ror"), &["eXror", "error", "eror"]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn line_numbering() {
        let out = run(&mut LineNumber::new(), &["a", "b"]);
        assert_eq!(out[0].as_str().unwrap(), "     1  a");
        assert_eq!(out[1].as_str().unwrap(), "     2  b");
    }

    #[test]
    fn case_folding() {
        assert_eq!(run(&mut CaseFold::upper(), &["MiXeD"]), lines(&["MIXED"]));
        assert_eq!(run(&mut CaseFold::lower(), &["MiXeD"]), lines(&["mixed"]));
    }

    #[test]
    fn tabs_expand_to_stops() {
        let out = run(&mut ExpandTabs::new(4), &["a\tb", "\tx"]);
        assert_eq!(out, lines(&["a   b", "    x"]));
    }

    #[test]
    fn head_and_tail() {
        let input = ["1", "2", "3", "4", "5"];
        assert_eq!(run(&mut Head::new(2), &input), lines(&["1", "2"]));
        assert_eq!(run(&mut Tail::new(2), &input), lines(&["4", "5"]));
        assert_eq!(run(&mut Tail::new(0), &input), lines(&[]));
        assert_eq!(run(&mut Head::new(99), &input).len(), 5);
    }

    #[test]
    fn squeeze_blank() {
        let out = run(&mut SqueezeBlank, &["a", "", "  ", "b"]);
        assert_eq!(out, lines(&["a", "b"]));
    }

    #[test]
    fn non_string_records_pass_through() {
        let mut g = Grep::deleting("x");
        let (out, _) = apply_offline(&mut g, vec![Value::Int(7)]);
        assert_eq!(out, vec![Value::Int(7)]);
    }
}
