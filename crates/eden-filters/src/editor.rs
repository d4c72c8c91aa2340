//! A stream editor — §5's example of a filter with **multiple inputs**:
//! "stream editors that have a command input as well as a text input."
//!
//! The command language is a sed-flavoured subset:
//!
//! * `s/old/new/`  — replace every occurrence of `old` with `new`
//! * `d/pat/`      — delete lines containing glob `pat`
//! * `a/text/`     — append `text` after every line
//! * `q`           — pass nothing further (quit)
//!
//! In an Eden pipeline the command stream is itself a source Eject: the
//! wirer reads it (active input — easy in the read-only discipline) and
//! constructs the editor with the parsed script.

use eden_core::{EdenError, Result, Value};
use eden_transput::{Emitter, Transform};

use crate::pattern::Pattern;

/// One editing command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Replace all occurrences of `.0` with `.1`.
    Substitute(String, String),
    /// Delete lines containing the glob.
    Delete(Pattern),
    /// Append a line after every input line.
    AppendAfter(String),
    /// Stop passing input through.
    Quit,
}

impl Command {
    /// Parse one command line.
    pub fn parse(line: &str) -> Result<Command> {
        let line = line.trim();
        if line == "q" {
            return Ok(Command::Quit);
        }
        let (op, rest) = line.split_at(line.len().min(1));
        let parts = split_slashes(rest)?;
        match (op, parts.as_slice()) {
            ("s", [old, new]) if !old.is_empty() => {
                Ok(Command::Substitute(old.clone(), new.clone()))
            }
            ("d", [pat]) => Ok(Command::Delete(Pattern::compile(pat))),
            ("a", [text]) => Ok(Command::AppendAfter(text.clone())),
            _ => Err(EdenError::BadParameter(format!(
                "unparseable editor command: `{line}`"
            ))),
        }
    }
}

/// Split `/a/b/` into `["a", "b"]`, validating delimiters.
fn split_slashes(s: &str) -> Result<Vec<String>> {
    if !s.starts_with('/') || !s.ends_with('/') || s.len() < 2 {
        return Err(EdenError::BadParameter(format!(
            "expected /-delimited arguments, got `{s}`"
        )));
    }
    Ok(s[1..s.len() - 1].split('/').map(str::to_owned).collect())
}

/// The stream editor transform.
#[derive(Debug)]
pub struct StreamEditor {
    script: Vec<Command>,
    quit: bool,
}

impl StreamEditor {
    /// An editor running the given script on every line.
    pub fn new(script: Vec<Command>) -> StreamEditor {
        StreamEditor {
            script,
            quit: false,
        }
    }

    /// Parse a whole command stream (one command per record).
    pub fn from_command_lines<'a, I>(lines: I) -> Result<StreamEditor>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let script = lines
            .into_iter()
            .filter(|l| !l.trim().is_empty())
            .map(Command::parse)
            .collect::<Result<Vec<_>>>()?;
        Ok(StreamEditor::new(script))
    }
}

impl Transform for StreamEditor {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if self.quit {
            return;
        }
        let line = match &item {
            Value::Str(s) => s.clone(),
            _ => {
                out.emit(item);
                return;
            }
        };
        let mut current = line;
        let mut deleted = false;
        let mut appends: Vec<&str> = Vec::new();
        for cmd in &self.script {
            match cmd {
                Command::Substitute(old, new) => {
                    // Only materialise a fresh string when the pattern
                    // actually occurs; untouched lines keep sharing the
                    // decoded payload.
                    if current.as_str().contains(old.as_str()) {
                        current = current.as_str().replace(old.as_str(), new).into();
                    }
                }
                Command::Delete(pat) => {
                    if pat.contained_in(&current) {
                        deleted = true;
                        break;
                    }
                }
                Command::AppendAfter(text) => appends.push(text),
                Command::Quit => {
                    self.quit = true;
                    break;
                }
            }
        }
        if !deleted && !self.quit {
            out.emit(Value::Str(current));
            for text in appends {
                out.emit(Value::str(text));
            }
        }
    }
    fn name(&self) -> &'static str {
        "stream-editor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_transput::transform::apply_offline;

    fn lines(ls: &[&str]) -> Vec<Value> {
        ls.iter().map(|l| Value::str(*l)).collect()
    }

    #[test]
    fn parse_commands() {
        assert_eq!(
            Command::parse("s/a/b/").unwrap(),
            Command::Substitute("a".into(), "b".into())
        );
        assert!(matches!(Command::parse("d/x*/").unwrap(), Command::Delete(_)));
        assert_eq!(
            Command::parse("a/after/").unwrap(),
            Command::AppendAfter("after".into())
        );
        assert_eq!(Command::parse(" q ").unwrap(), Command::Quit);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Command::parse("nonsense").is_err());
        assert!(Command::parse("s/only-one/").is_err());
        assert!(Command::parse("s//empty-old/").is_err());
        assert!(Command::parse("x/a/").is_err());
    }

    #[test]
    fn substitute_and_delete() {
        let mut ed = StreamEditor::from_command_lines(["s/cat/dog/", "d/bird/"]).unwrap();
        let (out, _) = apply_offline(&mut ed, lines(&["the cat", "a bird", "catcat"]));
        assert_eq!(out, lines(&["the dog", "dogdog"]));
    }

    #[test]
    fn append_after() {
        let mut ed = StreamEditor::from_command_lines(["a/-- sep --/"]).unwrap();
        let (out, _) = apply_offline(&mut ed, lines(&["a", "b"]));
        assert_eq!(out, lines(&["a", "-- sep --", "b", "-- sep --"]));
    }

    #[test]
    fn quit_stops_output() {
        let mut ed = StreamEditor::new(vec![Command::Quit]);
        let (out, _) = apply_offline(&mut ed, lines(&["never", "seen"]));
        assert!(out.is_empty());
    }

    #[test]
    fn empty_script_is_identity() {
        let mut ed = StreamEditor::from_command_lines([]).unwrap();
        let (out, _) = apply_offline(&mut ed, lines(&["pass"]));
        assert_eq!(out, lines(&["pass"]));
    }

    #[test]
    fn substitutions_compose_in_order() {
        let mut ed = StreamEditor::from_command_lines(["s/a/b/", "s/b/c/"]).unwrap();
        let (out, _) = apply_offline(&mut ed, lines(&["a"]));
        assert_eq!(out, lines(&["c"]));
    }
}
