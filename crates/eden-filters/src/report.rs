//! Filters with **report streams** — the impure filters of §5.
//!
//! "It is also common for a program to produce a stream of *Reports* (i.e.
//! monitoring messages) in addition to its main output stream." These
//! transforms emit their main output on the primary channel and their
//! monitoring output on the `Report` channel, which the read-only
//! discipline exposes through channel identifiers (Figure 4) and the
//! write-only discipline through extra destinations (Figure 3).

use std::collections::BTreeSet;

use eden_core::Value;
use eden_transput::protocol::REPORT_NAME;
use eden_transput::{Emitter, Transform};

/// A spelling checker: passes its text through unchanged and reports each
/// unknown word once on the `Report` channel.
#[derive(Debug)]
pub struct SpellCheck {
    dictionary: BTreeSet<String>,
    reported: BTreeSet<String>,
    line_no: u64,
}

impl SpellCheck {
    /// Check against the given word list (case-insensitive).
    pub fn new<I, S>(dictionary: I) -> SpellCheck
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        SpellCheck {
            dictionary: dictionary
                .into_iter()
                .map(|w| w.as_ref().to_lowercase())
                .collect(),
            reported: BTreeSet::new(),
            line_no: 0,
        }
    }
}

impl Transform for SpellCheck {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if let Value::Str(line) = &item {
            self.line_no += 1;
            for word in line.split(|c: char| !c.is_alphabetic()) {
                if word.is_empty() {
                    continue;
                }
                let lower = word.to_lowercase();
                if !self.dictionary.contains(&lower) && self.reported.insert(lower.clone()) {
                    out.emit_on(
                        REPORT_NAME,
                        Value::str(format!("line {}: unknown word `{word}`", self.line_no)),
                    );
                }
            }
        }
        out.emit(item);
    }
    fn flush(&mut self, out: &mut Emitter) {
        out.emit_on(
            REPORT_NAME,
            Value::str(format!("{} unknown word(s)", self.reported.len())),
        );
    }
    fn name(&self) -> &'static str {
        "spell-check"
    }
    fn secondary_channels(&self) -> Vec<&'static str> {
        vec![REPORT_NAME]
    }
}

/// A progress monitor: passes records through and reports a line every
/// `every` records and a total at the end.
#[derive(Debug)]
pub struct ProgressReporter {
    every: u64,
    seen: u64,
    label: String,
}

impl ProgressReporter {
    /// Report every `every` records under the given label.
    pub(crate) fn new(label: impl Into<String>, every: u64) -> ProgressReporter {
        ProgressReporter {
            every: every.max(1),
            seen: 0,
            label: label.into(),
        }
    }
}

impl Transform for ProgressReporter {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            out.emit_on(
                REPORT_NAME,
                Value::str(format!("{}: {} records", self.label, self.seen)),
            );
        }
        out.emit(item);
    }
    fn flush(&mut self, out: &mut Emitter) {
        out.emit_on(
            REPORT_NAME,
            Value::str(format!("{}: done, {} records total", self.label, self.seen)),
        );
    }
    fn name(&self) -> &'static str {
        "progress"
    }
    fn secondary_channels(&self) -> Vec<&'static str> {
        vec![REPORT_NAME]
    }
    fn state(&self) -> Option<Value> {
        Some(Value::record([("seen", Value::Int(self.seen as i64))]))
    }
    fn restore(&mut self, state: &Value) -> eden_core::Result<()> {
        self.seen = state.field("seen")?.as_int()?.max(0) as u64;
        Ok(())
    }
}

/// `tee`: emits every record on the primary channel *and* on a `Copy`
/// channel. In the read-only discipline this is how a stream is duplicated
/// without write-only fan-out.
#[derive(Debug)]
pub struct Tee;

/// The name of [`Tee`]'s duplicate channel.
pub const COPY_NAME: &str = "Copy";

impl Transform for Tee {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        out.emit_on(COPY_NAME, item.clone());
        out.emit(item);
    }
    fn name(&self) -> &'static str {
        "tee"
    }
    fn secondary_channels(&self) -> Vec<&'static str> {
        vec![COPY_NAME]
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
    fn spellcheck_passes_through_and_reports() {
        let mut sc = SpellCheck::new(["the", "cat", "sat"]);
        let (out, sec) = apply_offline(&mut sc, lines(&["the cat zat", "the cat sat"]));
        assert_eq!(out.len(), 2, "primary stream is a pure copy");
        let reports = &sec[REPORT_NAME];
        assert_eq!(reports.len(), 2); // one unknown word + summary
        assert!(reports[0].as_str().unwrap().contains("zat"));
        assert!(reports[1].as_str().unwrap().contains("1 unknown"));
    }

    #[test]
    fn spellcheck_reports_each_word_once() {
        let mut sc = SpellCheck::new(["a"]);
        let (_, sec) = apply_offline(&mut sc, lines(&["b b b", "b"]));
        // One report for `b`, one summary.
        assert_eq!(sec[REPORT_NAME].len(), 2);
    }

    #[test]
    fn progress_reports_cadence_and_total() {
        let mut pr = ProgressReporter::new("job", 2);
        let (out, sec) = apply_offline(&mut pr, (0..5).map(Value::Int).collect::<Vec<_>>());
        assert_eq!(out.len(), 5);
        let reports = &sec[REPORT_NAME];
        assert_eq!(reports.len(), 3); // at 2, at 4, and the total
        assert!(reports[2].as_str().unwrap().contains("5 records total"));
    }

    #[test]
    fn tee_duplicates() {
        let (out, sec) = apply_offline(&mut Tee, lines(&["x", "y"]));
        assert_eq!(out, lines(&["x", "y"]));
        assert_eq!(sec[COPY_NAME], lines(&["x", "y"]));
    }

    #[test]
    fn report_channels_declared() {
        assert_eq!(
            SpellCheck::new(["x"]).secondary_channels(),
            vec![REPORT_NAME]
        );
        assert_eq!(Tee.secondary_channels(), vec![COPY_NAME]);
    }
}
