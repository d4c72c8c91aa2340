//! Aggregating filters: transforms that buffer and emit at flush.
//!
//! These demonstrate why [`Transform::flush`] exists: a sorter or counter
//! cannot emit anything until its input ends. In a read-only pipeline that
//! means the whole aggregation happens under the sink's demand — laziness
//! all the way down.

use std::collections::BTreeMap;

use eden_core::Value;
use eden_transput::{Emitter, Transform};

/// `wc`: counts lines, words and characters; emits one summary record at
/// flush.
#[derive(Default, Debug)]
pub struct WordCount {
    lines: i64,
    words: i64,
    chars: i64,
}

impl WordCount {
    /// A fresh counter.
    pub fn new() -> WordCount {
        WordCount::default()
    }
}

impl Transform for WordCount {
    fn push(&mut self, item: Value, _out: &mut Emitter) {
        if let Value::Str(line) = &item {
            self.lines += 1;
            self.words += line.split_whitespace().count() as i64;
            self.chars += line.chars().count() as i64;
        }
    }
    fn flush(&mut self, out: &mut Emitter) {
        out.emit(Value::record([
            ("lines", Value::Int(self.lines)),
            ("words", Value::Int(self.words)),
            ("chars", Value::Int(self.chars)),
        ]));
    }
    fn name(&self) -> &'static str {
        "wc"
    }
    fn state(&self) -> Option<Value> {
        Some(Value::record([
            ("lines", Value::Int(self.lines)),
            ("words", Value::Int(self.words)),
            ("chars", Value::Int(self.chars)),
        ]))
    }
    fn restore(&mut self, state: &Value) -> eden_core::Result<()> {
        self.lines = state.field("lines")?.as_int()?;
        self.words = state.field("words")?.as_int()?;
        self.chars = state.field("chars")?.as_int()?;
        Ok(())
    }
}

/// `sort`: buffers all lines, emits them sorted at flush. Non-string
/// records sort after strings, by their debug form (total order needed).
#[derive(Debug)]
pub struct SortLines {
    buffered: Vec<Value>,
}

impl SortLines {
    /// A fresh sorter.
    pub fn new() -> SortLines {
        SortLines {
            buffered: Vec::new(),
        }
    }
}

impl Default for SortLines {
    fn default() -> Self {
        SortLines::new()
    }
}

fn sort_key(v: &Value) -> (u8, String) {
    match v {
        Value::Str(s) => (0, s.to_string_owned()),
        other => (1, format!("{other:?}")),
    }
}

impl Transform for SortLines {
    fn push(&mut self, item: Value, _out: &mut Emitter) {
        self.buffered.push(item);
    }
    fn flush(&mut self, out: &mut Emitter) {
        self.buffered.sort_by_key(sort_key);
        for item in self.buffered.drain(..) {
            out.emit(item);
        }
    }
    fn name(&self) -> &'static str {
        "sort"
    }
    fn state(&self) -> Option<Value> {
        Some(Value::record([(
            "buffered",
            Value::list(self.buffered.clone()),
        )]))
    }
    fn restore(&mut self, state: &Value) -> eden_core::Result<()> {
        self.buffered = state.field("buffered")?.as_list()?.to_vec();
        Ok(())
    }
}

/// `uniq`: drops *adjacent* duplicate records (sort first for global
/// dedup, as in Unix).
#[derive(Default, Debug)]
pub struct Uniq {
    last: Option<Value>,
}

impl Uniq {
    /// A fresh deduplicator.
    pub fn new() -> Uniq {
        Uniq::default()
    }
}

impl Transform for Uniq {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if self.last.as_ref() != Some(&item) {
            out.emit(item.clone());
            self.last = Some(item);
        }
    }
    fn name(&self) -> &'static str {
        "uniq"
    }
    fn state(&self) -> Option<Value> {
        Some(Value::record([(
            "last",
            Value::list(self.last.clone().into_iter().collect::<Vec<_>>()),
        )]))
    }
    fn restore(&mut self, state: &Value) -> eden_core::Result<()> {
        self.last = state.field("last")?.as_list()?.first().cloned();
        Ok(())
    }
}

/// Word-frequency table: emits `word<TAB>count` lines at flush, sorted by
/// descending count then word. The core of the paper-era "spelling
/// checker" toolchain.
#[derive(Default, Debug)]
pub struct WordFrequency {
    counts: BTreeMap<String, u64>,
}

impl WordFrequency {
    /// A fresh frequency counter.
    pub(crate) fn new() -> WordFrequency {
        WordFrequency::default()
    }
}

impl Transform for WordFrequency {
    fn push(&mut self, item: Value, _out: &mut Emitter) {
        if let Value::Str(line) = &item {
            for word in line.split(|c: char| !c.is_alphanumeric()) {
                if !word.is_empty() {
                    *self.counts.entry(word.to_lowercase()).or_insert(0) += 1;
                }
            }
        }
    }
    fn flush(&mut self, out: &mut Emitter) {
        let mut pairs: Vec<(String, u64)> = std::mem::take(&mut self.counts).into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (word, count) in pairs {
            out.emit(Value::str(format!("{word}\t{count}")));
        }
    }
    fn name(&self) -> &'static str {
        "word-frequency"
    }
}

/// Run-length encode consecutive equal records into
/// `Record{item, count}` pairs.
#[derive(Default, Debug)]
pub struct RleEncode {
    run: Option<(Value, i64)>,
}

impl RleEncode {
    /// A fresh encoder.
    pub fn new() -> RleEncode {
        RleEncode::default()
    }

    fn emit_run(run: Option<(Value, i64)>, out: &mut Emitter) {
        if let Some((item, count)) = run {
            out.emit(Value::record([
                ("item", item),
                ("count", Value::Int(count)),
            ]));
        }
    }
}

impl Transform for RleEncode {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        match &mut self.run {
            Some((current, count)) if *current == item => *count += 1,
            _ => {
                let prev = self.run.take();
                Self::emit_run(prev, out);
                self.run = Some((item, 1));
            }
        }
    }
    fn flush(&mut self, out: &mut Emitter) {
        let prev = self.run.take();
        Self::emit_run(prev, out);
    }
    fn name(&self) -> &'static str {
        "rle-encode"
    }
}

/// Inverse of [`RleEncode`]: expand `Record{item, count}` runs.
/// Non-run records pass through unchanged.
#[derive(Default, Debug)]
pub struct RleDecode;

impl RleDecode {
    /// A fresh decoder.
    pub fn new() -> RleDecode {
        RleDecode
    }
}

impl Transform for RleDecode {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        let run = item
            .field_opt("item")
            .cloned()
            .zip(item.field_opt("count").and_then(|c| c.as_int().ok()));
        match run {
            Some((value, count)) if count >= 0 => {
                for _ in 0..count {
                    out.emit(value.clone());
                }
            }
            _ => out.emit(item),
        }
    }
    fn name(&self) -> &'static str {
        "rle-decode"
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
    fn word_count_summary() {
        let (out, _) = apply_offline(
            &mut WordCount::new(),
            lines(&["three words here", "two words", ""]),
        );
        assert_eq!(out.len(), 1);
        let rec = &out[0];
        assert_eq!(rec.field("lines").unwrap().as_int().unwrap(), 3);
        assert_eq!(rec.field("words").unwrap().as_int().unwrap(), 5);
    }

    #[test]
    fn sort_emits_sorted_at_flush() {
        let (out, _) = apply_offline(&mut SortLines::new(), lines(&["c", "a", "b"]));
        assert_eq!(out, lines(&["a", "b", "c"]));
    }

    #[test]
    fn sort_handles_mixed_types() {
        let (out, _) = apply_offline(
            &mut SortLines::new(),
            vec![Value::Int(2), Value::str("a"), Value::Int(1)],
        );
        assert_eq!(out[0], Value::str("a"));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn uniq_drops_adjacent_only() {
        let (out, _) = apply_offline(&mut Uniq::new(), lines(&["a", "a", "b", "a"]));
        assert_eq!(out, lines(&["a", "b", "a"]));
    }

    #[test]
    fn word_frequency_sorted_by_count() {
        let (out, _) = apply_offline(
            &mut WordFrequency::new(),
            lines(&["the cat and the dog", "the end"]),
        );
        assert_eq!(out[0].as_str().unwrap(), "the\t3");
    }

    #[test]
    fn rle_roundtrip() {
        let input = lines(&["x", "x", "x", "y", "x"]);
        let (encoded, _) = apply_offline(&mut RleEncode::new(), input.clone());
        assert_eq!(encoded.len(), 3);
        assert_eq!(encoded[0].field("count").unwrap().as_int().unwrap(), 3);
        let (decoded, _) = apply_offline(&mut RleDecode::new(), encoded);
        assert_eq!(decoded, input);
    }

    #[test]
    fn rle_decode_passes_non_runs() {
        let (out, _) = apply_offline(&mut RleDecode::new(), lines(&["plain"]));
        assert_eq!(out, lines(&["plain"]));
    }
}
