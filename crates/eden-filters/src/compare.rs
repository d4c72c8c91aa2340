//! A file-comparison filter — §5's other multi-input example: "examples of
//! programs with multiple inputs include file comparison programs."
//!
//! [`Compare`] consumes the tuples produced by the read-only discipline's
//! `FanInMode::Zip` (each record is `Value::List([left, right])`) and
//! emits a diff line for every mismatching pair, plus a summary at flush.
//! This is exactly the shape fan-in takes in the paper: the comparator
//! holds *two* input UIDs and actively reads both.

use eden_core::Value;
use eden_transput::{Emitter, Transform};

/// Compares paired records from two zipped inputs.
#[derive(Default, Debug)]
pub struct Compare {
    row: u64,
    differences: u64,
}

impl Compare {
    /// A fresh comparator.
    pub fn new() -> Compare {
        Compare::default()
    }

    fn render(v: &Value) -> String {
        match v {
            Value::Str(s) => s.to_string_owned(),
            other => format!("{other:?}"),
        }
    }
}

impl Transform for Compare {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        self.row += 1;
        let pair = match item.as_list() {
            Ok([left, right]) => Some((left.clone(), right.clone())),
            _ => None,
        };
        match pair {
            Some((left, right)) => {
                if left != right {
                    self.differences += 1;
                    out.emit(Value::str(format!(
                        "{}c{}\n< {}\n> {}",
                        self.row,
                        self.row,
                        Self::render(&left),
                        Self::render(&right)
                    )));
                }
            }
            None => {
                self.differences += 1;
                out.emit(Value::str(format!(
                    "{}?: unpaired record {}",
                    self.row,
                    Self::render(&item)
                )));
            }
        }
    }
    fn flush(&mut self, out: &mut Emitter) {
        out.emit(Value::str(if self.differences == 0 {
            format!("identical ({} rows)", self.row)
        } else {
            format!("{} difference(s) in {} rows", self.differences, self.row)
        }));
    }
    fn name(&self) -> &'static str {
        "compare"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_transput::transform::apply_offline;

    fn pair(a: &str, b: &str) -> Value {
        Value::list(vec![Value::str(a), Value::str(b)])
    }

    #[test]
    fn identical_inputs_report_identical() {
        let (out, _) = apply_offline(&mut Compare::new(), vec![pair("x", "x"), pair("y", "y")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_str().unwrap(), "identical (2 rows)");
    }

    #[test]
    fn differences_are_reported_with_row_numbers() {
        let (out, _) = apply_offline(&mut Compare::new(), vec![pair("a", "a"), pair("b", "B")]);
        assert_eq!(out.len(), 2);
        let diff = out[0].as_str().unwrap();
        assert!(diff.starts_with("2c2"));
        assert!(diff.contains("< b"));
        assert!(diff.contains("> B"));
        assert!(out[1].as_str().unwrap().contains("1 difference(s)"));
    }

    #[test]
    fn unpaired_records_flagged() {
        let (out, _) = apply_offline(&mut Compare::new(), vec![Value::str("loose")]);
        assert!(out[0].as_str().unwrap().contains("unpaired"));
    }
}
