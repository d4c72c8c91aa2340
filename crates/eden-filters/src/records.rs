//! Record-stream filters (§6).
//!
//! "Nothing I have said about Eden transput constrains Eden streams to be
//! streams of bytes. Streams of arbitrary records fit into the protocol
//! just as well, provided only that they are homogeneous." These filters
//! operate on `Value::Record` streams: projection, selection and
//! aggregation — a miniature query pipeline over the same transput
//! machinery that carries text.

use std::collections::BTreeMap;

use eden_core::Value;
use eden_transput::{Emitter, Transform};

/// Project each record onto a subset of its fields, in the given order.
/// Records missing a requested field get `Unit` there; non-records pass
/// through untouched.
#[derive(Debug)]
pub struct SelectFields {
    fields: Vec<String>,
}

impl SelectFields {
    /// Keep only `fields`.
    pub fn new<I, S>(fields: I) -> SelectFields
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SelectFields {
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }
}

impl Transform for SelectFields {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if !matches!(item, Value::Record(_)) {
            out.emit(item);
            return;
        }
        let projected = self
            .fields
            .iter()
            .map(|name| {
                (
                    name.clone(),
                    item.field_opt(name).cloned().unwrap_or(Value::Unit),
                )
            })
            .collect::<Vec<_>>();
        out.emit(Value::record(projected));
    }
    fn name(&self) -> &'static str {
        "select-fields"
    }
}

/// The comparisons [`WhereField`] supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldCmp {
    /// Field equals the literal.
    Eq,
    /// Field differs from the literal.
    Ne,
    /// Field is an integer less than the literal.
    Lt,
    /// Field is an integer greater than the literal.
    Gt,
}

/// Keep records whose named field compares against a literal.
/// Records lacking the field (and non-records) are dropped.
#[derive(Debug)]
pub struct WhereField {
    field: String,
    cmp: FieldCmp,
    literal: Value,
}

impl WhereField {
    /// Keep records where `field <cmp> literal`.
    pub fn new(field: impl Into<String>, cmp: FieldCmp, literal: Value) -> WhereField {
        WhereField {
            field: field.into(),
            cmp,
            literal,
        }
    }

    fn matches(&self, item: &Value) -> bool {
        let Some(actual) = item.field_opt(&self.field) else {
            return false;
        };
        match self.cmp {
            FieldCmp::Eq => actual == &self.literal,
            FieldCmp::Ne => actual != &self.literal,
            FieldCmp::Lt => match (actual.as_int(), self.literal.as_int()) {
                (Ok(a), Ok(b)) => a < b,
                _ => false,
            },
            FieldCmp::Gt => match (actual.as_int(), self.literal.as_int()) {
                (Ok(a), Ok(b)) => a > b,
                _ => false,
            },
        }
    }
}

impl Transform for WhereField {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        if self.matches(&item) {
            out.emit(item);
        }
    }
    fn name(&self) -> &'static str {
        "where-field"
    }
}

/// Group records by a string-valued field and emit
/// `Record{key, count, sum}` per group at flush (sum over an optional
/// integer field), sorted by key.
#[derive(Debug)]
pub struct GroupAggregate {
    key_field: String,
    sum_field: Option<String>,
    groups: BTreeMap<String, (i64, i64)>,
}

impl GroupAggregate {
    /// Group by `key_field`, optionally summing `sum_field`.
    pub fn new(key_field: impl Into<String>, sum_field: Option<&str>) -> GroupAggregate {
        GroupAggregate {
            key_field: key_field.into(),
            sum_field: sum_field.map(str::to_owned),
            groups: BTreeMap::new(),
        }
    }
}

impl Transform for GroupAggregate {
    fn push(&mut self, item: Value, _out: &mut Emitter) {
        let Some(key) = item
            .field_opt(&self.key_field)
            .and_then(|k| k.as_str().ok())
        else {
            return;
        };
        let add = self
            .sum_field
            .as_deref()
            .and_then(|f| item.field_opt(f))
            .and_then(|v| v.as_int().ok())
            .unwrap_or(0);
        let entry = self.groups.entry(key.to_owned()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += add;
    }
    fn flush(&mut self, out: &mut Emitter) {
        for (key, (count, sum)) in std::mem::take(&mut self.groups) {
            out.emit(Value::record([
                ("key", Value::str(key)),
                ("count", Value::Int(count)),
                ("sum", Value::Int(sum)),
            ]));
        }
    }
    fn name(&self) -> &'static str {
        "group-aggregate"
    }
}

/// Render records as aligned text lines (for printing record pipelines).
#[derive(Debug)]
pub struct RenderRecords;

impl Transform for RenderRecords {
    fn push(&mut self, item: Value, out: &mut Emitter) {
        match &item {
            Value::Record(fields) => {
                let line = fields
                    .iter()
                    .map(|(k, v)| match v {
                        Value::Str(s) => format!("{k}={s}"),
                        Value::Int(i) => format!("{k}={i}"),
                        other => format!("{k}={other:?}"),
                    })
                    .collect::<Vec<_>>()
                    .join("  ");
                out.emit(Value::str(line));
            }
            _ => out.emit(item),
        }
    }
    fn name(&self) -> &'static str {
        "render-records"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_transput::transform::apply_offline;

    fn employee(name: &str, dept: &str, salary: i64) -> Value {
        Value::record([
            ("name", Value::str(name)),
            ("dept", Value::str(dept)),
            ("salary", Value::Int(salary)),
        ])
    }

    fn staff() -> Vec<Value> {
        vec![
            employee("ada", "eng", 120),
            employee("grace", "eng", 130),
            employee("alan", "research", 110),
        ]
    }

    #[test]
    fn select_projects_in_order() {
        let (out, _) = apply_offline(&mut SelectFields::new(["salary", "name"]), staff());
        match &out[0] {
            Value::Record(fields) => {
                assert_eq!(fields[0].0, "salary");
                assert_eq!(fields[1].0, "name");
                assert_eq!(fields.len(), 2);
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn select_missing_field_is_unit() {
        let (out, _) = apply_offline(&mut SelectFields::new(["ghost"]), staff());
        assert_eq!(out[0].field("ghost").unwrap(), &Value::Unit);
    }

    #[test]
    fn where_filters_by_comparison() {
        let (eng, _) = apply_offline(
            &mut WhereField::new("dept", FieldCmp::Eq, Value::str("eng")),
            staff(),
        );
        assert_eq!(eng.len(), 2);
        let (rich, _) = apply_offline(
            &mut WhereField::new("salary", FieldCmp::Gt, Value::Int(115)),
            staff(),
        );
        assert_eq!(rich.len(), 2);
        let (none, _) = apply_offline(
            &mut WhereField::new("salary", FieldCmp::Lt, Value::Int(100)),
            staff(),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn where_drops_non_records() {
        let (out, _) = apply_offline(
            &mut WhereField::new("x", FieldCmp::Ne, Value::Unit),
            vec![Value::Int(5)],
        );
        assert!(out.is_empty());
    }

    #[test]
    fn group_aggregate_counts_and_sums() {
        let (out, _) = apply_offline(&mut GroupAggregate::new("dept", Some("salary")), staff());
        assert_eq!(out.len(), 2);
        let eng = &out[0];
        assert_eq!(eng.field("key").unwrap().as_str().unwrap(), "eng");
        assert_eq!(eng.field("count").unwrap().as_int().unwrap(), 2);
        assert_eq!(eng.field("sum").unwrap().as_int().unwrap(), 250);
    }

    #[test]
    fn render_makes_lines() {
        let (out, _) = apply_offline(&mut RenderRecords, staff());
        assert_eq!(out[0].as_str().unwrap(), "name=ada  dept=eng  salary=120");
    }
}
