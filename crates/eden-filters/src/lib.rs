//! The filter library: the "large number of utilities" of §3, written as
//! pure [`Transform`]s so each can be mounted in any of the three
//! communication disciplines.
//!
//! | module | filters | paper hook |
//! |---|---|---|
//! | [`text`] | strip-comments, grep, line-number, case-fold, expand-tabs, head, tail, squeeze-blank | §3's Fortran comment stripper and pattern deleter |
//! | [`aggregate`] | wc, sort, uniq, word-frequency, RLE encode/decode | "text formatters ... spelling checkers" as flush-time filters |
//! | [`paginate`] | paginator | §4's printer/paginator example |
//! | [`report`] | spell-check, progress, tee | §5's report streams (Figures 3–4) |
//! | [`editor`] | sed-subset stream editor | §5's multi-input stream editor |
//! | [`compare`] | pairwise comparator | §5's file comparison program |
//! | [`pattern`] | glob matcher | the pattern arguments of §3 |
//!
//! [`Transform`]: eden_transput::Transform


pub mod aggregate;
pub mod compare;
pub mod editor;
pub mod paginate;
pub mod pattern;
pub mod records;
pub mod report;
pub mod text;

pub use aggregate::{RleDecode, RleEncode, SortLines, Uniq, WordCount, WordFrequency};
pub use compare::Compare;
pub use editor::{Command, StreamEditor};
pub use paginate::{Paginator, FORM_FEED};
pub use pattern::Pattern;
pub use records::{FieldCmp, GroupAggregate, RenderRecords, SelectFields, WhereField};
pub use report::{ProgressReporter, SpellCheck, Tee, COPY_NAME};
pub use text::{CaseFold, ExpandTabs, Grep, Head, LineNumber, SqueezeBlank, StripComments, Tail};

use eden_core::{EdenError, Result};
use eden_transput::Transform;

/// Construct a filter by name with string arguments — the registry the
/// shell uses. Returns the boxed transform.
///
/// Supported names: `copy`, `strip-comments [prefix]`, `grep PATTERN`,
/// `grep -v PATTERN`, `line-number`, `upcase`, `downcase`,
/// `expand-tabs [WIDTH]`, `head N`, `tail N`, `squeeze-blank`, `wc`,
/// `sort`, `uniq`, `word-frequency`, `rle-encode`, `rle-decode`,
/// `paginate TITLE LINES`, `spell-check WORD...`, `progress LABEL EVERY`,
/// `tee`, `sed CMD...`, `compare`.
pub fn make_filter(name: &str, args: &[&str]) -> Result<Box<dyn Transform>> {
    let bad = |msg: &str| EdenError::BadParameter(format!("{name}: {msg}"));
    let int_arg = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| bad(&format!("expected a number, got `{s}`")))
    };
    Ok(match (name, args) {
        ("copy", []) => Box::new(eden_transput::transform::Identity),
        ("strip-comments", []) => Box::new(StripComments::fortran()),
        ("strip-comments", [prefix]) => Box::new(StripComments::new(*prefix)),
        ("grep", [pattern]) => Box::new(Grep::matching(pattern)),
        ("grep", ["-v", pattern]) => Box::new(Grep::deleting(pattern)),
        ("line-number", []) => Box::new(LineNumber::new()),
        ("upcase", []) => Box::new(CaseFold::upper()),
        ("downcase", []) => Box::new(CaseFold::lower()),
        ("expand-tabs", []) => Box::new(ExpandTabs::new(8)),
        ("expand-tabs", [w]) => Box::new(ExpandTabs::new(int_arg(w)? as usize)),
        ("head", [n]) => Box::new(Head::new(int_arg(n)?)),
        ("tail", [n]) => Box::new(Tail::new(int_arg(n)? as usize)),
        ("squeeze-blank", []) => Box::new(SqueezeBlank),
        ("wc", []) => Box::new(WordCount::new()),
        ("sort", []) => Box::new(SortLines::new()),
        ("uniq", []) => Box::new(Uniq::new()),
        ("word-frequency", []) => Box::new(WordFrequency::new()),
        ("rle-encode", []) => Box::new(RleEncode::new()),
        ("rle-decode", []) => Box::new(RleDecode::new()),
        ("paginate", [title, lines]) => {
            Box::new(Paginator::new(*title, int_arg(lines)? as usize))
        }
        ("spell-check", words) if !words.is_empty() => Box::new(SpellCheck::new(words)),
        ("progress", [label, every]) => Box::new(ProgressReporter::new(*label, int_arg(every)?)),
        ("tee", []) => Box::new(Tee),
        ("sed", cmds) if !cmds.is_empty() => {
            Box::new(StreamEditor::from_command_lines(cmds.iter().copied())?)
        }
        ("compare", []) => Box::new(Compare::new()),
        ("select", fields) if !fields.is_empty() => {
            Box::new(SelectFields::new(fields.iter().copied()))
        }
        ("where", [clause]) => Box::new(parse_where(clause)?),
        ("group-by", [key]) => Box::new(GroupAggregate::new(*key, None)),
        ("group-by", [key, sum]) => Box::new(GroupAggregate::new(*key, Some(sum))),
        ("render-records", []) => Box::new(RenderRecords),
        _ => {
            return Err(EdenError::BadParameter(format!(
                "unknown filter `{name}` (or wrong arguments {args:?})"
            )))
        }
    })
}

/// Parse a `where` clause: `FIELD=VALUE`, `FIELD!=VALUE`, `FIELD<N`,
/// `FIELD>N`. Values parsing as integers compare numerically.
fn parse_where(clause: &str) -> Result<WhereField> {
    let (field, cmp, raw) = if let Some((f, v)) = clause.split_once("!=") {
        (f, FieldCmp::Ne, v)
    } else if let Some((f, v)) = clause.split_once('=') {
        (f, FieldCmp::Eq, v)
    } else if let Some((f, v)) = clause.split_once('<') {
        (f, FieldCmp::Lt, v)
    } else if let Some((f, v)) = clause.split_once('>') {
        (f, FieldCmp::Gt, v)
    } else {
        return Err(EdenError::BadParameter(format!(
            "where: expected FIELD[=|!=|<|>]VALUE, got `{clause}`"
        )));
    };
    if field.is_empty() {
        return Err(EdenError::BadParameter("where: empty field name".into()));
    }
    let literal = match raw.parse::<i64>() {
        Ok(i) => eden_core::Value::Int(i),
        Err(_) => eden_core::Value::str(raw),
    };
    Ok(WhereField::new(field, cmp, literal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn where_clause_parsing() {
        assert!(make_filter("where", &["dept=eng"]).is_ok());
        assert!(make_filter("where", &["salary>100"]).is_ok());
        assert!(make_filter("where", &["salary<100"]).is_ok());
        assert!(make_filter("where", &["dept!=eng"]).is_ok());
        assert!(make_filter("where", &["nonsense"]).is_err());
        assert!(make_filter("where", &["=e"]).is_err());
        assert!(make_filter("select", &["a", "b"]).is_ok());
        assert!(make_filter("group-by", &["dept", "salary"]).is_ok());
        assert!(make_filter("render-records", &[]).is_ok());
    }

    #[test]
    fn registry_builds_known_filters() {
        for (name, args) in [
            ("copy", vec![]),
            ("strip-comments", vec![]),
            ("grep", vec!["pat"]),
            ("grep", vec!["-v", "pat"]),
            ("line-number", vec![]),
            ("upcase", vec![]),
            ("head", vec!["3"]),
            ("tail", vec!["3"]),
            ("wc", vec![]),
            ("sort", vec![]),
            ("uniq", vec![]),
            ("paginate", vec!["t", "10"]),
            ("spell-check", vec!["word"]),
            ("progress", vec!["x", "5"]),
            ("tee", vec![]),
            ("sed", vec!["s/a/b/"]),
            ("compare", vec![]),
        ] {
            assert!(
                make_filter(name, &args).is_ok(),
                "failed to build {name} {args:?}"
            );
        }
    }

    #[test]
    fn registry_rejects_unknown_and_malformed() {
        assert!(make_filter("bogus", &[]).is_err());
        assert!(make_filter("grep", &[]).is_err());
        assert!(make_filter("head", &["NaN"]).is_err());
        assert!(make_filter("sed", &["not-a-command"]).is_err());
    }
}
