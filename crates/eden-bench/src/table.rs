//! Plain-text tables for the experiment harness.

use std::fmt;

/// A titled table with aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table.
    pub(crate) title: String,
    /// Column headers.
    pub(crate) headers: Vec<String>,
    /// Rows of cells; ragged rows are padded with empty cells.
    pub(crate) rows: Vec<Vec<String>>,
    /// Free-text notes printed after the table.
    pub(crate) notes: Vec<String>,
}

impl Table {
    /// An empty table.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub(crate) fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Append a note.
    pub(crate) fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        fn cell(row: &[String], i: usize) -> &str {
            row.get(i).map(String::as_str).unwrap_or("")
        }
        for (i, w) in widths.iter_mut().enumerate() {
            *w = std::iter::once(cell(&self.headers, i).len())
                .chain(self.rows.iter().map(|r| cell(r, i).len()))
                .max()
                .unwrap_or(0);
        }
        writeln!(f, "## {}", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, w) in widths.iter().enumerate() {
                write!(f, " {:<w$} |", cell(row, i), w = w)?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(["1", "short"]);
        t.row(["1000", "x"]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| n    | value |"));
        assert!(s.contains("| 1000 | x     |"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    fn ragged_rows_pad() {
        let mut t = Table::new("r", &["a", "b", "c"]);
        t.row(["only"]);
        let s = t.to_string();
        assert!(s.lines().count() >= 3);
    }
}
