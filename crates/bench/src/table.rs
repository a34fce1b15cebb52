//! A minimal Markdown table formatter used by the experiment binaries.

use std::fmt::Write as _;

/// A simple Markdown table: a header row plus data rows, rendered with
/// `to_markdown`.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header length.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match the header");
        self.rows.push(row);
    }

    /// The number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavoured Markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (cell, width) in cells.iter().zip(widths) {
                let _ = write!(out, " {cell:<width$} |");
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        out.push('|');
        for width in &widths {
            let _ = write!(out, "{}|", "-".repeat(width + 2));
        }
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new(vec!["w", "depth"]);
        t.push_row(vec!["8", "6"]);
        t.push_row(vec!["16", "10"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| w "));
        assert!(md.contains("| 16"));
        assert_eq!(md.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only one"]);
    }
}
