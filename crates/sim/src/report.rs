//! Plain-text report tables, and the stderr writer for diagnostics.
//!
//! The `repro` harness prints each paper table/figure as an aligned text
//! table; this module keeps the formatting in one place.

use std::fmt::Write as _;
use std::io::Write as _;

/// Writes `text` to stderr, ignoring write errors. `eprint!` panics when
/// stderr is closed (`repro table1 2>&1 | head -1`), and a diagnostic
/// line must never change how a run ends.
pub fn note(text: &str) {
    let _ = std::io::stderr().write_all(text.as_bytes());
}

/// A simple column-aligned text table builder.
///
/// # Examples
///
/// ```
/// use aum_sim::report::TextTable;
///
/// let mut t = TextTable::new(["scheme", "efficiency"]);
/// t.row(["ALL-AU", "1.000"]);
/// t.row(["AUM", "1.088"]);
/// let rendered = t.render();
/// assert!(rendered.contains("AUM"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    #[must_use]
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with column alignment and a separator line.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Formats a float with 3 decimal places — the house style for normalized
/// metrics in repro output.
#[must_use]
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float as a percentage with one decimal.
#[must_use]
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["a", "long_header"]);
        t.row(["xxxx", "1"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a   "));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = TextTable::new(["a"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_pct(0.0881), "8.8%");
    }
}
