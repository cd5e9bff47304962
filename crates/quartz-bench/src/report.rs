//! Plain-text tables, CSV, and JSON-row output for the experiment
//! results.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use quartz::json::Json;

/// A simple column-aligned results table that can also be saved as CSV.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience for building rows from display values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column names.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The filesystem slug derived from the title (CSV/JSON base name).
    pub fn slug(&self) -> String {
        self.title
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect()
    }

    /// The table as a JSON object: `{"title", "header", "rows"}` where
    /// each row is an object keyed by column name — the machine-readable
    /// twin of the CSV, embedded in the per-experiment row file.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(
                    self.header
                        .iter()
                        .zip(row)
                        .map(|(h, c)| (h.clone(), Json::str(c.clone())))
                        .collect(),
                )
            })
            .collect();
        Json::obj(vec![
            ("title", Json::str(self.title.clone())),
            (
                "header",
                Json::Arr(self.header.iter().map(|h| Json::str(h.clone())).collect()),
            ),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Writes the table as CSV under `dir`, named from the title.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_csv(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.slug()));
        let mut csv = String::new();
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            csv,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                csv,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        fs::write(&path, csv)?;
        Ok(path)
    }
}

/// Formats a float with the given number of decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let out = t.render();
        assert!(out.contains("## Demo"));
        assert!(out.contains("long-name"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("quartz_bench_test_csv");
        let mut t = Table::new("CSV, Test", &["a", "b"]);
        t.row(&["1".into(), "x,y".into()]);
        let path = t.save_csv(&dir).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.starts_with("a,b\n"));
        assert!(body.contains("\"x,y\""));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn accessors_and_slug() {
        let mut t = Table::new("Fig 9, demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.title(), "Fig 9, demo");
        assert_eq!(t.header(), ["a", "b"]);
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.slug(), "fig_9__demo");
    }

    #[test]
    fn json_rows_keyed_by_header() {
        let mut t = Table::new("J", &["x", "y"]);
        t.row(&["1".into(), "two".into()]);
        assert_eq!(
            t.to_json().render(),
            "{\"title\":\"J\",\"header\":[\"x\",\"y\"],\"rows\":[{\"x\":\"1\",\"y\":\"two\"}]}"
        );
    }
}
