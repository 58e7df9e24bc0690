//! Plain-text table rendering and JSON persistence for experiment results.

use serde::Serialize;
use std::path::Path;

/// A rendered results table: a title, column headers and string rows.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table caption (matches the paper's figure/table caption).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.columns, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }
}

/// Render any serializable result as pretty-printed JSON with a trailing
/// newline: the bytes [`write_json`] writes.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable results") + "\n"
}

/// Write any serializable result to a JSON file (pretty-printed), creating
/// parent directories as needed.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_json(value))
}

/// `map_err` adapter for an output that could not be written: the error
/// reads `cannot write <path>: <reason>`, which the driver prints before
/// exiting 1.
pub fn cannot_write(path: &Path) -> impl FnOnce(std::io::Error) -> String + '_ {
    move |e| format!("cannot write {}: {e}", path.display())
}

/// Format a float with 4 significant decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["a", "bbbb"]);
        t.push_row(vec!["123".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("T\n"));
        assert!(r.contains("  a  bbbb"));
        assert!(r.contains("123     4"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("wormcast-test-report");
        let p = dir.join("x.json");
        write_json(&p, &vec![1, 2, 3]).unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.contains("1,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn float_formats() {
        assert_eq!(f4(0.25395), "0.2540");
        assert_eq!(f2(65.412), "65.41");
    }
}
