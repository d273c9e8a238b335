//! Plain-text reporting helpers.
//!
//! The benches and examples print the reproduced tables/figures as aligned text
//! tables, using these helpers so that all output looks consistent.

/// An aligned, plain-text table.
///
/// # Example
///
/// ```
/// use sigma_metrics::report::TextTable;
///
/// let mut t = TextTable::new(vec!["scheme", "EDR"]);
/// t.add_row(vec!["sigma".to_string(), "0.93".to_string()]);
/// t.add_row(vec!["stateless".to_string(), "0.61".to_string()]);
/// let rendered = t.render();
/// assert!(rendered.contains("sigma"));
/// assert!(rendered.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        TextTable {
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long rows are allowed
    /// (extra cells get their own width).
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(|s| s.as_str()).unwrap_or("");
                line.push_str(&format!("{:<width$}", cell, width = width));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };

        let mut out = String::new();
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a byte count with a binary-unit suffix (e.g. `"1.5 MiB"`).
///
/// # Example
///
/// ```
/// use sigma_metrics::report::human_bytes;
/// assert_eq!(human_bytes(512), "512 B");
/// assert_eq!(human_bytes(1536 * 1024), "1.50 MiB");
/// ```
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0usize;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{} B", bytes)
    } else {
        format!("{:.2} {}", value, UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_padding() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.add_row(vec!["a-long-name".to_string(), "1".to_string()]);
        t.add_row(vec!["b".to_string()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn table_handles_rows_wider_than_header() {
        let mut t = TextTable::new(vec!["only"]);
        t.add_row(vec!["a".to_string(), "extra".to_string()]);
        let r = t.render();
        assert!(r.contains("extra"));
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(1023), "1023 B");
        assert_eq!(human_bytes(1024), "1.00 KiB");
        assert_eq!(human_bytes(5 * 1024 * 1024 * 1024), "5.00 GiB");
    }
}
