//! Plain-text series output for the figure regeneration binaries.

/// A simple column-oriented results table rendered as markdown or CSV — the
/// textual equivalent of one paper figure (each row a data point, each
/// column a series).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV (no quoting; callers must not embed commas).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_render() {
        let mut t = Table::new(vec!["N", "MRIS"]);
        t.push_row(vec!["1000", "1.25"]);
        let md = t.to_markdown();
        assert!(md.contains("|    N | MRIS |"));
        assert!(md.contains("| 1000 | 1.25 |"));
    }

    #[test]
    fn csv_render() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1", "2"]);
        t.push_row(vec!["3", "4"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a"]);
        t.push_row(vec!["1", "2"]);
    }
}
