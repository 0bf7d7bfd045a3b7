//! Tabular figure data and CSV emission.

use std::fmt::Write as _;

/// One data point of a figure: a named series, an x label and a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Series name (e.g. "Atom/WC" or "Xeon EDP").
    pub series: String,
    /// X coordinate label (e.g. "256MB@1.6GHz" or "10GB").
    pub x: String,
    /// Measured value.
    pub value: f64,
}

/// A figure or table as an ordered list of rows, ready for CSV.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FigureData {
    /// Identifier ("fig3", "table3", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column label of `value`.
    pub value_label: String,
    /// The data.
    pub rows: Vec<Row>,
}

impl FigureData {
    /// Creates an empty figure.
    pub fn new(id: &str, title: &str, value_label: &str) -> Self {
        FigureData {
            id: id.to_string(),
            title: title.to_string(),
            value_label: value_label.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, series: impl Into<String>, x: impl Into<String>, value: f64) {
        self.rows.push(Row {
            series: series.into(),
            x: x.into(),
            value,
        });
    }

    /// All rows of one series, in insertion order.
    pub fn series(&self, name: &str) -> Vec<&Row> {
        self.rows.iter().filter(|r| r.series == name).collect()
    }

    /// Value at (series, x), if present.
    pub fn value(&self, series: &str, x: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.series == series && r.x == x)
            .map(|r| r.value)
    }

    /// Renders as CSV (`series,x,value` with a header), every row written
    /// in place into the one buffer.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "series,x,{}", self.value_label);
        for r in &self.rows {
            let _ = writeln!(out, "{},{},{:.6}", r.series, r.x, r.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut f = FigureData::new("figX", "test", "seconds");
        f.push("Atom", "32MB", 10.0);
        f.push("Atom", "64MB", 8.0);
        f.push("Xeon", "32MB", 5.0);
        assert_eq!(f.series("Atom").len(), 2);
        assert_eq!(f.value("Xeon", "32MB"), Some(5.0));
        assert_eq!(f.value("Xeon", "64MB"), None);
    }

    #[test]
    fn csv_shape() {
        let mut f = FigureData::new("fig1", "IPC", "ipc");
        f.push("Xeon", "SPEC", 1.5);
        let csv = f.to_csv();
        assert!(csv.starts_with("# fig1"));
        assert!(csv.contains("series,x,ipc"));
        assert!(csv.contains("Xeon,SPEC,1.5"));
        assert_eq!(csv.lines().count(), 3);
    }
}
