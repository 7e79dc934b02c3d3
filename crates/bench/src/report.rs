//! Tabular experiment reports.

use rnn_obs::bench_report_json;
use std::fmt;

/// One reproduced table or figure: a header row plus one labelled row per
/// x-axis value, with one numeric column per series (algorithm/metric).
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Experiment identifier (e.g. "Table 1", "Fig 15").
    pub id: String,
    /// Human readable title with the fixed parameters.
    pub title: String,
    /// Name of the x-axis (first column).
    pub x_label: String,
    /// Names of the numeric columns.
    pub columns: Vec<String>,
    /// Rows: x-axis label plus one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Report {
    /// Creates an empty report.
    pub(crate) fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of values must match the number of columns.
    pub(crate) fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        debug_assert_eq!(values.len(), self.columns.len());
        self.rows.push((label.into(), values));
    }

    /// Renders the report as machine-readable JSON — the format of the
    /// committed `BENCH_*.json` files, written by `rnn-obs`'s one
    /// `rnn-bench-report/v1` writer. Non-finite values serialize as `null`
    /// (JSON has no NaN/Inf).
    pub fn to_json(&self) -> String {
        bench_report_json(&self.id, &self.title, &self.x_label, &self.columns, &self.rows)
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        write!(f, "{:>18}", self.x_label)?;
        for c in &self.columns {
            write!(f, "{c:>16}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:>18}")?;
            for v in values {
                write!(f, "{:>16}", format_value(*v))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_builds_and_renders() {
        let mut r = Report::new("Fig X", "test", "D", vec!["eager".into(), "lazy".into()]);
        r.push_row("0.01", vec![1.5, 1234.0]);
        r.push_row("0.1", vec![0.25, 0.0]);

        let text = r.to_string();
        assert!(text.contains("Fig X"));
        assert!(text.contains("eager"));
        assert!(text.contains("1234"));
        assert!(text.contains("1.50") && text.contains("0.2500"), "magnitude-scaled precision");
    }

    #[test]
    fn json_rendering_is_well_formed_and_guards_non_finite() {
        let mut r = Report::new(
            "paging",
            "a \"quoted\" title",
            "policy",
            vec!["faults".into(), "hit rate".into()],
        );
        r.push_row("lru", vec![123.25, f64::NAN]);
        r.push_row("2q", vec![0.5, f64::INFINITY]);
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"rnn-bench-report/v1\""));
        assert!(json.contains("\"title\": \"a \\\"quoted\\\" title\""), "quotes escaped");
        assert!(json.contains("\"columns\": [\"faults\", \"hit rate\"]"));
        assert!(json.contains("{\"label\": \"lru\", \"values\": [123.25, null]}"));
        assert!(json.contains("{\"label\": \"2q\", \"values\": [0.5, null]}"));
        // Structurally balanced (cheap well-formedness check without a
        // parser dependency).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.ends_with("}\n"));
    }
}
