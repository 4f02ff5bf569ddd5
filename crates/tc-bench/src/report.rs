//! Table and series printers for experiment output, plus the JSON
//! telemetry report CI archives per PR.
//!
//! Every experiment binary prints the same rows/series the paper reports,
//! as GitHub-flavoured markdown tables so the output can be pasted straight
//! into EXPERIMENTS.md. Binaries that accept `--json <path>` additionally
//! emit a machine-readable [`JsonReport`] (the `BENCH_pr.json` artifact),
//! so the perf trajectory accumulates one datapoint per PR.

use tc_util::json::JsonValue;

/// A fixed-schema table accumulated row by row.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a markdown table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n### {}\n\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<width$} |", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A flat machine-readable metrics report, serialised as JSON by hand —
/// the workspace has no serde, and the schema is three fields deep.
///
/// ```json
/// {
///   "schema": "tc-bench/v1",
///   "bench": "storage",
///   "metrics": [
///     {"group": "BK", "metric": "tree_seg_open_secs", "value": 0.0012},
///     …
///   ]
/// }
/// ```
#[derive(Debug, Clone)]
pub struct JsonReport {
    bench: String,
    metrics: Vec<(String, String, f64)>,
}

/// Escapes a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl JsonReport {
    /// A new report for the benchmark called `bench`.
    pub fn new(bench: impl Into<String>) -> Self {
        JsonReport {
            bench: bench.into(),
            metrics: Vec::new(),
        }
    }

    /// Records one datapoint: `group` scopes the metric (e.g. a dataset
    /// name), `metric` names it, `value` is its measurement.
    pub fn push(&mut self, group: impl Into<String>, metric: impl Into<String>, value: f64) {
        self.metrics.push((group.into(), metric.into(), value));
    }

    /// Number of datapoints recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no datapoints were recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the report as a JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"tc-bench/v1\",\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(&self.bench)));
        out.push_str("  \"metrics\": [\n");
        for (i, (group, metric, value)) in self.metrics.iter().enumerate() {
            // Non-finite floats are not valid JSON numbers.
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            out.push_str(&format!(
                "    {{\"group\": \"{}\", \"metric\": \"{}\", \"value\": {}}}{}\n",
                json_escape(group),
                json_escape(metric),
                value,
                if i + 1 < self.metrics.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the rendered report to `path`.
    pub fn write_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// The benchmark name this report was recorded under.
    pub fn bench(&self) -> &str {
        &self.bench
    }

    /// The recorded datapoints as `(group, metric, value)` rows.
    pub fn metrics(&self) -> &[(String, String, f64)] {
        &self.metrics
    }

    /// Parses a rendered `tc-bench/v1` report (the inverse of
    /// [`JsonReport::render`]); `null` values come back as NaN.
    pub fn parse(text: &str) -> Result<JsonReport, String> {
        let doc = tc_util::json::parse(text)?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some("tc-bench/v1") => {}
            other => return Err(format!("unsupported schema {other:?}")),
        }
        let bench = doc
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing 'bench' field")?
            .to_string();
        let rows = doc
            .get("metrics")
            .and_then(JsonValue::as_arr)
            .ok_or("missing 'metrics' array")?;
        let mut metrics = Vec::with_capacity(rows.len());
        for row in rows {
            let field = |key: &str| {
                row.get(key)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("metric row missing '{key}'"))
            };
            let value = row
                .get("value")
                .and_then(JsonValue::as_num)
                .ok_or("metric row missing numeric 'value'")?;
            metrics.push((field("group")?, field("metric")?, value));
        }
        Ok(JsonReport { bench, metrics })
    }

    /// Loads and parses a report file.
    pub fn load_from_path(path: &std::path::Path) -> Result<JsonReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Formats seconds with adaptive precision (`1.23 s`, `45.6 ms`, `789 µs`).
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.2} µs", secs * 1e6)
    } else {
        format!("{:.0} ns", secs * 1e9)
    }
}

/// Formats a count with thousands separators (`1,234,567`).
pub fn fmt_count(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a float with 4 significant digits.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.001 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("### Demo"));
        assert!(r.contains("| a"));
        assert!(r.contains("| 1"));
        assert!(r.contains("|---"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn json_report_renders_valid_structure() {
        let mut r = JsonReport::new("storage");
        r.push("BK", "tree_seg_open_secs", 0.0012);
        r.push("BK", "weird \"name\"", f64::NAN);
        let json = r.render();
        assert!(json.contains("\"schema\": \"tc-bench/v1\""));
        assert!(json.contains("\"bench\": \"storage\""));
        assert!(json.contains("\"value\": 0.0012"));
        assert!(json.contains("\"value\": null"), "NaN must become null");
        assert!(
            json.contains("weird \\\"name\\\""),
            "quotes must be escaped"
        );
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        // Exactly one comma between the two entries, none trailing.
        assert_eq!(
            json.matches("}},\n").count() + json.matches("},\n").count(),
            1
        );
    }

    #[test]
    fn json_report_writes_file() {
        let mut r = JsonReport::new("smoke");
        r.push("g", "m", 1.5);
        let dir = std::env::temp_dir().join("tc_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pr.json");
        r.write_to_path(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, r.render());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_reader_round_trips_own_report_format() {
        use tc_util::json::parse;
        let mut r = JsonReport::new("storage");
        r.push("BK", "tree_seg_bytes", 4096.0);
        r.push("BK", "warm_qba_secs", 1.5e-5);
        r.push("BK", "nan_metric", f64::NAN);
        let v = parse(&r.render()).unwrap();
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some("tc-bench/v1")
        );
        let metrics = v.get("metrics").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(
            metrics[0].get("metric").and_then(JsonValue::as_str),
            Some("tree_seg_bytes")
        );
        assert_eq!(
            metrics[0].get("value").and_then(JsonValue::as_num),
            Some(4096.0)
        );
        assert!(metrics[2]
            .get("value")
            .and_then(JsonValue::as_num)
            .unwrap()
            .is_nan());
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(0.0000025), "2.50 µs");
        assert_eq!(fmt_secs(0.0000000030), "3 ns");
    }

    #[test]
    fn fmt_count_separators() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }

    #[test]
    fn fmt_f64_styles() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.5), "0.5000");
        assert!(fmt_f64(12345.0).contains('e'));
        assert!(fmt_f64(0.00001).contains('e'));
    }
}
