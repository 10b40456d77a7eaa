//! Table and series reporting: aligned text to stdout, JSON artefacts to
//! `EXPERIMENTS-out/`.

use std::io;

use serde::{Serialize, Value};

/// A JSON object from `(key, value)` pairs, in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Prints `text` and writes it to `<out_dir>/<slug of id>.txt`, with `json`
/// pretty-printed beside it as `.json`.
fn write_artefact(id: &str, text: &str, json: &impl Serialize) -> io::Result<()> {
    println!("{text}");
    let slug = id.to_lowercase().replace(['.', ' '], "_").replace("__", "_");
    let dir = crate::out_dir()?;
    std::fs::write(dir.join(format!("{slug}.txt")), text)?;
    let json = serde_json::to_string_pretty(json).map_err(io::Error::other)?;
    std::fs::write(dir.join(format!("{slug}.json")), json)
}

/// A printable experiment table (one paper table).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table id, e.g. "Tab. III".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout and writes `<out_dir>/<slug>.json` + `.txt`.
    ///
    /// # Errors
    /// The output directory cannot be created or a file cannot be written.
    pub fn emit(&self) -> io::Result<()> {
        write_artefact(&self.id, &self.render(), self)
    }
}

impl Serialize for Table {
    fn to_value(&self) -> Value {
        object([
            ("id", self.id.to_value()),
            ("title", self.title.to_value()),
            ("headers", self.headers.to_value()),
            ("rows", self.rows.to_value()),
        ])
    }
}

/// One curve of a figure: named `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (e.g. "MUST", "MR--").
    pub label: String,
    /// Points as `(x, y)` pairs.
    pub points: Vec<(f64, f64)>,
}

impl Serialize for Series {
    fn to_value(&self) -> Value {
        object([("label", self.label.to_value()), ("points", self.points.to_value())])
    }
}

/// A figure: several series over named axes.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id, e.g. "Fig. 6a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    #[must_use]
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds one curve.
    pub fn push_series(&mut self, label: &str, points: Vec<(f64, f64)>) {
        self.series.push(Series { label: label.into(), points });
    }

    /// Renders a text form: one block per series.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {}: {} ==  [x = {}, y = {}]\n",
            self.id, self.title, self.x_label, self.y_label
        );
        for s in &self.series {
            out.push_str(&format!("-- {}\n", s.label));
            for (x, y) in &s.points {
                out.push_str(&format!("   {x:>12.4}  {y:>14.4}\n"));
            }
        }
        out
    }

    /// Prints to stdout and writes artefacts.
    ///
    /// # Errors
    /// The output directory cannot be created or a file cannot be written.
    pub fn emit(&self) -> io::Result<()> {
        write_artefact(&self.id, &self.render(), self)
    }
}

impl Serialize for Figure {
    fn to_value(&self) -> Value {
        object([
            ("id", self.id.to_value()),
            ("title", self.title.to_value()),
            ("x_label", self.x_label.to_value()),
            ("y_label", self.y_label.to_value()),
            ("series", self.series.to_value()),
        ])
    }
}

/// What an experiment returns: the tables and figures it regenerates, as
/// values a caller can inspect before (or instead of) emitting them.
#[derive(Debug, Clone)]
pub enum Artefact {
    /// A paper table.
    Table(Table),
    /// A paper figure.
    Figure(Figure),
}

impl Artefact {
    /// Prints to stdout and writes the `.txt` + `.json` pair.
    ///
    /// # Errors
    /// As [`Table::emit`] / [`Figure::emit`].
    pub fn emit(&self) -> io::Result<()> {
        match self {
            Self::Table(table) => table.emit(),
            Self::Figure(figure) => figure.emit(),
        }
    }
}

/// Formats a float with 4 decimals (the paper's table precision).
#[must_use]
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// The `p`-th percentile of an **ascending-sorted** latency sample, in
/// milliseconds, by the **ceiling-rank** rule: the smallest sample whose
/// cumulative share is `>= p%` — index `ceil(p/100 * n) - 1`.  Rounding
/// the rank to *nearest* instead (the classic off-by-one) can select the
/// sample *below* the true rank on small `n` — e.g. p99 of 101 samples
/// picking index 99, silently under-reporting the tail — and a tail gate
/// fed by an optimistic p99 never fires.
#[must_use]
pub fn percentile_ms(sorted_secs: &[f64], p: f64) -> f64 {
    if sorted_secs.is_empty() {
        return 0.0;
    }
    let n = sorted_secs.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted_secs[rank.clamp(1, n) - 1] * 1e3
}

/// Formats seconds with 1 decimal.
#[must_use]
pub fn s1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Tab. T", "test", &["name", "value"]);
        t.push_row(vec!["a".into(), "1.0".into()]);
        t.push_row(vec!["longer-name".into(), "2.0".into()]);
        let r = t.render();
        assert!(r.contains("Tab. T"));
        assert!(r.contains("longer-name"));
        assert!(r.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_misshaped_rows() {
        let mut t = Table::new("T", "t", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn percentile_uses_ceiling_rank_on_small_samples() {
        // Samples 1s..=n s, already ascending — whole-number seconds keep
        // the ×1e3 ms conversion exact, so assert_eq! on f64 is safe.
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // n=1: every percentile is the only sample.
        assert_eq!(percentile_ms(&sample(1), 50.0), 1000.0);
        assert_eq!(percentile_ms(&sample(1), 99.0), 1000.0);
        // n=2: p50 is the first sample (ceil(1.0)=1), p99 the second.
        assert_eq!(percentile_ms(&sample(2), 50.0), 1000.0);
        assert_eq!(percentile_ms(&sample(2), 99.0), 2000.0);
        // n=10: p99 must be the maximum (ceil(9.9)=10), where nearest-rank
        // over n-1 would have picked index 9 too — but p90 shows the
        // boundary: ceil(9.0)=9 → the 9th sample.
        assert_eq!(percentile_ms(&sample(10), 99.0), 10_000.0);
        assert_eq!(percentile_ms(&sample(10), 90.0), 9000.0);
        // n=100: p99 is the 99th sample, p100 the maximum.
        assert_eq!(percentile_ms(&sample(100), 99.0), 99_000.0);
        assert_eq!(percentile_ms(&sample(100), 100.0), 100_000.0);
        // n=101: ceil(99.99) = 100 → the 100th sample.
        assert_eq!(percentile_ms(&sample(101), 99.0), 100_000.0);
        // n=67 is where the old `round(p/100 * (n-1))` rule under-reported:
        // round(0.99 * 66) = 65 picked the 66th sample, one *below* the
        // true rank ceil(0.99 * 67) = 67 — the tail sample a p99 gate
        // exists to see.
        assert_eq!(percentile_ms(&sample(67), 99.0), 67_000.0);
        // Empty samples report zero rather than panicking.
        assert_eq!(percentile_ms(&[], 99.0), 0.0);
    }

    /// The hand-written `to_value` impls keep the field order and nesting
    /// the derive produced: both literals are the parent commit's output.
    #[test]
    fn json_matches_the_derived_layout() {
        let mut t = Table::new("Tab. T", "a \"quoted\" title", &["name", "value"]);
        t.push_row(vec!["a".into(), "-27.7%".into()]);
        assert_eq!(
            serde_json::to_string_pretty(&t).unwrap(),
            r#"{
  "id": "Tab. T",
  "title": "a \"quoted\" title",
  "headers": [
    "name",
    "value"
  ],
  "rows": [
    [
      "a",
      "-27.7%"
    ]
  ]
}"#
        );
        let mut f = Figure::new("Fig. F", "test", "x", "y");
        f.push_series("MUST", vec![(100.0, 10.25)]);
        f.push_series("empty", vec![]);
        assert_eq!(
            serde_json::to_string_pretty(&f).unwrap(),
            r#"{
  "id": "Fig. F",
  "title": "test",
  "x_label": "x",
  "y_label": "y",
  "series": [
    {
      "label": "MUST",
      "points": [
        [
          100,
          10.25
        ]
      ]
    },
    {
      "label": "empty",
      "points": []
    }
  ]
}"#
        );
    }

    #[test]
    fn figure_renders_series() {
        let mut f = Figure::new("Fig. F", "test", "x", "y");
        f.push_series("MUST", vec![(0.5, 100.0), (0.9, 10.0)]);
        let r = f.render();
        assert!(r.contains("MUST"));
        assert!(r.contains("0.5"));
    }
}
