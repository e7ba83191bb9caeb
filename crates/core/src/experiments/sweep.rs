//! The one table type behind every paper figure and `BENCH_*.json` sweep.
//!
//! A sweep declares its header params and its columns once, on its config
//! type ([`SweepConfig`]); [`Sweep::render`] and [`Sweep::to_json`] derive
//! the console table and the artifact from that one list, so the two cannot
//! drift apart. The JSON layout is the one every committed artifact uses:
//! one param per line, then a `rows` array with one object per line.

use std::fmt;

use crate::experiments::runner::Measurement;

/// One value of a header param or of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// An integer count or size.
    Int(u64),
    /// A float at the artifacts' default precision (six decimals).
    Float(f64),
    /// A float with the given number of decimals.
    Rounded(f64, usize),
    /// A label (quoted in JSON).
    Label(&'static str),
    /// No value (`null` in JSON).
    Null,
    /// Mean ± std over the perturbed seeds: `<key>_mean` and `<key>_std`
    /// in JSON, `mean ±std` in the console table.
    Measurement(Measurement),
}

impl Cell {
    /// `Int(n)` or `Null`.
    #[must_use]
    pub fn int_or_null(value: Option<u64>) -> Self {
        value.map_or(Self::Null, Self::Int)
    }

    /// The cell as the console table shows it.
    fn text(&self) -> String {
        match *self {
            Self::Int(n) => n.to_string(),
            Self::Float(x) => format!("{x:.6}"),
            Self::Rounded(x, decimals) => format!("{x:.decimals$}"),
            Self::Label(s) => s.to_string(),
            Self::Null => "null".to_string(),
            Self::Measurement(m) => m.display(),
        }
    }

    /// The cell as one or two `"key": value` JSON members.
    fn json(&self, key: &str) -> String {
        match self {
            Self::Label(s) => format!("\"{key}\": \"{s}\""),
            Self::Measurement(m) => format!(
                "\"{key}_mean\": {:.6}, \"{key}_std\": {:.6}",
                m.mean, m.std_dev
            ),
            _ => format!("\"{key}\": {}", self.text()),
        }
    }
}

/// One column of a sweep table: JSON key, console label, and the cell it
/// shows for a row.
pub type Column<R> = (&'static str, &'static str, fn(&R) -> Cell);

/// A sweep's table layout, declared on its config type.
pub trait SweepConfig: fmt::Debug + Sized {
    /// One design point of the sweep.
    type Row: 'static;
    /// Heading of the console table.
    const TITLE: &'static str;
    /// The columns, in artifact order.
    const COLUMNS: &'static [Column<Self::Row>];
    /// The header params, in artifact order.
    fn params(sweep: &Sweep<Self>) -> Vec<(&'static str, Cell)>;
}

/// A completed sweep: the config it ran and one row per design point.
#[derive(Debug, Clone)]
pub struct Sweep<C: SweepConfig> {
    /// The configuration the sweep ran.
    pub config: C,
    /// One row per design point, in sweep order.
    pub rows: Vec<C::Row>,
}

impl<C: SweepConfig> Sweep<C> {
    /// The console table: title, params, then the columns under their
    /// labels, each as wide as its widest cell.
    #[must_use]
    pub fn render(&self) -> String {
        let params: Vec<String> = C::params(self)
            .iter()
            .map(|(key, cell)| format!("{key}: {}", cell.text()))
            .collect();
        let mut lines = vec![C::COLUMNS
            .iter()
            .map(|&(_, label, _)| label.to_string())
            .collect::<Vec<_>>()];
        lines.extend(
            self.rows
                .iter()
                .map(|row| C::COLUMNS.iter().map(|col| (col.2)(row).text()).collect()),
        );
        let widths: Vec<usize> = (0..C::COLUMNS.len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!("{}\n{}\n", C::TITLE, params.join(", "));
        for line in lines {
            let padded: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(cell, &w)| format!("{cell:<w$}"))
                .collect();
            out.push_str(padded.join("  ").trim_end());
            out.push('\n');
        }
        out
    }

    /// The `BENCH_*.json` artifact: the header params, then one object per
    /// row.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<Vec<(&str, Cell)>> = self
            .rows
            .iter()
            .map(|row| C::COLUMNS.iter().map(|col| (col.0, (col.2)(row))).collect())
            .collect();
        json_object(&C::params(self), Some(&rows))
    }
}

/// Writes a JSON object with one member per line, followed, when `rows` is
/// given, by a `rows` array with one object per line. This is the only JSON
/// writer of the `BENCH_*.json` artifacts.
#[must_use]
pub fn json_object(params: &[(&str, Cell)], rows: Option<&[Vec<(&str, Cell)>]>) -> String {
    let members_of = |cells: &[(&str, Cell)]| -> Vec<String> {
        cells.iter().map(|(key, cell)| cell.json(key)).collect()
    };
    let mut members: Vec<String> = members_of(params)
        .into_iter()
        .map(|m| format!("  {m}"))
        .collect();
    if let Some(rows) = rows {
        let objects: Vec<String> = rows
            .iter()
            .map(|row| format!("    {{{}}}", members_of(row).join(", ")))
            .collect();
        members.push(format!("  \"rows\": [\n{}  ]", comma_lines(&objects)));
    }
    format!("{{\n{}}}\n", comma_lines(&members))
}

/// `items` one per line, comma-separated.
fn comma_lines(items: &[String]) -> String {
    let mut out = items.join(",\n");
    if !items.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixture sweep with one column per cell kind.
    #[derive(Debug)]
    struct Fixture;

    struct FixtureRow {
        name: &'static str,
        count: u64,
        slots: Option<u64>,
        frac: f64,
        ns: f64,
        latency: f64,
        ops: Measurement,
    }

    impl SweepConfig for Fixture {
        type Row = FixtureRow;
        const TITLE: &'static str = "Fixture sweep";
        const COLUMNS: &'static [Column<FixtureRow>] = &[
            ("name", "name", |r| Cell::Label(r.name)),
            ("count", "count", |r| Cell::Int(r.count)),
            ("slots", "slots/node", |r| Cell::int_or_null(r.slots)),
            ("frac", "frac", |r| Cell::Float(r.frac)),
            ("ns_per_cycle", "ns/cycle", |r| Cell::Rounded(r.ns, 2)),
            ("latency", "latency", |r| Cell::Rounded(r.latency, 1)),
            ("throughput", "ops/kcycle", |r| Cell::Measurement(r.ops)),
        ];
        fn params(sweep: &Sweep<Self>) -> Vec<(&'static str, Cell)> {
            vec![
                ("workload", Cell::Label("oltp")),
                ("rows_run", Cell::Int(sweep.rows.len() as u64)),
                ("crossover_mb_per_s", Cell::Null),
            ]
        }
    }

    fn fixture() -> Sweep<Fixture> {
        Sweep {
            config: Fixture,
            rows: vec![
                FixtureRow {
                    name: "static",
                    count: 3,
                    slots: None,
                    frac: 0.25,
                    ns: 571.416,
                    latency: 4907.24,
                    ops: Measurement {
                        mean: 41.086667,
                        std_dev: 1.031913,
                        runs: 3,
                    },
                },
                FixtureRow {
                    name: "zipf+bursty",
                    count: 10_000,
                    slots: Some(64),
                    frac: 1.0,
                    ns: 17060.2,
                    latency: 0.0,
                    ops: Measurement::default(),
                },
            ],
        }
    }

    #[test]
    fn json_matches_the_committed_artifact_layout() {
        let expected = r#"{
  "workload": "oltp",
  "rows_run": 2,
  "crossover_mb_per_s": null,
  "rows": [
    {"name": "static", "count": 3, "slots": null, "frac": 0.250000, "ns_per_cycle": 571.42, "latency": 4907.2, "throughput_mean": 41.086667, "throughput_std": 1.031913},
    {"name": "zipf+bursty", "count": 10000, "slots": 64, "frac": 1.000000, "ns_per_cycle": 17060.20, "latency": 0.0, "throughput_mean": 0.000000, "throughput_std": 0.000000}
  ]
}
"#;
        assert_eq!(fixture().to_json(), expected);
        // An empty sweep keeps the array brackets on their own lines.
        let empty = Sweep {
            config: Fixture,
            rows: vec![],
        };
        assert!(empty.to_json().ends_with("  \"rows\": [\n  ]\n}\n"));
    }

    #[test]
    fn flat_object_has_no_rows_key() {
        let json = json_object(
            &[
                ("a/b", Cell::Rounded(1035.186, 2)),
                ("c", Cell::Rounded(26.98, 2)),
            ],
            None,
        );
        assert_eq!(json, "{\n  \"a/b\": 1035.19,\n  \"c\": 26.98\n}\n");
    }

    #[test]
    fn every_data_line_starts_its_cells_at_the_header_columns() {
        let txt = fixture().render();
        let mut lines = txt.lines();
        assert_eq!(lines.next(), Some("Fixture sweep"));
        assert_eq!(
            lines.next(),
            Some("workload: oltp, rows_run: 2, crossover_mb_per_s: null")
        );
        let header: Vec<char> = lines.next().expect("header line").chars().collect();
        let starts: Vec<usize> = (0..header.len())
            .filter(|&i| header[i] != ' ' && (i == 0 || header[i - 1] == ' '))
            .collect();
        assert_eq!(starts.len(), Fixture::COLUMNS.len());
        let data: Vec<Vec<char>> = lines.map(|l| l.chars().collect()).collect();
        assert_eq!(data.len(), 2);
        for line in &data {
            for &s in &starts {
                assert!(line[s] != ' ', "no cell starts at column {s}: {line:?}");
                assert!(s == 0 || line[s - 1] == ' ', "cell overruns column {s}");
            }
        }
        // The same cells as the JSON: a null slot, a Measurement as mean ±std.
        assert!(txt.contains("null") && txt.contains("41.087 ±1.032"));
    }
}
