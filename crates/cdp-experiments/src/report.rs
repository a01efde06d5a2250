//! CSV export for experiment results.
//!
//! Every data-bearing experiment can render itself as `(filename,
//! headers, rows)`; the `experiments` binary writes these under
//! `--csv <dir>` so the figures can be re-plotted with external tools.

use std::io::Write;
use std::path::Path;

/// A tabular dataset ready for CSV serialization.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// Output file name (e.g. `fig9.csv`).
    pub filename: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified cells).
    pub rows: Vec<Vec<String>>,
}

impl Dataset {
    /// Builds a dataset.
    pub fn new(filename: impl Into<String>, headers: Vec<String>, rows: Vec<Vec<String>>) -> Self {
        Dataset {
            filename: filename.into(),
            headers,
            rows,
        }
    }

    /// Serializes to CSV text (RFC-4180-style quoting for cells containing
    /// commas or quotes).
    pub fn to_csv(&self) -> String {
        fn cell(c: &str) -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| cell(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV into `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(&self.filename);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// Implemented by experiment results that can export their data.
pub trait ToDataset {
    /// The experiment's tabular data.
    fn dataset(&self) -> Dataset;
}

/// Formats an optional cell; a failed (gapped) cell becomes an empty CSV
/// field so plotting tools skip it instead of reading a sentinel.
fn opt<T>(v: Option<T>, fmt: impl FnOnce(T) -> String) -> String {
    v.map(fmt).unwrap_or_default()
}

impl ToDataset for crate::table2::Table2 {
    fn dataset(&self) -> Dataset {
        Dataset::new(
            "table2.csv",
            vec![
                "benchmark".into(),
                "suite".into(),
                "uops".into(),
                "mptu_1mb".into(),
                "mptu_4mb".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        r.suite.clone(),
                        opt(r.uops, |u| u.to_string()),
                        opt(r.mptu_1mb, |m| format!("{m:.4}")),
                        opt(r.mptu_4mb, |m| format!("{m:.4}")),
                    ]
                })
                .collect(),
        )
    }
}

impl ToDataset for crate::fig1::Figure1 {
    fn dataset(&self) -> Dataset {
        let mut headers = vec!["window".to_string()];
        headers.extend(self.series.iter().map(|s| s.name.clone()));
        let rows = (0..self.window_count())
            .map(|w| {
                let mut row = vec![w.to_string()];
                row.extend(self.series.iter().map(|s| {
                    opt(s.samples.as_ref().and_then(|v| v.get(w)), |v| {
                        format!("{v:.4}")
                    })
                }));
                row
            })
            .collect();
        Dataset::new("fig1.csv", headers, rows)
    }
}

impl ToDataset for crate::fig7::Figure7 {
    fn dataset(&self) -> Dataset {
        Dataset::new(
            "fig7.csv",
            vec!["config".into(), "coverage".into(), "accuracy".into()],
            self.points
                .iter()
                .map(|p| {
                    vec![
                        p.label.clone(),
                        opt(p.coverage, |c| format!("{c:.4}")),
                        opt(p.accuracy, |a| format!("{a:.4}")),
                    ]
                })
                .collect(),
        )
    }
}

impl ToDataset for crate::fig8::Figure8 {
    fn dataset(&self) -> Dataset {
        Dataset::new(
            "fig8.csv",
            vec!["config".into(), "coverage".into(), "accuracy".into()],
            self.points
                .iter()
                .map(|p| {
                    vec![
                        p.label.clone(),
                        opt(p.coverage, |c| format!("{c:.4}")),
                        opt(p.accuracy, |a| format!("{a:.4}")),
                    ]
                })
                .collect(),
        )
    }
}

impl ToDataset for crate::fig9::Figure9 {
    fn dataset(&self) -> Dataset {
        let mut headers = vec!["p_n".to_string()];
        headers.extend(self.curves.iter().map(|c| c.label()));
        let rows = crate::fig9::WIDTH_AXIS
            .iter()
            .enumerate()
            .map(|(w, (p, n))| {
                let mut row = vec![format!("p{p}.n{n}")];
                row.extend(
                    self.curves
                        .iter()
                        .map(|c| opt(c.speedups[w], |s| format!("{s:.4}"))),
                );
                row
            })
            .collect();
        Dataset::new("fig9.csv", headers, rows)
    }
}

impl ToDataset for crate::fig10::Figure10 {
    fn dataset(&self) -> Dataset {
        Dataset::new(
            "fig10.csv",
            vec![
                "benchmark".into(),
                "str_full".into(),
                "str_part".into(),
                "cpf_full".into(),
                "cpf_part".into(),
                "ul2_miss".into(),
                "speedup".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    let mut row = vec![r.name.clone()];
                    match &r.data {
                        Some(d) => {
                            row.extend(d.fractions.iter().map(|f| format!("{f:.4}")));
                            row.push(format!("{:.4}", d.speedup));
                        }
                        None => row.extend(std::iter::repeat_n(String::new(), 6)),
                    }
                    row
                })
                .collect(),
        )
    }
}

impl ToDataset for crate::fig11::Figure11 {
    fn dataset(&self) -> Dataset {
        Dataset::new(
            "fig11.csv",
            vec!["configuration".into(), "speedup".into()],
            self.configs
                .iter()
                .map(|c| vec![c.name.clone(), opt(c.speedup, |s| format!("{s:.4}"))])
                .collect(),
        )
    }
}

impl ToDataset for crate::tlb::TlbSweep {
    fn dataset(&self) -> Dataset {
        Dataset::new(
            "tlb.csv",
            vec!["dtlb_entries".into(), "speedup".into()],
            self.points
                .iter()
                .map(|p| vec![p.entries.to_string(), opt(p.speedup, |s| format!("{s:.4}"))])
                .collect(),
        )
    }
}

impl ToDataset for crate::pollution::Pollution {
    fn dataset(&self) -> Dataset {
        Dataset::new(
            "pollution.csv",
            vec!["benchmark".into(), "speedup".into(), "injected".into()],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        opt(r.speedup, |s| format!("{s:.4}")),
                        opt(r.injected, |i| i.to_string()),
                    ]
                })
                .collect(),
        )
    }
}

impl ToDataset for crate::suite_summary::SuiteSummary {
    fn dataset(&self) -> Dataset {
        Dataset::new(
            "suite.csv",
            vec![
                "benchmark".into(),
                "mptu".into(),
                "ipc".into(),
                "stateless".into(),
                "reinforced".into(),
            ],
            self.rows
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        opt(r.mptu, |m| format!("{m:.4}")),
                        opt(r.ipc, |i| format!("{i:.4}")),
                        opt(r.speedup_stateless, |s| format!("{s:.4}")),
                        opt(r.speedup_reinf, |s| format!("{s:.4}")),
                    ]
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        let d = Dataset::new(
            "t.csv",
            vec!["a".into(), "b,c".into()],
            vec![vec!["x\"y".into(), "plain".into()]],
        );
        let csv = d.to_csv();
        assert!(csv.starts_with("a,\"b,c\"\n"));
        assert!(csv.contains("\"x\"\"y\",plain"));
    }

    #[test]
    fn table2_dataset_shape() {
        let t = crate::table2::run(
            cdp_sim::RunLength::Smoke,
            &crate::Context::new(cdp_sim::Pool::new(2)),
        );
        let d = t.dataset();
        assert_eq!(d.headers.len(), 5);
        assert_eq!(d.rows.len(), 15);
        assert_eq!(d.filename, "table2.csv");
        assert_eq!(d.to_csv().lines().count(), 16);
    }

    #[test]
    fn write_roundtrip() {
        let d = Dataset::new(
            "roundtrip.csv",
            vec!["x".into()],
            vec![vec!["1".into()], vec!["2".into()]],
        );
        let dir = cdp_testutil::ScratchDir::new("cdp-report-test", "roundtrip");
        let path = d.write_to(&dir).expect("write");
        let read = std::fs::read_to_string(path).expect("read");
        assert_eq!(read, "x\n1\n2\n");
    }
}
