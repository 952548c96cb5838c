//! Experiment reports: a rendered text body plus a machine-readable JSON
//! payload persisted under `results/`, plus the CSV series of plotted
//! experiments.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// One regenerated table/figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `"table2"`, `"fig9b"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Rendered text body (tables, plots, notes).
    pub body: String,
    /// Machine-readable payload.
    pub json: serde_json::Value,
    /// The `<id>.csv` curve-series text, for experiments that plot one
    /// (see [`Report::with_series`]).
    pub series: Option<String>,
}

/// Labelled `(x, y)` curves, as rendered into a CSV artifact.
pub type Series = Vec<(String, Vec<(f64, f64)>)>;

impl Report {
    /// Builds a report, serializing `payload` to JSON.
    pub fn new<T: Serialize>(
        id: impl Into<String>,
        title: impl Into<String>,
        body: String,
        payload: &T,
    ) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            body,
            json: serde_json::to_value(payload).expect("payload serializes"),
            series: None,
        }
    }

    /// Attaches the curves the experiment computed as its `<id>.csv`
    /// text (long format: `label,x,y`, one row per point), so the CSV
    /// comes from the run itself, never a re-run.
    pub fn with_series(mut self, series: &Series) -> Report {
        let mut csv = String::from("label,x,y\n");
        for (label, points) in series {
            for (x, y) in points {
                csv.push_str(&format!("{label},{x},{y}\n"));
            }
        }
        self.series = Some(csv);
        self
    }

    /// Full text rendering (title banner + body).
    pub fn render(&self) -> String {
        let bar = "=".repeat(self.title.len().min(78));
        format!("{}\n{}\n\n{}", self.title, bar, self.body)
    }

    /// The exact bytes [`Report::write_json`] persists.
    pub fn json_text(&self) -> String {
        serde_json::to_string_pretty(&self.json).expect("report payload serializes")
    }

    /// Atomically writes and seals `<dir>/<id>.json` (creating `dir`,
    /// plus a `<id>.json.crc` sidecar) and returns the path.
    pub fn write_json(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        hprc_obs::artifact::seal(&path, self.json_text().as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_banner() {
        let r = Report::new(
            "t",
            "Title Here",
            "body\n".into(),
            &serde_json::json!({"k": 1}),
        );
        let s = r.render();
        assert!(s.starts_with("Title Here\n=========="));
        assert!(s.contains("body"));
    }

    #[test]
    fn writes_json_and_csv() {
        let dir = std::env::temp_dir().join(format!("hprc-exp-test-{}", std::process::id()));
        let r = Report::new("demo", "Demo", String::new(), &serde_json::json!([1, 2, 3]));
        assert_eq!(r.series, None);
        let p = r.write_json(&dir).unwrap();
        assert!(p.exists());
        let r = r.with_series(&vec![("a".into(), vec![(1.0, 2.0), (3.0, 4.5)])]);
        assert_eq!(r.series.as_deref(), Some("label,x,y\na,1,2\na,3,4.5\n"));
        fs::remove_dir_all(dir).unwrap();
    }
}
