//! Structured run provenance: `results/manifest.json`.
//!
//! Every `repro` invocation records what ran (experiment names, paper
//! references, seeds per grid point), how (quick flag, `--jobs`, host
//! parallelism), and how long it took (wall-time per point and per
//! experiment) — the repo's machine-readable perf trajectory. Wall
//! times live **only** here and on the console; the per-experiment row
//! files stay byte-identical across hosts and job counts.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use quartz::json::Json;

use crate::exp::Experiment;
use crate::grid::PointTiming;
use crate::report::{f, Table};

/// Outcome of one executed experiment.
///
/// Anything but `Ok` fails the run: the rest of the selection still
/// runs (unless `--fail-fast`) and the `repro` process exits non-zero.
#[derive(Clone, Debug, PartialEq)]
pub enum RunStatus {
    /// The experiment completed, its outputs were saved, and every
    /// claim it stated holds.
    Ok,
    /// The experiment completed and its outputs were saved, but these
    /// claims (their `what` texts) do not hold.
    ClaimFailed {
        /// The failed claims, in the order the experiment stated them.
        claims: Vec<String>,
    },
    /// The experiment unwound (simulation failure, assertion, injected
    /// fault) and was quarantined: nothing was rendered or saved.
    Failed {
        /// Rendered failure description (e.g. a `SimFailure` message
        /// with the deadlock cycle named).
        message: String,
        /// The failing grid point's label, when known.
        point: Option<String>,
    },
}

impl RunStatus {
    /// `true` for anything but [`RunStatus::Ok`].
    pub fn is_failed(&self) -> bool {
        *self != RunStatus::Ok
    }

    /// The manifest's `status` string.
    pub fn name(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::ClaimFailed { .. } => "claim_failed",
            RunStatus::Failed { .. } => "failed",
        }
    }
}

/// Provenance of one executed experiment.
#[derive(Clone, Debug)]
pub struct ExperimentRecord {
    /// Registered name.
    pub name: String,
    /// Paper reference (`§4.4 Fig. 11` style).
    pub paper_ref: String,
    /// Wall milliseconds for the whole experiment.
    pub wall_ms: f64,
    /// Per-grid-point labels, seeds, and wall times.
    pub points: Vec<PointTiming>,
    /// CSV/JSON-row base names (slugs) the experiment saved.
    pub tables: Vec<String>,
    /// Benchmark files (`BENCH_*.json`) the experiment emitted.
    pub benches: Vec<String>,
    /// Whether the experiment completed or was quarantined.
    pub status: RunStatus,
}

impl ExperimentRecord {
    /// Starts a record for `exp` (wall time and points filled later).
    pub fn begin(exp: &dyn Experiment) -> Self {
        ExperimentRecord {
            name: exp.name().to_string(),
            paper_ref: exp.paper_ref().to_string(),
            wall_ms: 0.0,
            points: Vec::new(),
            tables: Vec::new(),
            benches: Vec::new(),
            status: RunStatus::Ok,
        }
    }

    /// The distinct seeds used by this experiment's grid points, in
    /// first-use order.
    pub fn seeds(&self) -> Vec<u64> {
        let mut seeds = Vec::new();
        for p in &self.points {
            if !seeds.contains(&p.seed) {
                seeds.push(p.seed);
            }
        }
        seeds
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::obj(vec![
            ("name", Json::str(self.name.clone())),
            ("paper_ref", Json::str(self.paper_ref.clone())),
            ("wall_ms", Json::num3(self.wall_ms)),
            (
                "seeds",
                Json::Arr(self.seeds().iter().map(|&s| Json::Int(s)).collect()),
            ),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("label", Json::str(p.label.clone())),
                                ("seed", Json::Int(p.seed)),
                                ("wall_ms", Json::num3(p.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tables",
                Json::Arr(self.tables.iter().map(|t| Json::str(t.clone())).collect()),
            ),
        ]);
        if !self.benches.is_empty() {
            obj.push(
                "benches",
                Json::Arr(self.benches.iter().map(|b| Json::str(b.clone())).collect()),
            );
        }
        obj.push("status", Json::str(self.status.name()));
        match &self.status {
            RunStatus::Ok => {}
            RunStatus::ClaimFailed { claims } => obj.push(
                "failed_claims",
                Json::Arr(claims.iter().map(|c| Json::str(c.clone())).collect()),
            ),
            RunStatus::Failed { message, point } => {
                obj.push(
                    "failure",
                    Json::obj(vec![
                        ("message", Json::str(message.clone())),
                        (
                            "point",
                            point
                                .as_ref()
                                .map(|p| Json::str(p.clone()))
                                .unwrap_or(Json::Null),
                        ),
                    ]),
                );
            }
        }
        obj
    }
}

/// The structured record of one `repro` run.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Whether `--quick` was in effect.
    pub quick: bool,
    /// The `--jobs` worker budget used.
    pub jobs: usize,
    /// `std::thread::available_parallelism` on the host.
    pub host_parallelism: usize,
    /// Executed experiments, in run order.
    pub experiments: Vec<ExperimentRecord>,
}

impl Manifest {
    /// Creates an empty manifest for a run configuration.
    pub fn new(quick: bool, jobs: usize) -> Self {
        Manifest {
            quick,
            jobs,
            host_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            experiments: Vec::new(),
        }
    }

    /// Total wall milliseconds across all experiments.
    pub fn total_wall_ms(&self) -> f64 {
        self.experiments.iter().map(|e| e.wall_ms).sum()
    }

    /// Whether any experiment in the run was quarantined or failed a
    /// claim (`repro` exits non-zero when this is `true`).
    pub fn any_failed(&self) -> bool {
        self.experiments.iter().any(|e| e.status.is_failed())
    }

    /// The manifest as a JSON value. `schema` versions the whole run's
    /// output format, since the manifest indexes every file a run
    /// writes. Schema 2: exported `quartz_stats` carry every field,
    /// zeros included. Schema 3: row files carry `claims`, and a status
    /// may be `claim_failed` with its `failed_claims`. Schema 4: no
    /// `deterministic` key in records or row files, since every
    /// experiment is byte-identical at any `--jobs`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Int(4)),
            ("quick", Json::Bool(self.quick)),
            ("jobs", Json::Int(self.jobs as u64)),
            ("host_parallelism", Json::Int(self.host_parallelism as u64)),
            ("total_wall_ms", Json::num3(self.total_wall_ms())),
            (
                "experiments",
                Json::Arr(self.experiments.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }

    /// Writes `manifest.json` under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join("manifest.json");
        fs::write(&path, self.to_json().render() + "\n")?;
        Ok(path)
    }

    /// A console summary table, slowest experiments first — the
    /// baseline future perf PRs are measured against.
    pub fn summary_table(&self) -> Table {
        let mut by_time: Vec<&ExperimentRecord> = self.experiments.iter().collect();
        by_time.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        let mut t = Table::new(
            "Run summary (slowest first)",
            &["experiment", "status", "wall s", "points", "share %"],
        );
        let total = self.total_wall_ms().max(f64::MIN_POSITIVE);
        for e in by_time {
            t.row(&[
                e.name.clone(),
                e.status.name().to_string(),
                f(e.wall_ms / 1e3, 2),
                e.points.len().to_string(),
                f(e.wall_ms / total * 100.0, 1),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, wall_ms: f64) -> ExperimentRecord {
        ExperimentRecord {
            name: name.into(),
            paper_ref: "§4".into(),
            wall_ms,
            points: vec![
                PointTiming {
                    label: "a".into(),
                    seed: 7,
                    wall_ms: wall_ms / 2.0,
                },
                PointTiming {
                    label: "b".into(),
                    seed: 7,
                    wall_ms: wall_ms / 2.0,
                },
            ],
            tables: vec!["slug".into()],
            benches: Vec::new(),
            status: RunStatus::Ok,
        }
    }

    #[test]
    fn seeds_dedupe_in_order() {
        let mut r = record("x", 2.0);
        r.points.push(PointTiming {
            label: "c".into(),
            seed: 3,
            wall_ms: 1.0,
        });
        assert_eq!(r.seeds(), vec![7, 3]);
    }

    #[test]
    fn manifest_json_has_required_fields() {
        let mut m = Manifest::new(true, 4);
        m.experiments.push(record("fig8", 10.0));
        let j = m.to_json().render();
        for key in [
            "\"schema\":4",
            "\"quick\":true",
            "\"jobs\":4",
            "\"host_parallelism\":",
            "\"total_wall_ms\":10",
            "\"name\":\"fig8\"",
            "\"seeds\":[7]",
            "\"points\":[{\"label\":\"a\"",
            "\"tables\":[\"slug\"]",
            "\"status\":\"ok\"",
        ] {
            assert!(j.contains(key), "manifest missing {key}: {j}");
        }
        assert!(!m.any_failed());
    }

    #[test]
    fn failed_status_serializes_with_failure_object() {
        let mut m = Manifest::new(true, 1);
        let mut r = record("boom", 1.0);
        r.status = RunStatus::Failed {
            message: "deadlock: 3 non-finished thread(s)".into(),
            point: Some("t=4".into()),
        };
        m.experiments.push(r);
        m.experiments.push(record("fine", 1.0));
        let j = m.to_json().render();
        assert!(j.contains("\"status\":\"failed\""));
        assert!(j.contains(
            "\"failure\":{\"message\":\"deadlock: 3 non-finished thread(s)\",\"point\":\"t=4\"}"
        ));
        assert!(j.contains("\"status\":\"ok\""));
        assert!(m.any_failed());
        // Point-less failures serialize `point` as null.
        let mut r2 = record("boom2", 1.0);
        r2.status = RunStatus::Failed {
            message: "assert".into(),
            point: None,
        };
        m.experiments.push(r2);
        assert!(m.to_json().render().contains("\"point\":null"));
        // Summary table carries a status column.
        let t = m.summary_table();
        assert!(t.rows().iter().any(|r| r[1] == "failed"));
        assert!(t.rows().iter().any(|r| r[1] == "ok"));
    }

    #[test]
    fn save_writes_parseable_nonempty_file() {
        let dir = std::env::temp_dir().join("quartz_bench_manifest_test");
        let mut m = Manifest::new(false, 1);
        m.experiments.push(record("t", 1.0));
        let path = m.save(&dir).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
        assert!(body.contains("\"experiments\":[{"));
    }

    #[test]
    fn summary_sorts_slowest_first() {
        let mut m = Manifest::new(false, 1);
        m.experiments.push(record("fast", 1.0));
        m.experiments.push(record("slow", 9.0));
        let t = m.summary_table();
        assert_eq!(t.rows()[0][0], "slow");
        assert_eq!(t.rows()[1][0], "fast");
    }
}
