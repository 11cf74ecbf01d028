//! Machine-readable benchmark snapshots.
//!
//! Every bench binary can persist its rows as `results/bench_<name>.json`
//! so runs are diffable across commits and the EXPERIMENTS.md tables have a
//! checked-in provenance trail. The writer is hand-rolled (the workspace is
//! dependency-free); the document round-trips through the in-tree parser
//! (`hef_obs::check::parse_json`) and that round-trip is under test.
//!
//! Document shape:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "bench": "probe",
//!   "config": { "nkeys": "262144", ... },
//!   "rows": [ { "group": "...", "label": "...", "median_s": 1e-3,
//!               "mad_s": 1e-5, "min_s": 9e-4, "samples": 10,
//!               "melem_per_s": 250.0, "mcycles": 3.2 }, ... ],
//!   "derived": { "dram_speedup": 1.42, ... },
//!   "counters": { "kernel.probe_keys": 123, ... }
//! }
//! ```
//!
//! Versioning contract: `schema_version` bumps when a *reader-visible*
//! meaning changes (never for added keys); readers — [`compare_with_archive`]
//! included — must tolerate unknown keys, so v1 files (no `schema_version`)
//! and future files with extra fields both load.
//!
//! [`compare_with_archive`]: BenchSnapshot::compare_with_archive

use std::path::{Path, PathBuf};

use hef_obs::check::{parse_json, Json};
use hef_testutil::Stats;

/// Current snapshot schema version (see the module doc for the contract).
pub const SCHEMA_VERSION: u64 = 2;

/// One recorded bench row: a [`Stats`] plus its group/label coordinates.
#[derive(Debug, Clone)]
struct SnapRow {
    group: String,
    label: String,
    stats: Stats,
    /// Elements per iteration, when the group reports throughput.
    elems: Option<u64>,
}

/// Accumulates rows and derived scalars, then serializes to
/// `results/bench_<name>.json`.
#[derive(Debug)]
pub struct BenchSnapshot {
    name: String,
    config: Vec<(String, String)>,
    rows: Vec<SnapRow>,
    derived: Vec<(String, f64)>,
}

/// Escape a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The CPU model name (`model name` in `/proc/cpuinfo`), or `unknown`
/// where that is not readable.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// JSON number: finite floats only (NaN/inf have no JSON spelling).
fn num(x: f64) -> String {
    if x.is_finite() { format!("{x}") } else { "null".to_string() }
}

impl BenchSnapshot {
    pub fn new(name: impl Into<String>) -> BenchSnapshot {
        let mut snap = BenchSnapshot {
            name: name.into(),
            config: Vec::new(),
            rows: Vec::new(),
            derived: Vec::new(),
        };
        // Provenance stamps: which backend the kernels dispatched to and how
        // many workers `HEF_THREADS` resolved to. Config keys are
        // schema-tolerant by contract (readers only consult `rows`), so no
        // version bump.
        snap.config("host_isa", hef_hid::Backend::native().name());
        snap.config("threads", hef_engine::resolve_threads(0));
        // The host the rows were measured on: `repro trend` threads a
        // series per host, so a new machine starts a new series instead of
        // reading as a regression of the old one.
        snap.config("host_cpu", host_cpu());
        snap.config("host_nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
        snap
    }

    /// The snapshot's name (the `bench_<name>.json` stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record a config key (workload size, mode flags, axis values…).
    pub fn config(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Record one measured row.
    pub fn row(&mut self, group: &str, label: &str, stats: Stats, elems: Option<u64>) -> &mut Self {
        self.rows.push(SnapRow {
            group: group.to_string(),
            label: label.to_string(),
            stats,
            elems,
        });
        self
    }

    /// Record a derived scalar (a speedup, a crossover point…).
    pub fn derived(&mut self, key: &str, value: f64) -> &mut Self {
        self.derived.push((key.to_string(), value));
        self
    }

    /// Serialize the snapshot, folding in every non-zero metric counter
    /// from the process-wide registry ([`hef_obs::metrics::snapshot`]).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"bench\": \"{}\",\n", esc(&self.name)));
        s.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": \"{}\"", esc(k), esc(v)));
        }
        s.push_str("\n  },\n  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"group\": \"{}\", \"label\": \"{}\", \"median_s\": {}, \
                 \"mad_s\": {}, \"min_s\": {}, \"samples\": {}",
                esc(&r.group),
                esc(&r.label),
                num(r.stats.median),
                num(r.stats.mad),
                num(r.stats.min),
                r.stats.samples,
            ));
            if let Some(e) = r.elems {
                s.push_str(&format!(", \"melem_per_s\": {}", num(r.stats.elems_per_sec(e) / 1e6)));
            }
            if let Some(c) = r.stats.median_cycles {
                s.push_str(&format!(", \"mcycles\": {}", num(c / 1e6)));
            }
            s.push('}');
        }
        s.push_str("\n  ],\n  \"derived\": {");
        for (i, (k, v)) in self.derived.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {}", esc(k), num(*v)));
        }
        s.push_str("\n  },\n  \"counters\": {");
        let snap = hef_obs::metrics::snapshot();
        let mut first = true;
        for m in hef_obs::metrics::Metric::ALL {
            let v = snap.get(m);
            if v != 0 {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!("\n    \"{}\": {}", esc(m.name()), v));
            }
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Write `results/bench_<name>.json` under `dir` (creating `results/`)
    /// and return the path. The write is atomic (staging file + rename) so
    /// an interrupted run never tears the archive a later
    /// [`BenchSnapshot::compare_with_archive`] reads.
    ///
    /// Before the live archive is replaced, the outgoing file is preserved
    /// as a timestamped point under `results/history/` so the trend scanner
    /// ([`crate::trend::scan`]) keeps the full series instead of only the
    /// last two runs.
    pub fn write_under(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        let results = dir.join("results");
        std::fs::create_dir_all(&results)?;
        let path = results.join(format!("bench_{}.json", self.name));
        archive_previous(&results, &path, &self.name);
        hef_testutil::atomic_write(&path, self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Diff this (not-yet-written) snapshot against the newest archived
    /// `results/bench_<name>.json` under `root`. Returns `None` when no
    /// archive exists or it does not parse — regression tracking is advisory
    /// and must never fail a run. Call *before* [`BenchSnapshot::write_under`]
    /// overwrites the archive.
    pub fn compare_with_archive(&self, root: &Path) -> Option<CompareReport> {
        let path = root.join("results").join(format!("bench_{}.json", self.name));
        let text = std::fs::read_to_string(&path).ok()?;
        let doc = parse_json(&text).ok()?;
        // Unknown keys (including a missing or future `schema_version`) are
        // ignored by construction: only `rows` is consulted.
        let old_rows = doc.get("rows")?.as_arr()?;
        let mut report = CompareReport { baseline: path, rows: Vec::new(), added: 0, missing: 0 };
        for r in &self.rows {
            let old = old_rows.iter().find(|o| {
                o.get("group").and_then(Json::as_str) == Some(r.group.as_str())
                    && o.get("label").and_then(Json::as_str) == Some(r.label.as_str())
            });
            let Some(old) = old else {
                report.added += 1;
                continue;
            };
            let (Some(old_median), Some(old_mad)) = (
                old.get("median_s").and_then(Json::as_f64),
                old.get("mad_s").and_then(Json::as_f64),
            ) else {
                report.added += 1;
                continue;
            };
            let new_median = r.stats.median;
            // Significance: the medians moved by more than the runs' summed
            // noise scales (3·MAD each) — the same robust statistics the
            // bench harness reports.
            let noise = 3.0 * (old_mad + r.stats.mad);
            report.rows.push(RowDelta {
                group: r.group.clone(),
                label: r.label.clone(),
                old_median_s: old_median,
                new_median_s: new_median,
                delta_frac: if old_median > 0.0 {
                    (new_median - old_median) / old_median
                } else {
                    0.0
                },
                significant: (new_median - old_median).abs() > noise,
            });
        }
        report.missing = old_rows
            .iter()
            .filter(|o| {
                let (g, l) = (
                    o.get("group").and_then(Json::as_str),
                    o.get("label").and_then(Json::as_str),
                );
                match (g, l) {
                    (Some(g), Some(l)) => {
                        !self.rows.iter().any(|r| r.group == g && r.label == l)
                    }
                    _ => false,
                }
            })
            .count();
        Some(report)
    }

    /// [`BenchSnapshot::compare_with_archive`] against the same workspace
    /// root [`BenchSnapshot::write_default`] writes under — the usual
    /// pairing: compare first, then write (which replaces the baseline).
    pub fn compare_default(&self) -> Option<CompareReport> {
        let cwd = std::env::current_dir().ok()?;
        let root = cwd
            .ancestors()
            .find(|d| d.join("Cargo.lock").is_file())
            .unwrap_or(&cwd)
            .to_path_buf();
        self.compare_with_archive(&root)
    }

    /// Write under the workspace root, so snapshots land in
    /// `<repo>/results/` next to `repro`'s outputs regardless of the
    /// caller's working directory (cargo runs benches with the *package*
    /// directory as cwd, binaries with the invocation directory). The root
    /// is the nearest ancestor holding `Cargo.lock`; if none is found the
    /// current directory is used.
    pub fn write_default(&self) -> std::io::Result<PathBuf> {
        let cwd = std::env::current_dir()?;
        let root = cwd
            .ancestors()
            .find(|d| d.join("Cargo.lock").is_file())
            .unwrap_or(&cwd);
        self.write_under(root)
    }
}

/// Preserve the outgoing live archive as
/// `results/history/<mtime-secs>_bench_<name>.json` before it is replaced.
/// The stamp is the file's mtime in zero-padded epoch seconds, so a plain
/// filename sort — exactly what the trend scanner does — is chronological;
/// a same-second rewrite gets a `_<n>` suffix rather than clobbering the
/// point. History is observability: any failure here (no mtime, read-only
/// tree) silently skips the copy and never blocks the live write.
fn archive_previous(results: &Path, live: &Path, name: &str) {
    let Ok(meta) = std::fs::metadata(live) else { return };
    let secs = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let history = results.join("history");
    if std::fs::create_dir_all(&history).is_err() {
        return;
    }
    let mut dest = history.join(format!("{secs:010}_bench_{name}.json"));
    let mut n = 1u32;
    while dest.exists() {
        dest = history.join(format!("{secs:010}_bench_{name}_{n}.json"));
        n += 1;
        if n > 64 {
            return;
        }
    }
    std::fs::copy(live, &dest).ok();
}

/// One per-kernel trend row of a [`CompareReport`].
#[derive(Debug, Clone)]
pub struct RowDelta {
    pub group: String,
    pub label: String,
    pub old_median_s: f64,
    pub new_median_s: f64,
    /// `(new - old) / old`; positive = slower.
    pub delta_frac: f64,
    /// The shift exceeds `3·(mad_old + mad_new)` — likely real, not noise.
    pub significant: bool,
}

/// The result of diffing a run against its archived baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// The archive the run was compared against.
    pub baseline: PathBuf,
    /// Matched rows, in the current run's order.
    pub rows: Vec<RowDelta>,
    /// Rows in this run with no archived counterpart.
    pub added: usize,
    /// Archived rows this run no longer produces.
    pub missing: usize,
}

impl CompareReport {
    /// Rows flagged significant, worst regression first.
    pub fn significant(&self) -> Vec<&RowDelta> {
        let mut v: Vec<&RowDelta> = self.rows.iter().filter(|r| r.significant).collect();
        v.sort_by(|a, b| b.delta_frac.total_cmp(&a.delta_frac));
        v
    }

    /// Render the per-kernel trend table.
    pub fn render(&self) -> String {
        let mut t = crate::report::TableWriter::new(vec![
            "group", "label", "old ms", "new ms", "delta", "verdict",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.group.clone(),
                r.label.clone(),
                format!("{:.3}", r.old_median_s * 1e3),
                format!("{:.3}", r.new_median_s * 1e3),
                format!("{:+.1}%", r.delta_frac * 100.0),
                if !r.significant {
                    "~noise".to_string()
                } else if r.delta_frac > 0.0 {
                    "SLOWER".to_string()
                } else {
                    "faster".to_string()
                },
            ]);
        }
        let mut s = format!("baseline: {}\n{}", self.baseline.display(), t.render());
        if self.added + self.missing > 0 {
            s.push_str(&format!(
                "(rows vs baseline: {} added, {} missing)\n",
                self.added, self.missing
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_testutil::bench::summarize;

    fn stats() -> Stats {
        summarize(&mut [1e-3, 2e-3, 3e-3])
    }

    #[test]
    fn snapshot_roundtrips_through_the_json_checker() {
        let mut snap = BenchSnapshot::new("unit");
        snap.config("nkeys", 42).config("mode", "smoke \"quoted\"");
        snap.row("g1", "scalar", stats(), Some(1_000_000));
        snap.row("g1", "hybrid_f16", stats(), None);
        snap.derived("speedup", 1.5);
        snap.derived("nan_becomes_null", f64::NAN);
        let doc = hef_obs::check::parse_json(&snap.to_json()).expect("valid json");
        assert_eq!(doc.get("bench").and_then(|j| j.as_str()), Some("unit"));
        let rows = doc.get("rows").and_then(|j| j.as_arr()).expect("rows array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("label").and_then(|j| j.as_str()), Some("scalar"));
        assert_eq!(rows[0].get("median_s").and_then(|j| j.as_f64()), Some(2e-3));
        assert!(rows[0].get("melem_per_s").is_some());
        assert!(rows[1].get("melem_per_s").is_none());
        let derived = doc.get("derived").expect("derived object");
        assert_eq!(derived.get("speedup").and_then(|j| j.as_f64()), Some(1.5));
        assert_eq!(derived.get("nan_becomes_null"), Some(&hef_obs::check::Json::Null));
        assert!(doc.get("counters").is_some());
    }

    #[test]
    fn schema_version_is_written_and_unknown_keys_are_tolerated() {
        let snap = BenchSnapshot::new("vers");
        let doc = parse_json(&snap.to_json()).expect("valid json");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );

        // A future document with keys this reader has never heard of (and a
        // bumped version) still loads and compares.
        let dir = std::env::temp_dir().join(format!("hef_snap_fwd_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("results")).unwrap();
        std::fs::write(
            dir.join("results/bench_vers.json"),
            r#"{"schema_version": 99, "bench": "vers", "novel_top_level": {"x": 1},
                "rows": [{"group": "g", "label": "l", "median_s": 1e-3,
                          "mad_s": 1e-6, "min_s": 9e-4, "samples": 5,
                          "novel_row_key": "ignored"}]}"#,
        )
        .unwrap();
        let mut snap = BenchSnapshot::new("vers");
        snap.row("g", "l", summarize(&mut [1e-3, 1e-3, 1e-3]), None);
        let report = snap.compare_with_archive(&dir).expect("archive parses");
        assert_eq!(report.rows.len(), 1);
        assert!(!report.rows[0].significant, "identical medians are not a shift");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_flags_real_shifts_and_counts_membership_changes() {
        let dir = std::env::temp_dir().join(format!("hef_snap_cmp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Archive: two rows with tight MAD.
        let mut old = BenchSnapshot::new("cmp");
        old.row("k", "stable", summarize(&mut [1e-3, 1.001e-3, 0.999e-3]), None);
        old.row("k", "gone", summarize(&mut [1e-3, 1e-3, 1e-3]), None);
        old.write_under(&dir).unwrap();

        // Current run: `stable` doubled (significant), `fresh` is new.
        let mut new = BenchSnapshot::new("cmp");
        new.row("k", "stable", summarize(&mut [2e-3, 2.001e-3, 1.999e-3]), None);
        new.row("k", "fresh", summarize(&mut [1e-3, 1e-3, 1e-3]), None);
        let report = new.compare_with_archive(&dir).expect("baseline exists");
        assert_eq!(report.rows.len(), 1);
        let d = &report.rows[0];
        assert!(d.significant && d.delta_frac > 0.9, "{d:?}");
        assert_eq!((report.added, report.missing), (1, 1));
        assert_eq!(report.significant().len(), 1);
        let table = report.render();
        assert!(table.contains("SLOWER") && table.contains("added"), "{table}");

        // No baseline → None, never an error.
        assert!(BenchSnapshot::new("nope").compare_with_archive(&dir).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_is_stamped_with_host_provenance() {
        let snap = BenchSnapshot::new("prov");
        let doc = parse_json(&snap.to_json()).expect("valid json");
        let config = doc.get("config").expect("config object");
        let isa = config.get("host_isa").and_then(Json::as_str).expect("isa stamped");
        assert!(!isa.is_empty());
        let threads: usize = config
            .get("threads")
            .and_then(Json::as_str)
            .and_then(|t| t.parse().ok())
            .expect("threads stamped");
        assert!(threads >= 1);
        let cpu = config.get("host_cpu").and_then(Json::as_str).expect("cpu stamped");
        assert!(!cpu.is_empty());
        let nproc: usize = config
            .get("host_nproc")
            .and_then(Json::as_str)
            .and_then(|t| t.parse().ok())
            .expect("nproc stamped");
        assert!(nproc >= 1);
    }

    #[test]
    fn rewrite_archives_the_outgoing_baseline_into_history() {
        let dir = std::env::temp_dir().join(format!("hef_snap_hist_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // First write: nothing to preserve, so no history yet.
        let mut first = BenchSnapshot::new("hist_unit");
        first.row("g", "l", summarize(&mut [1e-3, 1e-3, 1e-3]), None);
        let live = first.write_under(&dir).expect("first write");
        let first_text = std::fs::read_to_string(&live).unwrap();
        assert!(!dir.join("results/history").exists());

        // Second write: the outgoing file lands under history/ verbatim and
        // the trend scanner now sees a two-point series.
        let mut second = BenchSnapshot::new("hist_unit");
        second.row("g", "l", summarize(&mut [2e-3, 2e-3, 2e-3]), None);
        second.write_under(&dir).expect("second write");
        let history: Vec<_> = std::fs::read_dir(dir.join("results/history"))
            .expect("history dir")
            .filter_map(|e| e.ok())
            .collect();
        assert_eq!(history.len(), 1);
        let archived = history[0].file_name().into_string().unwrap();
        assert!(archived.ends_with("_bench_hist_unit.json"), "{archived}");
        assert_eq!(std::fs::read_to_string(history[0].path()).unwrap(), first_text);
        let report = crate::trend::scan(&dir);
        let series =
            report.series.iter().find(|s| s.bench == "hist_unit").expect("series exists");
        assert_eq!(series.points.len(), 2);
        assert_eq!(series.points.last().map(|p| p.median_s), Some(2e-3));

        // Same-second rewrite suffixes instead of clobbering the point.
        let mut third = BenchSnapshot::new("hist_unit");
        third.row("g", "l", summarize(&mut [3e-3, 3e-3, 3e-3]), None);
        third.write_under(&dir).expect("third write");
        assert_eq!(std::fs::read_dir(dir.join("results/history")).unwrap().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_writes_a_file() {
        let dir = std::env::temp_dir().join(format!("hef_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut snap = BenchSnapshot::new("writer_unit");
        snap.row("g", "r", stats(), None);
        let path = snap.write_under(&dir).expect("write ok");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(hef_obs::check::parse_json(&text).is_ok());
        assert!(path.ends_with("results/bench_writer_unit.json"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
