//! Time-series regression tracking over archived bench snapshots.
//!
//! [`BenchSnapshot::compare_with_archive`] answers "did *this run* move
//! against the last one?"; this module answers the observatory question:
//! "is a row drifting across the whole committed history?" It scans every
//! archived `results/bench_*.json` plus the optional dated copies under
//! `results/history/` (ordered by filename, so `YYYYMMDD_*` names sort
//! chronologically), threads each `(bench, host, group, label)` row into a
//! series, and flags the newest point when it sits outside the history's
//! noise envelope.
//!
//! A snapshot's host is its `host_cpu` and `host_nproc` config stamps:
//! rows measured on different machines are different series, so a new host
//! starts its own history rather than reading as a regression of the old
//! one. Snapshots written before the stamps existed share one
//! [`UNRECORDED_HOST`] series.
//!
//! Significance is the same robust statistic the pairwise compare uses,
//! generalized to a series: the last median must move against the median of
//! the prior medians by more than `3·(MAD(prior) + MAD(last run))` *and* by
//! more than 2 % relative — the second clause keeps a zero-variance history
//! (e.g. one committed snapshot duplicated) from flagging microscopic
//! absolute shifts.
//!
//! Everything here is advisory by default: unreadable or unparseable files
//! are skipped, a single-point series renders but never flags, and only
//! `repro trend --strict` turns regressions into a non-zero exit. Smoke
//! snapshots (bench names ending `_smoke`) never gate even under `--strict`:
//! they exist to prove the bench machinery runs, and their 3-sample medians
//! on a tiny workload are dominated by host noise. The full-run archives are
//! the baselines the strict gate defends.
//!
//! [`BenchSnapshot::compare_with_archive`]: crate::snapshot::BenchSnapshot::compare_with_archive

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use hef_obs::check::{parse_json, Json};
use hef_testutil::bench::median;

/// One snapshot's measurement of a series: the file it came from plus the
/// row's median and MAD (seconds).
#[derive(Debug, Clone)]
pub struct TrendPoint {
    /// File stem the point was read from (for provenance in reports).
    pub source: String,
    pub median_s: f64,
    pub mad_s: f64,
}

/// Where the newest point of a series sits relative to its history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Only one point — nothing to compare against.
    Single,
    /// Within the history's noise envelope.
    Stable,
    /// Significantly faster than history.
    Improved,
    /// Significantly slower than history.
    Regressed,
}

/// The host of snapshots that carry no `host_cpu`/`host_nproc` stamps.
pub const UNRECORDED_HOST: &str = "unrecorded host";

/// One `(bench, host, group, label)` row threaded through every archived
/// snapshot, oldest first.
#[derive(Debug, Clone)]
pub struct TrendSeries {
    pub bench: String,
    /// `<cpu model> ×<nproc>`, or [`UNRECORDED_HOST`].
    pub host: String,
    pub group: String,
    pub label: String,
    pub points: Vec<TrendPoint>,
}

/// The eight-level block characters the sparkline is drawn with.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

impl TrendSeries {
    /// `bench/group/label [host]`, the series' display key.
    pub fn key(&self) -> String {
        format!("{}/{}/{} [{}]", self.bench, self.group, self.label, self.host)
    }

    /// Advisory series never gate `--strict`. Smoke snapshots (bench names
    /// ending `_smoke`) exist to prove the bench machinery runs end to end —
    /// they measure 3 samples of a tiny workload, and their medians swing
    /// ±20% run to run on a shared host. The committed full-run archives
    /// (`bench_probe.json`, `bench_ssb.json`, …) are the perf baselines the
    /// gate defends.
    pub fn advisory(&self) -> bool {
        self.bench.ends_with("_smoke")
    }

    /// One character per point, medians scaled min..max. A flat (or single
    /// point) series renders at mid-height.
    pub fn sparkline(&self) -> String {
        let lo = self.points.iter().map(|p| p.median_s).fold(f64::INFINITY, f64::min);
        let hi = self.points.iter().map(|p| p.median_s).fold(f64::NEG_INFINITY, f64::max);
        self.points
            .iter()
            .map(|p| {
                if !(hi > lo) {
                    return SPARKS[3];
                }
                let t = (p.median_s - lo) / (hi - lo);
                SPARKS[((t * 7.0).round() as usize).min(7)]
            })
            .collect()
    }

    /// The newest point's shift against the median of the prior medians,
    /// as a fraction (positive = slower). `None` for single-point series.
    pub fn delta_frac(&self) -> Option<f64> {
        let (last, prior) = self.points.split_last()?;
        if prior.is_empty() {
            return None;
        }
        let med = median(prior.iter().map(|p| p.median_s));
        if med > 0.0 {
            Some((last.median_s - med) / med)
        } else {
            Some(0.0)
        }
    }

    /// Classify the newest point against the series' history.
    pub fn verdict(&self) -> Verdict {
        let Some((last, prior)) = self.points.split_last() else { return Verdict::Single };
        if prior.is_empty() {
            return Verdict::Single;
        }
        let prior_medians: Vec<f64> = prior.iter().map(|p| p.median_s).collect();
        let med = median(prior_medians.iter().copied());
        let mad = median(prior_medians.iter().map(|m| (m - med).abs()));
        let delta = last.median_s - med;
        let noise = noise_margin(mad, last.mad_s);
        let relative = if med > 0.0 { (delta / med).abs() } else { 0.0 };
        if delta.abs() <= noise || relative <= 0.02 {
            return Verdict::Stable;
        }
        if delta > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        }
    }
}

/// The shift two medians must exceed to count as a real difference:
/// `3·(MAD_a + MAD_b)`. Shared by the trend verdict and the tuning
/// playoff ([`crate::playoff`]).
pub fn noise_margin(mad_a: f64, mad_b: f64) -> f64 {
    3.0 * (mad_a + mad_b)
}

/// Every series found under a workspace root.
#[derive(Debug, Clone)]
pub struct TrendReport {
    pub series: Vec<TrendSeries>,
    /// Snapshot files that contributed points.
    pub snapshots: usize,
    /// Files that existed but were skipped (unreadable / unparseable).
    pub skipped: usize,
}

impl TrendReport {
    /// Gating series whose newest point regressed, worst first. Advisory
    /// (smoke) series are rendered but never listed here — see
    /// [`TrendSeries::advisory`].
    pub fn regressions(&self) -> Vec<&TrendSeries> {
        let mut v: Vec<&TrendSeries> = self
            .series
            .iter()
            .filter(|s| s.verdict() == Verdict::Regressed && !s.advisory())
            .collect();
        v.sort_by(|a, b| {
            b.delta_frac().unwrap_or(0.0).total_cmp(&a.delta_frac().unwrap_or(0.0))
        });
        v
    }

    /// Render the trend table: one line per series with its sparkline.
    pub fn render(&self) -> String {
        let mut t = crate::report::TableWriter::new(vec![
            "series", "trend", "pts", "last ms", "vs hist", "verdict",
        ]);
        for s in &self.series {
            let last_ms = s.points.last().map(|p| p.median_s * 1e3).unwrap_or(0.0);
            t.row(vec![
                s.key(),
                s.sparkline(),
                format!("{}", s.points.len()),
                format!("{last_ms:.3}"),
                match s.delta_frac() {
                    Some(d) => format!("{:+.1}%", d * 100.0),
                    None => "-".to_string(),
                },
                match s.verdict() {
                    Verdict::Single => "·".to_string(),
                    Verdict::Stable => "~stable".to_string(),
                    Verdict::Improved => "improved".to_string(),
                    Verdict::Regressed if s.advisory() => "regressed (smoke)".to_string(),
                    Verdict::Regressed => "REGRESSED".to_string(),
                },
            ]);
        }
        let mut out = format!(
            "trend over {} snapshot(s), {} series\n{}",
            self.snapshots,
            self.series.len(),
            t.render()
        );
        if self.skipped > 0 {
            out.push_str(&format!("({} file(s) skipped: unreadable or not snapshot JSON)\n", self.skipped));
        }
        let regs = self.regressions();
        if regs.is_empty() {
            out.push_str("trend: OK (no significant regressions)\n");
        } else {
            out.push_str(&format!("trend: {} significant regression(s):\n", regs.len()));
            for s in regs {
                out.push_str(&format!(
                    "  {}  {:+.1}% vs history\n",
                    s.key(),
                    s.delta_frac().unwrap_or(0.0) * 100.0
                ));
            }
        }
        out
    }
}

/// `.json` files in `dir` whose stem passes `keep`, sorted by filename.
fn json_files(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().and_then(|e| e.to_str()) == Some("json")
                && p.file_stem().and_then(|s| s.to_str()).is_some_and(&keep)
        })
        .collect();
    files.sort();
    files
}

/// One parsed snapshot: bench, host, and `(group, label, median, MAD)`
/// rows.
type SnapshotRows = (String, String, Vec<(String, String, f64, f64)>);

/// The host a snapshot's config stamps name (see the module docs).
fn host_of(doc: &Json) -> String {
    let config = doc.get("config");
    let stamp = |key| config.and_then(|c| c.get(key)).and_then(Json::as_str);
    match (stamp("host_cpu"), stamp("host_nproc")) {
        (Some(cpu), Some(nproc)) => format!("{cpu} ×{nproc}"),
        _ => UNRECORDED_HOST.to_string(),
    }
}

/// Parse one snapshot file; `None` when it is not a readable snapshot
/// document.
fn load_rows(path: &Path) -> Option<SnapshotRows> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = parse_json(&text).ok()?;
    // Unknown keys (and any schema_version) are ignored: like the pairwise
    // compare, only `bench` and `rows` are consulted.
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or_else(|| path.file_stem().and_then(|s| s.to_str()).unwrap_or("?"))
        .to_string();
    let rows = doc.get("rows")?.as_arr()?;
    let mut out = Vec::new();
    for r in rows {
        let (Some(group), Some(label), Some(median)) = (
            r.get("group").and_then(Json::as_str),
            r.get("label").and_then(Json::as_str),
            r.get("median_s").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let mad = r.get("mad_s").and_then(Json::as_f64).unwrap_or(0.0);
        out.push((group.to_string(), label.to_string(), median, mad));
    }
    Some((bench, host_of(&doc), out))
}

/// Scan `root/results/history/*.json` (oldest first by filename) then the
/// live archives `root/results/bench_*.json` and thread every row into its
/// series. The live archive is always the series' newest point.
pub fn scan(root: &Path) -> TrendReport {
    let results = root.join("results");
    let mut files = json_files(&results.join("history"), |_| true);
    files.extend(json_files(&results, |stem| stem.starts_with("bench_")));

    let mut by_key: BTreeMap<(String, String, String, String), Vec<TrendPoint>> = BTreeMap::new();
    let (mut snapshots, mut skipped) = (0usize, 0usize);
    for path in &files {
        let Some((bench, host, rows)) = load_rows(path) else {
            skipped += 1;
            continue;
        };
        snapshots += 1;
        let source = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("?")
            .to_string();
        for (group, label, median_s, mad_s) in rows {
            by_key
                .entry((bench.clone(), host.clone(), group, label))
                .or_default()
                .push(TrendPoint { source: source.clone(), median_s, mad_s });
        }
    }
    let series = by_key
        .into_iter()
        .map(|((bench, host, group, label), points)| TrendSeries { bench, host, group, label, points })
        .collect();
    TrendReport { series, snapshots, skipped }
}

/// [`scan`] against the workspace root (nearest ancestor with `Cargo.lock`),
/// the same root the snapshots are written under.
pub fn scan_default() -> std::io::Result<TrendReport> {
    let cwd = std::env::current_dir()?;
    let root = cwd.ancestors().find(|d| d.join("Cargo.lock").is_file()).unwrap_or(&cwd);
    Ok(scan(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_snapshot(path: &Path, bench: &str, median_s: f64, mad_s: f64) {
        write_snapshot_on(path, bench, "", median_s, mad_s);
    }

    /// A one-row snapshot; `config` is the body of its config object.
    fn write_snapshot_on(path: &Path, bench: &str, config: &str, median_s: f64, mad_s: f64) {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(
            path,
            format!(
                r#"{{"schema_version": 2, "bench": "{bench}", "config": {{{config}}},
                    "rows": [{{"group": "g", "label": "l", "median_s": {median_s},
                               "mad_s": {mad_s}, "min_s": {median_s}, "samples": 5}}]}}"#
            ),
        )
        .expect("write");
    }

    #[test]
    fn series_are_threaded_per_host() {
        let root = temp_root("hosts");
        let slow = r#""host_cpu": "Slow CPU", "host_nproc": "2""#;
        let fast = r#""host_cpu": "Fast CPU", "host_nproc": "8""#;
        // An unstamped history at 1 ms, then a stamped slow host at 2 ms:
        // two series, neither regressed.
        write_snapshot(&root.join("results/history/a_bench_t.json"), "t", 1.0e-3, 1.0e-5);
        write_snapshot_on(&root.join("results/history/b_bench_t.json"), "t", slow, 2.0e-3, 1.0e-5);
        write_snapshot_on(&root.join("results/bench_t.json"), "t", slow, 2.01e-3, 1.0e-5);
        let report = scan(&root);
        let hosts: Vec<(&str, usize)> =
            report.series.iter().map(|s| (s.host.as_str(), s.points.len())).collect();
        assert_eq!(hosts, [("Slow CPU ×2", 2), (UNRECORDED_HOST, 1)]);
        assert!(report.regressions().is_empty(), "{}", report.render());
        assert!(report.render().contains("t/g/l [Slow CPU ×2]"));

        // The same CPU with another core count is another host; within one
        // host the gate is unchanged.
        write_snapshot_on(&root.join("results/history/c_bench_t.json"), "t", fast, 1.0e-3, 1.0e-5);
        write_snapshot_on(&root.join("results/bench_t.json"), "t", slow, 4.0e-3, 1.0e-5);
        let report = scan(&root);
        assert_eq!(report.series.len(), 3);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].host, "Slow CPU ×2");
        std::fs::remove_dir_all(&root).ok();
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hef_trend_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn synthetic_regression_is_detected_and_strict_worthy() {
        let root = temp_root("reg");
        // Two healthy dated points, then a degraded live archive: 1 ms → 2 ms.
        write_snapshot(&root.join("results/history/20260801_bench_t.json"), "t", 1.0e-3, 1.0e-5);
        write_snapshot(&root.join("results/history/20260802_bench_t.json"), "t", 1.01e-3, 1.0e-5);
        write_snapshot(&root.join("results/bench_t.json"), "t", 2.0e-3, 1.0e-5);
        let report = scan(&root);
        assert_eq!(report.snapshots, 3);
        assert_eq!(report.series.len(), 1);
        let s = &report.series[0];
        assert_eq!(s.points.len(), 3);
        // History files sort before the live archive: last point is 2 ms.
        assert_eq!(s.points.last().map(|p| p.median_s), Some(2.0e-3));
        assert_eq!(s.verdict(), Verdict::Regressed);
        assert!(s.delta_frac().expect("has history") > 0.9);
        assert_eq!(report.regressions().len(), 1);
        let rendered = report.render();
        assert!(rendered.contains("REGRESSED"), "{rendered}");
        assert!(SPARKS.iter().any(|&c| rendered.contains(c)), "{rendered}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn smoke_series_regressions_stay_advisory() {
        let root = temp_root("smoke");
        // A clear regression on a `_smoke` bench: rendered, never gating.
        write_snapshot(&root.join("results/history/a_bench_t_smoke.json"), "t_smoke", 1.0e-3, 1.0e-5);
        write_snapshot(&root.join("results/bench_t_smoke.json"), "t_smoke", 2.0e-3, 1.0e-5);
        let report = scan(&root);
        let s = &report.series[0];
        assert_eq!(s.verdict(), Verdict::Regressed);
        assert!(s.advisory());
        assert!(report.regressions().is_empty(), "smoke series must not gate --strict");
        let rendered = report.render();
        assert!(rendered.contains("regressed (smoke)"), "{rendered}");
        assert!(rendered.contains("trend: OK"), "{rendered}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn improvement_and_noise_are_not_regressions() {
        let root = temp_root("ok");
        write_snapshot(&root.join("results/history/a_bench_t.json"), "t", 2.0e-3, 1.0e-5);
        write_snapshot(&root.join("results/bench_t.json"), "t", 1.0e-3, 1.0e-5);
        let report = scan(&root);
        assert_eq!(report.series[0].verdict(), Verdict::Improved);
        assert!(report.regressions().is_empty());

        // Within noise: shift smaller than 3·(mad_prior + mad_last).
        write_snapshot(&root.join("results/bench_t.json"), "t", 2.02e-3, 0.2e-3);
        let report = scan(&root);
        assert_eq!(report.series[0].verdict(), Verdict::Stable);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn single_point_series_never_flags_and_junk_is_skipped() {
        let root = temp_root("single");
        write_snapshot(&root.join("results/bench_t.json"), "t", 1.0e-3, 1.0e-5);
        std::fs::write(root.join("results/bench_junk.json"), "not json at all").expect("write");
        let report = scan(&root);
        assert_eq!((report.snapshots, report.skipped), (1, 1));
        assert_eq!(report.series[0].verdict(), Verdict::Single);
        assert_eq!(report.series[0].delta_frac(), None);
        assert!(report.regressions().is_empty());
        assert!(report.render().contains("trend: OK"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sparkline_spans_the_range() {
        let s = TrendSeries {
            bench: "b".into(),
            host: UNRECORDED_HOST.into(),
            group: "g".into(),
            label: "l".into(),
            points: [1.0, 4.0, 8.0]
                .iter()
                .map(|&m| TrendPoint { source: "s".into(), median_s: m, mad_s: 0.0 })
                .collect(),
        };
        let line = s.sparkline();
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁') && line.ends_with('█'), "{line}");
        // Flat series renders mid-height, never panics on zero range.
        let flat = TrendSeries {
            points: vec![
                TrendPoint { source: "s".into(), median_s: 1.0, mad_s: 0.0 };
                2
            ],
            ..s
        };
        assert_eq!(flat.sparkline(), "▄▄");
    }
}
