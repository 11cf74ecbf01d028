//! Persistent registry of tuned operators.
//!
//! HEF's offline phase is run once per processor; its output — the winning
//! `(v, s, p)` node per operator — is all a deployment needs ("once we get
//! the optimal implementation of hybrid execution operators, we could use
//! them to implement various queries directly without further training").
//! The registry stores that result in a small, diff-friendly text format:
//!
//! ```text
//! # hef tuned-operator registry v1
//! # cpu: Intel Xeon Silver 4110
//! # isa: avx512
//! murmur = 1 3 2
//! crc64 = 8 0 1
//! ```
//!
//! The **v2** format adds an optional fourth column to the `probe` entry —
//! the tuned software-prefetch depth `f` (`probe = 2 4 3 16`). The v2
//! header is only emitted when a depth is actually recorded, so files
//! written without one remain byte-identical v1 and old readers are never
//! broken; this reader accepts both versions, and pre-`f` probe entries
//! are back-filled by the degradation ladder with the candidate
//! generator's analytic seed ([`crate::candidate::seed_prefetch`]).
//!
//! The **v3** format adds *pipeline rows*: per-query joint configurations
//! keyed by a stable plan fingerprint (the structural hash
//! `hef-engine::StarPlan::fingerprint` computes), one stage per operator in
//! pipeline order plus the shared prefetch depth:
//!
//! ```text
//! pipeline 1f2e3d4c5b6a7980 = filter:1,3,2 probe:2,4,3 agg_sum:1,1,3 f:16
//! ```
//!
//! The v3 header is only emitted when a pipeline row exists, mirroring the
//! v2 rule, so per-op-only files stay byte-identical v2/v1. Consumers walk
//! a **degradation ladder across versions**: a missing or dropped pipeline
//! row falls back to the per-op v2/v1 entries, which in turn fall back to
//! the candidate generator's analytic seeds.
//!
//! Because a production deployment's hot path keys off this file, loading
//! is defensive at two levels:
//!
//! * [`Registry::parse`] is **strict**: malformed lines, unknown or
//!   duplicate families, off-grid `(v, s, p)` triples, and
//!   future-versioned headers are typed [`ParseError`]s.
//! * [`Registry::warm`] applies the **degradation ladder**: a bad or stale
//!   registry never panics and never changes query results. Salvageable
//!   entries are kept; off-grid or stale nodes fall back *per family* to
//!   the candidate generator's analytical pick (§IV.A, Eq. 1–2); every
//!   decision is recorded as a structured [`RegistryIssue`] in the
//!   [`WarmReport`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hef_kernels::{Family, HybridConfig, F_AXIS};

use crate::error::on_grid;
use crate::tuner::{TunedOperator, TunedProbe};

/// A set of tuned nodes, keyed by operator family.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    entries: BTreeMap<&'static str, HybridConfig>,
    /// Tuned prefetch depths (v2 column 4) — today only `probe` carries one.
    prefetch: BTreeMap<&'static str, usize>,
    /// Joint pipeline configurations (v3 rows), keyed by plan fingerprint.
    pipelines: BTreeMap<u64, PipelineEntry>,
    /// Tune-time calibration per family (`# drift:` provenance comments):
    /// predicted (port-simulator) and measured cycles/row of the winning
    /// node, stored as milli-cycles so the registry stays `Eq`. Old readers
    /// skip these lines as ordinary comments — no version bump needed.
    drift: BTreeMap<&'static str, (u64, u64)>,
    /// Free-form provenance line (CPU name, date, …).
    pub cpu: String,
    /// ISA provenance (`avx512`, `avx2`, `emu`): the backend the nodes were
    /// tuned on. Empty when unrecorded (pre-provenance files).
    pub isa: String,
}

/// Errors from [`Registry::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line was not `name = v s p`.
    Malformed { line: usize, text: String },
    /// The family name is unknown.
    UnknownFamily { line: usize, name: String },
    /// The `(v, s, p)` triple is structurally invalid (`v + s == 0` or
    /// `p == 0`).
    InvalidNode { line: usize, v: usize, s: usize, p: usize },
    /// The `(v, s, p)` triple is well-formed but not on the compiled kernel
    /// grid — no kernel exists for it.
    OffGridNode { line: usize, name: String, v: usize, s: usize, p: usize },
    /// The same family appears twice.
    DuplicateFamily { line: usize, name: String },
    /// The version header names a format this build does not understand.
    UnsupportedVersion { line: usize, version: String },
    /// A fourth (prefetch-depth) column this build cannot honour: present
    /// on a family other than `probe`, or off the tuner's `f` axis.
    BadPrefetch { line: usize, name: String, f: usize },
    /// A v3 pipeline row this build cannot honour (bad fingerprint, unknown
    /// stage family, off-grid stage node, off-axis depth, no stages…).
    BadPipeline { line: usize, message: String },
    /// The same plan fingerprint appears twice.
    DuplicatePipeline { line: usize, fingerprint: String },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed { line, text } => {
                write!(f, "line {line}: malformed entry `{text}`")
            }
            ParseError::UnknownFamily { line, name } => {
                write!(f, "line {line}: unknown operator family `{name}`")
            }
            ParseError::InvalidNode { line, v, s, p } => {
                write!(f, "line {line}: invalid node ({v}, {s}, {p})")
            }
            ParseError::OffGridNode { line, name, v, s, p } => {
                write!(f, "line {line}: `{name}` node ({v}, {s}, {p}) is off the compiled grid")
            }
            ParseError::DuplicateFamily { line, name } => {
                write!(f, "line {line}: duplicate entry for family `{name}`")
            }
            ParseError::UnsupportedVersion { line, version } => {
                write!(
                    f,
                    "line {line}: unsupported registry version `{version}` (this build reads v1/v2/v3)"
                )
            }
            ParseError::BadPrefetch { line, name, f: depth } => {
                write!(
                    f,
                    "line {line}: `{name}` prefetch depth {depth} rejected (probe-only; f ∈ {F_AXIS:?})"
                )
            }
            ParseError::BadPipeline { line, message } => {
                write!(f, "line {line}: bad pipeline row: {message}")
            }
            ParseError::DuplicatePipeline { line, fingerprint } => {
                write!(f, "line {line}: duplicate pipeline entry for fingerprint `{fingerprint}`")
            }
        }
    }
}

impl std::error::Error for ParseError {}

fn family_by_name(name: &str) -> Option<Family> {
    Family::ALL.into_iter().find(|f| f.name() == name)
}

/// One joint pipeline configuration (a v3 row): the per-stage hybrid nodes
/// in pipeline order plus the shared probe-prefetch depth `f`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineEntry {
    /// Stages in pipeline order, each with its tuned node.
    pub stages: Vec<(Family, HybridConfig)>,
    /// Shared software-prefetch depth (on [`hef_kernels::F_AXIS`]).
    pub f: usize,
}

impl PipelineEntry {
    /// The tuned node of the first stage of `family`, if present.
    pub fn stage(&self, family: Family) -> Option<HybridConfig> {
        self.stages.iter().find(|(fam, _)| *fam == family).map(|(_, cfg)| *cfg)
    }
}

/// The row body as the registry file spells it: `family:v,s,p … f:<depth>`.
impl std::fmt::Display for PipelineEntry {
    fn fmt(&self, w: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (family, cfg) in &self.stages {
            write!(w, "{}:{},{},{} ", family.name(), cfg.v, cfg.s, cfg.p)?;
        }
        write!(w, "f:{}", self.f)
    }
}

/// Parse a v3 pipeline row body (`<16hex> = family:v,s,p … f:<depth>`).
fn parse_pipeline_row(rest: &str, line_no: usize) -> Result<Line, ParseError> {
    let bad = |message: String| ParseError::BadPipeline { line: line_no, message };
    let (fp, body) = rest
        .split_once('=')
        .ok_or_else(|| bad("expected `pipeline <fingerprint> = …`".to_string()))?;
    let fp = fp.trim();
    let fingerprint = u64::from_str_radix(fp, 16)
        .map_err(|_| bad(format!("bad fingerprint `{fp}` (expected hex)")))?;
    let mut stages = Vec::new();
    let mut depth = None;
    for tok in body.split_whitespace() {
        let (head, tail) = tok
            .split_once(':')
            .ok_or_else(|| bad(format!("bad stage token `{tok}`")))?;
        if head == "f" {
            if depth.is_some() {
                return Err(bad("duplicate `f:` token".to_string()));
            }
            let f: usize = tail
                .parse()
                .map_err(|_| bad(format!("bad depth `{tail}`")))?;
            if !F_AXIS.contains(&f) {
                return Err(bad(format!("depth {f} off the search axis {F_AXIS:?}")));
            }
            depth = Some(f);
            continue;
        }
        let family = family_by_name(head)
            .ok_or_else(|| bad(format!("unknown stage family `{head}`")))?;
        let nums: Vec<usize> = tail
            .split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| bad(format!("bad stage node `{tok}`")))?;
        let [v, s, p] = nums[..] else {
            return Err(bad(format!("stage `{tok}` needs exactly v,s,p")));
        };
        if !on_grid(v, s, p) {
            return Err(bad(format!("stage `{tok}` node ({v}, {s}, {p}) is off the compiled grid")));
        }
        stages.push((family, HybridConfig { v, s, p }));
    }
    if stages.is_empty() {
        return Err(bad("pipeline row has no stages".to_string()));
    }
    Ok(Line::Pipeline(fingerprint, PipelineEntry { stages, f: depth.unwrap_or(0) }))
}

/// One parsed line of the registry format.
enum Line {
    Skip,
    Cpu(String),
    Isa(String),
    Drift(Family, u64, u64),
    Entry(Family, HybridConfig, Option<usize>),
    Pipeline(u64, PipelineEntry),
}

/// Parse one (already `trim`med) line. Shared by the strict and lenient
/// parsers so they cannot drift.
fn parse_line(line: &str, line_no: usize) -> Result<Line, ParseError> {
    if let Some(rest) = line.strip_prefix("# hef tuned-operator registry") {
        let version = rest.trim();
        if version.is_empty() || version == "v1" || version == "v2" || version == "v3" {
            return Ok(Line::Skip);
        }
        return Err(ParseError::UnsupportedVersion {
            line: line_no,
            version: version.to_string(),
        });
    }
    if let Some(cpu) = line.strip_prefix("# cpu:") {
        return Ok(Line::Cpu(cpu.trim().to_string()));
    }
    if let Some(isa) = line.strip_prefix("# isa:") {
        return Ok(Line::Isa(isa.trim().to_string()));
    }
    if let Some(rest) = line.strip_prefix("# drift:") {
        // Calibration provenance: `# drift: <family> = <predicted> <measured>`
        // in milli-cycles/row. Purely informational, so anything malformed
        // degrades to an ordinary comment instead of failing the load.
        if let Some((name, nums)) = rest.split_once('=') {
            if let Some(family) = family_by_name(name.trim()) {
                let vals: Vec<u64> =
                    nums.split_whitespace().filter_map(|t| t.parse().ok()).collect();
                if let [predicted, measured] = vals[..] {
                    return Ok(Line::Drift(family, predicted, measured));
                }
            }
        }
        return Ok(Line::Skip);
    }
    if line.is_empty() || line.starts_with('#') {
        return Ok(Line::Skip);
    }
    if let Some(rest) = line.strip_prefix("pipeline ") {
        return parse_pipeline_row(rest, line_no);
    }
    let (name, rest) = line
        .split_once('=')
        .ok_or_else(|| ParseError::Malformed { line: line_no, text: line.to_string() })?;
    let name = name.trim();
    let family = family_by_name(name)
        .ok_or_else(|| ParseError::UnknownFamily { line: line_no, name: name.to_string() })?;
    let nums: Vec<usize> = rest
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| ParseError::Malformed { line: line_no, text: line.to_string() })?;
    let (v, s, p, pf) = match nums[..] {
        [v, s, p] => (v, s, p, None),
        [v, s, p, f] => (v, s, p, Some(f)),
        _ => return Err(ParseError::Malformed { line: line_no, text: line.to_string() }),
    };
    if v + s == 0 || p == 0 {
        return Err(ParseError::InvalidNode { line: line_no, v, s, p });
    }
    if !on_grid(v, s, p) {
        return Err(ParseError::OffGridNode {
            line: line_no,
            name: name.to_string(),
            v,
            s,
            p,
        });
    }
    if let Some(f) = pf {
        // The depth column is probe-only and must sit on the search axis,
        // mirroring the off-grid rule for (v, s, p).
        if family != Family::Probe || !F_AXIS.contains(&f) {
            return Err(ParseError::BadPrefetch { line: line_no, name: name.to_string(), f });
        }
    }
    Ok(Line::Entry(family, HybridConfig { v, s, p }, pf))
}

impl Registry {
    /// Empty registry with a provenance note.
    pub fn new(cpu: impl Into<String>) -> Registry {
        Registry { cpu: cpu.into(), ..Registry::default() }
    }

    /// Empty registry stamped with this machine's provenance: `cpu` note
    /// plus the native backend name as ISA, so a later [`Registry::warm`]
    /// on different hardware detects the staleness.
    pub fn with_host_provenance(cpu: impl Into<String>) -> Registry {
        Registry {
            cpu: cpu.into(),
            isa: hef_hid::Backend::native().name().to_string(),
            ..Registry::default()
        }
    }

    /// Record a tuned node.
    pub fn insert(&mut self, family: Family, cfg: HybridConfig) {
        self.entries.insert(family.name(), cfg);
    }

    /// Record a tuning result, including its calibration row when the tune
    /// measured this machine.
    pub fn insert_tuned(&mut self, tuned: &TunedOperator) {
        self.insert(tuned.family, tuned.cfg);
        if let Some(d) = &tuned.drift {
            self.insert_drift(tuned.family, d.predicted_cpr, d.measured_cpr);
        }
    }

    /// Record a tune-time calibration row: predicted (port-simulator) and
    /// measured cycles/row, quantized to milli-cycles.
    pub fn insert_drift(&mut self, family: Family, predicted_cpr: f64, measured_cpr: f64) {
        let q = |v: f64| (v.max(0.0) * 1000.0).round() as u64;
        self.drift.insert(family.name(), (q(predicted_cpr), q(measured_cpr)));
    }

    /// Tune-time calibration for a family as `(predicted, measured)`
    /// cycles/row, if recorded.
    pub fn get_drift(&self, family: Family) -> Option<(f64, f64)> {
        let &(p, m) = self.drift.get(family.name())?;
        Some((p as f64 / 1000.0, m as f64 / 1000.0))
    }

    /// Recorded calibration rows as `(family name, predicted, measured)`
    /// cycles/row, in name order.
    pub fn drift_rows(&self) -> impl Iterator<Item = (&'static str, f64, f64)> + '_ {
        self.drift.iter().map(|(&name, &(p, m))| (name, p as f64 / 1000.0, m as f64 / 1000.0))
    }

    /// Record a tuned prefetch depth (v2 column 4; probe-only today).
    pub fn insert_prefetch(&mut self, family: Family, f: usize) {
        self.prefetch.insert(family.name(), f);
    }

    /// Record a probe tuning result: the hybrid shape plus its depth.
    pub fn insert_tuned_probe(&mut self, tuned: &TunedProbe) {
        self.insert(Family::Probe, tuned.node.cfg);
        self.insert_prefetch(Family::Probe, tuned.node.f);
    }

    /// Tuned prefetch depth for a family, if recorded.
    pub fn get_prefetch(&self, family: Family) -> Option<usize> {
        self.prefetch.get(family.name()).copied()
    }

    /// Record a joint pipeline configuration for a plan fingerprint.
    pub fn insert_pipeline(&mut self, fingerprint: u64, entry: PipelineEntry) {
        self.pipelines.insert(fingerprint, entry);
    }

    /// Joint pipeline configuration for a plan fingerprint, if recorded.
    pub fn get_pipeline(&self, fingerprint: u64) -> Option<&PipelineEntry> {
        self.pipelines.get(&fingerprint)
    }

    /// Recorded pipeline rows, in fingerprint order.
    pub fn pipelines(&self) -> impl Iterator<Item = (u64, &PipelineEntry)> {
        self.pipelines.iter().map(|(&fp, e)| (fp, e))
    }

    /// Number of recorded pipeline rows.
    pub fn pipelines_len(&self) -> usize {
        self.pipelines.len()
    }

    /// Tuned node for a family, if recorded.
    pub fn get(&self, family: Family) -> Option<HybridConfig> {
        self.entries.get(family.name()).copied()
    }

    /// Tuned node for a family, falling back to the paper's SSB default
    /// `(1, 1, 3)`.
    pub fn get_or_default(&self, family: Family) -> HybridConfig {
        self.get(family).unwrap_or(HybridConfig { v: 1, s: 1, p: 3 })
    }

    /// Number of recorded families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize to the registry text format. The v2 header (and fourth
    /// column) appear only when a prefetch depth is recorded, and the v3
    /// header only when a pipeline row is recorded, so files without those
    /// features stay byte-identical to the older formats for old readers.
    pub fn to_text(&self) -> String {
        let version = if !self.pipelines.is_empty() {
            "v3"
        } else if !self.prefetch.is_empty() {
            "v2"
        } else {
            "v1"
        };
        let mut out = format!("# hef tuned-operator registry {version}\n");
        if !self.cpu.is_empty() {
            let _ = writeln!(out, "# cpu: {}", self.cpu);
        }
        if !self.isa.is_empty() {
            let _ = writeln!(out, "# isa: {}", self.isa);
        }
        for (name, (p, m)) in &self.drift {
            let _ = writeln!(out, "# drift: {name} = {p} {m}");
        }
        for (name, cfg) in &self.entries {
            match self.prefetch.get(name) {
                Some(f) => {
                    let _ = writeln!(out, "{name} = {} {} {} {f}", cfg.v, cfg.s, cfg.p);
                }
                None => {
                    let _ = writeln!(out, "{name} = {} {} {}", cfg.v, cfg.s, cfg.p);
                }
            }
        }
        for (fp, e) in &self.pipelines {
            let _ = writeln!(out, "pipeline {fp:016x} = {e}");
        }
        out
    }

    /// Parse the registry text format, strictly: the first problem is a
    /// typed error. Comments (`#`) and blank lines are ignored; `# cpu:` and
    /// `# isa:` comments are captured as provenance; CRLF line endings and
    /// trailing whitespace are tolerated.
    pub fn parse(text: &str) -> Result<Registry, ParseError> {
        let mut reg = Registry::default();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            match parse_line(raw.trim(), line_no)? {
                Line::Skip => {}
                Line::Cpu(cpu) => reg.cpu = cpu,
                Line::Isa(isa) => reg.isa = isa,
                Line::Drift(family, p, m) => {
                    reg.drift.insert(family.name(), (p, m));
                }
                Line::Entry(family, cfg, pf) => {
                    if reg.entries.contains_key(family.name()) {
                        return Err(ParseError::DuplicateFamily {
                            line: line_no,
                            name: family.name().to_string(),
                        });
                    }
                    reg.insert(family, cfg);
                    if let Some(f) = pf {
                        reg.insert_prefetch(family, f);
                    }
                }
                Line::Pipeline(fp, entry) => {
                    if reg.pipelines.contains_key(&fp) {
                        return Err(ParseError::DuplicatePipeline {
                            line: line_no,
                            fingerprint: format!("{fp:016x}"),
                        });
                    }
                    reg.insert_pipeline(fp, entry);
                }
            }
        }
        Ok(reg)
    }

    /// Parse leniently: salvage every valid line, report every bad one.
    /// Duplicates keep the **first** occurrence (the strict parser's
    /// winner). A future-versioned header aborts salvage — the rest of the
    /// file speaks a format this build does not know.
    pub fn parse_lenient(text: &str) -> (Registry, Vec<RegistryIssue>) {
        let mut reg = Registry::default();
        let mut issues = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            match parse_line(raw.trim(), line_no) {
                Ok(Line::Skip) => {}
                Ok(Line::Cpu(cpu)) => reg.cpu = cpu,
                Ok(Line::Isa(isa)) => reg.isa = isa,
                Ok(Line::Drift(family, p, m)) => {
                    reg.drift.insert(family.name(), (p, m));
                }
                Ok(Line::Entry(family, cfg, pf)) => {
                    if reg.entries.contains_key(family.name()) {
                        issues.push(RegistryIssue::BadLine {
                            error: ParseError::DuplicateFamily {
                                line: line_no,
                                name: family.name().to_string(),
                            },
                        });
                    } else {
                        reg.insert(family, cfg);
                        if let Some(f) = pf {
                            reg.insert_prefetch(family, f);
                        }
                    }
                }
                Ok(Line::Pipeline(fp, entry)) => {
                    if reg.pipelines.contains_key(&fp) {
                        issues.push(RegistryIssue::BadLine {
                            error: ParseError::DuplicatePipeline {
                                line: line_no,
                                fingerprint: format!("{fp:016x}"),
                            },
                        });
                    } else {
                        reg.insert_pipeline(fp, entry);
                    }
                }
                Err(e @ ParseError::UnsupportedVersion { .. }) => {
                    return (Registry::default(), vec![RegistryIssue::BadLine { error: e }]);
                }
                Err(e) => issues.push(RegistryIssue::BadLine { error: e }),
            }
        }
        (reg, issues)
    }

    /// Write to a file, atomically: the text lands in a same-directory
    /// staging file first and is `rename`d into place, so a crash or
    /// cancelled query mid-save can never leave a torn registry behind.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        hef_testutil::atomic_write(path, self.to_text().as_bytes())
    }

    /// Read from a file (strict parse), as a typed [`HefError`].
    ///
    /// [`HefError`]: crate::HefError
    pub fn try_load(path: &Path) -> Result<Registry, crate::HefError> {
        let text = std::fs::read_to_string(path).map_err(|e| crate::HefError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Registry::parse(&text).map_err(crate::HefError::from)
    }

    /// Read from a file (strict parse), as `std::io::Result` for callers on
    /// the I/O seam.
    pub fn load(path: &Path) -> std::io::Result<Registry> {
        let text = std::fs::read_to_string(path)?;
        Registry::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Process-wide warmed registry, loaded once at first use.
    ///
    /// If `HEF_REGISTRY` names a registry file it is loaded through the
    /// degradation ladder (see [`Registry::warm_report`]); otherwise the
    /// registry is empty and [`Registry::get_or_default`] serves the
    /// paper's SSB optimum `(1, 1, 3)` for every family. Engines and
    /// benches call this at startup so repeat queries never re-tune or
    /// re-read the file. Every node served by the warmed registry is
    /// guaranteed to be on the compiled kernel grid.
    pub fn warm() -> &'static Registry {
        &Registry::warm_report().0
    }

    /// [`Registry::warm`] plus the structured [`WarmReport`] of everything
    /// the degradation ladder did:
    ///
    /// 1. unreadable file → empty registry (defaults serve every family);
    /// 2. future-versioned file → same;
    /// 3. bad lines (malformed / unknown / duplicate / off-grid) → line
    ///    dropped; off-grid families fall back to the candidate generator's
    ///    analytical pick;
    /// 4. stale ISA provenance (`# isa:` differs from the running backend)
    ///    → **every** recorded node replaced by the analytical pick.
    ///
    /// Since every grid node computes identical results, none of these
    /// degradations can change a query's output — only its speed.
    pub fn warm_report() -> &'static (Registry, WarmReport) {
        static WARM: std::sync::OnceLock<(Registry, WarmReport)> = std::sync::OnceLock::new();
        WARM.get_or_init(|| {
            let _span = hef_obs::span!("registry_warm");
            let (reg, report) = match std::env::var("HEF_REGISTRY") {
                Ok(path) if !path.trim().is_empty() => Registry::load_degraded(Path::new(&path)),
                _ => (Registry::default(), WarmReport::default()),
            };
            (reg, report)
        })
    }

    /// The degradation ladder on one file: never fails, returns the best
    /// salvageable registry plus the issue log. Fault injection
    /// (`HEF_FAULT=registry:…`) corrupts the text between read and parse.
    pub fn load_degraded(path: &Path) -> (Registry, WarmReport) {
        let _span =
            hef_obs::trace::span_begin_labeled("registry_load", &path.to_string_lossy(), &[]);
        hef_obs::metrics::add(hef_obs::metrics::Metric::RegistryLoads, 1);
        let mut report = WarmReport { source: Some(path.display().to_string()), issues: vec![] };
        // Reads go through the fault layer so HEF_FAULT=torn:/short: clauses
        // exercise this ladder; a torn tail is lossily decoded and its
        // garbage lines fall to the lenient parser below.
        let text = match hef_testutil::fault::read_file(path) {
            Ok((bytes, _mangled)) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) => {
                report.issues.push(RegistryIssue::Unreadable {
                    path: path.display().to_string(),
                    message: e.to_string(),
                });
                report.emit_diagnostics();
                return (Registry::default(), report);
            }
        };
        let text = hef_testutil::fault::corrupt_registry(&text).unwrap_or(text);
        let (mut reg, issues) = Registry::parse_lenient(&text);
        report.issues = issues;

        // Families whose recorded node was dropped fall back to the
        // analytical pick (Eq. 1–2) for this host.
        let mut fallback_families: Vec<Family> = report
            .issues
            .iter()
            .filter_map(|i| match i {
                RegistryIssue::BadLine {
                    error: ParseError::OffGridNode { name, .. },
                } => family_by_name(name),
                _ => None,
            })
            .collect();

        // Stale ISA: the whole file was tuned for a different backend. The
        // recorded prefetch depth is dropped too — it was balanced against
        // another machine's miss latency — and re-seeded below. Pipeline
        // rows are cleared outright: a joint configuration is even more
        // machine-specific than a per-op node, and dropping a row just
        // walks consumers one rung down the ladder (per-op entries).
        let current_isa = hef_hid::Backend::native().name();
        if !reg.isa.is_empty() && reg.isa != current_isa {
            report.issues.push(RegistryIssue::StaleIsa {
                recorded: reg.isa.clone(),
                current: current_isa.to_string(),
            });
            fallback_families
                .extend(Family::ALL.into_iter().filter(|f| reg.get(*f).is_some()));
            reg.isa = current_isa.to_string();
            reg.prefetch.clear();
            reg.pipelines.clear();
            // Calibration rows pair a simulator prediction with *that*
            // machine's cycle counter; on new hardware they say nothing.
            reg.drift.clear();
        }

        fallback_families.sort_by_key(|f| f.name());
        fallback_families.dedup_by_key(|f| f.name());
        let model = hef_uarch::CpuModel::host();
        for family in fallback_families {
            let template = crate::templates::for_family(family);
            let node = crate::candidate::initial_candidate(&model, &template);
            report.issues.push(RegistryIssue::Fallback { family: family.name(), node });
            reg.insert(family, node);
        }

        // Pre-`f` (v1) probe entries: the shape is trusted but no prefetch
        // depth was ever tuned. Seed one analytically at a canonical
        // DRAM-resident working set so memory-bound probes are not left at
        // the serialized `f = 0` this field was introduced to escape.
        if reg.get(Family::Probe).is_some() && reg.get_prefetch(Family::Probe).is_none() {
            let f = crate::candidate::seed_prefetch(
                &model,
                &crate::templates::probe(),
                SEED_PREFETCH_WORKING_SET,
            );
            reg.insert_prefetch(Family::Probe, f);
            report.issues.push(RegistryIssue::SeededPrefetch { f });
        }
        report.emit_diagnostics();
        (reg, report)
    }
}

/// Canonical working set used when the ladder seeds a prefetch depth for a
/// pre-`f` registry: 64 MiB — comfortably past any LLC we model, i.e. the
/// regime where the depth matters.
const SEED_PREFETCH_WORKING_SET: u64 = 64 << 20;

/// One structured warning from the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryIssue {
    /// The file could not be read at all.
    Unreadable { path: String, message: String },
    /// A line was dropped (with the strict parser's diagnosis).
    BadLine { error: ParseError },
    /// The recorded ISA does not match the running backend.
    StaleIsa { recorded: String, current: String },
    /// A family was re-pointed at the candidate generator's analytical pick.
    Fallback { family: &'static str, node: HybridConfig },
    /// A pre-`f` probe entry had its prefetch depth seeded analytically.
    SeededPrefetch { f: usize },
}

impl std::fmt::Display for RegistryIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryIssue::Unreadable { path, message } => {
                write!(f, "{path}: {message}; using default nodes")
            }
            RegistryIssue::BadLine { error } => write!(f, "{error}; line dropped"),
            RegistryIssue::StaleIsa { recorded, current } => write!(
                f,
                "tuned for isa `{recorded}` but running on `{current}`; re-deriving nodes"
            ),
            RegistryIssue::Fallback { family, node } => {
                write!(f, "{family}: falling back to analytical candidate {node}")
            }
            RegistryIssue::SeededPrefetch { f: depth } => {
                write!(f, "probe: pre-f registry entry; seeded prefetch depth {depth}")
            }
        }
    }
}

/// Everything [`Registry::warm`] did to arrive at the served registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmReport {
    /// The `HEF_REGISTRY` path, when one was consulted.
    pub source: Option<String>,
    /// Ladder decisions, in occurrence order.
    pub issues: Vec<RegistryIssue>,
}

impl WarmReport {
    /// `true` when the registry loaded cleanly (or no file was requested).
    ///
    /// [`RegistryIssue::SeededPrefetch`] does not count against cleanliness:
    /// a v1 file with no `f` column is a valid registry from before the
    /// prefetch dimension existed, and backfilling an analytic depth is a
    /// benign upgrade, not a degradation. It still appears in `issues` so
    /// diagnostics and counters surface it.
    pub fn is_clean(&self) -> bool {
        self.issues
            .iter()
            .all(|i| matches!(i, RegistryIssue::SeededPrefetch { .. }))
    }

    /// Route every ladder decision through the `hef_obs` sink: a `diag`
    /// warning (capturable in tests), a trace instant, and the registry
    /// counters. Called once per `load_degraded`.
    fn emit_diagnostics(&self) {
        use hef_obs::metrics::{add, Metric};
        for issue in &self.issues {
            hef_obs::diag::warn(format!("registry: {issue}"));
            hef_obs::trace::instant_labeled("registry_issue", &issue.to_string(), &[]);
            match issue {
                RegistryIssue::BadLine { .. } => add(Metric::RegistryLinesDropped, 1),
                RegistryIssue::Fallback { .. } | RegistryIssue::SeededPrefetch { .. } => {
                    add(Metric::RegistryFallbacks, 1)
                }
                RegistryIssue::StaleIsa { .. } => add(Metric::RegistryStaleIsa, 1),
                RegistryIssue::Unreadable { .. } => {}
            }
        }
    }

    /// Number of families degraded to the analytical pick.
    pub fn fallbacks(&self) -> usize {
        self.issues
            .iter()
            .filter(|i| matches!(i, RegistryIssue::Fallback { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_kernels::{P_AXIS, S_AXIS, V_AXIS};

    fn sample() -> Registry {
        let mut r = Registry::new("Intel Xeon Silver 4110");
        r.insert(Family::Murmur, HybridConfig::new(1, 3, 2));
        r.insert(Family::Crc64, HybridConfig::new(8, 0, 1));
        r
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let mut r = sample();
        r.isa = "avx512".into();
        let parsed = Registry::parse(&r.to_text()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.cpu, "Intel Xeon Silver 4110");
        assert_eq!(parsed.isa, "avx512");
        assert_eq!(parsed.get(Family::Murmur), Some(HybridConfig::new(1, 3, 2)));
    }

    #[test]
    fn drift_rows_roundtrip_and_stay_comments_for_old_readers() {
        let mut r = sample();
        r.insert_drift(Family::Murmur, 2.451, 3.12);
        let text = r.to_text();
        // Still a v1 file: drift is provenance, not a format feature.
        assert!(text.starts_with("# hef tuned-operator registry v1"));
        assert!(text.contains("# drift: murmur = 2451 3120"), "{text}");
        let parsed = Registry::parse(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.get_drift(Family::Murmur), Some((2.451, 3.12)));
        assert_eq!(parsed.get_drift(Family::Crc64), None);
        assert_eq!(parsed.drift_rows().count(), 1);
        // Malformed drift comments degrade to ordinary comments.
        let (lenient, issues) =
            Registry::parse_lenient("# drift: murmur = nonsense\nmurmur = 1 3 2\n");
        assert!(issues.is_empty());
        assert_eq!(lenient.get_drift(Family::Murmur), None);
        assert_eq!(lenient.get(Family::Murmur), Some(HybridConfig::new(1, 3, 2)));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hef-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuned.txt");
        let r = sample();
        r.save(&path).unwrap();
        assert_eq!(Registry::load(&path).unwrap(), r);
        assert_eq!(Registry::try_load(&path).unwrap(), r);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn try_load_types_the_io_error() {
        let e = Registry::try_load(Path::new("/nonexistent/registry.txt")).unwrap_err();
        assert!(matches!(e, crate::HefError::Io { .. }));
        assert!(e.to_string().contains("/nonexistent/registry.txt"));
    }

    #[test]
    fn defaults_for_missing_families() {
        let r = sample();
        assert_eq!(r.get(Family::Probe), None);
        assert_eq!(r.get_or_default(Family::Probe), HybridConfig::new(1, 1, 3));
        assert_eq!(r.get_or_default(Family::Crc64), HybridConfig::new(8, 0, 1));
    }

    #[test]
    fn parse_errors_are_specific() {
        assert!(matches!(
            Registry::parse("murmur 1 3 2"),
            Err(ParseError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            Registry::parse("bogus = 1 1 1"),
            Err(ParseError::UnknownFamily { line: 1, .. })
        ));
        assert!(matches!(
            Registry::parse("murmur = 0 0 2"),
            Err(ParseError::InvalidNode { line: 1, v: 0, s: 0, p: 2 })
        ));
        assert!(matches!(
            Registry::parse("murmur = 1 2"),
            Err(ParseError::Malformed { .. })
        ));
    }

    #[test]
    fn off_grid_nodes_rejected() {
        // v=3 is not on V_AXIS even though 3 is a valid s value.
        assert!(!V_AXIS.contains(&3));
        assert!(matches!(
            Registry::parse("murmur = 3 1 2"),
            Err(ParseError::OffGridNode { line: 1, v: 3, s: 1, p: 2, .. })
        ));
        // p=7 off P_AXIS, s=9 off S_AXIS.
        assert!(!P_AXIS.contains(&7) && !S_AXIS.contains(&9));
        assert!(matches!(
            Registry::parse("crc64 = 1 1 7"),
            Err(ParseError::OffGridNode { .. })
        ));
        assert!(matches!(
            Registry::parse("crc64 = 1 9 1"),
            Err(ParseError::OffGridNode { .. })
        ));
    }

    #[test]
    fn duplicate_families_rejected() {
        let e = Registry::parse("murmur = 1 3 2\nmurmur = 1 1 1").unwrap_err();
        assert!(matches!(e, ParseError::DuplicateFamily { line: 2, .. }), "{e}");
    }

    #[test]
    fn crlf_and_trailing_whitespace_tolerated() {
        let text = "# hef tuned-operator registry v1\r\n# cpu: Xeon\r\nmurmur = 1 3 2  \r\n\r\n";
        let r = Registry::parse(text).unwrap();
        assert_eq!(r.cpu, "Xeon");
        assert_eq!(r.get(Family::Murmur), Some(HybridConfig::new(1, 3, 2)));
    }

    #[test]
    fn future_version_header_is_a_clear_error() {
        let e = Registry::parse("# hef tuned-operator registry v4\nmurmur = 1 3 2").unwrap_err();
        assert!(
            matches!(e, ParseError::UnsupportedVersion { line: 1, ref version } if version == "v4"),
            "{e}"
        );
        assert!(e.to_string().contains("this build reads v1"));
        // v1, v2, v3, and the bare legacy header all parse.
        assert!(Registry::parse("# hef tuned-operator registry v1").is_ok());
        assert!(Registry::parse("# hef tuned-operator registry v2").is_ok());
        assert!(Registry::parse("# hef tuned-operator registry v3").is_ok());
        assert!(Registry::parse("# hef tuned-operator registry").is_ok());
    }

    fn sample_pipeline() -> PipelineEntry {
        PipelineEntry {
            stages: vec![
                (Family::Filter, HybridConfig::new(1, 3, 2)),
                (Family::Probe, HybridConfig::new(2, 4, 3)),
                (Family::Gather, HybridConfig::new(1, 1, 3)),
                (Family::AggSum, HybridConfig::new(1, 1, 3)),
            ],
            f: 16,
        }
    }

    #[test]
    fn v3_roundtrip_preserves_pipeline_rows() {
        let mut r = sample();
        r.insert_pipeline(0x1f2e_3d4c_5b6a_7980, sample_pipeline());
        let text = r.to_text();
        assert!(text.starts_with("# hef tuned-operator registry v3\n"), "{text}");
        assert!(
            text.contains(
                "pipeline 1f2e3d4c5b6a7980 = filter:1,3,2 probe:2,4,3 gather:1,1,3 agg_sum:1,1,3 f:16"
            ),
            "{text}"
        );
        let parsed = Registry::parse(&text).unwrap();
        assert_eq!(parsed, r);
        let e = parsed.get_pipeline(0x1f2e_3d4c_5b6a_7980).expect("row recorded");
        assert_eq!(e.f, 16);
        assert_eq!(e.stage(Family::Probe), Some(HybridConfig::new(2, 4, 3)));
        assert_eq!(e.stage(Family::Murmur), None);
        assert_eq!(parsed.pipelines_len(), 1);
        assert_eq!(parsed.get_pipeline(0xdead_beef), None);
    }

    #[test]
    fn registries_without_pipelines_never_write_v3() {
        let mut r = sample();
        r.insert_prefetch(Family::Probe, 16);
        r.insert(Family::Probe, HybridConfig::new(2, 4, 3));
        assert!(r.to_text().starts_with("# hef tuned-operator registry v2\n"));
    }

    #[test]
    fn bad_pipeline_rows_are_typed_errors() {
        // Bad fingerprint.
        let e = Registry::parse("pipeline zz = probe:1,1,3 f:0").unwrap_err();
        assert!(matches!(e, ParseError::BadPipeline { line: 1, .. }), "{e}");
        // Unknown stage family.
        let e = Registry::parse("pipeline 1 = bogus:1,1,3 f:0").unwrap_err();
        assert!(e.to_string().contains("unknown stage family"), "{e}");
        // Off-grid stage node.
        let e = Registry::parse("pipeline 1 = probe:3,1,2 f:0").unwrap_err();
        assert!(e.to_string().contains("off the compiled grid"), "{e}");
        // Off-axis depth.
        let e = Registry::parse("pipeline 1 = probe:1,1,3 f:7").unwrap_err();
        assert!(e.to_string().contains("off the search axis"), "{e}");
        // No stages.
        let e = Registry::parse("pipeline 1 = f:16").unwrap_err();
        assert!(e.to_string().contains("no stages"), "{e}");
        // Duplicate fingerprint.
        let e = Registry::parse("pipeline 1 = probe:1,1,3 f:0\npipeline 01 = filter:1,1,3 f:0")
            .unwrap_err();
        assert!(matches!(e, ParseError::DuplicatePipeline { line: 2, .. }), "{e}");
    }

    #[test]
    fn lenient_parse_drops_bad_pipeline_rows_and_keeps_the_rest() {
        let text = "murmur = 1 3 2\npipeline zz = probe:1,1,3 f:0\npipeline 2a = probe:2,4,3 f:16\n";
        let (reg, issues) = Registry::parse_lenient(text);
        assert_eq!(reg.get(Family::Murmur), Some(HybridConfig::new(1, 3, 2)));
        assert_eq!(reg.pipelines_len(), 1);
        assert!(reg.get_pipeline(0x2a).is_some());
        assert_eq!(issues.len(), 1);
        assert!(issues.iter().any(|i| matches!(
            i,
            RegistryIssue::BadLine { error: ParseError::BadPipeline { .. } }
        )));
    }

    #[test]
    fn truncated_v3_file_degrades_to_per_op_entries() {
        // A v3 file cut mid-pipeline-row (e.g. a torn write): the ladder
        // must keep the per-op entries and drop the mangled pipeline row,
        // so consumers fall back one rung (pipeline → per-op).
        let dir = std::env::temp_dir().join("hef-registry-v3trunc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.txt");
        let mut r = Registry::new("test rig");
        r.insert(Family::Probe, HybridConfig::new(2, 4, 3));
        r.insert_prefetch(Family::Probe, 16);
        r.insert_pipeline(0xabcd, sample_pipeline());
        let full = r.to_text();
        // Cut mid-token ("gather" → "gat"): the torn row must not parse.
        let cut = full.rfind("gather").unwrap() + 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (reg, report) = Registry::load_degraded(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(reg.pipelines_len(), 0, "mangled pipeline row must drop");
        assert_eq!(reg.get(Family::Probe), Some(HybridConfig::new(2, 4, 3)));
        assert_eq!(reg.get_prefetch(Family::Probe), Some(16));
        assert!(!report.is_clean());
    }

    #[test]
    fn stale_isa_clears_pipeline_rows() {
        let dir = std::env::temp_dir().join("hef-registry-v3stale-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale3.txt");
        let mut r = Registry::new("elsewhere");
        r.isa = "punchcards".into();
        r.insert(Family::Probe, HybridConfig::new(2, 4, 3));
        r.insert_pipeline(7, sample_pipeline());
        r.save(&path).unwrap();
        let (reg, report) = Registry::load_degraded(&path);
        std::fs::remove_file(&path).ok();
        assert!(report.issues.iter().any(|i| matches!(i, RegistryIssue::StaleIsa { .. })));
        assert_eq!(reg.pipelines_len(), 0, "stale pipelines must not survive");
        assert!(reg.get(Family::Probe).is_some(), "per-op entry re-derived, not dropped");
    }

    #[test]
    fn v2_roundtrip_preserves_prefetch_depth() {
        let mut r = sample();
        r.insert(Family::Probe, HybridConfig::new(2, 4, 3));
        r.insert_prefetch(Family::Probe, 16);
        let text = r.to_text();
        assert!(text.starts_with("# hef tuned-operator registry v2\n"), "{text}");
        assert!(text.contains("probe = 2 4 3 16"), "{text}");
        let parsed = Registry::parse(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.get_prefetch(Family::Probe), Some(16));
        // Families without a depth stay three-column.
        assert!(text.contains("murmur = 1 3 2\n"), "{text}");
        assert_eq!(parsed.get_prefetch(Family::Murmur), None);
    }

    #[test]
    fn registries_without_prefetch_stay_v1_on_disk() {
        // Old readers never see a v2 header unless a depth was tuned.
        let text = sample().to_text();
        assert!(text.starts_with("# hef tuned-operator registry v1\n"), "{text}");
        assert!(!text.contains(" v2"));
    }

    #[test]
    fn bad_prefetch_column_is_a_typed_error() {
        // The depth column is probe-only…
        let e = Registry::parse("murmur = 1 3 2 16").unwrap_err();
        assert!(
            matches!(e, ParseError::BadPrefetch { line: 1, f: 16, .. }),
            "{e}"
        );
        assert!(e.to_string().contains("probe-only"), "{e}");
        // …and must sit on the search axis (7 is not).
        let e = Registry::parse("probe = 1 1 3 7").unwrap_err();
        assert!(matches!(e, ParseError::BadPrefetch { f: 7, .. }), "{e}");
        // Five columns are plain malformed.
        assert!(matches!(
            Registry::parse("probe = 1 1 3 16 2"),
            Err(ParseError::Malformed { .. })
        ));
        // The lenient parser salvages the rest of the file around one.
        let (reg, issues) = Registry::parse_lenient("murmur = 1 3 2 16\ncrc64 = 8 0 1\n");
        assert_eq!(reg.get(Family::Crc64), Some(HybridConfig::new(8, 0, 1)));
        assert_eq!(reg.get(Family::Murmur), None);
        assert_eq!(issues.len(), 1);
    }

    #[test]
    fn pre_prefetch_probe_entry_gets_seeded_by_the_ladder() {
        let dir = std::env::temp_dir().join("hef-registry-seedf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1-probe.txt");
        std::fs::write(
            &path,
            "# hef tuned-operator registry v1\nprobe = 2 4 3\nmurmur = 1 3 2\n",
        )
        .unwrap();
        let (reg, report) = Registry::load_degraded(&path);
        std::fs::remove_file(&path).ok();
        // The recorded shape is trusted as-is…
        assert_eq!(reg.get(Family::Probe), Some(HybridConfig::new(2, 4, 3)));
        // …but a depth was seeded, on the axis, and the decision logged.
        let f = reg.get_prefetch(Family::Probe).expect("ladder seeds a depth");
        assert!(F_AXIS.contains(&f), "seeded {f}");
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, RegistryIssue::SeededPrefetch { .. })));
        // Non-probe families are untouched by the seeding rule.
        assert_eq!(reg.get_prefetch(Family::Murmur), None);
    }

    #[test]
    fn tuned_v2_registry_loads_cleanly_through_the_ladder() {
        let dir = std::env::temp_dir().join("hef-registry-v2clean-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.txt");
        let mut r = Registry::new("test rig");
        r.insert(Family::Probe, HybridConfig::new(2, 4, 3));
        r.insert_prefetch(Family::Probe, 32);
        r.save(&path).unwrap();
        let (reg, report) = Registry::load_degraded(&path);
        std::fs::remove_file(&path).ok();
        assert!(report.is_clean(), "{:?}", report.issues);
        assert_eq!(reg.get_prefetch(Family::Probe), Some(32));
    }

    #[test]
    fn lenient_parse_salvages_good_lines() {
        let text = "murmur = 1 3 2\nbogus = 1 1 1\ncrc64 = 3 1 1\nprobe = 1 1 2\nmurmur = 2 2 2\n";
        let (reg, issues) = Registry::parse_lenient(text);
        // murmur (first), probe kept; bogus unknown, crc64 off-grid, murmur dup dropped.
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(Family::Murmur), Some(HybridConfig::new(1, 3, 2)));
        assert_eq!(reg.get(Family::Probe), Some(HybridConfig::new(1, 1, 2)));
        assert_eq!(issues.len(), 3);
        assert!(issues.iter().any(|i| matches!(
            i,
            RegistryIssue::BadLine { error: ParseError::OffGridNode { .. } }
        )));
    }

    #[test]
    fn lenient_parse_aborts_on_future_version() {
        let (reg, issues) = Registry::parse_lenient("# hef tuned-operator registry v9\nmurmur = 1 3 2\n");
        assert!(reg.is_empty());
        assert_eq!(issues.len(), 1);
    }

    #[test]
    fn degraded_load_replaces_off_grid_with_analytical_pick() {
        let dir = std::env::temp_dir().join("hef-registry-degraded-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("offgrid.txt");
        std::fs::write(&path, "murmur = 3 1 2\ncrc64 = 8 0 1\n").unwrap();
        let (reg, report) = Registry::load_degraded(&path);
        std::fs::remove_file(&path).ok();
        // crc64 survives untouched; murmur falls back to an on-grid pick.
        assert_eq!(reg.get(Family::Crc64), Some(HybridConfig::new(8, 0, 1)));
        let murmur = reg.get(Family::Murmur).expect("fallback node recorded");
        assert!(on_grid(murmur.v, murmur.s, murmur.p));
        assert_eq!(report.fallbacks(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn degraded_load_handles_missing_file() {
        let (reg, report) = Registry::load_degraded(Path::new("/nonexistent/tuned.txt"));
        assert!(reg.is_empty());
        assert!(matches!(report.issues[0], RegistryIssue::Unreadable { .. }));
        // Defaults still serve every family.
        assert_eq!(reg.get_or_default(Family::Probe), HybridConfig::new(1, 1, 3));
    }

    #[test]
    fn stale_isa_rederives_every_recorded_family() {
        let dir = std::env::temp_dir().join("hef-registry-stale-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.txt");
        // No real backend is named `punchcards`.
        std::fs::write(&path, "# isa: punchcards\nmurmur = 1 3 2\ncrc64 = 8 0 1\n").unwrap();
        let (reg, report) = Registry::load_degraded(&path);
        std::fs::remove_file(&path).ok();
        assert!(report.issues.iter().any(|i| matches!(i, RegistryIssue::StaleIsa { .. })));
        assert_eq!(report.fallbacks(), 2);
        assert_eq!(reg.isa, hef_hid::Backend::native().name());
        for f in [Family::Murmur, Family::Crc64] {
            let n = reg.get(f).expect("replaced, not dropped");
            assert!(on_grid(n.v, n.s, n.p));
        }
    }

    #[test]
    fn host_provenance_matches_native_backend() {
        let r = Registry::with_host_provenance("this machine");
        assert_eq!(r.isa, hef_hid::Backend::native().name());
        let parsed = Registry::parse(&r.to_text()).unwrap();
        assert_eq!(parsed.isa, r.isa);
    }

    #[test]
    fn warm_is_idempotent() {
        // Two calls return the same allocation: load happens once.
        let a = Registry::warm() as *const Registry;
        let b = Registry::warm() as *const Registry;
        assert_eq!(a, b);
        if std::env::var_os("HEF_REGISTRY").is_none() {
            // Without HEF_REGISTRY every family serves the SSB default.
            assert_eq!(
                Registry::warm().get_or_default(Family::Probe),
                HybridConfig::new(1, 1, 3)
            );
            assert!(Registry::warm_report().1.is_clean());
        }
        // Whatever the ladder decided, every served node is on-grid.
        for f in Family::ALL {
            let n = Registry::warm().get_or_default(f);
            assert!(on_grid(n.v, n.s, n.p), "{}: {n}", f.name());
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# comment\n\nmurmur = 2 2 2\n# trailing\n";
        let r = Registry::parse(text).unwrap();
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }
}
