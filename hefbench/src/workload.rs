//! The workloads: set-up, one request, and the answers requests are checked
//! against.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hef_core::{Family, Registry, WarmReport};
use hef_engine::{
    apply_pipeline_entry, lower, optimize, parse_plan, render_plan, try_execute_star,
    try_execute_star_paged_ctx, ExecConfig, ExecStats, PagedTable, QueryCtx, StarPlan,
};
use hef_ssb::{catalog, generate, logical_plan, QueryId, SsbData};
use hef_storage::{save_paged_column, PageCache, Table};
use hef_testutil::Rng;

/// The committed tuned registry, relative to the repository root.
pub const REGISTRY_PATH: &str = "results/tuned.txt";
/// Page geometry of the paged fact table: the engine's 256 KiB default.
pub const PAGE_BYTES: u32 = 256 << 10;
/// The paged workload's private page cache, below the fact table's 72 MiB
/// compressed size so evictions happen in steady state.
pub const CACHE_BYTES: usize = 48 << 20;
/// Where the paged workload writes its fact table, relative to the root.
pub const SCRATCH_DIR: &str = ".hefbench";

/// Where the fact table lives while requests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Memory,
    Paged,
}

/// One workload: a data size, a thread count, a storage layer, and whether
/// each request plans its query from text.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub sf: f64,
    pub threads: usize,
    pub adhoc: bool,
    pub storage: Storage,
}

/// Why each workload exists is recorded in `hefbench/README.md`. The ad hoc
/// workload runs by name but is not listed in `BENCHMARK.json`: its run-to-run
/// spread on a shared 2-vCPU host exceeds the widest bound the benchmark
/// may set (the README has the figures).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ssb-adhoc-sf0.05",
        sf: 0.05,
        threads: 1,
        adhoc: true,
        storage: Storage::Memory,
    },
    Workload {
        name: "ssb-mem-sf1-t2",
        sf: 1.0,
        threads: 2,
        adhoc: false,
        storage: Storage::Memory,
    },
    Workload {
        name: "ssb-paged-sf1-t2",
        sf: 1.0,
        threads: 2,
        adhoc: false,
        storage: Storage::Paged,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Time spent in each set-up step; `total_s` is what a user waits before
/// the first request can be served.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    pub total_s: f64,
    pub gen_s: f64,
    pub registry_ms: f64,
    /// Per-query planning times of the prepared plans (empty for ad hoc).
    pub parse_ms: Vec<f64>,
    pub optimize_ms: Vec<f64>,
    pub lower_ms: Vec<f64>,
    pub write_s: f64,
    pub open_ms: f64,
    pub disk_bytes: u64,
    pub raw_bytes: u64,
}

/// A directory removed when dropped, with its parent when that is left
/// empty.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The paged fact table, its private cache, and the directory holding it.
pub struct Paged {
    pub table: PagedTable,
    pub cache: PageCache,
    _dir: ScratchDir,
}

/// A system ready to serve one workload's requests.
pub struct System {
    pub workload: &'static Workload,
    pub data: SsbData,
    /// The query text of each request, in `QueryId::ALL` order.
    pub texts: Vec<String>,
    /// Prepared plans in `QueryId::ALL` order (ad hoc requests plan anew).
    pub plans: Vec<StarPlan>,
    pub registry: Registry,
    pub registry_report: WarmReport,
    /// Per-op tuned config from the registry, at the workload's threads.
    pub base: ExecConfig,
    pub paged: Option<Paged>,
}

/// One served request.
pub struct Response {
    pub groups: Vec<u64>,
    pub stats: ExecStats,
    /// Parse, optimize and lower time (zero for prepared plans).
    pub plan_ms: [f64; 3],
    pub exec_ms: f64,
}

/// The hybrid flavor as shipped: per-family nodes and the probe prefetch
/// depth from the registry, falling back to the paper's (1,1,3) node.
fn per_op_config(reg: &Registry, threads: usize) -> ExecConfig {
    let cfg = ExecConfig::hybrid_tuned(
        reg.get_or_default(Family::Filter),
        reg.get_or_default(Family::Probe),
        reg.get_or_default(Family::AggSum),
        reg.get_or_default(Family::Gather),
    )
    .with_decode(reg.get_or_default(Family::Decode))
    .with_threads(threads);
    match reg.get_prefetch(Family::Probe) {
        Some(f) => cfg.with_probe_prefetch(f),
        None => cfg,
    }
}

/// Plan one query from its text; returns the plan and the parse, optimize
/// and lower times in milliseconds.
pub fn prepare(text: &str, data: &SsbData) -> Result<(StarPlan, [f64; 3]), String> {
    let t = Instant::now();
    let logical = parse_plan(text).map_err(|e| e.to_string())?;
    let parse = ms_since(t);
    let t = Instant::now();
    let cat = catalog(data);
    let (optimized, _) = optimize(&logical, &cat).map_err(|e| e.to_string())?;
    let opt = ms_since(t);
    let t = Instant::now();
    let plan = lower(&optimized, &cat).map_err(|e| e.to_string())?;
    Ok((plan, [parse, opt, ms_since(t)]))
}

/// Reference answers: every query on the scalar flavor, serially, in memory.
fn reference_answers(data: &SsbData, plans: &[StarPlan]) -> Result<Vec<Vec<u64>>, String> {
    let cfg = ExecConfig::scalar().with_threads(1);
    plans
        .iter()
        .map(|p| {
            try_execute_star(p, &data.lineorder, &cfg)
                .map(|(out, _)| out.groups)
                .map_err(|e| format!("reference {}: {e}", p.name))
        })
        .collect()
}

/// A system just set up, its set-up times, and the reference answers when
/// they were asked for.
pub struct Setup {
    pub sys: System,
    pub times: SetupTimes,
    pub refs: Option<Vec<Vec<u64>>>,
}

/// Set the system up from nothing: generate, load the registry, prepare
/// plans (SF 1), and write and open the paged fact table. With `want_refs`
/// the reference answers are computed too, outside the timed set-up.
pub fn setup(
    w: &'static Workload,
    seed: u64,
    root: &Path,
    want_refs: bool,
) -> Result<Setup, String> {
    let start = Instant::now();
    let mut untimed = Duration::ZERO;
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let mut data = generate(w.sf, seed);
    times.gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (registry, registry_report) = Registry::load_degraded(&root.join(REGISTRY_PATH));
    times.registry_ms = ms_since(t);
    let base = per_op_config(&registry, w.threads);

    let texts: Vec<String> = QueryId::ALL
        .iter()
        .map(|&q| render_plan(&logical_plan(q)))
        .collect();
    let mut plans = Vec::new();
    if !w.adhoc {
        for text in &texts {
            let (plan, [p, o, l]) = prepare(text, &data)?;
            times.parse_ms.push(p);
            times.optimize_ms.push(o);
            times.lower_ms.push(l);
            plans.push(plan);
        }
    }

    let refs = if want_refs {
        let t = Instant::now();
        let refs = if w.adhoc {
            let prepared = texts
                .iter()
                .map(|text| prepare(text, &data).map(|(p, _)| p))
                .collect::<Result<Vec<_>, _>>()?;
            reference_answers(&data, &prepared)?
        } else {
            reference_answers(&data, &plans)?
        };
        untimed += t.elapsed();
        Some(refs)
    } else {
        None
    };

    let paged = match w.storage {
        Storage::Memory => None,
        Storage::Paged => {
            let dir = root
                .join(SCRATCH_DIR)
                .join(format!("{}-{}", w.name, std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            // Owns the directory from here on, so an error below removes it.
            let dir = ScratchDir(dir);
            let t = Instant::now();
            for col in data.lineorder.columns() {
                let path = dir.0.join(format!("{}.hefc", col.name()));
                save_paged_column(col, &path, PAGE_BYTES / 8)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                times.disk_bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            }
            times.write_s = t.elapsed().as_secs_f64();
            times.raw_bytes = data.lineorder.bytes() as u64;
            // Requests read only the pages: drop the in-memory fact table
            // the planner needed.
            data.lineorder = Table::new("lineorder");
            let t = Instant::now();
            let table = PagedTable::open_dir(&dir.0, "lineorder").map_err(|e| e.to_string())?;
            times.open_ms = ms_since(t);
            Some(Paged {
                table,
                cache: PageCache::new(CACHE_BYTES),
                _dir: dir,
            })
        }
    };
    times.total_s = (start.elapsed() - untimed).as_secs_f64();
    let sys = System {
        workload: w,
        data,
        texts,
        plans,
        registry,
        registry_report,
        base,
        paged,
    };
    Ok(Setup { sys, times, refs })
}

impl System {
    /// The shipped config for `plan`: the per-op nodes with the plan's
    /// pipeline row, when the registry has one, overlaid.
    pub fn config_for(&self, plan: &StarPlan) -> (ExecConfig, bool) {
        match self.registry.get_pipeline(plan.fingerprint()) {
            Some(entry) => (apply_pipeline_entry(self.base, entry), true),
            None => (self.base, false),
        }
    }

    /// Serve query `q` as the workload does.
    pub fn request(&self, q: usize) -> Result<Response, String> {
        if self.workload.adhoc {
            let (plan, plan_ms) = prepare(&self.texts[q], &self.data)?;
            let r = self.execute(&plan, &self.config_for(&plan).0)?;
            Ok(Response { plan_ms, ..r })
        } else {
            let plan = &self.plans[q];
            self.execute(plan, &self.config_for(plan).0)
        }
    }

    /// Execute a prepared plan with `cfg` on the workload's storage.
    pub fn execute(&self, plan: &StarPlan, cfg: &ExecConfig) -> Result<Response, String> {
        let t = Instant::now();
        let out = match &self.paged {
            None => try_execute_star(plan, &self.data.lineorder, cfg).map(|(out, _)| out),
            Some(p) => {
                try_execute_star_paged_ctx(plan, &p.table, cfg, &p.cache, &QueryCtx::unbounded())
            }
        }
        .map_err(|e| e.to_string())?;
        Ok(Response {
            groups: out.groups,
            stats: out.stats,
            plan_ms: [0.0; 3],
            exec_ms: ms_since(t),
        })
    }
}

/// The order of one sweep over the 13 queries.
pub fn sweep_order(rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..QueryId::ALL.len()).collect();
    rng.shuffle(&mut order);
    order
}
