//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p hef-bench --bin repro -- <experiment> [options]
//!
//! experiments:
//!   fig8 | fig9 | fig10      SSB query times, 4 engine flavors, both CPUs
//!   table3 | table4 | table5 perf-counter detail for Q3.3 / Q2.3 / Q2.1
//!   table6 | table7          MurmurHash time + IPC (Silver / Gold)
//!   table8 | table9          CRC64 time + IPC (Silver / Gold)
//!   fig11 | fig12            µops-per-cycle histogram, murmur (Silver/Gold)
//!   fig13 | fig14            µops-per-cycle histogram, crc64 (Silver/Gold)
//!   ablation-search          candidate generator + pruning effectiveness
//!   ablation-pack            the pack (latency→throughput) sweep
//!   tune                     run the measured HEF tuner on this machine
//!   tune-pipeline            per-query pipeline rows picked by a measured
//!                            playoff (default sf 1, in memory with a paged
//!                            check) among the baseline, the per-op rows
//!                            and one neighbour step, ≤16 candidates and
//!                            no cost model; writes the
//!                            rows to --out (default results/tuned.txt) and
//!                            a baseline-vs-shipped snapshot (--query qNN
//!                            for one query)
//!   paged                    out-of-core sweep: lineorder as paged
//!                            compressed columns behind the bounded page
//!                            cache (HEF_PAGE_CACHE, default 25% of raw;
//!                            HEF_PAGE_BYTES sets the page size),
//!                            all queries checked bit-identical to the
//!                            in-memory executor at 1 and 4 threads
//!   qNN (e.g. q21, Q2.1)     one traced SSB query end to end (offline tune,
//!                            registry warm, parallel execution)
//!   report <trace.json>      validate + summarize a trace written earlier
//!                            (per span name: count, total, and self time)
//!   plan <file.plan | qNN>   parse → optimize → lower → execute a logical
//!                            plan (text file or canned SSB query), checking
//!                            the optimized lowering bit-identical to naive
//!   flame [qNN] [--paged]    one profiled query (default q21): in-terminal
//!                            flamegraph of per-worker self time, governance
//!                            events inline, reconciled against ExecReport;
//!                            --paged scans pages behind a HEF_PAGE_CACHE
//!                            cache (default 64 MiB)
//!   trend [--strict]         sparkline trend of every archived snapshot row
//!                            (results/history/ + results/bench_*.json);
//!                            --strict exits non-zero on significant
//!                            regressions
//!   all                      everything above
//!
//! options:
//!   --sf <f>        override the scale factor
//!   --n <elems>     kernel benchmark element count (default 20_000_000)
//!   --repeats <k>   timing repeats (default 2)
//!   --trace <file>  write a Chrome trace_event JSON of this run
//!                   (equivalent to HEF_TRACE=<file>)
//!   --deadline-ms <ms>   per-query deadline; an exceeded deadline prints a
//!                        typed DeadlineExceeded outcome instead of timing
//!                        (overrides HEF_DEADLINE_MS)
//!   --mem-budget <bytes> memory budget with k/m/g suffixes; the governor
//!                        degrades and then rejects queries that would
//!                        exceed it (overrides HEF_MEM_BUDGET)
//!
//! Every query runs on one engine built once from the environment
//! (`Engine::from_env`) with these options applied over it, and hybrid
//! configs come from the registry `HEF_REGISTRY` names, loaded once.
//! ```
//!
//! Scale-factor mapping (see DESIGN.md §3): the paper's SF10/SF20/SF50 are
//! run as 0.25/0.5/1.25 by default — the same 1:2:5 ratio, sized for this
//! machine; pass `--sf` to change.

use hef_bench::config::{exec_config, registry_from_env, tuned_hybrid};
use hef_bench::counters::{issue_histogram, model_kernel, model_query};
use hef_bench::measure::{kernel_input, measure_kernel, measure_query, measure_query_reported};
use hef_bench::report::{eng, f2, TableWriter};
use hef_core::{optimizer, space, templates, tune_measured, tune_simulated, Registry, WarmReport};
use hef_engine::{
    CancelToken, Engine, ExecConfig, ExecError, ExecReport, Fact, Flavor, GovernorConfig,
    QueryOutput, StarPlan,
};
use hef_kernels::{Family, HybridConfig};
use hef_ssb::{build_plan, generate, QueryId, SsbData};
use hef_uarch::CpuModel;

struct Opts {
    sf: Option<f64>,
    n: usize,
    repeats: usize,
    trace: Option<String>,
    query: Option<String>,
    deadline_ms: Option<u64>,
    mem_budget: Option<String>,
    paged: bool,
    out: Option<String>,
    /// The engine every query of the run executes on.
    engine: Engine,
    /// The per-op registry `HEF_REGISTRY` names, and what loading it did.
    registry: (Registry, WarmReport),
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        sf: None,
        n: 20_000_000,
        repeats: 2,
        trace: None,
        query: None,
        deadline_ms: None,
        mem_budget: None,
        paged: false,
        out: None,
        engine: Engine::default(),
        registry: (Registry::default(), WarmReport::default()),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                o.sf = Some(args[i + 1].parse().expect("--sf <float>"));
                i += 2;
            }
            "--query" => {
                o.query = Some(args[i + 1].clone());
                i += 2;
            }
            "--n" => {
                o.n = args[i + 1].parse().expect("--n <elems>");
                i += 2;
            }
            "--repeats" => {
                o.repeats = args[i + 1].parse().expect("--repeats <k>");
                i += 2;
            }
            "--trace" => {
                o.trace = Some(args[i + 1].clone());
                i += 2;
            }
            "--deadline-ms" => {
                o.deadline_ms = Some(args[i + 1].parse().expect("--deadline-ms <ms>"));
                i += 2;
            }
            "--mem-budget" => {
                o.mem_budget = Some(args[i + 1].clone());
                i += 2;
            }
            "--paged" => {
                o.paged = true;
                i += 1;
            }
            "--out" => {
                o.out = Some(args[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown option {other}"),
        }
    }
    let mut engine = Engine::from_env();
    if let Some(ms) = o.deadline_ms {
        engine = engine.with_deadline_ms(ms);
    }
    if let Some(budget) = &o.mem_budget {
        let bytes = hef_storage::page::parse_byte_size(budget)
            .and_then(|n| usize::try_from(n).ok())
            .expect("--mem-budget <bytes>[k|m|g]");
        let limits = GovernorConfig { mem_budget: bytes, ..engine.governor().config() };
        engine = engine.with_limits(limits);
    }
    o.engine = engine;
    o.registry = registry_from_env();
    o
}

/// Run `plan` over `fact` on the run's engine.
fn execute(
    opts: &Opts,
    plan: &StarPlan,
    fact: Fact<'_>,
    cfg: &ExecConfig,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    opts.engine.execute(plan, fact, cfg, &CancelToken::new())
}

/// The paper's workload scales mapped to this machine.
fn scale_for(fig: &str, opts: &Opts) -> (f64, &'static str) {
    if let Some(sf) = opts.sf {
        return (sf, "custom");
    }
    match fig {
        "small" => (0.25, "paper SF10 → ours 0.25"),
        "medium" => (0.5, "paper SF20 → ours 0.5"),
        _ => (1.25, "paper SF50 → ours 1.25"),
    }
}

fn gen_data(sf: f64) -> SsbData {
    eprintln!("[gen] SSB sf={sf} …");
    let d = generate(sf, 0x55B);
    eprintln!(
        "[gen] lineorder {} rows, total {:.1} MiB",
        d.lineorder.len(),
        d.bytes() as f64 / (1 << 20) as f64
    );
    d
}

// ---------------------------------------------------------------- figures 8-10

fn ssb_figure(fig: &str, scale: &str, opts: &Opts) {
    let (sf, note) = scale_for(scale, opts);
    let data = gen_data(sf);
    let silver = CpuModel::silver_4110();
    let gold = CpuModel::gold_6240r();

    println!("\n=== {fig}: SSB workload ({note}) — times in ms ===");
    println!("measured = this machine; 4110/6240R = modeled Xeon counters\n");
    let mut t = TableWriter::new(vec![
        "query", "scalar", "simd", "voila", "hybrid", "hyb/sc", "hyb/si",
        "4110:sc", "4110:si", "4110:vo", "4110:hy",
        "6240R:sc", "6240R:si", "6240R:vo", "6240R:hy",
    ]);
    let mut speedups_scalar: Vec<f64> = Vec::new();
    let mut speedups_simd: Vec<f64> = Vec::new();
    for q in QueryId::PAPER {
        let plan = build_plan(&data, q);
        let mut ms = Vec::new();
        let mut modeled: Vec<(f64, f64)> = Vec::new();
        for flavor in Flavor::ALL {
            let cfg = exec_config(&opts.registry.0, flavor);
            let (m, out, report) =
                measure_query_reported(&opts.engine, &plan, &data.lineorder, &cfg, opts.repeats);
            if !report.is_clean() {
                eprintln!(
                    "[exec] {} {}: recovered run — {} morsels retried, {} workers lost{}",
                    q.name(),
                    flavor.name(),
                    report.morsels_retried,
                    report.workers_lost,
                    if report.degraded_to_serial { ", degraded to serial" } else { "" }
                );
            }
            ms.push(m.ms());
            modeled.push((
                model_query(&silver, flavor, &out.stats).time_ms,
                model_query(&gold, flavor, &out.stats).time_ms,
            ));
        }
        // Flavor::ALL order: scalar, simd, voila, hybrid.
        let (sc, si, vo, hy) = (ms[0], ms[1], ms[2], ms[3]);
        speedups_scalar.push(sc / hy);
        speedups_simd.push(si / hy);
        t.row(vec![
            q.name().to_string(),
            f2(sc), f2(si), f2(vo), f2(hy),
            format!("{:.2}x", sc / hy), format!("{:.2}x", si / hy),
            f2(modeled[0].0), f2(modeled[1].0), f2(modeled[2].0), f2(modeled[3].0),
            f2(modeled[0].1), f2(modeled[1].1), f2(modeled[2].1), f2(modeled[3].1),
        ]);
    }
    t.print();
    let max_sc = speedups_scalar.iter().cloned().fold(0.0, f64::max);
    let max_si = speedups_simd.iter().cloned().fold(0.0, f64::max);
    println!(
        "\nhybrid speedup (measured): up to {max_sc:.2}x vs scalar, {max_si:.2}x vs SIMD \
         (paper: up to 2.38x / 1.45x)"
    );
}

// ---------------------------------------------------------------- tables 3-5

fn counter_table(name: &str, q: QueryId, scale: &str, model: CpuModel, opts: &Opts) {
    let (sf, note) = scale_for(scale, opts);
    let data = gen_data(sf);
    let plan = build_plan(&data, q);
    println!(
        "\n=== {name}: {} detail ({note}) on modeled {} ===\n",
        q.name(),
        model.name
    );
    let mut rows: Vec<Vec<String>> =
        vec![
            vec!["Instructions".into()],
            vec!["LLC-misses".into()],
            vec!["IPC".into()],
            vec!["Frequency".into()],
            vec!["Time (ms, modeled)".into()],
            vec!["Time (ms, measured here)".into()],
        ];
    for flavor in Flavor::ALL {
        let cfg = exec_config(&opts.registry.0, flavor);
        let (m, out) = measure_query(&opts.engine, &plan, &data.lineorder, &cfg, opts.repeats);
        let c = model_query(&model, flavor, &out.stats);
        rows[0].push(eng(c.instructions));
        rows[1].push(eng(c.llc_misses));
        rows[2].push(f2(c.ipc));
        rows[3].push(f2(c.freq_ghz));
        rows[4].push(f2(c.time_ms));
        rows[5].push(f2(m.ms()));
    }
    let mut t = TableWriter::new(vec!["Attributes", "Scalar", "SIMD", "Voila", "Hybrid"]);
    for r in rows {
        t.row(r);
    }
    t.print();
}

// ---------------------------------------------------------------- tables 6-9

fn kernel_table(name: &str, family: Family, hybrid: HybridConfig, model: CpuModel, opts: &Opts) {
    println!(
        "\n=== {name}: {} with {} elements — modeled {} + measured here ===\n",
        family.name(),
        opts.n,
        model.name
    );
    let input = kernel_input(opts.n);
    let mut t = TableWriter::new(vec!["Attributes", "Scalar", "SIMD", "Hybrid"]);
    let configs = [HybridConfig::SCALAR, HybridConfig::SIMD, hybrid];
    let mut meas = Vec::new();
    let mut modeled = Vec::new();
    for cfg in configs {
        meas.push(measure_kernel(family, cfg, &input, opts.repeats));
        modeled.push(model_kernel(&model, family, cfg, opts.n as u64));
    }
    t.row(vec![
        "Time (ms, measured here)".to_string(),
        f2(meas[0].ms()), f2(meas[1].ms()), f2(meas[2].ms()),
    ]);
    t.row(vec![
        "Time (ms, modeled)".to_string(),
        f2(modeled[0].time_ms), f2(modeled[1].time_ms), f2(modeled[2].time_ms),
    ]);
    // Hardware reference cycles (RDTSC) next to the simulator's cycle
    // prediction: same unit, so the model can be judged without the
    // frequency question. "-" when the platform has no cycle counter.
    let mc = |m: &hef_bench::measure::Measured| {
        m.mcycles().map_or("-".to_string(), f2)
    };
    t.row(vec![
        "Mcycles (measured here)".to_string(),
        mc(&meas[0]), mc(&meas[1]), mc(&meas[2]),
    ]);
    t.row(vec![
        "Mcycles (modeled)".to_string(),
        f2(modeled[0].time_ms * modeled[0].freq_ghz),
        f2(modeled[1].time_ms * modeled[1].freq_ghz),
        f2(modeled[2].time_ms * modeled[2].freq_ghz),
    ]);
    t.row(vec![
        "IPC (modeled)".to_string(),
        f2(modeled[0].ipc), f2(modeled[1].ipc), f2(modeled[2].ipc),
    ]);
    t.print();
    println!(
        "\nhybrid node {hybrid}: measured speedup {:.2}x vs scalar, {:.2}x vs SIMD",
        meas[0].ms() / meas[2].ms(),
        meas[1].ms() / meas[2].ms()
    );
}

// ---------------------------------------------------------------- figs 11-14

fn hist_figure(name: &str, family: Family, hybrid: HybridConfig, model: CpuModel) {
    println!(
        "\n=== {name}: µops executed per cycle, {} on modeled {} ===\n",
        family.name(),
        model.name
    );
    let mut t = TableWriter::new(vec!["bucket", "Scalar", "SIMD", "Hybrid"]);
    let hists: Vec<[f64; 4]> = [HybridConfig::SCALAR, HybridConfig::SIMD, hybrid]
        .iter()
        .map(|&cfg| issue_histogram(&model, family, cfg))
        .collect();
    for (bi, label) in ["0", "1", "2", "GE3"].iter().enumerate() {
        t.row(vec![
            label.to_string(),
            format!("{:.1}%", hists[0][bi] * 100.0),
            format!("{:.1}%", hists[1][bi] * 100.0),
            format!("{:.1}%", hists[2][bi] * 100.0),
        ]);
    }
    t.print();
    println!(
        "\nGE2 fraction: scalar {:.1}%, SIMD {:.1}%, hybrid {:.1}%",
        (hists[0][2] + hists[0][3]) * 100.0,
        (hists[1][2] + hists[1][3]) * 100.0,
        (hists[2][2] + hists[2][3]) * 100.0,
    );
}

// ---------------------------------------------------------------- ablations

fn ablation_search() {
    println!("\n=== ablation: candidate generator + pruning (Eq. 1-2, §IV) ===\n");
    let silver = CpuModel::silver_4110();
    println!(
        "search-space sizes (paper Eq. 1 / Eq. 2) for bounds v=8, s=4, p=4: {} / {}",
        space::space_eq1(8, 4, 4),
        space::space_eq2(8, 4, 4)
    );
    println!("compiled grid nodes: {}\n", space::grid_size());

    let mut t = TableWriter::new(vec![
        "operator", "initial", "best", "tested(init)", "tested(fixed)", "exhaustive", "saved",
    ]);
    for family in Family::ALL {
        let template = templates::for_family(family);
        let initial = hef_core::initial_candidate(&silver, &template);

        let mut e1 = optimizer::SimulatedCost::new(&silver, &template);
        let from_init = optimizer::optimize(initial, &mut e1);

        let mut e2 = optimizer::SimulatedCost::new(&silver, &template);
        let from_fixed = optimizer::optimize(HybridConfig::new(1, 1, 1), &mut e2);

        let mut e3 = optimizer::SimulatedCost::new(&silver, &template);
        let full = optimizer::exhaustive(&mut e3);

        assert!(
            (from_init.best_cost - full.best_cost).abs() / full.best_cost < 0.35,
            "{}: pruned search far from exhaustive optimum",
            family.name()
        );
        let saved = space::PruningSavings::new(from_init.tested.len());
        t.row(vec![
            family.name().to_string(),
            initial.to_string(),
            from_init.best.to_string(),
            from_init.tested.len().to_string(),
            from_fixed.tested.len().to_string(),
            full.tested.len().to_string(),
            format!("{:.0}%", saved.saved_fraction() * 100.0),
        ]);
    }
    t.print();
}

fn ablation_pack(opts: &Opts) {
    println!("\n=== ablation: the pack optimization (Fig. 3 story, CRC64) ===\n");
    let n = opts.n.min(8_000_000);
    let input = kernel_input(n);
    let mut t = TableWriter::new(vec!["node", "in-flight gathers", "measured ms", "Gelem/s"]);
    for (v, s, p) in [(1, 0, 1), (2, 0, 1), (4, 0, 1), (8, 0, 1), (1, 0, 2), (1, 0, 4), (2, 0, 4)] {
        let cfg = HybridConfig::new(v, s, p);
        let m = measure_kernel(Family::Crc64, cfg, &input, opts.repeats);
        t.row(vec![
            cfg.to_string(),
            format!("{}", v * p),
            f2(m.ms()),
            format!("{:.3}", n as f64 / m.secs / 1e9),
        ]);
    }
    t.print();
    println!("\nmore independent gathers in flight → inter-issue interval falls from");
    println!("the 26-cycle latency toward the 5-cycle throughput (paper §II.C).");
}

fn tune(opts: &Opts) {
    println!("\n=== HEF offline tuning on this machine (measured) ===\n");
    let n = opts.n.min(4_000_000);
    // Stamp the saved registry with this machine's ISA so a later warm-load
    // on a different backend detects the staleness and re-derives nodes.
    let mut reg = Registry::with_host_provenance("this machine (repro tune)");
    for family in Family::ALL {
        let t = tune_measured(family, n);
        println!("  {}", t.describe());
        reg.insert_tuned(&t);
    }
    std::fs::create_dir_all("results").ok();
    let path = std::path::Path::new("results/tuned.txt");
    // Keep the pipeline rows `tune-pipeline` picked: each names every slot
    // its plan runs, so new per-op rows underneath do not change them.
    if path.is_file() {
        for (fp, entry) in Registry::load_degraded(path).0.pipelines() {
            reg.insert_pipeline(fp, entry.clone());
        }
    }
    match reg.save(path) {
        Ok(()) => println!(
            "\nsaved {} tuned nodes to {}; set HEF_REGISTRY={} so engines and \
             benches warm-load them at startup",
            reg.len(),
            path.display(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not save {}: {e}", path.display()),
    }
    println!("\n=== HEF offline tuning on the modeled Xeons (simulated) ===\n");
    for model in [CpuModel::silver_4110(), CpuModel::gold_6240r()] {
        for family in [Family::Murmur, Family::Crc64, Family::Probe, Family::Decode] {
            let t = tune_simulated(family, &model);
            println!("  [{}] {}", model.name, t.describe());
        }
    }
}

// ------------------------------------------------------------ pipeline tuning

/// Candidates one query's playoff may measure, baseline included. Bounds
/// the neighbour step so `tune-pipeline --sf 1` stays under 5 minutes on a
/// 2-vCPU host.
const PLAYOFF_CANDIDATES: usize = 16;

/// Rows per page and page-cache bytes of the paged copy the playoff
/// measures on: the geometry the SSB benchmark's paged workload runs.
const PLAYOFF_PAGE_ROWS: u32 = (256 << 10) / 8;
const PLAYOFF_CACHE_BYTES: usize = 48 << 20;

/// One measured pipeline candidate: where it came from and the row it runs.
struct Candidate {
    source: String,
    row: hef_core::PipelineEntry,
}

/// Whole-pipeline tuning decided on this host's clock (paper Alg. 2 is
/// test-based; no cost model proposes or ranks a row). Per query,
/// candidates are the baseline — the paper's n113 node everywhere — and
/// the per-op composition of the registry's rows; then one Alg. 2
/// neighbour step around the better of the two
/// ([`hef_bench::neighbour_rows`]), cut to [`PLAYOFF_CANDIDATES`]. Each
/// stage is a drift-cancelling playoff ([`hef_bench::playoff`]) on SF 1
/// data at the host's thread count, in memory with a paged check. The
/// winner — the baseline itself when nothing wins beyond noise — is written for every
/// query as a registry v3 row to `--out` (default `results/tuned.txt`),
/// layered on that registry's per-op rows, and a final baseline-vs-shipped
/// playoff per query is archived as `results/bench_pipeline.json`.
fn tune_pipeline(opts: &Opts) {
    use hef_bench::pipeline::{neighbour_rows, pipeline_row};
    use hef_bench::playoff::{playoff, run_rounds, MIN_ROUNDS};
    use hef_bench::BenchSnapshot;
    use hef_engine::apply_pipeline_entry;

    let sf = opts.sf.unwrap_or(1.0);
    let rounds = opts.repeats.max(MIN_ROUNDS);
    let threads = hef_engine::resolve_threads(0);
    let out_path = std::path::PathBuf::from(opts.out.as_deref().unwrap_or("results/tuned.txt"));
    let queries: Vec<QueryId> = match &opts.query {
        Some(s) => {
            vec![parse_query(s).unwrap_or_else(|| panic!("--query {s}: not an SSB query"))]
        }
        None => QueryId::ALL.to_vec(),
    };
    println!(
        "\n=== whole-pipeline tuning: measured playoff \
         (sf {sf}, {} queries, {threads} threads, {rounds} rounds) ===\n",
        queries.len()
    );
    let data = gen_data(sf);

    // The per-op rows (`repro tune`) under the pipeline rows: the per-op
    // candidate, and the config every row is applied onto, exactly as the
    // engine and the benchmark apply it.
    let committed = std::path::Path::new("results/tuned.txt");
    let mut reg = if committed.is_file() {
        Registry::load_degraded(committed).0
    } else {
        Registry::with_host_provenance("this machine (repro tune-pipeline)")
    };
    let per_op = tuned_hybrid(&reg).with_threads(threads);
    let baseline = ExecConfig::hybrid_default().with_threads(threads);

    let dir = std::env::temp_dir()
        .join(format!("hef-repro-tunepipe-sf{sf}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    hef_ssb::generate_paged(sf, 0x55B, &dir, PLAYOFF_PAGE_ROWS).expect("paged generation failed");
    let paged = hef_engine::PagedTable::open_dir(&dir, "lineorder").expect("paged open failed");
    let cache = hef_storage::PageCache::new(PLAYOFF_CACHE_BYTES);
    let time_mem = |plan: &StarPlan, cfg: &ExecConfig| {
        let t = std::time::Instant::now();
        hef_engine::try_execute_star(plan, &data.lineorder, cfg)
            .expect("in-memory execution failed");
        t.elapsed().as_secs_f64() * 1e3
    };
    let time_paged = |plan: &StarPlan, cfg: &ExecConfig| {
        let t = std::time::Instant::now();
        let ctx = hef_engine::QueryCtx::unbounded();
        hef_engine::try_execute_star_paged_ctx(plan, &paged, cfg, &cache, &ctx)
            .expect("paged execution failed");
        t.elapsed().as_secs_f64() * 1e3
    };

    let mut table = TableWriter::new(vec![
        "query", "candidates", "winner", "baseline ms", "shipped ms", "shipped/base",
        "paged base ms", "paged shipped ms", "shipped row",
    ]);
    let mut snap =
        BenchSnapshot::new(if opts.query.is_some() { "pipeline_smoke" } else { "pipeline" });
    snap.config("sf", sf)
        .config("seed", "0x55B")
        .config("rounds", rounds)
        .config("lineorder_rows", data.lineorder.len())
        .config("baseline", "n113")
        .config("page_rows", PLAYOFF_PAGE_ROWS)
        .config("page_cache_bytes", PLAYOFF_CACHE_BYTES);
    let rows = data.lineorder.len() as u64;
    let mut t_all = std::time::Instant::now();
    let start = t_all;

    for &q in &queries {
        let plan = build_plan(&data, q);
        let row_of = |cfg: &ExecConfig| pipeline_row(&plan, cfg);
        let config_of = |row: &hef_core::PipelineEntry| apply_pipeline_entry(per_op, row);

        // One playoff among `entrants`; entrants[0] is the baseline.
        let mut run = |entrants: &[&Candidate]| {
            let cfgs: Vec<ExecConfig> = entrants.iter().map(|c| config_of(&c.row)).collect();
            let mut mem = |cfg: &ExecConfig| time_mem(&plan, cfg);
            playoff(&cfgs, rounds, &mut mem, &mut |cfg| time_paged(&plan, cfg))
        };
        time_mem(&plan, &baseline); // warm the allocator and the fact columns

        // Stage 1: the baseline and the per-op composition.
        let mut cands = vec![Candidate { source: "baseline".into(), row: row_of(&baseline) }];
        let per_op_row = vec![Candidate { source: "per-op".into(), row: row_of(&per_op) }];
        let mut best = next_stage(&mut cands, 0, per_op_row, &mut run);

        // Stage 2: one Alg. 2 neighbour step around the winner. Only the
        // winner is expanded (losers and their variants are never
        // generated), each stage in turn until the budget is spent.
        let w = &cands[best];
        let existing: Vec<hef_core::PipelineEntry> = cands.iter().map(|c| c.row.clone()).collect();
        let budget = PLAYOFF_CANDIDATES.saturating_sub(cands.len());
        let step = neighbour_rows(&w.row, &existing, budget)
            .into_iter()
            .map(|row| Candidate { source: format!("{}~step", w.source), row })
            .collect();
        best = next_stage(&mut cands, best, step, &mut run);

        // Confirmation: a fresh baseline-vs-shipped playoff on both layers,
        // the numbers the snapshot archives. A shipped baseline is the same
        // config, timed once and listed under both labels.
        let shipped = &cands[best];
        let mut pair = vec![config_of(&cands[0].row)];
        if best != 0 {
            pair.push(config_of(&shipped.row));
        }
        // (baseline, shipped): the first and the last of the pair.
        let ends = |s: Vec<hef_testutil::bench::Stats>| [s[0], s[s.len() - 1]];
        let mem = ends(run_rounds(&pair, rounds, &mut |cfg| time_mem(&plan, cfg)));
        let pgd = ends(run_rounds(&pair, rounds, &mut |cfg| time_paged(&plan, cfg)));
        let group = format!("pipeline_{}", q.name().replace('.', "_"));
        snap.row(&group, "baseline", mem[0], Some(rows))
            .row(&group, "shipped", mem[1], Some(rows))
            .row(&group, "baseline_paged", pgd[0], Some(rows))
            .row(&group, "shipped_paged", pgd[1], Some(rows));
        table.row(vec![
            q.name().to_string(),
            cands.len().to_string(),
            shipped.source.clone(),
            format!("{:.2}", mem[0].median_ms()),
            format!("{:.2}", mem[1].median_ms()),
            format!("{:.3}", mem[1].median / mem[0].median),
            format!("{:.2}", pgd[0].median_ms()),
            format!("{:.2}", pgd[1].median_ms()),
            shipped.row.to_string(),
        ]);
        reg.insert_pipeline(plan.fingerprint(), shipped.row.clone());
        eprintln!("[tune] {} done in {:.1}s", q.name(), t_all.elapsed().as_secs_f64());
        t_all = std::time::Instant::now();
    }
    std::fs::remove_dir_all(&dir).ok();

    println!("measured playoff on this machine (medians of {rounds} rounds, t{threads}):\n");
    table.print();
    println!("\ntuned in {:.1}s", start.elapsed().as_secs_f64());

    if let Some(parent) = out_path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match reg.save(&out_path) {
        Ok(()) => println!(
            "saved {} pipeline row(s) to {}; the engine applies them with \
             HEF_PIPELINE={}",
            reg.pipelines_len(),
            out_path.display(),
            out_path.display()
        ),
        Err(e) => eprintln!("warning: could not save {}: {e}", out_path.display()),
    }
    match snap.compare_default() {
        Some(report) => print!("{}", report.render()),
        None => println!("compare: no archived baseline for `{}` yet", snap.name()),
    }
    match snap.write_default() {
        Ok(p) => println!("snapshot: {}", p.display()),
        Err(e) => eprintln!("snapshot write failed: {e}"),
    }
}

/// Drop candidates whose row an earlier candidate already runs, keeping
/// the first (so the baseline and the per-op composition keep their names).
fn dedup_candidates(cands: &mut Vec<Candidate>) {
    let mut seen: Vec<hef_core::PipelineEntry> = Vec::new();
    cands.retain(|c| {
        let fresh = !seen.contains(&c.row);
        if fresh {
            seen.push(c.row.clone());
        }
        fresh
    });
}

/// Run one playoff stage: the baseline, the winner so far and the `fresh`
/// candidates not measured yet. Appends the fresh candidates to `cands`
/// and returns the index of the stage's winner in `cands`.
fn next_stage(
    cands: &mut Vec<Candidate>,
    best: usize,
    fresh: Vec<Candidate>,
    run: &mut dyn FnMut(&[&Candidate]) -> hef_bench::playoff::Outcome,
) -> usize {
    let first_new = cands.len();
    cands.extend(fresh);
    dedup_candidates(cands);
    if cands.len() == first_new {
        return best;
    }
    let mut idx = vec![0];
    if best != 0 {
        idx.push(best);
    }
    idx.extend(first_new..cands.len());
    let entrants: Vec<&Candidate> = idx.iter().map(|&i| &cands[i]).collect();
    idx[run(&entrants).winner]
}

// ---------------------------------------------------------------- out-of-core

/// Page geometry and cache capacity for a paged run, read from the
/// environment: rows per page from `HEF_PAGE_BYTES` (default
/// [`hef_storage::page::DEFAULT_PAGE_BYTES`], 8 bytes per uncompressed row,
/// clamped to `[64, 2^21]`), and the cache bytes `HEF_PAGE_CACHE` sets, if
/// any — each command picks its own default. Both take `k`/`m`/`g`
/// suffixes; an unparsable value warns once and counts as unset.
fn page_env() -> (u32, Option<usize>) {
    use hef_storage::page::{parse_byte_size, DEFAULT_PAGE_BYTES};
    let bytes = |var: &'static str| {
        let s = std::env::var(var).ok()?;
        let n = parse_byte_size(&s);
        if n.is_none() {
            hef_obs::diag::warn_once(var, format!("{var}={s:?} is not a byte count; using the default"));
        }
        n
    };
    let page = bytes("HEF_PAGE_BYTES").unwrap_or(DEFAULT_PAGE_BYTES);
    let rows_per_page = (page / 8).clamp(64, 1 << 21) as u32;
    (rows_per_page, bytes("HEF_PAGE_CACHE").map(|n| n as usize))
}

/// Decoded rows per scanned fact row above which `repro paged` fails. Only
/// the first filter column decodes every row of a page; every other column
/// decodes just the rows that reach it, so the SSB sweep stays near 1.2.
/// Full-page decode of every read column lands near 4.5.
const MAX_DECODE_ROWS_PER_FACT_ROW: f64 = 2.0;

/// Run every SSB query out-of-core: the lineorder fact streamed to paged
/// compressed column files, scanned through the bounded page cache, checked
/// bit-identical to the in-memory executor at 1 and 4 threads. The cache
/// capacity comes from `HEF_PAGE_CACHE` when set, else 25% of the dataset's
/// raw (decoded) bytes — small enough that eviction is constant. Exits
/// non-zero on any divergence, on a bounded cache that somehow never
/// evicted (the out-of-core claim would be vacuous), and on more than
/// [`MAX_DECODE_ROWS_PER_FACT_ROW`] decoded rows per scanned fact row (a
/// silent fallback to full-page decode past the first filter).
fn paged_cmd(opts: &Opts) {
    use hef_engine::PagedTable;
    use hef_storage::PageCache;

    let sf = opts.sf.unwrap_or(1.0);
    hef_obs::metrics::enable();
    println!("\n=== paged: out-of-core SSB sweep (sf {sf}) ===\n");
    let data = gen_data(sf);
    let dir = std::env::temp_dir().join(format!("hef-repro-paged-sf{sf}"));
    std::fs::remove_dir_all(&dir).ok();
    eprintln!("[gen] paged lineorder → {}", dir.display());
    let (rows_per_page, cache_bytes) = page_env();
    hef_ssb::generate_paged(sf, 0x55B, &dir, rows_per_page)
        .expect("paged generation failed");
    let table = PagedTable::open_dir(&dir, "lineorder").expect("paged open failed");
    let raw = table.raw_bytes();
    let disk: u64 = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(|e| Some(e.ok()?.metadata().ok()?.len())).sum())
        .unwrap_or(0);
    let cache = PageCache::new(cache_bytes.unwrap_or((raw / 4) as usize));
    println!(
        "raw {:.1} MiB, on disk {:.1} MiB ({:.2}x), page cache {:.1} MiB ({:.0}% of raw)\n",
        raw as f64 / (1 << 20) as f64,
        disk as f64 / (1 << 20) as f64,
        raw as f64 / disk.max(1) as f64,
        cache.capacity() as f64 / (1 << 20) as f64,
        cache.capacity() as f64 / raw as f64 * 100.0
    );

    let before = hef_obs::metrics::snapshot();
    let mut scanned = 0u64;
    let mut t = TableWriter::new(vec![
        "query", "in-mem ms", "paged t1 ms", "paged t4 ms", "rows agg", "identical",
    ]);
    for q in QueryId::ALL {
        let plan = build_plan(&data, q);
        let t0 = std::time::Instant::now();
        let hybrid = exec_config(&opts.registry.0, Flavor::Hybrid);
        let (reference, _) = execute(opts, &plan, Fact::Mem(&data.lineorder), &hybrid.with_threads(1))
            .unwrap_or_else(|e| {
                eprintln!("paged: {} in memory: {e}", q.name());
                std::process::exit(1);
            });
        let mem_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut paged_ms = [0.0f64; 2];
        for (i, threads) in [1usize, 4].into_iter().enumerate() {
            let cfg = hybrid.with_threads(threads);
            let t0 = std::time::Instant::now();
            let (out, _) = execute(opts, &plan, Fact::Paged(&table, &cache), &cfg)
                .unwrap_or_else(|e| {
                    eprintln!("paged: {} (threads {threads}): {e}", q.name());
                    std::process::exit(1);
                });
            paged_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
            scanned += out.stats.rows_scanned;
            if out.groups != reference.groups {
                eprintln!(
                    "paged: {} diverged from in-memory at {threads} thread(s)",
                    q.name()
                );
                std::process::exit(1);
            }
        }
        t.row(vec![
            q.name().to_string(),
            f2(mem_ms),
            f2(paged_ms[0]),
            f2(paged_ms[1]),
            reference.stats.rows_aggregated.to_string(),
            "yes".to_string(),
        ]);
    }
    t.print();

    use hef_obs::metrics::Metric;
    let d = hef_obs::metrics::snapshot().delta(&before);
    let (hits, misses, evict) = (
        d.get(Metric::PageCacheHits),
        d.get(Metric::PageCacheMisses),
        d.get(Metric::PageCacheEvictions),
    );
    println!(
        "\npage cache: {hits} hits / {misses} misses ({:.1}% hit rate), {evict} evictions",
        hits as f64 / (hits + misses).max(1) as f64 * 100.0
    );
    let per_fact_row = d.get(Metric::DecodeRows) as f64 / scanned.max(1) as f64;
    println!(
        "decode: {} pages, {} rows ({per_fact_row:.3} per scanned fact row), \
         {} rows filtered in code space (decode skipped)",
        d.get(Metric::PagesDecoded),
        d.get(Metric::DecodeRows),
        d.get(Metric::DecodeCodeFiltered)
    );
    // Pages are cached compressed, so the eviction expectation keys off the
    // on-disk byte count: a cache smaller than the compressed dataset must
    // have evicted or the bound was never exercised.
    if (cache.capacity() as u64) < disk && evict == 0 {
        eprintln!("paged: cache below compressed dataset size but never evicted — bound not exercised");
        std::process::exit(1);
    }
    if per_fact_row > MAX_DECODE_ROWS_PER_FACT_ROW {
        eprintln!(
            "paged: {per_fact_row:.3} decoded rows per scanned fact row exceeds \
             {MAX_DECODE_ROWS_PER_FACT_ROW} — join and measure columns decoded whole pages"
        );
        std::process::exit(1);
    }
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "\npaged: OK ({} queries bit-identical to the in-memory executor at 1 and 4 threads)",
        QueryId::ALL.len()
    );
}

// ---------------------------------------------------------------- traced query

/// `q21` / `Q2.1` / `21` → `QueryId::Q2_1`.
fn parse_query(cmd: &str) -> Option<QueryId> {
    let digits: String = cmd.chars().filter(|c| c.is_ascii_digit()).collect();
    if digits.len() != 2 || !cmd.chars().all(|c| "qQ.".contains(c) || c.is_ascii_digit()) {
        return None;
    }
    QueryId::ALL
        .into_iter()
        .find(|q| q.name().chars().filter(|c| c.is_ascii_digit()).collect::<String>() == digits)
}

/// Run one SSB query end to end with the full offline phase, so a trace of
/// this command shows tuner, translate, registry, query, worker, and morsel
/// spans. Threads are forced to ≥2 so the morsel-driven parallel path runs.
fn run_query(q: QueryId, opts: &Opts) {
    let (sf, note) = scale_for("small", opts);
    println!("\n=== {}: single traced query ({note}) ===\n", q.name());

    // Offline phase: the registry loaded at startup plus a simulated tune
    // per kernel family (tuner/translate spans in the trace).
    let (reg, warm) = &opts.registry;
    println!(
        "registry: {} nodes warm-loaded{}",
        reg.len(),
        if warm.is_clean() { "" } else { " (degraded — see warnings)" }
    );
    let silver = CpuModel::silver_4110();
    for family in Family::ALL {
        let t = tune_simulated(family, &silver);
        // Emit target code for the winner — the offline phase's artifact
        // (and the `translate` span in the trace).
        if let Err(e) = hef_core::try_translate(&templates::for_family(family), t.cfg) {
            eprintln!("warning: translate {}: {e}", family.name());
        }
        println!("  {}", t.describe());
    }

    let data = gen_data(sf);
    let plan = build_plan(&data, q);
    let threads = hef_engine::resolve_threads(0).max(2);

    // Governed run: with a deadline or memory budget in force the typed
    // outcome is the product, not a panic — print each flavor's verdict and
    // skip timing repeats (`measure_query_reported` treats any ExecError as
    // fatal, which is exactly wrong here).
    if opts.deadline_ms.is_some() || opts.mem_budget.is_some() {
        for flavor in Flavor::ALL {
            let cfg = exec_config(reg, flavor).with_threads(threads);
            match execute(opts, &plan, Fact::Mem(&data.lineorder), &cfg) {
                Ok((out, report)) => println!(
                    "  {}: ok — {} groups, {} morsels, {} threads",
                    flavor.name(),
                    out.groups.len(),
                    report.morsels_completed,
                    report.threads
                ),
                Err(e @ ExecError::DeadlineExceeded { .. }) => {
                    println!("  {}: DeadlineExceeded — {e}", flavor.name())
                }
                Err(e @ ExecError::Cancelled { .. }) => {
                    println!("  {}: Cancelled — {e}", flavor.name())
                }
                Err(e @ ExecError::Rejected { .. }) => {
                    println!("  {}: Rejected — {e}", flavor.name())
                }
                Err(e) => println!("  {}: error — {e}", flavor.name()),
            }
        }
        return;
    }

    let mut t = TableWriter::new(vec!["flavor", "ms", "threads", "retried", "lost", "serial"]);
    for flavor in Flavor::ALL {
        let cfg = exec_config(reg, flavor).with_threads(threads);
        let (m, _out, report) =
            measure_query_reported(&opts.engine, &plan, &data.lineorder, &cfg, opts.repeats);
        t.row(vec![
            flavor.name().to_string(),
            f2(m.ms()),
            report.threads.to_string(),
            report.morsels_retried.to_string(),
            report.workers_lost.to_string(),
            if report.degraded_to_serial { "yes".into() } else { "no".into() },
        ]);
    }
    t.print();
    // Replay-time calibration: re-measure each registry node so drift since
    // tune time (thermal state, other tenants, a different machine) shows
    // up next to the recorded `# drift:` rows.
    drift_table(reg);
}

// ---------------------------------------------------------------- observatory

/// Run one query under in-memory fine-grained capture and render the
/// aggregated self-time tree — the in-terminal flamegraph — with per-worker
/// attribution, inline governance events, and a top-N self-time table. The
/// profile is reconciled against the engine's own [`ExecReport`] morsel
/// count and the tree's nesting invariant is checked; any mismatch exits
/// non-zero so `verify.sh` can gate on it.
///
/// [`ExecReport`]: hef_engine::ExecReport
fn flame_cmd(q: QueryId, opts: &Opts) {
    let (sf, note) = scale_for("small", opts);
    println!(
        "\n=== flame {}: profiled query ({note}{}) ===\n",
        q.name(),
        if opts.paged { "; paged scan" } else { "" }
    );

    // An externally-started session (HEF_TRACE / --trace) is reused; only
    // reconcile counts when we own the capture — a pre-existing session may
    // hold spans from earlier work or a coarse level without morsel spans.
    let own_capture = !hef_obs::trace::enabled();
    if own_capture {
        hef_obs::trace::start_capture(hef_obs::Level::Fine);
    }

    let data = gen_data(sf);
    let plan = build_plan(&data, q);
    let threads = hef_engine::resolve_threads(0).max(2);
    let cfg = exec_config(&opts.registry.0, Flavor::Hybrid).with_threads(threads);

    // `--paged` profiles the out-of-core scan instead: page morsels with
    // per-worker `decode` self-time under them, no in-memory ExecReport.
    let (out, reconcile) = if opts.paged {
        let dir = std::env::temp_dir().join(format!("hef-flame-paged-sf{sf}"));
        std::fs::remove_dir_all(&dir).ok();
        let (rows_per_page, cache_bytes) = page_env();
        hef_ssb::generate_paged(sf, 0x55B, &dir, rows_per_page).expect("paged generation failed");
        let table = hef_engine::PagedTable::open_dir(&dir, "lineorder").expect("paged open");
        let pages = table.page_count() as u64;
        let default_cache = hef_storage::cache::DEFAULT_CACHE_BYTES as usize;
        let cache = hef_storage::PageCache::new(cache_bytes.unwrap_or(default_cache));
        match execute(opts, &plan, Fact::Paged(&table, &cache), &cfg) {
            Ok((out, _)) => (out, ("page", pages, format!("{pages} page(s)"))),
            Err(e) => {
                eprintln!("flame: {}: {e}", q.name());
                std::process::exit(1);
            }
        }
    } else {
        match execute(opts, &plan, Fact::Mem(&data.lineorder), &cfg) {
            Ok((out, report)) => {
                let n = report.morsels_completed as u64;
                println!(
                    "query ran {} morsels over {} threads",
                    report.morsels_completed, report.threads
                );
                (out, ("morsel", n, format!("{n} morsel(s) in ExecReport")))
            }
            Err(e) => {
                eprintln!("flame: {}: {e}", q.name());
                std::process::exit(1);
            }
        }
    };

    let Some(tree) = hef_obs::ProfileTree::from_active_session() else {
        eprintln!("flame: no active trace session to profile");
        std::process::exit(1);
    };
    print!("{}", tree.render());
    println!();
    print!("{}", tree.render_top(10));

    if let Err(e) = tree.check_nesting() {
        eprintln!("flame: nesting invariant violated: {e}");
        std::process::exit(1);
    }
    println!("\nquery: {} groups", out.groups.len());
    if own_capture {
        let (span, expected, what) = &reconcile;
        let profiled = tree.count_of(span);
        if tree.dropped() > 0 {
            println!(
                "profile: {} record(s) dropped (raise HEF_TRACE_BUF); skipping reconciliation",
                tree.dropped()
            );
        } else if profiled != *expected {
            eprintln!("flame: profile saw {profiled} `{span}` span(s) but expected {what}");
            std::process::exit(1);
        } else {
            println!("profile: `{span}` spans reconcile ({profiled})");
        }
    }
    println!("profile: OK");
}

/// Regression tracker over every archived snapshot: thread
/// `results/history/*.json` and `results/bench_*.json` into per-row series,
/// render sparkline trends, and (with `--strict`) exit non-zero when the
/// newest point of any series regressed significantly.
fn trend_cmd(strict: bool) {
    let report = match hef_bench::trend::scan_default() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trend: {e}");
            std::process::exit(1);
        }
    };
    if report.snapshots == 0 {
        println!("trend: no archived snapshots under results/ — run a bench with snapshots first");
        return;
    }
    print!("{}", report.render());
    if strict && !report.regressions().is_empty() {
        std::process::exit(3);
    }
}

/// Per-family calibration table: the registry's tune-time `# drift:` rows
/// next to a fresh predicted-vs-measured sample of the same node on this
/// machine (which also feeds the `tuner.drift` histogram). Columns without
/// data (no tune-time row, no cycle counter) print `-`.
fn drift_table(reg: &Registry) {
    println!("\n=== tuned-node drift (port simulator vs this machine) ===\n");
    let mut t = TableWriter::new(vec![
        "family", "node", "pred c/row", "tuned c/row", "now c/row", "drift",
    ]);
    let dash = || "-".to_string();
    for family in Family::ALL {
        let cfg = reg.get_or_default(family);
        let tuned = reg.get_drift(family);
        let live = hef_core::measure_drift(family, cfg, 1 << 16);
        let predicted = live
            .map(|d| d.predicted_cpr)
            .unwrap_or_else(|| hef_core::predicted_cycles_per_row(family, cfg, &CpuModel::host()));
        let ratio = live.map(|d| d.ratio()).or_else(|| {
            tuned.and_then(|(p, m)| if p > 0.0 { Some(m / p) } else { None })
        });
        t.row(vec![
            family.name().to_string(),
            cfg.to_string(),
            format!("{predicted:.2}"),
            tuned.map(|(_, m)| format!("{m:.2}")).unwrap_or_else(dash),
            live.map(|d| format!("{:.2}", d.measured_cpr)).unwrap_or_else(dash),
            ratio.map(|r| format!("{r:.2}x")).unwrap_or_else(dash),
        ]);
    }
    t.print();
}

/// Validate a Chrome trace written by `--trace`/`HEF_TRACE` and print a
/// per-span-name summary. Exits non-zero on a malformed or unbalanced trace.
fn trace_report(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let report = match hef_obs::check_trace(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: invalid trace {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("trace {path}: {} events ({} spans, {} instants), {} threads, {} dropped",
        report.events,
        report.spans.len(),
        report.instants.len(),
        report.thread_names.len(),
        report.dropped,
    );
    // Aggregate spans by name: count, total (inclusive) duration, and
    // *self* time — total minus the time spent in child spans nested inside
    // (same thread, enclosed interval), so hot leaves stand out even when a
    // parent span wraps the whole run.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<&hef_obs::check::SpanRec>> =
        std::collections::BTreeMap::new();
    for s in &report.spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut agg: std::collections::BTreeMap<&str, (usize, f64, f64)> =
        std::collections::BTreeMap::new();
    for spans in by_tid.values_mut() {
        // Sort by start (longer span first on ties, so parents precede
        // their children) and walk a nesting stack: when a span starts
        // after the top of the stack ended, that frame is closed.
        spans.sort_by(|a, b| {
            a.ts_us
                .partial_cmp(&b.ts_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.dur_us.partial_cmp(&a.dur_us).unwrap_or(std::cmp::Ordering::Equal))
        });
        // (span, child_sum_us) frames.
        let mut stack: Vec<(&hef_obs::check::SpanRec, f64)> = Vec::new();
        for s in spans.iter() {
            while let Some(&(top, child_sum)) = stack.last() {
                if top.ts_us + top.dur_us <= s.ts_us {
                    let e = agg.entry(top.name.as_str()).or_insert((0, 0.0, 0.0));
                    e.0 += 1;
                    e.1 += top.dur_us;
                    e.2 += (top.dur_us - child_sum).max(0.0);
                    stack.pop();
                    if let Some(parent) = stack.last_mut() {
                        parent.1 += top.dur_us;
                    }
                } else {
                    break;
                }
            }
            stack.push((s, 0.0));
        }
        while let Some((top, child_sum)) = stack.pop() {
            let e = agg.entry(top.name.as_str()).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += top.dur_us;
            e.2 += (top.dur_us - child_sum).max(0.0);
            if let Some(parent) = stack.last_mut() {
                parent.1 += top.dur_us;
            }
        }
    }
    let mut t = TableWriter::new(vec!["span", "count", "total ms", "self ms"]);
    for (name, (count, us, self_us)) in agg {
        t.row(vec![name.to_string(), count.to_string(), f2(us / 1e3), f2(self_us / 1e3)]);
    }
    t.print();
    for (tid, name) in &report.thread_names {
        println!("  thread {tid}: {name}");
    }
    // Calibration follow-up: how the registry's tuned nodes price out today.
    drift_table(&registry_from_env().0);
}

// ---------------------------------------------------------------- plan files

/// Parse, optimize, lower, and execute a logical plan over SSB data — from
/// a `.plan` text file or a canned query spec (e.g. `q41`). Prints the plan
/// before and after optimization plus the optimizer's report, then runs the
/// optimized lowering in all four flavors and checks each against the
/// naive (declared-order, unoptimized) lowering for bit-identical groups.
fn plan_cmd(spec: &str, opts: &Opts) {
    use hef_engine::{lower, optimize, parse_plan, render_plan};

    let logical = match parse_query(spec) {
        Some(q) => hef_ssb::logical_plan(q),
        None => {
            let text = std::fs::read_to_string(spec).unwrap_or_else(|e| {
                eprintln!("plan: cannot read `{spec}`: {e}");
                std::process::exit(1);
            });
            parse_plan(&text).unwrap_or_else(|e| {
                eprintln!("plan: {spec}: {e}");
                std::process::exit(1);
            })
        }
    };
    let sf = opts.sf.unwrap_or(0.01);
    let data = gen_data(sf);
    let cat = hef_ssb::catalog(&data);

    println!("=== logical plan ===");
    print!("{}", render_plan(&logical));
    let (optimized, report) = optimize(&logical, &cat).unwrap_or_else(|e| {
        eprintln!("plan: optimizer: {e}");
        std::process::exit(1);
    });
    println!("\n=== optimizer ===\n{report}");
    println!("\n=== optimized plan ===");
    print!("{}", render_plan(&optimized));

    let fail = |stage: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("plan: {stage}: {e}");
        std::process::exit(1);
    };
    let naive = lower(&logical, &cat).unwrap_or_else(|e| fail("naive lowering", &e));
    let tuned = lower(&optimized, &cat).unwrap_or_else(|e| fail("optimized lowering", &e));
    let reference = match execute(opts, &naive, Fact::Mem(&data.lineorder), &ExecConfig::scalar()) {
        Ok((out, _)) => out,
        Err(e) => fail("naive execution", &e),
    };

    println!("\n=== execution (sf {sf}) ===");
    let mut t = TableWriter::new(vec!["flavor", "ms", "rows agg", "groups>0", "vs naive"]);
    for flavor in Flavor::ALL {
        let cfg = exec_config(&opts.registry.0, flavor);
        let start = std::time::Instant::now();
        let out = match execute(opts, &tuned, Fact::Mem(&data.lineorder), &cfg) {
            Ok((out, _)) => out,
            Err(e) => fail(flavor.name(), &e),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            out.groups, reference.groups,
            "{} diverged from the naive scalar lowering",
            flavor.name()
        );
        t.row(vec![
            flavor.name().to_string(),
            f2(ms),
            out.stats.rows_aggregated.to_string(),
            out.groups.iter().filter(|&&g| g != 0).count().to_string(),
            "identical".to_string(),
        ]);
    }
    t.print();
}

/// The paper's experiments, in the order `all` runs them.
const ALL: [&str; 17] = [
    "fig8", "fig9", "fig10", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
    "fig11", "fig12", "fig13", "fig14", "ablation-search", "ablation-pack", "tune",
];

/// Run the experiment named `cmd`; `false` when there is none.
fn experiment(cmd: &str, opts: &Opts) -> bool {
    match cmd {
        "fig8" => ssb_figure("Fig 8", "small", opts),
        "fig9" => ssb_figure("Fig 9", "medium", opts),
        "fig10" => ssb_figure("Fig 10", "large", opts),
        "table3" => counter_table("Table III", QueryId::Q3_3, "small", CpuModel::silver_4110(), opts),
        "table4" => counter_table("Table IV", QueryId::Q2_3, "medium", CpuModel::silver_4110(), opts),
        "table5" => counter_table("Table V", QueryId::Q2_1, "large", CpuModel::gold_6240r(), opts),
        "table6" => kernel_table("Table VI", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::silver_4110(), opts),
        "table7" => kernel_table("Table VII", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::gold_6240r(), opts),
        "table8" => kernel_table("Table VIII", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::silver_4110(), opts),
        "table9" => kernel_table("Table IX", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::gold_6240r(), opts),
        "fig11" => hist_figure("Fig 11", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::silver_4110()),
        "fig12" => hist_figure("Fig 12", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::gold_6240r()),
        "fig13" => hist_figure("Fig 13", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::silver_4110()),
        "fig14" => hist_figure("Fig 14", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::gold_6240r()),
        "ablation-search" => ablation_search(),
        "ablation-pack" => ablation_pack(opts),
        "tune" => tune(opts),
        "tune-pipeline" => tune_pipeline(opts),
        "paged" => paged_cmd(opts),
        "all" => {
            for c in ALL {
                experiment(c, opts);
            }
        }
        _ => return false,
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    if cmd == "plan" {
        let spec = args.get(1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("usage: repro plan <file.plan | qNN> [--sf f]");
            std::process::exit(2);
        });
        let opts = parse_opts(&args[2.min(args.len())..]);
        plan_cmd(spec, &opts);
        return;
    }
    if cmd == "report" {
        trace_report(args.get(1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("usage: repro report <trace.json>");
            std::process::exit(2);
        }));
        return;
    }
    if cmd == "trend" {
        trend_cmd(args.iter().skip(1).any(|a| a == "--strict"));
        return;
    }
    if cmd == "flame" {
        // Optional query spec, then the standard options.
        let (q, rest) = match args.get(1).and_then(|a| parse_query(a)) {
            Some(q) => (q, &args[2..]),
            None => (QueryId::Q2_1, &args[1.min(args.len())..]),
        };
        let opts = parse_opts(rest);
        flame_cmd(q, &opts);
        if let Some(out) = hef_obs::trace::finish() {
            if let Some(p) = &out.path {
                eprintln!("[trace] wrote {} ({} events)", p.display(), out.events);
            }
        }
        hef_obs::metrics::report_if_enabled();
        return;
    }
    let opts = parse_opts(&args[1.min(args.len())..]);
    if let Some(path) = &opts.trace {
        hef_obs::trace::start_file(path, hef_obs::Level::Fine);
    }

    if !experiment(cmd, &opts) {
        match parse_query(cmd) {
            Some(q) => run_query(q, &opts),
            None => {
                println!(
                    "usage: repro <experiment> [--sf f] [--n elems] [--repeats k] [--trace file] \
                     [--deadline-ms ms] [--mem-budget n]"
                );
                println!("experiments: fig8 fig9 fig10 table3..table9 fig11..fig14");
                println!("             ablation-search ablation-pack tune all");
                println!("             tune-pipeline [--query qNN] [--out file]");
                println!("             paged [--sf f] (out-of-core sweep: paged columns + page cache,");
                println!("                             checked bit-identical to in-memory at 1 and 4 threads)");
                println!("             qNN (traced single query, e.g. q21)   report <trace.json>");
                println!("             plan <file.plan | qNN> (logical plan: optimize, lower, execute)");
                println!("             flame [qNN] (in-terminal flamegraph of one profiled query)");
                println!("             trend [--strict] (per-row sparklines over archived snapshots)");
            }
        }
    }

    if let Some(out) = hef_obs::trace::finish() {
        if let Some(p) = &out.path {
            eprintln!(
                "[trace] wrote {} ({} events{})",
                p.display(),
                out.events,
                if out.dropped > 0 { format!(", {} dropped", out.dropped) } else { String::new() }
            );
        }
    }
    hef_obs::metrics::report_if_enabled();
}
