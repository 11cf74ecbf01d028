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
//!   ablation-dynamic         per-query best flavor (paper §VII)
//!   ablation-bloom           Bloom semi-join pre-filtering vs plain probes
//!   tune                     run the measured HEF tuner on this machine
//!   tune-pipeline            joint (v,s,p,f) whole-pipeline tuning on the
//!                            modeled Xeons; writes registry v3 pipeline
//!                            rows to results/tuned.txt and a measured
//!                            per-op-vs-joint snapshot (--query qNN for one
//!                            query, --model silver-4110|gold-6240r;
//!                            --paged adds the page-decode stage and
//!                            measures over the out-of-core scan)
//!   paged                    out-of-core sweep: lineorder as paged
//!                            compressed columns behind the bounded page
//!                            cache (HEF_PAGE_CACHE, default 25% of raw),
//!                            all queries checked bit-identical to the
//!                            in-memory executor at 1 and 4 threads
//!   qNN (e.g. q21, Q2.1)     one traced SSB query end to end (offline tune,
//!                            registry warm, parallel execution)
//!   report <trace.json>      validate + summarize a trace written earlier
//!                            (per span name: count, total, and self time)
//!   plan <file.plan | qNN>   parse → optimize → lower → execute a logical
//!                            plan (text file or canned SSB query), checking
//!                            the optimized lowering bit-identical to naive
//!   flame [qNN]              one profiled query (default q21): in-terminal
//!                            flamegraph of per-worker self time, governance
//!                            events inline, reconciled against ExecReport
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
//!                        (equivalent to HEF_DEADLINE_MS=<ms>)
//!   --mem-budget <bytes> global memory budget with k/m/g suffixes; the
//!                        governor degrades and then rejects queries that
//!                        would exceed it (equivalent to HEF_MEM_BUDGET=<n>)
//! ```
//!
//! Scale-factor mapping (see DESIGN.md §3): the paper's SF10/SF20/SF50 are
//! run as 0.25/0.5/1.25 by default — the same 1:2:5 ratio, sized for this
//! machine; pass `--sf` to change.

use hef_bench::config::{exec_config, tuned_hybrid};
use hef_bench::counters::{issue_histogram, model_kernel, model_query};
use hef_bench::measure::{kernel_input, measure_kernel, measure_query, measure_query_reported};
use hef_bench::report::{eng, f2, TableWriter};
use hef_core::{optimizer, space, templates, tune_measured, tune_simulated, Registry};
use hef_engine::Flavor;
use hef_kernels::{Family, HybridConfig};
use hef_ssb::{build_plan, generate, QueryId, SsbData};
use hef_uarch::CpuModel;

struct Opts {
    sf: Option<f64>,
    n: usize,
    repeats: usize,
    trace: Option<String>,
    query: Option<String>,
    model: Option<String>,
    deadline_ms: Option<u64>,
    mem_budget: Option<String>,
    paged: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        sf: None,
        n: 20_000_000,
        repeats: 2,
        trace: None,
        query: None,
        model: None,
        deadline_ms: None,
        mem_budget: None,
        paged: false,
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
            "--model" => {
                o.model = Some(args[i + 1].clone());
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
            other => panic!("unknown option {other}"),
        }
    }
    o
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
            let cfg = exec_config(flavor);
            let (m, out, report) = measure_query_reported(&plan, &data.lineorder, &cfg, opts.repeats);
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
        let cfg = exec_config(flavor);
        let (m, out) = measure_query(&plan, &data.lineorder, &cfg, opts.repeats);
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

fn ablation_bloom(opts: &Opts) {
    let (sf, note) = scale_for("small", opts);
    println!("\n=== ablation: Bloom semi-join pre-filtering ({note}) ===\n");
    println!("high-selectivity queries probe mostly-missing keys; a Bloom");
    println!("pre-filter (hash + word gather + bit test) drops definite");
    println!("misses before the table probe.\n");
    let data = gen_data(sf);
    let mut t = TableWriter::new(vec![
        "query", "probe ms", "bloom+probe ms", "gain", "probes", "probes after bloom",
    ]);
    for q in [hef_ssb::QueryId::Q2_3, hef_ssb::QueryId::Q3_3, hef_ssb::QueryId::Q3_4,
              hef_ssb::QueryId::Q2_1, hef_ssb::QueryId::Q4_2] {
        let plan = build_plan(&data, q);
        let cfg = tuned_hybrid();
        let (plain, out_plain) = measure_query(&plan, &data.lineorder, &cfg, opts.repeats);
        let mut bcfg = cfg;
        bcfg.use_bloom = true;
        let (bloom, out_bloom) = measure_query(&plan, &data.lineorder, &bcfg, opts.repeats);
        assert_eq!(out_plain.groups, out_bloom.groups, "{}", q.name());
        t.row(vec![
            q.name().to_string(),
            f2(plain.ms()),
            f2(bloom.ms()),
            format!("{:.2}x", plain.ms() / bloom.ms()),
            out_plain.stats.probes.iter().sum::<u64>().to_string(),
            out_bloom.stats.probes.iter().sum::<u64>().to_string(),
        ]);
    }
    t.print();
}

fn ablation_dynamic(opts: &Opts) {
    let (sf, note) = scale_for("small", opts);
    println!("\n=== ablation: dynamic per-query flavor selection (paper §VII) ({note}) ===\n");
    let data = gen_data(sf);
    let mut t = TableWriter::new(vec!["query", "best flavor", "best ms", "hybrid ms", "gain"]);
    for q in QueryId::PAPER {
        let plan = build_plan(&data, q);
        let mut best = (Flavor::Hybrid, f64::INFINITY);
        let mut hybrid_ms = 0.0;
        for flavor in Flavor::ALL {
            let (m, _) = measure_query(
                &plan,
                &data.lineorder,
                &exec_config(flavor),
                opts.repeats,
            );
            if m.ms() < best.1 {
                best = (flavor, m.ms());
            }
            if flavor == Flavor::Hybrid {
                hybrid_ms = m.ms();
            }
        }
        t.row(vec![
            q.name().to_string(),
            best.0.name().to_string(),
            f2(best.1),
            f2(hybrid_ms),
            format!("{:.2}x", hybrid_ms / best.1),
        ]);
    }
    t.print();
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
    // The probe family gets a second, four-dimensional pass: `(v, s, p)`
    // plus the prefetch depth `f`, against a DRAM-resident build side so
    // the depth axis has misses to hide. Writing it through
    // `insert_tuned_probe` upgrades the saved registry to the v2 format.
    let tp = hef_core::tune_probe_measured(1 << 21, n.min(1 << 18));
    println!("  {}", tp.describe());
    reg.insert_tuned_probe(&tp);
    std::fs::create_dir_all("results").ok();
    let path = std::path::Path::new("results/tuned.txt");
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

/// `silver-4110` / `gold-6240r` (or any string containing the family or
/// model number) → the modeled Xeon.
fn model_by_name(name: &str) -> CpuModel {
    let n = name.to_ascii_lowercase();
    if n.contains("silver") || n.contains("4110") {
        CpuModel::silver_4110()
    } else if n.contains("gold") || n.contains("6240") {
        CpuModel::gold_6240r()
    } else {
        panic!("unknown --model {name} (try silver-4110 or gold-6240r)")
    }
}

/// Whole-pipeline joint `(v, s, p, f)` tuning (the co-residency model in
/// `hef_core::pipeline`): per query, lower the star plan into a
/// [`hef_core::PipelineSpec`] via one cheap stats run, tune each kernel
/// family per-op on the simulator as the baseline composition, then run the
/// joint search seeded from it. Results are persisted as registry v3
/// pipeline rows in `results/tuned.txt` (keyed by plan fingerprint, for the
/// first `--model`, default silver-4110), and the per-op vs joint configs
/// are wall-clock measured into `results/bench_pipeline.json` with a trend
/// diff against the previous archive.
fn tune_pipeline(opts: &Opts) {
    use hef_bench::pipeline::{
        joint_exec_config, per_op_exec_config, pipeline_spec, pipeline_spec_paged,
    };
    use hef_bench::BenchSnapshot;
    use hef_engine::{execute_star, ExecConfig};
    use hef_testutil::bench::Group;

    let (sf, note) = scale_for("small", opts);
    let queries: Vec<QueryId> = match &opts.query {
        Some(s) => {
            vec![parse_query(s).unwrap_or_else(|| panic!("--query {s}: not an SSB query"))]
        }
        None => QueryId::ALL.to_vec(),
    };
    let models: Vec<CpuModel> = match &opts.model {
        Some(m) => vec![model_by_name(m)],
        None => vec![CpuModel::silver_4110(), CpuModel::gold_6240r()],
    };
    println!(
        "\n=== whole-pipeline joint (v,s,p,f) tuning ({note}; {} queries × {} models{}) ===\n",
        queries.len(),
        models.len(),
        if opts.paged { "; paged scan with decode stage" } else { "" }
    );
    let data = gen_data(sf);

    // Per-op simulated baselines, one registry per model: each family the
    // SSB pipelines use, tuned in isolation — the composition the paper's
    // per-op tuner would deploy, and the joint search's seed. A paged scan
    // adds the page-decode family to the chain.
    let mut spec_families =
        vec![Family::Filter, Family::Probe, Family::Gather, Family::AggSum, Family::AggDot];
    if opts.paged {
        spec_families.push(Family::Decode);
    }
    let seed_regs: Vec<Registry> = models
        .iter()
        .map(|model| {
            let mut reg = Registry::default();
            for &family in &spec_families {
                reg.insert_tuned(&tune_simulated(family, model));
            }
            reg
        })
        .collect();

    let mut t = TableWriter::new(vec![
        "query", "model", "per-op ns/row", "joint ns/row", "gain %", "tested", "joint plan",
    ]);
    let mut strict = 0usize;
    let mut dominated = 0usize;
    let mut cases = 0usize;
    // (query, plan, per-model entries) for persistence + measurement.
    let mut tuned: Vec<(QueryId, hef_engine::StarPlan, hef_core::PipelineEntry)> = Vec::new();

    for &q in &queries {
        let plan = build_plan(&data, q);
        // One stats run (scalar, single-threaded) yields the reach fractions
        // and probe working sets the co-residency model weighs.
        let out = execute_star(&plan, &data.lineorder, &ExecConfig::scalar().with_threads(1));
        let spec = if opts.paged {
            pipeline_spec_paged(&plan, &out.stats)
        } else {
            pipeline_spec(&plan, &out.stats)
        };
        let max_ws = spec.stages.iter().map(|s| s.working_set).max().unwrap_or(0);

        for (model, seed) in models.iter().zip(&seed_regs) {
            // The per-op baseline also gets its prefetch depth tuned in
            // isolation, against this query's largest probe table.
            let mut reg = seed.clone();
            if max_ws > 0 {
                reg.insert_tuned_probe(&hef_core::tune_probe_simulated(model, max_ws));
            }
            let per_op = hef_core::compose_per_op(model, &spec, &reg);
            let per_op_cost = hef_core::pipeline_cost(model, &spec, &per_op);
            let joint = hef_core::tune_pipeline_simulated(model, &spec, &reg);
            let joint_cost = joint.outcome.best_cost;

            cases += 1;
            if joint_cost <= per_op_cost {
                dominated += 1;
            }
            if joint_cost < per_op_cost * (1.0 - 1e-6) {
                strict += 1;
            }
            t.row(vec![
                q.name().to_string(),
                model.name.to_string(),
                format!("{per_op_cost:.3}"),
                format!("{joint_cost:.3}"),
                format!("{:.1}", (1.0 - joint_cost / per_op_cost) * 100.0),
                joint.outcome.tested.len().to_string(),
                joint.node.to_string(),
            ]);
            if model.name == models[0].name {
                tuned.push((q, plan.clone(), joint.entry(&spec)));
            }
        }
    }
    t.print();
    println!(
        "\njoint ≤ per-op composition on {dominated}/{cases} (strictly better on {strict})"
    );

    // Persist registry v3: pipeline rows keyed by plan fingerprint, layered
    // onto whatever per-op registry `repro tune` already wrote (the
    // degradation ladder's lower rungs).
    std::fs::create_dir_all("results").ok();
    let path = std::path::Path::new("results/tuned.txt");
    let mut reg = if path.is_file() {
        Registry::load_degraded(path).0
    } else {
        Registry::with_host_provenance("this machine (repro tune-pipeline)")
    };
    for (_, plan, entry) in &tuned {
        reg.insert_pipeline(plan.fingerprint(), entry.clone());
    }
    match reg.save(path) {
        Ok(()) => println!(
            "saved {} pipeline plan(s) [model {}] to {}; set HEF_PIPELINE={} to deploy them",
            reg.pipelines_len(),
            models[0].name,
            path.display(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not save {}: {e}", path.display()),
    }

    // Measured before/after on this machine: the per-op composition vs the
    // joint plan, archived as a snapshot with a trend diff.
    let samples = opts.repeats.max(3);
    // Single-query (smoke) runs archive separately, so the committed
    // full-sweep bench_pipeline.json only changes on full runs (same split
    // as the probe bench's --smoke).
    let mut snap = BenchSnapshot::new(match (opts.paged, opts.query.is_some()) {
        (false, false) => "pipeline",
        (false, true) => "pipeline_smoke",
        (true, false) => "pipeline_paged",
        (true, true) => "pipeline_paged_smoke",
    });
    snap.config("sf", sf)
        .config("model", &models[0].name)
        .config("samples", samples)
        .config("lineorder_rows", data.lineorder.len());
    let rows = data.lineorder.len() as u64;
    // In paged mode the measured before/after runs the out-of-core scan, so
    // the tuned decode node is actually on the measured path.
    let paged_table = opts.paged.then(|| {
        let dir = std::env::temp_dir().join(format!("hef-repro-tunepipe-sf{sf}"));
        std::fs::remove_dir_all(&dir).ok();
        hef_ssb::generate_paged(sf, 0x55B, &dir, hef_storage::page::rows_per_page_from_env())
            .expect("paged generation failed");
        hef_engine::PagedTable::open_dir(&dir, "lineorder").expect("paged open failed")
    });
    let cache = hef_storage::PageCache::from_env();
    let run = |plan: &hef_engine::StarPlan, cfg: &ExecConfig| match &paged_table {
        Some(t) => {
            let ctx = hef_engine::QueryCtx::unbounded();
            hef_engine::try_execute_star_paged_ctx(plan, t, cfg, &cache, &ctx)
                .expect("paged execution failed");
        }
        None => {
            execute_star(plan, &data.lineorder, cfg);
        }
    };
    for (q, plan, entry) in &tuned {
        let group = format!("pipeline_{}", q.name().replace('.', "_"));
        let per_cfg = per_op_exec_config(&seed_regs[0]);
        let joint_cfg = joint_exec_config(&seed_regs[0], entry);
        let mut g = Group::new(group.clone()).throughput_elems(rows).samples(samples);
        let s = g.bench("per_op", || run(plan, &per_cfg));
        snap.row(&group, "per_op", s, Some(rows));
        let s = g.bench("joint", || run(plan, &joint_cfg));
        snap.row(&group, "joint", s, Some(rows));
        g.finish();
    }
    match snap.compare_default() {
        Some(report) => print!("{}", report.render()),
        None => println!("compare: no archived baseline for `pipeline` yet"),
    }
    match snap.write_default() {
        Ok(p) => println!("snapshot: {}", p.display()),
        Err(e) => eprintln!("snapshot write failed: {e}"),
    }
}

// ---------------------------------------------------------------- out-of-core

/// Run every SSB query out-of-core: the lineorder fact streamed to paged
/// compressed column files, scanned through the bounded page cache, checked
/// bit-identical to the in-memory executor at 1 and 4 threads. The cache
/// capacity comes from `HEF_PAGE_CACHE` when set, else 25% of the dataset's
/// raw (decoded) bytes — small enough that eviction is constant. Exits
/// non-zero on any divergence, on a bounded cache that somehow never
/// evicted (the out-of-core claim would be vacuous), and on more than
/// [`MAX_DECODE_ROWS_PER_FACT_ROW`] decoded rows per scanned fact row (a
/// silent fallback to full-page decode past the first filter).
/// Decoded rows per scanned fact row above which `repro paged` fails. Only
/// the first filter column decodes every row of a page; every other column
/// decodes just the rows that reach it, so the SSB sweep stays near 1.2.
/// Full-page decode of every read column lands near 4.5.
const MAX_DECODE_ROWS_PER_FACT_ROW: f64 = 2.0;

fn paged_cmd(opts: &Opts) {
    use hef_engine::{execute_star, try_execute_star_paged_ctx, PagedTable, QueryCtx};
    use hef_storage::PageCache;

    let sf = opts.sf.unwrap_or(1.0);
    hef_obs::metrics::enable();
    println!("\n=== paged: out-of-core SSB sweep (sf {sf}) ===\n");
    let data = gen_data(sf);
    let dir = std::env::temp_dir().join(format!("hef-repro-paged-sf{sf}"));
    std::fs::remove_dir_all(&dir).ok();
    eprintln!("[gen] paged lineorder → {}", dir.display());
    let rows_per_page = hef_storage::page::rows_per_page_from_env();
    hef_ssb::generate_paged(sf, 0x55B, &dir, rows_per_page)
        .expect("paged generation failed");
    let table = PagedTable::open_dir(&dir, "lineorder").expect("paged open failed");
    let raw = table.raw_bytes();
    let disk: u64 = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(|e| Some(e.ok()?.metadata().ok()?.len())).sum())
        .unwrap_or(0);
    let cache = match std::env::var("HEF_PAGE_CACHE") {
        Ok(_) => PageCache::from_env(),
        Err(_) => PageCache::new((raw / 4) as usize),
    };
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
        let reference = execute_star(&plan, &data.lineorder, &exec_config(Flavor::Hybrid).with_threads(1));
        let mem_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut paged_ms = [0.0f64; 2];
        for (i, threads) in [1usize, 4].into_iter().enumerate() {
            let cfg = exec_config(Flavor::Hybrid).with_threads(threads);
            let t0 = std::time::Instant::now();
            let out = try_execute_star_paged_ctx(&plan, &table, &cfg, &cache, &QueryCtx::unbounded())
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

    // Offline phase: registry warm-load plus a simulated tune per kernel
    // family (tuner/translate spans in the trace).
    let (reg, warm) = hef_core::Registry::warm_report();
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
            let cfg = exec_config(flavor).with_threads(threads);
            match hef_engine::try_execute_star(&plan, &data.lineorder, &cfg) {
                Ok((out, report)) => println!(
                    "  {}: ok — {} groups, {} morsels, {} threads",
                    flavor.name(),
                    out.groups.len(),
                    report.morsels_completed,
                    report.threads
                ),
                Err(e @ hef_engine::ExecError::DeadlineExceeded { .. }) => {
                    println!("  {}: DeadlineExceeded — {e}", flavor.name())
                }
                Err(e @ hef_engine::ExecError::Cancelled { .. }) => {
                    println!("  {}: Cancelled — {e}", flavor.name())
                }
                Err(e @ hef_engine::ExecError::Rejected { .. }) => {
                    println!("  {}: Rejected — {e}", flavor.name())
                }
                Err(e) => println!("  {}: error — {e}", flavor.name()),
            }
        }
        return;
    }

    let mut t = TableWriter::new(vec!["flavor", "ms", "threads", "retried", "lost", "serial"]);
    for flavor in Flavor::ALL {
        let cfg = exec_config(flavor).with_threads(threads);
        let (m, _out, report) = measure_query_reported(&plan, &data.lineorder, &cfg, opts.repeats);
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
    let cfg = exec_config(Flavor::Hybrid).with_threads(threads);

    // `--paged` profiles the out-of-core scan instead: page morsels with
    // per-worker `decode` self-time under them, no in-memory ExecReport.
    let (out, reconcile) = if opts.paged {
        let dir = std::env::temp_dir().join(format!("hef-flame-paged-sf{sf}"));
        std::fs::remove_dir_all(&dir).ok();
        hef_ssb::generate_paged(sf, 0x55B, &dir, hef_storage::page::rows_per_page_from_env())
            .expect("paged generation failed");
        let table = hef_engine::PagedTable::open_dir(&dir, "lineorder").expect("paged open");
        let pages = table.page_count() as u64;
        let cache = hef_storage::PageCache::from_env();
        let ctx = hef_engine::QueryCtx::unbounded();
        match hef_engine::try_execute_star_paged_ctx(&plan, &table, &cfg, &cache, &ctx) {
            Ok(out) => (out, ("page", pages, format!("{pages} page(s)"))),
            Err(e) => {
                eprintln!("flame: {}: {e}", q.name());
                std::process::exit(1);
            }
        }
    } else {
        match hef_engine::try_execute_star(&plan, &data.lineorder, &cfg) {
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
    drift_table(Registry::warm());
}

// ---------------------------------------------------------------- plan files

/// Parse, optimize, lower, and execute a logical plan over SSB data — from
/// a `.plan` text file or a canned query spec (e.g. `q41`). Prints the plan
/// before and after optimization plus the optimizer's report, then runs the
/// optimized lowering in all four flavors and checks each against the
/// naive (declared-order, unoptimized) lowering for bit-identical groups.
fn plan_cmd(spec: &str, opts: &Opts) {
    use hef_engine::{lower, optimize, parse_plan, render_plan, try_execute_star, ExecConfig};

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
    let reference = match try_execute_star(&naive, &data.lineorder, &ExecConfig::scalar()) {
        Ok((out, _)) => out,
        Err(e) => fail("naive execution", &e),
    };

    println!("\n=== execution (sf {sf}) ===");
    let mut t = TableWriter::new(vec!["flavor", "ms", "rows agg", "groups>0", "vs naive"]);
    for flavor in Flavor::ALL {
        let cfg = exec_config(flavor);
        let start = std::time::Instant::now();
        let out = match try_execute_star(&tuned, &data.lineorder, &cfg) {
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
    // Governance knobs must land in the environment before the first query
    // executes: the engine reads HEF_DEADLINE_MS per execution and latches
    // HEF_MEM_BUDGET into the process-wide governor on first admission.
    if let Some(ms) = opts.deadline_ms {
        std::env::set_var("HEF_DEADLINE_MS", ms.to_string());
    }
    if let Some(budget) = &opts.mem_budget {
        std::env::set_var("HEF_MEM_BUDGET", budget);
    }
    if let Some(path) = &opts.trace {
        hef_obs::trace::start_file(path, hef_obs::Level::Fine);
    }

    match cmd {
        "fig8" => ssb_figure("Fig 8", "small", &opts),
        "fig9" => ssb_figure("Fig 9", "medium", &opts),
        "fig10" => ssb_figure("Fig 10", "large", &opts),
        "table3" => counter_table("Table III", QueryId::Q3_3, "small", CpuModel::silver_4110(), &opts),
        "table4" => counter_table("Table IV", QueryId::Q2_3, "medium", CpuModel::silver_4110(), &opts),
        "table5" => counter_table("Table V", QueryId::Q2_1, "large", CpuModel::gold_6240r(), &opts),
        "table6" => kernel_table("Table VI", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::silver_4110(), &opts),
        "table7" => kernel_table("Table VII", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::gold_6240r(), &opts),
        "table8" => kernel_table("Table VIII", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::silver_4110(), &opts),
        "table9" => kernel_table("Table IX", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::gold_6240r(), &opts),
        "fig11" => hist_figure("Fig 11", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::silver_4110()),
        "fig12" => hist_figure("Fig 12", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::gold_6240r()),
        "fig13" => hist_figure("Fig 13", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::silver_4110()),
        "fig14" => hist_figure("Fig 14", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::gold_6240r()),
        "ablation-search" => ablation_search(),
        "ablation-pack" => ablation_pack(&opts),
        "ablation-bloom" => ablation_bloom(&opts),
        "ablation-dynamic" => ablation_dynamic(&opts),
        "tune" => tune(&opts),
        "tune-pipeline" => tune_pipeline(&opts),
        "paged" => paged_cmd(&opts),
        "all" => {
            for f in ["fig8", "fig9", "fig10"] {
                ssb_figure(f, match f { "fig8" => "small", "fig9" => "medium", _ => "large" }, &opts);
            }
            counter_table("Table III", QueryId::Q3_3, "small", CpuModel::silver_4110(), &opts);
            counter_table("Table IV", QueryId::Q2_3, "medium", CpuModel::silver_4110(), &opts);
            counter_table("Table V", QueryId::Q2_1, "large", CpuModel::gold_6240r(), &opts);
            kernel_table("Table VI", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::silver_4110(), &opts);
            kernel_table("Table VII", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::gold_6240r(), &opts);
            kernel_table("Table VIII", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::silver_4110(), &opts);
            kernel_table("Table IX", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::gold_6240r(), &opts);
            hist_figure("Fig 11", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::silver_4110());
            hist_figure("Fig 12", Family::Murmur, HybridConfig::new(1, 3, 2), CpuModel::gold_6240r());
            hist_figure("Fig 13", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::silver_4110());
            hist_figure("Fig 14", Family::Crc64, HybridConfig::new(8, 0, 1), CpuModel::gold_6240r());
            ablation_search();
            ablation_pack(&opts);
            ablation_bloom(&opts);
            ablation_dynamic(&opts);
            tune(&opts);
        }
        other => match parse_query(other) {
            Some(q) => run_query(q, &opts),
            None => {
                println!(
                    "usage: repro <experiment> [--sf f] [--n elems] [--repeats k] [--trace file] \
                     [--deadline-ms ms] [--mem-budget n]"
                );
                println!("experiments: fig8 fig9 fig10 table3..table9 fig11..fig14");
                println!("             ablation-search ablation-pack ablation-bloom ablation-dynamic tune all");
                println!("             tune-pipeline [--query qNN] [--model silver-4110|gold-6240r] [--paged]");
                println!("             paged [--sf f] (out-of-core sweep: paged columns + page cache,");
                println!("                             checked bit-identical to in-memory at 1 and 4 threads)");
                println!("             qNN (traced single query, e.g. q21)   report <trace.json>");
                println!("             plan <file.plan | qNN> (logical plan: optimize, lower, execute)");
                println!("             flame [qNN] (in-terminal flamegraph of one profiled query)");
                println!("             trend [--strict] (per-row sparklines over archived snapshots)");
            }
        },
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
