//! Ablation bench: hash-probe throughput versus hash-table working-set
//! size — the mechanism behind the paper's observation that HEF's speedup
//! ratio changes with the SSB scale factor ("the different size hash tables
//! are stored in different levels of cache").
//!
//! Tables are sized to land in L1, L2, LLC, and memory. Three memory
//! strategies compete at every size:
//!
//! * **flat** — the original single hash table, no prefetch;
//! * **prefetch** — the same table probed through the AMAC-style
//!   interleaved loop with `f` probes in flight (`KernelIo::Probe`'s
//!   `prefetch` field);
//! * **partitioned** — the build side radix-split into L2-sized sub-tables
//!   ([`PartitionedProbeTable`]), each bucket probed flat.
//!
//! The expected crossover: in-cache tables gain nothing (flat wins or
//! ties), DRAM-resident tables gain >1.3× from either memory-parallel
//! strategy.
//!
//! A second group backs the build-side sizing rule (`probe_slots` in
//! `hef-engine`'s `star`): one SSB-sized build side probed flat at
//! load factor 1/2, 1/4 and 1/8 with a miss-heavy key stream (≈80% misses,
//! as a selective dimension sees), all three tables within the half-L2
//! budget (`hef_engine::join_table_budget`).
//!
//! Beside them, the dense join index (`hef_kernels::DenseIndex`, what
//! `build_dimension` builds for a dense key range): the fused probe
//! (clamp, gather, hit test and compaction of the selection and group ids
//! in one Gather-grid pass) at the same 4096-entry, 80%-miss point, and over
//! a 200 k-key span (an SF 1 `part` array, 1.6 MB).
//!
//! The run is persisted to `results/bench_probe.json` (crossover) and
//! `results/bench_probe_load.json` (load factor; see
//! `hef_bench::BenchSnapshot`); `--smoke` shrinks sizes and samples for
//! CI; `--compare` prints a trend table against the previously archived
//! snapshots (advisory only — never fails the run) before overwriting them.

use hef_bench::BenchSnapshot;
use hef_kernels::{
    plan_partition_bits, run, DenseIndex, Family, HybridConfig, KernelIo, PartitionScratch,
    PartitionedProbeTable, ProbeTable,
};
use hef_testutil::bench::Group;
use hef_testutil::Rng;

fn table_with(entries: usize) -> ProbeTable {
    let mut t = ProbeTable::with_capacity(entries);
    for k in 0..entries as u64 {
        t.insert(k * 2 + 1, k % 1000);
    }
    t
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let compare = std::env::args().any(|a| a == "--compare");
    hef_obs::metrics::enable();

    let nkeys = if smoke { 1 << 14 } else { 1 << 18 };
    // entries → table bytes ≈ entries*2(load factor)*16: 1k≈32KiB (L1/L2),
    // 16k≈512KiB (L2), 256k≈8MiB (LLC), 2M≈64MiB (LLC boundary on big
    // server parts), 8M≈256MiB (firmly DRAM — several times any LLC, so the
    // crossover number is robust to run-to-run cache-share variance).
    let sizes: &[usize] = if smoke {
        &[1_000, 64_000]
    } else {
        &[1_000, 16_000, 256_000, 2_000_000, 8_000_000]
    };
    let samples = if smoke { 3 } else { 10 };
    let depths: &[usize] = if smoke { &[16] } else { &[8, 16, 32] };

    let mut snap = BenchSnapshot::new(if smoke { "probe_smoke" } else { "probe" });
    snap.config("nkeys", nkeys)
        .config("smoke", smoke)
        .config("samples", samples)
        .config("sizes", format!("{sizes:?}"))
        .config("depths", format!("{depths:?}"));

    let mut rng = Rng::seed_from_u64(11);
    let l2_target = hef_engine::join_table_budget();
    // (working-set bytes, best flat, best memory-parallel) per size.
    let mut crossover: Vec<(usize, f64, f64)> = Vec::new();

    for &entries in sizes {
        let table = table_with(entries);
        let bits = plan_partition_bits(table.working_set_bytes(), l2_target);
        let parts = (bits > 0).then(|| {
            let pairs: Vec<(u64, u64)> =
                (0..entries as u64).map(|k| (k * 2 + 1, k % 1000)).collect();
            PartitionedProbeTable::from_pairs(&pairs, bits)
        });
        let keys: Vec<u64> = (0..nkeys)
            .map(|_| rng.gen_range(0..entries as u64 * 2))
            .collect();
        let mut out = vec![0u64; nkeys];
        let mut scratch = PartitionScratch::default();

        let group = format!("probe_ws_{}kib", table.working_set_bytes() / 1024);
        let mut g = Group::new(group.clone())
            .throughput_elems(nkeys as u64)
            .samples(samples);
        let mut best_flat = f64::INFINITY;
        let mut best_mem = f64::INFINITY;

        let configs = [
            ("scalar", HybridConfig::SCALAR),
            ("simd", HybridConfig::SIMD),
            ("hybrid_n113", HybridConfig::new(1, 1, 3)),
            ("hybrid_n404", HybridConfig::new(4, 0, 4)),
        ];

        // Flat baselines.
        for (label, cfg) in configs {
            let s = g.bench(label, || {
                let mut io =
                    KernelIo::Probe { keys: &keys, table: &table, out: &mut out, prefetch: 0 };
                assert!(run(Family::Probe, cfg, &mut io));
            });
            best_flat = best_flat.min(s.median);
            snap.row(&group, label, s, Some(nkeys as u64));
        }
        // Software-prefetched (AMAC ring) at each depth.
        for &f in depths {
            for (name, cfg) in [("scalar", HybridConfig::SCALAR), ("hybrid_n113", HybridConfig::new(1, 1, 3))] {
                let label = format!("{name}_f{f}");
                let s = g.bench(label.clone(), || {
                    let mut io =
                        KernelIo::Probe { keys: &keys, table: &table, out: &mut out, prefetch: f };
                    assert!(run(Family::Probe, cfg, &mut io));
                });
                best_mem = best_mem.min(s.median);
                snap.row(&group, &label, s, Some(nkeys as u64));
            }
        }
        // Radix-partitioned (planner-sized buckets), flat and prefetched
        // sub-probes.
        if let Some(parts) = &parts {
            for &f in [0usize].iter().chain(depths.iter().take(1)) {
                let label = format!("part_b{}_n113_f{f}", parts.bits());
                let s = g.bench(label.clone(), || {
                    parts.probe_with(&keys, &mut out, &mut scratch, |t, k, o| {
                        let mut io = KernelIo::Probe { keys: k, table: t, out: o, prefetch: f };
                        assert!(run(Family::Probe, HybridConfig::new(1, 1, 3), &mut io));
                    });
                });
                best_mem = best_mem.min(s.median);
                snap.row(&group, &label, s, Some(nkeys as u64));
            }
        }
        g.finish();
        crossover.push((table.working_set_bytes(), best_flat, best_mem));
    }

    // Load-factor rows: 4096 entries (a filtered SSB dimension) in 8k, 16k
    // and 32k slots; one key in five is in the table.
    let entries = 4096usize;
    let mut load_snap = BenchSnapshot::new(if smoke { "probe_load_smoke" } else { "probe_load" });
    load_snap
        .config("nkeys", nkeys)
        .config("smoke", smoke)
        .config("samples", samples)
        .config("entries", entries)
        .config("budget_bytes", l2_target);
    let group = format!("probe_load_n{entries}_miss80");
    let keys: Vec<u64> = (0..nkeys).map(|_| rng.gen_range(0..entries as u64 * 5)).collect();
    let mut out = vec![0u64; nkeys];
    let mut g = Group::new(group.clone()).throughput_elems(nkeys as u64).samples(samples);
    for load in [2usize, 4, 8] {
        let mut table = ProbeTable::with_slots(entries * load);
        for k in 0..entries as u64 {
            table.insert(k, k % 1000);
        }
        assert!(table.working_set_bytes() <= l2_target, "load 1/{load} table over budget");
        for (name, cfg) in [
            ("scalar", HybridConfig::SCALAR),
            ("simd", HybridConfig::SIMD),
            ("hybrid_n113", HybridConfig::new(1, 1, 3)),
        ] {
            let label = format!("{name}_load{load}");
            let s = g.bench(label.clone(), || {
                let mut io = KernelIo::Probe { keys: &keys, table: &table, out: &mut out, prefetch: 0 };
                assert!(run(Family::Probe, cfg, &mut io));
            });
            load_snap.row(&group, &label, s, Some(nkeys as u64));
        }
    }
    g.finish();

    // Dense rows: the same keys against a 4096-key payload array, then a
    // fully populated 200 k-key span probed with keys from five times the
    // span (80% misses again).
    let mut g = Group::new(group.clone()).throughput_elems(nkeys as u64).samples(samples);
    let pairs: Vec<(u64, u64)> = (0..entries as u64).map(|k| (k, k % 1000)).collect();
    let dense = DenseIndex::build(&pairs, usize::MAX).expect("dense span");
    bench_dense(&mut g, &mut load_snap, &group, "span4096", &dense, &keys, nkeys);
    g.finish();
    let span = 200_000u64;
    let group = "probe_dense_span200k_miss80".to_string();
    let mut g = Group::new(group.clone()).throughput_elems(nkeys as u64).samples(samples);
    let pairs: Vec<(u64, u64)> = (0..span).map(|k| (k, k % 1000)).collect();
    let dense = DenseIndex::build(&pairs, usize::MAX).expect("dense span");
    let keys: Vec<u64> = (0..nkeys).map(|_| rng.gen_range(0..span * 5)).collect();
    bench_dense(&mut g, &mut load_snap, &group, "span200k", &dense, &keys, nkeys);
    g.finish();

    // The crossover summary: memory-parallel speedup over the best flat
    // config at each working-set size.
    println!("memory-parallel speedup by working set:");
    for &(ws, flat, mem) in &crossover {
        let speedup = flat / mem;
        println!("  {:>9} KiB: {:.2}x", ws / 1024, speedup);
        snap.derived(&format!("speedup_ws_{}kib", ws / 1024), speedup);
    }
    if let Some(&(ws, flat, mem)) = crossover.last() {
        snap.derived("dram_working_set_bytes", ws as f64);
        snap.derived("dram_speedup", flat / mem);
    }
    persist(&snap, compare);
    persist(&load_snap, compare);
}

/// One row per node: the fused dense probe over a fresh selection of every
/// key, as the stage loop's first dimension runs it.
fn bench_dense(
    g: &mut Group,
    snap: &mut BenchSnapshot,
    group: &str,
    tag: &str,
    dense: &DenseIndex,
    keys: &[u64],
    nkeys: usize,
) {
    let (mut sel, mut gids) = (Vec::with_capacity(keys.len()), Vec::with_capacity(keys.len()));
    for (name, cfg) in [
        ("scalar", HybridConfig::SCALAR),
        ("simd", HybridConfig::SIMD),
        ("hybrid_n113", HybridConfig::new(1, 1, 3)),
    ] {
        let label = format!("dense_{name}_{tag}");
        let s = g.bench(label.clone(), || {
            sel.clear();
            sel.extend(0..keys.len() as u64);
            gids.clear();
            let mut io = KernelIo::DenseProbe { keys, index: dense, stride: 1, sel: &mut sel, gids: &mut gids };
            assert!(run(Family::Gather, cfg, &mut io));
        });
        snap.row(group, &label, s, Some(nkeys as u64));
    }
}

/// Print the advisory trend against the archived run (with `--compare`),
/// then write the snapshot, which archives the one it replaces.
fn persist(snap: &BenchSnapshot, compare: bool) {
    if compare {
        match snap.compare_default() {
            Some(report) => print!("{}", report.render()),
            None => println!("compare: no archived baseline for `{}` yet", snap.name()),
        }
    }
    match snap.write_default() {
        Ok(path) => println!("snapshot: {}", path.display()),
        Err(e) => eprintln!("snapshot write failed: {e}"),
    }
}
