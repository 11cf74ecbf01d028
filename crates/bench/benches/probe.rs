//! Ablation bench: hash-probe throughput versus hash-table working-set
//! size — the mechanism behind the paper's observation that HEF's speedup
//! ratio changes with the SSB scale factor ("the different size hash tables
//! are stored in different levels of cache").
//!
//! Tables are sized to land in L1, L2, LLC, and memory, and each is probed
//! flat — one linear-probe hash table — at the scalar, SIMD and two hybrid
//! nodes.
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
//! The run is persisted to `results/bench_probe.json` (working-set sweep) and
//! `results/bench_probe_load.json` (load factor; see
//! `hef_bench::BenchSnapshot`); `--smoke` shrinks sizes and samples for
//! CI; `--compare` prints a trend table against the previously archived
//! snapshots (advisory only — never fails the run) before overwriting them.

use hef_bench::BenchSnapshot;
use hef_kernels::{run, DenseIndex, Family, HybridConfig, KernelIo, ProbeTable};
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
    // row is robust to run-to-run cache-share variance).
    let sizes: &[usize] = if smoke {
        &[1_000, 64_000]
    } else {
        &[1_000, 16_000, 256_000, 2_000_000, 8_000_000]
    };
    let samples = if smoke { 3 } else { 10 };

    let mut snap = BenchSnapshot::new(if smoke { "probe_smoke" } else { "probe" });
    snap.config("nkeys", nkeys)
        .config("smoke", smoke)
        .config("samples", samples)
        .config("sizes", format!("{sizes:?}"));

    let mut rng = Rng::seed_from_u64(11);
    let l2_target = hef_engine::join_table_budget();

    for &entries in sizes {
        let table = table_with(entries);
        let keys: Vec<u64> = (0..nkeys)
            .map(|_| rng.gen_range(0..entries as u64 * 2))
            .collect();
        let mut out = vec![0u64; nkeys];

        let group = format!("probe_ws_{}kib", table.working_set_bytes() / 1024);
        let mut g = Group::new(group.clone())
            .throughput_elems(nkeys as u64)
            .samples(samples);

        let configs = [
            ("scalar", HybridConfig::SCALAR),
            ("simd", HybridConfig::SIMD),
            ("hybrid_n113", HybridConfig::new(1, 1, 3)),
            ("hybrid_n404", HybridConfig::new(4, 0, 4)),
        ];

        for (label, cfg) in configs {
            let s = g.bench(label, || {
                let mut io = KernelIo::Probe { keys: &keys, table: &table, out: &mut out };
                assert!(run(Family::Probe, cfg, &mut io));
            });
            snap.row(&group, label, s, Some(nkeys as u64));
        }
        g.finish();
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
                let mut io = KernelIo::Probe { keys: &keys, table: &table, out: &mut out };
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

    persist(&snap, compare);
    persist(&load_snap, compare);
}

/// One row per node: the fused dense probe over a fresh selection of every
/// key, as the stage loop's first dimension runs it. Labelled
/// `dense_fused_*`: the `dense_*` series before them timed a plain clamp and
/// gather, a different kernel.
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
        let label = format!("dense_fused_{name}_{tag}");
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
