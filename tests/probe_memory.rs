//! Differential suite for the memory-parallel probe pipeline: software
//! prefetch (any depth, on- or off-axis) and radix partitioning must be
//! *pure optimizations* — bit-identical to the flat scalar reference probe
//! for every flavor, every key distribution, and every partition size.
//!
//! Also covers the persistence story: `(v, s, p, f)` registry round-trips
//! through the v2 text format, and a stale pre-`f` registry loads through
//! the degradation ladder with a seeded depth instead of an error.

use hef::core::{Family as CoreFamily, Registry};
use hef::engine::{execute_star, ExecConfig, Flavor};
use hef::kernels::{
    all_configs, run, Family, HybridConfig, KernelIo, PartitionScratch,
    PartitionedProbeTable, ProbeTable, F_AXIS,
};
use hef::ssb::{build_plan, generate, QueryId};
use hef_testutil::{prop, strategy, Rng};

/// Reference: one scalar probe per key against the flat table.
fn reference(table: &ProbeTable, keys: &[u64]) -> Vec<u64> {
    keys.iter().map(|&k| table.probe_scalar(k)).collect()
}

fn build(entries: usize) -> (ProbeTable, Vec<(u64, u64)>) {
    let mut t = ProbeTable::with_capacity(entries);
    let mut pairs = Vec::with_capacity(entries);
    for k in 0..entries as u64 {
        t.insert(k * 3 + 1, k + 7);
        pairs.push((k * 3 + 1, k + 7));
    }
    (t, pairs)
}

/// The three adversarial key distributions of the issue: collision-heavy
/// (many duplicates hammering few buckets), all-miss, and dense-hit.
fn distributions(entries: usize, nkeys: usize) -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = Rng::seed_from_u64(0xFEED);
    let collision: Vec<u64> =
        (0..nkeys).map(|_| rng.gen_range(0..8u64) * 3 + 1).collect();
    let all_miss: Vec<u64> =
        (0..nkeys).map(|_| rng.gen_range(0..entries as u64 * 3) * 3 + 2).collect();
    let dense_hit: Vec<u64> =
        (0..nkeys).map(|_| rng.gen_range(0..entries as u64) * 3 + 1).collect();
    vec![("collision", collision), ("all_miss", all_miss), ("dense_hit", dense_hit)]
}

#[test]
fn prefetched_probe_is_identical_for_every_flavor_and_depth() {
    let entries = 4096;
    let (table, _) = build(entries);
    // On-axis depths, off-axis depths, absurd depths: all legal at runtime.
    let depths: Vec<usize> = F_AXIS.iter().copied().chain([3, 7, 100, 5000]).collect();
    for (dist, keys) in distributions(entries, 2048) {
        let expect = reference(&table, &keys);
        for cfg in all_configs() {
            for &f in &depths {
                let mut out = vec![0u64; keys.len()];
                let mut io =
                    KernelIo::Probe { keys: &keys, table: &table, out: &mut out, prefetch: f };
                assert!(run(Family::Probe, cfg, &mut io));
                assert_eq!(out, expect, "{dist} {cfg} f={f}");
            }
        }
    }
}

#[test]
fn partitioned_probe_is_identical_across_bits_and_flavors() {
    let entries = 8192;
    let (table, pairs) = build(entries);
    let nodes = [HybridConfig::SCALAR, HybridConfig::SIMD, HybridConfig::new(1, 1, 3)];
    for (dist, keys) in distributions(entries, 2048) {
        let expect = reference(&table, &keys);
        for bits in [1u32, 3, 6] {
            let parts = PartitionedProbeTable::from_pairs(&pairs, bits);
            let mut scratch = PartitionScratch::default();
            for cfg in nodes {
                for f in [0usize, 16] {
                    let mut out = vec![0u64; keys.len()];
                    parts.probe_with(&keys, &mut out, &mut scratch, |t, k, o| {
                        let mut io =
                            KernelIo::Probe { keys: k, table: t, out: o, prefetch: f };
                        assert!(run(Family::Probe, cfg, &mut io));
                    });
                    assert_eq!(out, expect, "{dist} b={bits} {cfg} f={f}");
                }
            }
        }
    }
}

#[test]
fn property_prefetch_and_partition_agree_with_reference() {
    // Randomized shapes: table size, key count, depth, and bits all move.
    let gen = |rng: &mut Rng| {
        let entries = rng.gen_range(1..2000usize);
        let nkeys = rng.gen_range(0..1500usize);
        let f = rng.gen_range(0..70usize);
        let bits = rng.gen_range(1..7u32);
        let keys = strategy::vec_of(strategy::in_range(0..6000u64), nkeys..nkeys + 1)(rng);
        (entries, keys, f, bits)
    };
    prop::check("probe memory strategies agree", gen, |(entries, keys, f, bits)| {
        let (table, pairs) = build(*entries);
        let expect = reference(&table, keys);
        let mut out = vec![0u64; keys.len()];
        let mut io =
            KernelIo::Probe { keys, table: &table, out: &mut out, prefetch: *f };
        assert!(run(Family::Probe, HybridConfig::new(2, 1, 2), &mut io));
        assert_eq!(out, expect, "prefetched f={f}");
        let parts = PartitionedProbeTable::from_pairs(&pairs, *bits);
        let mut scratch = PartitionScratch::default();
        let mut out2 = vec![0u64; keys.len()];
        parts.probe_with(keys, &mut out2, &mut scratch, |t, k, o| {
            let mut io = KernelIo::Probe { keys: k, table: t, out: o, prefetch: *f };
            assert!(run(Family::Probe, HybridConfig::new(2, 1, 2), &mut io));
        });
        assert_eq!(out2, expect, "partitioned b={bits} f={f}");
        Ok(())
    });
}

#[test]
fn engine_query_results_are_invariant_under_memory_knobs() {
    let data = generate(0.002, 0x9E37);
    for q in [QueryId::Q2_1, QueryId::Q4_2] {
        let plan = build_plan(&data, q);
        let baseline = execute_star(&plan, &data.lineorder, &ExecConfig::for_flavor(Flavor::Scalar));
        for flavor in [Flavor::Scalar, Flavor::Simd, Flavor::Hybrid] {
            for f in [0usize, 8, 32] {
                for partition in [false, true] {
                    // The serial path and the morsel-driven parallel path.
                    for threads in [1usize, 4] {
                        let mut cfg = ExecConfig::for_flavor(flavor)
                            .with_probe_prefetch(f)
                            .with_threads(threads);
                        cfg.partition = partition;
                        let out = execute_star(&plan, &data.lineorder, &cfg);
                        assert_eq!(
                            out.groups, baseline.groups,
                            "{} {} f={f} partition={partition} threads={threads}",
                            q.name(),
                            flavor.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn registry_roundtrips_vspf_through_a_file() {
    let dir = std::env::temp_dir().join(format!("hef_vspf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tuned_v2.txt");

    let mut reg = Registry::new("test-cpu");
    reg.insert(CoreFamily::Probe, HybridConfig::new(2, 1, 4));
    reg.insert(CoreFamily::Murmur, HybridConfig::new(1, 1, 3));
    reg.insert_prefetch(CoreFamily::Probe, 32);
    reg.save(&path).expect("save v2");

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("v2"), "prefetch forces the v2 header:\n{text}");

    let back = Registry::load(&path).expect("load v2");
    assert_eq!(back.get(CoreFamily::Probe), Some(HybridConfig::new(2, 1, 4)));
    assert_eq!(back.get_prefetch(CoreFamily::Probe), Some(32));
    assert_eq!(back.get(CoreFamily::Murmur), Some(HybridConfig::new(1, 1, 3)));
    assert_eq!(back.get_prefetch(CoreFamily::Murmur), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_pre_prefetch_registry_degrades_to_a_seeded_depth() {
    let dir = std::env::temp_dir().join(format!("hef_stale_f_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tuned_v1.txt");

    // A v1 registry from before the `f` dimension existed: probe has a
    // hybrid node but no depth column.
    let mut reg = Registry::new("test-cpu");
    reg.insert(CoreFamily::Probe, HybridConfig::new(1, 1, 3));
    reg.save(&path).expect("save v1");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.contains("v2"), "no prefetch ⇒ v1 on disk:\n{text}");

    let (loaded, report) = Registry::load_degraded(&path);
    assert_eq!(loaded.get(CoreFamily::Probe), Some(HybridConfig::new(1, 1, 3)));
    let f = loaded
        .get_prefetch(CoreFamily::Probe)
        .expect("ladder seeds a depth for pre-f probe entries");
    assert!(F_AXIS.contains(&f), "seeded depth {f} must be on the axis");
    assert!(
        report.issues.iter().any(|i| i.to_string().contains("seeded prefetch")),
        "issues: {:?}",
        report.issues.iter().map(|i| i.to_string()).collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(&dir).ok();
}
