//! Differential suite for the hashed join probe: a dimension whose keys are
//! sparse (`k·7919 + 13`, far too wide for a direct-addressed array) is
//! probed through one flat linear-probe table, and every grid node on every
//! backend must answer exactly as the scalar reference probe does — the
//! key `u64::MAX`, the table's empty-slot sentinel, included.
//!
//! Also covers the registry file the engine ships: the text written before
//! the probe prefetch depth was dropped parses to the same nodes and rows as
//! its re-saved form.

use hef::core::{Family as CoreFamily, Registry};
use hef::engine::{build_dimension, execute_star, ExecConfig, Flavor, Measure, StarPlan};
use hef::hid::Backend;
use hef::kernels::{all_configs, run_on, Family, HybridConfig, KernelIo, ProbeTable, MISS};
use hef::storage::{Column, Table};
use hef_testutil::{prop, strategy, Rng};

/// The sparse key of dimension row `k`.
fn key(k: u64) -> u64 {
    k * 7919 + 13
}

/// Reference: one scalar probe per key against the flat table.
fn reference(table: &ProbeTable, keys: &[u64]) -> Vec<u64> {
    keys.iter().map(|&k| table.probe_scalar(k)).collect()
}

fn build(entries: usize) -> ProbeTable {
    let mut t = ProbeTable::with_capacity(entries);
    for k in 0..entries as u64 {
        t.insert(key(k), k + 7);
    }
    t
}

/// Adversarial key distributions: collision-heavy (many duplicates
/// hammering few buckets), all-miss, dense-hit, and the sentinel between
/// hits and misses so it reaches SIMD lanes, scalar statements and tails.
fn distributions(entries: usize, nkeys: usize) -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = Rng::seed_from_u64(0xFEED);
    let collision: Vec<u64> = (0..nkeys).map(|_| key(rng.gen_range(0..8u64))).collect();
    let all_miss: Vec<u64> =
        (0..nkeys).map(|_| key(rng.gen_range(0..entries as u64 * 3)) + 1).collect();
    let dense_hit: Vec<u64> =
        (0..nkeys).map(|_| key(rng.gen_range(0..entries as u64))).collect();
    let sentinel: Vec<u64> = (0..nkeys as u64)
        .map(|i| if i % 3 == 0 { u64::MAX } else { key(i % (2 * entries as u64)) })
        .collect();
    vec![
        ("collision", collision),
        ("all_miss", all_miss),
        ("dense_hit", dense_hit),
        ("sentinel", sentinel),
    ]
}

fn backends() -> impl Iterator<Item = Backend> {
    [Backend::Emu, Backend::Avx2, Backend::Avx512].into_iter().filter(|b| b.is_available())
}

#[test]
fn hashed_probe_is_identical_for_every_node_and_backend() {
    let entries = 4096;
    let table = build(entries);
    assert_eq!(table.probe_scalar(u64::MAX), MISS);
    for (dist, keys) in distributions(entries, 2048) {
        let expect = reference(&table, &keys);
        for backend in backends() {
            for cfg in all_configs() {
                let mut out = vec![0u64; keys.len()];
                let mut io = KernelIo::Probe { keys: &keys, table: &table, out: &mut out };
                assert!(run_on(Family::Probe, cfg, backend, &mut io));
                assert_eq!(out, expect, "{dist} {cfg} on {}", backend.name());
            }
        }
    }
}

#[test]
fn property_hashed_probe_agrees_with_reference() {
    // Randomized shapes: table size, key count and node all move.
    let gen = |rng: &mut Rng| {
        let entries = rng.gen_range(1..2000usize);
        let nkeys = rng.gen_range(0..1500usize);
        let node = rng.gen_range(0..all_configs().count());
        let keys = strategy::vec_of(strategy::in_range(0..6000u64), nkeys..nkeys + 1)(rng);
        (entries, keys, node)
    };
    prop::check("hashed probe agrees with reference", gen, |(entries, keys, node)| {
        let table = build(*entries);
        let keys: Vec<u64> = keys.iter().map(|&k| if k == 0 { u64::MAX } else { key(k) }).collect();
        let expect = reference(&table, &keys);
        let cfg = all_configs().nth(*node).expect("node on the grid");
        for backend in backends() {
            let mut out = vec![0u64; keys.len()];
            let mut io = KernelIo::Probe { keys: &keys, table: &table, out: &mut out };
            assert!(run_on(Family::Probe, cfg, backend, &mut io));
            assert_eq!(out, expect, "{cfg} on {}", backend.name());
        }
        Ok(())
    });
}

#[test]
fn hashed_star_query_is_identical_for_every_flavor_and_thread_count() {
    // Two hashed dimensions: one grouping, one a pure filter. Fact keys
    // range past each dimension's selected keys, and every 97th is the
    // sentinel.
    let n = 20_000u64;
    let mut fact = Table::new("fact");
    let fk = |m: u64| {
        move |i: u64| if i.is_multiple_of(97) { u64::MAX } else { key((i * 31) % m) }
    };
    fact.add_column(Column::new("fk1", (0..n).map(fk(600)).collect()));
    fact.add_column(Column::new("fk2", (0..n).map(fk(300)).collect()));
    fact.add_column(Column::new("rev", (0..n).map(|i| i % 13 + 1).collect()));
    let mut dim1 = Table::new("dim1");
    dim1.add_column(Column::new("key", (0..500).map(key).collect()));
    let d1 = build_dimension(&dim1, "key", |r| r % 3 != 0, |r| (r % 4) as u64, 4, "fk1");
    let mut dim2 = Table::new("dim2");
    dim2.add_column(Column::new("key", (0..300).map(key).collect()));
    let d2 = build_dimension(&dim2, "key", |r| r % 5 != 0, |_| 0, 1, "fk2");
    assert!(d1.index.hashed().is_some() && d2.index.hashed().is_some());
    let plan = StarPlan {
        name: "sparse".into(),
        filters: vec![],
        dims: vec![d1, d2],
        measure: Measure::Sum("rev".into()),
        strides: vec![],
    };

    // Row-at-a-time reference through the scalar probe.
    let mut expect = vec![0u64; plan.group_cells()];
    let strides = plan.gid_strides();
    'row: for r in 0..n as usize {
        let mut gid = 0u64;
        for (d, stride) in plan.dims.iter().zip(&strides) {
            match d.index.probe_scalar(fact.col(&d.fk_col)[r]) {
                MISS => continue 'row,
                pay => gid += pay * stride,
            }
        }
        expect[gid as usize] = expect[gid as usize].wrapping_add(fact.col("rev")[r]);
    }
    for flavor in Flavor::ALL {
        for threads in [1usize, 4] {
            let cfg = ExecConfig::for_flavor(flavor).with_threads(threads);
            let out = execute_star(&plan, &fact, &cfg);
            assert_eq!(out.groups, expect, "{} threads={threads}", flavor.name());
        }
    }
}

/// `results/tuned.txt` as written before the probe prefetch depth was
/// dropped: a fourth `probe` column and an `f:0` token on every row.
const PRE_CHANGE_REGISTRY: &str = "\
# hef tuned-operator registry v3
# cpu: this machine (repro tune)
agg_dot = 1 2 1
agg_sum = 1 1 3
crc64 = 2 2 3
filter = 4 0 4
gather = 2 2 3
murmur = 4 2 4
probe = 2 4 3 64
pipeline 01fa63d60bedb82d = filter:1,1,3 probe:1,1,3 gather:1,1,3 agg_dot:1,1,3 decode:1,1,3 f:0
pipeline 0796fe4d84b2a40a = filter:1,1,3 probe:1,1,3 gather:1,1,3 agg_dot:1,1,3 decode:1,1,3 f:0
pipeline 1b8eef06841b31c9 = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline 23cdcbd24343ba38 = filter:1,1,3 probe:1,1,3 gather:1,1,3 agg_dot:1,1,3 decode:1,1,3 f:0
pipeline 279a3627d4dcab46 = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline 31cc3ed165ed2bb9 = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline 3a2004ecbf5d7d9b = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline 3eda0bec36a9a422 = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline 7116aaf7e34332ed = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline 7d1e034a7a5d188c = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline 9bde94fba7359fd7 = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline 9cdc041e0f4c14b3 = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
pipeline f5e044d16e15a32a = probe:1,1,3 gather:1,1,3 agg_sum:1,1,3 decode:1,1,3 f:0
";

#[test]
fn pre_change_registry_text_matches_its_resaved_form() {
    let dir = std::env::temp_dir().join(format!("hef_prechange_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.txt");
    std::fs::write(&old, PRE_CHANGE_REGISTRY).unwrap();
    let (before, report) = Registry::load_degraded(&old);
    assert!(report.is_clean(), "{:?}", report.issues);
    assert_eq!(before.get(CoreFamily::Probe), Some(HybridConfig::new(2, 4, 3)));
    assert_eq!(before.len(), 7);
    assert_eq!(before.pipelines_len(), 13);

    let new = dir.join("new.txt");
    before.save(&new).unwrap();
    let text = std::fs::read_to_string(&new).unwrap();
    assert!(text.contains("probe = 2 4 3\n") && !text.contains(" f:"), "{text}");
    let (after, report) = Registry::load_degraded(&new);
    assert!(report.is_clean(), "{:?}", report.issues);
    assert_eq!(after, before);
    for family in CoreFamily::ALL {
        assert_eq!(after.get(family), before.get(family), "{}", family.name());
    }
    assert!(before.pipelines().eq(after.pipelines()));
    // The re-saved form is the committed file.
    assert_eq!(text, include_str!("../results/tuned.txt"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_registry_loads_cleanly_and_resaves_as_v3() {
    let dir = std::env::temp_dir().join(format!("hef_v1_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tuned_v1.txt");
    std::fs::write(&path, "# hef tuned-operator registry v1\nprobe = 1 1 3\n").unwrap();
    let (loaded, report) = Registry::load_degraded(&path);
    assert!(report.is_clean(), "{:?}", report.issues);
    assert_eq!(loaded.get(CoreFamily::Probe), Some(HybridConfig::new(1, 1, 3)));
    assert!(loaded.to_text().starts_with("# hef tuned-operator registry v3\n"));
    std::fs::remove_dir_all(&dir).ok();
}
