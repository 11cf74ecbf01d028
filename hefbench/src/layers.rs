//! The traced run: per-layer metrics. Times come from the benchmark's own
//! clocks around the calls into each layer and from the engine's existing
//! spans (`worker`, `morsel`, `page`, `decode`); counts come from
//! `hef_obs::metrics` deltas. End-to-end numbers never come from here.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use hef_engine::{ExecConfig, StarPlan};
use hef_obs::metrics::{self, Hist, Metric as Counter, Snapshot};
use hef_obs::profile::{ProfileNode, ProfileTree};
use hef_obs::trace::{self, Level};
use hef_ssb::QueryId;
use hef_testutil::Rng;

use crate::stats::{geomean, median, ratio};
use crate::workload::{ms_since, prepare, Storage, System};
use crate::{closed_loop, json_list, registry_clean, setup_repeated, timed_request, warm_up};
use crate::{Args, LoopResult, Metric, Ready, Report, ORDER_SALT};

/// Counters fixed by the data and the plan alone: two sweeps must agree.
const EXACT: [Counter; 8] = [
    Counter::FilterRowsIn,
    Counter::FilterRowsOut,
    Counter::ProbeKeys,
    Counter::ProbeHits,
    Counter::AggRows,
    Counter::PagesDecoded,
    Counter::DecodeRows,
    Counter::DecodeCodeFiltered,
];

/// Counters that depend on thread timing at two threads; reported with the
/// spread between two sweeps instead.
const TIMING: [Counter; 4] = [
    Counter::PageCacheHits,
    Counter::PageCacheMisses,
    Counter::PageCacheEvictions,
    Counter::MorselsClaimed,
];

/// Share of `--seconds` each flavor of the flavor sweep may use; every
/// flavor gets at least one pass over the 13 queries.
const FLAVOR_SHARE: f64 = 0.1;

/// Per-request observations of the traced loop.
#[derive(Default)]
struct Acc {
    requests: u64,
    request_ms: f64,
    plan_ms: [Vec<f64>; 3],
    exec_ms: Vec<Vec<f64>>,
    exec_total_ms: f64,
    fact_rows: u64,
    /// Span name → (self ns, inclusive ns), summed over requests.
    spans: BTreeMap<String, (u64, u64)>,
}

impl Acc {
    fn add_profile(&mut self, tree: &ProfileTree) {
        fn walk(n: &ProfileNode, spans: &mut BTreeMap<String, (u64, u64)>) {
            let e = spans.entry(n.name.clone()).or_default();
            e.0 += n.self_ns;
            e.1 += n.total_ns;
            for c in &n.children {
                walk(c, spans);
            }
        }
        for t in &tree.threads {
            for r in &t.roots {
                walk(r, &mut self.spans);
            }
        }
    }

    /// Self time of span `name` per request, in ms.
    fn self_ms(&self, name: &str) -> f64 {
        let ns = self.spans.get(name).map_or(0, |s| s.0);
        ratio(ns as f64 / 1e6, self.requests as f64)
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.1)
    }
}

/// Per-query counter deltas of one sweep over `QueryId::ALL`, answers checked.
fn counted_sweep(sys: &System, refs: &[Vec<u64>], checked: &mut LoopResult) -> Vec<Snapshot> {
    (0..QueryId::ALL.len())
        .map(|q| {
            let before = metrics::snapshot();
            checked.record(q, timed_request(sys, q), refs);
            metrics::snapshot().delta(&before)
        })
        .collect()
}

/// Geometric mean over the queries of the median execution time of each
/// under `cfg` (`None`: the shipped per-query config), from passes over all
/// queries repeated until `budget` is spent.
fn flavor_geomean(
    sys: &System,
    plans: &[StarPlan],
    refs: &[Vec<u64>],
    cfg: Option<ExecConfig>,
    budget: Duration,
    checked: &mut LoopResult,
) -> f64 {
    let cfgs: Vec<ExecConfig> = plans
        .iter()
        .map(|p| {
            cfg.map_or_else(
                || sys.config_for(p).0,
                |c| c.with_threads(sys.workload.threads),
            )
        })
        .collect();
    let mut ms = vec![Vec::new(); plans.len()];
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed() < budget {
        passes += 1;
        for (q, (plan, cfg)) in plans.iter().zip(&cfgs).enumerate() {
            let outcome = sys.execute(plan, cfg).map(|r| (r.exec_ms, r.groups));
            if let Ok((t, _)) = &outcome {
                ms[q].push(*t);
            }
            checked.record(q, outcome, refs);
        }
    }
    let medians: Vec<f64> = ms.iter().filter_map(|xs| median(xs)).collect();
    geomean(&medians).unwrap_or(0.0)
}

pub fn traced(args: &Args, root: &Path) -> Result<Report, String> {
    let Ready {
        sys, times, refs, ..
    } = setup_repeated(args, root, 1, Duration::ZERO)?;
    let w = sys.workload;
    let mut rng = Rng::seed_from_u64(args.seed ^ ORDER_SALT);
    // A quarter of the run untraced, a quarter traced, half the flavor sweep.
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let flavor_budget = Duration::from_secs_f64(args.seconds * FLAVOR_SHARE);
    let mut notes: Vec<String> = Vec::new();

    let warm = warm_up(&sys, &refs, &mut rng);
    // Untraced baseline for the tracing overhead.
    let plain = closed_loop(&refs, quarter, &mut rng, |q| timed_request(&sys, q));

    metrics::enable();
    let mut acc = Acc {
        exec_ms: vec![Vec::new(); QueryId::ALL.len()],
        ..Acc::default()
    };
    let before = metrics::snapshot();
    let traced = closed_loop(&refs, quarter, &mut rng, |q| {
        trace::start_capture(Level::Fine);
        let t = Instant::now();
        let r = sys.request(q)?;
        let ms = ms_since(t);
        if let Some(tree) = ProfileTree::from_active_session() {
            acc.add_profile(&tree);
        }
        acc.requests += 1;
        acc.request_ms += ms;
        for (list, v) in acc.plan_ms.iter_mut().zip(r.plan_ms) {
            list.push(v);
        }
        acc.exec_ms[q].push(r.exec_ms);
        acc.exec_total_ms += r.exec_ms;
        acc.fact_rows += r.stats.rows_scanned;
        Ok((ms, r.groups))
    });
    let _ = trace::finish();
    let c = metrics::snapshot().delta(&before);

    // Count determinism: two sweeps in the same order, counters only.
    let mut checked = LoopResult::default();
    let first = counted_sweep(&sys, &refs, &mut checked);
    let second = counted_sweep(&sys, &refs, &mut checked);
    metrics::disable();
    let exact_equal = first
        .iter()
        .zip(&second)
        .all(|(a, b)| EXACT.iter().all(|&m| a.get(m) == b.get(m)));
    if !exact_equal {
        notes.push("thread-independent counts differ between two sweeps".into());
    }
    let spread: Vec<String> = TIMING
        .iter()
        .map(|&m| {
            let sum = |s: &[Snapshot]| s.iter().map(|d| d.get(m)).sum::<u64>();
            format!("\"{}\":[{},{}]", m.name(), sum(&first), sum(&second))
        })
        .collect();

    // Flavor sweep over prepared plans (ad hoc prepares them here, untimed).
    let owned;
    let plans: &[StarPlan] = if w.adhoc {
        owned = sys
            .texts
            .iter()
            .map(|t| prepare(t, &sys.data).map(|(p, _)| p))
            .collect::<Result<Vec<_>, _>>()?;
        &owned
    } else {
        &sys.plans
    };
    let mut kernels = BTreeMap::new();
    for (name, cfg) in [
        ("scalar", Some(ExecConfig::scalar())),
        ("simd", Some(ExecConfig::simd())),
        ("voila", Some(ExecConfig::voila())),
        ("hybrid_default", Some(ExecConfig::hybrid_default())),
        ("hybrid_tuned", None),
    ] {
        let g = if name == "voila" && w.storage == Storage::Paged {
            notes.push("kernels.geomean_ms.voila: the paged executor has no Voila path; 0".into());
            0.0
        } else {
            flavor_geomean(&sys, plans, &refs, cfg, flavor_budget, &mut checked)
        };
        kernels.insert(name, g);
    }

    let n = acc.requests as f64;
    let per_query = |m: Counter| ratio(c.get(m) as f64, n);
    let of = |a: Counter, b: Counter| ratio(c.get(a) as f64, c.get(b) as f64);
    let plan_median = |i: usize, setup: &[f64]| {
        median(if w.adhoc { &acc.plan_ms[i] } else { setup }).unwrap_or(0.0)
    };
    let plan_total: f64 = acc.plan_ms.iter().flatten().sum();
    let (morsel_p50, morsel_p95) = c
        .percentiles(Hist::MorselLatencyUs)
        .map_or((0.0, 0.0), |(p50, p95, _)| (p50, p95));
    let busy_span = if w.storage == Storage::Paged {
        "page"
    } else {
        "worker"
    };
    let idle = if w.threads > 1 {
        (1.0 - ratio(
            acc.total_ns(busy_span) as f64 / 1e6,
            w.threads as f64 * acc.exec_total_ms,
        ))
        .max(0.0)
    } else {
        0.0
    };
    let fact_rows = acc.fact_rows as f64;
    let raw_mib = times.raw_bytes as f64 / (1 << 20) as f64;

    let mut m: Vec<Metric> = vec![
        ("ssb.gen_s".into(), times.gen_s, "s"),
        ("registry.load_ms".into(), times.registry_ms, "ms"),
        (
            "registry.fallbacks".into(),
            sys.registry_report.fallbacks() as f64,
            "count",
        ),
        (
            "registry.pipeline_rows_applied".into(),
            plans.iter().filter(|p| sys.config_for(p).1).count() as f64,
            "count",
        ),
        (
            "plan.parse_ms".into(),
            plan_median(0, &times.parse_ms),
            "ms",
        ),
        (
            "plan.optimize_ms".into(),
            plan_median(1, &times.optimize_ms),
            "ms",
        ),
        (
            "plan.lower_ms".into(),
            plan_median(2, &times.lower_ms),
            "ms",
        ),
        (
            "plan.front_end_share".into(),
            ratio(plan_total, acc.request_ms),
            "1",
        ),
    ];
    for (q, id) in QueryId::ALL.iter().enumerate() {
        let name = format!("engine.exec_ms.{id:?}");
        m.push((name, median(&acc.exec_ms[q]).unwrap_or(0.0), "ms"));
    }
    m.extend([
        (
            "engine.ns_per_fact_row".into(),
            ratio(acc.exec_total_ms * 1e6, fact_rows),
            "ns",
        ),
        (
            "engine.filter_pass_ratio".into(),
            of(Counter::FilterRowsOut, Counter::FilterRowsIn),
            "1",
        ),
        (
            "engine.probe_hit_ratio".into(),
            of(Counter::ProbeHits, Counter::ProbeKeys),
            "1",
        ),
        (
            "engine.bloom_drop_ratio".into(),
            of(Counter::BloomDrops, Counter::BloomKeys),
            "1",
        ),
        (
            "engine.rows_materialized_per_query".into(),
            per_query(Counter::RowsMaterialized),
            "count",
        ),
        (
            "engine.prefetched_key_share".into(),
            of(Counter::ProbePrefetchedKeys, Counter::ProbeKeys),
            "1",
        ),
        (
            "engine.partitioned_key_share".into(),
            of(Counter::ProbePartitionedKeys, Counter::ProbeKeys),
            "1",
        ),
    ]);
    for (name, g) in &kernels {
        m.push((format!("kernels.geomean_ms.{name}"), *g, "ms"));
    }
    m.extend([
        (
            "kernels.tuned_over_default".into(),
            ratio(kernels["hybrid_tuned"], kernels["hybrid_default"]),
            "1",
        ),
        (
            "parallel.morsels_per_query".into(),
            per_query(Counter::MorselsClaimed),
            "count",
        ),
        ("parallel.morsel_p50_us".into(), morsel_p50, "us"),
        ("parallel.morsel_p95_us".into(), morsel_p95, "us"),
        (
            "parallel.morsels_retried".into(),
            c.get(Counter::MorselsRetried) as f64,
            "count",
        ),
        (
            "parallel.workers_lost".into(),
            c.get(Counter::WorkersLost) as f64,
            "count",
        ),
        ("parallel.worker_idle_share".into(), idle, "1"),
        (
            "govern.admitted".into(),
            c.get(Counter::GovAdmitted) as f64,
            "count",
        ),
        (
            "govern.rejected".into(),
            c.get(Counter::GovRejected) as f64,
            "count",
        ),
        (
            "govern.degradations".into(),
            c.get(Counter::GovDegradations) as f64,
            "count",
        ),
        (
            "govern.admission_wait_p95_us".into(),
            c.percentiles(Hist::AdmissionWaitUs).map_or(0.0, |p| p.1),
            "us",
        ),
        (
            "govern.bytes_charged_per_query".into(),
            per_query(Counter::GovBytesCharged),
            "B",
        ),
        ("storage.write_s".into(), times.write_s, "s"),
        (
            "storage.write_mib_per_s".into(),
            ratio(raw_mib, times.write_s),
            "MiB/s",
        ),
        (
            "storage.disk_bytes_per_raw_byte".into(),
            ratio(times.disk_bytes as f64, times.raw_bytes as f64),
            "1",
        ),
        ("storage.open_ms".into(), times.open_ms, "ms"),
        (
            "storage.cache_hit_ratio".into(),
            ratio(
                c.get(Counter::PageCacheHits) as f64,
                (c.get(Counter::PageCacheHits) + c.get(Counter::PageCacheMisses)) as f64,
            ),
            "1",
        ),
        (
            "storage.cache_misses_per_query".into(),
            per_query(Counter::PageCacheMisses),
            "count",
        ),
        (
            "storage.cache_evictions_per_query".into(),
            per_query(Counter::PageCacheEvictions),
            "count",
        ),
        (
            "storage.pages_decoded_per_query".into(),
            per_query(Counter::PagesDecoded),
            "count",
        ),
        (
            "storage.decode_rows_per_fact_row".into(),
            ratio(c.get(Counter::DecodeRows) as f64, fact_rows),
            "1",
        ),
        (
            "storage.code_filtered_share".into(),
            ratio(c.get(Counter::DecodeCodeFiltered) as f64, fact_rows),
            "1",
        ),
        ("trace.self_ms.page".into(), acc.self_ms("page"), "ms"),
        ("trace.self_ms.decode".into(), acc.self_ms("decode"), "ms"),
        (
            "obs.trace_overhead".into(),
            ratio(traced.query_geomean_ms(), plain.query_geomean_ms()) - 1.0,
            "1",
        ),
        ("trace.self_ms.worker".into(), acc.self_ms("worker"), "ms"),
        ("trace.self_ms.morsel".into(), acc.self_ms("morsel"), "ms"),
    ]);
    if !w.adhoc {
        notes.push("plan.*_ms are set-up medians; SF 1 requests do not plan".into());
    }

    let loops = [&warm, &plain, &traced, &checked];
    let attempted = loops.iter().map(|l| l.attempted).sum();
    let failed = loops.iter().map(|l| l.failed).sum();
    let errors: Vec<&String> = loops.iter().flat_map(|l| &l.errors).collect();
    let details = vec![
        (
            "samples",
            format!(
                "{{\"untraced\":{},\"traced\":{}}}",
                plain.samples.len(),
                traced.samples.len()
            ),
        ),
        (
            "determinism",
            format!(
                "{{\"exact_counts_equal\":{exact_equal},\"spread\":{{{}}}}}",
                spread.join(",")
            ),
        ),
        ("notes", json_list(&notes)),
        ("errors", json_list(errors)),
    ];
    Ok(Report {
        metrics: m,
        attempted,
        failed,
        correct: failed == 0 && exact_equal && registry_clean(&sys),
        details,
    })
}
