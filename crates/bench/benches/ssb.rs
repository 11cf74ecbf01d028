//! Bench for the paper's Figs. 8–10: SSB queries under the four engine
//! flavors.
//!
//! A small scale factor keeps repeated sampling tractable; the `repro`
//! binary runs the full paper-scale sweeps. One query is taken per
//! join-count family (Q2.x three joins over part/supplier/date, Q3.3 the
//! high-selectivity case, Q4.2 four joins). The run is persisted to
//! `results/bench_ssb.json`; `--smoke` shrinks the scale factor and
//! sample count for CI.

use hef_bench::config::{exec_config, registry_from_env};
use hef_bench::BenchSnapshot;
use hef_engine::{CancelToken, Engine, Fact, Flavor};
use hef_ssb::{build_plan, generate, QueryId};
use hef_testutil::bench::Group;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    hef_obs::metrics::enable();
    let sf = if smoke { 0.005 } else { 0.02 };
    let samples = if smoke { 3 } else { 10 };

    let data = generate(sf, 4242);
    let engine = Engine::from_env();
    let (registry, _) = registry_from_env();
    let mut snap = BenchSnapshot::new(if smoke { "ssb_smoke" } else { "ssb" });
    snap.config("sf", sf)
        .config("smoke", smoke)
        .config("samples", samples)
        .config("lineorder_rows", data.lineorder.len());

    for q in [QueryId::Q2_1, QueryId::Q3_3, QueryId::Q4_2] {
        let plan = build_plan(&data, q);
        let group = format!("fig8_{}", q.name().replace('.', "_"));
        let mut g = Group::new(group.clone())
            .throughput_elems(data.lineorder.len() as u64)
            .samples(samples);
        for flavor in Flavor::ALL {
            let cfg = exec_config(&registry, flavor);
            let s = g.bench(flavor.name(), || {
                engine
                    .execute(&plan, Fact::Mem(&data.lineorder), &cfg, &CancelToken::new())
                    .expect("bench query");
            });
            snap.row(&group, flavor.name(), s, Some(data.lineorder.len() as u64));
        }
        g.finish();
    }
    match snap.write_default() {
        Ok(path) => println!("snapshot: {}", path.display()),
        Err(e) => eprintln!("snapshot write failed: {e}"),
    }
}
