//! The committed tuned registry (`results/tuned.txt`) is what the engine
//! and the SSB benchmark load as shipped. It must load without a single
//! degradation, carry exactly one pipeline row per SSB query, and every
//! row must name one node per config slot — the shape that executes — so
//! no row is refused at run time and the per-op composition never runs by
//! accident.

use std::collections::BTreeSet;
use std::path::Path;

use hef::core::Registry;
use hef::engine::conflicting_stages;
use hef::ssb::{build_plan, generate, QueryId};

fn committed() -> Registry {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/tuned.txt");
    let (reg, report) = Registry::load_degraded(&path);
    assert!(report.issues.is_empty(), "{}: {:?}", path.display(), report.issues);
    reg
}

#[test]
fn committed_registry_has_one_executable_row_per_ssb_query() {
    let reg = committed();
    // Fingerprints are structural, but the optimizer orders joins by
    // dimension statistics: at SF 0.1 and below Q3.4's two city joins swap
    // places, a different plan with a different key. SF 0.2 plans every
    // query as SF 1 does, on a seed the tuner never saw.
    let data = generate(0.2, 1);
    let plans: BTreeSet<u64> =
        QueryId::ALL.iter().map(|&q| build_plan(&data, q).fingerprint()).collect();
    assert_eq!(plans.len(), QueryId::ALL.len());

    let rows: BTreeSet<u64> = reg.pipelines().map(|(fp, _)| fp).collect();
    for (fp, entry) in reg.pipelines() {
        assert!(plans.contains(&fp), "row {fp:016x} matches no SSB plan");
        assert!(
            conflicting_stages(entry).is_none(),
            "row {fp:016x} names two nodes for one slot: {entry:?}"
        );
    }
    assert_eq!(rows, plans, "every SSB query ships a row");
}
