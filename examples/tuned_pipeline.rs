//! The deployment loop: tune once, persist, reuse.
//!
//! 1. Run HEF's offline phase for the engine's kernel families and save the
//!    winning nodes to a registry file (the artifact a deployment ships).
//! 2. Reload the registry and build a hybrid engine config from it.
//! 3. Execute an SSB query with the registry-tuned engine, verifying it
//!    against scalar.
//!
//! Run with: `cargo run --release --example tuned_pipeline`

use hef::core::{tune_measured, Family, Registry};
use hef::engine::{execute_star, ExecConfig};
use hef::ssb::{build_plan, generate, QueryId};

fn main() {
    // --- offline phase: tune and persist ---
    println!("offline phase: tuning the engine's kernel families…");
    let mut registry = Registry::new("this machine");
    for family in [Family::Probe, Family::Filter, Family::AggSum, Family::Gather] {
        let tuned = tune_measured(family, 2_000_000);
        println!("  {}", tuned.describe());
        registry.insert_tuned(&tuned);
    }
    let path = std::env::temp_dir().join("hef-tuned.txt");
    registry.save(&path).expect("save registry");
    println!("\nsaved registry to {}:\n{}", path.display(), registry.to_text());

    // --- online phase: reload and execute ---
    let registry = Registry::load(&path).expect("load registry");
    let mut cfg = ExecConfig::hybrid(
        registry.get_or_default(Family::Filter),
        registry.get_or_default(Family::Probe),
        registry.get_or_default(Family::AggSum),
    );
    cfg.gather = registry.get_or_default(Family::Gather);

    let data = generate(0.05, 7);
    let plan = build_plan(&data, QueryId::Q4_2);
    println!("running Q4.2 over {} lineorder rows…\n", data.lineorder.len());

    let t = std::time::Instant::now();
    let tuned_out = execute_star(&plan, &data.lineorder, &cfg);
    let tuned_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = std::time::Instant::now();
    let scalar_out = execute_star(&plan, &data.lineorder, &ExecConfig::scalar());
    let scalar_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(tuned_out.groups, scalar_out.groups);

    println!("scalar engine:          {scalar_ms:8.2} ms");
    println!(
        "registry-tuned hybrid:  {tuned_ms:8.2} ms   ({:.2}x)",
        scalar_ms / tuned_ms
    );
    println!("\nboth engines agree ✓");
}
