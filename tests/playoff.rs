//! The measured playoff (`hef_bench::playoff`) under injected clocks: the
//! decision rules that pick each shipped pipeline row, without timing
//! anything real.

use hef::engine::ExecConfig;
use hef_bench::playoff::{playoff, run_rounds, MIN_ROUNDS, PAGED_CHECKS};

/// Candidates told apart by their probe prefetch depth (the fake
/// clocks below key on it).
fn cands(n: usize) -> Vec<ExecConfig> {
    (0..n).map(|i| ExecConfig::hybrid_default().with_probe_prefetch(i)).collect()
}

/// A deterministic jitter in [-1, 1) from a call counter.
fn jitter(k: u64) -> f64 {
    let x = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
    x as f64 / (1u64 << 52) as f64 - 1.0
}

#[test]
fn rotation_spreads_an_order_bias_over_every_candidate() {
    // Identical candidates under a clock that reads 5 ms fast for the
    // first measurement of every round. Timed in a fixed order, the
    // first candidate would take the bonus every round and win by far
    // more than its (zero) MAD. Rotated, each candidate takes it in
    // at most a third of the rounds, which the median ignores.
    let n = 4;
    let mut calls = 0usize;
    let mut clock = |_: &ExecConfig| {
        let first_of_round = calls.is_multiple_of(n);
        calls += 1;
        if first_of_round {
            45.0
        } else {
            50.0
        }
    };
    let c = cands(n);
    let stats = run_rounds(&c, 12, &mut clock);
    assert!(stats.iter().all(|s| s.median == 50e-3), "{stats:?}");
    let out = playoff(&c, 12, &mut clock, &mut |_| 50.0);
    assert_eq!(out.winner, 0);
}

#[test]
fn drifting_clock_does_not_crown_the_first_candidate() {
    // No candidate is really faster; the clock drifts 0.5 ms per call
    // (plus jitter) up, then down. Whichever end of a round the drift
    // favours, the baseline must stand.
    for slope in [0.5, -0.5] {
        let mut calls = 0u64;
        let mut clock = |_: &ExecConfig| {
            calls += 1;
            200.0 + slope * calls as f64 + jitter(calls)
        };
        let out = playoff(&cands(3), 10, &mut clock, &mut |_| 50.0);
        assert_eq!(out.winner, 0, "slope {slope}: {:?}", out.mem);
        assert!(out.paged.is_empty());
    }
}

#[test]
fn tie_keeps_the_baseline() {
    let mut calls = 0u64;
    let mut clock = |_: &ExecConfig| {
        calls += 1;
        40.0 + 0.2 * jitter(calls)
    };
    let out = playoff(&cands(5), 10, &mut clock, &mut |_| 40.0);
    assert_eq!(out.winner, 0);
}

#[test]
fn winner_inside_the_noise_margin_is_rejected() {
    // Candidate 1 is 1% faster, but the jitter is ±4%: its median lead
    // is inside 3·(MAD_a + MAD_b).
    let mut calls = 0u64;
    let mut clock = |c: &ExecConfig| {
        calls += 1;
        let base = if c.probe_prefetch == 1 { 49.5 } else { 50.0 };
        base + 2.0 * jitter(calls)
    };
    let out = playoff(&cands(2), 12, &mut clock, &mut |_| 50.0);
    assert!(out.mem[1].median < out.mem[0].median, "premise: 1 leads");
    assert_eq!(out.winner, 0, "{:?}", out.mem);
}

#[test]
fn clear_winner_ships_when_paged_holds() {
    let mut calls = 0u64;
    let mut clock = |c: &ExecConfig| {
        calls += 1;
        let base = [50.0, 45.0, 40.0][c.probe_prefetch];
        base + 0.3 * jitter(calls)
    };
    let out = playoff(&cands(3), 10, &mut clock, &mut |_| 30.0);
    assert_eq!(out.winner, 2, "the fastest significant challenger wins");
    assert_eq!(out.paged.len(), 1);
    assert!(out.paged[0].holds());
}

#[test]
fn memory_winner_that_loses_on_paged_is_rejected() {
    // Both challengers win in memory by 20%; on the paged table each
    // is 20% slower than the baseline. The baseline stands, after
    // checking at most PAGED_CHECKS challengers.
    let mut calls = 0u64;
    let mut mem = |c: &ExecConfig| {
        calls += 1;
        (if c.probe_prefetch == 0 { 50.0 } else { 40.0 }) + 0.2 * jitter(calls)
    };
    let mut paged_calls = 0u64;
    let mut paged = |c: &ExecConfig| {
        paged_calls += 1;
        (if c.probe_prefetch == 0 { 50.0 } else { 60.0 }) + 0.2 * jitter(paged_calls)
    };
    let out = playoff(&cands(4), 10, &mut mem, &mut paged);
    assert_eq!(out.winner, 0);
    assert_eq!(out.paged.len(), PAGED_CHECKS);
    assert!(out.paged.iter().all(|p| !p.holds()));
}

#[test]
fn rounds_never_fall_below_the_floor() {
    let mut calls = 0usize;
    let stats = run_rounds(&cands(2), 1, &mut |_| {
        calls += 1;
        1.0
    });
    assert_eq!(calls, 2 * MIN_ROUNDS);
    assert_eq!(stats[0].samples, MIN_ROUNDS);
    // Stats come back in seconds.
    assert!((stats[1].median - 1e-3).abs() < 1e-12);
}
