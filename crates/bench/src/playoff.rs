//! The measured playoff that picks each shipped pipeline row.
//!
//! The paper's optimizer (Algorithm 2) is test-based: a candidate ships only
//! if it wins on the clock. `repro tune-pipeline` proposes candidate rows
//! with no cost model (`crate::pipeline`); this module times them on the
//! host and decides.
//!
//! * **Drift cancelling.** A playoff runs `rounds` rounds; each round times
//!   every candidate once, starting one position later than the round
//!   before. A clock that drifts across the run (frequency, thermals, a
//!   noisy neighbour) then lands on every candidate alike, instead of
//!   favouring whichever candidate is always timed first.
//! * **Significance.** Samples are summarized with
//!   [`hef_testutil::bench::summarize`] (median, MAD) and compared with
//!   `trend`'s rule ([`noise_margin`]): a difference counts only beyond
//!   `3·(MAD_a + MAD_b)`.
//! * **Decision.** Candidate 0 is the baseline. A challenger wins only if
//!   its in-memory median beats the baseline's beyond the margin *and* a
//!   second playoff on the paged table does not see it lose beyond the
//!   margin — a pipeline row applies to both storage layers, because the
//!   plan fingerprint that keys it excludes storage. Otherwise the
//!   baseline stands.

use hef_engine::ExecConfig;
use hef_testutil::bench::{summarize, Stats};

use crate::trend::noise_margin;

/// Fewest rounds a playoff runs: median and MAD need enough samples for
/// the noise margin to mean anything.
pub const MIN_ROUNDS: usize = 10;

/// In-memory challengers checked on the paged table, fastest first,
/// before the baseline is kept.
pub const PAGED_CHECKS: usize = 2;

/// Time every candidate once per round for `rounds` rounds (at least
/// [`MIN_ROUNDS`]), rotating the order by one position each round.
/// `measure` returns milliseconds; the stats come back in seconds, in
/// candidate order.
pub fn run_rounds(
    cands: &[ExecConfig],
    rounds: usize,
    measure: &mut dyn FnMut(&ExecConfig) -> f64,
) -> Vec<Stats> {
    let n = cands.len();
    let rounds = rounds.max(MIN_ROUNDS);
    let mut samples = vec![Vec::with_capacity(rounds); n];
    for r in 0..rounds {
        for k in 0..n {
            let i = (r + k) % n;
            samples[i].push(measure(&cands[i]) / 1e3);
        }
    }
    samples.iter_mut().map(|s| summarize(s)).collect()
}

/// Whether `a` is faster than `b` beyond the noise margin.
pub fn beats(a: &Stats, b: &Stats) -> bool {
    b.median - a.median > noise_margin(a.mad, b.mad)
}

/// One challenger's paged check: the baseline's and the challenger's
/// stats from a two-candidate playoff on the paged table.
#[derive(Debug, Clone, Copy)]
pub struct PagedCheck {
    pub challenger: usize,
    pub baseline: Stats,
    pub stats: Stats,
}

impl PagedCheck {
    /// The challenger did not lose to the baseline beyond the margin.
    pub fn holds(&self) -> bool {
        !beats(&self.baseline, &self.stats)
    }
}

/// What a playoff decided.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the winning candidate; `0` is the baseline.
    pub winner: usize,
    /// In-memory stats per candidate.
    pub mem: Vec<Stats>,
    /// Paged checks run, in order; the last one holds when a challenger won.
    pub paged: Vec<PagedCheck>,
}

/// Run a playoff over `cands` (candidate 0 is the baseline): `rounds`
/// in-memory rounds, then paged checks of the significant in-memory
/// winners, fastest first, until one holds (at most [`PAGED_CHECKS`]).
pub fn playoff(
    cands: &[ExecConfig],
    rounds: usize,
    mem: &mut dyn FnMut(&ExecConfig) -> f64,
    paged: &mut dyn FnMut(&ExecConfig) -> f64,
) -> Outcome {
    let stats = run_rounds(cands, rounds, mem);
    let mut challengers: Vec<usize> =
        (1..cands.len()).filter(|&i| beats(&stats[i], &stats[0])).collect();
    challengers.sort_by(|&a, &b| stats[a].median.total_cmp(&stats[b].median));
    let mut checks = Vec::new();
    for &i in challengers.iter().take(PAGED_CHECKS) {
        let p = run_rounds(&[cands[0], cands[i]], rounds, paged);
        let check = PagedCheck { challenger: i, baseline: p[0], stats: p[1] };
        checks.push(check);
        if check.holds() {
            return Outcome { winner: i, mem: stats, paged: checks };
        }
    }
    Outcome { winner: 0, mem: stats, paged: checks }
}
