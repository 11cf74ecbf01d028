//! The optimizer (Algorithm 2 of the paper): test-based neighbour search
//! with winner/loser classification and monotone pruning.
//!
//! Starting from the candidate generator's initial node, the optimizer
//! repeatedly expands the cheapest known node: every untested neighbour
//! (one step along the `v`, `s`, or `p` axis of the compiled grid) is
//! generated and timed. Neighbours faster than the expanded node join the
//! candidate list and will be expanded in turn; slower neighbours go to the
//! end list and **their variants are never generated** — the pruning that
//! §IV.C justifies with the observed monotonicity of the runtime on either
//! side of the optimum. The search ends when the candidate list is empty,
//! and because the neighbour relation keeps the grid strongly connected,
//! the best tested node is the grid optimum for monotone cost surfaces.

use std::collections::HashMap;
use std::fmt;

use hef_kernels::{
    all_configs, BloomFilter, Family, HybridConfig, KernelIo, ProbeTable, F_AXIS, P_AXIS,
    S_AXIS, V_AXIS,
};
use hef_uarch::{AccessPattern, CacheSim, CpuModel};

use crate::error::HefError;
use crate::ir::OperatorTemplate;
use crate::translate::to_loop_body;

/// Something that can price a configuration (lower is better).
pub trait CostEvaluator {
    /// Cost of running the operator at `cfg` (seconds, cycles per element —
    /// any consistent unit).
    fn cost(&mut self, cfg: HybridConfig) -> f64;
}

/// The result of a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best configuration found.
    pub best: HybridConfig,
    /// Its cost.
    pub best_cost: f64,
    /// Every tested node with its cost, in test order.
    pub tested: Vec<(HybridConfig, f64)>,
    /// Nodes classified as losers (the end list).
    pub end_list: Vec<HybridConfig>,
}

impl SearchOutcome {
    /// Grid nodes never generated or tested.
    pub fn pruned(&self) -> usize {
        all_configs().count() - self.tested.len()
    }
}

pub(crate) fn axis_neighbors(x: usize, axis: &[usize]) -> Option<Vec<usize>> {
    let i = axis.iter().position(|&a| a == x)?;
    let mut out = Vec::new();
    if i > 0 {
        out.push(axis[i - 1]);
    }
    if i + 1 < axis.len() {
        out.push(axis[i + 1]);
    }
    Some(out)
}

/// Neighbours of `cfg` on the compiled grid: one axis step in `v`, `s`, or
/// `p`, excluding the empty `(0,0,·)` column. Off-grid nodes have no axis
/// position to step from, so they are a typed error.
pub fn try_neighbors(cfg: HybridConfig) -> Result<Vec<HybridConfig>, HefError> {
    let (Some(vs), Some(ss), Some(ps)) = (
        axis_neighbors(cfg.v, V_AXIS),
        axis_neighbors(cfg.s, S_AXIS),
        axis_neighbors(cfg.p, P_AXIS),
    ) else {
        return Err(HefError::off_grid(cfg));
    };
    let mut out = Vec::new();
    for v in vs {
        if v + cfg.s >= 1 {
            out.push(HybridConfig { v, ..cfg });
        }
    }
    for s in ss {
        if cfg.v + s >= 1 {
            out.push(HybridConfig { s, ..cfg });
        }
    }
    for p in ps {
        out.push(HybridConfig { p, ..cfg });
    }
    Ok(out)
}

/// Panicking convenience over [`try_neighbors`] for known-on-grid nodes.
pub fn neighbors(cfg: HybridConfig) -> Vec<HybridConfig> {
    try_neighbors(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Relative band within which two measurements are treated as a near-tie
/// that one sample cannot decide, triggering median-of-3 re-measurement.
const NEAR_TIE_BAND: f64 = 0.08;

/// A measurement this many times worse than its reference is treated as a
/// suspected outlier (interference, an injected spike) and re-measured.
const OUTLIER_FACTOR: f64 = 3.0;

/// NaN is an evaluator bug, not a price; treat it as unaffordable so the
/// search's total order stays meaningful.
fn sanitize(c: f64) -> f64 {
    if c.is_nan() {
        f64::INFINITY
    } else {
        c
    }
}

/// Median of `first` and two fresh samples. The shared median helper counts
/// only finite values, so an infinite sample enters clamped to the finite
/// range: it still ranks at its end, and comes back infinite when it is the
/// median.
fn median_of_3(sample: &mut dyn FnMut() -> f64, first: f64) -> f64 {
    hef_obs::metrics::add(hef_obs::metrics::Metric::TunerRemeasurements, 1);
    hef_obs::metrics::add(hef_obs::metrics::Metric::TunerTrials, 2);
    let xs = [first, sanitize(sample()), sanitize(sample())];
    let m = hef_testutil::bench::median(xs.map(|x| x.clamp(f64::MIN, f64::MAX)));
    if m.abs() == f64::MAX {
        m.signum() * f64::INFINITY
    } else {
        m
    }
}

/// One robust measurement: a single sample, re-measured (median of 3) when
/// it is decision-critical — a near-tie with the expanded node, a suspected
/// outlier, or a would-be new global best. This is the policy that keeps a
/// single noisy sample from steering the search: winners/losers separated
/// by a clear margin are accepted on one sample, but anything that would
/// flip a classification or the final answer gets confirmed.
///
/// Node-agnostic (the node is baked into `sample`), so the `(v,s,p)` and
/// `(v,s,p,f)` searches share one measurement policy.
pub(crate) fn robust_cost(
    sample: &mut dyn FnMut() -> f64,
    reference: Option<f64>,
    running_best: f64,
) -> f64 {
    hef_obs::metrics::add(hef_obs::metrics::Metric::TunerTrials, 1);
    let c = sanitize(sample());
    if !c.is_finite() {
        return c;
    }
    let suspicious = match reference {
        Some(r) if r.is_finite() => {
            let scale = c.abs().max(r.abs());
            (c - r).abs() <= NEAR_TIE_BAND * scale || c > r * OUTLIER_FACTOR
        }
        // No finite reference (the initial node): it seeds every later
        // comparison, so always confirm it.
        _ => true,
    };
    if suspicious || c < running_best {
        median_of_3(sample, c)
    } else {
        c
    }
}

/// Run Algorithm 2 from `initial`.
pub fn optimize(initial: HybridConfig, eval: &mut dyn CostEvaluator) -> SearchOutcome {
    let initial = crate::candidate::snap(initial);
    let _span = hef_obs::span!(
        "optimize",
        v = initial.v,
        s = initial.s,
        p = initial.p
    );
    hef_obs::metrics::add(hef_obs::metrics::Metric::TunerSearches, 1);
    let mut costs: HashMap<HybridConfig, f64> = HashMap::new();
    let mut order: Vec<(HybridConfig, f64)> = Vec::new();
    let mut end_list: Vec<HybridConfig> = Vec::new();

    let c0 = robust_cost(&mut || eval.cost(initial), None, f64::INFINITY);
    costs.insert(initial, c0);
    order.push((initial, c0));
    let mut best = (initial, c0);

    // Candidate list of nodes to expand, kept sorted by ascending cost so
    // the most promising node is expanded first.
    let mut candidates = vec![initial];
    let mut expanded: Vec<HybridConfig> = Vec::new();

    while let Some(pos) = candidates
        .iter()
        .enumerate()
        .min_by(|a, b| costs[a.1].total_cmp(&costs[b.1]))
        .map(|(i, _)| i)
    {
        let node = candidates.swap_remove(pos);
        if expanded.contains(&node) {
            continue;
        }
        expanded.push(node);
        let node_cost = costs[&node];

        // `node` came from `snap`/`try_neighbors`, so it is on-grid and
        // `try_neighbors` cannot fail here; the empty default keeps the
        // search panic-free regardless.
        for n in try_neighbors(node).unwrap_or_default() {
            if costs.contains_key(&n) {
                continue;
            }
            let c = robust_cost(&mut || eval.cost(n), Some(node_cost), best.1);
            costs.insert(n, c);
            order.push((n, c));
            if c < best.1 {
                best = (n, c);
            }
            if c < node_cost {
                candidates.push(n); // winner: expand its variants later
            } else {
                end_list.push(n); // loser: variants pruned
            }
        }
    }

    let outcome = SearchOutcome { best: best.0, best_cost: best.1, tested: order, end_list };
    hef_obs::metrics::add(
        hef_obs::metrics::Metric::TunerPruned,
        outcome.pruned() as u64,
    );
    outcome
}

/// Exhaustive baseline: test every grid node (the cost the pruning avoids).
pub fn exhaustive(eval: &mut dyn CostEvaluator) -> SearchOutcome {
    let mut order = Vec::new();
    for cfg in all_configs() {
        let c = sanitize(eval.cost(cfg));
        order.push((cfg, c));
    }
    let (best, best_cost) = order
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((HybridConfig { v: 1, s: 1, p: 3 }, f64::INFINITY));
    SearchOutcome { best, best_cost, tested: order, end_list: Vec::new() }
}

/// A probe-family search node: the hybrid shape plus the software-prefetch
/// depth `f` (elements kept in flight by the AMAC ring). `f` is a runtime
/// parameter of the compiled kernels, so the search axis
/// ([`hef_kernels::F_AXIS`]) bounds only what the tuner *tries*, not what
/// can execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeNode {
    pub cfg: HybridConfig,
    pub f: usize,
}

impl ProbeNode {
    pub fn new(v: usize, s: usize, p: usize, f: usize) -> Self {
        ProbeNode { cfg: HybridConfig::new(v, s, p), f }
    }
}

impl fmt::Display for ProbeNode {
    fn fmt(&self, w: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(w, "n{}{}{}f{}", self.cfg.v, self.cfg.s, self.cfg.p, self.f)
    }
}

/// Something that can price a probe node (lower is better).
pub trait ProbeCostEvaluator {
    fn probe_cost(&mut self, node: ProbeNode) -> f64;
}

/// The result of a probe `(v,s,p,f)` search.
#[derive(Debug, Clone)]
pub struct ProbeSearchOutcome {
    pub best: ProbeNode,
    pub best_cost: f64,
    pub tested: Vec<(ProbeNode, f64)>,
    pub end_list: Vec<ProbeNode>,
}

impl ProbeSearchOutcome {
    /// Grid nodes (config × prefetch-axis points) never generated or tested.
    pub fn pruned(&self) -> usize {
        all_configs().count() * F_AXIS.len() - self.tested.len()
    }
}

/// Neighbours of a probe node: one axis step in `v`, `s`, or `p` at the
/// same depth, plus one step along the `f` axis at the same shape. The
/// pruning along `f` leans on the same monotonicity assumption as the
/// hybrid axes — modeled as the LFB-capped, non-decreasing
/// `CacheSim::effective_mlp`, so cost is convex-ish in `f` (too shallow
/// serializes misses, too deep evicts its own prefetches).
pub fn try_probe_neighbors(node: ProbeNode) -> Result<Vec<ProbeNode>, HefError> {
    let Some(fs) = axis_neighbors(node.f, F_AXIS) else {
        return Err(HefError::OffAxisPrefetch { f: node.f });
    };
    let mut out: Vec<ProbeNode> = try_neighbors(node.cfg)?
        .into_iter()
        .map(|cfg| ProbeNode { cfg, f: node.f })
        .collect();
    for f in fs {
        out.push(ProbeNode { cfg: node.cfg, f });
    }
    Ok(out)
}

/// Panicking convenience over [`try_probe_neighbors`] for known-on-grid nodes.
pub fn probe_neighbors(node: ProbeNode) -> Vec<ProbeNode> {
    try_probe_neighbors(node).unwrap_or_else(|e| panic!("{e}"))
}

/// Algorithm 2 over the probe family's four-dimensional `(v,s,p,f)` grid:
/// identical winner/loser classification and monotone pruning, with the
/// prefetch depth as one more axis.
pub fn optimize_probe(initial: ProbeNode, eval: &mut dyn ProbeCostEvaluator) -> ProbeSearchOutcome {
    let initial = ProbeNode {
        cfg: crate::candidate::snap(initial.cfg),
        f: crate::candidate::snap_to_axis(initial.f, F_AXIS),
    };
    let _span = hef_obs::span!(
        "optimize_probe",
        v = initial.cfg.v,
        s = initial.cfg.s,
        p = initial.cfg.p,
        f = initial.f
    );
    hef_obs::metrics::add(hef_obs::metrics::Metric::TunerSearches, 1);
    let mut costs: HashMap<ProbeNode, f64> = HashMap::new();
    let mut order: Vec<(ProbeNode, f64)> = Vec::new();
    let mut end_list: Vec<ProbeNode> = Vec::new();

    let c0 = robust_cost(&mut || eval.probe_cost(initial), None, f64::INFINITY);
    costs.insert(initial, c0);
    order.push((initial, c0));
    let mut best = (initial, c0);

    let mut candidates = vec![initial];
    let mut expanded: Vec<ProbeNode> = Vec::new();

    while let Some(pos) = candidates
        .iter()
        .enumerate()
        .min_by(|a, b| costs[a.1].total_cmp(&costs[b.1]))
        .map(|(i, _)| i)
    {
        let node = candidates.swap_remove(pos);
        if expanded.contains(&node) {
            continue;
        }
        expanded.push(node);
        let node_cost = costs[&node];

        for n in try_probe_neighbors(node).unwrap_or_default() {
            if costs.contains_key(&n) {
                continue;
            }
            let c = robust_cost(&mut || eval.probe_cost(n), Some(node_cost), best.1);
            costs.insert(n, c);
            order.push((n, c));
            if c < best.1 {
                best = (n, c);
            }
            if c < node_cost {
                candidates.push(n);
            } else {
                end_list.push(n);
            }
        }
    }

    let outcome =
        ProbeSearchOutcome { best: best.0, best_cost: best.1, tested: order, end_list };
    hef_obs::metrics::add(
        hef_obs::metrics::Metric::TunerPruned,
        outcome.pruned() as u64,
    );
    outcome
}

/// Applies the armed fault plan's cost spikes (`HEF_FAULT=spike:…` or a
/// programmatic [`hef_testutil::fault::FaultPlan`]) to an inner evaluator,
/// counting measurements in global call order. The `tune_*` facades wrap
/// their evaluators in this, so injected outliers exercise the search's
/// re-measurement defence end-to-end; with no plan armed it is a single
/// atomic load per call.
pub struct SpikedCost<E> {
    pub inner: E,
}

impl<E: CostEvaluator> CostEvaluator for SpikedCost<E> {
    fn cost(&mut self, cfg: HybridConfig) -> f64 {
        let c = self.inner.cost(cfg);
        match hef_testutil::fault::next_cost_spike() {
            Some(factor) => c * factor,
            None => c,
        }
    }
}

impl<E: ProbeCostEvaluator> ProbeCostEvaluator for SpikedCost<E> {
    fn probe_cost(&mut self, node: ProbeNode) -> f64 {
        let c = self.inner.probe_cost(node);
        match hef_testutil::fault::next_cost_spike() {
            Some(factor) => c * factor,
            None => c,
        }
    }
}

/// Prices a node by simulating its translated µop trace on a CPU model —
/// the offline tuning path for processors we do not have.
pub struct SimulatedCost<'a> {
    pub model: &'a CpuModel,
    pub template: &'a OperatorTemplate,
    /// Steady-state iterations to simulate.
    pub iterations: usize,
}

impl<'a> SimulatedCost<'a> {
    pub fn new(model: &'a CpuModel, template: &'a OperatorTemplate) -> Self {
        SimulatedCost { model, template, iterations: 60 }
    }
}

impl CostEvaluator for SimulatedCost<'_> {
    fn cost(&mut self, cfg: HybridConfig) -> f64 {
        let body = to_loop_body(self.template, cfg);
        let r = hef_uarch::simulate(self.model, &body, self.iterations);
        hef_obs::metrics::add(hef_obs::metrics::Metric::SimRuns, 1);
        hef_obs::metrics::add(hef_obs::metrics::Metric::SimCycles, r.cycles);
        let elems = (cfg.step() * self.iterations) as f64;
        // Nanoseconds per element: cycles / frequency, normalized per element
        // so different step widths are comparable.
        let ghz = hef_uarch::freq::frequency_ghz(self.model, &body);
        r.cycles as f64 / ghz / elems
    }
}

/// The bit width [`MeasuredCost`] packs its synthetic Decode stream with:
/// a mid-grid width whose 8192-entry dictionary (64 KiB) sits in L2,
/// representative of the SSB dimension-key columns.
pub const MEASURED_DECODE_WIDTH: u32 = 13;

/// Prices a node by actually running the compiled kernel on this machine
/// (the paper's primary, test-based path).
pub struct MeasuredCost {
    family: Family,
    input: Vec<u64>,
    input2: Vec<u64>,
    output: Vec<u64>,
    table: Option<ProbeTable>,
    bloom: Option<BloomFilter>,
    /// Packed `MEASURED_DECODE_WIDTH`-bit codes + dictionary (Decode only).
    decode: Option<(Vec<u64>, Vec<u64>)>,
    /// Timing trials per node; the minimum is used.
    pub trials: usize,
    /// Hardware cycles of the fastest trial of the most recent [`cost`]
    /// call (`hef_testutil::read_cycles`; `None` off x86_64 or before any
    /// measurement). Lets callers report cycles alongside wall time.
    ///
    /// [`cost`]: CostEvaluator::cost
    pub last_cycles: Option<u64>,
}

impl MeasuredCost {
    /// Build an evaluator with `n` elements of synthetic input.
    pub fn new(family: Family, n: usize) -> Self {
        let input: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
            .collect();
        let input2: Vec<u64> = (0..n as u64).map(|i| (i % 97) + 1).collect();
        let table = match family {
            Family::Probe => {
                let mut t = ProbeTable::with_capacity(n / 16 + 1);
                for k in 0..(n as u64 / 16) {
                    t.insert(k * 2 + 1, k + 1);
                }
                Some(t)
            }
            _ => None,
        };
        let bloom = match family {
            Family::BloomCheck => {
                let mut f = BloomFilter::with_capacity(n / 16 + 1);
                for k in 0..(n as u64 / 16) {
                    f.insert(k * 2 + 1);
                }
                Some(f)
            }
            _ => None,
        };
        let decode = match family {
            Family::Decode => {
                let mask = hef_kernels::decode::code_mask(MEASURED_DECODE_WIDTH);
                let codes: Vec<u64> = input.iter().map(|&x| x & mask).collect();
                let words = hef_kernels::decode::pack(&codes, MEASURED_DECODE_WIDTH);
                let dict: Vec<u64> = (0..1u64 << MEASURED_DECODE_WIDTH)
                    .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d))
                    .collect();
                Some((words, dict))
            }
            _ => None,
        };
        MeasuredCost {
            family,
            output: vec![0u64; n],
            input,
            input2,
            table,
            bloom,
            decode,
            trials: 3,
            last_cycles: None,
        }
    }

    fn run_once(&mut self, cfg: HybridConfig) -> bool {
        let mut sel = Vec::new();
        let mut acc = 0u64;
        let mut io = match self.family {
            Family::Murmur | Family::Crc64 => KernelIo::Map {
                input: &self.input,
                output: &mut self.output,
            },
            Family::Probe => KernelIo::Probe {
                keys: &self.input2, // small-domain keys: mixture of hits
                table: self.table.as_ref().expect("probe table built"),
                out: &mut self.output,
                prefetch: 0,
            },
            Family::Filter => KernelIo::Filter {
                input: &self.input2,
                lo: 10,
                hi: 60,
                base: 0,
                sel: &mut sel,
            },
            Family::AggSum => KernelIo::AggSum { a: &self.input, acc: &mut acc },
            Family::AggDot => KernelIo::AggDot {
                a: &self.input,
                b: &self.input2,
                acc: &mut acc,
            },
            Family::BloomCheck => KernelIo::Bloom {
                keys: &self.input2,
                filter: self.bloom.as_ref().expect("bloom filter built"),
                out: &mut self.output,
                prefetch: 0,
            },
            Family::Gather => KernelIo::Gather {
                src: &self.input,
                idx: &self.input2, // values < 97 < n: always in bounds
                out: &mut self.output,
                prefetch: 0,
            },
            Family::Decode => {
                let (words, dict) = self.decode.as_ref().expect("decode inputs built");
                KernelIo::Decode {
                    words,
                    width: MEASURED_DECODE_WIDTH,
                    reference: 0,
                    dict: Some(dict),
                    start: 0,
                    pos: None,
                    out: &mut self.output,
                }
            }
        };
        hef_kernels::run(self.family, cfg, &mut io)
    }
}

impl CostEvaluator for MeasuredCost {
    fn cost(&mut self, cfg: HybridConfig) -> f64 {
        // Probe once: off-grid nodes are infinitely expensive.
        if !self.run_once(cfg) {
            return f64::INFINITY;
        }
        // Shared clock discipline with the bench harness: warm-up run,
        // then best-of-`trials` wall time (cycles of the same best run).
        let (secs, cycles) = hef_testutil::time_best_of_cycles(self.trials, || {
            self.run_once(cfg);
        });
        self.last_cycles = cycles;
        if let Some(c) = cycles {
            hef_obs::metrics::observe(
                hef_obs::metrics::Hist::KernelCyclesPerRow,
                c / self.input.len().max(1) as u64,
            );
        }
        secs
    }
}

/// Prices a probe node by running the compiled kernel against a build side
/// of a *chosen* size — unlike [`MeasuredCost`]'s fixed small-domain table,
/// this is how the `f` axis gets tuned where it matters: with the hash
/// table resident in L2, LLC, or DRAM.
pub struct MeasuredProbeCost {
    keys: Vec<u64>,
    output: Vec<u64>,
    table: ProbeTable,
    /// Timing trials per node; the minimum is used.
    pub trials: usize,
    /// Hardware cycles of the fastest trial of the most recent cost call.
    pub last_cycles: Option<u64>,
}

impl MeasuredProbeCost {
    /// An evaluator probing `nkeys` uniform keys into a table of
    /// `build_entries` entries (≈50 % hit rate: keys are drawn from twice
    /// the inserted key domain).
    pub fn new(build_entries: usize, nkeys: usize) -> Self {
        let mut table = ProbeTable::with_capacity(build_entries.max(1));
        for k in 0..build_entries as u64 {
            table.insert(k * 2 + 1, k + 1);
        }
        // Golden-ratio scramble: uniform, aperiodic, deterministic.
        let domain = (2 * build_entries.max(1)) as u64;
        let keys: Vec<u64> = (0..nkeys as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % domain)
            .collect();
        MeasuredProbeCost {
            output: vec![0u64; nkeys],
            keys,
            table,
            trials: 3,
            last_cycles: None,
        }
    }

    /// Bytes of the build side actually touched by probes.
    pub fn working_set_bytes(&self) -> usize {
        self.table.working_set_bytes()
    }

    fn run_once(&mut self, node: ProbeNode) -> bool {
        let mut io = KernelIo::Probe {
            keys: &self.keys,
            table: &self.table,
            out: &mut self.output,
            prefetch: node.f,
        };
        hef_kernels::run(Family::Probe, node.cfg, &mut io)
    }
}

impl ProbeCostEvaluator for MeasuredProbeCost {
    fn probe_cost(&mut self, node: ProbeNode) -> f64 {
        if !self.run_once(node) {
            return f64::INFINITY;
        }
        let (secs, cycles) = hef_testutil::time_best_of_cycles(self.trials, || {
            self.run_once(node);
        });
        self.last_cycles = cycles;
        if let Some(c) = cycles {
            hef_obs::metrics::observe(
                hef_obs::metrics::Hist::KernelCyclesPerRow,
                c / self.keys.len().max(1) as u64,
            );
        }
        secs
    }
}

/// Prices a probe node on a modeled CPU: the µop simulator gives the
/// compute cycles of the hybrid shape, and the cache model's prefetch-aware
/// stall cost ([`CacheSim::prefetch_stall_cycles`]) adds the memory side,
/// so simulated Mcycles stay comparable with measured ones across the `f`
/// axis.
pub struct SimulatedProbeCost<'a> {
    pub model: &'a CpuModel,
    pub template: &'a OperatorTemplate,
    /// Bytes of the build side the probes hit (drives the miss model).
    pub working_set: u64,
    /// Steady-state iterations to simulate.
    pub iterations: usize,
}

impl<'a> SimulatedProbeCost<'a> {
    pub fn new(model: &'a CpuModel, template: &'a OperatorTemplate, working_set: u64) -> Self {
        SimulatedProbeCost { model, template, working_set, iterations: 60 }
    }
}

impl ProbeCostEvaluator for SimulatedProbeCost<'_> {
    fn probe_cost(&mut self, node: ProbeNode) -> f64 {
        let body = to_loop_body(self.template, node.cfg);
        let r = hef_uarch::simulate(self.model, &body, self.iterations);
        hef_obs::metrics::add(hef_obs::metrics::Metric::SimRuns, 1);
        hef_obs::metrics::add(hef_obs::metrics::Metric::SimCycles, r.cycles);
        let elems = (node.cfg.step() * self.iterations) as u64;
        let cache = CacheSim::new(self.model);
        let misses = cache.misses(AccessPattern::RandomProbe {
            count: elems,
            working_set: self.working_set,
        });
        let stall = cache.prefetch_stall_cycles(&misses, node.f);
        let ghz = hef_uarch::freq::frequency_ghz(self.model, &body);
        (r.cycles as f64 + stall as f64) / ghz / elems as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A convex synthetic cost surface with a known optimum.
    struct Synthetic {
        opt: HybridConfig,
        calls: usize,
    }

    impl CostEvaluator for Synthetic {
        fn cost(&mut self, cfg: HybridConfig) -> f64 {
            self.calls += 1;
            let vd = (V_AXIS.iter().position(|&x| x == cfg.v).unwrap() as f64
                - V_AXIS.iter().position(|&x| x == self.opt.v).unwrap() as f64)
                .abs();
            let sd = (cfg.s as f64 - self.opt.s as f64).abs();
            let pd = (cfg.p as f64 - self.opt.p as f64).abs();
            1.0 + vd + sd + pd
        }
    }

    #[test]
    fn median_of_3_is_the_middle_sample_even_when_unaffordable() {
        let inf = f64::INFINITY;
        let cases = [
            (2.0, [1.0, 3.0]),
            (2.0, [2.0, 2.0]),
            (1.0, [inf, 0.5]),
            (1.0, [inf, inf]),
            (1.0, [-inf, inf]),
            (1.0, [f64::NAN, f64::NAN]),
            (1.0, [-inf, -inf]),
        ];
        for (first, [a, b]) in cases {
            let mut sorted = [first, sanitize(a), sanitize(b)];
            sorted.sort_by(f64::total_cmp);
            let mut next = [a, b].into_iter();
            let got = median_of_3(&mut || next.next().unwrap(), first);
            assert_eq!(got, sorted[1], "{first} {a} {b}");
        }
    }

    #[test]
    fn finds_the_optimum_of_a_convex_surface() {
        for opt in [
            HybridConfig::new(1, 3, 2),
            HybridConfig::new(8, 0, 1),
            HybridConfig::new(1, 1, 3),
        ] {
            let mut eval = Synthetic { opt, calls: 0 };
            let out = optimize(HybridConfig::new(1, 1, 1), &mut eval);
            assert_eq!(out.best, opt, "from (1,1,1)");
            assert!(
                out.tested.len() < all_configs().count(),
                "search must prune"
            );
        }
    }

    #[test]
    fn pruning_tests_far_fewer_nodes_than_exhaustive() {
        let mut eval = Synthetic { opt: HybridConfig::new(1, 3, 2), calls: 0 };
        let pruned = optimize(HybridConfig::new(2, 2, 2), &mut eval);
        let tested = pruned.tested.len();
        let total = all_configs().count();
        assert!(
            tested * 2 < total,
            "tested {tested} of {total} — pruning ineffective"
        );
        assert_eq!(pruned.pruned(), total - tested);
    }

    #[test]
    fn neighbors_step_one_axis_position() {
        let n = neighbors(HybridConfig::new(2, 2, 2));
        assert!(n.contains(&HybridConfig::new(1, 2, 2)));
        assert!(n.contains(&HybridConfig::new(4, 2, 2))); // axis step 2→4
        assert!(n.contains(&HybridConfig::new(2, 1, 2)));
        assert!(n.contains(&HybridConfig::new(2, 3, 2)));
        assert!(n.contains(&HybridConfig::new(2, 2, 1)));
        assert!(n.contains(&HybridConfig::new(2, 2, 3)));
        assert_eq!(n.len(), 6);
    }

    #[test]
    fn neighbors_never_produce_empty_config() {
        for cfg in all_configs() {
            for n in neighbors(cfg) {
                assert!(n.v + n.s >= 1, "{cfg} -> {n}");
            }
        }
    }

    #[test]
    fn simulated_cost_prefers_packed_crc() {
        let t = crate::templates::crc64();
        let m = CpuModel::silver_4110();
        let mut eval = SimulatedCost::new(&m, &t);
        let serial = eval.cost(HybridConfig::new(1, 0, 1));
        let packed = eval.cost(HybridConfig::new(4, 0, 2));
        assert!(packed < serial, "packed {packed} vs serial {serial}");
    }

    #[test]
    fn measured_cost_runs_every_family() {
        for f in Family::ALL {
            let mut eval = MeasuredCost::new(f, 4096);
            let c = eval.cost(HybridConfig::new(1, 1, 1));
            assert!(c.is_finite() && c > 0.0, "{}", f.name());
        }
    }

    #[test]
    fn off_grid_neighbors_are_a_typed_error() {
        let e = try_neighbors(HybridConfig { v: 3, s: 1, p: 2 }).unwrap_err();
        assert!(matches!(e, HefError::OffGrid { v: 3, s: 1, p: 2 }), "{e}");
        let e = try_neighbors(HybridConfig { v: 1, s: 1, p: 9 }).unwrap_err();
        assert!(matches!(e, HefError::OffGrid { .. }));
    }

    /// An evaluator that returns NaN for one node.
    struct Poisoned {
        inner: Synthetic,
        bad: HybridConfig,
    }

    impl CostEvaluator for Poisoned {
        fn cost(&mut self, cfg: HybridConfig) -> f64 {
            if cfg == self.bad {
                f64::NAN
            } else {
                self.inner.cost(cfg)
            }
        }
    }

    #[test]
    fn nan_cost_never_wins_or_panics() {
        let opt = HybridConfig::new(1, 3, 2);
        let mut eval = Poisoned {
            inner: Synthetic { opt, calls: 0 },
            bad: HybridConfig::new(1, 2, 2),
        };
        let out = optimize(HybridConfig::new(1, 1, 1), &mut eval);
        assert!(out.best_cost.is_finite());
        assert_ne!(out.best, eval.bad);
        assert_eq!(out.best, opt);
    }

    #[test]
    fn downward_spike_cannot_hijack_best() {
        use hef_testutil::fault::{CostSpike, FaultPlan};
        let opt = HybridConfig::new(1, 3, 2);
        // Spike one mid-search measurement down 100×: the would-be-new-best
        // re-measurement (median of 3) must discard it.
        let plan = FaultPlan {
            cost_spikes: vec![CostSpike { trial: 7, factor: 0.01 }],
            ..Default::default()
        };
        hef_testutil::fault::with_plan(plan, || {
            let mut eval = SpikedCost { inner: Synthetic { opt, calls: 0 } };
            let out = optimize(HybridConfig::new(2, 2, 2), &mut eval);
            assert_eq!(out.best, opt, "spiked measurement became best");
        });
    }

    #[test]
    fn spiked_cost_is_transparent_without_spikes() {
        // An empty plan (taken to serialize against other fault tests):
        // the wrapper must not perturb any measurement.
        hef_testutil::fault::with_plan(Default::default(), || {
            let mut plain = Synthetic { opt: HybridConfig::new(1, 3, 2), calls: 0 };
            let mut wrapped =
                SpikedCost { inner: Synthetic { opt: HybridConfig::new(1, 3, 2), calls: 0 } };
            for cfg in all_configs().take(10) {
                assert_eq!(plain.cost(cfg), wrapped.cost(cfg));
            }
        });
    }

    /// A convex synthetic probe-cost surface over (v, s, p, f).
    struct SyntheticProbe {
        opt: ProbeNode,
        calls: usize,
    }

    impl ProbeCostEvaluator for SyntheticProbe {
        fn probe_cost(&mut self, node: ProbeNode) -> f64 {
            self.calls += 1;
            let pos = |x: usize, axis: &[usize]| {
                axis.iter().position(|&a| a == x).unwrap() as f64
            };
            1.0 + (pos(node.cfg.v, V_AXIS) - pos(self.opt.cfg.v, V_AXIS)).abs()
                + (node.cfg.s as f64 - self.opt.cfg.s as f64).abs()
                + (node.cfg.p as f64 - self.opt.cfg.p as f64).abs()
                + (pos(node.f, F_AXIS) - pos(self.opt.f, F_AXIS)).abs()
        }
    }

    #[test]
    fn probe_search_finds_the_optimum_including_depth() {
        for opt in [
            ProbeNode::new(2, 2, 3, 16),
            ProbeNode::new(1, 1, 3, 0),
            ProbeNode::new(8, 0, 1, 64),
        ] {
            let mut eval = SyntheticProbe { opt, calls: 0 };
            let out = optimize_probe(ProbeNode::new(1, 1, 1, 0), &mut eval);
            assert_eq!(out.best, opt, "from (1,1,1,f=0)");
            let total = all_configs().count() * F_AXIS.len();
            assert!(out.tested.len() < total, "4-D search must prune");
            assert_eq!(out.pruned(), total - out.tested.len());
        }
    }

    #[test]
    fn probe_neighbors_step_every_axis_including_f() {
        let n = probe_neighbors(ProbeNode::new(2, 2, 2, 8));
        // Hybrid-axis steps keep f; f-axis steps keep the shape.
        assert!(n.contains(&ProbeNode::new(1, 2, 2, 8)));
        assert!(n.contains(&ProbeNode::new(4, 2, 2, 8)));
        assert!(n.contains(&ProbeNode::new(2, 2, 2, 4)));
        assert!(n.contains(&ProbeNode::new(2, 2, 2, 16)));
        assert_eq!(n.len(), 8, "{n:?}");
        // f = 0 has only an upward step.
        let n0 = probe_neighbors(ProbeNode::new(2, 2, 2, 0));
        assert!(n0.contains(&ProbeNode::new(2, 2, 2, 4)));
        assert!(!n0.iter().any(|x| x.f != 0 && x.f != 4));
    }

    #[test]
    fn off_axis_prefetch_is_a_typed_error() {
        let e = try_probe_neighbors(ProbeNode::new(1, 1, 3, 7)).unwrap_err();
        assert!(matches!(e, HefError::OffAxisPrefetch { f: 7 }), "{e}");
        assert!(e.to_string().contains("off the search axis"), "{e}");
    }

    #[test]
    fn probe_node_snap_lands_on_the_grid() {
        // Off-grid initial nodes are snapped, not rejected.
        let mut eval = SyntheticProbe { opt: ProbeNode::new(2, 2, 3, 16), calls: 0 };
        let out = optimize_probe(ProbeNode::new(3, 2, 3, 13), &mut eval);
        assert_eq!(out.best, ProbeNode::new(2, 2, 3, 16));
    }

    #[test]
    fn measured_probe_cost_prices_any_depth() {
        let mut eval = MeasuredProbeCost::new(1 << 10, 4096);
        for f in [0usize, 16] {
            let c = eval.probe_cost(ProbeNode::new(1, 1, 3, f));
            assert!(c.is_finite() && c > 0.0, "f={f}");
            assert!(eval.last_cycles.is_some() || !cfg!(target_arch = "x86_64"));
        }
        assert!(eval.working_set_bytes() > 0);
        // Off-grid shapes are unaffordable, not a panic.
        assert_eq!(eval.probe_cost(ProbeNode::new(3, 1, 1, 0)), f64::INFINITY);
    }

    #[test]
    fn simulated_probe_cost_rewards_prefetch_only_out_of_cache() {
        let t = crate::templates::probe();
        let m = CpuModel::silver_4110();
        // DRAM-resident build side: prefetch depth pays.
        let mut dram = SimulatedProbeCost::new(&m, &t, 64 << 20);
        let flat = dram.probe_cost(ProbeNode::new(2, 2, 3, 0));
        let deep = dram.probe_cost(ProbeNode::new(2, 2, 3, 16));
        assert!(deep < flat * 0.6, "deep {deep} vs flat {flat}");
        // L1-resident: no misses to hide, f is a wash.
        let mut hot = SimulatedProbeCost::new(&m, &t, 16 << 10);
        let hot_flat = hot.probe_cost(ProbeNode::new(2, 2, 3, 0));
        let hot_deep = hot.probe_cost(ProbeNode::new(2, 2, 3, 16));
        assert_eq!(hot_flat, hot_deep);
    }

    #[test]
    fn exhaustive_covers_the_whole_grid() {
        let mut eval = Synthetic { opt: HybridConfig::new(1, 1, 1), calls: 0 };
        let out = exhaustive(&mut eval);
        assert_eq!(out.tested.len(), all_configs().count());
        assert_eq!(out.best, HybridConfig::new(1, 1, 1));
    }
}
