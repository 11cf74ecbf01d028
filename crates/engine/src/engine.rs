//! The [`Engine`]: every piece of state that shapes how a query runs, held
//! in one value and handed to each execution.
//!
//! An engine owns
//!
//! * its [`Governor`] — the concurrent-query cap and the memory budget;
//! * the tuned pipeline registry (registry v3 rows, keyed by plan
//!   fingerprint), loaded once when the engine is built;
//! * the run overrides — worker threads, deadline — applied over the
//!   caller's [`ExecConfig`] after the pipeline row, so an explicit override
//!   wins over a tuned row;
//! * its fault schedule ([`EngineFaults`]): injected worker panics, slow
//!   morsels and admission memory spikes.
//!
//! Nothing here is process-wide. [`Engine::from_env`] is the one place the
//! `HEF_*` execution variables are read, once; tests build engines from
//! closures ([`Engine::from_vars`]) or builders, and two engines never see
//! each other's budgets, rows or faults. [`Engine::default`] reads nothing:
//! unlimited governor, no registry, no overrides, no faults.
//!
//! [`Engine::execute`] is the one execution path for both storage layers
//! ([`Fact::Mem`] and [`Fact::Paged`]): validate → pipeline overlay →
//! overrides → admission → query span → scan → report.

use std::path::Path;
use std::time::{Duration, Instant};

use hef_core::Registry;
use hef_storage::cache::PageCache;
use hef_storage::page::parse_byte_size;
use hef_storage::Table;
use hef_testutil::fault::{EngineFaults, FaultPlan};

use crate::govern::{
    interrupt_error, sleep_checked, CancelToken, Governor, GovernorConfig, QueryCtx, MAX_BACKOFF_MS,
};
use crate::paged::PagedTable;
use crate::parallel::{resolve_threads, resolve_threads_governed, ExecError, ExecReport};
use crate::pipeline_plan::apply_pipeline_entry;
use crate::star::{validate_star_plan, ExecConfig, QueryOutput, StarPlan};

/// The fact table a query scans: resident columns, or paged columns read
/// through a page cache.
#[derive(Clone, Copy)]
pub enum Fact<'a> {
    Mem(&'a Table),
    Paged(&'a PagedTable, &'a PageCache),
}

impl Fact<'_> {
    fn name(&self) -> &str {
        match self {
            Fact::Mem(t) => t.name(),
            Fact::Paged(t, _) => t.name(),
        }
    }

    fn rows(&self) -> usize {
        match self {
            Fact::Mem(t) => t.len(),
            Fact::Paged(t, _) => t.rows() as usize,
        }
    }

    fn has_column(&self, col: &str) -> bool {
        match self {
            Fact::Mem(t) => t.column(col).is_some(),
            Fact::Paged(t, _) => t.column(col).is_some(),
        }
    }
}

/// Query-affecting state as one value (see the module docs).
#[derive(Debug, Default)]
pub struct Engine {
    governor: Governor,
    pipeline: Option<Registry>,
    /// Worker threads for a config that leaves `threads` at 0 (auto); 0
    /// here too means available parallelism.
    threads: usize,
    deadline_ms: Option<u64>,
    faults: EngineFaults,
}

impl Engine {
    /// The engine the process environment describes: [`Engine::from_vars`]
    /// over the process's variables.
    pub fn from_env() -> Engine {
        Engine::from_vars(|k| std::env::var(k).ok())
    }

    /// Build an engine from `var` (a variable name → value lookup):
    ///
    /// | variable | field |
    /// |---|---|
    /// | `HEF_MAX_QUERIES` | concurrent-query cap |
    /// | `HEF_MEM_BUDGET` | memory budget (`k`/`m`/`g` suffixes) |
    /// | `HEF_PIPELINE` | tuned pipeline registry file, loaded now |
    /// | `HEF_THREADS` | worker threads for auto-threaded configs |
    /// | `HEF_DEADLINE_MS` | per-query deadline (`0` = none) |
    /// | `HEF_FAULT` | the engine clauses of a fault spec |
    ///
    /// Unset or blank variables leave the field at its default; a value
    /// that does not parse warns once and is ignored.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Engine {
        let get = |k: &str| var(k).map(|v| v.trim().to_string()).filter(|v| !v.is_empty());
        let parsed = |k: &str, parse: fn(&str) -> Option<usize>| {
            let v = get(k)?;
            let n = parse(&v);
            if n.is_none() {
                hef_obs::diag::warn_once(
                    "engine-bad-env",
                    format!("{k}=`{v}` does not parse; treated as unset"),
                );
            }
            n
        };
        let count = |v: &str| v.parse().ok();
        let bytes = |v: &str| parse_byte_size(v).and_then(|n| usize::try_from(n).ok());
        let mut engine = Engine {
            governor: Governor::new(GovernorConfig {
                max_queries: parsed("HEF_MAX_QUERIES", count).unwrap_or(0),
                mem_budget: parsed("HEF_MEM_BUDGET", bytes).unwrap_or(0),
            }),
            threads: parsed("HEF_THREADS", |v| v.parse().ok().filter(|&n| n > 0)).unwrap_or(0),
            deadline_ms: parsed("HEF_DEADLINE_MS", count).map(|ms| ms as u64),
            ..Engine::default()
        };
        if let Some(path) = get("HEF_PIPELINE") {
            let (reg, report) = Registry::load_degraded(Path::new(&path));
            if !report.issues.is_empty() {
                let n = report.issues.len();
                hef_obs::diag::warn_once(
                    "pipeline-registry-issues",
                    format!("HEF_PIPELINE={path}: {n} issue(s) degraded during load"),
                );
            }
            engine.pipeline = Some(reg);
        }
        if let Some(spec) = get("HEF_FAULT") {
            let (plan, warnings) = FaultPlan::parse(&spec);
            for w in warnings {
                hef_obs::diag::warn_once("engine-fault-spec", format!("{w} (ignored)"));
            }
            engine.faults = EngineFaults::new(plan);
        }
        engine
    }

    /// Replace the governor with a fresh one enforcing `limits`.
    pub fn with_limits(mut self, limits: GovernorConfig) -> Engine {
        self.governor = Governor::new(limits);
        self
    }

    /// Per-query deadline for every query (`0` = none).
    pub fn with_deadline_ms(mut self, ms: u64) -> Engine {
        self.deadline_ms = Some(ms);
        self
    }

    /// Inject `plan`'s engine clauses (worker panics, slow morsels, memory
    /// spikes) into this engine's queries; each clause fires its `times`
    /// over the engine's lifetime.
    pub fn with_faults(mut self, plan: FaultPlan) -> Engine {
        self.faults = EngineFaults::new(plan);
        self
    }

    /// This engine's governor.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// `cfg` as this engine runs `plan`: the plan's pipeline row, then the
    /// run overrides.
    pub(crate) fn configure(&self, plan: &StarPlan, mut cfg: ExecConfig) -> ExecConfig {
        let entry = self.pipeline.as_ref().and_then(|r| r.get_pipeline(plan.fingerprint()));
        if let Some(entry) = entry {
            cfg = apply_pipeline_entry(cfg, entry);
        }
        if cfg.threads == 0 {
            cfg.threads = self.threads;
        }
        if let Some(ms) = self.deadline_ms {
            cfg.deadline_ms = ms;
        }
        cfg
    }

    /// Run `plan` over `fact`, returning the output with the
    /// [`ExecReport`] of every recovery and governance action. The query is
    /// admitted by this engine's governor (possibly degraded under memory
    /// pressure, possibly [`ExecError::Rejected`]), runs under its deadline
    /// and `cancel`, and a paged query's cache capacity is charged to the
    /// same budget. Recovery can change latency, never results.
    pub fn execute(
        &self,
        plan: &StarPlan,
        fact: Fact<'_>,
        cfg: &ExecConfig,
        cancel: &CancelToken,
    ) -> Result<(QueryOutput, ExecReport), ExecError> {
        // A query ending in a typed error — or unwinding — flushes the
        // partially filled trace buffers (`trace::checkpoint`), so trace
        // output survives non-success paths; a success leaves the single
        // write to the session's `finish()`.
        struct TraceDrain {
            armed: bool,
        }
        impl Drop for TraceDrain {
            fn drop(&mut self) {
                if self.armed {
                    hef_obs::trace::checkpoint();
                }
            }
        }
        let mut drain = TraceDrain { armed: hef_obs::trace::enabled() };
        validate_star_plan(plan, fact.name(), |c| fact.has_column(c))?;
        let mut cfg = self.configure(plan, *cfg);
        let requested = resolve_threads(cfg.threads);
        let mut threads = requested;
        // The guards release their charges on every path out of here.
        let mut admission = self.governor.admit_spiked(plan, fact, &mut cfg, &mut threads, || {
            self.faults.next_mem_spike()
        })?;
        let threads = resolve_threads_governed(requested, threads);
        let _cache_charge = match fact {
            Fact::Mem(_) => None,
            // The cache's capacity is the standing allocation a paged scan
            // can pin.
            Fact::Paged(_, cache) => {
                Some(self.governor.budget().try_charge_guard(cache.capacity()).ok_or_else(
                    || ExecError::Rejected { query: plan.name.clone(), retry_after_ms: 10 },
                )?)
            }
        };
        let ctx = QueryCtx::new(cancel.clone(), cfg.deadline_ms);
        let _qspan = if hef_obs::trace::enabled() {
            let pages = match fact {
                Fact::Mem(_) => 0,
                Fact::Paged(t, _) => t.page_count(),
            };
            hef_obs::trace::span_begin_labeled(
                "query",
                &format!("{} [{}]", plan.name, cfg.flavor.name()),
                &[
                    ("rows", fact.rows() as i64),
                    ("threads", threads as i64),
                    ("pages", pages as i64),
                ],
            )
        } else {
            hef_obs::trace::SpanGuard::disabled()
        };
        hef_obs::metrics::add(hef_obs::metrics::Metric::QueriesExecuted, 1);
        let mut result = match fact {
            Fact::Mem(t) => crate::star::run_table(plan, t, &cfg, threads, &ctx, &self.faults),
            Fact::Paged(t, cache) => {
                crate::paged::run_paged(plan, t, cache, &cfg, threads, &ctx, &self.faults)
            }
        };
        // Stamp the admission-time degradations into whichever report the
        // outcome carries, so callers always see the full attribution.
        let actions = admission.take_actions();
        match &mut result {
            Ok((_, report))
            | Err(ExecError::Cancelled { report, .. })
            | Err(ExecError::DeadlineExceeded { report, .. }) => report.degrade_actions = actions,
            Err(_) => {}
        }
        if result.is_ok() {
            // How close did a deadlined query come to its budget? Slack
            // feeds capacity planning (a p1 near 0 means deadlines are
            // about to fire).
            if let Some(slack) = ctx.remaining_ms() {
                hef_obs::metrics::observe(hef_obs::metrics::Hist::DeadlineSlackMs, slack);
            }
            drain.armed = false;
        }
        hef_obs::metrics::maybe_dump();
        result
    }

    /// [`Engine::execute`] with capped exponential backoff on admission
    /// rejections: a rejected query sleeps the governor's `retry_after_ms`
    /// hint, doubling per attempt (capped at 100 ms), up to `max_retries`
    /// times. The backoff sleep honors `cancel`, so a caller can abandon a
    /// queued query at once. Every other outcome passes through on its
    /// first occurrence.
    pub fn execute_with_retry(
        &self,
        plan: &StarPlan,
        fact: Fact<'_>,
        cfg: &ExecConfig,
        cancel: &CancelToken,
        max_retries: u32,
    ) -> Result<(QueryOutput, ExecReport), ExecError> {
        let mut attempt = 0u32;
        // Total wall time spent in admission backoff; fed to the
        // `govern.admission_wait_us` histogram on whatever outcome ends the
        // loop, so queue pressure shows up as a percentile.
        let mut waited_us = 0u64;
        let observe_wait = |waited_us: u64| {
            if waited_us > 0 {
                hef_obs::metrics::observe(hef_obs::metrics::Hist::AdmissionWaitUs, waited_us);
            }
        };
        loop {
            match self.execute(plan, fact, cfg, cancel) {
                Err(ExecError::Rejected { retry_after_ms, .. }) if attempt < max_retries => {
                    let backoff = retry_after_ms
                        .max(1)
                        .saturating_mul(1u64 << attempt.min(6))
                        .min(MAX_BACKOFF_MS);
                    hef_obs::metrics::add(hef_obs::metrics::Metric::GovBackoffRetries, 1);
                    hef_obs::event!("govern_retry", attempt = attempt, backoff_ms = backoff);
                    let ctx = QueryCtx::new(cancel.clone(), 0);
                    let t0 = Instant::now();
                    let slept = sleep_checked(Duration::from_millis(backoff), &ctx);
                    waited_us += t0.elapsed().as_micros() as u64;
                    if let Err(i) = slept {
                        observe_wait(waited_us);
                        return Err(interrupt_error(&plan.name, &ctx, i, ExecReport::default()));
                    }
                    attempt += 1;
                }
                other => {
                    observe_wait(waited_us);
                    return other;
                }
            }
        }
    }
}
