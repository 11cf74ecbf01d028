//! `hefbench`: the SSB benchmark of the HEF engine, end to end and layer by
//! layer. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path hefbench/Cargo.toml -- \
//!     --workload ssb-mem-sf1-t2 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it holds the
//! provenance and sample counts. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones. See `README.md` beside this package.

mod env;
mod layers;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hef_ssb::QueryId;
use hef_testutil::Rng;

use crate::workload::{ms_since, sweep_order, SetupTimes, System};

/// Set-ups per run: at least `SETUP_REPS`, and more, up to
/// `SETUP_MAX_REPS`, until `SETUP_MIN_TIME` is spent; `setup_s` is their
/// median. Cheap set-ups repeat more, so their median is as steady.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 60;
const SETUP_MIN_TIME: Duration = Duration::from_secs(2);
/// Separates the query-order stream from the data-generation stream.
const ORDER_SALT: u64 = 0x0de5_5eed_0de5_5eed;

const USAGE: &str = "usage: hefbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: bad value `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a closed loop of requests produced.
#[derive(Default)]
struct LoopResult {
    /// `(query index, latency ms)` of every request answered correctly.
    samples: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    /// The first few failures, for the report.
    errors: Vec<String>,
}

impl LoopResult {
    fn record(&mut self, q: usize, outcome: Result<(f64, Vec<u64>), String>, refs: &[Vec<u64>]) {
        self.attempted += 1;
        let error = match outcome {
            // Bit for bit: every flavor and thread count must reproduce the
            // scalar serial reference exactly.
            Ok((ms, groups)) if groups == refs[q] => {
                self.samples.push((q, ms));
                return;
            }
            Ok(_) => format!("{}: wrong answer", QueryId::ALL[q].name()),
            Err(e) => format!("{}: {e}", QueryId::ALL[q].name()),
        };
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// Median latency of each query that has samples.
    fn per_query_medians(&self) -> Vec<f64> {
        (0..QueryId::ALL.len())
            .filter_map(|q| {
                let xs: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.0 == q)
                    .map(|s| s.1)
                    .collect();
                stats::median(&xs)
            })
            .collect()
    }

    /// Geometric mean of the per-query median latencies.
    fn query_geomean_ms(&self) -> f64 {
        stats::geomean(&self.per_query_medians()).unwrap_or(0.0)
    }
}

/// Closed loop with one client: sweeps of the 13 queries, each in a fresh
/// order drawn from `rng`, until `dur` has passed. `exec` serves one request
/// and returns its latency and answer; the answer is checked afterwards.
fn closed_loop(
    refs: &[Vec<u64>],
    dur: Duration,
    rng: &mut Rng,
    mut exec: impl FnMut(usize) -> Result<(f64, Vec<u64>), String>,
) -> LoopResult {
    let mut out = LoopResult::default();
    let start = Instant::now();
    'sweeps: loop {
        for q in sweep_order(rng) {
            if start.elapsed() >= dur {
                break 'sweeps;
            }
            let outcome = exec(q);
            out.record(q, outcome, refs);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Serve `q` untraced and time it as the client sees it.
fn timed_request(sys: &System, q: usize) -> Result<(f64, Vec<u64>), String> {
    let t = Instant::now();
    let r = sys.request(q)?;
    Ok((ms_since(t), r.groups))
}

/// Peak resident memory while `f` runs, sampled every 10 ms.
fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = env::rss_mib().unwrap_or(0.0);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                peak = peak.max(env::rss_mib().unwrap_or(0.0));
            }
            peak
        });
        let r = f();
        stop.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("rss sampler panicked");
        (r, peak.max(env::rss_mib().unwrap_or(0.0)))
    })
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// Everything a run reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// False when the run cannot vouch for its numbers (wrong answers, a
    /// degraded registry, non-deterministic counts).
    correct: bool,
    /// Extra JSON members for the provenance line.
    details: Vec<(&'static str, String)>,
}

/// The system kept after repeated set-ups, with every set-up's duration.
struct Ready {
    sys: System,
    times: SetupTimes,
    refs: Vec<Vec<u64>>,
    setup_s: Vec<f64>,
}

/// Set the system up at least `reps` times, and until `min_time` is spent,
/// and keep the last; the first also computes the reference answers.
fn setup_repeated(
    args: &Args,
    root: &Path,
    reps: usize,
    min_time: Duration,
) -> Result<Ready, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut refs = None;
    let mut last = None;
    while setup_s.len() < reps.max(1)
        || (setup_s.iter().sum::<f64>() < min_time.as_secs_f64() && setup_s.len() < SETUP_MAX_REPS)
    {
        // Free the previous system, and its page files, before the next.
        drop(last.take());
        env::release_free_memory();
        let first = setup_s.is_empty();
        let setup = workload::setup(args.workload, args.seed, root, first)?;
        setup_s.push(setup.times.total_s);
        refs = refs.or(setup.refs);
        last = Some((setup.sys, setup.times));
    }
    let (sys, times) = last.ok_or("no set-up ran")?;
    let refs = refs.ok_or("no reference answers")?;
    Ok(Ready {
        sys,
        times,
        refs,
        setup_s,
    })
}

/// The untimed warm-up: one sweep, answers checked.
fn warm_up(sys: &System, refs: &[Vec<u64>], rng: &mut Rng) -> LoopResult {
    let mut warm = LoopResult::default();
    for q in sweep_order(rng) {
        warm.record(q, timed_request(sys, q), refs);
    }
    warm
}

/// Whether the registry loaded without falling back anywhere.
fn registry_clean(sys: &System) -> bool {
    sys.registry_report.is_clean() && sys.registry_report.fallbacks() == 0
}

fn end_to_end(args: &Args, root: &Path) -> Result<Report, String> {
    let Ready {
        sys, refs, setup_s, ..
    } = setup_repeated(args, root, SETUP_REPS, SETUP_MIN_TIME)?;
    let mut rng = Rng::seed_from_u64(args.seed ^ ORDER_SALT);
    let warm = warm_up(&sys, &refs, &mut rng);
    env::release_free_memory();
    let dur = Duration::from_secs_f64(args.seconds);
    let (run, peak_rss) =
        with_peak_rss(|| closed_loop(&refs, dur, &mut rng, |q| timed_request(&sys, q)));

    let lat: Vec<f64> = run.samples.iter().map(|s| s.1).collect();
    let (p95, beyond_p95) = stats::percentile(&lat, 95.0).unwrap_or((0.0, 0));
    let metrics: Vec<Metric> = vec![
        (
            "latency_p50_ms".into(),
            stats::median(&lat).unwrap_or(0.0),
            "ms",
        ),
        ("latency_p95_ms".into(), p95, "ms"),
        ("query_geomean_ms".into(), run.query_geomean_ms(), "ms"),
        (
            "throughput_qps".into(),
            stats::ratio(lat.len() as f64, run.wall_s),
            "1/s",
        ),
        (
            "success_frac".into(),
            stats::ratio((run.attempted - run.failed) as f64, run.attempted as f64),
            "1",
        ),
        (
            "setup_s".into(),
            stats::median(&setup_s).unwrap_or(0.0),
            "s",
        ),
        ("peak_rss_mib".into(), peak_rss, "MiB"),
    ];
    let per_query: Vec<String> = (0..QueryId::ALL.len())
        .map(|q| run.samples.iter().filter(|s| s.0 == q).count().to_string())
        .collect();
    let join = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let details = vec![
        (
            "samples",
            format!(
                "{{\"latency\":{},\"beyond_p95\":{beyond_p95},\"per_query\":[{}],\"setup_s\":[{}]}}",
                lat.len(),
                per_query.join(","),
                join(&setup_s)
            ),
        ),
        ("query_median_ms", format!("[{}]", join(&run.per_query_medians()))),
        ("errors", json_list(warm.errors.iter().chain(&run.errors))),
    ];
    Ok(Report {
        metrics,
        attempted: run.attempted,
        failed: run.failed,
        correct: warm.failed == 0 && run.failed == 0 && registry_clean(&sys),
        details,
    })
}

/// A JSON list of strings.
fn json_list<'a>(items: impl IntoIterator<Item = &'a String>) -> String {
    let items: Vec<String> = items.into_iter().map(|s| env::json_str(s)).collect();
    format!("[{}]", items.join(","))
}

/// A finite number as JSON (non-finite values cannot be printed).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hefbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set =
        env::forbidden_vars_set(|v| std::env::var_os(v).map(|s| s.to_string_lossy().into_owned()));
    if !set.is_empty() {
        eprintln!(
            "hefbench: refusing to start: {} set; the engine reads these on every query, \
             so the benchmark would measure a different configuration",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let root = Path::new(".");
    let registry = root.join(workload::REGISTRY_PATH);
    if !registry.is_file() {
        eprintln!(
            "hefbench: {} not found; run from the repository root",
            registry.display()
        );
        return ExitCode::from(2);
    }
    let result = if args.trace {
        layers::traced(&args, root)
    } else {
        end_to_end(&args, root)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hefbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut prov: Vec<String> = env::provenance(root, &registry, args.seed)
        .into_iter()
        .chain([("workload", env::json_str(args.workload.name))])
        .chain(report.details)
        .map(|(k, v)| format!("{}:{v}", env::json_str(k)))
        .collect();
    prov.insert(0, format!("\"trace\":{}", args.trace));
    println!("{{\"provenance\":{{{}}}}}", prov.join(","));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                env::json_str(name),
                json_num(*v),
                env::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Storage, Workload};

    static ADHOC: Workload = Workload {
        name: "test-adhoc",
        sf: 0.01,
        threads: 1,
        adhoc: true,
        storage: Storage::Memory,
    };
    static PAGED: Workload = Workload {
        name: "test-paged",
        sf: 0.01,
        threads: 2,
        adhoc: false,
        storage: Storage::Paged,
    };

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn small(w: &'static Workload, seed: u64) -> (System, Vec<Vec<u64>>) {
        let setup = workload::setup(w, seed, &repo_root(), true).expect("set-up");
        (setup.sys, setup.refs.expect("reference answers"))
    }

    #[test]
    fn answer_check_flags_a_mutated_result() {
        let (sys, refs) = small(&ADHOC, 5);
        assert!(
            registry_clean(&sys),
            "the committed registry must load without fallbacks"
        );
        let mut run = LoopResult::default();
        run.record(0, timed_request(&sys, 0), &refs);
        let (ms, mut groups) = timed_request(&sys, 1).expect("request");
        let cell = groups
            .iter()
            .position(|&g| g != 0)
            .expect("a non-empty group");
        groups[cell] ^= 1;
        run.record(1, Ok((ms, groups)), &refs);
        run.record(2, Err("typed error".into()), &refs);
        assert_eq!((run.attempted, run.failed, run.samples.len()), (3, 2, 1));
        assert!(run.errors[0].contains("wrong answer"), "{:?}", run.errors);
    }

    #[test]
    fn another_seed_changes_the_order_not_the_answers() {
        let (mut a, mut b) = (
            Rng::seed_from_u64(1 ^ ORDER_SALT),
            Rng::seed_from_u64(2 ^ ORDER_SALT),
        );
        assert_ne!(sweep_order(&mut a.clone()), sweep_order(&mut b.clone()));
        for w in [&ADHOC, &PAGED] {
            let (sys, refs) = small(w, 5);
            for rng in [&mut a, &mut b] {
                let sweep = warm_up(&sys, &refs, rng);
                assert_eq!(
                    (sweep.attempted, sweep.failed),
                    (13, 0),
                    "{}: {:?}",
                    w.name,
                    sweep.errors
                );
            }
        }
        // A different data seed is checked against its own references.
        let (sys, refs) = small(&PAGED, 6);
        assert_eq!(warm_up(&sys, &refs, &mut a).failed, 0);
    }
}
