//! Self-contained measurement harness: warmup, k-run median + MAD, and an
//! aligned text report.
//!
//! Replaces the Criterion benches: each file under `crates/bench/benches/`
//! is a plain `fn main()` (`harness = false`) that builds a [`Group`] per
//! table/figure and calls [`Group::bench`] per row. The same primitives
//! back `hef-core`'s measured-cost evaluator ([`time_best_of`]), so the
//! paper's *test-based* optimizer (Algorithm 2) and the reporting harness
//! share one clock discipline.

use std::time::{Duration, Instant};

/// Read the CPU's cycle counter, if this ISA exposes one we support.
///
/// On x86_64 this is `RDTSC` (the TSC is invariant on every µarch we
/// target, so deltas are proportional to wall time at the base clock; we
/// report them as *reference cycles*). Elsewhere it returns `None` and
/// callers fall back to the monotonic clock alone. Two reads bracket the
/// measured region; no serialization (`CPUID`/`RDTSCP` fencing) is applied
/// because the regions measured here are ≫ the ~20-cycle skid window.
#[inline]
pub fn read_cycles() -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no memory or register preconditions.
        Some(unsafe { core::arch::x86_64::_rdtsc() })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Robust summary of one benchmark's sample times.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Median time per iteration, seconds.
    pub median: f64,
    /// Median absolute deviation of the per-iteration times, seconds.
    pub mad: f64,
    /// Fastest sample, seconds.
    pub min: f64,
    /// Arithmetic mean, seconds.
    pub mean: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Median hardware cycles per iteration ([`read_cycles`]); `None` when
    /// the ISA has no counter we support.
    pub median_cycles: Option<f64>,
}

impl Stats {
    /// Median in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median * 1e3
    }

    /// Throughput in elements/second for a workload of `elems` elements.
    pub fn elems_per_sec(&self, elems: u64) -> f64 {
        elems as f64 / self.median
    }
}

/// Measurement configuration.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Minimum wall time spent warming up before sampling.
    pub warmup: Duration,
    /// Timed samples taken (median/MAD computed over these).
    pub samples: usize,
}

impl Default for Bench {
    fn default() -> Bench {
        Bench { warmup: Duration::from_millis(60), samples: 15 }
    }
}

impl Bench {
    /// Configuration with `samples` timed runs.
    pub fn with_samples(samples: usize) -> Bench {
        Bench { samples: samples.max(1), ..Bench::default() }
    }

    /// Measure `f`: warm up for at least [`Bench::warmup`] (one run
    /// minimum), then time `samples` runs and summarize.
    pub fn run(&self, mut f: impl FnMut()) -> Stats {
        let warm_start = Instant::now();
        loop {
            f();
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }
        let mut times = Vec::with_capacity(self.samples);
        let mut cycles = Vec::with_capacity(self.samples);
        for _ in 0..self.samples.max(1) {
            let c0 = read_cycles();
            let t = Instant::now();
            f();
            times.push(t.elapsed().as_secs_f64());
            if let (Some(a), Some(b)) = (c0, read_cycles()) {
                cycles.push(b.wrapping_sub(a) as f64);
            }
        }
        let mut stats = summarize(&mut times);
        if cycles.len() == times.len() {
            stats.median_cycles = Some(median(cycles));
        }
        stats
    }
}

/// Median of the finite values in `values`: the middle one, or the mean of
/// the two middle ones for an even count; 0.0 when there are none.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median/MAD/min/mean of a sample set (sorts in place).
pub fn summarize(times: &mut [f64]) -> Stats {
    assert!(!times.is_empty(), "no samples");
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let m = median(times.iter().copied());
    Stats {
        median: m,
        mad: median(times.iter().map(|t| (t - m).abs())),
        min: times[0],
        mean: times.iter().sum::<f64>() / times.len() as f64,
        samples: times.len(),
        median_cycles: None,
    }
}

/// Best-of-`trials` wall time of `f`, in seconds, with one untimed warmup
/// run. The minimum is the standard estimator for "how fast can this code
/// go" under scheduling noise; `hef-core::optimizer::MeasuredCost` and the
/// query-measurement path both use it.
pub fn time_best_of(trials: usize, f: impl FnMut()) -> f64 {
    time_best_of_cycles(trials, f).0
}

/// [`time_best_of`] that also reports the hardware-cycle count of the
/// fastest run ([`read_cycles`]; `None` off x86_64). Lets `MeasuredCost`
/// expose cycles alongside wall time without a second measurement pass.
pub fn time_best_of_cycles(trials: usize, mut f: impl FnMut()) -> (f64, Option<u64>) {
    f(); // warm-up: page faults, cache state, branch predictors
    let mut best = f64::INFINITY;
    let mut best_cycles = None;
    for _ in 0..trials.max(1) {
        let c0 = read_cycles();
        let t = Instant::now();
        f();
        let secs = t.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            best_cycles = c0.zip(read_cycles()).map(|(a, b)| b.wrapping_sub(a));
        }
    }
    (best, best_cycles)
}

/// A named set of benchmark rows sharing a workload size, rendered as an
/// aligned text table (the shape Criterion's reports served before).
#[derive(Debug)]
pub struct Group {
    name: String,
    /// Elements processed per iteration (enables the throughput column).
    throughput_elems: Option<u64>,
    config: Bench,
    rows: Vec<(String, Stats)>,
}

impl Group {
    pub fn new(name: impl Into<String>) -> Group {
        Group {
            name: name.into(),
            throughput_elems: None,
            config: Bench::default(),
            rows: Vec::new(),
        }
    }

    /// Report throughput as `elems` elements per iteration.
    pub fn throughput_elems(mut self, elems: u64) -> Group {
        self.throughput_elems = Some(elems);
        self
    }

    /// Override the per-row sample count.
    pub fn samples(mut self, samples: usize) -> Group {
        self.config.samples = samples.max(1);
        self
    }

    /// Measure one labelled row.
    pub fn bench(&mut self, label: impl Into<String>, f: impl FnMut()) -> Stats {
        let stats = self.config.run(f);
        self.rows.push((label.into(), stats));
        stats
    }

    /// Render the aligned report. A `Mcycles` column appears when any row
    /// carries hardware cycle counts (x86_64 RDTSC; see [`read_cycles`]).
    pub fn render(&self) -> String {
        let have_cycles = self.rows.iter().any(|(_, s)| s.median_cycles.is_some());
        let mut header = vec![
            self.name.clone(),
            "median".to_string(),
            "±MAD".to_string(),
            "min".to_string(),
        ];
        if self.throughput_elems.is_some() {
            header.push("Melem/s".to_string());
        }
        if have_cycles {
            header.push("Mcycles".to_string());
        }
        let mut table: Vec<Vec<String>> = vec![header];
        for (label, s) in &self.rows {
            let mut row = vec![
                label.clone(),
                format_secs(s.median),
                format_secs(s.mad),
                format_secs(s.min),
            ];
            if let Some(e) = self.throughput_elems {
                row.push(format!("{:.1}", s.elems_per_sec(e) / 1e6));
            }
            if have_cycles {
                row.push(match s.median_cycles {
                    Some(c) => format!("{:.2}", c / 1e6),
                    None => "-".to_string(),
                });
            }
            table.push(row);
        }
        render_aligned(&table)
    }

    /// Print the report (header + rows) to stdout.
    pub fn finish(&self) {
        println!("{}", self.render());
    }
}

/// `1.234 ms`-style human duration.
pub fn format_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

fn render_aligned(rows: &[Vec<String>]) -> String {
    let ncols = rows[0].len();
    let mut widths = vec![0usize; ncols];
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, r) in rows.iter().enumerate() {
        for (i, c) in r.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let pad = widths[i] - c.chars().count();
            if i == 0 {
                out.push_str(c);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push_str(&" ".repeat(pad));
                out.push_str(c);
            }
        }
        out.push('\n');
        if ri == 0 {
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        let mut t = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        let s = summarize(&mut t);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.mean, 3.0);
        // Deviations from 3: [2,1,0,1,2] → sorted [0,1,1,2,2] → MAD 1.
        assert_eq!(s.mad, 1.0);
        assert_eq!(s.samples, 5);
    }

    #[test]
    fn even_sample_count_takes_midpoint() {
        let mut t = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(summarize(&mut t).median, 2.5);
        // The free helper: unsorted input, non-finite values skipped, and
        // nothing to take the median of is 0.
        assert_eq!(median([4.0, f64::NAN, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median([f64::INFINITY, 7.0]), 7.0);
        assert_eq!(median([]), 0.0);
    }

    #[test]
    fn run_produces_positive_finite_times() {
        let b = Bench { warmup: Duration::from_millis(1), samples: 3 };
        let mut x = 0u64;
        let s = b.run(|| {
            for i in 0..1000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
        });
        assert!(s.median > 0.0 && s.median.is_finite());
        assert!(s.min <= s.median && s.median <= s.mean * 10.0);
        assert_eq!(s.samples, 3);
    }

    #[test]
    fn time_best_of_is_positive_and_le_single_runs() {
        let t = time_best_of(3, || {
            std::hint::black_box((0..500u64).sum::<u64>());
        });
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn group_renders_throughput_column() {
        let mut g = Group::new("demo").throughput_elems(1_000_000).samples(2);
        g.bench("row_a", || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        let r = g.render();
        assert!(r.contains("demo") && r.contains("Melem/s") && r.contains("row_a"), "{r}");
        assert_eq!(r.lines().count(), 3, "{r}");
    }

    #[test]
    fn cycles_follow_wall_time_where_supported() {
        // On x86_64 every sample gets a cycle reading, so run() must attach
        // a positive median; elsewhere the field stays None.
        let b = Bench { warmup: Duration::from_millis(1), samples: 3 };
        let s = b.run(|| {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        match read_cycles() {
            Some(_) => {
                let c = s.median_cycles.expect("cycles on x86_64");
                assert!(c > 0.0, "{c}");
            }
            None => assert!(s.median_cycles.is_none()),
        }
        let (secs, cyc) = time_best_of_cycles(2, || {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        assert!(secs > 0.0);
        assert_eq!(cyc.is_some(), read_cycles().is_some());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_secs(1.5), "1.500 s");
        assert_eq!(format_secs(0.0015), "1.500 ms");
        assert_eq!(format_secs(1.5e-6), "1.500 µs");
        assert_eq!(format_secs(5e-9), "5.0 ns");
    }
}
