//! Analytic cache model.
//!
//! The paper's scale-dependent observations (§V.B: "the different size hash
//! tables are stored in different levels of cache") come down to two access
//! patterns: sequential streams over the fact-table columns and uniform
//! random probes into join hash tables. For both, the expected miss counts
//! per level follow directly from the working-set size versus the cache
//! sizes, which is what this model computes. It is the substitution for the
//! `LLC-misses` counter rows of Tables III–V.

use crate::model::CpuModel;

/// A memory access pattern of one operator phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential pass over `bytes` bytes (each 64-byte line touched once).
    Stream { bytes: u64 },
    /// `count` independent accesses uniformly distributed over a resident
    /// working set of `working_set` bytes (e.g. hash-table probes).
    RandomProbe { count: u64, working_set: u64 },
}

/// Expected misses per cache level ("misses" at LLC = lines fetched from
/// memory).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MissCounts {
    pub l1: u64,
    pub l2: u64,
    pub llc: u64,
}

impl MissCounts {
    /// Accumulate another phase's misses.
    pub fn add(&mut self, other: MissCounts) {
        self.l1 += other.l1;
        self.l2 += other.l2;
        self.llc += other.llc;
    }
}

/// The cache model bound to a CPU.
#[derive(Debug, Clone, Copy)]
pub struct CacheSim<'a> {
    model: &'a CpuModel,
}

impl<'a> CacheSim<'a> {
    pub fn new(model: &'a CpuModel) -> Self {
        CacheSim { model }
    }

    /// Expected misses for one pattern.
    pub fn misses(&self, pattern: AccessPattern) -> MissCounts {
        const LINE: u64 = 64;
        match pattern {
            AccessPattern::Stream { bytes } => {
                let lines = bytes.div_ceil(LINE);
                // A streaming pass misses every line at every level once the
                // stream exceeds that level (no temporal reuse).
                MissCounts {
                    l1: if bytes > self.model.l1d.bytes as u64 { lines } else { 0 },
                    l2: if bytes > self.model.l2.bytes as u64 { lines } else { 0 },
                    llc: if bytes > self.model.llc.bytes as u64 { lines } else { 0 },
                }
            }
            AccessPattern::RandomProbe { count, working_set } => {
                let miss_ratio = |cap: usize| -> f64 {
                    if working_set == 0 {
                        return 0.0;
                    }
                    (1.0 - cap as f64 / working_set as f64).max(0.0)
                };
                MissCounts {
                    l1: (count as f64 * miss_ratio(self.model.l1d.bytes)) as u64,
                    l2: (count as f64 * miss_ratio(self.model.l2.bytes)) as u64,
                    llc: (count as f64 * miss_ratio(self.model.llc.bytes)) as u64,
                }
            }
        }
    }

    /// Expected misses over a sequence of phases.
    pub fn misses_all(&self, patterns: &[AccessPattern]) -> MissCounts {
        let mut total = MissCounts::default();
        for &p in patterns {
            total.add(self.misses(p));
        }
        total
    }

    /// Expected extra stall cycles caused by `m`, with `mlp` overlapping
    /// misses in flight (memory-level parallelism ≥ 1; out-of-order cores
    /// and prefetchers hide a large share of miss latency).
    pub fn stall_cycles(&self, m: &MissCounts, mlp: f64) -> u64 {
        assert!(mlp >= 1.0);
        let l2_pen = (self.model.l2.latency - self.model.l1d.latency) as f64;
        let llc_pen = (self.model.llc.latency - self.model.l2.latency) as f64;
        let mem_pen = (self.model.mem_latency - self.model.llc.latency) as f64;
        let raw = m.l1 as f64 * l2_pen + m.l2 as f64 * llc_pen + m.llc as f64 * mem_pen;
        (raw / mlp) as u64
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CpuModel;

    #[test]
    fn small_stream_stays_in_l1() {
        let m = CpuModel::silver_4110();
        let c = CacheSim::new(&m);
        let r = c.misses(AccessPattern::Stream { bytes: 16 << 10 });
        assert_eq!(r, MissCounts::default());
    }

    #[test]
    fn big_stream_misses_all_levels() {
        let m = CpuModel::silver_4110();
        let c = CacheSim::new(&m);
        let bytes = 100 << 20;
        let r = c.misses(AccessPattern::Stream { bytes });
        assert_eq!(r.l1, bytes / 64);
        assert_eq!(r.llc, bytes / 64);
    }

    #[test]
    fn probe_misses_scale_with_working_set() {
        let m = CpuModel::silver_4110();
        let c = CacheSim::new(&m);
        let small = c.misses(AccessPattern::RandomProbe {
            count: 1_000_000,
            working_set: 16 << 10, // fits in L1
        });
        assert_eq!(small, MissCounts::default());

        let l2_sized = c.misses(AccessPattern::RandomProbe {
            count: 1_000_000,
            working_set: 512 << 10, // exceeds L1, fits L2
        });
        assert!(l2_sized.l1 > 0 && l2_sized.l2 == 0 && l2_sized.llc == 0);

        let huge = c.misses(AccessPattern::RandomProbe {
            count: 1_000_000,
            working_set: 1 << 30,
        });
        assert!(huge.llc > huge.l2 / 2, "memory-resident probes mostly miss LLC");
        // Monotone across levels: l1 misses >= l2 misses >= llc misses.
        assert!(huge.l1 >= huge.l2 && huge.l2 >= huge.llc);
    }

    #[test]
    fn stall_cycles_shrink_with_mlp() {
        let m = CpuModel::silver_4110();
        let c = CacheSim::new(&m);
        let misses = MissCounts { l1: 1000, l2: 500, llc: 100 };
        let serial = c.stall_cycles(&misses, 1.0);
        let overlapped = c.stall_cycles(&misses, 8.0);
        assert!(overlapped * 7 < serial, "{overlapped} vs {serial}");
    }
}
