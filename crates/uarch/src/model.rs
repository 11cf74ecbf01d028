//! CPU models: issue ports, pipeline capabilities, caches, and license
//! frequencies for the processors the paper evaluates on.

use crate::isa::UopClass;

/// One issue port and the µop classes it accepts.
///
/// A 512-bit µop on Skylake-SP may *fuse* two ports (port 0 + port 1 act as
/// one 512-bit lane); this is modeled with [`Port::fused_with`]: issuing a
/// vector µop to a port with `fused_with = Some(j)` also occupies port `j`
/// for the same duration — which is precisely why purely-SIMD code starves
/// the scalar pipelines and hybrid execution wins.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Human-readable name ("p0", "p1", …).
    pub name: String,
    /// Classes this port can start.
    pub accepts: Vec<UopClass>,
    /// For 512-bit classes: the partner port consumed simultaneously.
    pub fused_with: Option<usize>,
}

impl Port {
    fn new(name: impl Into<String>, accepts: &[UopClass]) -> Self {
        Port { name: name.into(), accepts: accepts.to_vec(), fused_with: None }
    }

    /// Whether this port can start a µop of `class`.
    pub fn accepts(&self, class: UopClass) -> bool {
        self.accepts.contains(&class)
    }
}

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevel {
    /// Capacity in bytes.
    pub bytes: usize,
    /// Load-to-use latency in cycles.
    pub latency: u32,
}

/// A processor core model: everything the paper's candidate generator and
/// our simulator reason about.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Marketing name.
    pub name: String,
    /// Issue (dispatch) width: µops entering the scheduler per cycle.
    pub issue_width: u32,
    /// Front-end decode width: instructions decoded per cycle. The
    /// effective dispatch rate is `min(issue_width, decode_width)` — the
    /// front-end bound the paper's candidate generator deliberately ignores
    /// (§IV.A) but the simulator honours.
    pub decode_width: u32,
    /// Scheduler (reservation-station) entries.
    pub scheduler_size: usize,
    /// Architectural general-purpose registers visible to the compiler.
    pub scalar_regs: usize,
    /// Architectural vector registers (zmm0–zmm31).
    pub vector_regs: usize,
    /// Issue ports.
    pub ports: Vec<Port>,
    /// L1D, L2, LLC (per-core LLC slice share for the cache model).
    pub l1d: CacheLevel,
    pub l2: CacheLevel,
    pub llc: CacheLevel,
    /// Memory latency in cycles.
    pub mem_latency: u32,
    /// Sustainable memory bandwidth per core, bytes/cycle (used by the
    /// analytic stall model for streaming phases).
    pub mem_bw_bytes_per_cycle: f64,
    /// Maximum memory-level parallelism per core: outstanding demand misses
    /// bounded by the line-fill buffers (10 on Skylake-SP, 12 on
    /// Cascade-Lake-SP).
    pub mem_parallelism: f64,
    /// Core frequency (GHz) per AVX license level: `[L0, L1, L2]`.
    pub freq_ghz: [f64; 3],
}

impl CpuModel {
    /// Number of ports that can start scalar ALU µops.
    pub fn scalar_alu_pipes(&self) -> usize {
        self.ports.iter().filter(|p| p.accepts(UopClass::SAlu)).count()
    }

    /// Number of *independent* 512-bit ALU lanes (fused pairs count once:
    /// each fused partner is listed via `fused_with` on the primary only).
    pub fn simd_pipes(&self) -> usize {
        self.ports.iter().filter(|p| p.accepts(UopClass::VAlu)).count()
    }

    /// Pipelines shared between scalar and SIMD µops — the ports hosting a
    /// 512-bit ALU that also accept scalar ALU µops. The paper counts the
    /// Silver 4110 as having one such shared pipeline ("one of the scalar
    /// pipelines shares the issue port with the AVX-512"), and its candidate
    /// generator treats shared pipelines as SIMD-exclusive.
    pub fn shared_pipes(&self) -> usize {
        self.ports
            .iter()
            .filter(|p| p.accepts(UopClass::VAlu) && p.accepts(UopClass::SAlu))
            .count()
    }

    /// Intel Xeon Silver 4110 (Skylake-SP, **one** fused AVX-512 unit).
    ///
    /// Port layout at the abstraction level the paper reasons at ("one
    /// fused AVX-512 pipeline and four scalar pipelines, in which one of
    /// the scalar pipelines shares the issue port with the AVX-512"):
    /// p0 hosts the single 512-bit unit and doubles as a scalar ALU; p1
    /// carries the scalar multiplier; p5/p6 are scalar-only (p6 takes
    /// branches); p2/p3 load, p4 store. The multi-µop cost of `vpmullq` is
    /// captured by its `port_busy = 3` in the ISA table rather than by
    /// port fusion.
    pub fn silver_4110() -> CpuModel {
        use UopClass::*;
        let p0 = Port::new("p0", &[SAlu, VAlu, VShift, VMul, VMask]);
        let p1 = Port::new("p1", &[SAlu, SMul]);
        let p5 = Port::new("p5", &[SAlu]);
        let p6 = Port::new("p6", &[SAlu, Branch]);
        let p2 = Port::new("p2", &[SLoad, VLoad, VGather]);
        let p3 = Port::new("p3", &[SLoad, VLoad, VGather]);
        let p4 = Port::new("p4", &[SStore, VStore]);
        CpuModel {
            name: "Intel Xeon Silver 4110".into(),
            issue_width: 4,
            decode_width: 5,
            scheduler_size: 97,
            scalar_regs: 32,
            vector_regs: 32,
            ports: vec![p0, p1, p5, p6, p2, p3, p4],
            l1d: CacheLevel { bytes: 32 << 10, latency: 4 },
            l2: CacheLevel { bytes: 1 << 20, latency: 14 },
            llc: CacheLevel { bytes: 11 << 20, latency: 50 },
            mem_latency: 200,
            mem_bw_bytes_per_cycle: 6.0,
            mem_parallelism: 10.0,
            freq_ghz: [3.0, 2.8, 2.2],
        }
    }

    /// Intel Xeon Gold 6240R (Cascade-Lake-SP, **two** AVX-512 units).
    ///
    /// Same port layout, but p5 carries a second full 512-bit ALU.
    pub fn gold_6240r() -> CpuModel {
        use UopClass::*;
        let mut m = CpuModel::silver_4110();
        m.name = "Intel Xeon Gold 6240R".into();
        // p5 gains the second 512-bit lane (not fused with anything).
        m.ports[2] = Port::new("p5", &[SAlu, VAlu, VShift, VMul, VMask]);
        m.llc = CacheLevel { bytes: 35 << 20, latency: 55 };
        m.freq_ghz = [3.2, 3.05, 2.6];
        m.mem_bw_bytes_per_cycle = 7.0;
        m.mem_parallelism = 12.0;
        m
    }

    /// A generic model shaped like the host this reproduction runs on
    /// (a cloud Xeon with two 512-bit units); used when simulating "this
    /// machine" rather than the paper's testbeds.
    pub fn host() -> CpuModel {
        let mut m = CpuModel::gold_6240r();
        m.name = "host (generic 2x AVX-512 Xeon)".into();
        m.freq_ghz = [2.1, 2.1, 2.1]; // cloud parts pin the clock
        m
    }

    /// Every preset, for harness sweeps.
    pub fn presets() -> Vec<CpuModel> {
        vec![CpuModel::silver_4110(), CpuModel::gold_6240r(), CpuModel::host()]
    }

    /// Serialize to the model text format — the same comment-and-`=`-line
    /// idiom as `hef-core::registry` (this replaced the serde derives):
    ///
    /// ```text
    /// # hef cpu-model v1
    /// name = Intel Xeon Silver 4110
    /// issue_width = 4
    /// port p0 = SAlu VAlu VShift VMul VMask
    /// port p0 fused p1        # only for fused 512-bit pairs
    /// l1d = 32768 4
    /// freq_ghz = 3 2.8 2.2
    /// ```
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# hef cpu-model v1\n");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "issue_width = {}", self.issue_width);
        let _ = writeln!(out, "decode_width = {}", self.decode_width);
        let _ = writeln!(out, "scheduler_size = {}", self.scheduler_size);
        let _ = writeln!(out, "scalar_regs = {}", self.scalar_regs);
        let _ = writeln!(out, "vector_regs = {}", self.vector_regs);
        for p in &self.ports {
            let classes: Vec<&str> = p.accepts.iter().map(|c| c.name()).collect();
            let _ = writeln!(out, "port {} = {}", p.name, classes.join(" "));
        }
        for p in &self.ports {
            if let Some(j) = p.fused_with {
                let _ = writeln!(out, "port {} fused {}", p.name, self.ports[j].name);
            }
        }
        for (label, c) in [("l1d", self.l1d), ("l2", self.l2), ("llc", self.llc)] {
            let _ = writeln!(out, "{label} = {} {}", c.bytes, c.latency);
        }
        let _ = writeln!(out, "mem_latency = {}", self.mem_latency);
        let _ = writeln!(out, "mem_bw_bytes_per_cycle = {}", self.mem_bw_bytes_per_cycle);
        let _ = writeln!(out, "mem_parallelism = {}", self.mem_parallelism);
        let _ = writeln!(
            out,
            "freq_ghz = {} {} {}",
            self.freq_ghz[0], self.freq_ghz[1], self.freq_ghz[2]
        );
        out
    }

    /// Parse the model text format. Every field of the format must appear;
    /// comments and blank lines are ignored.
    pub fn parse(text: &str) -> Result<CpuModel, String> {
        let mut m = CpuModel {
            name: String::new(),
            issue_width: 0,
            decode_width: 0,
            scheduler_size: 0,
            scalar_regs: 0,
            vector_regs: 0,
            ports: Vec::new(),
            l1d: CacheLevel { bytes: 0, latency: 0 },
            l2: CacheLevel { bytes: 0, latency: 0 },
            llc: CacheLevel { bytes: 0, latency: 0 },
            mem_latency: 0,
            mem_bw_bytes_per_cycle: 0.0,
            // Default for model files written before the field existed
            // (Skylake-SP line-fill buffers); overwritten when present.
            mem_parallelism: 10.0,
            freq_ghz: [0.0; 3],
        };
        let mut seen_name = false;
        for (ln, raw) in text.lines().enumerate() {
            let err = |msg: String| format!("line {}: {msg}", ln + 1);
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // `port <name> fused <partner>` is the only `=`-less line.
            if let Some(rest) = line.strip_prefix("port ") {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                if toks.len() == 3 && toks[1] == "fused" {
                    let i = m
                        .ports
                        .iter()
                        .position(|p| p.name == toks[0])
                        .ok_or_else(|| err(format!("unknown port `{}`", toks[0])))?;
                    let j = m
                        .ports
                        .iter()
                        .position(|p| p.name == toks[2])
                        .ok_or_else(|| err(format!("unknown port `{}`", toks[2])))?;
                    m.ports[i].fused_with = Some(j);
                    continue;
                }
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected `key = value`".into()))?;
            let (key, value) = (key.trim(), value.trim());
            let uint = |v: &str| {
                v.parse::<u64>().map_err(|_| err(format!("bad number `{v}` for `{key}`")))
            };
            match key.split_whitespace().next().unwrap_or("") {
                "name" => {
                    m.name = value.to_string();
                    seen_name = true;
                }
                "issue_width" => m.issue_width = uint(value)? as u32,
                "decode_width" => m.decode_width = uint(value)? as u32,
                "scheduler_size" => m.scheduler_size = uint(value)? as usize,
                "scalar_regs" => m.scalar_regs = uint(value)? as usize,
                "vector_regs" => m.vector_regs = uint(value)? as usize,
                "port" => {
                    let pname = key
                        .split_whitespace()
                        .nth(1)
                        .ok_or_else(|| err("port line missing a name".into()))?;
                    let mut accepts = Vec::new();
                    for c in value.split_whitespace() {
                        accepts.push(
                            UopClass::parse(c)
                                .ok_or_else(|| err(format!("unknown µop class `{c}`")))?,
                        );
                    }
                    m.ports.push(Port { name: pname.to_string(), accepts, fused_with: None });
                }
                "l1d" | "l2" | "llc" => {
                    let nums: Vec<&str> = value.split_whitespace().collect();
                    let [bytes, latency] = nums[..] else {
                        return Err(err(format!("`{key}` wants `<bytes> <latency>`")));
                    };
                    let level =
                        CacheLevel { bytes: uint(bytes)? as usize, latency: uint(latency)? as u32 };
                    match key {
                        "l1d" => m.l1d = level,
                        "l2" => m.l2 = level,
                        _ => m.llc = level,
                    }
                }
                "mem_latency" => m.mem_latency = uint(value)? as u32,
                "mem_bw_bytes_per_cycle" => {
                    m.mem_bw_bytes_per_cycle = value
                        .parse()
                        .map_err(|_| err(format!("bad float `{value}`")))?;
                }
                "mem_parallelism" => {
                    m.mem_parallelism = value
                        .parse()
                        .map_err(|_| err(format!("bad float `{value}`")))?;
                }
                "freq_ghz" => {
                    let nums: Result<Vec<f64>, _> =
                        value.split_whitespace().map(str::parse).collect();
                    let nums = nums.map_err(|_| err(format!("bad freq list `{value}`")))?;
                    let [l0, l1, l2] = nums[..] else {
                        return Err(err("freq_ghz wants three license levels".into()));
                    };
                    m.freq_ghz = [l0, l1, l2];
                }
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        }
        if !seen_name || m.ports.is_empty() || m.issue_width == 0 {
            return Err("incomplete model: need at least name, ports, issue_width".into());
        }
        Ok(m)
    }

    /// Write the text format to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Read a model from a text-format file.
    pub fn load(path: &std::path::Path) -> std::io::Result<CpuModel> {
        let text = std::fs::read_to_string(path)?;
        CpuModel::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silver_has_one_simd_lane_and_four_scalar() {
        let m = CpuModel::silver_4110();
        assert_eq!(m.simd_pipes(), 1);
        assert_eq!(m.scalar_alu_pipes(), 4);
        // p0 hosts the 512-bit unit and is scalar-capable → 1 shared pipe,
        // matching the paper's description of the 4110.
        assert_eq!(m.shared_pipes(), 1);
    }

    #[test]
    fn gold_has_two_simd_lanes() {
        let m = CpuModel::gold_6240r();
        assert_eq!(m.simd_pipes(), 2);
        assert_eq!(m.scalar_alu_pipes(), 4);
    }

    #[test]
    fn caches_are_strictly_growing() {
        for m in CpuModel::presets() {
            assert!(m.l1d.bytes < m.l2.bytes && m.l2.bytes < m.llc.bytes, "{}", m.name);
            assert!(m.l1d.latency < m.l2.latency && m.l2.latency < m.llc.latency);
            assert!(m.llc.latency < m.mem_latency);
        }
    }

    #[test]
    fn license_frequencies_monotone() {
        for m in CpuModel::presets() {
            assert!(m.freq_ghz[0] >= m.freq_ghz[1] && m.freq_ghz[1] >= m.freq_ghz[2]);
        }
    }

    #[test]
    fn text_roundtrip_every_preset() {
        for m in CpuModel::presets() {
            let parsed = CpuModel::parse(&m.to_text()).unwrap_or_else(|e| {
                panic!("{}: {e}\n{}", m.name, m.to_text());
            });
            assert_eq!(parsed, m, "{}", m.name);
        }
    }

    #[test]
    fn text_roundtrip_with_fused_port() {
        let mut m = CpuModel::silver_4110();
        m.ports[0].fused_with = Some(1);
        let parsed = CpuModel::parse(&m.to_text()).unwrap();
        assert_eq!(parsed.ports[0].fused_with, Some(1));
        assert_eq!(parsed, m);
    }

    #[test]
    fn pre_mem_parallelism_model_files_still_load() {
        // Files written before the `mem_parallelism` key get the
        // Skylake-SP default instead of a parse error.
        let old: String = CpuModel::silver_4110()
            .to_text()
            .lines()
            .filter(|l| !l.starts_with("mem_parallelism"))
            .map(|l| format!("{l}\n"))
            .collect();
        let m = CpuModel::parse(&old).unwrap();
        assert_eq!(m.mem_parallelism, 10.0);
    }

    #[test]
    fn parse_errors_are_specific() {
        assert!(CpuModel::parse("").is_err(), "empty model must be rejected");
        assert!(CpuModel::parse("name = x\nbogus_key = 1").is_err());
        assert!(CpuModel::parse("name = x\nport p0 = NotAClass").is_err());
        assert!(CpuModel::parse("name = x\nissue_width = nope").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hef-cpu-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("silver.txt");
        let m = CpuModel::silver_4110();
        m.save(&path).unwrap();
        assert_eq!(CpuModel::load(&path).unwrap(), m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paper_register_counts() {
        // §IV.A: "Skylake has 32 general purpose scalar and vector registers"
        let m = CpuModel::silver_4110();
        assert_eq!(m.scalar_regs, 32);
        assert_eq!(m.vector_regs, 32);
    }
}
