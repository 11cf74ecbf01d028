//! Generates the kernel grid: for every (family, v, s, p) combination it
//! emits an AVX-512 `#[target_feature]` shim and an emulation shim plus the
//! per-family dispatch tables. Mirrors the role of HEF's translator, which
//! generates one concrete implementation per candidate node.
//!
//! The axes here must match `V_AXIS`/`S_AXIS`/`P_AXIS` in `src/lib.rs`; the
//! unit test `grid_covers_all_configs` guards against drift.

use std::env;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

const V_AXIS: &[usize] = &[0, 1, 2, 4, 8];
const S_AXIS: &[usize] = &[0, 1, 2, 3, 4];
const P_AXIS: &[usize] = &[1, 2, 3, 4];

/// (family variant, table ident, generic run path)
const FAMILIES: &[(&str, &str, &str)] = &[
    ("Murmur", "MURMUR_GRID", "crate::murmur::run"),
    ("Crc64", "CRC64_GRID", "crate::crc64::run"),
    ("Probe", "PROBE_GRID", "crate::probe::run"),
    ("Filter", "FILTER_GRID", "crate::filter::run"),
    ("AggSum", "AGG_SUM_GRID", "crate::agg::run_sum"),
    ("AggDot", "AGG_DOT_GRID", "crate::agg::run_dot"),
    ("Gather", "GATHER_GRID", "crate::gather::run"),
    ("Decode", "DECODE_GRID", "crate::decode::run"),
];

fn main() {
    let mut out = String::with_capacity(1 << 20);
    out.push_str("// @generated by build.rs — do not edit.\n\n");

    for (_, table, run) in FAMILIES {
        let fam = table.trim_end_matches("_GRID").to_lowercase();
        for &v in V_AXIS {
            for &s in S_AXIS {
                if v + s == 0 {
                    continue;
                }
                for &p in P_AXIS {
                    let a = format!("{fam}_a_{v}_{s}_{p}");
                    let a2 = format!("{fam}_b_{v}_{s}_{p}");
                    let e = format!("{fam}_e_{v}_{s}_{p}");
                    writeln!(
                        out,
                        "#[cfg(target_arch = \"x86_64\")]\n\
                         #[target_feature(enable = \"avx512f,avx512dq\")]\n\
                         unsafe fn {a}(io: &mut KernelIo<'_>) {{ {run}::<hef_hid::Avx512, {v}, {s}, {p}>(io) }}\n\
                         #[cfg(target_arch = \"x86_64\")]\n\
                         #[target_feature(enable = \"avx2\")]\n\
                         unsafe fn {a2}(io: &mut KernelIo<'_>) {{ {run}::<hef_hid::Avx2, {v}, {s}, {p}>(io) }}\n\
                         unsafe fn {e}(io: &mut KernelIo<'_>) {{ {run}::<hef_hid::Emu, {v}, {s}, {p}>(io) }}\n\
                         #[cfg(not(target_arch = \"x86_64\"))]\n\
                         use self::{e} as {a};\n\
                         #[cfg(not(target_arch = \"x86_64\"))]\n\
                         use self::{e} as {a2};"
                    )
                    .unwrap();
                }
            }
        }
        writeln!(out, "\npub(crate) static {table}: &[GridEntry] = &[").unwrap();
        for &v in V_AXIS {
            for &s in S_AXIS {
                if v + s == 0 {
                    continue;
                }
                for &p in P_AXIS {
                    writeln!(
                        out,
                        "    GridEntry {{ cfg: HybridConfig {{ v: {v}, s: {s}, p: {p} }}, \
                         emu: {fam}_e_{v}_{s}_{p}, avx2: {fam}_b_{v}_{s}_{p}, \
                         avx512: {fam}_a_{v}_{s}_{p} }},"
                    )
                    .unwrap();
                }
            }
        }
        out.push_str("];\n\n");
    }

    let dst = Path::new(&env::var("OUT_DIR").unwrap()).join("grid.rs");
    fs::write(dst, out).unwrap();
    println!("cargo:rerun-if-changed=build.rs");
}
