//! Regression golden for the SSB generator: cardinalities and a sample of
//! column domains, pinned bit-for-bit.
//!
//! Provenance — this file has absorbed **two** intentional, documented
//! stream changes:
//!
//! 1. `rand`'s `SmallRng` → the in-tree xoshiro256** PRNG. The dependency
//!    could not even be *resolved* offline (no lockfile, no registry), so
//!    the pre-migration stream was unobservable in this environment.
//! 2. One sequential RNG threaded through all tables → **per-table seed
//!    streams** (SplitMix64 over the master seed, fixed draw order), so
//!    tables generate in parallel with bit-identical output. The serial
//!    path (`generate_serial`) shares the streams; the equivalence test
//!    below proves parallel ≡ serial byte-for-byte.
//!
//! The values below were captured from the first post-split run and
//! re-pinned; they guard every future change (new PRNG, reordered draws,
//! changed rejection sampling) from silently shifting the benchmark
//! workload.
//!
//! Cardinalities are pure functions of the scale factor and are unchanged
//! from the pre-migration generator.

use hef_ssb::gen::cardinalities;
use hef_ssb::{generate, generate_serial};
use hef_storage::Column;

fn wrapping_sum(c: &Column) -> u64 {
    c.iter().fold(0u64, |a, x| a.wrapping_add(x))
}

fn head6(c: &Column) -> Vec<u64> {
    c.iter().take(6).collect()
}

#[test]
fn sf_scaled_cardinalities_are_unchanged() {
    // These do not depend on the RNG at all — identical pre/post migration.
    assert_eq!(cardinalities(1.0), (6_000_000, 30_000, 2_000, 200_000));
    assert_eq!(cardinalities(2.0).0, 12_000_000);
    assert_eq!(cardinalities(0.001), (6_000, 500, 100, 500));
    assert_eq!(cardinalities(0.01), (60_000, 500, 100, 2_000));
}

#[test]
fn ssb_stream_is_pinned() {
    let d = generate(0.001, 42);
    assert_eq!(
        (d.lineorder.len(), d.customer.len(), d.supplier.len(), d.part.len(), d.date.len()),
        (6_000, 500, 100, 500, 2_557)
    );

    // Head values of the RNG-driven columns.
    assert_eq!(head6(d.lineorder.col("lo_custkey")), [435, 234, 82, 239, 259, 423]);
    assert_eq!(
        head6(d.lineorder.col("lo_orderdate")),
        [19_981_202, 19_940_325, 19_930_227, 19_950_505, 19_980_108, 19_940_430]
    );
    assert_eq!(head6(d.lineorder.col("lo_quantity")), [38, 47, 10, 41, 26, 47]);
    assert_eq!(
        head6(d.lineorder.col("lo_revenue")),
        [93_558, 90_344, 91_278, 87_688, 93_184, 99_666]
    );
    assert_eq!(head6(d.customer.col("c_city")), [25, 92, 191, 130, 155, 239]);
    assert_eq!(head6(d.customer.col("c_nation")), [2, 9, 19, 13, 15, 23]);
    assert_eq!(head6(d.customer.col("c_region")), [0, 1, 3, 2, 3, 4]);
    assert_eq!(head6(d.part.col("p_brand1")), [660, 171, 10, 76, 723, 963]);
    assert_eq!(head6(d.part.col("p_category")), [16, 4, 0, 1, 18, 24]);

    // Whole-column checksums: any draw anywhere in the stream moving
    // trips one of these.
    assert_eq!(wrapping_sum(d.lineorder.col("lo_custkey")), 0x0016_D1DD);
    assert_eq!(wrapping_sum(d.lineorder.col("lo_orderdate")), 0x1B_DEDC_41D2);
    assert_eq!(wrapping_sum(d.lineorder.col("lo_quantity")), 0x0002_56E4);
    assert_eq!(wrapping_sum(d.lineorder.col("lo_revenue")), 0x211D_E58E);
    assert_eq!(wrapping_sum(d.customer.col("c_city")), 0xFB45);
    assert_eq!(wrapping_sum(d.customer.col("c_nation")), 0x1843);
    assert_eq!(wrapping_sum(d.customer.col("c_region")), 0x0417);
    assert_eq!(wrapping_sum(d.part.col("p_brand1")), 0x0003_BDB9);
    assert_eq!(wrapping_sum(d.part.col("p_category")), 0x16F9);
}

#[test]
fn parallel_generation_matches_serial_byte_for_byte() {
    // SF 0.1 is big enough (600k lineorder rows) that a scheduling or
    // seed-derivation bug in the threaded path would scramble something.
    let par = generate(0.1, 42);
    let ser = generate_serial(0.1, 42);
    for (p, s) in [
        (&par.lineorder, &ser.lineorder),
        (&par.customer, &ser.customer),
        (&par.supplier, &ser.supplier),
        (&par.part, &ser.part),
        (&par.date, &ser.date),
    ] {
        assert_eq!(p.len(), s.len(), "{}", p.name());
        for c in p.columns() {
            assert_eq!(c, s.col(c.name()), "{}.{}", p.name(), c.name());
        }
    }
}
