//! Direct-addressed join index for dense integer keys.
//!
//! When a build side's keys fill most of a range `lo..=hi` — every SSB
//! dimension key does: customer, supplier and part are `1..n`, dates span
//! about 61 k values — a payload array `pays[key − lo]` answers a probe with
//! one load, where a hash table pays a hash, two slot loads and a compare
//! (Crystal's SSB study probes these dimensions the same way). Absent keys
//! hold [`MISS`], and one trailing `MISS` slot catches every out-of-range
//! key: a probe clamps `key − lo` (wrapping, so keys below `lo` land high)
//! to the span, with no branch, and gathers.
//!
//! The stage loop probes a dense dimension with one fused pass,
//! [`body_probe`], which the [`Family::Gather`](crate::Family) grid
//! instantiates for [`KernelIo::DenseProbe`](crate::KernelIo): clamp,
//! gather, hit test, and in-place compaction of the selection and the
//! running group ids, so no per-dimension payload vector is materialized.

use hef_hid::{CmpOp, Simd64};

use crate::probe::MISS;

/// A payload array indexed by `key − lo`, with a trailing [`MISS`] slot.
#[derive(Debug, Clone)]
pub struct DenseIndex {
    lo: u64,
    /// `hi − lo + 2` slots: one per key of `lo..=hi`, then the miss slot.
    pays: Box<[u64]>,
    len: usize,
}

impl DenseIndex {
    /// Bytes of the payload array for keys spanning `lo..=hi`:
    /// `(hi − lo + 2) × 8`, or `None` when that overflows.
    fn bytes_for(lo: u64, hi: u64) -> Option<usize> {
        let slots = hi.checked_sub(lo)?.checked_add(2)?;
        usize::try_from(slots).ok()?.checked_mul(8)
    }

    /// Build the index over `key → payload` pairs when its array fits in
    /// `max_bytes`; `None` otherwise. A later pair for the same key replaces
    /// the earlier payload, as [`ProbeTable::insert`](crate::ProbeTable)
    /// does. No pairs give a one-slot index that misses every key.
    ///
    /// Panics on the key `u64::MAX` or the payload [`MISS`] (both reserved,
    /// as in the hash table).
    pub fn build(pairs: &[(u64, u64)], max_bytes: usize) -> Option<DenseIndex> {
        let lo = pairs.iter().map(|p| p.0).min().unwrap_or(0);
        let hi = pairs.iter().map(|p| p.0).max().unwrap_or(0);
        if pairs.iter().any(|p| p.0 == u64::MAX) {
            panic!("key u64::MAX is reserved");
        }
        let bytes = if pairs.is_empty() { 8 } else { Self::bytes_for(lo, hi)? };
        if bytes > max_bytes {
            return None;
        }
        let mut pays = vec![MISS; bytes / 8].into_boxed_slice();
        let mut len = 0usize;
        for &(key, val) in pairs {
            assert_ne!(val, MISS, "payload u64::MAX is reserved");
            let slot = &mut pays[(key - lo) as usize];
            len += (*slot == MISS) as usize;
            *slot = val;
        }
        Some(DenseIndex { lo, pays, len })
    }

    /// Index of the miss slot: the largest clamped index.
    #[inline(always)]
    fn span(&self) -> u64 {
        (self.pays.len() - 1) as u64
    }

    /// Slot of `key`: `key − lo` clamped to the miss slot.
    #[inline(always)]
    pub fn slot_of(&self, key: u64) -> usize {
        key.wrapping_sub(self.lo).min(self.span()) as usize
    }

    /// Payload for `key`, or [`MISS`].
    #[inline(always)]
    pub fn probe_scalar(&self, key: u64) -> u64 {
        self.pays[self.slot_of(key)]
    }

    /// The payload array [`DenseIndex::slot_of`] addresses.
    pub fn pays(&self) -> &[u64] {
        &self.pays
    }

    /// Software-prefetch the payload at `slot` (for prefetching engines
    /// such as the Voila comparator).
    #[inline(always)]
    pub fn prefetch(&self, slot: usize) {
        crate::prefetch::prefetch_index(&self.pays, slot);
    }

    /// Number of distinct keys with a payload.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no key has a payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of the payload array (the probe working set).
    pub fn working_set_bytes(&self) -> usize {
        self.pays.len() * 8
    }
}

/// Scalar reference for [`body_probe`]: keeps, in order, the rows `i`
/// whose key hits, with group id `gids[i] + payload · stride` (`gids`
/// empty: every incoming id is 0).
pub fn probe_ref(index: &DenseIndex, keys: &[u64], stride: u64, sel: &mut Vec<u64>, gids: &mut Vec<u64>) {
    assert_eq!(keys.len(), sel.len(), "dense probe: keys and sel differ in length");
    let incoming = std::mem::take(gids);
    for (i, (&k, r)) in keys.iter().zip(std::mem::take(sel)).enumerate() {
        let p = index.probe_scalar(k);
        if p != MISS {
            sel.push(r);
            gids.push(incoming.get(i).copied().unwrap_or(0).wrapping_add(p.wrapping_mul(stride)));
        }
    }
}

/// The fused dense join probe. For each row `i` of the batch it computes
/// `p = pays[min(keys[i] − lo, span)]`, writes `sel[w] = sel[i]` and
/// `gids[w] = gids[i] + p · stride`, and advances `w` by `p ≠ MISS` — one
/// pass instead of clamp, gather, compaction and a group-id loop.
///
/// `keys[i]` is row `sel[i]`'s key. `gids` is either empty (the first
/// dimension: every incoming id is 0, and `gids` is filled here) or holds
/// one id per row of `sel`. Both vectors are compacted in place to the hit
/// rows, in order; returns their new length.
///
/// The SIMD statements load 8 keys, subtract `lo` and clamp with `vpminuq`,
/// gather the payloads (`vpgatherqq`), mask-compare against [`MISS`], add
/// the scaled payloads to the incoming ids (`vpmullq`) and compress-store
/// `sel` and `gids` at the write cursor with full-width stores. The write
/// cursor never passes the read cursor and a store ends at most 8 lanes
/// past it, inside the vector just loaded, so the in-place compaction is
/// sound. The scalar statements do the same lookup and write every row,
/// advancing the cursor by the hit test (no branch).
///
/// # Safety
/// Backend ISA must be available.
#[inline(always)]
pub unsafe fn body_probe<B: Simd64, const V: usize, const S: usize, const P: usize>(
    index: &DenseIndex,
    keys: &[u64],
    stride: u64,
    sel: &mut Vec<u64>,
    gids: &mut Vec<u64>,
) -> usize {
    let n = sel.len();
    assert_eq!(keys.len(), n, "dense probe: keys and sel differ in length");
    let w = if gids.is_empty() {
        gids.reserve(n);
        // SAFETY: `sel` holds `n` rows and `gids` has room for `n` ids; the
        // pass writes only the first `w ≤ n` ids, which `set_len` covers.
        let w = probe_pass::<B, V, S, P, true>(index, keys, stride, sel.as_mut_ptr(), gids.as_mut_ptr(), n);
        gids.set_len(w);
        w
    } else {
        assert_eq!(gids.len(), n, "dense probe: gids and sel differ in length");
        // SAFETY: `sel` and `gids` both hold `n` entries.
        let w = probe_pass::<B, V, S, P, false>(index, keys, stride, sel.as_mut_ptr(), gids.as_mut_ptr(), n);
        gids.truncate(w);
        w
    };
    sel.truncate(w);
    w
}

/// [`body_probe`]'s loop over `n` rows; `FIRST` reads no incoming ids.
/// Returns the number of hit rows, compacted to the front of `selp` and
/// `gidp`.
///
/// # Safety
/// Backend ISA must be available; `keys` holds `n` keys; `selp` must be
/// valid for `n` reads and writes, and `gidp` for `n` writes (and `n`
/// reads unless `FIRST`).
#[inline(always)]
unsafe fn probe_pass<B: Simd64, const V: usize, const S: usize, const P: usize, const FIRST: bool>(
    index: &DenseIndex,
    keys: &[u64],
    stride: u64,
    selp: *mut u64,
    gidp: *mut u64,
    n: usize,
) -> usize {
    const L: usize = hef_hid::LANES;
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { n - n % step };
    let (lo, span) = (index.lo, index.span());
    let paysp = index.pays.as_ptr();
    let keyp = keys.as_ptr();
    let scalar = |k: u64, off: usize, w: usize| -> usize {
        let p = *paysp.add(k.wrapping_sub(lo).min(span) as usize);
        let g = p.wrapping_mul(stride);
        *gidp.add(w) = if FIRST { g } else { (*gidp.add(off)).wrapping_add(g) };
        *selp.add(w) = *selp.add(off);
        w + (p != MISS) as usize
    };

    let lo_v = B::splat(lo);
    let span_v = B::splat(span);
    let miss_v = B::splat(MISS);
    let stride_v = B::splat(stride);

    let mut w = 0usize;
    let mut i = 0usize;
    while i < main {
        for pi in 0..P {
            let pbase = i + pi * (V * L + S);
            for vi in 0..V {
                let off = pbase + vi * L;
                let slot = B::minu(B::sub(B::loadu(keyp.add(off)), lo_v), span_v);
                let p = B::gather(paysp, slot);
                let m = B::cmp(CmpOp::Ne, p, miss_v);
                let r = B::loadu(selp.add(off));
                let g = B::mullo(p, stride_v);
                let g = if FIRST { g } else { B::add(B::loadu(gidp.add(off)), g) };
                B::compress_storeu(selp.add(w), m, r);
                w += B::compress_storeu(gidp.add(w), m, g);
            }
            for si in 0..S {
                let off = pbase + V * L + si;
                w = scalar(hef_hid::opaque64(*keyp.add(off)), off, w);
            }
        }
        i += step;
    }
    for j in main..n {
        w = scalar(*keyp.add(j), j, w);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Family, KernelIo, ProbeTable};
    use hef_hid::{Backend, Emu};
    use hef_testutil::Rng;

    #[test]
    fn keys_outside_the_span_and_the_sentinel_miss() {
        let d = DenseIndex::build(&[(10, 1), (12, 3), (10, 2)], 1 << 20).unwrap();
        assert_eq!((d.len(), d.working_set_bytes()), (2, 4 * 8));
        let probe: Vec<u64> = [0, 9, 10, 11, 12, 13, u64::MAX].map(|k| d.probe_scalar(k)).to_vec();
        assert_eq!(probe, [MISS, MISS, 2, MISS, 3, MISS, MISS]);
        // The fused probe over the same keys keeps the two hits, scaled by
        // the stride, on top of the incoming group ids.
        let keys = [0, 9, 10, 12, 13, u64::MAX];
        let (mut sel, mut gids) = ((20..26).collect::<Vec<u64>>(), vec![1000; 6]);
        unsafe { body_probe::<Emu, 1, 1, 1>(&d, &keys, 10, &mut sel, &mut gids) };
        assert_eq!((sel, gids), (vec![22, 23], vec![1020, 1030]));
        let empty = DenseIndex::build(&[], 8).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.probe_scalar(0), MISS);
        assert_eq!(empty.probe_scalar(u64::MAX), MISS);
    }

    #[test]
    fn spans_over_the_cap_or_overflowing_are_refused() {
        assert_eq!(DenseIndex::bytes_for(5, 5), Some(16));
        assert_eq!(DenseIndex::bytes_for(0, u64::MAX - 1), None);
        assert_eq!(DenseIndex::bytes_for(1, u64::MAX / 4), None);
        assert!(DenseIndex::build(&[(0, 0), (99, 0)], 101 * 8).is_some());
        assert!(DenseIndex::build(&[(0, 0), (99, 0)], 101 * 8 - 1).is_none());
        assert!(DenseIndex::build(&[(0, 0), (u64::MAX - 1, 0)], usize::MAX).is_none());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_key_rejected() {
        DenseIndex::build(&[(u64::MAX, 1)], usize::MAX);
    }

    /// Over random build sets, the dense index and the hash table answer
    /// every probe alike: the edges of the span, the sentinel, and random
    /// keys in and around it.
    #[test]
    fn property_dense_index_probes_like_the_hash_table() {
        let gen = |rng: &mut Rng| {
            let n = rng.gen_range(0..600usize);
            let lo = rng.gen_range(0..3u64) * rng.gen_range(1..1u64 << 40);
            let width = rng.gen_range(1..5000u64);
            let pairs: Vec<(u64, u64)> =
                (0..n).map(|_| (lo + rng.gen_range(0..width), rng.gen_range(0..1000u64))).collect();
            (pairs, rng.next_u64())
        };
        hef_testutil::prop::check("dense index probes like the hash table", gen, |(pairs, seed)| {
            let dense = DenseIndex::build(pairs, usize::MAX).ok_or_else(|| "dense build refused".to_string())?;
            let mut hash = ProbeTable::with_capacity(pairs.len());
            for &(k, v) in pairs {
                hash.insert(k, v);
            }
            let lo = pairs.iter().map(|p| p.0).min().unwrap_or(0);
            let hi = pairs.iter().map(|p| p.0).max().unwrap_or(0);
            let mut rng = Rng::seed_from_u64(*seed);
            let mut keys = vec![0, lo.wrapping_sub(1), lo, hi, hi + 1, u64::MAX];
            keys.extend((0..200).map(|_| lo.saturating_sub(50) + rng.gen_range(0..hi - lo + 100)));
            keys.extend((0..20).map(|_| rng.next_u64()));
            if dense.len() != hash.len() {
                return Err(format!("len {} vs {}", dense.len(), hash.len()));
            }
            for &k in &keys {
                let (d, h) = (dense.probe_scalar(k), hash.probe_scalar(k));
                if d != h || dense.pays()[dense.slot_of(k)] != h {
                    return Err(format!("key {k}: dense {d}, hash {h}"));
                }
            }
            // The fused probe (first dimension, stride 1) keeps exactly the
            // hash table's hits, with their payloads as group ids.
            let (mut sel, mut gids) = ((0..keys.len() as u64).collect::<Vec<u64>>(), Vec::new());
            unsafe { body_probe::<Emu, 1, 1, 3>(&dense, &keys, 1, &mut sel, &mut gids) };
            let want: Vec<(u64, u64)> = (0..keys.len() as u64)
                .map(|i| (i, hash.probe_scalar(keys[i as usize])))
                .filter(|&(_, p)| p != MISS)
                .collect();
            let got: Vec<(u64, u64)> = sel.into_iter().zip(gids).collect();
            if got != want {
                return Err(format!("fused probe kept {got:?}, hash table {want:?}"));
            }
            Ok(())
        });
    }

    /// Keys of length `n` against an index over `lo..lo + 500` with every
    /// other key present: all hits, all misses (below `lo`, past the span,
    /// `u64::MAX`), or a random mix of hits and every kind of miss.
    fn probe_keys(rng: &mut Rng, kind: usize, n: usize, lo: u64) -> Vec<u64> {
        let hit = |rng: &mut Rng| lo + 2 * rng.gen_range(0..250u64);
        let miss = |rng: &mut Rng| match rng.gen_range(0..5u32) {
            0 => lo.wrapping_sub(1 + rng.gen_range(0..100u64)),
            1 => (lo + 500).wrapping_add(rng.gen_range(0..1000u64)),
            2 => u64::MAX,
            3 => lo + 2 * rng.gen_range(0..250u64) + 1,
            _ => rng.next_u64() | 1 << 63,
        };
        let pct = rng.gen_range(0..=100u64);
        (0..n)
            .map(|_| match kind {
                0 => hit(rng),
                1 => miss(rng),
                _ if rng.gen_range(0..100u64) < pct => hit(rng),
                _ => miss(rng),
            })
            .collect()
    }

    /// The fused probe on every available backend and every compiled
    /// Gather node agrees with the scalar reference: lengths around the
    /// vector width and a batch, all-hit, all-miss and random masks, keys
    /// below `lo`, past the span and `u64::MAX`, for the first dimension
    /// (no incoming ids) and a later one, compacting `sel` and `gids` in
    /// place.
    #[test]
    fn property_fused_probe_matches_reference_on_every_node() {
        let gen = |rng: &mut Rng| {
            let n = [0usize, 1, 7, 8, 9, 1023, 1024][rng.gen_range(0..7usize)];
            let kind = rng.gen_range(0..3usize);
            let lo = [0, 1, 1 << 40, u64::MAX - 600][rng.gen_range(0..4usize)];
            (n, kind, lo, rng.gen_range(0..2usize) == 1, rng.next_u64())
        };
        let backends: Vec<Backend> =
            [Backend::Emu, Backend::Avx2, Backend::Avx512].into_iter().filter(|b| b.is_available()).collect();
        hef_testutil::prop::check("fused dense probe matches the reference", gen, |&(n, kind, lo, later, seed)| {
            let mut rng = Rng::seed_from_u64(seed);
            let pairs: Vec<(u64, u64)> = (0..250u64).map(|j| (lo + 2 * j, rng.gen_range(0..40u64))).collect();
            let index = DenseIndex::build(&pairs, usize::MAX).ok_or("dense build refused")?;
            let keys = probe_keys(&mut rng, kind, n, lo);
            let stride = [1u64, 7, 1 << 20][rng.gen_range(0..3usize)];
            let sel: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
            let gids: Vec<u64> = if later { (0..n).map(|_| rng.gen_range(0..1000u64)).collect() } else { vec![] };
            let (mut want_sel, mut want_gids) = (sel.clone(), gids.clone());
            probe_ref(&index, &keys, stride, &mut want_sel, &mut want_gids);
            for &backend in &backends {
                for e in crate::grid_for(Family::Gather) {
                    let (mut got_sel, mut got_gids) = (sel.clone(), gids.clone());
                    let io = &mut KernelIo::DenseProbe {
                        keys: &keys,
                        index: &index,
                        stride,
                        sel: &mut got_sel,
                        gids: &mut got_gids,
                    };
                    assert!(crate::run_on(Family::Gather, e.cfg, backend, io));
                    if (&got_sel, &got_gids) != (&want_sel, &want_gids) {
                        return Err(format!(
                            "{} on {}: kept {} rows, want {}",
                            e.cfg,
                            backend.name(),
                            got_sel.len(),
                            want_sel.len()
                        ));
                    }
                }
            }
            Ok(())
        });
    }
}
