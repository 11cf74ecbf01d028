//! Direct-addressed join index for dense integer keys.
//!
//! When a build side's keys fill most of a range `lo..=hi` — every SSB
//! dimension key does: customer, supplier and part are `1..n`, dates span
//! about 61 k values — a payload array `pays[key − lo]` answers a probe with
//! one load, where a hash table pays a hash, two slot loads and a compare
//! (Crystal's SSB study probes these dimensions the same way). Absent keys
//! hold [`MISS`], and one trailing `MISS` slot catches every out-of-range
//! key: a probe clamps `key − lo` (wrapping, so keys below `lo` land high)
//! to the span, with no branch, and gathers. The gather is the engine's
//! tuned [`Family::Gather`](crate::Family) kernel; this module only builds
//! the array and computes the clamped indices.

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

    /// The clamp pass: `idx[i] = slot_of(keys[i])`, branch-free, into a
    /// reused buffer. Gathering `pays()` at `idx` then probes the batch.
    pub fn clamp(&self, keys: &[u64], idx: &mut Vec<u64>) {
        let (lo, span) = (self.lo, self.span());
        idx.clear();
        idx.extend(keys.iter().map(|&k| k.wrapping_sub(lo).min(span)));
    }

    /// The payload array the clamped indices address.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeTable;
    use hef_testutil::Rng;

    #[test]
    fn keys_outside_the_span_and_the_sentinel_miss() {
        let d = DenseIndex::build(&[(10, 1), (12, 3), (10, 2)], 1 << 20).unwrap();
        assert_eq!((d.len(), d.working_set_bytes()), (2, 4 * 8));
        let probe: Vec<u64> = [0, 9, 10, 11, 12, 13, u64::MAX].map(|k| d.probe_scalar(k)).to_vec();
        assert_eq!(probe, [MISS, MISS, 2, MISS, 3, MISS, MISS]);
        let mut idx = Vec::new();
        d.clamp(&[0, 9, 10, 12, 13, u64::MAX], &mut idx);
        assert_eq!(idx, [3, 3, 0, 2, 3, 3]);
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
            let mut idx = Vec::new();
            dense.clamp(&keys, &mut idx);
            for (&k, &i) in keys.iter().zip(&idx) {
                let (d, h) = (dense.probe_scalar(k), hash.probe_scalar(k));
                if d != h || dense.pays()[i as usize] != h {
                    return Err(format!("key {k}: dense {d}, hash {h}"));
                }
            }
            Ok(())
        });
    }
}
