//! Hash-table probe kernel family.
//!
//! The hot loop of every SSB join: hash the foreign key, gather the slot,
//! compare, and fetch the payload. The table is the *large linear-probe*
//! table the paper uses (§V: "we apply a large linear hash table for hash
//! join to reduce the conflicts"), with 64-bit keys and payloads. A table
//! has at least `next_pow2(2n)` slots for `n` entries (load factor ≤ 1/2);
//! the engine's build side grows a dimension table to load ≤ 1/8 while it
//! stays within half the L2 (`probe_slots` in `hef-engine`'s `star`). The
//! SIMD fast path resolves a probe in one gather + compare; lanes that land
//! on a collision (slot occupied by a different key) fall back to a scalar
//! linear-probe walk, which is rare by construction.

use hef_hid::Simd64;

use crate::murmur::murmur64;
use crate::KernelIo;

/// Payload returned for keys that are not in the table.
///
/// Build payloads must therefore never equal `MISS`; [`ProbeTable::insert`]
/// enforces this.
pub const MISS: u64 = u64::MAX;

/// Sentinel marking an empty slot.
const EMPTY: u64 = u64::MAX;

/// An open-addressing linear-probe hash table with 64-bit keys and payloads.
///
/// Keys are hashed with [`murmur64`]; capacity is a power of two of at
/// least [`ProbeTable::min_slots`] for the expected entries (load factor
/// ≤ 0.5), so that single-gather SIMD probes almost always resolve. A
/// caller may ask for more slots ([`ProbeTable::with_slots`]): a sparser
/// table ends more probes, hits and misses alike, at the home slot.
#[derive(Debug, Clone)]
pub struct ProbeTable {
    keys: Box<[u64]>,
    vals: Box<[u64]>,
    mask: u64,
    len: usize,
}

impl ProbeTable {
    /// Fewest slots for `expected` entries: `next_pow2(2·expected)`, load
    /// factor ≤ 0.5.
    pub fn min_slots(expected: usize) -> usize {
        (expected.max(1) * 2).next_power_of_two()
    }

    /// Create a table able to hold `expected` entries at load factor ≤ 0.5
    /// ([`ProbeTable::min_slots`] slots).
    pub fn with_capacity(expected: usize) -> Self {
        Self::with_slots(Self::min_slots(expected))
    }

    /// Create a table of `slots` slots, rounded up to a power of two (at
    /// least 2). It holds up to half that many entries.
    pub fn with_slots(slots: usize) -> Self {
        let cap = slots.max(2).next_power_of_two();
        ProbeTable {
            keys: vec![EMPTY; cap].into_boxed_slice(),
            vals: vec![0u64; cap].into_boxed_slice(),
            mask: (cap - 1) as u64,
            len: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of inserted entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entry has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of the key and value arrays (the probe working set; used by the
    /// cache model).
    pub fn working_set_bytes(&self) -> usize {
        self.keys.len() * 8 * 2
    }

    /// Insert `key → val`, replacing any previous payload for `key`.
    ///
    /// Panics if `key == EMPTY` (reserved sentinel), `val == MISS` (reserved
    /// miss marker), or the table would exceed load factor 0.5.
    pub fn insert(&mut self, key: u64, val: u64) {
        assert_ne!(key, EMPTY, "key u64::MAX is reserved");
        assert_ne!(val, MISS, "payload u64::MAX is reserved");
        assert!(
            (self.len + 1) * 2 <= self.capacity(),
            "ProbeTable over-full: size it with the expected cardinality"
        );
        let mut slot = (murmur64(key) & self.mask) as usize;
        loop {
            if self.keys[slot] == EMPTY {
                self.keys[slot] = key;
                self.vals[slot] = val;
                self.len += 1;
                return;
            }
            if self.keys[slot] == key {
                self.vals[slot] = val;
                return;
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    /// Scalar probe: payload for `key`, or [`MISS`].
    #[inline(always)]
    pub fn probe_scalar(&self, key: u64) -> u64 {
        let mut slot = (murmur64(key) & self.mask) as usize;
        loop {
            let k = self.keys[slot];
            // `EMPTY` first: it is also the key `u64::MAX`, which no entry
            // holds, so that probe must miss, not return an empty payload.
            if k == EMPTY {
                return MISS;
            }
            if k == key {
                return self.vals[slot];
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    /// Home slot of `key` (where its linear-probe walk begins).
    #[inline(always)]
    pub fn slot_of(&self, key: u64) -> usize {
        (murmur64(key) & self.mask) as usize
    }

    /// Software-prefetch the slot's key (and payload, same line or next)
    /// into L1. Used by the memory-parallel probe loop and by prefetching
    /// engines such as the Voila comparator.
    #[inline(always)]
    pub fn prefetch(&self, slot: usize) {
        let slot = slot & self.mask as usize;
        crate::prefetch::prefetch_index(&self.keys, slot);
        crate::prefetch::prefetch_index(&self.vals, slot);
    }

    /// Probe starting from a pre-computed home slot (pairs with
    /// [`ProbeTable::slot_of`] so hashing and probing can be split into
    /// separate, prefetchable passes).
    #[inline(always)]
    pub fn probe_at(&self, slot: usize, key: u64) -> u64 {
        let mut slot = slot & self.mask as usize;
        loop {
            let k = self.keys[slot];
            // `EMPTY` first: it is also the key `u64::MAX`, which no entry
            // holds, so that probe must miss, not return an empty payload.
            if k == EMPTY {
                return MISS;
            }
            if k == key {
                return self.vals[slot];
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    /// Raw parts for the SIMD kernels.
    #[inline(always)]
    fn raw(&self) -> (*const u64, *const u64, u64) {
        (self.keys.as_ptr(), self.vals.as_ptr(), self.mask)
    }
}

/// The hybrid probe body: per pack layer, `V` vector probes (8 keys each)
/// and `S` scalar probes.
///
/// # Safety
/// Backend ISA must be available.
#[inline(always)]
pub unsafe fn body<B: Simd64, const V: usize, const S: usize, const P: usize>(
    keys: &[u64],
    table: &ProbeTable,
    out: &mut [u64],
) {
    assert_eq!(keys.len(), out.len(), "probe: length mismatch");
    const L: usize = hef_hid::LANES;
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { keys.len() - keys.len() % step };
    let inp = keys.as_ptr();
    let outp = out.as_mut_ptr();
    let (tkeys, tvals, mask) = table.raw();

    let m_v = B::splat(crate::murmur::M);
    let hseed_v = B::splat(crate::murmur::SEED ^ crate::murmur::M);
    let mask_v = B::splat(mask);
    let empty_v = B::splat(EMPTY);
    let miss_v = B::splat(MISS);
    let one_v = B::splat(1);

    let mut i = 0usize;
    while i < main {
        // load keys
        let mut kv = [[B::splat(0); V]; P];
        let mut ks = [[0u64; S]; P];
        for pi in 0..P {
            let base = i + pi * (V * L + S);
            for vi in 0..V {
                kv[pi][vi] = B::loadu(inp.add(base + vi * L));
            }
            for si in 0..S {
                ks[pi][si] = hef_hid::opaque64(*inp.add(base + V * L + si));
            }
        }
        // slot = murmur(key) & mask
        let mut sv = [[B::splat(0); V]; P];
        let mut ss = [[0u64; S]; P];
        for pi in 0..P {
            for vi in 0..V {
                sv[pi][vi] = B::and(
                    crate::murmur::murmur64_v::<B>(kv[pi][vi], m_v, hseed_v),
                    mask_v,
                );
            }
            for si in 0..S {
                ss[pi][si] = murmur64(ks[pi][si]) & mask;
            }
        }
        // slotkey = gather(keys, slot); val = gather(vals, slot)
        for pi in 0..P {
            let base = i + pi * (V * L + S);
            for vi in 0..V {
                let mut slot = sv[pi][vi];
                let skey = B::gather(tkeys, slot);
                let sval = B::gather(tvals, slot);
                let empty = B::cmpeq(skey, empty_v);
                let hit = B::cmpeq(skey, kv[pi][vi]) & !empty;
                // hit → payload, empty → MISS; collided lanes walk the
                // chain vectorized below (all lanes re-gather, updates are
                // masked to the still-unresolved ones).
                let mut res = B::blend(hit, miss_v, sval);
                let mut resolved = hit | empty;
                let mut steps = 0u32;
                while resolved != 0xff {
                    slot = B::and(B::add(slot, one_v), mask_v);
                    let skey = B::gather(tkeys, slot);
                    let sval = B::gather(tvals, slot);
                    let empty = B::cmpeq(skey, empty_v) & !resolved;
                    let hit = B::cmpeq(skey, kv[pi][vi]) & !resolved & !empty;
                    res = B::blend(hit, res, sval);
                    resolved |= hit | empty;
                    steps += 1;
                    if steps > 64 {
                        // Pathological chain (should not happen at load
                        // factor ≤ 0.5): finish the stragglers scalar.
                        let karr = B::to_array(kv[pi][vi]);
                        let mut rarr = B::to_array(res);
                        for lane in 0..L {
                            if resolved & (1 << lane) == 0 {
                                rarr[lane] = table.probe_scalar(karr[lane]);
                            }
                        }
                        res = B::from_array(rarr);
                        break;
                    }
                }
                B::storeu(outp.add(base + vi * L), res);
            }
            for si in 0..S {
                let slot = ss[pi][si] as usize;
                let skey = *tkeys.add(slot);
                let o = outp.add(base + V * L + si);
                if skey == EMPTY {
                    *o = MISS;
                } else if skey == ks[pi][si] {
                    *o = *tvals.add(slot);
                } else {
                    *o = table.probe_scalar(ks[pi][si]);
                }
            }
        }
        i += step;
    }
    for j in main..keys.len() {
        out[j] = table.probe_scalar(keys[j]);
    }
}

/// Slot-ring capacity of the prefetched probe pipeline, in elements.
/// 16 KiB of stack; bounds the in-flight window regardless of `f`.
const RING_SLOTS: usize = 2048;

/// The memory-parallel probe body: AMAC-style group prefetch at runtime
/// depth `f` (target number of probe elements in flight).
///
/// The loop is software-pipelined over the same `(V, S, P)` step blocks as
/// [`body`]: a *hash phase* computes home slots for a block, stores them in
/// a small stack ring, and issues `prefetcht0` hints for the slots' key and
/// payload lines; a *resolve phase* runs `D = ceil(f / step)` blocks behind,
/// re-loading the stored slots (now cache-resident) and finishing exactly
/// the gather/compare/collision-walk of the flat body. `f` independent cache
/// misses therefore overlap instead of serializing. `f == 0` must be routed
/// to [`body`] by the caller; results are bit-identical for any `f`.
///
/// # Safety
/// Backend ISA must be available.
#[inline(always)]
pub unsafe fn body_prefetched<B: Simd64, const V: usize, const S: usize, const P: usize>(
    keys: &[u64],
    table: &ProbeTable,
    out: &mut [u64],
    f: usize,
) {
    assert_eq!(keys.len(), out.len(), "probe: length mismatch");
    const L: usize = hef_hid::LANES;
    let step = P * (V * L + S);
    let main = if step == 0 { 0 } else { keys.len() - keys.len() % step };
    let nblocks = if step == 0 { 0 } else { main / step };
    let inp = keys.as_ptr();
    let outp = out.as_mut_ptr();
    let (tkeys, tvals, mask) = table.raw();

    let m_v = B::splat(crate::murmur::M);
    let hseed_v = B::splat(crate::murmur::SEED ^ crate::murmur::M);
    let mask_v = B::splat(mask);
    let empty_v = B::splat(EMPTY);
    let miss_v = B::splat(MISS);
    let one_v = B::splat(1);

    // Pipeline depth in blocks, bounded by the ring and the input.
    let depth = f
        .div_ceil(step.max(1))
        .clamp(1, (RING_SLOTS / step.max(1)).max(1))
        .min(nblocks.max(1));
    // Left uninitialized: only the first `depth * step` slots are used, and
    // every block's chunk is written by its hash phase before its resolve
    // phase reads it, so zero-filling 16 KiB per call bought nothing.
    let mut ring = core::mem::MaybeUninit::<[u64; RING_SLOTS]>::uninit();
    let ringp = ring.as_mut_ptr().cast::<u64>();

    // Hash phase for block `b`: compute home slots into ring chunk
    // `(b % depth) * step` and prefetch each slot's key/payload lines.
    macro_rules! hash_block {
        ($b:expr) => {{
            let chunk = ringp.add(($b % depth) * step);
            for pi in 0..P {
                let base = $b * step + pi * (V * L + S);
                let cbase = pi * (V * L + S);
                for vi in 0..V {
                    let kv = B::loadu(inp.add(base + vi * L));
                    let sv = B::and(crate::murmur::murmur64_v::<B>(kv, m_v, hseed_v), mask_v);
                    B::storeu(chunk.add(cbase + vi * L), sv);
                    for slot in B::to_array(sv) {
                        table.prefetch(slot as usize);
                    }
                }
                for si in 0..S {
                    let k = hef_hid::opaque64(*inp.add(base + V * L + si));
                    let slot = murmur64(k) & mask;
                    *chunk.add(cbase + V * L + si) = slot;
                    table.prefetch(slot as usize);
                }
            }
        }};
    }

    // Resolve phase for block `b`: identical to the flat body's probe step,
    // except home slots come from the ring instead of being recomputed.
    macro_rules! resolve_block {
        ($b:expr) => {{
            let chunk = ringp.add(($b % depth) * step) as *const u64;
            for pi in 0..P {
                let base = $b * step + pi * (V * L + S);
                let cbase = pi * (V * L + S);
                for vi in 0..V {
                    let kv = B::loadu(inp.add(base + vi * L));
                    let mut slot = B::loadu(chunk.add(cbase + vi * L));
                    let skey = B::gather(tkeys, slot);
                    let sval = B::gather(tvals, slot);
                    let empty = B::cmpeq(skey, empty_v);
                    let hit = B::cmpeq(skey, kv) & !empty;
                    let mut res = B::blend(hit, miss_v, sval);
                    let mut resolved = hit | empty;
                    let mut steps = 0u32;
                    while resolved != 0xff {
                        slot = B::and(B::add(slot, one_v), mask_v);
                        let skey = B::gather(tkeys, slot);
                        let sval = B::gather(tvals, slot);
                        let empty = B::cmpeq(skey, empty_v) & !resolved;
                        let hit = B::cmpeq(skey, kv) & !resolved & !empty;
                        res = B::blend(hit, res, sval);
                        resolved |= hit | empty;
                        steps += 1;
                        if steps > 64 {
                            let karr = B::to_array(kv);
                            let mut rarr = B::to_array(res);
                            for lane in 0..L {
                                if resolved & (1 << lane) == 0 {
                                    rarr[lane] = table.probe_scalar(karr[lane]);
                                }
                            }
                            res = B::from_array(rarr);
                            break;
                        }
                    }
                    B::storeu(outp.add(base + vi * L), res);
                }
                for si in 0..S {
                    let k = hef_hid::opaque64(*inp.add(base + V * L + si));
                    let slot = *chunk.add(cbase + V * L + si) as usize;
                    let skey = *tkeys.add(slot);
                    let o = outp.add(base + V * L + si);
                    if skey == EMPTY {
                        *o = MISS;
                    } else if skey == k {
                        *o = *tvals.add(slot);
                    } else {
                        *o = table.probe_scalar(k);
                    }
                }
            }
        }};
    }

    // Prime: hash the first `depth` blocks, then steady-state resolve block
    // `b` and refill its ring chunk with block `b + depth`.
    for b in 0..depth.min(nblocks) {
        hash_block!(b);
    }
    for b in 0..nblocks {
        resolve_block!(b);
        if b + depth < nblocks {
            hash_block!(b + depth);
        }
    }
    for j in main..keys.len() {
        out[j] = table.probe_scalar(keys[j]);
    }
}

/// Type-erasure adapter used by the generated dispatch shims.
///
/// # Safety
/// Backend ISA must be available; `io` must be [`KernelIo::Probe`].
#[inline(always)]
pub unsafe fn run<B: Simd64, const V: usize, const S: usize, const P: usize>(
    io: &mut KernelIo<'_>,
) {
    match io {
        KernelIo::Probe { keys, table, out, prefetch: 0 } => body::<B, V, S, P>(keys, table, out),
        KernelIo::Probe { keys, table, out, prefetch } => {
            body_prefetched::<B, V, S, P>(keys, table, out, *prefetch)
        }
        _ => panic!("probe kernel requires KernelIo::Probe"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_hid::Emu;

    fn sample_table(n: u64) -> ProbeTable {
        let mut t = ProbeTable::with_capacity(n as usize);
        for k in 0..n {
            t.insert(k * 7 + 1, k + 100);
        }
        t
    }

    #[test]
    fn insert_and_scalar_probe() {
        let t = sample_table(1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.probe_scalar(1), 100);
        assert_eq!(t.probe_scalar(7 * 999 + 1), 999 + 100);
        assert_eq!(t.probe_scalar(2), MISS);
    }

    #[test]
    fn insert_overwrites_same_key() {
        let mut t = ProbeTable::with_capacity(4);
        t.insert(5, 10);
        t.insert(5, 20);
        assert_eq!(t.len(), 1);
        assert_eq!(t.probe_scalar(5), 20);
    }

    #[test]
    fn sparse_tables_round_up_and_probe_alike() {
        assert_eq!(ProbeTable::min_slots(0), 2);
        assert_eq!(ProbeTable::min_slots(5), 16);
        assert_eq!(ProbeTable::with_slots(100).capacity(), 128);
        let dense = sample_table(300);
        let mut sparse = ProbeTable::with_slots(8 * dense.capacity());
        for k in 0..300 {
            sparse.insert(k * 7 + 1, k + 100);
        }
        let keys: Vec<u64> = (0..2500).collect();
        let mut out = vec![0u64; keys.len()];
        unsafe { super::body::<Emu, 1, 1, 3>(&keys, &sparse, &mut out) };
        let expect: Vec<u64> = keys.iter().map(|&k| dense.probe_scalar(k)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn miss_payload_rejected() {
        ProbeTable::with_capacity(2).insert(1, MISS);
    }

    #[test]
    fn hybrid_probe_matches_scalar_probe() {
        let t = sample_table(500);
        let keys: Vec<u64> = (0..701).map(|i| i * 3 + 1).collect(); // mix of hits & misses
        let expect: Vec<u64> = keys.iter().map(|&k| t.probe_scalar(k)).collect();
        let mut out = vec![0u64; keys.len()];
        unsafe {
            super::body::<Emu, 1, 1, 3>(&keys, &t, &mut out);
            assert_eq!(out, expect, "(1,1,3)");
            out.fill(0);
            super::body::<Emu, 2, 0, 1>(&keys, &t, &mut out);
            assert_eq!(out, expect, "(2,0,1)");
            out.fill(0);
            super::body::<Emu, 0, 2, 2>(&keys, &t, &mut out);
            assert_eq!(out, expect, "(0,2,2)");
        }
    }

    #[test]
    fn prefetched_probe_matches_flat_for_every_depth() {
        let t = sample_table(500);
        let keys: Vec<u64> = (0..701).map(|i| i * 3 + 1).collect();
        let expect: Vec<u64> = keys.iter().map(|&k| t.probe_scalar(k)).collect();
        let mut out = vec![0u64; keys.len()];
        // Depths below/at/above the step, beyond the ring, and degenerate.
        for f in [1usize, 3, 8, 16, 33, 64, 5000] {
            unsafe {
                super::body_prefetched::<Emu, 1, 1, 3>(&keys, &t, &mut out, f);
                assert_eq!(out, expect, "(1,1,3) f={f}");
                out.fill(0);
                super::body_prefetched::<Emu, 0, 1, 1>(&keys, &t, &mut out, f);
                assert_eq!(out, expect, "scalar f={f}");
                out.fill(0);
                super::body_prefetched::<Emu, 2, 0, 2>(&keys, &t, &mut out, f);
                assert_eq!(out, expect, "(2,0,2) f={f}");
                out.fill(0);
            }
        }
    }

    #[test]
    fn prefetched_probe_handles_collision_chains() {
        let mut t = ProbeTable::with_capacity(64);
        for k in 0..64u64 {
            t.insert(k + 1, k + 1000);
        }
        let keys: Vec<u64> = (0..128).collect();
        let expect: Vec<u64> = keys.iter().map(|&k| t.probe_scalar(k)).collect();
        let mut out = vec![0u64; keys.len()];
        unsafe { super::body_prefetched::<Emu, 1, 2, 1>(&keys, &t, &mut out, 16) };
        assert_eq!(out, expect);
    }

    #[test]
    fn collision_lanes_fall_back_correctly() {
        // Dense key range at max load factor stresses linear-probe chains.
        let mut t = ProbeTable::with_capacity(64);
        for k in 0..64u64 {
            t.insert(k + 1, k + 1000);
        }
        let keys: Vec<u64> = (0..128).collect();
        let expect: Vec<u64> = keys.iter().map(|&k| t.probe_scalar(k)).collect();
        let mut out = vec![0u64; keys.len()];
        unsafe { super::body::<Emu, 1, 0, 1>(&keys, &t, &mut out) };
        assert_eq!(out, expect);
    }
}
