//! Engine-level helper operations shared by all flavors.
//!
//! These are the pipeline-glue steps whose cost is identical across
//! execution flavors (dense grouped accumulation, hit compaction);
//! the flavor-differentiated work — filtering, hash probing, aggregation —
//! runs through the tuned kernel grid in `hef-kernels`.

use hef_kernels::MISS;

/// Dense grouped accumulation: `acc[gid[i]] += val[i]` (wrapping).
///
/// SSB group domains are small dense codes, so the accumulator is a flat
/// array — the strategy the paper's large-linear-table setup implies.
pub fn grouped_accumulate(acc: &mut [u64], gids: &[u64], vals: &[u64]) {
    assert_eq!(gids.len(), vals.len());
    for (&g, &v) in gids.iter().zip(vals) {
        acc[g as usize] = acc[g as usize].wrapping_add(v);
    }
}

/// Fold a hashed probe's output `out` into the selection and the running
/// group ids: keep, in order, the rows where `out` is a hit, with group id
/// `gids[j] + out[j] · stride` (`gids` empty: the first dimension, every
/// incoming id 0). Returns the new length. This is what the fused dense
/// probe ([`hef_kernels::KernelIo::DenseProbe`]) does in one kernel pass.
///
/// Branch-free: each row is written at the cursor, which then advances by
/// `(out != MISS)`, so a hit ratio near one half costs no mispredicted
/// branches. Vectors are compacted in place, so the caller's buffers keep
/// their capacity across batches.
pub fn compact_hits(sel: &mut Vec<u64>, gids: &mut Vec<u64>, out: &[u64], stride: u64) -> usize {
    debug_assert_eq!(sel.len(), out.len());
    if gids.is_empty() {
        gids.resize(sel.len(), 0);
    }
    debug_assert_eq!(gids.len(), sel.len());
    let mut k = 0usize;
    for (j, &o) in out.iter().enumerate() {
        sel[k] = sel[j];
        gids[k] = gids[j].wrapping_add(o.wrapping_mul(stride));
        k += (o != MISS) as usize;
    }
    sel.truncate(k);
    gids.truncate(k);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_accumulate_sums_per_group() {
        let mut acc = vec![0u64; 3];
        grouped_accumulate(&mut acc, &[0, 2, 0, 1], &[5, 7, 1, 2]);
        assert_eq!(acc, vec![6, 2, 7]);
    }

    #[test]
    fn compact_hits_drops_misses_and_collects_payloads() {
        let mut sel = vec![10, 11, 12, 13];
        let mut gids = vec![100, 101, 102, 103];
        let out = vec![7, MISS, 9, MISS];
        let k = compact_hits(&mut sel, &mut gids, &out, 10);
        assert_eq!(k, 2);
        assert_eq!(sel, vec![10, 12]);
        assert_eq!(gids, vec![170, 192]); // incoming ids plus payload × stride
    }

    #[test]
    fn compact_all_misses_empties_everything() {
        let mut sel = vec![1, 2];
        let mut gids = Vec::new();
        assert_eq!(compact_hits(&mut sel, &mut gids, &[MISS, MISS], 1), 0);
        assert!(sel.is_empty());
        assert!(gids.is_empty());
    }

    /// The branchy loop the branch-free compaction replaced: the oracle.
    fn branchy(sel: &mut Vec<u64>, gids: &mut Vec<u64>, out: &[u64], stride: u64) -> usize {
        if gids.is_empty() {
            gids.resize(sel.len(), 0);
        }
        let mut k = 0usize;
        for j in 0..sel.len() {
            if out[j] != MISS {
                sel[k] = sel[j];
                gids[k] = gids[j] + out[j] * stride;
                k += 1;
            }
        }
        sel.truncate(k);
        gids.truncate(k);
        k
    }

    /// Hit masks of length `n`: all-hit, all-miss, both alternations, and
    /// random at a drawn hit ratio (`n = 0` gives the empty mask).
    fn masks(rng: &mut hef_testutil::Rng, n: usize) -> Vec<Vec<bool>> {
        let pct = rng.gen_range(0..=100u64);
        vec![
            vec![true; n],
            vec![false; n],
            (0..n).map(|j| j % 2 == 0).collect(),
            (0..n).map(|j| j % 2 == 1).collect(),
            (0..n).map(|_| rng.gen_range(0..100u64) < pct).collect(),
        ]
    }

    #[test]
    fn property_branch_free_compaction_matches_the_branchy_loop() {
        let gen = |rng: &mut hef_testutil::Rng| {
            let n = [0usize, 1, 7, 64, 1024][rng.gen_range(0..5usize)];
            (n, rng.gen_range(0..2usize) == 1, rng.next_u64())
        };
        hef_testutil::prop::check("compaction matches the branchy loop", gen, |&(n, later, seed)| {
            let mut rng = hef_testutil::Rng::seed_from_u64(seed);
            for mask in masks(&mut rng, n) {
                let sel: Vec<u64> = (0..n as u64).map(|j| 2 * j).collect();
                let gids: Vec<u64> =
                    if later { (0..n).map(|_| rng.gen_range(0..1000u64)).collect() } else { Vec::new() };
                let out: Vec<u64> = mask
                    .iter()
                    .map(|&hit| if hit { rng.gen_range(0..1000u64) } else { MISS })
                    .collect();
                let stride = rng.gen_range(1..100u64);
                let (mut want_sel, mut want_gids) = (sel.clone(), gids.clone());
                let want_k = branchy(&mut want_sel, &mut want_gids, &out, stride);
                let (mut got_sel, mut got_gids) = (sel, gids);
                let k = compact_hits(&mut got_sel, &mut got_gids, &out, stride);
                if (k, &got_sel, &got_gids) != (want_k, &want_sel, &want_gids) {
                    return Err(format!("compact_hits: {k} rows, want {want_k}; mask {mask:?}"));
                }
            }
            Ok(())
        });
    }
}
