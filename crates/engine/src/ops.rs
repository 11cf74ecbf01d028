//! Engine-level helper operations shared by all flavors.
//!
//! These are the pipeline-glue steps whose cost is identical across
//! execution flavors (selective key gathering, dense grouped accumulation);
//! the flavor-differentiated work — filtering, hash probing, aggregation —
//! runs through the tuned kernel grid in `hef-kernels`.

use hef_kernels::MISS;

/// Gather `col[sel[i]]` into `out` (selective projection of join keys for
/// rows that survived earlier operators).
pub fn gather_keys(col: &[u64], sel: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(sel.iter().map(|&r| col[r as usize]));
}

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

/// Compact `sel`, the earlier probes' payload vectors `pays` and the
/// current probe's output `out` down to the rows where `out` is a hit,
/// keeping their order. Returns the new length.
///
/// Branch-free: each row is written at the cursor, which then advances by
/// `(out != MISS)`, so a hit ratio near one half costs no mispredicted
/// branches. Vectors are compacted in
/// place, so the caller's buffers keep their capacity across batches.
pub fn compact_hits(sel: &mut Vec<u64>, pays: &mut [Vec<u64>], out: &mut Vec<u64>) -> usize {
    debug_assert_eq!(sel.len(), out.len());
    let mut k = 0usize;
    for j in 0..sel.len() {
        sel[k] = sel[j];
        for p in pays.iter_mut() {
            p[k] = p[j];
        }
        let o = out[j];
        out[k] = o;
        k += (o != MISS) as usize;
    }
    sel.truncate(k);
    for p in pays {
        p.truncate(k);
    }
    out.truncate(k);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_keys_is_positional() {
        let col = vec![10, 11, 12, 13, 14];
        let mut out = Vec::new();
        gather_keys(&col, &[4, 0, 2], &mut out);
        assert_eq!(out, vec![14, 10, 12]);
    }

    #[test]
    fn grouped_accumulate_sums_per_group() {
        let mut acc = vec![0u64; 3];
        grouped_accumulate(&mut acc, &[0, 2, 0, 1], &[5, 7, 1, 2]);
        assert_eq!(acc, vec![6, 2, 7]);
    }

    #[test]
    fn compact_hits_drops_misses_and_collects_payloads() {
        let mut sel = vec![10, 11, 12, 13];
        let mut pays: Vec<Vec<u64>> = vec![vec![100, 101, 102, 103]];
        let mut out = vec![7, MISS, 9, MISS];
        let k = compact_hits(&mut sel, &mut pays, &mut out);
        assert_eq!(k, 2);
        assert_eq!(sel, vec![10, 12]);
        assert_eq!(pays[0], vec![100, 102]); // earlier payloads compacted
        assert_eq!(out, vec![7, 9]); // current probe's payloads kept
    }

    #[test]
    fn compact_all_misses_empties_everything() {
        let mut sel = vec![1, 2];
        let mut out = vec![MISS, MISS];
        assert_eq!(compact_hits(&mut sel, &mut [], &mut out), 0);
        assert!(sel.is_empty());
        assert!(out.is_empty());
    }

    /// The branchy loop the branch-free compaction replaced: the oracle.
    fn branchy(sel: &mut Vec<u64>, cols: &mut [Vec<u64>], keep: impl Fn(usize) -> bool) -> usize {
        let mut k = 0usize;
        for j in 0..sel.len() {
            if keep(j) {
                sel[k] = sel[j];
                for c in cols.iter_mut() {
                    c[k] = c[j];
                }
                k += 1;
            }
        }
        sel.truncate(k);
        for c in cols.iter_mut() {
            c.truncate(k);
        }
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
            (n, rng.gen_range(0..4usize), rng.next_u64())
        };
        hef_testutil::prop::check("compaction matches the branchy loop", gen, |&(n, earlier, seed)| {
            let mut rng = hef_testutil::Rng::seed_from_u64(seed);
            for mask in masks(&mut rng, n) {
                let mut draw = |n: usize| -> Vec<u64> { (0..n).map(|_| rng.next_u64() >> 1).collect() };
                let sel: Vec<u64> = (0..n as u64).map(|j| 2 * j).collect();
                let cols: Vec<Vec<u64>> = (0..earlier).map(|_| draw(n)).collect();
                let out: Vec<u64> =
                    mask.iter().zip(draw(n)).map(|(&hit, v)| if hit { v % 1000 } else { MISS }).collect();

                // Probe hits: the probe output is compacted with the rest.
                let (mut want_sel, mut want) = (sel.clone(), cols.clone());
                want.push(out.clone());
                let want_k = branchy(&mut want_sel, &mut want, |j| mask[j]);
                let (mut got_sel, mut got, mut got_out) = (sel, cols, out);
                let k = compact_hits(&mut got_sel, &mut got, &mut got_out);
                got.push(got_out);
                if (k, &got_sel, &got) != (want_k, &want_sel, &want) {
                    return Err(format!("compact_hits: {k} rows, want {want_k}; mask {mask:?}"));
                }
            }
            Ok(())
        });
    }
}
