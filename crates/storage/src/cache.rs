//! Bounded shared page cache: sharded clock (second-chance) eviction with
//! frequency-gated admission, lock-light enough to sit between morsel
//! workers and the paged column reader.
//!
//! The caller picks the capacity (the storage crate reads no environment;
//! `repro` takes it from `HEF_PAGE_CACHE`). It is split evenly across
//! shards; each shard is an independent clock so the only synchronization
//! between workers touching different pages is a shard-local mutex with
//! O(1) critical sections.
//!
//! **Admission.** A plain clock behaves like LRU under looping scans: a
//! star query sweeps each of its columns page by page, so a loop larger
//! than the cache evicts every page before its next use, and a column that
//! every query reads is flushed by one that few queries read. Each shard
//! therefore keeps a small saturating access counter (4 bits, as in
//! TinyLFU) per recently looked-up page, resident or not, and every lookup
//! bumps it, hit or miss. A miss that needs room asks the clock for its
//! victim and evicts it only if the candidate's count is *higher*; ties go
//! to the resident page, so a scan whose pages are all seen equally often
//! keeps the part that is cached instead of cycling it out. A declined page
//! is still read and returned to the caller, just not cached.
//!
//! **Aging.** Every `WINDOW_PER_PAGE` × (the shard's resident pages)
//! lookups, every counter is halved and zero counters are forgotten. A
//! 4-bit count halves to zero in four windows, so the table only holds
//! keys looked up in the last four windows, and a new hot set outcounts a
//! stale one within a window or two.
//!
//! The byte bound is strict: a shard never holds more than its share.
//! Hits, misses, evictions and declined admissions are counted in the
//! metrics registry (`storage.page_cache_*`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hef_obs::metrics::{self, Metric};

use crate::file::ColumnFileError;
use crate::page::{Page, PagedColumn};

/// Default cache capacity: 64 MiB.
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

const SHARDS: usize = 8;

/// Saturation point of an access counter (4 bits).
const FREQ_MAX: u8 = 15;

/// Lookups per aging window, per page resident in the shard.
const WINDOW_PER_PAGE: usize = 10;

/// Cache key: a column's stable id plus a page index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    pub column: u64,
    pub page: u32,
}

struct Slot {
    key: PageKey,
    page: Arc<Page>,
    bytes: usize,
    /// Clock reference bit: set on hit, cleared by a passing hand.
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<PageKey, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    used: usize,
    /// Access counts of the keys looked up in the last few aging windows.
    freq: HashMap<PageKey, u8>,
    /// Lookups since the counts were last halved.
    lookups: usize,
}

impl Shard {
    /// Count one lookup of `key`, aging every count at the window's end.
    fn touch(&mut self, key: PageKey) {
        let count = self.freq.entry(key).or_default();
        *count = (*count + 1).min(FREQ_MAX);
        self.lookups += 1;
        if self.lookups >= WINDOW_PER_PAGE * self.map.len().max(1) {
            self.lookups = 0;
            self.freq.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
    }

    fn count(&self, key: PageKey) -> u8 {
        self.freq.get(&key).copied().unwrap_or(0)
    }

    fn get(&mut self, key: PageKey) -> Option<Arc<Page>> {
        self.touch(key);
        let idx = *self.map.get(&key)?;
        let slot = self.slots[idx].as_mut().expect("mapped slot occupied");
        slot.referenced = true;
        Some(Arc::clone(&slot.page))
    }

    /// Advance the clock hand to the first unreferenced slot, clearing the
    /// reference bits it passes, and leave the hand on it. `None` when the
    /// shard is empty.
    fn victim(&mut self) -> Option<usize> {
        if self.map.is_empty() {
            return None;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            match self.slots[self.hand].as_mut() {
                Some(slot) if !slot.referenced => return Some(self.hand),
                Some(slot) => slot.referenced = false,
                None => {}
            }
            self.hand += 1;
        }
    }

    fn evict(&mut self, idx: usize) {
        let slot = self.slots[idx].take().expect("victim slot occupied");
        self.hand = idx + 1;
        self.map.remove(&slot.key);
        self.used -= slot.bytes;
        self.free.push(idx);
        metrics::add(Metric::PageCacheEvictions, 1);
    }

    /// Cache `page` unless the room it needs belongs to a clock victim
    /// looked up at least as often as `key`. Returns whether `key` is
    /// cached afterwards.
    fn insert(&mut self, key: PageKey, page: Arc<Page>, bytes: usize, cap: usize) -> bool {
        if self.map.contains_key(&key) {
            return true;
        }
        let count = self.count(key);
        while self.used + bytes > cap {
            let Some(idx) = self.victim() else { break };
            let resident = self.slots[idx].as_ref().expect("victim slot occupied").key;
            if count <= self.count(resident) {
                return false;
            }
            self.evict(idx);
        }
        let slot = Slot { key, page, bytes, referenced: true };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.used += bytes;
        true
    }
}

/// A bounded, sharded page cache shared across morsel workers.
pub struct PageCache {
    shards: Vec<Mutex<Shard>>,
    shard_cap: usize,
}

impl PageCache {
    /// Cache with `capacity` total bytes across the default shard count.
    pub fn new(capacity: usize) -> PageCache {
        PageCache::with_shards(capacity, SHARDS)
    }

    /// Cache with an explicit shard count (1 gives a fully deterministic
    /// single clock — used by the eviction-order tests).
    pub fn with_shards(capacity: usize, shards: usize) -> PageCache {
        let shards = shards.max(1);
        PageCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: (capacity / shards).max(1),
        }
    }

    /// Total byte capacity.
    pub fn capacity(&self) -> usize {
        self.shard_cap * self.shards.len()
    }

    /// Bytes currently pinned across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).used).sum()
    }

    /// Cached pages across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached page and every access count.
    pub fn clear(&self) {
        for s in &self.shards {
            *lock(s) = Shard::default();
        }
    }

    fn shard_for(&self, key: PageKey) -> &Mutex<Shard> {
        // Mix column and page so consecutive pages of one column spread
        // across shards instead of convoying on one lock.
        let h = (key.column ^ (key.page as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0xff51_afd7_ed55_8ccd);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// Look up a page; counts a hit or miss and one access of `key`.
    pub fn get(&self, key: PageKey) -> Option<Arc<Page>> {
        let found = lock(self.shard_for(key)).get(key);
        metrics::add(
            if found.is_some() { Metric::PageCacheHits } else { Metric::PageCacheMisses },
            1,
        );
        found
    }

    /// Offer a page to the cache. It is cached if its shard has room or
    /// the clock's victims are looked up less often than `key`; otherwise,
    /// or when it is larger than a whole shard, it is declined (the bound
    /// is strict). Returns whether the page is cached.
    pub fn insert(&self, key: PageKey, page: Arc<Page>) -> bool {
        let bytes = page.bytes();
        bytes <= self.shard_cap
            && lock(self.shard_for(key)).insert(key, page, bytes, self.shard_cap)
    }

    /// Fetch page `idx` of `col` through the cache, reading, verifying and
    /// parsing it on a miss. A page the cache declines is still returned,
    /// and counted in `storage.page_cache_rejected`.
    pub fn page(&self, col: &PagedColumn, idx: usize) -> Result<Arc<Page>, ColumnFileError> {
        let key = PageKey { column: col.column_id(), page: idx as u32 };
        if let Some(p) = self.get(key) {
            return Ok(p);
        }
        let page = {
            let _fetch = hef_obs::span_fine!("page_fetch", idx = idx as i64);
            Arc::new(col.read_page(idx)?)
        };
        if !self.insert(key, Arc::clone(&page)) {
            metrics::add(Metric::PageCacheRejected, 1);
        }
        Ok(page)
    }
}

fn lock(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::page::{save_paged_column, PagedColumn};

    fn page_of(vals: &[u64]) -> Arc<Page> {
        Arc::new(Page::encode(vals))
    }

    #[test]
    fn hit_miss_and_eviction_bound() {
        let p = page_of(&(0..1000u64).map(|i| i.wrapping_mul(0x9e37)).collect::<Vec<_>>());
        let bytes = p.bytes();
        // Room for ~3 pages in one shard.
        let cache = PageCache::with_shards(bytes * 3 + bytes / 2, 1);
        for i in 0..8u32 {
            let key = PageKey { column: 1, page: i };
            assert!(cache.get(key).is_none());
            cache.insert(key, Arc::clone(&p));
        }
        assert!(cache.len() <= 3, "len {}", cache.len());
        assert!(cache.used_bytes() <= cache.capacity());
    }

    #[test]
    fn reinsert_is_idempotent() {
        let p = page_of(&[1, 2, 3, 4]);
        let cache = PageCache::with_shards(p.bytes() * 4, 1);
        let key = PageKey { column: 9, page: 0 };
        cache.insert(key, Arc::clone(&p));
        cache.insert(key, Arc::clone(&p));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(key).is_some());
    }

    /// Executable specification of one shard: same slot vector, LIFO free
    /// list, hand sweep and second-chance bit as [`Shard`], and with
    /// `admission` the same access counts, aging window and admission rule,
    /// written against page ids instead of [`Arc<Page>`]s. Without
    /// `admission` it is the plain clock: every miss is cached. The
    /// property test replays seeded access traces through the cache and the
    /// admitting model and demands they agree — any drift in eviction or
    /// admission *order* (not just the byte bound) shows up as a
    /// resident-set mismatch within a few steps.
    struct ClockModel {
        /// (page, referenced, bytes)
        slots: Vec<Option<(u32, bool, usize)>>,
        free: Vec<usize>,
        hand: usize,
        used: usize,
        cap: usize,
        admission: bool,
        counts: HashMap<u32, u8>,
        lookups: usize,
    }

    impl ClockModel {
        fn new(cap: usize, admission: bool) -> ClockModel {
            ClockModel {
                slots: Vec::new(),
                free: Vec::new(),
                hand: 0,
                used: 0,
                cap,
                admission,
                counts: HashMap::new(),
                lookups: 0,
            }
        }

        fn contains(&self, page: u32) -> bool {
            self.slots.iter().flatten().any(|&(p, ..)| p == page)
        }

        fn count(&self, page: u32) -> u8 {
            self.counts.get(&page).copied().unwrap_or(0)
        }

        /// A lookup: bumps `page`'s 4-bit count, halves every count after
        /// 10 lookups per resident page, and sets the reference bit on a
        /// hit.
        fn get(&mut self, page: u32) -> bool {
            if self.admission {
                let c = self.count(page);
                self.counts.insert(page, (c + 1).min(15));
                self.lookups += 1;
                if self.lookups >= 10 * self.len().max(1) {
                    self.lookups = 0;
                    self.counts = self
                        .counts
                        .iter()
                        .filter(|&(_, &c)| c >= 2)
                        .map(|(&p, &c)| (p, c / 2))
                        .collect();
                }
            }
            match self.slots.iter_mut().flatten().find(|(p, ..)| *p == page) {
                Some(slot) => {
                    slot.1 = true;
                    true
                }
                None => false,
            }
        }

        /// The first unreferenced slot from the hand on, clearing the bits
        /// passed; the hand stays on it.
        fn victim(&mut self) -> usize {
            loop {
                if self.hand >= self.slots.len() {
                    self.hand = 0;
                }
                match self.slots[self.hand].as_mut() {
                    Some(slot) if !slot.1 => return self.hand,
                    Some(slot) => slot.1 = false,
                    None => {}
                }
                self.hand += 1;
            }
        }

        /// Offer `page`: evict clock victims while it does not fit, but
        /// with admission only victims counted strictly less often.
        /// Returns whether `page` is resident afterwards.
        fn insert(&mut self, page: u32, bytes: usize) -> bool {
            if self.contains(page) {
                return true;
            }
            while self.used + bytes > self.cap && self.len() > 0 {
                let idx = self.victim();
                let (resident, _, b) = self.slots[idx].unwrap();
                if self.admission && self.count(page) <= self.count(resident) {
                    return false;
                }
                self.slots[idx] = None;
                self.hand = idx + 1;
                self.used -= b;
                self.free.push(idx);
            }
            match self.free.pop() {
                Some(i) => self.slots[i] = Some((page, true, bytes)),
                None => self.slots.push(Some((page, true, bytes))),
            }
            self.used += bytes;
            true
        }

        fn len(&self) -> usize {
            self.slots.iter().flatten().count()
        }
    }

    #[test]
    fn seeded_random_access_matches_reference_clock() {
        let p = page_of(&(0..512u64).collect::<Vec<_>>());
        let bytes = p.bytes();
        // Room for 4 pages out of 12: every trace evicts or declines
        // constantly. Odd seeds draw half their lookups from 3 hot pages,
        // so admission goes both ways.
        let cap = bytes * 4 + bytes / 2;
        for seed in 1..=6u64 {
            let mut rng = hef_testutil::Rng::seed_from_u64(seed);
            let cache = PageCache::with_shards(cap, 1);
            let mut model = ClockModel::new(cap, true);
            let (mut admitted, mut declined) = (0, 0);
            for step in 0..2000 {
                let hot = seed % 2 == 1 && rng.gen_below(2) == 0;
                let page = rng.gen_below(if hot { 3 } else { 12 }) as u32;
                let key = PageKey { column: 7, page };
                let hit = cache.get(key).is_some();
                assert_eq!(
                    hit,
                    model.get(page),
                    "seed {seed} step {step}: hit/miss diverged on page {page}"
                );
                if !hit {
                    let cached = cache.insert(key, Arc::clone(&p));
                    assert_eq!(cached, model.insert(page, bytes), "seed {seed} step {step}");
                    if cached {
                        admitted += 1;
                    } else {
                        declined += 1;
                    }
                }
                assert_eq!(cache.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(cache.used_bytes(), model.used, "seed {seed} step {step}");
                assert!(cache.used_bytes() <= cache.capacity());
            }
            assert!(
                admitted > 4 && declined > 0,
                "seed {seed}: {admitted} admitted, {declined} declined"
            );
            // Same trace ⇒ same survivors: eviction and admission follow
            // the model.
            for page in 0..12u32 {
                assert_eq!(
                    lock(&cache.shards[0]).map.contains_key(&PageKey { column: 7, page }),
                    model.contains(page),
                    "seed {seed}: final residency diverged on page {page}"
                );
            }
        }
    }

    /// A loop over 1.5× the capacity: the plain clock evicts every page
    /// just before its next use and never hits; admission keeps the pages
    /// it holds, because every page is looked up equally often and ties go
    /// to the resident. Hits count from the second sweep on.
    #[test]
    fn looping_scan_larger_than_the_cache_keeps_hitting() {
        let p = page_of(&(0..512u64).collect::<Vec<_>>());
        let cap = p.bytes() * 8 + p.bytes() / 2;
        let cache = PageCache::with_shards(cap, 1);
        let mut plain = ClockModel::new(cap, false);
        let (passes, n) = (40, 12u32);
        let (mut hits, mut plain_hits) = (0, 0);
        for pass in 0..passes {
            for page in 0..n {
                let key = PageKey { column: 3, page };
                let hit = cache.get(key).is_some();
                if !hit {
                    cache.insert(key, Arc::clone(&p));
                }
                let plain_hit = plain.get(page);
                if !plain_hit {
                    plain.insert(page, p.bytes());
                }
                if pass > 0 {
                    hits += hit as usize;
                    plain_hits += plain_hit as usize;
                }
                assert!(cache.used_bytes() <= cache.capacity());
            }
        }
        let lookups = n as usize * (passes - 1);
        assert_eq!(plain_hits, 0);
        assert!(hits as f64 >= 0.6 * lookups as f64, "{hits} hits of {lookups} lookups");
    }

    /// A hot set that fits replaces a stale one within two aging windows
    /// (10 lookups per resident page each): the old pages' counts stop
    /// growing and halve, the new pages' counts grow on every sweep.
    #[test]
    fn new_hot_set_is_adopted_within_two_aging_windows() {
        let p = page_of(&(0..512u64).collect::<Vec<_>>());
        let resident = 8;
        let cache = PageCache::with_shards(p.bytes() * resident + p.bytes() / 2, 1);
        let sweep = |first: u32| {
            for page in first..first + resident as u32 {
                let key = PageKey { column: 5, page };
                if cache.get(key).is_none() {
                    cache.insert(key, Arc::clone(&p));
                }
            }
        };
        // Saturate the old set's counts.
        for _ in 0..40 {
            sweep(0);
        }
        let window = 10 * resident;
        let adopted = |first: u32| {
            (first..first + resident as u32).all(|page| {
                lock(&cache.shards[0]).map.contains_key(&PageKey { column: 5, page })
            })
        };
        let mut lookups = 0;
        while !adopted(100) {
            assert!(lookups < 2 * window, "new hot set not adopted after {lookups} lookups");
            sweep(100);
            lookups += resident;
        }
        assert!(lookups > 0);
    }

    /// SSB's access shape: 13 queries, in seeded shuffles, each sweep every
    /// page of its 4–6 columns out of 9, in stage order, every query
    /// reading the order date. Pages are sized by each column's bit width,
    /// and the cache holds two thirds of the pages. Admission keeps the
    /// columns many queries read, and misses at most 60% of the bytes the
    /// plain clock misses.
    #[test]
    fn ssb_shaped_replay_misses_far_fewer_bytes_than_the_plain_clock() {
        // orderdate, quantity, discount, extendedprice, revenue,
        // supplycost, custkey, partkey, suppkey.
        let widths = [12u32, 6, 4, 23, 23, 17, 15, 18, 11];
        let pages: Vec<Arc<Page>> = widths
            .iter()
            .map(|&w| page_of(&(0..4096u64).map(|i| (i * 7919) % (1 << w)).collect::<Vec<_>>()))
            .collect();
        // The column sets of Q1.x (3 queries), Q2.x (3), Q3.x (4) and Q4.x
        // (3), in stage order.
        let flights: [(&[usize], usize); 4] =
            [(&[0, 2, 1, 3], 3), (&[0, 7, 8, 4], 3), (&[0, 6, 8, 4], 4), (&[0, 6, 8, 7, 4, 5], 3)];
        let queries: Vec<&[usize]> =
            flights.iter().flat_map(|&(cols, n)| std::iter::repeat_n(cols, n)).collect();
        assert_eq!(queries.len(), 13);
        let per_col = 16u32;
        let total: usize = pages.iter().map(|p| p.bytes() * per_col as usize).sum();
        let cap = total * 2 / 3;
        for seed in [21u64, 22, 23] {
            let mut rng = hef_testutil::Rng::seed_from_u64(seed);
            let cache = PageCache::with_shards(cap, 1);
            let mut plain = ClockModel::new(cap, false);
            let (mut missed, mut plain_missed) = (0usize, 0usize);
            for _ in 0..12 {
                let mut order: Vec<usize> = (0..queries.len()).collect();
                rng.shuffle(&mut order);
                for &q in &order {
                    for page in 0..per_col {
                        for &c in queries[q] {
                            let (p, bytes) = (&pages[c], pages[c].bytes());
                            let key = PageKey { column: c as u64, page };
                            if cache.get(key).is_none() {
                                missed += bytes;
                                cache.insert(key, Arc::clone(p));
                            }
                            let id = c as u32 * 1000 + page;
                            if !plain.get(id) {
                                plain_missed += bytes;
                                plain.insert(id, bytes);
                            }
                        }
                    }
                    assert!(cache.used_bytes() <= cache.capacity());
                }
            }
            assert!(
                missed as f64 <= 0.6 * plain_missed as f64,
                "seed {seed}: admission missed {missed} bytes, plain clock {plain_missed}"
            );
        }
    }

    #[test]
    fn paged_column_reads_through_cache() {
        let dir = std::env::temp_dir().join("hef-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.hefc");
        let vals: Vec<u64> = (0..5000u64).collect();
        save_paged_column(&Column::new("c", vals.clone()), &path, 1024).unwrap();
        let col = PagedColumn::open(&path).unwrap();
        let cache = PageCache::new(1 << 20);
        let mut out = Vec::new();
        for i in 0..col.page_count() {
            cache.page(&col, i).unwrap().decode_append(&mut out);
            // Second fetch must come from cache (same Arc).
            let again = cache.page(&col, i).unwrap();
            assert_eq!(again.rows(), col.pages()[i].rows as usize);
        }
        assert_eq!(out, vals);
        std::fs::remove_file(&path).ok();
    }

    /// A file rewritten at the same path while the cache lives must never
    /// be served its predecessor's pages — also when the rewrite keeps the
    /// page geometry (same row count, widths and page lengths) and only
    /// the values change, and when it salvages through a damaged footer.
    #[test]
    fn rewritten_file_never_hits_stale_pages() {
        let dir = std::env::temp_dir().join(format!("hef-cache-rewrite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.hefc");
        let cache = PageCache::new(1 << 20);
        let read_all = |col: &PagedColumn| {
            let mut out = Vec::new();
            for i in 0..col.page_count() {
                cache.page(col, i).unwrap().decode_append(&mut out);
            }
            out
        };
        let first: Vec<u64> = (0..5000u64).map(|i| 1000 + i % 700).collect();
        save_paged_column(&Column::new("c", first.clone()), &path, 1024).unwrap();
        let col = PagedColumn::open(&path).unwrap();
        assert_eq!(read_all(&col), first);

        // Same geometry: every value shifts by one, so widths and page
        // lengths are unchanged and only page contents differ.
        let second: Vec<u64> = first.iter().map(|v| v + 1).collect();
        save_paged_column(&Column::new("c", second.clone()), &path, 1024).unwrap();
        let reopened = PagedColumn::open(&path).unwrap();
        assert_eq!(reopened.pages().len(), col.pages().len());
        assert_ne!(reopened.column_id(), col.column_id());
        assert_eq!(read_all(&reopened), second);

        // A different geometry, opened through the salvage walk.
        let third: Vec<u64> = (0..3000u64).map(|i| i * 7).collect();
        save_paged_column(&Column::new("c", third.clone()), &path, 1024).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let salvaged = PagedColumn::open(&path).unwrap();
        assert!(!salvaged.issues().is_empty());
        assert_eq!(read_all(&salvaged), third);
        std::fs::remove_dir_all(&dir).ok();
    }
}
