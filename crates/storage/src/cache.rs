//! Bounded shared page cache: sharded clock (second-chance) eviction,
//! lock-light enough to sit between morsel workers and the paged column
//! reader.
//!
//! The caller picks the capacity (the storage crate reads no environment;
//! `repro` takes it from `HEF_PAGE_CACHE`). It is split evenly across
//! shards; each shard is an independent clock so the only synchronization
//! between workers touching different pages is a shard-local mutex with
//! O(1) critical sections.
//! Hits, misses, and evictions are counted in the metrics registry
//! (`storage.page_cache_*`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hef_obs::metrics::{self, Metric};

use crate::file::ColumnFileError;
use crate::page::{Page, PagedColumn};

/// Default cache capacity: 64 MiB.
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

const SHARDS: usize = 8;

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
}

impl Shard {
    fn get(&mut self, key: PageKey) -> Option<Arc<Page>> {
        let idx = *self.map.get(&key)?;
        let slot = self.slots[idx].as_mut().expect("mapped slot occupied");
        slot.referenced = true;
        Some(Arc::clone(&slot.page))
    }

    /// Advance the clock hand until one unreferenced slot is evicted.
    /// Returns `false` when the shard is empty.
    fn evict_one(&mut self) -> bool {
        if self.map.is_empty() {
            return false;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            let idx = self.hand;
            self.hand += 1;
            let Some(slot) = self.slots[idx].as_mut() else { continue };
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            let slot = self.slots[idx].take().unwrap();
            self.map.remove(&slot.key);
            self.used -= slot.bytes;
            self.free.push(idx);
            metrics::add(Metric::PageCacheEvictions, 1);
            return true;
        }
    }

    fn insert(&mut self, key: PageKey, page: Arc<Page>, bytes: usize, cap: usize) {
        if self.map.contains_key(&key) {
            return;
        }
        while self.used + bytes > cap {
            if !self.evict_one() {
                break;
            }
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

    /// Drop every cached page.
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

    /// Look up a page; counts a hit or miss.
    pub fn get(&self, key: PageKey) -> Option<Arc<Page>> {
        let found = lock(self.shard_for(key)).get(key);
        metrics::add(
            if found.is_some() { Metric::PageCacheHits } else { Metric::PageCacheMisses },
            1,
        );
        found
    }

    /// Insert a page, evicting until it fits its shard. A page larger than
    /// a whole shard is not cached at all — the bound is strict.
    pub fn insert(&self, key: PageKey, page: Arc<Page>) {
        let bytes = page.bytes();
        if bytes > self.shard_cap {
            return;
        }
        lock(self.shard_for(key)).insert(key, page, bytes, self.shard_cap);
    }

    /// Fetch page `idx` of `col` through the cache, reading + parsing it on
    /// a miss.
    pub fn page(&self, col: &PagedColumn, idx: usize) -> Result<Arc<Page>, ColumnFileError> {
        let key = PageKey { column: col.column_id(), page: idx as u32 };
        if let Some(p) = self.get(key) {
            return Ok(p);
        }
        let page = Arc::new(col.read_page(idx)?);
        self.insert(key, Arc::clone(&page));
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

    /// Executable specification of one shard's clock: same slot vector,
    /// LIFO free list, hand sweep, and second-chance bit as [`Shard`], but
    /// written against page ids instead of [`Arc<Page>`]s. The property
    /// test replays seeded access traces through both and demands they
    /// agree — any drift in eviction *order* (not just the byte bound)
    /// shows up as a resident-set mismatch within a few steps.
    struct ClockModel {
        slots: Vec<Option<(u32, bool)>>,
        free: Vec<usize>,
        hand: usize,
        used: usize,
        bytes: usize,
        cap: usize,
    }

    impl ClockModel {
        fn new(bytes: usize, cap: usize) -> ClockModel {
            ClockModel { slots: Vec::new(), free: Vec::new(), hand: 0, used: 0, bytes, cap }
        }

        fn contains(&self, page: u32) -> bool {
            self.slots.iter().flatten().any(|&(p, _)| p == page)
        }

        fn get(&mut self, page: u32) -> bool {
            match self.slots.iter_mut().flatten().find(|(p, _)| *p == page) {
                Some(slot) => {
                    slot.1 = true;
                    true
                }
                None => false,
            }
        }

        fn evict_one(&mut self) -> bool {
            if self.slots.iter().all(Option::is_none) {
                return false;
            }
            loop {
                if self.hand >= self.slots.len() {
                    self.hand = 0;
                }
                let idx = self.hand;
                self.hand += 1;
                let Some(slot) = self.slots[idx].as_mut() else { continue };
                if slot.1 {
                    slot.1 = false;
                    continue;
                }
                self.slots[idx] = None;
                self.used -= self.bytes;
                self.free.push(idx);
                return true;
            }
        }

        fn insert(&mut self, page: u32) {
            if self.contains(page) {
                return;
            }
            while self.used + self.bytes > self.cap {
                if !self.evict_one() {
                    break;
                }
            }
            match self.free.pop() {
                Some(i) => self.slots[i] = Some((page, true)),
                None => self.slots.push(Some((page, true))),
            }
            self.used += self.bytes;
        }

        fn len(&self) -> usize {
            self.slots.iter().flatten().count()
        }
    }

    #[test]
    fn seeded_random_access_matches_reference_clock() {
        let p = page_of(&(0..512u64).collect::<Vec<_>>());
        let bytes = p.bytes();
        // Room for 4 pages out of 12: every trace evicts constantly.
        let cap = bytes * 4 + bytes / 2;
        for seed in 1..=6u64 {
            let mut rng = hef_testutil::Rng::seed_from_u64(seed);
            let cache = PageCache::with_shards(cap, 1);
            let mut model = ClockModel::new(bytes, cap);
            for step in 0..2000 {
                let page = rng.gen_below(12) as u32;
                let key = PageKey { column: 7, page };
                let hit = cache.get(key).is_some();
                assert_eq!(
                    hit,
                    model.get(page),
                    "seed {seed} step {step}: hit/miss diverged on page {page}"
                );
                if !hit {
                    cache.insert(key, Arc::clone(&p));
                    model.insert(page);
                }
                assert_eq!(cache.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(cache.used_bytes(), model.used, "seed {seed} step {step}");
                assert!(cache.used_bytes() <= cache.capacity());
            }
            // Same trace ⇒ same survivors: the eviction order is the model's.
            for page in 0..12u32 {
                assert_eq!(
                    cache.get(PageKey { column: 7, page }).is_some(),
                    model.contains(page),
                    "seed {seed}: final residency diverged on page {page}"
                );
            }
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
