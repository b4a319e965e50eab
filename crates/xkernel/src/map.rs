//! The x-kernel demultiplexing map.
//!
//! A fixed-size chained hash table with two features the paper leans on:
//!
//! 1. **One-entry cache** (after Mogul's packet-train observation):
//!    successive packets usually belong to the same connection, so the
//!    last binding returned is cached and re-checked with a handful of
//!    instructions before any hashing happens.  The paper's "conditional
//!    inlining" makes exactly this cache test inline at the call site —
//!    [`Map::lookup`] reports whether the hit came from the cache so the
//!    KIR model can charge the inlined fast path.
//! 2. **Non-empty-bucket list with lazy deletion** (Section 2.2.1): the
//!    map chains non-empty buckets so traversal visits only occupied
//!    buckets.  Removals do *not* unlink a bucket that becomes empty —
//!    the next traversal unlinks it for free as it walks.  Traversal
//!    cost is therefore proportional to the number of (recently)
//!    non-empty buckets, not to table size, which is what let TCP drop
//!    its separate open-connection list.

/// Outcome of a lookup, distinguishing the fast path for cost modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupKind {
    /// Satisfied by the one-entry cache (the inlinable fast path).
    CacheHit,
    /// Found by walking the hash chain.
    ChainHit,
    /// Not present.
    Miss,
}

#[derive(Debug, Clone)]
struct Binding<K, V> {
    key: K,
    value: V,
}

#[derive(Debug, Clone)]
struct Bucket<K, V> {
    chain: Vec<Binding<K, V>>,
    /// Is this bucket currently linked into the non-empty list?
    on_list: bool,
}

/// Traversal statistics, for the Section-2.2.1 microbenchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapStats {
    pub lookups: u64,
    pub cache_hits: u64,
    pub chain_hits: u64,
    pub misses: u64,
    /// Buckets examined by traversals (on-list walk).
    pub traverse_bucket_visits: u64,
    /// Buckets examined had the traversal scanned the whole table.
    pub traverse_full_scan_equivalent: u64,
}

impl MapStats {
    /// Accumulate another map's counters (a sharded table aggregates
    /// its per-shard maps this way).
    pub fn merge(&mut self, other: &MapStats) {
        self.lookups += other.lookups;
        self.cache_hits += other.cache_hits;
        self.chain_hits += other.chain_hits;
        self.misses += other.misses;
        self.traverse_bucket_visits += other.traverse_bucket_visits;
        self.traverse_full_scan_equivalent += other.traverse_full_scan_equivalent;
    }
}

/// The map.  `N` buckets, chained; keys must hash via the caller-supplied
/// function to keep the model faithful to the x-kernel's byte-string
/// keys (and deterministic across runs).
#[derive(Debug, Clone)]
pub struct Map<K, V> {
    buckets: Vec<Bucket<K, V>>,
    /// Indices of buckets linked as (possibly stale) non-empty.
    nonempty: Vec<usize>,
    /// One-entry cache: the last binding returned by `lookup`.
    cache: Option<(K, V)>,
    len: usize,
    pub stats: MapStats,
}

impl<K: Eq + Clone, V: Clone> Map<K, V> {
    /// Create a map with `nbuckets` buckets.
    pub fn new(nbuckets: usize) -> Self {
        assert!(nbuckets > 0);
        Map {
            buckets: (0..nbuckets)
                .map(|_| Bucket { chain: Vec::new(), on_list: false })
                .collect(),
            nonempty: Vec::new(),
            cache: None,
            len: 0,
            stats: MapStats::default(),
        }
    }

    pub fn nbuckets(&self) -> usize {
        self.buckets.len()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn index(&self, hash: u64) -> usize {
        (hash % self.buckets.len() as u64) as usize
    }

    /// Bind `key` (with externally computed `hash`) to `value`.
    /// Replaces any existing binding for the key.
    pub fn bind(&mut self, hash: u64, key: K, value: V) {
        let idx = self.index(hash);
        let bucket = &mut self.buckets[idx];
        if let Some(b) = bucket.chain.iter_mut().find(|b| b.key == key) {
            b.value = value;
            // Keep the cache coherent.
            if let Some((ck, cv)) = &mut self.cache {
                if *ck == b.key {
                    *cv = b.value.clone();
                }
            }
            return;
        }
        bucket.chain.push(Binding { key, value });
        self.len += 1;
        if !bucket.on_list {
            bucket.on_list = true;
            self.nonempty.push(idx);
        }
    }

    /// Look up `key`.  Returns the value and how it was found.
    pub fn lookup(&mut self, hash: u64, key: &K) -> (Option<V>, LookupKind) {
        self.stats.lookups += 1;
        if let Some((ck, cv)) = &self.cache {
            if ck == key {
                self.stats.cache_hits += 1;
                return (Some(cv.clone()), LookupKind::CacheHit);
            }
        }
        let idx = self.index(hash);
        if let Some(b) = self.buckets[idx].chain.iter().find(|b| b.key == *key) {
            self.stats.chain_hits += 1;
            self.cache = Some((b.key.clone(), b.value.clone()));
            return (Some(b.value.clone()), LookupKind::ChainHit);
        }
        self.stats.misses += 1;
        (None, LookupKind::Miss)
    }

    /// Chain-walk probe that bypasses — and does not update — the
    /// one-entry cache and the stats counters.  A caller layering its
    /// *own* address-cache policy in front of the map (the pluggable
    /// demux caches in `traffic::policy`) owns both the cache and the
    /// hit/miss taxonomy; this gives it the bare chain lookup.
    #[inline]
    pub fn probe(&self, hash: u64, key: &K) -> Option<&V> {
        let idx = self.index(hash);
        self.buckets[idx].chain.iter().find(|b| b.key == *key).map(|b| &b.value)
    }

    /// Remove a binding.  The bucket is *not* unlinked from the
    /// non-empty list even if it becomes empty — lazy deletion.
    pub fn unbind(&mut self, hash: u64, key: &K) -> Option<V> {
        let idx = self.index(hash);
        let bucket = &mut self.buckets[idx];
        let pos = bucket.chain.iter().position(|b| b.key == *key)?;
        let removed = bucket.chain.remove(pos);
        self.len -= 1;
        if let Some((ck, _)) = &self.cache {
            if *ck == removed.key {
                self.cache = None;
            }
        }
        Some(removed.value)
    }

    /// Visit every binding, cleaning up stale non-empty-list entries as
    /// we go (the lazy removal pass).  Returns the number of buckets
    /// actually examined — the traversal's cost.
    pub fn for_each(&mut self, mut f: impl FnMut(&K, &V)) -> usize {
        let mut visited = 0usize;
        let mut kept: Vec<usize> = Vec::with_capacity(self.nonempty.len());
        let list = std::mem::take(&mut self.nonempty);
        for idx in list {
            visited += 1;
            let bucket = &mut self.buckets[idx];
            if bucket.chain.is_empty() {
                // Stale: unlink (drop) — trivial since we're walking.
                bucket.on_list = false;
            } else {
                for b in &bucket.chain {
                    f(&b.key, &b.value);
                }
                kept.push(idx);
            }
        }
        self.nonempty = kept;
        self.stats.traverse_bucket_visits += visited as u64;
        self.stats.traverse_full_scan_equivalent += self.buckets.len() as u64;
        visited
    }

    /// Traversal cost if we had to scan the whole table (the pre-change
    /// behaviour) — for the speedup comparison.
    pub fn full_scan_cost(&self) -> usize {
        self.buckets.len()
    }

    /// Number of buckets currently linked (including stale ones awaiting
    /// lazy cleanup).
    pub fn nonempty_list_len(&self) -> usize {
        self.nonempty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(k: u64) -> u64 {
        // Deterministic mixer.
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn bind_lookup_roundtrip() {
        let mut m: Map<u64, &str> = Map::new(64);
        m.bind(hash_of(1), 1, "one");
        m.bind(hash_of(2), 2, "two");
        assert_eq!(m.len(), 2);
        let (v, kind) = m.lookup(hash_of(1), &1);
        assert_eq!(v, Some("one"));
        assert_eq!(kind, LookupKind::ChainHit);
    }

    #[test]
    fn second_lookup_hits_cache() {
        let mut m: Map<u64, u32> = Map::new(64);
        m.bind(hash_of(7), 7, 70);
        let (_, k1) = m.lookup(hash_of(7), &7);
        let (v, k2) = m.lookup(hash_of(7), &7);
        assert_eq!(k1, LookupKind::ChainHit);
        assert_eq!(k2, LookupKind::CacheHit);
        assert_eq!(v, Some(70));
        assert_eq!(m.stats.cache_hits, 1);
    }

    #[test]
    fn cache_updates_on_rebind() {
        let mut m: Map<u64, u32> = Map::new(64);
        m.bind(hash_of(7), 7, 70);
        m.lookup(hash_of(7), &7);
        m.bind(hash_of(7), 7, 71);
        let (v, kind) = m.lookup(hash_of(7), &7);
        assert_eq!(v, Some(71));
        assert_eq!(kind, LookupKind::CacheHit);
    }

    #[test]
    fn probe_bypasses_cache_and_stats() {
        let mut m: Map<u64, u32> = Map::new(64);
        m.bind(hash_of(7), 7, 70);
        assert_eq!(m.probe(hash_of(7), &7), Some(&70));
        assert_eq!(m.probe(hash_of(8), &8), None);
        // No stats were bumped and the cache stayed cold: the next
        // lookup is still a chain hit.
        assert_eq!(m.stats.lookups, 0);
        assert_eq!(m.lookup(hash_of(7), &7).1, LookupKind::ChainHit);
    }

    #[test]
    fn unbind_invalidates_cache() {
        let mut m: Map<u64, u32> = Map::new(64);
        m.bind(hash_of(7), 7, 70);
        m.lookup(hash_of(7), &7);
        assert_eq!(m.unbind(hash_of(7), &7), Some(70));
        let (v, kind) = m.lookup(hash_of(7), &7);
        assert_eq!(v, None);
        assert_eq!(kind, LookupKind::Miss);
    }

    #[test]
    fn traversal_visits_only_occupied_buckets() {
        let mut m: Map<u64, u32> = Map::new(256);
        for k in 0..10u64 {
            m.bind(hash_of(k), k, k as u32);
        }
        let mut seen = Vec::new();
        let visited = m.for_each(|k, _| seen.push(*k));
        seen.sort();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(visited <= 10, "visited {visited} buckets for 10 keys");
        assert!(visited < m.full_scan_cost() / 10);
    }

    #[test]
    fn lazy_removal_cleans_on_next_traversal() {
        let mut m: Map<u64, u32> = Map::new(256);
        for k in 0..10u64 {
            m.bind(hash_of(k), k, k as u32);
        }
        for k in 0..9u64 {
            m.unbind(hash_of(k), &k);
        }
        // Stale buckets still linked.
        assert!(m.nonempty_list_len() >= 9);
        // First traversal walks stale buckets once and unlinks them.
        let first = m.for_each(|_, _| {});
        assert!(first >= 9);
        // Second traversal is cheap.
        let second = m.for_each(|_, _| {});
        assert!(second <= 2, "stale buckets must be gone, visited {second}");
    }

    #[test]
    fn rebinding_into_stale_bucket_does_not_duplicate_list_entry() {
        let mut m: Map<u64, u32> = Map::new(8);
        m.bind(0, 1, 1);
        m.unbind(0, &1);
        m.bind(0, 1, 2); // bucket still on_list: must not double-link
        assert_eq!(m.nonempty_list_len(), 1);
        let mut n = 0;
        m.for_each(|_, _| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn traversal_speedup_tracks_occupancy() {
        // The paper: traversal speedup is roughly inversely proportional
        // to the fraction of occupied buckets.
        let n = 1000;
        for occupied in [10usize, 100, 500] {
            let mut m: Map<u64, u32> = Map::new(n);
            let mut placed = 0;
            let mut k = 0u64;
            while placed < occupied {
                // Force distinct buckets for a clean occupancy count.
                let h = k;
                if m.buckets[(h % n as u64) as usize].chain.is_empty() {
                    m.bind(h, k, 0);
                    placed += 1;
                }
                k += 1;
            }
            let visited = m.for_each(|_, _| {});
            let speedup = m.full_scan_cost() as f64 / visited as f64;
            let expected = n as f64 / occupied as f64;
            assert!(
                (speedup / expected - 1.0).abs() < 0.25,
                "occupancy {occupied}: speedup {speedup:.1} vs expected {expected:.1}"
            );
        }
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut m: Map<u64, u32> = Map::new(16);
        m.bind(hash_of(1), 1, 1);
        m.lookup(hash_of(1), &1);
        m.lookup(hash_of(1), &1);
        m.lookup(hash_of(2), &2);
        let mut total = MapStats::default();
        total.merge(&m.stats);
        total.merge(&m.stats);
        assert_eq!(total.lookups, 6);
        assert_eq!(total.cache_hits, 2);
        assert_eq!(total.chain_hits, 2);
        assert_eq!(total.misses, 2);
    }

    #[test]
    fn collisions_chain_within_bucket() {
        let mut m: Map<u64, u32> = Map::new(4);
        // All to bucket 0.
        m.bind(0, 10, 1);
        m.bind(4, 14, 2);
        m.bind(8, 18, 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.lookup(4, &14).0, Some(2));
        assert_eq!(m.lookup(8, &18).0, Some(3));
        let mut count = 0;
        m.for_each(|_, _| count += 1);
        assert_eq!(count, 3);
    }
}
