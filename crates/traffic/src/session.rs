//! The sharded session table.
//!
//! A serving system demultiplexes every arriving message to its session
//! state.  The paper's map (one-entry cache in front of a non-empty-
//! bucket chained hash, [`xkernel::map::Map`]) is a single-connection
//! structure; this module scales it to heavy traffic by sharding:
//! power-of-two shards selected from the demux-key hash, each shard its
//! own `Map` — so each shard keeps its *own* address cache, which is
//! exactly the per-shard hot-destination fast path Jain's destination-
//! address-locality study motivates (successive messages cluster on few
//! destinations, so each shard's cache stays hot under Zipf traffic).
//!
//! The address cache in front of each shard's chain walk is a pluggable
//! [`DemuxCache`] policy ([`PolicyKind`]): the seed one-entry cache,
//! direct-mapped, two-way LRU, FIFO or seeded-random replacement.  The
//! seed implementation (the map's own internal one-entry cache) is
//! retained verbatim as [`reference::SessionTable`]; the
//! `policy_equivalence` suite asserts the [`PolicyKind::OneEntry`]
//! path reproduces it bit-identically — values, [`LookupKind`]s and
//! statistics.
//!
//! Residency is bounded per shard; inserting past capacity evicts the
//! oldest binding (insertion order), modelling the finite connection
//! cache of a production demultiplexer.  Eviction invalidates the
//! policy cache, so a cache hit always implies residency.  Hit/miss/
//! eviction counters feed the traffic report.

use std::collections::VecDeque;

use xkernel::map::{LookupKind, Map, MapStats};

use crate::policy::{cache_slot, DemuxCache, PolicyKind};

/// The classifier demux key: the header fields the packet classifier
/// checks before handing a message to the inlined input path
/// (EtherType/protocol are fixed by the stack; what varies per session
/// is the address/port 4-tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemuxKey {
    pub src_ip: u32,
    pub dst_ip: u32,
    pub src_port: u16,
    pub dst_port: u16,
}

/// SplitMix64 finalizer — the same mixer the seeded RNG uses, applied
/// as a hash so shard/bucket selection is deterministic and
/// well-spread.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DemuxKey {
    /// The key of (injective for) session id `id` — ids below 2^40 map
    /// to distinct 4-tuples in a 10.0.0.0/8 client population hitting
    /// one server.
    pub fn for_session(id: u64) -> Self {
        debug_assert!(id < 1 << 40);
        DemuxKey {
            src_ip: 0x0A00_0000 | (id as u32 & 0x00FF_FFFF),
            dst_ip: 0xC0A8_0001,
            src_port: ((id >> 24) & 0xFFFF) as u16,
            dst_port: 7,
        }
    }

    /// Deterministic 64-bit hash of the 4-tuple.
    #[inline]
    pub fn hash(&self) -> u64 {
        let hi = ((self.src_ip as u64) << 32) | self.dst_ip as u64;
        let lo = ((self.src_port as u64) << 16) | self.dst_port as u64;
        mix64(mix64(hi) ^ lo)
    }
}

/// Aggregated table statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    pub lookups: u64,
    /// Address-cache hits (the inlinable fast path).
    pub cache_hits: u64,
    /// Hash-chain hits.
    pub chain_hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Sessions resident when the stats were taken (sums across merged
    /// tables).
    pub resident: u64,
    /// High-water residency (sums across merged tables, since each
    /// table's population is disjoint).
    pub peak_resident: u64,
}

impl TableStats {
    pub fn merge(&mut self, other: &TableStats) {
        self.lookups += other.lookups;
        self.cache_hits += other.cache_hits;
        self.chain_hits += other.chain_hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.resident += other.resident;
        self.peak_resident += other.peak_resident;
    }

    /// Evictions per insertion — how hard the memory budget is pushing
    /// back.  0 means the working set fits.
    pub fn eviction_pressure(&self) -> f64 {
        if self.insertions == 0 {
            0.0
        } else {
            self.evictions as f64 / self.insertions as f64
        }
    }

    /// Fraction of lookups satisfied without a miss.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.cache_hits + self.chain_hits) as f64 / self.lookups as f64
        }
    }

    /// Fraction of *all* lookups satisfied by the address cache — the
    /// policy's figure of merit in the demux-locality study.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.lookups as f64
        }
    }
}

struct Shard<V> {
    map: Map<DemuxKey, V>,
    /// The pluggable address cache in front of the chain walk.
    cache: DemuxCache<V>,
    /// Insertion order, for capacity eviction.
    order: VecDeque<DemuxKey>,
}

/// The table: power-of-two shards, bounded residency per shard, a
/// pluggable address-cache policy per shard.
pub struct SessionTable<V> {
    shards: Vec<Shard<V>>,
    mask: u64,
    capacity_per_shard: usize,
    policy: PolicyKind,
    lookups: u64,
    cache_hits: u64,
    chain_hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    peak_resident: usize,
}

impl<V: Clone> SessionTable<V> {
    /// `shards` must be a power of two; each shard holds at most
    /// `capacity_per_shard` sessions over `buckets_per_shard` hash
    /// buckets, behind the seed one-entry address cache.
    pub fn new(shards: usize, capacity_per_shard: usize, buckets_per_shard: usize) -> Self {
        Self::with_policy(shards, capacity_per_shard, buckets_per_shard, PolicyKind::OneEntry, 0)
    }

    /// [`SessionTable::new`] with an explicit address-cache policy.
    /// `seed` feeds random-replacement shards (each shard's stream is
    /// derived from `(seed, shard index)`, so runs are deterministic).
    pub fn with_policy(
        shards: usize,
        capacity_per_shard: usize,
        buckets_per_shard: usize,
        policy: PolicyKind,
        seed: u64,
    ) -> Self {
        assert!(shards.is_power_of_two(), "shard count must be a power of two");
        assert!(capacity_per_shard > 0);
        SessionTable {
            shards: (0..shards)
                .map(|i| Shard {
                    map: Map::new(buckets_per_shard),
                    cache: DemuxCache::new(policy, mix64(seed ^ (i as u64 + 1))),
                    order: VecDeque::with_capacity(capacity_per_shard + 1),
                })
                .collect(),
            mask: shards as u64 - 1,
            capacity_per_shard,
            policy,
            lookups: 0,
            cache_hits: 0,
            chain_hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            peak_resident: 0,
        }
    }

    /// Modelled bytes one resident session costs: the key lives twice
    /// (map node and eviction queue), plus the value and two pointers
    /// of per-node overhead.  This is what converts a per-shard memory
    /// budget into a residency capacity.
    pub fn entry_bytes() -> usize {
        2 * std::mem::size_of::<DemuxKey>() + std::mem::size_of::<V>() + 2 * std::mem::size_of::<usize>()
    }

    /// Residency capacity a per-shard memory budget of `bytes` buys
    /// (at least one session).
    pub fn capacity_for_budget(bytes: usize) -> usize {
        (bytes / Self::entry_bytes()).max(1)
    }

    /// Build a table from a per-shard *memory* budget instead of an
    /// entry count; bucket count scales with the derived capacity so
    /// chains stay short at million-session populations.
    pub fn with_shard_budget(shards: usize, bytes_per_shard: usize) -> Self {
        let capacity = Self::capacity_for_budget(bytes_per_shard);
        Self::new(shards, capacity, buckets_for_capacity(capacity))
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn capacity_per_shard(&self) -> usize {
        self.capacity_per_shard
    }

    /// The address-cache policy every shard runs.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Current residency of every shard, in shard order.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.map.len()).collect()
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which shard a key routes to (high hash bits, decorrelated from
    /// the bucket index the shard's map derives from the same hash).
    #[inline]
    pub fn shard_of(&self, key: &DemuxKey) -> usize {
        ((key.hash() >> 17) & self.mask) as usize
    }

    /// Demultiplex: look `key` up in its shard — policy cache first
    /// (the inlinable fast path), chain walk second.  The
    /// [`LookupKind`] tells the caller which cost path the lookup took.
    pub fn lookup(&mut self, key: &DemuxKey) -> (Option<V>, LookupKind) {
        let h = key.hash();
        let s = ((h >> 17) & self.mask) as usize;
        self.lookups += 1;
        let shard = &mut self.shards[s];
        if let Some(v) = shard.cache.probe(h, key) {
            self.cache_hits += 1;
            return (Some(v), LookupKind::CacheHit);
        }
        if let Some(v) = shard.map.probe(h, key) {
            let v = v.clone();
            self.chain_hits += 1;
            shard.cache.fill(h, *key, v.clone());
            return (Some(v), LookupKind::ChainHit);
        }
        self.misses += 1;
        (None, LookupKind::Miss)
    }

    /// Insert a binding, evicting the shard's oldest binding if the
    /// shard is at capacity.  Rebinding an existing key refreshes its
    /// value without consuming capacity.
    pub fn insert(&mut self, key: DemuxKey, value: V) {
        let h = key.hash();
        let s = ((h >> 17) & self.mask) as usize;
        let cap = self.capacity_per_shard;
        let shard = &mut self.shards[s];
        let before = shard.map.len();
        shard.cache.rebind(h, &key, &value);
        shard.map.bind(h, key, value);
        if shard.map.len() == before {
            return; // rebind of a live key
        }
        self.insertions += 1;
        shard.order.push_back(key);
        if shard.map.len() > cap {
            if let Some(old) = shard.order.pop_front() {
                let oh = old.hash();
                shard.map.unbind(oh, &old);
                shard.cache.invalidate(oh, &old);
                self.evictions += 1;
            }
        }
        // Residency only grows on a non-evicting insert; evictions keep
        // it flat, so the running peak is exact.
        self.peak_resident = self.peak_resident.max((self.insertions - self.evictions) as usize);
    }

    /// Aggregated statistics across all shards.
    pub fn stats(&self) -> TableStats {
        TableStats {
            lookups: self.lookups,
            cache_hits: self.cache_hits,
            chain_hits: self.chain_hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            resident: self.len() as u64,
            peak_resident: self.peak_resident as u64,
        }
    }
}

/// Hash buckets a shard of `capacity` sessions should spread over:
/// ~4 sessions per bucket, clamped to the seed's 16-bucket floor (so
/// existing small configurations are bit-unchanged) and a 8192 ceiling.
pub fn buckets_for_capacity(capacity: usize) -> usize {
    (capacity / 4).next_power_of_two().clamp(16, 8192)
}

/// Session ranks (of one worker's population) that collide in both
/// shard space and the address-cache slot space of a direct-mapped /
/// set-indexed policy with `slots` slots: the raw material of the
/// adversarial conflict stream.  Ranks are returned in ascending order
/// from the largest colliding group, truncated to `cycle` members.
pub fn conflict_cycle(
    sessions: u32,
    workers: u32,
    worker_idx: u32,
    shards: u32,
    slots: u32,
    cycle: u32,
) -> Vec<u32> {
    assert!(slots.is_power_of_two());
    assert!(shards.is_power_of_two());
    let slot_mask = slots as u64 - 1;
    let shard_mask = shards as u64 - 1;
    let mut groups: std::collections::HashMap<(usize, usize), Vec<u32>> =
        std::collections::HashMap::new();
    for rank in 0..sessions.max(1) {
        let id = rank as u64 * workers as u64 + worker_idx as u64;
        let h = DemuxKey::for_session(id).hash();
        let shard = ((h >> 17) & shard_mask) as usize;
        let slot = cache_slot(h, slot_mask);
        groups.entry((shard, slot)).or_default().push(rank);
    }
    // Deterministic winner: largest group, ties broken by (shard, slot).
    let mut best: Vec<u32> = Vec::new();
    let mut best_key = (usize::MAX, usize::MAX);
    for (k, v) in groups {
        if v.len() > best.len() || (v.len() == best.len() && k < best_key) {
            best = v;
            best_key = k;
        }
    }
    best.sort_unstable();
    best.truncate(cycle.max(2) as usize);
    best
}

/// The seed session table, retained verbatim: each shard's address
/// cache is the x-kernel map's *internal* one-entry cache and the
/// statistics come from the summed [`MapStats`].  The pluggable-policy
/// table's [`PolicyKind::OneEntry`] path must reproduce this structure
/// bit-identically — returned values, [`LookupKind`]s and
/// [`TableStats`] — which `traffic/tests/policy_equivalence.rs` asserts
/// over seeded workloads.
pub mod reference {
    use super::*;

    struct Shard<V> {
        map: Map<DemuxKey, V>,
        order: VecDeque<DemuxKey>,
    }

    /// The seed table: power-of-two shards, bounded residency.
    pub struct SessionTable<V> {
        shards: Vec<Shard<V>>,
        mask: u64,
        capacity_per_shard: usize,
        insertions: u64,
        evictions: u64,
        peak_resident: usize,
    }

    impl<V: Clone> SessionTable<V> {
        pub fn new(shards: usize, capacity_per_shard: usize, buckets_per_shard: usize) -> Self {
            assert!(shards.is_power_of_two(), "shard count must be a power of two");
            assert!(capacity_per_shard > 0);
            SessionTable {
                shards: (0..shards)
                    .map(|_| Shard {
                        map: Map::new(buckets_per_shard),
                        order: VecDeque::with_capacity(capacity_per_shard + 1),
                    })
                    .collect(),
                mask: shards as u64 - 1,
                capacity_per_shard,
                insertions: 0,
                evictions: 0,
                peak_resident: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.shards.iter().map(|s| s.map.len()).sum()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn lookup(&mut self, key: &DemuxKey) -> (Option<V>, LookupKind) {
            let h = key.hash();
            let s = ((h >> 17) & self.mask) as usize;
            self.shards[s].map.lookup(h, key)
        }

        pub fn insert(&mut self, key: DemuxKey, value: V) {
            let h = key.hash();
            let s = ((h >> 17) & self.mask) as usize;
            let cap = self.capacity_per_shard;
            let shard = &mut self.shards[s];
            let before = shard.map.len();
            shard.map.bind(h, key, value);
            if shard.map.len() == before {
                return; // rebind of a live key
            }
            self.insertions += 1;
            shard.order.push_back(key);
            if shard.map.len() > cap {
                if let Some(old) = shard.order.pop_front() {
                    shard.map.unbind(old.hash(), &old);
                    self.evictions += 1;
                }
            }
            self.peak_resident =
                self.peak_resident.max((self.insertions - self.evictions) as usize);
        }

        pub fn stats(&self) -> TableStats {
            let mut m = MapStats::default();
            for s in &self.shards {
                m.merge(&s.map.stats);
            }
            TableStats {
                lookups: m.lookups,
                cache_hits: m.cache_hits,
                chain_hits: m.chain_hits,
                misses: m.misses,
                insertions: self.insertions,
                evictions: self.evictions,
                resident: self.len() as u64,
                peak_resident: self.peak_resident as u64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_injective_per_session() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..4096u64 {
            assert!(seen.insert(DemuxKey::for_session(id)), "key collision at {id}");
        }
    }

    #[test]
    fn lookup_miss_insert_hit_cycle() {
        let mut t: SessionTable<u32> = SessionTable::new(4, 8, 16);
        let k = DemuxKey::for_session(42);
        assert_eq!(t.lookup(&k), (None, LookupKind::Miss));
        t.insert(k, 7);
        let (v, kind) = t.lookup(&k);
        assert_eq!(v, Some(7));
        assert_eq!(kind, LookupKind::ChainHit);
        // Second lookup rides the shard's one-entry cache.
        let (v, kind) = t.lookup(&k);
        assert_eq!(v, Some(7));
        assert_eq!(kind, LookupKind::CacheHit);
        let st = t.stats();
        assert_eq!(st.lookups, 3);
        assert_eq!(st.misses, 1);
        assert_eq!(st.chain_hits, 1);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.insertions, 1);
    }

    #[test]
    fn per_shard_caches_are_independent() {
        // Two keys in different shards can both stay cache-hot; a
        // single shared one-entry cache would thrash between them.
        let mut t: SessionTable<u32> = SessionTable::new(16, 8, 16);
        let keys: Vec<DemuxKey> = (0..64).map(DemuxKey::for_session).collect();
        let (a, b) = {
            let first = keys[0];
            let other = *keys[1..]
                .iter()
                .find(|k| t.shard_of(k) != t.shard_of(&first))
                .expect("some key lands in another shard");
            (first, other)
        };
        t.insert(a, 1);
        t.insert(b, 2);
        t.lookup(&a);
        t.lookup(&b);
        let before = t.stats().cache_hits;
        // Alternating lookups — both stay on their shard's cache.
        for _ in 0..10 {
            assert_eq!(t.lookup(&a).1, LookupKind::CacheHit);
            assert_eq!(t.lookup(&b).1, LookupKind::CacheHit);
        }
        assert_eq!(t.stats().cache_hits - before, 20);
    }

    #[test]
    fn capacity_evicts_oldest_and_counts() {
        // Single shard so ordering is easy to reason about.
        let mut t: SessionTable<u32> = SessionTable::new(1, 3, 8);
        let keys: Vec<DemuxKey> = (0..4).map(DemuxKey::for_session).collect();
        for (i, k) in keys.iter().enumerate().take(3) {
            t.insert(*k, i as u32);
        }
        assert_eq!(t.len(), 3);
        t.insert(keys[3], 3); // evicts keys[0]
        assert_eq!(t.len(), 3);
        assert_eq!(t.stats().evictions, 1);
        assert_eq!(t.lookup(&keys[0]), (None, LookupKind::Miss));
        assert_eq!(t.lookup(&keys[3]).0, Some(3));
    }

    #[test]
    fn rebind_does_not_consume_capacity() {
        let mut t: SessionTable<u32> = SessionTable::new(1, 2, 8);
        let k0 = DemuxKey::for_session(0);
        let k1 = DemuxKey::for_session(1);
        t.insert(k0, 0);
        t.insert(k1, 1);
        t.insert(k0, 99); // rebind, no eviction
        assert_eq!(t.stats().evictions, 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(&k0).0, Some(99));
    }

    #[test]
    fn rebind_updates_cached_value() {
        let mut t: SessionTable<u32> = SessionTable::new(1, 4, 8);
        let k = DemuxKey::for_session(9);
        t.insert(k, 1);
        t.lookup(&k); // chain hit fills the cache
        t.insert(k, 2); // rebind must update the cached value
        let (v, kind) = t.lookup(&k);
        assert_eq!(v, Some(2));
        assert_eq!(kind, LookupKind::CacheHit);
    }

    #[test]
    fn eviction_invalidates_policy_cache() {
        // Fill a cached key out of the table; the cache must not keep
        // serving it.  FIFO's 8 slots would otherwise retain it.
        let mut t: SessionTable<u32> =
            SessionTable::with_policy(1, 2, 8, PolicyKind::Fifo { slots: 8 }, 0);
        let keys: Vec<DemuxKey> = (0..3).map(DemuxKey::for_session).collect();
        t.insert(keys[0], 0);
        t.lookup(&keys[0]); // cached
        t.insert(keys[1], 1);
        t.insert(keys[2], 2); // evicts keys[0] from the table
        assert_eq!(t.lookup(&keys[0]), (None, LookupKind::Miss));
    }

    #[test]
    fn shard_routing_spreads_sessions() {
        let t: SessionTable<u32> = SessionTable::new(8, 64, 64);
        let mut per_shard = [0usize; 8];
        for id in 0..512u64 {
            per_shard[t.shard_of(&DemuxKey::for_session(id))] += 1;
        }
        for (s, &n) in per_shard.iter().enumerate() {
            assert!(n > 20, "shard {s} got only {n}/512 sessions");
        }
    }

    #[test]
    fn conflict_cycle_collides_in_shard_and_slot() {
        let (sessions, workers, widx, shards, slots) = (512, 4, 1, 8, 8);
        let cycle = conflict_cycle(sessions, workers, widx, shards, slots, 6);
        assert!(cycle.len() >= 2, "need a real collision group, got {cycle:?}");
        let fingerprint = |rank: u32| {
            let h = DemuxKey::for_session(rank as u64 * workers as u64 + widx as u64).hash();
            (((h >> 17) & (shards as u64 - 1)) as usize, cache_slot(h, slots as u64 - 1))
        };
        let f0 = fingerprint(cycle[0]);
        for &r in &cycle {
            assert_eq!(fingerprint(r), f0, "rank {r} does not collide");
        }
    }
}
