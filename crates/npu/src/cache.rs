//! Policy-output cache keyed on quantized feature vectors.
//!
//! Fleet epochs repeat states: a board whose thermal/QoS features land on
//! the same int8 code points as a previous request would recompute the
//! identical forward pass. Because the fused kernel's output is a pure
//! function of `(quantized input, scale, rows)` — quantization happens
//! before the cache key is formed, and everything downstream is
//! deterministic integer/IEEE arithmetic — replaying a cached output is
//! *bit-identical* to recomputing it, not an approximation.
//!
//! The key is FNV-64 over the int8 row bytes, the scale bits, and the row
//! count, computed once per group by [`PolicyCache::probe`], which hands
//! it back on a miss for the [`PolicyCache::insert`] that follows; the
//! map uses it as its hash as
//! it is, without hashing it again. Hash collisions are guarded by
//! comparing the stored key material. Eviction is FIFO (deterministic,
//! no recency bookkeeping on the hot path): slots fill in order and are
//! never freed, so the oldest entry is always the next slot round the
//! ring, and an evicted slot's buffers hold its successor. The cache
//! only ever replaces wall-clock numeric compute: simulated device time,
//! batching, and occupancy are charged identically on hits and misses
//! (regression-tested in `npu-serve`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hit/miss counters of a [`PolicyCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that found nothing (or a colliding entry).
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries displaced by FIFO capacity eviction.
    pub evictions: u64,
    /// Probes whose FNV-64 key matched a resident entry with different
    /// key material (counted within `misses`).
    pub collisions: u64,
}

impl CacheStats {
    /// Hits per probe; 0.0 before the first probe.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Hashes a `u64` key to itself: cache keys are FNV-64 digests already.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("cache keys are hashed as u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// The FNV-64 key of a quantized group, handed back by a missed
/// [`PolicyCache::probe`] for the [`PolicyCache::insert`] of its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey(u64);

#[derive(Debug, Clone)]
struct Slot {
    key: CacheKey,
    q: Vec<i8>,
    scale_bits: u32,
    rows: usize,
    out: Vec<f32>,
}

impl Slot {
    /// Overwrites the slot in place, reusing its buffers.
    fn fill(&mut self, key: CacheKey, q: &[i8], scale: f32, rows: usize, out: &[f32]) {
        self.key = key;
        self.q.clear();
        self.q.extend_from_slice(q);
        self.scale_bits = scale.to_bits();
        self.rows = rows;
        self.out.clear();
        self.out.extend_from_slice(out);
    }
}

/// A bounded FIFO map from quantized feature groups to policy outputs.
///
/// # Examples
///
/// ```
/// use npu::PolicyCache;
/// let mut cache = PolicyCache::new(2);
/// let key = cache.probe(&[1, -2, 3], 0.5, 1).unwrap_err();
/// cache.insert(key, &[1, -2, 3], 0.5, 1, &[9.0, 8.0]);
/// assert_eq!(cache.probe(&[1, -2, 3], 0.5, 1), Ok(&[9.0f32, 8.0][..]));
/// // A different scale is a different key, even with identical codes.
/// assert!(cache.probe(&[1, -2, 3], 0.25, 1).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PolicyCache {
    capacity: usize,
    map: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
    slots: Vec<Slot>,
    /// The slot the next eviction reuses: the oldest once every slot is
    /// filled.
    next_victim: usize,
    stats: CacheStats,
}

impl PolicyCache {
    /// An empty cache holding at most `capacity` entries (0 disables it:
    /// probes always miss and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        PolicyCache {
            capacity,
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 16), Default::default()),
            slots: Vec::new(),
            next_victim: 0,
            stats: CacheStats::default(),
        }
    }

    /// FNV-64 over the int8 codes, the scale bits, and the row count.
    /// The scale MUST be part of the key: two float rows can quantize to
    /// the same int8 codes under different scales and produce different
    /// outputs.
    fn key(q: &[i8], scale: f32, rows: usize) -> CacheKey {
        let mut h = FNV_OFFSET;
        for &v in q {
            h = (h ^ v as u8 as u64).wrapping_mul(FNV_PRIME);
        }
        for b in scale.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        for b in (rows as u64).to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        CacheKey(h)
    }

    /// Looks up the output of a quantized group, counting a hit or miss.
    /// A miss returns the group's key for the [`PolicyCache::insert`] of
    /// its output, so the group is hashed once.
    pub fn probe(&mut self, q: &[i8], scale: f32, rows: usize) -> Result<&[f32], CacheKey> {
        let key = Self::key(q, scale, rows);
        if self.capacity == 0 {
            self.stats.misses += 1;
            return Err(key);
        }
        match self.map.get(&key.0) {
            Some(&idx)
                if self.slots[idx].q == q
                    && self.slots[idx].scale_bits == scale.to_bits()
                    && self.slots[idx].rows == rows =>
            {
                self.stats.hits += 1;
                Ok(&self.slots[idx].out)
            }
            Some(_) => {
                self.stats.collisions += 1;
                self.stats.misses += 1;
                Err(key)
            }
            None => {
                self.stats.misses += 1;
                Err(key)
            }
        }
    }

    /// Stores the output of a quantized group under the `key` its missed
    /// [`PolicyCache::probe`] returned, evicting the oldest entry when
    /// full. Re-inserting a
    /// resident key overwrites its slot in place (last writer wins on a
    /// hash collision) without moving its FIFO position.
    pub fn insert(&mut self, key: CacheKey, q: &[i8], scale: f32, rows: usize, out: &[f32]) {
        if self.capacity == 0 {
            return;
        }
        debug_assert_eq!(key, Self::key(q, scale, rows), "key of other material");
        if let Some(&idx) = self.map.get(&key.0) {
            self.slots[idx].fill(key, q, scale, rows, out);
            return;
        }
        let idx = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                q: q.to_vec(),
                scale_bits: scale.to_bits(),
                rows,
                out: out.to_vec(),
            });
            self.slots.len() - 1
        } else {
            let idx = self.next_victim;
            self.next_victim = (idx + 1) % self.capacity;
            let victim = self.slots[idx].key;
            self.map
                .remove(&victim.0)
                .expect("a resident slot is mapped");
            self.stats.evictions += 1;
            self.slots[idx].fill(key, q, scale, rows, out);
            idx
        };
        self.map.insert(key.0, idx);
        self.stats.insertions += 1;
    }

    /// Counters accumulated since creation.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InferScratch, NpuModel};
    use nn::kernel::{self, KernelMode};
    use nn::{Matrix, Mlp};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::VecDeque;

    fn insert(cache: &mut PolicyCache, q: &[i8], scale: f32, rows: usize, out: &[f32]) {
        cache.insert(PolicyCache::key(q, scale, rows), q, scale, rows, out);
    }

    #[test]
    fn probe_counts_and_round_trips() {
        let mut cache = PolicyCache::new(4);
        assert!(cache.probe(&[1, 2], 1.0, 1).is_err());
        insert(&mut cache, &[1, 2], 1.0, 1, &[3.0]);
        assert_eq!(cache.probe(&[1, 2], 1.0, 1).ok(), Some(&[3.0f32][..]));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scale_and_rows_are_part_of_the_key() {
        let mut cache = PolicyCache::new(8);
        insert(&mut cache, &[5, -5], 0.5, 1, &[1.0]);
        assert!(cache.probe(&[5, -5], 0.25, 1).is_err());
        assert!(cache.probe(&[5, -5], 0.5, 2).is_err());
        assert!(cache.probe(&[5, -5, 0], 0.5, 1).is_err());
        assert_eq!(cache.probe(&[5, -5], 0.5, 1).ok(), Some(&[1.0f32][..]));
    }

    #[test]
    fn fifo_eviction_is_oldest_first() {
        let mut cache = PolicyCache::new(2);
        insert(&mut cache, &[1], 1.0, 1, &[1.0]);
        insert(&mut cache, &[2], 1.0, 1, &[2.0]);
        insert(&mut cache, &[3], 1.0, 1, &[3.0]); // evicts [1]
        assert!(cache.probe(&[1], 1.0, 1).is_err());
        assert!(cache.probe(&[2], 1.0, 1).is_ok());
        assert!(cache.probe(&[3], 1.0, 1).is_ok());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    proptest! {
        /// The round-robin victim is the FIFO queue's front: against a
        /// key queue that re-inserts never move, every probe agrees on
        /// which keys are resident, through fills, evictions and
        /// in-place overwrites.
        #[test]
        fn round_robin_eviction_matches_a_fifo_queue(
            capacity in 1usize..6,
            stream in proptest::collection::vec(0u8..12, 1..80),
        ) {
            let mut cache = PolicyCache::new(capacity);
            let mut fifo: VecDeque<u8> = VecDeque::new();
            for (step, &code) in stream.iter().enumerate() {
                let q = [code as i8];
                let out = [step as f32];
                if !fifo.contains(&code) {
                    if fifo.len() == capacity {
                        fifo.pop_front();
                    }
                    fifo.push_back(code);
                }
                insert(&mut cache, &q, 1.0, 1, &out);
                prop_assert_eq!(cache.probe(&q, 1.0, 1).ok(), Some(&out[..]));
                for other in 0u8..12 {
                    let resident = cache.probe(&[other as i8], 1.0, 1).is_ok();
                    prop_assert_eq!(resident, fifo.contains(&other), "step {}", step);
                }
            }
        }
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = PolicyCache::new(0);
        insert(&mut cache, &[1], 1.0, 1, &[1.0]);
        assert!(cache.probe(&[1], 1.0, 1).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().insertions, 0);
    }

    fn model() -> NpuModel {
        NpuModel::compile(&Mlp::with_topology(
            21,
            4,
            64,
            8,
            &mut StdRng::seed_from_u64(9),
        ))
    }

    /// The serve-path idiom: quantize, probe, compute on miss, insert.
    fn infer_cached(
        model: &NpuModel,
        cache: &mut PolicyCache,
        scratch: &mut InferScratch,
        q0: &mut Vec<i8>,
        group: &Matrix,
    ) -> Vec<f32> {
        let (rows, mut scales) = ([group.rows()], Vec::new());
        q0.resize(group.as_slice().len(), 0);
        kernel::quantize_groups(group.as_slice(), group.cols(), &rows, q0, &mut scales);
        let key = match cache.probe(q0, scales[0], rows[0]) {
            Ok(out) => return out.to_vec(),
            Err(key) => key,
        };
        let out = model
            .infer_groups(q0, &scales, &rows, KernelMode::Vectorized, scratch)
            .to_vec();
        cache.insert(key, q0, scales[0], rows[0], &out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite: cached replies are bit-identical to fresh inference
        /// under eviction pressure. A tiny cache (capacity 3) serves a
        /// stream drawn from 8 distinct groups, so entries are
        /// continuously evicted and re-inserted; every reply — hit, miss,
        /// or post-eviction recompute — must equal the uncached grouped
        /// inference bit for bit.
        #[test]
        fn cached_replies_bit_identical_under_eviction(
            seed in 0u64..10_000,
            capacity in 1usize..4,
            stream_len in 8usize..40,
        ) {
            let model = model();
            let mut cache = PolicyCache::new(capacity);
            let mut scratch = InferScratch::new();
            let mut q0 = Vec::new();
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            for step in 0..stream_len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let which = (state % 8) as usize;
                let rows = 1 + (which % 3);
                let group = Matrix::from_rows(
                    (0..rows)
                        .map(|r| {
                            (0..21)
                                .map(|c| ((which * 31 + r * 7 + c * 3) % 13) as f32 / 13.0 - 0.5)
                                .collect()
                        })
                        .collect(),
                );
                let cached = infer_cached(&model, &mut cache, &mut scratch, &mut q0, &group);
                let fresh = model.infer(&group, KernelMode::Vectorized);
                prop_assert_eq!(fresh.as_slice(), &cached[..], "step {}", step);
                prop_assert!(cache.len() <= capacity);
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, stream_len as u64);
        }
    }

    #[test]
    fn eviction_pressure_accumulates_hits_and_evictions() {
        let model = model();
        let mut cache = PolicyCache::new(2);
        let mut scratch = InferScratch::new();
        let mut q0 = Vec::new();
        let groups: Vec<Matrix> = (0..4)
            .map(|g| {
                Matrix::from_rows(vec![(0..21)
                    .map(|c| ((g * 17 + c * 5) % 11) as f32 / 11.0 - 0.5)
                    .collect()])
            })
            .collect();
        // Two passes over four groups with capacity two: the second pass
        // re-misses everything (FIFO evicted it), then a tight loop on one
        // group hits.
        for _ in 0..2 {
            for g in &groups {
                let _ = infer_cached(&model, &mut cache, &mut scratch, &mut q0, g);
            }
        }
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().evictions, 6);
        for _ in 0..5 {
            let _ = infer_cached(&model, &mut cache, &mut scratch, &mut q0, &groups[3]);
        }
        assert_eq!(cache.stats().hits, 5);
    }
}
