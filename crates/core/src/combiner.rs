//! KV compression — the map-side combiner (paper Section III-C2).
//!
//! When enabled, map emissions land in a fold table instead of the send
//! buffer; a KV whose key is already present is merged with the resident
//! KV by the user's compression callback. Only when the map completes is
//! the table flushed into the shuffle ("the aggregate phase is delayed
//! until all KVs are compressed to maximize the benefit").
//!
//! The fold table runs on the shared [`GroupIndex`] engine: keys are
//! interned into pool-page arenas and hashed exactly once per emitted KV,
//! values merge in place, and the flush hands each KV's stored hash to
//! the shuffle via [`Emitter::emit_hashed`] so partitioning does not
//! re-hash.
//!
//! The paper is explicit about the cost side, and this implementation
//! keeps it measurable: the table is charged to the node pool, so "it
//! reduces memory usage only if the compression ratio reaches a certain
//! threshold", and the per-KV probe shows up as compute time.

use mimir_mem::{MemPool, Reservation};

use crate::group::{GroupIndex, GroupStats};
use crate::hash::fxhash64;
use crate::kv::validate;
use crate::shuffle::Emitter;
use crate::{GroupingMode, KvMeta, Result};

/// User callback merging two values of the same key:
/// `combine(key, accumulated, incoming, out)` writes the merged value to
/// `out`. Correctness requires the operation to be commutative and
/// associative, which is why this is an explicit opt-in.
pub type CombineFn<'f> = Box<dyn FnMut(&[u8], &[u8], &[u8], &mut Vec<u8>) + 'f>;

/// A pool-tracked fold table shared by KV compression and partial
/// reduction: key → current merged value.
pub(crate) struct FoldTable<'f> {
    /// Interned keys; a key's group id indexes `vals`.
    index: GroupIndex,
    vals: Vec<Vec<u8>>,
    res: Reservation,
    acc_bytes: usize,
    reserved: usize,
    scratch: Vec<u8>,
    combine: CombineFn<'f>,
    n_folded: u64,
}

/// Estimated heap cost of one arena value slot beyond the value bytes
/// (`Vec` header + allocator rounding). Keys and entry metadata are
/// charged by the [`GroupIndex`] itself.
const ARENA_VAL_OVERHEAD: usize = 32;
/// Accounting slack before the reservation is resized.
const RESYNC_SLACK: usize = 8 * 1024;

impl<'f> FoldTable<'f> {
    pub fn new(pool: &MemPool, combine: CombineFn<'f>) -> Result<Self> {
        Ok(Self {
            index: GroupIndex::new(pool)?,
            vals: Vec::new(),
            res: pool.try_reserve(0)?,
            acc_bytes: 0,
            reserved: 0,
            scratch: Vec::new(),
            combine,
            n_folded: 0,
        })
    }

    /// Inserts or merges one KV, hashing the key exactly once.
    pub fn fold(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.fold_hashed(fxhash64(key), key, val)
    }

    /// [`Self::fold`] under a precomputed `hash` (`fxhash64(key)`),
    /// reused for the table probe and stored for the flush.
    pub fn fold_hashed(&mut self, hash: u64, key: &[u8], val: &[u8]) -> Result<()> {
        let Self {
            index,
            vals,
            scratch,
            combine,
            acc_bytes,
            n_folded,
            ..
        } = self;
        let (id, fresh) = index.insert_hashed(hash, key)?;
        if fresh {
            *acc_bytes += val.len() + ARENA_VAL_OVERHEAD;
            vals.push(val.to_vec());
        } else {
            let acc = &mut vals[id as usize];
            scratch.clear();
            combine(key, acc, val, scratch);
            *acc_bytes = *acc_bytes + scratch.len() - acc.len();
            // Swap, don't copy: the merged value moves in, the old
            // accumulator's buffer becomes the next merge's scratch.
            std::mem::swap(acc, scratch);
            *n_folded += 1;
        }
        self.resync()
    }

    fn resync(&mut self) -> Result<()> {
        if self.acc_bytes.abs_diff(self.reserved) > RESYNC_SLACK {
            self.res.resize(self.acc_bytes)?;
            self.reserved = self.acc_bytes;
        }
        Ok(())
    }

    /// Drains every entry into `out` and empties the table. Entries leave
    /// in first-occurrence key order with each KV's stored hash
    /// ([`Emitter::emit_hashed`]); `keep_capacity` retains the slot table
    /// for the next fill cycle (a streaming combiner's early flushes).
    pub fn drain_into(&mut self, out: &mut dyn Emitter, keep_capacity: bool) -> Result<()> {
        if self.len() != 0 {
            mimir_obs::emit(
                mimir_obs::EventKind::CombinerFlush,
                self.len() as u64,
                self.acc_bytes as u64,
            );
        }
        for (id, v) in self.vals.iter().enumerate() {
            let id = id as u32;
            out.emit_hashed(self.index.key(id), v, self.index.hash_of(id))?;
        }
        self.vals.clear();
        if keep_capacity {
            self.index.clear()?;
        } else {
            self.index.reset()?;
        }
        self.acc_bytes = 0;
        self.res.resize(0)?;
        self.reserved = 0;
        Ok(())
    }

    /// Visits entries without draining.
    #[cfg(test)]
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &[u8]) -> Result<()>) -> Result<()> {
        for (id, v) in self.vals.iter().enumerate() {
            f(self.index.key(id as u32), v)?;
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Estimated heap bytes the table occupies.
    pub fn bytes(&self) -> usize {
        self.acc_bytes
    }

    /// The grouping engine's counters.
    pub fn group_stats(&self) -> GroupStats {
        self.index.stats()
    }

    #[cfg(test)]
    pub fn n_folded(&self) -> u64 {
        self.n_folded
    }
}

/// The KV-compression emitter: wraps the fold table behind the
/// [`Emitter`] interface handed to map callbacks.
pub struct CombinerTable<'f> {
    table: FoldTable<'f>,
    meta: KvMeta,
    kvs_in: u64,
}

impl<'f> CombinerTable<'f> {
    /// Creates a compression table charging `pool`.
    ///
    /// # Errors
    /// Memory exhaustion.
    pub fn new(pool: &MemPool, meta: KvMeta, combine: CombineFn<'f>) -> Result<Self> {
        Ok(Self {
            table: FoldTable::new(pool, combine)?,
            meta,
            kvs_in: 0,
        })
    }

    /// [`Self::new`]. The `mode` argument has one possible value
    /// ([`GroupingMode::Arena`]); it stays because the repository
    /// benchmark passes it.
    ///
    /// # Errors
    /// Memory exhaustion.
    pub fn with_mode(
        pool: &MemPool,
        meta: KvMeta,
        combine: CombineFn<'f>,
        _mode: GroupingMode,
    ) -> Result<Self> {
        Self::new(pool, meta, combine)
    }

    /// Flushes the compressed KVs into the shuffle emitter (the delayed
    /// aggregate) and fully releases the table.
    pub fn flush_into(&mut self, shuffler: &mut dyn Emitter) -> Result<()> {
        self.table.drain_into(shuffler, false)
    }

    /// Flush that keeps the slot table warm for the next fill cycle.
    pub(crate) fn flush_soft(&mut self, shuffler: &mut dyn Emitter) -> Result<()> {
        self.table.drain_into(shuffler, true)
    }

    /// Unique keys currently held.
    pub fn unique_keys(&self) -> usize {
        self.table.len()
    }

    /// Estimated table footprint in bytes (tracked against the pool).
    pub fn bytes(&self) -> usize {
        self.table.bytes()
    }

    /// KVs accepted so far (pre-compression).
    pub fn kvs_in(&self) -> u64 {
        self.kvs_in
    }

    /// The grouping engine's counters.
    pub fn group_stats(&self) -> GroupStats {
        self.table.group_stats()
    }

    /// The compression ratio so far: input KVs per retained unique KV.
    pub fn ratio(&self) -> f64 {
        if self.table.len() == 0 {
            return 1.0;
        }
        self.kvs_in as f64 / self.table.len() as f64
    }
}

/// A [`CombinerTable`] that flushes into a downstream emitter whenever
/// its footprint exceeds a byte budget — the bounded-memory KV
/// compression described in [`crate::MapReduceJob::compress_flush_bytes`].
pub struct StreamingCombiner<'f, 'o> {
    table: CombinerTable<'f>,
    out: &'o mut dyn Emitter,
    limit: usize,
    flushes: u64,
}

impl<'f, 'o> StreamingCombiner<'f, 'o> {
    /// Wraps `table`, flushing into `out` when the table exceeds
    /// `limit` bytes.
    pub fn new(table: CombinerTable<'f>, out: &'o mut dyn Emitter, limit: usize) -> Self {
        Self {
            table,
            out,
            limit,
            flushes: 0,
        }
    }

    /// Flushes the remainder and returns how many early flushes ran,
    /// plus the grouping engine's cumulative counters.
    ///
    /// # Errors
    /// Downstream emission failures.
    pub fn finish(mut self) -> Result<(u64, GroupStats)> {
        self.table.flush_into(self.out)?;
        Ok((self.flushes, self.table.group_stats()))
    }
}

impl Emitter for StreamingCombiner<'_, '_> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.table.emit(key, val)?;
        if self.table.bytes() > self.limit {
            self.table.flush_soft(self.out)?;
            self.flushes += 1;
        }
        Ok(())
    }
}

impl Emitter for CombinerTable<'_> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        validate(self.meta.key, key, "key")?;
        validate(self.meta.val, val, "value")?;
        self.kvs_in += 1;
        self.table.fold(key, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimir_mem::MemPool;

    fn sum_combine<'f>() -> CombineFn<'f> {
        Box::new(|_k, a, b, out| {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                + u64::from_le_bytes(b.try_into().unwrap());
            out.extend_from_slice(&s.to_le_bytes());
        })
    }

    struct VecEmitter(Vec<(Vec<u8>, u64)>);
    impl Emitter for VecEmitter {
        fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
            self.0
                .push((key.to_vec(), u64::from_le_bytes(val.try_into().unwrap())));
            Ok(())
        }
    }

    #[test]
    fn duplicate_keys_are_merged() {
        let pool = MemPool::unlimited("t", 4096);
        let mut c = CombinerTable::new(&pool, KvMeta::cstr_key_u64_val(), sum_combine()).unwrap();
        for _ in 0..100 {
            c.emit(b"dog", &1u64.to_le_bytes()).unwrap();
            c.emit(b"cat", &2u64.to_le_bytes()).unwrap();
        }
        assert_eq!(c.unique_keys(), 2);
        assert_eq!(c.kvs_in(), 200);
        assert!((c.ratio() - 100.0).abs() < f64::EPSILON);

        let mut out = VecEmitter(Vec::new());
        c.flush_into(&mut out).unwrap();
        let mut got = out.0;
        got.sort();
        assert_eq!(got, vec![(b"cat".to_vec(), 200), (b"dog".to_vec(), 100)]);
        assert_eq!(c.unique_keys(), 0, "flush drains the table");
    }

    #[test]
    fn arena_flush_preserves_first_occurrence_order_and_hashes() {
        let pool = MemPool::unlimited("t", 4096);
        let mut c = CombinerTable::new(&pool, KvMeta::var(), sum_combine()).unwrap();
        for k in ["zeta", "alpha", "mid", "alpha", "zeta"] {
            c.emit(k.as_bytes(), &1u64.to_le_bytes()).unwrap();
        }
        struct HashChecker(Vec<Vec<u8>>);
        impl Emitter for HashChecker {
            fn emit(&mut self, _k: &[u8], _v: &[u8]) -> Result<()> {
                panic!("arena flush must use emit_hashed");
            }
            fn emit_hashed(&mut self, k: &[u8], _v: &[u8], h: u64) -> Result<()> {
                assert_eq!(h, crate::fxhash64(k), "stored hash matches key");
                self.0.push(k.to_vec());
                Ok(())
            }
        }
        let mut out = HashChecker(Vec::new());
        c.flush_into(&mut out).unwrap();
        assert_eq!(
            out.0,
            vec![b"zeta".to_vec(), b"alpha".to_vec(), b"mid".to_vec()]
        );
    }

    #[test]
    fn table_memory_is_tracked_and_released() {
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let mut c = CombinerTable::new(&pool, KvMeta::var(), sum_combine()).unwrap();
        for i in 0..2000u64 {
            c.emit(format!("key-{i}").as_bytes(), &1u64.to_le_bytes())
                .unwrap();
        }
        assert!(
            pool.used() > 2000 * ARENA_VAL_OVERHEAD / 2,
            "bucket charged: {}",
            pool.used()
        );
        let mut out = VecEmitter(Vec::new());
        c.flush_into(&mut out).unwrap();
        assert!(
            pool.used() < RESYNC_SLACK * 2,
            "bucket released: {}",
            pool.used()
        );
    }

    #[test]
    fn table_oom_when_keys_do_not_compress() {
        // The paper's caveat: with no duplicate keys the table only
        // costs.
        let pool = MemPool::new("t", 4096, 32 * 1024).unwrap();
        let mut c = CombinerTable::new(&pool, KvMeta::var(), sum_combine()).unwrap();
        let mut res = Ok(());
        for i in 0..100_000u64 {
            res = c.emit(format!("unique-{i}").as_bytes(), &1u64.to_le_bytes());
            if res.is_err() {
                break;
            }
        }
        assert!(res.unwrap_err().is_oom());
    }

    #[test]
    fn variable_size_merged_values() {
        // Combine = concatenate: exercises the size-change accounting.
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let concat: CombineFn = Box::new(|_k, a, b, out| {
            out.extend_from_slice(a);
            out.extend_from_slice(b);
        });
        let mut t = FoldTable::new(&pool, concat).unwrap();
        for _ in 0..10 {
            t.fold(b"k", b"xy").unwrap();
        }
        let mut seen = Vec::new();
        t.for_each(|_k, v| {
            seen = v.to_vec();
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 20);
        assert_eq!(t.n_folded(), 9);
    }

    #[test]
    fn streaming_flush_cycles_keep_the_slot_table_warm() {
        let pool = MemPool::unlimited("t", 4096);
        let mut out = VecEmitter(Vec::new());
        let table = CombinerTable::new(&pool, KvMeta::var(), sum_combine()).unwrap();
        let mut sc = StreamingCombiner::new(table, &mut out, 2 * 1024);
        for i in 0..3000u64 {
            sc.emit(format!("k{}", i % 200).as_bytes(), &1u64.to_le_bytes())
                .unwrap();
        }
        let (flushes, stats) = sc.finish().unwrap();
        assert!(flushes >= 1, "limit forces early flushes");
        assert_eq!(stats.inserts, 3000);
        // Each flush cycle re-creates the 200 groups; cumulative groups
        // count every cycle.
        assert!(stats.groups >= 200);
        let total: u64 = out.0.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 3000, "no KV lost across flush cycles");
    }
}
