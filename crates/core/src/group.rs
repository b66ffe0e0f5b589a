//! The shared grouping engine: an open-addressing, arena-keyed group
//! index used by convert pass 1, the KV-compression combiner, and
//! partial reduction.
//!
//! All three consumers answer the same question — "which group does this
//! key belong to?" — and previously answered it with
//! `HashMap<Vec<u8>, …>`: one heap allocation per unique key, a copy of
//! every key, and SipHash-free but still repeated hashing. [`GroupIndex`]
//! replaces that with:
//!
//! * **Dense entries in first-occurrence order.** Group ids are indices
//!   into an insertion-ordered entry array, so iterating ids `0..len`
//!   reproduces first-occurrence key order — the property the reduce
//!   output determinism test pins.
//! * **A compact slot table.** Each slot is one `u64` packing a 32-bit
//!   hash tag with a 32-bit group id. Probing is linear from a
//!   multiply-shift start slot ([`crate::hash::fast_range`], no `%`);
//!   the tag filters almost all false candidates before any key bytes
//!   are touched.
//! * **Interned keys.** Key bytes append into pool pages (oversize keys
//!   into pool-tracked jumbo buffers) — no per-key `Vec<u8>`, and the
//!   arena is charged to the node budget page by page.
//! * **Stored hashes.** Every entry keeps its full 64-bit hash, so
//!   growth rehashes without re-reading key bytes, and consumers can
//!   reuse the hash downstream (e.g. the shuffle partition of a combined
//!   KV via [`crate::Emitter::emit_hashed`]).
//!
//! Non-page metadata (the entry array and the slot table) is charged
//! through [`DeltaCharge`], which batches reservation resizes so pool
//! atomics are touched once per ~4 KiB of growth rather than per key.

use mimir_mem::MemPool;

use crate::buffer::TrackedBuf;
use crate::hash::{fast_range, fxhash64};
use crate::Result;

/// Maximum bytes a [`DeltaCharge`] may consume beyond its reservation.
///
/// Tables grow key by key; re-reserving on every insert would round-trip
/// the pool's atomics per unique key, so growth is batched. Batching by
/// *bytes* (not by key count, which with long keys could leave hundreds
/// of KiB untracked) bounds the accounting error to this constant
/// regardless of key length.
pub(crate) const RESIZE_DELTA: usize = 4096;

/// Incremental pool charge for growing table state: accumulates byte
/// deltas and settles them into a [`mimir_mem::Reservation`] whenever the
/// untracked amount reaches [`RESIZE_DELTA`].
pub(crate) struct DeltaCharge {
    res: mimir_mem::Reservation,
    /// Bytes the reservation currently covers.
    charged: usize,
    /// Bytes the owner actually holds.
    pending: usize,
}

impl DeltaCharge {
    pub fn new(pool: &MemPool) -> Result<Self> {
        Ok(Self {
            res: pool.try_reserve(0)?,
            charged: 0,
            pending: 0,
        })
    }

    /// Records `bytes` of growth, charging the pool once the untracked
    /// delta reaches the threshold. A single growth larger than the
    /// threshold is charged immediately.
    pub fn add(&mut self, bytes: usize) -> Result<()> {
        self.pending += bytes;
        self.maybe_settle()?;
        debug_assert!(self.untracked() < RESIZE_DELTA);
        Ok(())
    }

    /// Records `bytes` of release (e.g. the old slot table freed by a
    /// rehash), crediting the pool once the delta reaches the threshold.
    pub fn sub(&mut self, bytes: usize) -> Result<()> {
        self.pending = self.pending.saturating_sub(bytes);
        self.maybe_settle()
    }

    fn maybe_settle(&mut self) -> Result<()> {
        if self.pending.abs_diff(self.charged) >= RESIZE_DELTA {
            self.res.resize(self.pending)?;
            self.charged = self.pending;
        }
        Ok(())
    }

    /// Charges or credits any remaining untracked bytes.
    pub fn settle(&mut self) -> Result<()> {
        if self.charged != self.pending {
            self.res.resize(self.pending)?;
            self.charged = self.pending;
        }
        Ok(())
    }

    /// Bytes held but not yet charged to the pool (absolute drift).
    pub fn untracked(&self) -> usize {
        self.pending.abs_diff(self.charged)
    }
}

/// Where one interned key lives: a page or jumbo index (top bit selects
/// jumbo), a byte offset, and a length.
#[derive(Debug, Clone, Copy)]
struct KeyRef {
    loc: u32,
    off: u32,
    len: u32,
}

const JUMBO_BIT: u32 = 1 << 31;

/// One group: its full hash plus the interned key location.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    key: KeyRef,
}

/// Heap bytes one entry occupies beyond its interned key bytes.
const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();
/// An unoccupied slot. Real slots can never collide with this value
/// because group ids are capped below `u32::MAX`.
const EMPTY: u64 = u64::MAX;
/// Counters describing one [`GroupIndex`] (or the merged tables of a
/// job): the report's group section, counted into directly.
pub use mimir_obs::GroupCounters as GroupStats;

/// The probe-length histogram bucket a probe length falls into: 0, 1,
/// 2, 3, 4–7, 8–15, 16–31, 32+.
fn probe_bucket(probe: u64) -> usize {
    match probe {
        0..=3 => probe as usize,
        4..=7 => 4,
        8..=15 => 5,
        16..=31 => 6,
        _ => 7,
    }
}

/// The grouping engine. See the module docs for the layout.
pub struct GroupIndex {
    entries: Vec<Entry>,
    /// Open-addressing slot table: `(hash_tag << 32) | group_id`, or
    /// [`EMPTY`]. Length is a power of two (or zero before first use).
    slots: Vec<u64>,
    /// Key arena: fixed-size pool pages filled append-only.
    pages: Vec<mimir_mem::Page>,
    /// Keys longer than one page, each in its own tracked buffer.
    jumbos: Vec<TrackedBuf>,
    pool: MemPool,
    charge: DeltaCharge,
    stats: GroupStats,
}

#[inline]
fn slot_tag(hash: u64) -> u64 {
    // The slot index consumes the hash's high bits (multiply-shift), so
    // the tag takes the low 32 to stay independent of placement.
    u64::from(hash as u32) << 32
}

/// Golden-ratio remix applied to the hash before slot placement.
///
/// The shuffle partitioner routes a key to its rank by `fast_range` on
/// the *same* high hash bits ([`crate::hash::partition_of`]), so the
/// keys a rank's convert sees all live in one `1/p`-wide band of the
/// 64-bit space — mapped raw, they would pile into the same `1/p` slice
/// of the slot table and probe lengths would degenerate to the table
/// size. One odd-constant multiply makes the consumed high bits depend
/// on every bit of the hash again, decorrelating table placement from
/// partition routing.
const SLOT_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn start_slot(hash: u64, cap: usize) -> usize {
    fast_range(hash.wrapping_mul(SLOT_MIX), cap)
}

#[inline]
fn key_at<'a>(pages: &'a [mimir_mem::Page], jumbos: &'a [TrackedBuf], r: KeyRef) -> &'a [u8] {
    if r.len == 0 {
        return &[];
    }
    let (off, len) = (r.off as usize, r.len as usize);
    if r.loc & JUMBO_BIT != 0 {
        &jumbos[(r.loc & !JUMBO_BIT) as usize].as_slice()[off..off + len]
    } else {
        &pages[r.loc as usize].as_slice()[off..off + len]
    }
}

impl GroupIndex {
    /// Creates an empty index charging `pool`. No memory is taken until
    /// the first insert.
    ///
    /// # Errors
    /// Memory exhaustion registering the (zero-byte) reservation.
    pub fn new(pool: &MemPool) -> Result<Self> {
        Ok(Self {
            entries: Vec::new(),
            slots: Vec::new(),
            pages: Vec::new(),
            jumbos: Vec::new(),
            pool: pool.clone(),
            charge: DeltaCharge::new(pool)?,
            stats: GroupStats::default(),
        })
    }

    /// Looks up `key` under a precomputed `hash` (which must be
    /// `fxhash64(key)`), inserting a new group if absent. Returns the
    /// group id and whether it was newly created.
    ///
    /// Looking up an existing key performs no heap allocation — the hot
    /// path of skewed workloads is probe + tag compare + one key
    /// comparison.
    ///
    /// # Errors
    /// Memory exhaustion growing the table or interning the key.
    pub fn insert_hashed(&mut self, hash: u64, key: &[u8]) -> Result<(u32, bool)> {
        debug_assert_eq!(hash, fxhash64(key), "hash must be fxhash64 of key");
        if (self.entries.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow()?;
        }
        let cap = self.slots.len();
        let mask = cap - 1;
        let tag = slot_tag(hash);
        let mut i = start_slot(hash, cap);
        let mut probe = 0u64;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                let id = self.entries.len();
                assert!(id < u32::MAX as usize - 1, "group id space exhausted");
                let key_ref = self.intern(key)?;
                self.charge.add(ENTRY_BYTES)?;
                self.entries.push(Entry { hash, key: key_ref });
                self.slots[i] = tag | id as u64;
                self.note_probe(probe);
                return Ok((id as u32, true));
            }
            if s & !0xFFFF_FFFF == tag {
                let id = (s & 0xFFFF_FFFF) as u32;
                let e = self.entries[id as usize];
                if e.hash == hash && key_at(&self.pages, &self.jumbos, e.key) == key {
                    self.note_probe(probe);
                    return Ok((id, false));
                }
            }
            probe += 1;
            i = (i + 1) & mask;
        }
    }

    /// [`Self::insert_hashed`] hashing the key itself.
    pub fn insert(&mut self, key: &[u8]) -> Result<(u32, bool)> {
        self.insert_hashed(fxhash64(key), key)
    }

    /// The group id of `key`, if present. Read-only probe; records no
    /// statistics.
    pub fn get(&self, key: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = fxhash64(key);
        let cap = self.slots.len();
        let mask = cap - 1;
        let tag = slot_tag(hash);
        let mut i = start_slot(hash, cap);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if s & !0xFFFF_FFFF == tag {
                let id = (s & 0xFFFF_FFFF) as u32;
                let e = self.entries[id as usize];
                if e.hash == hash && key_at(&self.pages, &self.jumbos, e.key) == key {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The interned key bytes of group `id`.
    ///
    /// # Panics
    /// `id` must be a live group id.
    #[inline]
    pub fn key(&self, id: u32) -> &[u8] {
        key_at(&self.pages, &self.jumbos, self.entries[id as usize].key)
    }

    /// The stored hash of group `id`.
    #[inline]
    pub fn hash_of(&self, id: u32) -> u64 {
        self.entries[id as usize].hash
    }

    /// Number of live groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no groups exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slot-table capacity (0 before the first insert).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Drops all groups and interned keys but keeps the slot table (and
    /// its pool charge) at its current capacity, so a table that flushes
    /// repeatedly — the streaming combiner — does not regrow from
    /// scratch each cycle. Statistics are cumulative across clears.
    pub fn clear(&mut self) -> Result<()> {
        self.charge.sub(self.entries.len() * ENTRY_BYTES)?;
        self.stats.groups += self.entries.len() as u64;
        self.entries.clear();
        self.slots.fill(EMPTY);
        self.pages.clear();
        self.jumbos.clear();
        Ok(())
    }

    /// [`Self::clear`] plus a full release of the slot table: the index
    /// returns to its freshly-created footprint (zero pool bytes modulo
    /// charge batching). Used for final flushes, where retained capacity
    /// would outlive its last use.
    pub fn reset(&mut self) -> Result<()> {
        self.clear()?;
        self.charge.sub(self.slots.len() * 8)?;
        self.slots = Vec::new();
        self.charge.settle()
    }

    /// A snapshot of the table's counters. `inserts` is not counted on
    /// the hot path: every insert lands in exactly one histogram bucket,
    /// so it is the histogram's sum.
    pub fn stats(&self) -> GroupStats {
        GroupStats {
            inserts: self.stats.probe_hist.iter().sum(),
            groups: self.stats.groups + self.entries.len() as u64,
            capacity: self.slots.len() as u64,
            ..self.stats
        }
    }

    /// Records one insert's probe length. The common zero-probe case
    /// (home slot hit) changes neither `probes` nor `max_probe`, so it
    /// touches only the first histogram bucket.
    #[inline]
    fn note_probe(&mut self, probe: u64) {
        if probe == 0 {
            self.stats.probe_hist[0] += 1;
            return;
        }
        self.stats.probes += probe;
        self.stats.max_probe = self.stats.max_probe.max(probe);
        self.stats.probe_hist[probe_bucket(probe)] += 1;
    }

    /// Doubles the slot table (first growth: 16 slots) and re-places
    /// every entry from its stored hash — key bytes are never re-read.
    fn grow(&mut self) -> Result<()> {
        let old_cap = self.slots.len();
        let new_cap = (old_cap * 2).max(16);
        self.charge.add(new_cap * 8)?;
        let mut slots = vec![EMPTY; new_cap];
        let mask = new_cap - 1;
        for (id, e) in self.entries.iter().enumerate() {
            let mut i = start_slot(e.hash, new_cap);
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = slot_tag(e.hash) | id as u64;
        }
        self.slots = slots;
        self.charge.sub(old_cap * 8)?;
        if !self.entries.is_empty() {
            self.stats.rehashes += 1;
            mimir_obs::emit(
                mimir_obs::EventKind::GroupRehash,
                new_cap as u64,
                self.entries.len() as u64,
            );
        }
        Ok(())
    }

    /// Appends `key` into the arena: the current page if it fits, a
    /// fresh page otherwise, or a dedicated jumbo buffer when the key
    /// exceeds the page size.
    fn intern(&mut self, key: &[u8]) -> Result<KeyRef> {
        assert!(key.len() <= u32::MAX as usize, "key exceeds u32 length");
        self.stats.interned_bytes += key.len() as u64;
        if key.is_empty() {
            return Ok(KeyRef {
                loc: 0,
                off: 0,
                len: 0,
            });
        }
        if key.len() > self.pool.page_size() {
            let mut buf = TrackedBuf::new(&self.pool, key.len())?;
            buf.as_mut_slice().copy_from_slice(key);
            assert!(self.jumbos.len() < JUMBO_BIT as usize);
            self.jumbos.push(buf);
            return Ok(KeyRef {
                loc: JUMBO_BIT | (self.jumbos.len() as u32 - 1),
                off: 0,
                len: key.len() as u32,
            });
        }
        let fits = self
            .pages
            .last()
            .map(|p| p.remaining() >= key.len())
            .unwrap_or(false);
        if !fits {
            self.pages.push(self.pool.alloc_page()?);
        }
        let page = self.pages.last_mut().expect("page just ensured");
        let off = page.len();
        let ok = page.try_write(key);
        debug_assert!(ok, "key fits the page by construction");
        Ok(KeyRef {
            loc: self.pages.len() as u32 - 1,
            off: off as u32,
            len: key.len() as u32,
        })
    }
}

impl std::fmt::Debug for GroupIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupIndex")
            .field("groups", &self.entries.len())
            .field("capacity", &self.slots.len())
            .field("pages", &self.pages.len())
            .field("jumbos", &self.jumbos.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_first_occurrence_ids() {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        assert_eq!(ix.insert(b"apple").unwrap(), (0, true));
        assert_eq!(ix.insert(b"banana").unwrap(), (1, true));
        assert_eq!(ix.insert(b"apple").unwrap(), (0, false));
        assert_eq!(ix.insert(b"cherry").unwrap(), (2, true));
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.key(0), b"apple");
        assert_eq!(ix.key(1), b"banana");
        assert_eq!(ix.key(2), b"cherry");
        assert_eq!(ix.hash_of(1), fxhash64(b"banana"));
        assert_eq!(ix.get(b"cherry"), Some(2));
        assert_eq!(ix.get(b"durian"), None);
    }

    #[test]
    fn empty_key_is_a_valid_group() {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        assert_eq!(ix.insert(b"").unwrap(), (0, true));
        assert_eq!(ix.insert(b"x").unwrap(), (1, true));
        assert_eq!(ix.insert(b"").unwrap(), (0, false));
        assert_eq!(ix.key(0), b"");
        assert_eq!(ix.get(b""), Some(0));
    }

    #[test]
    fn oversize_keys_go_to_jumbos() {
        let pool = MemPool::unlimited("t", 64);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let big = vec![7u8; 500];
        let (id, fresh) = ix.insert(&big).unwrap();
        assert!(fresh);
        assert_eq!(ix.key(id), &big[..]);
        assert_eq!(ix.insert(&big).unwrap(), (id, false));
        let small = b"tiny";
        let (id2, _) = ix.insert(small).unwrap();
        assert_eq!(ix.key(id2), small);
    }

    #[test]
    fn growth_preserves_every_group() {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let keys: Vec<Vec<u8>> = (0..5000u32)
            .map(|i| format!("key-{i}").into_bytes())
            .collect();
        for k in &keys {
            ix.insert(k).unwrap();
        }
        assert_eq!(ix.len(), keys.len());
        for (want, k) in keys.iter().enumerate() {
            assert_eq!(ix.get(k), Some(want as u32), "key {want} survives growth");
            assert_eq!(ix.key(want as u32), &k[..]);
        }
        let s = ix.stats();
        assert!(
            s.rehashes >= 7,
            "5000 keys from 16 slots: {} rehashes",
            s.rehashes
        );
        assert!(s.capacity >= 8192);
        assert!(s.load_factor() <= 0.75 + 1e-9);
        assert_eq!(s.probe_hist.iter().sum::<u64>(), s.inserts);
    }

    #[test]
    fn memory_is_charged_and_released() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut ix = GroupIndex::new(&pool).unwrap();
        for i in 0..2000u32 {
            ix.insert(format!("key-{i}").as_bytes()).unwrap();
        }
        // At minimum the interned key bytes (page-granular) are charged.
        let interned: usize = (0..2000).map(|i| format!("key-{i}").len()).sum();
        assert!(pool.used() >= interned, "{} < {interned}", pool.used());
        drop(ix);
        assert_eq!(pool.used(), 0, "drop releases pages, jumbos, and charge");
    }

    #[test]
    fn budget_exhaustion_is_oom_not_panic() {
        let pool = MemPool::new("t", 256, 8 * 1024).unwrap();
        let mut ix = GroupIndex::new(&pool).unwrap();
        let mut failed = false;
        for i in 0..100_000u32 {
            if ix
                .insert(format!("unique-key-number-{i}").as_bytes())
                .is_err()
            {
                failed = true;
                break;
            }
        }
        assert!(failed, "unbounded inserts into an 8 KiB budget must fail");
        drop(ix);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn clear_keeps_capacity_but_drops_groups() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut ix = GroupIndex::new(&pool).unwrap();
        for i in 0..500u32 {
            ix.insert(format!("k{i}").as_bytes()).unwrap();
        }
        let cap = ix.capacity();
        let groups_before = ix.stats().groups;
        ix.clear().unwrap();
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.capacity(), cap, "slot table survives clear");
        assert_eq!(ix.get(b"k3"), None);
        // Reinsert: ids restart from zero, no rehash needed.
        let r1 = ix.stats().rehashes;
        assert_eq!(ix.insert(b"k3").unwrap(), (0, true));
        assert_eq!(ix.stats().rehashes, r1);
        assert!(groups_before > 0);
    }

    #[test]
    fn stats_track_probes_and_histogram() {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        for i in 0..1000u32 {
            ix.insert(&i.to_le_bytes()).unwrap();
        }
        for i in 0..1000u32 {
            ix.insert(&i.to_le_bytes()).unwrap(); // all hits
        }
        let s = ix.stats();
        assert_eq!(s.inserts, 2000);
        assert_eq!(s.groups, 1000);
        assert!(
            s.avg_probe() < 4.0,
            "open addressing at 0.75: {}",
            s.avg_probe()
        );
        assert!(s.max_probe >= 1, "some collision occurs at this scale");
        assert_eq!(s.probe_hist.iter().sum::<u64>(), 2000);
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let mut a = GroupStats {
            inserts: 10,
            probes: 5,
            max_probe: 3,
            rehashes: 1,
            interned_bytes: 100,
            groups: 4,
            capacity: 16,
            probe_hist: [5, 3, 1, 1, 0, 0, 0, 0],
        };
        let b = GroupStats {
            inserts: 20,
            probes: 2,
            max_probe: 7,
            rehashes: 2,
            interned_bytes: 50,
            groups: 6,
            capacity: 8,
            probe_hist: [18, 2, 0, 0, 0, 0, 0, 0],
        };
        a.merge(&b);
        assert_eq!(a.inserts, 30);
        assert_eq!(a.probes, 7);
        assert_eq!(a.max_probe, 7);
        assert_eq!(a.rehashes, 3);
        assert_eq!(a.interned_bytes, 150);
        assert_eq!(a.groups, 10);
        assert_eq!(a.capacity, 16);
        assert_eq!(a.probe_hist, [23, 5, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn delta_charge_error_stays_under_the_delta() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut charge = DeltaCharge::new(&pool).unwrap();
        // Long keys: a per-key-count policy would leave up to
        // count × entry_bytes untracked; the byte-delta policy keeps the
        // gap below RESIZE_DELTA at every step.
        let entry = 264;
        for i in 1..=500usize {
            charge.add(entry).unwrap();
            assert!(
                charge.untracked() < RESIZE_DELTA,
                "after {i} adds: {} untracked",
                charge.untracked()
            );
            assert!(pool.used() >= (i * entry).saturating_sub(RESIZE_DELTA - 1));
        }
        charge.settle().unwrap();
        assert_eq!(charge.untracked(), 0);
        assert_eq!(pool.used(), 500 * entry, "settle charges exactly");
        drop(charge);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn delta_charge_takes_big_single_adds_immediately() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut charge = DeltaCharge::new(&pool).unwrap();
        charge.add(10 * RESIZE_DELTA).unwrap();
        assert_eq!(charge.untracked(), 0, "oversize add charges at once");
        assert_eq!(pool.used(), 10 * RESIZE_DELTA);
    }

    #[test]
    fn delta_charge_growth_respects_the_budget() {
        // Budget smaller than the table: add() must fail, not overrun.
        let pool = MemPool::new("t", 256, 8 * 1024).unwrap();
        let mut charge = DeltaCharge::new(&pool).unwrap();
        let mut failed = false;
        for _ in 0..200 {
            if charge.add(100).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "20 KB of adds into an 8 KB budget must fail");
        assert!(pool.used() <= 8 * 1024);
    }

    #[test]
    fn delta_charge_sub_credits_the_pool() {
        let pool = MemPool::new("t", 256, 1 << 20).unwrap();
        let mut charge = DeltaCharge::new(&pool).unwrap();
        charge.add(100 * 1024).unwrap();
        charge.sub(60 * 1024).unwrap();
        charge.settle().unwrap();
        assert_eq!(pool.used(), 40 * 1024);
    }
}
