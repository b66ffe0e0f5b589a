//! The two-pass KV→KMV conversion (paper Section III-A):
//!
//! > "In the first pass, the size of the KVs for each unique key is
//! > gathered in a hash bucket and used to calculate the position of each
//! > KMV in the KMVC. In the second pass, the KVs are converted into KMVs
//! > by inserting them into the corresponding position in the KMVC."
//!
//! Grouping runs on the shared [`GroupIndex`] engine: pass 1 hashes each
//! key exactly once and records the resulting group id in a per-KV `u32`
//! side array, so pass 2 streams values into position **by index** —
//! zero re-hashing and zero map lookups on the second traversal.
//!
//! Every structure the phase holds — the group index, the group-info and
//! group-id side arrays, the placement tables — is charged to the node
//! pool, so the convert phase's real footprint (KVC + KMVC + grouping
//! state coexisting) is what the peak-memory figures measure.

use mimir_mem::MemPool;

use crate::buffer::TrackedBuf;
use crate::group::{DeltaCharge, GroupIndex, GroupStats};
use crate::hash::fxhash64;
use crate::kmvc::{GroupLoc, Slot};
use crate::kv::write_side;
use crate::{GroupingMode, KmvContainer, KvContainer, KvMeta, LenHint, Result};

/// Per-unique-key info gathered in pass 1.
#[derive(Default, Clone, Copy)]
struct GroupInfo {
    count: u32,
    val_bytes: usize,
}

/// Stored size of one value under `hint`.
#[inline]
fn val_stored_len(hint: LenHint, val: &[u8]) -> usize {
    hint.overhead() + val.len()
}

/// Converts a KV container into a KMV container, grouping values by key.
///
/// Keys appear in the output in first-occurrence order, making reduce
/// output deterministic for a given KVC content.
///
/// # Errors
/// Out-of-memory if the grouping state, the KMVC, or a jumbo entry
/// exceeds the node budget.
pub fn convert(kvc: KvContainer, pool: &MemPool) -> Result<KmvContainer> {
    convert_counted(kvc, pool).map(|(kmvc, _)| kmvc)
}

/// [`convert`], also returning the grouping engine's counters. The
/// `mode` argument has one possible value ([`GroupingMode::Arena`]); it
/// stays because the repository benchmark passes it.
///
/// # Errors
/// As [`convert`].
pub fn convert_with(
    kvc: KvContainer,
    pool: &MemPool,
    _mode: GroupingMode,
) -> Result<(KmvContainer, GroupStats)> {
    convert_counted(kvc, pool)
}

/// Everything the layout step produces: placed entry headers plus the
/// per-group write cursors pass 2 advances.
struct Layout {
    pages: Vec<mimir_mem::Page>,
    jumbos: Vec<TrackedBuf>,
    locs: Vec<GroupLoc>,
    cursors: Vec<usize>,
    page_used: usize,
    total_bytes: u64,
    n_values: u64,
}

/// Places every group's entry (`[key][count u32][values…]`) in pages or
/// jumbo buffers and writes the headers; values stream in during pass 2.
/// The `locs`/`cursors` side arrays are charged to `side`.
fn layout_groups<'k>(
    pool: &MemPool,
    meta: KvMeta,
    groups: &[GroupInfo],
    key_of: impl Fn(usize) -> &'k [u8],
    side: &mut DeltaCharge,
) -> Result<Layout> {
    let page_size = pool.page_size();
    side.add(groups.len() * (std::mem::size_of::<GroupLoc>() + std::mem::size_of::<usize>()))?;
    let mut pages = Vec::new();
    let mut jumbos: Vec<TrackedBuf> = Vec::new();
    let mut locs: Vec<GroupLoc> = Vec::with_capacity(groups.len());
    // Write cursor within each group's values section (absolute offset in
    // the entry's slot buffer).
    let mut cursors: Vec<usize> = Vec::with_capacity(groups.len());
    let mut page_used = 0usize;
    let mut total_bytes = 0u64;
    let mut n_values = 0u64;

    for (idx, g) in groups.iter().enumerate() {
        let key = key_of(idx);
        let key_len = meta.key.overhead() + key.len();
        let entry_len = key_len + 4 + g.val_bytes;
        total_bytes += entry_len as u64;
        n_values += u64::from(g.count);

        let (slot, offset) = if entry_len <= page_size {
            let fits = pages
                .last()
                .map(|p: &mimir_mem::Page| p.capacity() - page_used >= entry_len)
                .unwrap_or(false);
            if !fits {
                let mut p = pool.alloc_page()?;
                let cap = p.capacity();
                p.set_len(cap); // written random-access below
                pages.push(p);
                page_used = 0;
            }
            let off = page_used;
            page_used += entry_len;
            (Slot::Page(pages.len() as u32 - 1), off)
        } else {
            jumbos.push(TrackedBuf::new(pool, entry_len)?);
            (Slot::Jumbo(jumbos.len() as u32 - 1), 0)
        };

        // Write the entry header (key + value count) now; values stream in
        // during pass 2.
        let buf = match slot {
            Slot::Page(i) => pages[i as usize].as_mut_slice(),
            Slot::Jumbo(i) => jumbos[i as usize].as_mut_slice(),
        };
        let koff = write_side(meta.key, key, buf, offset);
        buf[koff..koff + 4].copy_from_slice(&g.count.to_le_bytes());

        locs.push(GroupLoc {
            slot,
            offset,
            entry_len,
        });
        cursors.push(koff + 4);
    }
    // Trim the final page's logical length to what is used.
    if let Some(p) = pages.last_mut() {
        p.set_len(page_used);
    }
    Ok(Layout {
        pages,
        jumbos,
        locs,
        cursors,
        page_used,
        total_bytes,
        n_values,
    })
}

/// Resolves a group's destination buffer during pass 2.
#[inline]
fn entry_buf<'b>(
    layout_pages: &'b mut [mimir_mem::Page],
    jumbos: &'b mut [TrackedBuf],
    loc: GroupLoc,
) -> &'b mut [u8] {
    match loc.slot {
        Slot::Page(i) => {
            let p = &mut layout_pages[i as usize];
            let cap = p.capacity();
            if p.len() < cap {
                // Re-expose full capacity for random-access writes on
                // the trimmed last page.
                p.set_len(cap);
            }
            p.as_mut_slice()
        }
        Slot::Jumbo(i) => jumbos[i as usize].as_mut_slice(),
    }
}

/// [`convert`] returning the engine's counters: pass 1 interns keys into
/// a [`GroupIndex`] (one hash per KV) while recording each KV's group
/// id; pass 2 replays the id array — no hashing, no lookups.
pub(crate) fn convert_counted(
    kvc: KvContainer,
    pool: &MemPool,
) -> Result<(KmvContainer, GroupStats)> {
    let meta = kvc.meta();

    // --- Pass 1: size every group, remember each KV's group. ----------
    let mut side = DeltaCharge::new(pool)?;
    let mut index = GroupIndex::new(pool)?;
    let mut groups: Vec<GroupInfo> = Vec::new();
    // The per-KV group-id side array that eliminates pass-2 lookups:
    // 4 bytes per KV, charged up front (the KV count is known).
    side.add(kvc.len() as usize * std::mem::size_of::<u32>())?;
    let mut kv_group: Vec<u32> = Vec::with_capacity(kvc.len() as usize);
    kvc.for_each_kv(|k, v| {
        let (idx, fresh) = index.insert_hashed(fxhash64(k), k)?;
        if fresh {
            side.add(std::mem::size_of::<GroupInfo>())?;
            groups.push(GroupInfo::default());
        }
        let g = &mut groups[idx as usize];
        g.count += 1;
        g.val_bytes += val_stored_len(meta.val, v);
        kv_group.push(idx);
        Ok(())
    })?;
    side.settle()?;

    // --- Layout: place every entry in pages or jumbo buffers. ---------
    let mut layout = layout_groups(pool, meta, &groups, |i| index.key(i as u32), &mut side)?;

    // --- Pass 2: stream values into position by recorded group id,
    // freeing KVC pages as they are consumed. ---------------------------
    let mut kv_i = 0usize;
    kvc.drain(|k, v| {
        let idx = kv_group[kv_i] as usize;
        kv_i += 1;
        debug_assert_eq!(index.key(idx as u32), k, "drain order matches pass-1 order");
        let _ = k;
        let loc = layout.locs[idx];
        let buf = entry_buf(&mut layout.pages, &mut layout.jumbos, loc);
        layout.cursors[idx] = write_side(meta.val, v, buf, layout.cursors[idx]);
        Ok(())
    })?;
    if let Some(p) = layout.pages.last_mut() {
        p.set_len(layout.page_used);
    }

    let stats = index.stats();
    drop(index);
    drop(side);

    let kmvc = KmvContainer::from_parts(
        meta,
        layout.pages,
        layout.jumbos,
        layout.locs,
        pool,
        layout.n_values,
        layout.total_bytes,
    )?;
    Ok((kmvc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvMeta, MimirError};
    use mimir_mem::MemPool;
    use std::collections::HashMap as StdMap;

    fn groups_of(kmvc: &KmvContainer) -> StdMap<Vec<u8>, Vec<Vec<u8>>> {
        let mut out = StdMap::new();
        kmvc.for_each_group(|k, vals| {
            out.insert(k.to_vec(), vals.map(<[u8]>::to_vec).collect());
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn groups_values_by_key_in_first_occurrence_order() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::var());
        for (k, v) in [
            ("apple", "1"),
            ("banana", "2"),
            ("apple", "3"),
            ("cherry", "4"),
            ("banana", "5"),
            ("apple", "6"),
        ] {
            kvc.push(k.as_bytes(), v.as_bytes()).unwrap();
        }
        let (kmvc, _) = convert_counted(kvc, &pool).unwrap();
        assert_eq!(kmvc.n_groups(), 3);
        assert_eq!(kmvc.n_values(), 6);

        let mut order = Vec::new();
        kmvc.for_each_group(|k, _| {
            order.push(k.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(
            order,
            vec![b"apple".to_vec(), b"banana".to_vec(), b"cherry".to_vec()]
        );

        let g = groups_of(&kmvc);
        assert_eq!(
            g[&b"apple"[..].to_vec()],
            vec![b"1".to_vec(), b"3".to_vec(), b"6".to_vec()]
        );
        assert_eq!(g[&b"cherry"[..].to_vec()], vec![b"4".to_vec()]);
    }

    #[test]
    fn convert_with_hints() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let meta = KvMeta::cstr_key_u64_val();
        let mut kvc = KvContainer::new(&pool, meta);
        for i in 0..50u64 {
            let key = format!("w{}", i % 5);
            kvc.push(key.as_bytes(), &i.to_le_bytes()).unwrap();
        }
        let (kmvc, _) = convert_counted(kvc, &pool).unwrap();
        assert_eq!(kmvc.n_groups(), 5);
        let g = groups_of(&kmvc);
        assert_eq!(g[&b"w0".to_vec()].len(), 10);
        let vals: Vec<u64> = g[&b"w3".to_vec()]
            .iter()
            .map(|v| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![3, 8, 13, 18, 23, 28, 33, 38, 43, 48]);
    }

    #[test]
    fn arena_mode_reports_group_stats() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::cstr_key_u64_val());
        for i in 0..300u64 {
            kvc.push(format!("w{}", i % 40).as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let (_, stats) = convert_counted(kvc, &pool).unwrap();
        assert_eq!(stats.groups, 40);
        assert_eq!(stats.inserts, 300, "every KV probes exactly once");
        assert_eq!(
            stats.interned_bytes,
            (0..40).map(|i| format!("w{i}").len() as u64).sum()
        );
        assert!(stats.capacity >= 64);
        assert_eq!(stats.probe_hist.iter().sum::<u64>(), 300);
    }

    #[test]
    fn hot_key_gets_a_jumbo_entry() {
        let pool = MemPool::new("t", 128, 256 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(4, 8));
        // 100 values × 8 B = 800 B ≫ 128 B page.
        for i in 0..100u64 {
            kvc.push(b"hotk", &i.to_le_bytes()).unwrap();
        }
        kvc.push(b"cold", &0u64.to_le_bytes()).unwrap();
        let (kmvc, _) = convert_counted(kvc, &pool).unwrap();
        assert_eq!(kmvc.jumbos_held(), 1);
        let g = groups_of(&kmvc);
        assert_eq!(g[&b"hotk".to_vec()].len(), 100);
        assert_eq!(g[&b"cold".to_vec()].len(), 1);
    }

    #[test]
    fn empty_container_converts_to_empty() {
        let pool = MemPool::new("t", 128, 4096).unwrap();
        let kvc = KvContainer::new(&pool, KvMeta::var());
        let (kmvc, _) = convert_counted(kvc, &pool).unwrap();
        assert_eq!(kmvc.n_groups(), 0);
        assert_eq!(kmvc.n_values(), 0);
    }

    #[test]
    fn kvc_pages_are_freed_during_pass_two() {
        let page = 256;
        let pool = MemPool::new("t", page, 1024 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(8, 8));
        for i in 0..1000u64 {
            kvc.push(&(i % 7).to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let kvc_pages = kvc.pages_held();
        let before = pool.used();
        let (kmvc, _) = convert_counted(kvc, &pool).unwrap();
        // After convert the KVC is gone; only KMVC memory remains.
        let after = pool.used();
        assert!(after < before, "KVC freed: {before} -> {after}");
        assert!(kvc_pages > 10);
        assert_eq!(kmvc.n_values(), 1000);
    }

    #[test]
    fn convert_oom_is_reported() {
        // Budget fits the KVC but not KVC + grouping state + KMVC.
        let pool = MemPool::new("t", 256, 2048).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(8, 8));
        for i in 0..120u64 {
            kvc.push(&i.to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let err = convert_counted(kvc, &pool).unwrap_err();
        assert!(matches!(err, MimirError::Mem(_)), "{err}");
    }

    #[test]
    fn value_iter_is_exact_size() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::var());
        for i in 0..12u32 {
            kvc.push(b"k", &i.to_le_bytes()).unwrap();
        }
        let kmvc = convert(kvc, &pool).unwrap();
        kmvc.for_each_group(|_k, vals| {
            assert_eq!(vals.len(), 12);
            let mut vals = vals;
            vals.next();
            assert_eq!(vals.len(), 11);
            assert_eq!(vals.count(), 11);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn jumbo_entry_exceeding_budget_is_oom_not_panic() {
        // Budget fits the KVC but not KVC + the jumbo KMV entry.
        let pool = MemPool::new("t", 128, 2 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(4, 8));
        for i in 0..120u64 {
            kvc.push(b"hotk", &i.to_le_bytes()).unwrap();
        }
        let err = convert_counted(kvc, &pool).unwrap_err();
        assert!(matches!(err, MimirError::Mem(_)), "{err}");
        assert_eq!(pool.used(), 0, "partial convert fully unwinds");
    }

    #[test]
    fn side_arrays_are_charged_to_the_pool() {
        // 4000 KVs over 16 keys: the per-KV group-id array alone is
        // 16 KB, which must appear in the pool accounting during the
        // phase (this was untracked before the arena engine).
        let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::fixed(8, 8));
        for i in 0..4000u64 {
            kvc.push(&(i % 16).to_le_bytes(), &i.to_le_bytes()).unwrap();
        }
        let kvc_bytes = pool.used();
        let peak_before = pool.peak();
        let (kmvc, _) = convert_counted(kvc, &pool).unwrap();
        let peak = pool.peak();
        assert!(
            peak >= peak_before.max(kvc_bytes) + 4000 * 4,
            "peak {peak} must include the 16 KB kv_group side array (kvc was {kvc_bytes})"
        );
        drop(kmvc);
        assert_eq!(pool.used(), 0);
    }

    /// The reference group-by: std's map remembers each key's
    /// first-occurrence position, values append in stream order.
    fn reference_groups(kvs: &[(Vec<u8>, Vec<u8>)]) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        let mut pos: StdMap<&[u8], usize> = StdMap::new();
        let mut out: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
        for (k, v) in kvs {
            let i = *pos.entry(k).or_insert_with(|| {
                out.push((k.clone(), Vec::new()));
                out.len() - 1
            });
            out[i].1.push(v.clone());
        }
        out
    }

    #[test]
    fn modes_agree_on_random_workloads() {
        let pool = MemPool::unlimited("t", 512);
        for salt in 0..3u64 {
            let mut x = 0x9E3779B97F4A7C15u64 ^ salt;
            let kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..700)
                .map(|_| {
                    // xorshift-ish deterministic stream
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (
                        format!("k{}", x % 97).into_bytes(),
                        x.to_le_bytes().to_vec(),
                    )
                })
                .collect();
            let reference = reference_groups(&kvs);
            let mut kvc = KvContainer::new(&pool, KvMeta::var());
            for (k, v) in &kvs {
                kvc.push(k, v).unwrap();
            }
            let (kmvc, _) = convert_counted(kvc, &pool).unwrap();
            // Identical first-occurrence order, not just identical sets.
            let mut flat = Vec::new();
            kmvc.for_each_group(|k, vals| {
                flat.push((k.to_vec(), vals.map(<[u8]>::to_vec).collect()));
                Ok(())
            })
            .unwrap();
            assert_eq!(flat, reference, "salt {salt}");
        }
    }

    #[test]
    fn single_kv_single_group() {
        let pool = MemPool::new("t", 256, 64 * 1024).unwrap();
        let mut kvc = KvContainer::new(&pool, KvMeta::var());
        kvc.push(b"only", b"value").unwrap();
        let kmvc = convert(kvc, &pool).unwrap();
        assert_eq!(kmvc.n_groups(), 1);
        assert_eq!(kmvc.n_values(), 1);
        assert_eq!(kmvc.jumbos_held(), 0);
    }
}
