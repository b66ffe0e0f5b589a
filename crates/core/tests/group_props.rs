//! Property tests for the grouping engine: [`GroupIndex`] must behave
//! exactly like a reference `HashMap<Vec<u8>, u32>` that assigns ids in
//! first-occurrence order, across adversarial key shapes — empty keys,
//! keys longer than a pool page, and pairs constructed to collide on the
//! full 64-bit hash.

use std::collections::HashMap;

use mimir_core::{
    convert_with, fxhash64, partition_of, GroupIndex, GroupStats, GroupingMode, KvContainer, KvMeta,
};
use mimir_mem::MemPool;

/// xorshift64* — deterministic stream per seed, no external PRNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random key whose length distribution covers the interesting cases:
/// empty, short, page-straddling, and (rarely) larger than a page.
fn random_key(rng: &mut Rng, page: usize) -> Vec<u8> {
    let len = match rng.below(100) {
        0..=4 => 0,                             // empty
        5..=69 => 1 + rng.below(16) as usize,   // short (common case)
        70..=94 => 1 + rng.below(200) as usize, // page-straddling
        _ => page + 1 + rng.below(64) as usize, // jumbo
    };
    // Draw from a small alphabet so duplicates actually occur.
    let tag = rng.below(50);
    (0..len)
        .map(|i| (tag as u8).wrapping_add(i as u8 % 7))
        .collect()
}

/// The reference model: first-occurrence id assignment via std's own
/// (SipHash) map, sharing nothing with the implementation under test.
#[derive(Default)]
struct Model {
    ids: HashMap<Vec<u8>, u32>,
}

impl Model {
    fn insert(&mut self, key: &[u8]) -> (u32, bool) {
        let next = self.ids.len() as u32;
        match self.ids.entry(key.to_vec()) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(next);
                (next, true)
            }
        }
    }
}

#[test]
fn index_matches_reference_model_on_random_streams() {
    for seed in [1u64, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        let page = 128;
        let pool = MemPool::unlimited("t", page);
        let mut rng = Rng(seed);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let mut model = Model::default();
        let mut keys_by_id: Vec<Vec<u8>> = Vec::new();

        for step in 0..20_000 {
            let key = random_key(&mut rng, page);
            let want = model.insert(&key);
            let got = ix.insert(&key).unwrap();
            assert_eq!(got, want, "seed {seed} step {step} key {key:?}");
            if want.1 {
                keys_by_id.push(key);
            }
            // Interleave read-only probes of a key seen (or not) so far.
            if step % 7 == 0 {
                let probe = random_key(&mut rng, page);
                assert_eq!(
                    ix.get(&probe),
                    model.ids.get(&probe).copied(),
                    "seed {seed} step {step} probe {probe:?}"
                );
            }
        }

        assert_eq!(ix.len(), model.ids.len(), "seed {seed}");
        for (id, key) in keys_by_id.iter().enumerate() {
            assert_eq!(ix.key(id as u32), &key[..], "seed {seed} id {id}");
            assert_eq!(ix.hash_of(id as u32), fxhash64(key));
        }
        let stats = ix.stats();
        assert_eq!(stats.groups, model.ids.len() as u64);
        assert_eq!(stats.probe_hist.iter().sum::<u64>(), stats.inserts);
    }
}

/// Builds `n` distinct 16-byte keys that all share one fxhash64 value.
///
/// fxhash64 folds 8-byte words as `h = (rot5(h) ^ w) * SEED` and then
/// applies a bijective finalizer, so two 2-word keys collide iff their
/// pre-finalizer states match:
///
/// ```text
/// (rot5(w1·S) ^ w2)·S == (rot5(w1'·S) ^ w2')·S
///   ⟺ w2' = rot5(w1·S) ^ rot5(w1'·S) ^ w2          (S is odd ⇒ ·S injective)
/// ```
///
/// Any choice of `w1'` therefore yields a colliding partner by solving
/// for `w2'`.
fn collision_family(n: usize) -> Vec<[u8; 16]> {
    const SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;
    let (w1, w2) = (0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210u64);
    let base = w1.wrapping_mul(SEED).rotate_left(5);
    (0..n as u64)
        .map(|i| {
            let w1p = w1 ^ (i << 1);
            let w2p = base ^ w1p.wrapping_mul(SEED).rotate_left(5) ^ w2;
            let mut k = [0u8; 16];
            k[..8].copy_from_slice(&w1p.to_le_bytes());
            k[8..].copy_from_slice(&w2p.to_le_bytes());
            k
        })
        .collect()
}

#[test]
fn forced_full_hash_collisions_stay_distinct_groups() {
    let family = collision_family(64);
    let h0 = fxhash64(&family[0]);
    for k in &family {
        assert_eq!(fxhash64(k), h0, "family member must truly collide");
    }
    assert_eq!(
        family
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len(),
        family.len(),
        "members are distinct byte strings"
    );

    let pool = MemPool::unlimited("t", 4096);
    let mut ix = GroupIndex::new(&pool).unwrap();
    // Interleave colliding keys with ordinary ones so probes cross both.
    for (i, k) in family.iter().enumerate() {
        assert_eq!(ix.insert(k).unwrap(), (2 * i as u32, true));
        let filler = format!("filler-{i}");
        assert_eq!(
            ix.insert(filler.as_bytes()).unwrap(),
            (2 * i as u32 + 1, true)
        );
    }
    // Every member resolves to its own id — the tag matches for all of
    // them, so lookup must fall through to full key comparison.
    for (i, k) in family.iter().enumerate() {
        assert_eq!(ix.insert(k).unwrap(), (2 * i as u32, false), "member {i}");
        assert_eq!(ix.get(k), Some(2 * i as u32));
        assert_eq!(ix.key(2 * i as u32), &k[..]);
    }
    let stats = ix.stats();
    assert_eq!(stats.groups, 2 * family.len() as u64);
    assert!(
        stats.max_probe >= family.len() as u64 / 4,
        "a 64-way hash pileup must show up as long probes: {}",
        stats.max_probe
    );
}

/// The reference group-by for convert: std's (SipHash) map remembers
/// each key's first-occurrence position, and values append in stream
/// order. Shares nothing with the engine under test.
fn reference_groups(kvs: &[(Vec<u8>, Vec<u8>)]) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let mut pos: HashMap<&[u8], usize> = HashMap::new();
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

/// Convert must produce the reference KMV output — same groups, same
/// first-occurrence order, same per-group value sequences — for every
/// length-hint encoding.
#[test]
fn convert_modes_agree_across_hints() {
    let cases: Vec<(KvMeta, bool)> = vec![
        (KvMeta::var(), true),               // variable keys, empty allowed
        (KvMeta::fixed(8, 8), false),        // fixed-size keys
        (KvMeta::cstr_key_u64_val(), false), // NUL-terminated keys
    ];
    for (case, (meta, allow_empty)) in cases.into_iter().enumerate() {
        let pool = MemPool::unlimited("t", 256);
        let mut rng = Rng(0xC0FF_EE00 + case as u64);
        let kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..5000u64)
            .map(|i| case_kv(allow_empty, &mut rng, i))
            .collect();
        let reference = reference_groups(&kvs);
        assert!(!reference.is_empty());
        let mut kvc = KvContainer::new(&pool, meta);
        for (k, v) in &kvs {
            kvc.push(k, v).unwrap();
        }
        let (kmvc, _) = convert_with(kvc, &pool, GroupingMode::Arena).unwrap();
        let mut flat: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
        kmvc.for_each_group(|k, vals| {
            flat.push((k.to_vec(), vals.map(<[u8]>::to_vec).collect()));
            Ok(())
        })
        .unwrap();
        assert_eq!(flat, reference, "hint case {case}");
    }
}

/// Convert sees only keys the shuffle already routed to this rank, i.e.
/// keys whose hashes all fall in one `1/p`-wide band of the 64-bit hash
/// space (`partition_of` is a multiply-shift on the high bits). The slot
/// table must decorrelate its start slot from that band, or every key
/// piles into the same `1/p` slice of the table and probing degenerates
/// to a linear scan. This pins the remix: partition-filtered streams
/// probe like uniform ones.
#[test]
fn partition_filtered_keys_probe_like_uniform_keys() {
    const RANKS: usize = 8;
    let fill = |filter: bool| {
        let pool = MemPool::unlimited("t", 4096);
        let mut ix = GroupIndex::new(&pool).unwrap();
        let mut inserted = 0u64;
        let mut i = 0u64;
        while inserted < 4000 {
            let key = format!("word{i:08}");
            i += 1;
            if filter && partition_of(key.as_bytes(), RANKS) != 3 {
                continue; // the shuffle sent this key elsewhere
            }
            ix.insert(key.as_bytes()).unwrap();
            inserted += 1;
        }
        ix.stats()
    };
    let uniform = fill(false);
    let band = fill(true);
    assert_eq!(band.groups, 4000);
    // Pre-remix, the band stream probed ~140× worse than the uniform one
    // (avg ~300 vs ~2); with the remix they are within noise of each
    // other. 2× headroom keeps the assertion robust while still failing
    // catastrophically on any re-correlation.
    assert!(
        band.avg_probe() < 2.0 * uniform.avg_probe().max(1.0),
        "partition-band keys must probe like uniform ones: band avg {} vs uniform avg {}",
        band.avg_probe(),
        uniform.avg_probe()
    );
    assert!(
        band.max_probe < 128,
        "no catastrophic pileup: max {}",
        band.max_probe
    );
}

/// One random KV: 8-byte keys from a small vocabulary (valid under every
/// hint in the table above), occasionally empty where the hint allows.
fn case_kv(allow_empty: bool, rng: &mut Rng, i: u64) -> (Vec<u8>, Vec<u8>) {
    let kind = rng.below(if allow_empty { 12 } else { 10 });
    let key: Vec<u8> = match kind {
        10 | 11 => Vec::new(),
        _ => format!("key{:05}", rng.below(40)).into_bytes(),
    };
    let val = (i % 251).to_le_bytes().to_vec();
    (key, val)
}

/// One fixed key stream covering growth from empty (many rehashes), a
/// 24-way full-hash pileup (long probes into the high histogram
/// buckets), the empty key and jumbo keys, replayed once so the second
/// pass is all hits.
fn fixed_counter_stream() -> Vec<Vec<u8>> {
    let family = collision_family(24);
    let mut pass = Vec::new();
    for i in 0..600u32 {
        pass.push(format!("key-{i}").into_bytes());
        if i % 50 == 0 {
            pass.push(Vec::new());
        }
        if i % 100 == 7 {
            pass.push(vec![i as u8; 200]);
        }
        if let Some(k) = family.get(i as usize / 25) {
            if i % 25 == 3 {
                pass.push(k.to_vec());
            }
        }
    }
    let mut stream = pass.clone();
    stream.extend(pass);
    stream
}

#[test]
fn group_stats_match_golden_counters() {
    // Frozen counters of the fixed stream: probe accounting (and
    // `inserts`, derived from the histogram) must keep its meaning.
    let pool = MemPool::unlimited("t", 128);
    let mut ix = GroupIndex::new(&pool).unwrap();
    let stream = fixed_counter_stream();
    for k in &stream {
        ix.insert(k).unwrap();
    }
    assert_eq!(
        ix.stats(),
        GroupStats {
            inserts: 1284,
            probes: 3341,
            max_probe: 61,
            rehashes: 6,
            interned_bytes: 5674,
            groups: 631,
            capacity: 1024,
            probe_hist: [721, 195, 120, 42, 105, 42, 35, 24],
        }
    );
    assert_eq!(stream.len(), 1284, "one insert per streamed key");
}
