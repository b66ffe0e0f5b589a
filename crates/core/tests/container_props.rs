//! Randomized tests over the container layer: KVC round-trips arbitrary
//! KV multisets under every hint, convert groups them exactly, and the
//! results are deterministic across runs. Driven by a seeded PRNG so
//! failures replay deterministically.

use std::collections::HashMap;

use mimir_core::{convert, KvContainer, KvMeta, LenHint};
use mimir_datagen::rank_rng;
use mimir_mem::MemPool;

/// Random multiset of KVs: keys without NUL (CStr-safe), short values.
fn gen_kvs(seed: u64, case: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = rank_rng(seed, case);
    (0..rng.gen_range(0..120))
        .map(|_| {
            let k: Vec<u8> = (0..rng.gen_range(0..10))
                .map(|_| 1 + rng.gen_range(0..255) as u8)
                .collect();
            let v: Vec<u8> = (0..rng.gen_range(0..14))
                .map(|_| rng.gen_range(0..256) as u8)
                .collect();
            (k, v)
        })
        .collect()
}

/// Every KV of `kvc`, in visiting order, without consuming it.
fn visit(kvc: &KvContainer) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    kvc.for_each_kv(|k, v| {
        out.push((k.to_vec(), v.to_vec()));
        Ok(())
    })
    .unwrap();
    out
}

#[test]
fn kvc_roundtrips_any_multiset() {
    for case in 0..48usize {
        let kvs = gen_kvs(0xC0_47A1, case);
        let page = [64usize, 256, 4096][case % 3];
        let pool = MemPool::unlimited("prop", page);
        let mut kvc = KvContainer::new(&pool, KvMeta::var());
        let mut expected = Vec::new();
        for (k, v) in &kvs {
            // Skip KVs that legitimately exceed a page (checked error).
            match kvc.push(k, v) {
                Ok(()) => expected.push((k.clone(), v.clone())),
                Err(e) => assert!(
                    matches!(e, mimir_core::MimirError::KvTooLarge { .. }),
                    "case {case}: unexpected error {e}"
                ),
            }
        }
        let got = visit(&kvc);
        assert_eq!(
            &got, &expected,
            "case {case}: a visit preserves order/content"
        );
        let mut drained = Vec::new();
        kvc.drain(|k, v| {
            drained.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(&drained, &expected, "case {case}");
        assert_eq!(pool.used(), 0, "case {case}");
    }
}

#[test]
fn cstr_key_container_roundtrips() {
    for case in 0..48usize {
        let kvs = gen_kvs(0xC5_7218, case);
        let meta = KvMeta {
            key: LenHint::CStr,
            val: LenHint::Var,
        };
        let pool = MemPool::unlimited("prop", 4096);
        let mut kvc = KvContainer::new(&pool, meta);
        for (k, v) in &kvs {
            kvc.push(k, v).unwrap();
        }
        assert_eq!(visit(&kvc), kvs, "case {case}");
    }
}

#[test]
fn convert_is_exact_and_deterministic() {
    for case in 0..48usize {
        let kvs = gen_kvs(0xC0_4BE2, case);
        let pool = MemPool::unlimited("prop", 512);
        let build = || {
            let mut kvc = KvContainer::new(&pool, KvMeta::var());
            for (k, v) in &kvs {
                kvc.push(k, v).unwrap();
            }
            kvc
        };
        // Reference grouping (order within groups = insertion order).
        let mut expected: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        for (k, v) in &kvs {
            expected.entry(k.clone()).or_default().push(v.clone());
        }

        let snapshot = |kvc: KvContainer| {
            let kmvc = convert(kvc, &pool).unwrap();
            let mut order = Vec::new();
            let mut groups: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
            kmvc.for_each_group(|k, vals| {
                order.push(k.to_vec());
                groups.insert(k.to_vec(), vals.map(<[u8]>::to_vec).collect());
                Ok(())
            })
            .unwrap();
            (order, groups)
        };
        let (order_a, groups_a) = snapshot(build());
        let (order_b, groups_b) = snapshot(build());
        assert_eq!(&groups_a, &expected, "case {case}");
        assert_eq!(order_a, order_b, "case {case}: group order deterministic");
        assert_eq!(groups_a, groups_b, "case {case}");
        assert_eq!(pool.used(), 0, "case {case}: everything released");
    }
}
