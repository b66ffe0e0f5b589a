//! **Grouping bench** — throughput of the convert phase and the fold
//! table on the [`GroupIndex`] engine, isolating grouping from shuffle
//! and reduce costs. Keys hash exactly once (pass 1), bytes intern into
//! pool-page arenas, and pass 2 replays a per-KV group-id array with no
//! hashing or lookups at all.
//!
//! Cells cover the shapes that stress different parts of the engine:
//! Zipf-skewed wordcount (the paper's WC workload — probe-hit dominated),
//! uniform unique-heavy fixed keys (insert dominated), duplicate-heavy
//! fixed keys (pure probe hits), and the combiner fold path.
//!
//! Writes `BENCH_convert.json` (`--quick`: shrunken cells, written under
//! `target/bench-quick/`). A `REGRESSION` marker (nonzero exit) fires
//! on any cell whose engine counters break the one-probe contract:
//! `inserts` must equal the KVs fed (each key hashed and probed once).
//! On convert cells `groups` must equal the distinct keys the bench
//! counts in its own key list. The fold cell flushes whenever the table
//! passes 1 MiB and its `groups` counts every flush cycle, so there
//! `groups` must be at least the distinct keys and equal the KVs the
//! flushes delivered, and the delivered counts must sum to the KVs fed.

use std::collections::HashSet;
use std::time::Instant;

use mimir_bench::HarnessArgs;
use mimir_core::{
    convert_with, CombineFn, CombinerTable, Emitter, GroupStats, GroupingMode, KvContainer, KvMeta,
    StreamingCombiner,
};
use mimir_datagen::{rank_rng, WikipediaWords};
use mimir_mem::MemPool;
use mimir_obs::Json;

const PAGE: usize = 1 << 20;

/// The KV streams under test, each from a fixed seed.
#[derive(Clone, Copy)]
enum Workload {
    /// Zipf(1.0) words over a 50 Ki vocabulary, CStr keys, u64 counts —
    /// the paper's wordcount shape and the acceptance cell.
    SkewedWords { corpus_bytes: usize },
    /// Nearly-unique 8-byte keys: every KV inserts a fresh group.
    UniformUnique { kvs: usize },
    /// 8-byte keys from a tiny vocabulary: every KV after warm-up is a
    /// probe hit.
    DupHeavy { kvs: usize, vocab: u64 },
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SkewedWords { .. } => "skewed-words",
            Workload::UniformUnique { .. } => "uniform-unique",
            Workload::DupHeavy { .. } => "dup-heavy",
        }
    }

    fn meta(self) -> KvMeta {
        match self {
            Workload::SkewedWords { .. } => KvMeta::cstr_key_u64_val(),
            _ => KvMeta::fixed(8, 8),
        }
    }

    /// Materializes the KV stream once; repeats re-push it into fresh
    /// containers so generation cost stays out of the timed region.
    fn keys(self) -> Vec<Vec<u8>> {
        match self {
            Workload::SkewedWords { corpus_bytes } => {
                let corpus = WikipediaWords::new(0xC04F).generate(0, 1, corpus_bytes);
                corpus
                    .split(|&b| b == b' ' || b == b'\n')
                    .filter(|w| !w.is_empty())
                    .map(<[u8]>::to_vec)
                    .collect()
            }
            Workload::UniformUnique { kvs } => {
                let mut rng = rank_rng(0x0F1CE, 0);
                (0..kvs)
                    .map(|_| rng.next_u64().to_le_bytes().to_vec())
                    .collect()
            }
            Workload::DupHeavy { kvs, vocab } => {
                let mut rng = rank_rng(0xD0B5, 0);
                (0..kvs)
                    .map(|_| (rng.next_u64() % vocab).to_le_bytes().to_vec())
                    .collect()
            }
        }
    }
}

struct Measure {
    mkvs_per_s: f64,
    stats: GroupStats,
    kvs: usize,
    /// Fold cell only: `(KVs delivered by the flushes, sum of their
    /// counts)`.
    flushed: Option<(u64, u64)>,
}

/// Best-of-repeats convert throughput for one workload.
fn run_convert(keys: &[Vec<u8>], meta: KvMeta, repeats: usize) -> Measure {
    let pool = MemPool::unlimited("bench", PAGE);
    let mut best: Option<Measure> = None;
    for _ in 0..repeats {
        let mut kvc = KvContainer::new(&pool, meta);
        for k in keys {
            kvc.push(k, &1u64.to_le_bytes()).unwrap();
        }
        let t0 = Instant::now();
        let (kmvc, stats) = convert_with(kvc, &pool, GroupingMode::Arena).unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        drop(kmvc);
        let m = Measure {
            mkvs_per_s: keys.len() as f64 / 1e6 / elapsed,
            stats,
            kvs: keys.len(),
            flushed: None,
        };
        if best.as_ref().is_none_or(|b| m.mkvs_per_s > b.mkvs_per_s) {
            best = Some(m);
        }
    }
    best.unwrap()
}

/// Best-of-repeats streaming-combiner throughput: the real bounded
/// pipeline — KVs fold into the table, the table flushes into a
/// partitioning sink whenever it exceeds `compress_flush_bytes`-style
/// budget. The sink partitions the way the shuffler does, reusing the
/// stored hash ([`partition_of_hashed`] via `emit_hashed`).
fn run_fold(keys: &[Vec<u8>], meta: KvMeta, repeats: usize) -> Measure {
    /// Stands in for the shuffler's partition step (16 destinations),
    /// and counts the KVs it receives and the sum of their counts.
    #[derive(Default)]
    struct PartitionSink {
        parts: u64,
        kvs: u64,
        count: u64,
    }
    impl Emitter for PartitionSink {
        fn emit(&mut self, k: &[u8], v: &[u8]) -> mimir_core::Result<()> {
            self.emit_hashed(k, v, mimir_core::fxhash64(k))
        }
        fn emit_hashed(&mut self, _k: &[u8], v: &[u8], h: u64) -> mimir_core::Result<()> {
            self.parts += mimir_core::partition_of_hashed(h, 16) as u64;
            self.kvs += 1;
            self.count += u64::from_le_bytes(v.try_into().expect("u64 count"));
            Ok(())
        }
    }
    const FLUSH_BYTES: usize = 1 << 20;
    let pool = MemPool::unlimited("bench", PAGE);
    let mut best: Option<Measure> = None;
    for _ in 0..repeats {
        let sum: CombineFn = Box::new(|_k, a, b, out| {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                + u64::from_le_bytes(b.try_into().unwrap());
            out.extend_from_slice(&s.to_le_bytes());
        });
        let table = CombinerTable::new(&pool, meta, sum).unwrap();
        let mut sink = PartitionSink::default();
        let mut sc = StreamingCombiner::new(table, &mut sink, FLUSH_BYTES);
        let t0 = Instant::now();
        for k in keys {
            sc.emit(k, &1u64.to_le_bytes()).unwrap();
        }
        let (_flushes, stats) = sc.finish().unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink.parts);
        let m = Measure {
            mkvs_per_s: keys.len() as f64 / 1e6 / elapsed,
            stats,
            kvs: keys.len(),
            flushed: Some((sink.kvs, sink.count)),
        };
        if best.as_ref().is_none_or(|b| m.mkvs_per_s > b.mkvs_per_s) {
            best = Some(m);
        }
    }
    best.unwrap()
}

fn main() {
    let args = HarnessArgs::parse();
    let scale = if args.quick { 20 } else { 1 };
    let repeats = if args.quick { 2 } else { 5 };
    let convert_cells = [
        Workload::SkewedWords {
            corpus_bytes: 12 << 20,
        },
        Workload::UniformUnique { kvs: 1_000_000 },
        Workload::DupHeavy {
            kvs: 1_000_000,
            vocab: 512,
        },
    ];

    println!(
        "{:<10}{:>16}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>12}",
        "phase", "cell", "MKV/s", "kvs", "inserts", "groups", "distinct", "rehashes", "avg_probe"
    );

    let mut rows = Vec::new();
    let mut regression = false;
    let mut report = |phase: &str, cell: Workload, keys: &[Vec<u8>], m: Measure| {
        let distinct = keys.iter().collect::<HashSet<_>>().len() as u64;
        println!(
            "{:<10}{:>16}{:>10.2}{:>10}{:>10}{:>10}{:>10}{:>10}{:>12.3}",
            phase,
            cell.name(),
            m.mkvs_per_s,
            m.kvs,
            m.stats.inserts,
            m.stats.groups,
            distinct,
            m.stats.rehashes,
            m.stats.avg_probe(),
        );
        let kvs = m.kvs as u64;
        let mut fail = |what: String| {
            println!("REGRESSION: {phase} {}: {what}", cell.name());
            regression = true;
        };
        if m.stats.inserts != kvs {
            fail(format!(
                "{} inserts for {kvs} KVs (each key must probe once)",
                m.stats.inserts
            ));
        }
        match m.flushed {
            None if m.stats.groups != distinct => fail(format!(
                "{} groups for {distinct} distinct keys",
                m.stats.groups
            )),
            Some((flushed, count))
                if m.stats.groups != flushed || count != kvs || m.stats.groups < distinct =>
            {
                fail(format!(
                    "{} groups for {distinct} distinct keys; the flushes delivered \
                     {flushed} KVs counting {count} of {kvs}",
                    m.stats.groups
                ));
            }
            _ => {}
        }
        rows.push(Json::obj(vec![
            ("phase", Json::Str(phase.into())),
            ("cell", Json::Str(cell.name().into())),
            ("mode", Json::Str("arena".into())),
            ("kvs", Json::Num(m.kvs as f64)),
            ("mkvs_per_s", Json::Num(m.mkvs_per_s)),
            ("inserts", Json::Num(m.stats.inserts as f64)),
            ("groups", Json::Num(m.stats.groups as f64)),
            ("distinct_keys", Json::Num(distinct as f64)),
            ("rehashes", Json::Num(m.stats.rehashes as f64)),
            ("avg_probe", Json::Num(m.stats.avg_probe())),
            ("max_probe", Json::Num(m.stats.max_probe as f64)),
            (
                "interned_kb",
                Json::Num(m.stats.interned_bytes as f64 / 1024.0),
            ),
            ("load_factor", Json::Num(m.stats.load_factor())),
        ]));
    };

    for cell in convert_cells {
        let scaled = match cell {
            Workload::SkewedWords { corpus_bytes } => Workload::SkewedWords {
                corpus_bytes: corpus_bytes / scale,
            },
            Workload::UniformUnique { kvs } => Workload::UniformUnique { kvs: kvs / scale },
            Workload::DupHeavy { kvs, vocab } => Workload::DupHeavy {
                kvs: kvs / scale,
                vocab,
            },
        };
        let keys = scaled.keys();
        let m = run_convert(&keys, scaled.meta(), repeats);
        report("convert", scaled, &keys, m);
    }

    // The fold path (combiner / partial reduction) on the skewed stream.
    let fold_cell = Workload::SkewedWords {
        corpus_bytes: (12 << 20) / scale,
    };
    let keys = fold_cell.keys();
    let m = run_fold(&keys, fold_cell.meta(), repeats);
    report("fold", fold_cell, &keys, m);

    let doc = Json::obj(vec![
        ("bench", Json::Str("convert_grouping".into())),
        ("quick", Json::Bool(args.quick)),
        ("regression", Json::Bool(regression)),
        ("cells", Json::Arr(rows)),
    ]);
    let path = args.output_path("BENCH_convert.json");
    std::fs::write(&path, doc.to_pretty()).expect("writing bench JSON");
    println!("wrote {path}");
    if regression {
        std::process::exit(1);
    }
}
