//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Communication-buffer size** — smaller buffers mean more exchange
//!    rounds (interleaving memory-bound vs round overhead).
//! 2. **Mimir page size** — container granularity vs allocation churn.
//! 3. **Copy path** — Mimir's direct-into-send-buffer emission vs
//!    MR-MPI's staged copies (map page → temps → send buffer), measured
//!    on the same in-memory workload.
//! 4. **Grouping strategy** — the two-pass hash-bucket convert vs the
//!    partial-reduction fold vs MR-MPI's sort-based grouping.
//! 5. **Shuffle mode** — the vote-first zero-copy vs the overlapped
//!    (post-first) exchange, end to end through WordCount.
//!
//! Plain harness: each case is timed over a few iterations and reported
//! as ms/iter.

use std::hint::black_box;
use std::time::Instant;

use mimir_apps::wordcount::{wordcount_mimir, wordcount_mrmpi, WcOptions};
use mimir_core::{MimirConfig, MimirContext};
use mimir_datagen::UniformWords;
use mimir_io::{IoModel, SpillStore};
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mrmpi::MrMpiConfig;

const RANKS: usize = 4;
const TEXT_BYTES: usize = 512 << 10;
const ITERS: u32 = 3;

fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..ITERS {
        black_box(f());
    }
    let per_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
    println!("{name:<40}{per_ms:>12.3} ms/iter");
}

fn text(rank: usize) -> Vec<u8> {
    UniformWords {
        vocab: 4096,
        word_len: 8,
        seed: 99,
    }
    .generate(rank, RANKS, TEXT_BYTES)
}

fn run_mimir_wc(comm_buf: usize, page: usize, opts: WcOptions) -> u64 {
    let out = run_world(RANKS, move |comm| {
        let t = text(comm.rank());
        let pool = MemPool::unlimited("ablate", page);
        let mut ctx = MimirContext::new(
            comm,
            pool,
            IoModel::free(),
            MimirConfig {
                comm_buf_size: comm_buf,
                ..MimirConfig::default()
            },
        )
        .unwrap();
        let (counts, m) = wordcount_mimir(&mut ctx, &t, &opts).unwrap();
        (counts.len() as u64, m.exchange_rounds)
    });
    out.iter().map(|(n, _)| n).sum()
}

fn run_mrmpi_wc() -> u64 {
    let out = run_world(RANKS, move |comm| {
        let t = text(comm.rank());
        let pool = MemPool::unlimited("ablate", 64 << 10);
        let store = SpillStore::new_temp("ablate", IoModel::free()).unwrap();
        let (counts, m) = wordcount_mrmpi(
            comm,
            pool,
            store,
            MrMpiConfig::with_page_size(1 << 20),
            &t,
            false,
        )
        .unwrap();
        assert!(!m.spilled);
        counts.len() as u64
    });
    out.iter().sum::<u64>()
}

fn ablate_comm_buffer() {
    for comm_buf in [8 << 10, 64 << 10, 256 << 10] {
        bench(&format!("comm_buffer/{}K", comm_buf >> 10), || {
            run_mimir_wc(comm_buf, 64 << 10, WcOptions::default())
        });
    }
}

fn ablate_page_size() {
    for page in [16 << 10, 64 << 10, 256 << 10] {
        bench(&format!("page_size/{}K", page >> 10), || {
            run_mimir_wc(64 << 10, page, WcOptions::default())
        });
    }
}

fn ablate_copy_path() {
    // Mimir: map emits straight into the partitioned send buffer.
    bench("copy_path/mimir_direct_emit", || {
        run_mimir_wc(64 << 10, 64 << 10, WcOptions::default())
    });
    // MR-MPI: map page → temp scan → send buffer → double receive buffer
    // → output page (kept in-memory by a generous page size).
    bench("copy_path/mrmpi_staged_copies", run_mrmpi_wc);
}

fn ablate_grouping() {
    // Hash-bucket two-pass convert (baseline reduce path).
    bench("grouping/two_pass_convert", || {
        run_mimir_wc(64 << 10, 64 << 10, WcOptions::default())
    });
    // Partial-reduction fold (no KVC/KMVC materialization).
    bench("grouping/partial_reduce_fold", || {
        run_mimir_wc(
            64 << 10,
            64 << 10,
            WcOptions {
                partial_reduce: true,
                ..WcOptions::default()
            },
        )
    });
    // MR-MPI's sort-based grouping on the same workload.
    bench("grouping/sort_merge_group", run_mrmpi_wc);
}

fn ablate_shuffle_mode() {
    use mimir_core::ShuffleMode;
    // Full WordCount pipeline under each static posting order; the raw
    // engine numbers live in `shuffle_bench` / BENCH_shuffle.json.
    for (label, mode) in [
        ("shuffle_mode/zero_copy", ShuffleMode::ZeroCopy),
        ("shuffle_mode/overlapped", ShuffleMode::Overlapped),
    ] {
        bench(label, || {
            let out = run_world(RANKS, move |comm| {
                let t = text(comm.rank());
                let pool = MemPool::unlimited("ablate", 64 << 10);
                let mut ctx = MimirContext::new(
                    comm,
                    pool,
                    IoModel::free(),
                    MimirConfig {
                        comm_buf_size: 64 << 10,
                        shuffle_mode: mode,
                        ..MimirConfig::default()
                    },
                )
                .unwrap();
                let (counts, _) = wordcount_mimir(&mut ctx, &t, &WcOptions::default()).unwrap();
                counts.len() as u64
            });
            out.iter().sum::<u64>()
        });
    }
}

fn ablate_cps_flush_threshold() {
    use mimir_core::typed;
    // Unique-heavy stream: compression cannot help, only cost — the
    // regime where the streaming flush budget matters.
    for flush_kib in [0usize, 16, 256] {
        let label = if flush_kib == 0 {
            "cps_flush/delayed".to_string()
        } else {
            format!("cps_flush/flush-{flush_kib}K")
        };
        bench(&label, || {
            let out = run_world(2, move |comm| {
                let pool = MemPool::unlimited("ablate", 64 << 10);
                let mut ctx =
                    MimirContext::new(comm, pool.clone(), IoModel::free(), MimirConfig::default())
                        .unwrap();
                let mut job = ctx
                    .job()
                    .kv_meta(mimir_core::KvMeta::cstr_key_u64_val())
                    .out_meta(mimir_core::KvMeta::cstr_key_u64_val());
                if flush_kib > 0 {
                    job = job.compress_flush_bytes(flush_kib << 10);
                }
                let sum = |_k: &[u8], a: &[u8], bb: &[u8], o: &mut Vec<u8>| {
                    o.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(bb)));
                };
                let res = job
                    .map_partial_reduce_compress(
                        &mut |em| {
                            for i in 0..5_000u64 {
                                em.emit(format!("uniq-{i}").as_bytes(), &typed::enc_u64(1))?;
                            }
                            Ok(())
                        },
                        Box::new(sum),
                        Box::new(sum),
                    )
                    .unwrap();
                (res.output.len(), pool.peak())
            });
            out[0].1
        });
    }
}

fn main() {
    ablate_comm_buffer();
    ablate_page_size();
    ablate_copy_path();
    ablate_grouping();
    ablate_shuffle_mode();
    ablate_cps_flush_threshold();
}
