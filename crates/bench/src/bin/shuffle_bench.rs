//! **Shuffle bench** — throughput of the aggregate hot path under the
//! two static [`ShuffleMode`] posting orders, isolating the exchange
//! engine from map/convert/reduce costs: each rank pushes fixed-size KVs
//! with uniform-random keys straight through a [`Shuffler`] into a
//! [`KvContainer`] sink.
//!
//! `ZeroCopy` sends from send-buffer slices through pooled transport
//! buffers and drains whole runs with page-wise memcpy; `Overlapped`
//! additionally posts the sends before the done-allreduce.
//!
//! Writes `BENCH_shuffle.json` (`--quick`: one small cell, written under
//! `target/bench-quick/`). Prints a `REGRESSION` marker and exits
//! nonzero if, on any cell and mode, the world makes one transport
//! allocation per message or more (`send_allocs ≥ rounds·p·(p−1)`), or
//! copies more than twice the emitted bytes (one copy out of the send
//! buffer and one into the receive buffer fit; a third does not).

use std::time::Instant;

use mimir_bench::{fmt_size, HarnessArgs};
use mimir_core::{Emitter, KvContainer, KvMeta, Partitioner, ShuffleMode, Shuffler};
use mimir_datagen::rank_rng;
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::Json;

/// One measured configuration.
struct Cell {
    ranks: usize,
    comm_buf: usize,
    kvs_per_rank: usize,
}

/// One mode's best-of-repeats result for a cell.
struct Measure {
    mode: ShuffleMode,
    /// Aggregate shuffle throughput: total emitted bytes / slowest rank.
    mb_per_s: f64,
    rounds: u64,
    send_allocs: u64,
    bytes_copied: u64,
    max_round_recv_bytes: u64,
}

const KV_BYTES: u64 = 16; // fixed(8,8): small KVs stress per-KV overhead

fn run_cell(cell: &Cell, mode: ShuffleMode, repeats: usize) -> Measure {
    let mut best: Option<Measure> = None;
    for _ in 0..repeats {
        let ranks = cell.ranks;
        let comm_buf = cell.comm_buf;
        let n = cell.kvs_per_rank;
        let out = run_world(ranks, move |comm| {
            let pool = MemPool::unlimited("bench", 1 << 20);
            let meta = KvMeta::fixed(8, 8);
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::with_options(
                comm,
                &pool,
                meta,
                comm_buf,
                sink,
                Partitioner::hash(),
                mode,
            )
            .unwrap();
            let mut rng = rank_rng(0x5FFE, sh.rank());
            let t0 = Instant::now();
            for _ in 0..n {
                let key = rng.next_u64().to_le_bytes();
                sh.emit(&key, &[0u8; 8]).unwrap();
            }
            let (_, stats) = sh.finish().unwrap();
            let elapsed = t0.elapsed().as_secs_f64();
            (elapsed, stats, comm.stats())
        });
        let slowest = out.iter().map(|(t, _, _)| *t).fold(0.0, f64::max);
        let total_bytes = (ranks * cell.kvs_per_rank) as u64 * KV_BYTES;
        let m = Measure {
            mode,
            mb_per_s: total_bytes as f64 / (1 << 20) as f64 / slowest,
            rounds: out[0].1.rounds,
            send_allocs: out.iter().map(|(_, _, c)| c.send_allocs).sum(),
            bytes_copied: out.iter().map(|(_, _, c)| c.bytes_copied).sum(),
            max_round_recv_bytes: out
                .iter()
                .map(|(_, s, _)| s.max_round_recv_bytes)
                .max()
                .unwrap(),
        };
        if best.as_ref().is_none_or(|b| m.mb_per_s > b.mb_per_s) {
            best = Some(m);
        }
    }
    best.unwrap()
}

fn mode_name(mode: ShuffleMode) -> &'static str {
    match mode {
        ShuffleMode::ZeroCopy => "zero-copy",
        ShuffleMode::Overlapped => "overlapped",
        ShuffleMode::Adaptive => "adaptive",
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let (cells, repeats): (Vec<Cell>, usize) = if args.quick {
        (
            vec![Cell {
                ranks: 2,
                comm_buf: 64 << 10,
                kvs_per_rank: 30_000,
            }],
            2,
        )
    } else {
        let mut cells = Vec::new();
        for ranks in [2usize, 4, 8] {
            for comm_buf in [64 << 10, 256 << 10, 1 << 20] {
                cells.push(Cell {
                    ranks,
                    comm_buf,
                    // Heavy exchange: each rank emits 8 send-buffers'
                    // worth, so every cell runs ~9 rounds and the pooled
                    // steady state dominates warm-up.
                    kvs_per_rank: 8 * comm_buf / KV_BYTES as usize,
                });
            }
        }
        (cells, 3)
    };

    let modes = [ShuffleMode::ZeroCopy, ShuffleMode::Overlapped];
    println!(
        "{:<6}{:>8}{:>12}{:>12}{:>10}{:>12}{:>14}",
        "ranks", "buf", "mode", "MB/s", "rounds", "send_allocs", "bytes_copied"
    );

    let mut rows = Vec::new();
    let mut regression = false;
    for cell in &cells {
        let p = cell.ranks as u64;
        let emitted = p * cell.kvs_per_rank as u64 * KV_BYTES;
        for m in modes.iter().map(|&m| run_cell(cell, m, repeats)) {
            println!(
                "{:<6}{:>8}{:>12}{:>12.1}{:>10}{:>12}{:>14}",
                cell.ranks,
                fmt_size(cell.comm_buf),
                mode_name(m.mode),
                m.mb_per_s,
                m.rounds,
                m.send_allocs,
                m.bytes_copied
            );
            let messages = m.rounds * p * (p - 1);
            if m.send_allocs >= messages {
                println!(
                    "REGRESSION: {} ranks {} {}: {} send allocs for {messages} messages \
                     (pooled buffers must make fewer than one per message)",
                    cell.ranks,
                    fmt_size(cell.comm_buf),
                    mode_name(m.mode),
                    m.send_allocs
                );
                regression = true;
            }
            if m.bytes_copied > 2 * emitted {
                println!(
                    "REGRESSION: {} ranks {} {}: copied {} B for {emitted} B emitted (bound 2x)",
                    cell.ranks,
                    fmt_size(cell.comm_buf),
                    mode_name(m.mode),
                    m.bytes_copied
                );
                regression = true;
            }
            rows.push(Json::obj(vec![
                ("ranks", Json::Num(cell.ranks as f64)),
                ("comm_buf", Json::Num(cell.comm_buf as f64)),
                ("kvs_per_rank", Json::Num(cell.kvs_per_rank as f64)),
                ("mode", Json::Str(mode_name(m.mode).into())),
                ("mb_per_s", Json::Num(m.mb_per_s)),
                ("rounds", Json::Num(m.rounds as f64)),
                ("send_allocs", Json::Num(m.send_allocs as f64)),
                ("bytes_copied", Json::Num(m.bytes_copied as f64)),
                (
                    "max_round_recv_bytes",
                    Json::Num(m.max_round_recv_bytes as f64),
                ),
            ]));
        }
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("shuffle_ablation".into())),
        ("quick", Json::Bool(args.quick)),
        ("kv_meta", Json::Str("fixed(8,8)".into())),
        ("regression", Json::Bool(regression)),
        ("cells", Json::Arr(rows)),
    ]);
    let path = args.output_path("BENCH_shuffle.json");
    std::fs::write(&path, doc.to_pretty()).expect("writing bench JSON");
    println!("wrote {path}");
    if regression {
        std::process::exit(1);
    }
}
