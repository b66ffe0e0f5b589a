//! **Transport ablation** — the heavy-8 shuffle cell (8 ranks, 256 KiB
//! comm buffers, 8 send-buffers' worth of fixed(8,8) KVs per rank) run
//! once per transport backend, so the cost of the `Transport` seam and
//! of crossing real process boundaries is pinned in one place:
//!
//! * `inproc` — rank threads over the channel matrix, the PR 8 data
//!   path now behind the trait. The gate is that the seam is free: the
//!   measured throughput must stay within 5% of the pre-seam baseline
//!   recorded in [`BASELINE_PR8_MB_PER_S`] (checked on full runs on the
//!   recording machine; `--quick` checks completion + output equality,
//!   since CI hardware differs from the baseline machine).
//! * `uds` — forked rank processes over Unix-domain sockets with
//!   length-prefixed frames and per-peer writer threads. The gate is
//!   completion with the same per-rank KV checksums as inproc: the
//!   partitioner sees the same world either way, so every KV must land
//!   on the same rank with identical content.
//!
//! Writes `BENCH_transport.json` and prints a `REGRESSION` marker
//! (nonzero exit) when a gate fails.

use std::time::Instant;

use mimir_bench::{fmt_size, HarnessArgs};
use mimir_core::{Emitter, KvContainer, KvMeta, Partitioner, ShuffleMode, Shuffler};
use mimir_datagen::rank_rng;
use mimir_mem::MemPool;
use mimir_mpi::{run_world_on, CommStats, TransportKind};
use mimir_obs::Json;

const KV_BYTES: u64 = 16;

/// Heavy-8 inproc throughput measured at the tip of PR 8, immediately
/// before the data path moved behind the `Transport` trait (same
/// machine, best of 5). Full runs gate the seam's cost against it.
const BASELINE_PR8_MB_PER_S: f64 = 369.6;

/// Full runs must stay within this fraction of the pre-seam baseline.
const REGRESSION_SLACK: f64 = 0.05;

/// One backend's best-of-repeats result for the heavy-8 cell.
struct Measure {
    mb_per_s: f64,
    rounds: u64,
    send_allocs: u64,
    bytes_copied: u64,
    comm: CommStats,
    /// Per-rank checksums of the delivered KV multiset, rank-indexed.
    checksums: Vec<u64>,
}

fn shuffle_body(
    comm: &mut mimir_mpi::Comm,
    comm_buf: usize,
    n: usize,
) -> (f64, u64, CommStats, u64) {
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
        ShuffleMode::ZeroCopy,
    )
    .unwrap();
    let mut rng = rank_rng(0x5FFE, sh.rank());
    let t0 = Instant::now();
    for _ in 0..n {
        let key = rng.next_u64().to_le_bytes();
        sh.emit(&key, &[0u8; 8]).unwrap();
    }
    let (sink, stats) = sh.finish().unwrap();
    let elapsed = t0.elapsed().as_secs_f64();
    // Order-independent content checksum of everything this rank
    // received: sums a mix of each KV's key bytes.
    let mut checksum = 0u64;
    sink.for_each_kv(|k, _v| {
        let mut x = u64::from_le_bytes(k.try_into().expect("8-byte key"));
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        checksum = checksum.wrapping_add(x);
        Ok(())
    })
    .unwrap();
    (elapsed, stats.rounds, comm.stats(), checksum)
}

fn run_backend(
    kind: TransportKind,
    ranks: usize,
    comm_buf: usize,
    n: usize,
    repeats: usize,
) -> Measure {
    let mut best: Option<Measure> = None;
    for _ in 0..repeats {
        let out = run_world_on(kind, ranks, move |comm| shuffle_body(comm, comm_buf, n));
        let slowest = out.iter().map(|(t, _, _, _)| *t).fold(0.0, f64::max);
        let total_bytes = (ranks * n) as u64 * KV_BYTES;
        let mut comm = CommStats::default();
        out.iter().for_each(|(_, _, c, _)| comm.merge(c));
        let m = Measure {
            mb_per_s: total_bytes as f64 / (1 << 20) as f64 / slowest,
            rounds: out[0].1,
            send_allocs: comm.send_allocs,
            bytes_copied: comm.bytes_copied,
            comm,
            checksums: out.iter().map(|(_, _, _, ck)| *ck).collect(),
        };
        if best.as_ref().is_none_or(|b| m.mb_per_s > b.mb_per_s) {
            best = Some(m);
        }
    }
    best.unwrap()
}

fn main() {
    let args = HarnessArgs::parse();
    let (ranks, comm_buf, repeats) = if args.quick {
        (4usize, 64usize << 10, 2usize)
    } else {
        (8, 256 << 10, 5)
    };
    let n = 8 * comm_buf / KV_BYTES as usize;

    let inproc = run_backend(TransportKind::Inproc, ranks, comm_buf, n, repeats);
    println!(
        "inproc  {ranks} ranks {:>6} buf  {:>10.1} MB/s  rounds {}",
        fmt_size(comm_buf),
        inproc.mb_per_s,
        inproc.rounds
    );
    let uds = run_backend(TransportKind::Uds, ranks, comm_buf, n, repeats);
    println!(
        "uds     {ranks} ranks {:>6} buf  {:>10.1} MB/s  rounds {}  \
         wire {} in {} frames",
        fmt_size(comm_buf),
        uds.mb_per_s,
        uds.rounds,
        fmt_size(uds.comm.wire_bytes_sent as usize),
        uds.comm.wire_frames_sent,
    );

    let mut failed = false;
    // Content gate, both modes: the backends must deliver the identical
    // per-rank KV multiset — same world size, same partitioner, so even
    // rank attribution must agree.
    if inproc.checksums != uds.checksums {
        println!(
            "REGRESSION: per-rank checksums diverge between backends \
             (inproc {:x?}, uds {:x?})",
            inproc.checksums, uds.checksums
        );
        failed = true;
    }
    // Seam-cost gate, full runs only: quick CI boxes are not the
    // baseline machine, so the 5% bound only means something on the
    // hardware that recorded BASELINE_PR8_MB_PER_S.
    if !args.quick && inproc.mb_per_s < BASELINE_PR8_MB_PER_S * (1.0 - REGRESSION_SLACK) {
        println!(
            "REGRESSION: inproc {:.1} MB/s is more than {:.0}% below the \
             pre-seam baseline {BASELINE_PR8_MB_PER_S} MB/s",
            inproc.mb_per_s,
            REGRESSION_SLACK * 100.0
        );
        failed = true;
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("transport_ablation".into())),
        ("quick", Json::Bool(args.quick)),
        ("ranks", Json::Num(ranks as f64)),
        ("comm_buf", Json::Num(comm_buf as f64)),
        ("baseline_pr8_mb_per_s", Json::Num(BASELINE_PR8_MB_PER_S)),
        ("inproc_mb_per_s", Json::Num(inproc.mb_per_s)),
        ("inproc_send_allocs", Json::Num(inproc.send_allocs as f64)),
        ("inproc_bytes_copied", Json::Num(inproc.bytes_copied as f64)),
        ("uds_mb_per_s", Json::Num(uds.mb_per_s)),
        ("uds_send_allocs", Json::Num(uds.send_allocs as f64)),
        ("uds_bytes_copied", Json::Num(uds.bytes_copied as f64)),
        (
            "uds_wire_bytes_sent",
            Json::Num(uds.comm.wire_bytes_sent as f64),
        ),
        (
            "uds_wire_frames_sent",
            Json::Num(uds.comm.wire_frames_sent as f64),
        ),
        (
            "uds_wire_recv_allocs",
            Json::Num(uds.comm.wire_recv_allocs as f64),
        ),
        (
            "uds_max_handshake_ns",
            Json::Num(uds.comm.handshake_ns as f64),
        ),
        (
            "checksums_match",
            Json::Bool(inproc.checksums == uds.checksums),
        ),
    ]);
    let path = args.output_path("BENCH_transport.json");
    std::fs::write(&path, doc.to_pretty()).expect("writing bench JSON");
    println!("wrote {path}");
    if failed {
        println!("REGRESSION: the transport seam failed an acceptance gate");
        std::process::exit(1);
    }
}
