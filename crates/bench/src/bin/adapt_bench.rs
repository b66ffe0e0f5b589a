//! **Adaptive-runtime bench** — throughput of the self-tuning shuffle
//! against the two static [`ShuffleMode`] posting orders it chooses
//! between, across key-skew × round-size cells.
//!
//! Each rank pushes fixed(8,8) KVs whose keys are drawn from a
//! Zipf-distributed vocabulary (`s = 0` is uniform; `s = 2.0` puts ~60%
//! of the mass on one word, so one destination holds far more than the
//! 2x-fair-share hot trip point). The adaptive runtime must match or
//! beat the best static mode in *every* cell — it converges onto
//! whichever posting discipline wins the cell. On the heavy-skew cells
//! it also diverts the hot destination through the salted
//! count-collapse path (values here are constant, so duplicate KVs
//! collapse to `(kv, count)` frames instead of shipping N times), which
//! the statics pay for in full: the gates there are deterministic
//! counters, not throughput ratios.
//!
//! # Methodology
//!
//! Repeats are interleaved across modes (machine-load drift biases every
//! mode equally, not whichever ran last) and each mode reports its best
//! repeat. The ≥1.0x-vs-best-static gate, however, is **temporally
//! paired**: within repeat `k` all modes run back-to-back under the same
//! machine conditions, so the gate asks for some repeat in which the
//! adaptive beat that repeat's best static. Comparing cross-repeat
//! best-vs-best instead would compare different machine states and flag
//! pure scheduler luck as a regression on a busy box.
//!
//! Writes `BENCH_adapt.json` (`--quick`: the Zipf(2.0)/64K cell as the
//! CI smoke gate, written under `target/bench-quick/`). Prints a
//! `REGRESSION` marker and exits nonzero if adaptive loses every paired
//! repeat to the best static mode in any cell, or, on a Zipf(2.0) cell,
//! fails to trip the hot-key divert, runs more than a third of the
//! rounds of the fewest-rounds static mode, or leaves the measured
//! imbalance at or above the 2000‰ trip point.

use std::time::Instant;

use mimir_bench::{fmt_size, HarnessArgs};
use mimir_core::{AdaptStats, Emitter, KvContainer, KvMeta, Partitioner, ShuffleMode, Shuffler};
use mimir_datagen::rank_rng;
use mimir_mem::MemPool;
use mimir_mpi::run_world;
use mimir_obs::Json;

const RANKS: usize = 4;
const KV_BYTES: u64 = 16; // fixed(8,8)
const VOCAB: usize = 50_000;
/// Each rank emits this many send-buffers' worth. Generous on purpose:
/// the controller needs its ~5-round convergence window to be a small
/// fraction of the job, as it is for any real workload — at 8 buffers a
/// heavy-skew cell ends before the mode decision can pay for itself.
const BUFFERS_PER_RANK: usize = 32;

/// One measured configuration: a skew level and a comm-buffer size.
struct Cell {
    zipf_s: f64,
    comm_buf: usize,
    kvs_per_rank: usize,
}

/// One run's result for a (cell, mode).
struct Measure {
    mode: ShuffleMode,
    /// Aggregate shuffle throughput: total emitted bytes / slowest rank.
    mb_per_s: f64,
    rounds: u64,
    /// Worst per-destination imbalance any sender recorded (permille of
    /// the fair share; 2000 = the hot trip point).
    imbalance_permille: u64,
    /// The adaptive controller's merged counters (zero for statics).
    adapt: AdaptStats,
}

/// One mode's cell result: the best repeat (reported) plus every
/// repeat's throughput (gated pairwise — see the module doc).
struct ModeResult {
    best: Measure,
    samples: Vec<f64>,
}

/// Zipf(s) CDF over the vocabulary; `s = 0` degenerates to uniform.
fn zipf_cdf(s: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..VOCAB).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// This rank's key stream: word ids drawn from the cell's Zipf CDF.
/// Pre-generated so sampling cost stays outside the timed region.
fn rank_keys(cdf: &[f64], seed: u64, rank: usize, n: usize) -> Vec<u64> {
    let mut rng = rank_rng(seed, rank);
    (0..n)
        .map(|_| {
            let u = rng.gen_f64();
            cdf.partition_point(|&c| c < u).min(VOCAB - 1) as u64
        })
        .collect()
}

fn run_once(cell: &Cell, mode: ShuffleMode) -> Measure {
    let comm_buf = cell.comm_buf;
    let n = cell.kvs_per_rank;
    let zipf_s = cell.zipf_s;
    let out = run_world(RANKS, move |comm| {
        let pool = MemPool::unlimited("bench", 1 << 20);
        let meta = KvMeta::fixed(8, 8);
        let sink = KvContainer::new(&pool, meta);
        let keys = rank_keys(&zipf_cdf(zipf_s), 0xADA7, comm.rank(), n);
        // Key generation costs more than the shuffle itself; without this
        // barrier the per-rank clocks start staggered by however the
        // scheduler interleaved keygen, and that stagger — pure luck —
        // dominates the slowest-rank throughput metric.
        comm.barrier();
        let mut sh =
            Shuffler::with_options(comm, &pool, meta, comm_buf, sink, Partitioner::hash(), mode)
                .unwrap();
        let t0 = Instant::now();
        for &id in &keys {
            sh.emit(&id.to_le_bytes(), &1u64.to_le_bytes()).unwrap();
        }
        let (_, stats) = sh.finish().unwrap();
        (t0.elapsed().as_secs_f64(), stats)
    });
    let slowest = out.iter().map(|(t, _)| *t).fold(0.0, f64::max);
    let total_bytes = (RANKS * n) as u64 * KV_BYTES;
    let mut adapt = AdaptStats::default();
    for (_, s) in &out {
        adapt.merge(&s.adapt);
    }
    Measure {
        mode,
        mb_per_s: total_bytes as f64 / (1 << 20) as f64 / slowest,
        rounds: out.iter().map(|(_, s)| s.rounds).max().unwrap(),
        imbalance_permille: out.iter().map(|(_, s)| s.imbalance_permille).max().unwrap(),
        adapt,
    }
}

/// Measures every mode `repeats` times with the repeats interleaved
/// across modes, keeping each mode's best repeat for reporting and every
/// repeat's throughput for the paired gate.
fn measure_cell(cell: &Cell, modes: &[ShuffleMode], repeats: usize) -> Vec<ModeResult> {
    let mut out: Vec<Option<ModeResult>> = modes.iter().map(|_| None).collect();
    for _ in 0..repeats {
        for (slot, &mode) in out.iter_mut().zip(modes) {
            let m = run_once(cell, mode);
            match slot {
                Some(r) => {
                    r.samples.push(m.mb_per_s);
                    if m.mb_per_s > r.best.mb_per_s {
                        r.best = m;
                    }
                }
                None => {
                    *slot = Some(ModeResult {
                        samples: vec![m.mb_per_s],
                        best: m,
                    });
                }
            }
        }
    }
    out.into_iter().map(|r| r.expect("repeats >= 1")).collect()
}

fn mode_name(mode: ShuffleMode) -> &'static str {
    match mode {
        ShuffleMode::ZeroCopy => "zero-copy",
        ShuffleMode::Overlapped => "overlapped",
        ShuffleMode::Adaptive => "adaptive",
    }
}

fn dist_name(s: f64) -> String {
    if s == 0.0 {
        "uniform".into()
    } else {
        format!("zipf({s:.1})")
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let cell = |zipf_s: f64, comm_buf: usize| Cell {
        zipf_s,
        comm_buf,
        kvs_per_rank: BUFFERS_PER_RANK * comm_buf / KV_BYTES as usize,
    };
    let (cells, repeats): (Vec<Cell>, usize) = if args.quick {
        (vec![cell(2.0, 64 << 10)], 8)
    } else {
        let mut cells = Vec::new();
        for s in [0.0, 1.2, 2.0] {
            for comm_buf in [64 << 10, 256 << 10, 1 << 20] {
                cells.push(cell(s, comm_buf));
            }
        }
        // Same repeat count as --quick: the paired gate needs enough
        // shared-conditions samples that a cell at true parity is not a
        // coin flip on a busy box.
        (cells, 8)
    };

    let statics = [ShuffleMode::ZeroCopy, ShuffleMode::Overlapped];
    println!(
        "{:<10}{:>8}{:>12}{:>12}{:>14}{:>10}{:>12}{:>10}",
        "dist", "buf", "mode", "MB/s", "vs-best-stat", "rounds", "imbalance", "hot"
    );

    let mut rows = Vec::new();
    let mut regression = false;
    for cell in &cells {
        let mut modes = statics.to_vec();
        modes.push(ShuffleMode::Adaptive);
        let results = measure_cell(cell, &modes, repeats);
        let (stat_res, adaptive) = results.split_at(statics.len());
        let adaptive = &adaptive[0];
        let best_static = stat_res.iter().map(|r| r.best.mb_per_s).fold(0.0, f64::max);
        // Temporally paired ratios: repeat k's adaptive run against the
        // best static run of the same repeat (adjacent in time, so under
        // the same machine conditions).
        let mut paired: Vec<f64> = (0..repeats)
            .map(|k| {
                let best_k = stat_res.iter().map(|r| r.samples[k]).fold(0.0, f64::max);
                adaptive.samples[k] / best_k
            })
            .collect();
        paired.sort_by(|a, b| a.total_cmp(b));
        let paired_best = *paired.last().expect("repeats >= 1");
        let paired_median = paired[paired.len() / 2];
        if paired_best < 1.0 {
            regression = true;
            println!(
                "REGRESSION: adaptive lost every paired repeat (best {:.2}x, \
                 median {:.2}x) vs best static ({} / {})",
                paired_best,
                paired_median,
                dist_name(cell.zipf_s),
                fmt_size(cell.comm_buf),
            );
        }
        if cell.zipf_s == 2.0 {
            // The divert must have fired, collapsed the hot traffic into
            // at most a third of the static rounds, and brought the
            // post-run imbalance back under the 2x trip point.
            if adaptive.best.adapt.hot_trips == 0 {
                regression = true;
                println!(
                    "REGRESSION: no hot-key trip on {} / {}",
                    dist_name(cell.zipf_s),
                    fmt_size(cell.comm_buf)
                );
            }
            let static_rounds = stat_res.iter().map(|r| r.best.rounds).min().unwrap();
            if 3 * adaptive.best.rounds > static_rounds {
                regression = true;
                println!(
                    "REGRESSION: adaptive ran {} rounds vs {static_rounds} for the \
                     fewest-rounds static (need ≤ 1/3) on {} / {}",
                    adaptive.best.rounds,
                    dist_name(cell.zipf_s),
                    fmt_size(cell.comm_buf)
                );
            }
            if adaptive.best.imbalance_permille >= 2000 {
                regression = true;
                println!(
                    "REGRESSION: post-divert imbalance {}‰ still at/above the \
                     2000‰ trip ({} / {})",
                    adaptive.best.imbalance_permille,
                    dist_name(cell.zipf_s),
                    fmt_size(cell.comm_buf)
                );
            }
        }
        for r in &results {
            let m = &r.best;
            println!(
                "{:<10}{:>8}{:>12}{:>12.1}{:>13.2}x{:>10}{:>12}{:>10}",
                dist_name(cell.zipf_s),
                fmt_size(cell.comm_buf),
                mode_name(m.mode),
                m.mb_per_s,
                m.mb_per_s / best_static,
                m.rounds,
                m.imbalance_permille,
                m.adapt.hot_trips,
            );
            let mut fields = vec![
                ("dist", Json::Str(dist_name(cell.zipf_s))),
                ("zipf_s", Json::Num(cell.zipf_s)),
                ("comm_buf", Json::Num(cell.comm_buf as f64)),
                ("kvs_per_rank", Json::Num(cell.kvs_per_rank as f64)),
                ("mode", Json::Str(mode_name(m.mode).into())),
                ("mb_per_s", Json::Num(m.mb_per_s)),
                ("vs_best_static", Json::Num(m.mb_per_s / best_static)),
                ("rounds", Json::Num(m.rounds as f64)),
                ("imbalance_permille", Json::Num(m.imbalance_permille as f64)),
                ("mode_switches", Json::Num(m.adapt.mode_switches as f64)),
                ("grow_steps", Json::Num(m.adapt.grow_steps as f64)),
                ("shrink_steps", Json::Num(m.adapt.shrink_steps as f64)),
                (
                    "final_fill_permille",
                    Json::Num(m.adapt.final_fill_permille as f64),
                ),
                ("final_overlap", Json::Num(m.adapt.final_overlap as f64)),
                ("hot_trips", Json::Num(m.adapt.hot_trips as f64)),
                ("hot_staged_kvs", Json::Num(m.adapt.hot_staged_kvs as f64)),
                ("hot_unique_kvs", Json::Num(m.adapt.hot_unique_kvs as f64)),
                ("salted_rounds", Json::Num(m.adapt.salted_rounds as f64)),
                ("merge_rounds", Json::Num(m.adapt.merge_rounds as f64)),
            ];
            if m.mode == ShuffleMode::Adaptive {
                fields.push(("paired_best", Json::Num(paired_best)));
                fields.push(("paired_median", Json::Num(paired_median)));
            }
            rows.push(Json::obj(fields));
        }
        println!(
            "{:<10}{:>8}      paired: best {:.2}x  median {:.2}x vs best static",
            dist_name(cell.zipf_s),
            fmt_size(cell.comm_buf),
            paired_best,
            paired_median,
        );
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("adaptive_runtime".into())),
        ("quick", Json::Bool(args.quick)),
        ("ranks", Json::Num(RANKS as f64)),
        ("kv_meta", Json::Str("fixed(8,8)".into())),
        ("vocab", Json::Num(VOCAB as f64)),
        ("regression", Json::Bool(regression)),
        ("cells", Json::Arr(rows)),
    ]);
    let path = args.output_path("BENCH_adapt.json");
    std::fs::write(&path, doc.to_pretty()).expect("writing bench JSON");
    println!("wrote {path}");
    if regression {
        println!("REGRESSION: the adaptive runtime failed an acceptance gate");
        std::process::exit(1);
    }
}
