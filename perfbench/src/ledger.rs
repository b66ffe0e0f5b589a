//! Per-rank counters read from the stats the public calls return
//! (`JobStats`, `MemPool::stats`, `Comm::stats`), and how they fold
//! across ranks into the reported metrics.

use mimir_core::{GroupStats, JobStats};
use mimir_mem::MemStats;
use mimir_mpi::CommStats;

/// How one counter folds across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Cluster total.
    Sum,
    /// Collective or high-water quantity: every rank sees its own copy.
    Max,
    /// Nanoseconds per rank, reported as the mean over ranks in seconds.
    MeanNs,
}

/// One counter slot.
pub struct Counter {
    pub name: &'static str,
    pub agg: Agg,
    /// Must read the same on every repetition of one seed. Counters that
    /// depend on thread timing (waits, buffer-pool misses) are not.
    pub exact: bool,
}

const fn c(name: &'static str, agg: Agg, exact: bool) -> Counter {
    Counter { name, agg, exact }
}

/// The counter layout every rank returns, in this order.
pub const COUNTERS: &[Counter] = &[
    c("peak_node_bytes", Agg::Max, true),
    c("core.shuffle.rounds", Agg::Max, true),
    c("core.shuffle.kv_bytes_emitted", Agg::Sum, true),
    c("core.shuffle.bytes_received", Agg::Sum, true),
    c("core.shuffle.max_round_recv_bytes", Agg::Max, true),
    c("core.shuffle.imbalance_permille", Agg::Max, true),
    c("core.shuffle.sync_wait_s", Agg::MeanNs, false),
    c("core.shuffle.data_wait_s", Agg::MeanNs, false),
    c("core.barrier_wait_s", Agg::MeanNs, false),
    c("core.map_peak_bytes", Agg::Max, true),
    c("core.convert_peak_bytes", Agg::Max, true),
    c("core.reduce_peak_bytes", Agg::Max, true),
    c("core.unique_keys", Agg::Sum, true),
    c("core.group.inserts", Agg::Sum, true),
    c("core.group.probes", Agg::Sum, true),
    c("core.group.rehashes", Agg::Sum, true),
    c("core.combiner.kvs_in", Agg::Sum, true),
    c("core.combiner.kvs_out", Agg::Sum, true),
    c("core.combiner.inserts", Agg::Sum, true),
    c("core.combiner.probes", Agg::Sum, true),
    c("mem.page_allocs", Agg::Sum, true),
    c("mem.page_frees", Agg::Sum, true),
    c("mem.oom_events", Agg::Sum, true),
    c("mpi.wire_frames_sent", Agg::Sum, true),
    c("mpi.wire_bytes_sent", Agg::Sum, true),
    c("mpi.wire_recv_allocs", Agg::Sum, false),
    c("mpi.wait_s", Agg::MeanNs, false),
    c("mpi.work_s", Agg::MeanNs, false),
    c("mpi.collectives", Agg::Sum, true),
    c("mpi.send_allocs", Agg::Sum, false),
    c("mpi.bytes_copied", Agg::Sum, true),
    c("mpi.handshake_s", Agg::MeanNs, false),
];

/// Index of a counter by name.
pub fn idx(name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown counter {name}"))
}

/// A job's stats folded over the app's stages the way a per-rank total
/// needs them: like `JobStats::merge`, except that exchange rounds add up
/// across stages instead of taking the max.
#[derive(Default)]
pub struct JobTotals {
    pub job: JobStats,
    pub rounds: u64,
}

impl JobTotals {
    pub fn add(&mut self, s: &JobStats) {
        self.rounds += s.shuffle.rounds;
        self.job.merge(s);
    }
}

/// The map-side combiner's counters (zero when there is none).
#[derive(Default, Clone, Copy)]
pub struct CombinerCounts {
    pub kvs_in: u64,
    pub kvs_out: u64,
    pub group: GroupStats,
}

/// Fills one rank's counter slots. `convert` is the convert index's
/// grouping counters; `comm` covers the job window, except for the
/// handshake, which the world communicator records once at creation.
pub fn rank_counts(
    t: &JobTotals,
    convert: &GroupStats,
    combiner: &CombinerCounts,
    mem: &MemStats,
    comm: &CommStats,
    handshake_ns: u64,
) -> Vec<u64> {
    let j = &t.job;
    let values: [(&str, u64); 32] = [
        ("peak_node_bytes", mem.peak as u64),
        ("core.shuffle.rounds", t.rounds),
        ("core.shuffle.kv_bytes_emitted", j.shuffle.kv_bytes_emitted),
        ("core.shuffle.bytes_received", j.shuffle.bytes_received),
        (
            "core.shuffle.max_round_recv_bytes",
            j.shuffle.max_round_recv_bytes,
        ),
        (
            "core.shuffle.imbalance_permille",
            j.shuffle.imbalance_permille,
        ),
        ("core.shuffle.sync_wait_s", j.shuffle.sync_wait_ns),
        ("core.shuffle.data_wait_s", j.shuffle.data_wait_ns),
        ("core.barrier_wait_s", j.barrier_wait_ns),
        ("core.map_peak_bytes", j.map_peak_bytes as u64),
        ("core.convert_peak_bytes", j.convert_peak_bytes as u64),
        ("core.reduce_peak_bytes", j.reduce_peak_bytes as u64),
        ("core.unique_keys", j.unique_keys),
        ("core.group.inserts", convert.inserts),
        ("core.group.probes", convert.probes),
        ("core.group.rehashes", convert.rehashes),
        ("core.combiner.kvs_in", combiner.kvs_in),
        ("core.combiner.kvs_out", combiner.kvs_out),
        ("core.combiner.inserts", combiner.group.inserts),
        ("core.combiner.probes", combiner.group.probes),
        ("mem.page_allocs", mem.page_allocs),
        ("mem.page_frees", mem.page_frees),
        ("mem.oom_events", mem.oom_events),
        ("mpi.wire_frames_sent", comm.wire_frames_sent),
        ("mpi.wire_bytes_sent", comm.wire_bytes_sent),
        ("mpi.wire_recv_allocs", comm.wire_recv_allocs),
        ("mpi.wait_s", comm.wait_ns),
        ("mpi.work_s", comm.work_ns),
        ("mpi.collectives", comm.collectives),
        ("mpi.send_allocs", comm.send_allocs),
        ("mpi.bytes_copied", comm.bytes_copied),
        ("mpi.handshake_s", handshake_ns),
    ];
    let mut out = vec![0u64; COUNTERS.len()];
    for (name, v) in values {
        out[idx(name)] = v;
    }
    out
}

/// Folds per-rank counter vectors into cluster values (`MeanNs` slots
/// come out in seconds).
pub fn fold(per_rank: &[&[u64]]) -> Vec<f64> {
    COUNTERS
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let vals = per_rank.iter().map(|r| r[i]);
            match c.agg {
                Agg::Sum => vals.sum::<u64>() as f64,
                Agg::Max => vals.max().unwrap_or(0) as f64,
                Agg::MeanNs => vals.sum::<u64>() as f64 * 1e-9 / per_rank.len().max(1) as f64,
            }
        })
        .collect()
}
