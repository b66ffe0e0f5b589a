//! Trace-session wiring: turns `MIMIR_TRACE=1` into per-rank recorders
//! and exported trace files for every benchmark run.
//!
//! A [`TraceSession`] is created once per run (outside `run_world`) so
//! every rank's recorder shares one epoch and the per-rank timelines
//! align in the exported view. Each rank installs a recorder before the
//! app runs and calls [`TraceSession::finish`] after: the rank builds
//! its [`RankReport`] from the layer stats, the reports are gathered
//! onto rank 0 with the ordinary `gather` collective, and rank 0 writes
//! a chrome-trace JSON (open in Perfetto or `about://tracing`) plus a
//! JSON-lines dump next to it.

use std::path::PathBuf;
use std::time::Instant;

use mimir_apps::RunMetrics;
use mimir_mem::MemPool;
use mimir_mpi::Comm;
use mimir_obs::{
    chrome_trace, jsonl_string, CacheNameRecord, JobCounters, PhasePeaks, PhaseTimes, RankReport,
    Recorder, WaitCounters,
};

/// Where trace files land when `MIMIR_TRACE_DIR` is unset.
const DEFAULT_DIR: &str = "traces";

/// One traced benchmark run: shared epoch, output label, output dir.
#[derive(Debug, Clone)]
pub struct TraceSession {
    label: String,
    dir: PathBuf,
    epoch: Instant,
}

impl TraceSession {
    /// Builds a session when `MIMIR_TRACE` is set; `None` (no recorders,
    /// no files, no hot-path cost) otherwise. `label` names the output
    /// files: `<dir>/<label>.trace.json` and `<dir>/<label>.jsonl`.
    pub fn from_env(label: impl Into<String>) -> Option<TraceSession> {
        if !mimir_obs::env_enabled() {
            return None;
        }
        let dir = std::env::var("MIMIR_TRACE_DIR").unwrap_or_else(|_| DEFAULT_DIR.to_string());
        Some(TraceSession {
            label: label.into(),
            dir: PathBuf::from(dir),
            epoch: Instant::now(),
        })
    }

    /// Installs this rank's recorder (ring capacity from
    /// `MIMIR_TRACE_CAP`), timestamped against the shared epoch.
    pub fn install(&self, rank: usize) {
        mimir_obs::install(Recorder::with_epoch(
            rank,
            mimir_obs::env_capacity(),
            self.epoch,
        ));
    }

    /// Ends the rank's recording: builds the rank report, gathers every
    /// report onto rank 0, and (on rank 0) writes the trace files.
    ///
    /// # Errors
    /// File I/O or a malformed gathered payload (both reported as
    /// strings, matching the runner closures' error type).
    pub fn finish(&self, comm: &mut Comm, pool: &MemPool, m: &RunMetrics) -> Result<(), String> {
        let report = build_report(comm, pool, m);
        let payload = report.to_json_string().into_bytes();
        if let Some(gathered) = comm.gather(0, payload) {
            let mut reports = Vec::with_capacity(gathered.len());
            for bytes in &gathered {
                let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
                reports.push(RankReport::from_json_string(text).map_err(|e| e.to_string())?);
            }
            self.write(&reports)?;
        }
        Ok(())
    }

    fn write(&self, reports: &[RankReport]) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        let trace_path = self.dir.join(format!("{}.trace.json", self.label));
        let jsonl_path = self.dir.join(format!("{}.jsonl", self.label));
        std::fs::write(&trace_path, chrome_trace(reports).to_string())
            .map_err(|e| e.to_string())?;
        std::fs::write(&jsonl_path, jsonl_string(reports)).map_err(|e| e.to_string())?;
        eprintln!(
            "trace: wrote {} and {}",
            trace_path.display(),
            jsonl_path.display()
        );
        Ok(())
    }
}

/// Assembles one rank's [`RankReport`] from the stats each layer kept:
/// communication counters from the world, pool counters from the node
/// pool, shuffle/job counters from the run's merged [`RunMetrics`], and
/// the rank's trace events from the recorder (taken, so a later run can
/// install a fresh one).
pub fn build_report(comm: &Comm, pool: &MemPool, m: &RunMetrics) -> RankReport {
    let mut report = RankReport::new(comm.rank());
    let cs = comm.stats();
    report.comm = cs.counters();
    report.mem = pool.stats().counters();
    let j = &m.job;
    report.shuffle = j.shuffle.counters();
    report.waits = WaitCounters {
        sync_wait_ns: j.shuffle.sync_wait_ns,
        data_wait_ns: j.shuffle.data_wait_ns,
        barrier_wait_ns: j.barrier_wait_ns,
        ..cs.wait_counters()
    };
    report.adapt = j.shuffle.adapt;
    report.group = j.group;
    report.times = PhaseTimes {
        map_s: j.map_time.as_secs_f64(),
        aggregate_s: 0.0,
        convert_s: j.convert_time.as_secs_f64(),
        reduce_s: j.reduce_time.as_secs_f64(),
    };
    report.peaks = PhasePeaks {
        map_bytes: j.map_peak_bytes as u64,
        convert_bytes: j.convert_peak_bytes as u64,
        reduce_bytes: j.reduce_peak_bytes as u64,
    };
    report.job = JobCounters {
        unique_keys: j.unique_keys,
        kvs_out: j.kvs_out,
        node_peak_bytes: j.node_peak_bytes.max(m.node_peak) as u64,
    };
    if let Some(rec) = mimir_obs::take() {
        report.events = rec.events().to_vec();
        report.events_dropped = rec.dropped();
    }
    // When the live telemetry plane is armed on this rank thread, fold
    // its publisher bookkeeping into the final report so the end-of-run
    // export records what live observation itself cost.
    if let Some(live) = mimir_obs::live::shared() {
        report.live = live.live_counters();
    }
    report
}

/// Folds a rank's cross-job cache state into its report: the counters
/// plus one record per cached name. Harnesses that chain jobs call this
/// after [`build_report`] with `ctx.cache_stats()` / `ctx.cache_snapshots()`.
pub fn attach_cache(
    report: &mut RankReport,
    stats: mimir_core::CacheStats,
    snaps: &[mimir_core::CacheEntrySnapshot],
) {
    report.cache = stats;
    report.cache_names = snaps
        .iter()
        .map(|(name, bytes, elisions)| CacheNameRecord {
            name: name.clone(),
            bytes: *bytes,
            elisions: *elisions,
        })
        .collect();
}
