//! One repetition: a world launched, one job run on it, the output
//! checked. Shared by both workload families.

use std::collections::BTreeMap;
use std::time::Instant;

use mimir_core::{Emitter, MimirConfig};
use mimir_io::{IoModel, IoModelConfig};
use mimir_mem::NodeMap;
use mimir_mpi::{Comm, Wire};

use crate::ledger;
use crate::trace::{self, Kind, Span};

/// Ranks in every world: one per core of the two-core machine the
/// benchmark was written for, so no rank waits for a core.
pub const RANKS: usize = 2;
/// Mimir's container page and communication buffer (the comet-mini
/// preset's 64 KiB).
pub const PAGE: usize = 64 << 10;
/// Each rank gets a node pool of its own with this budget. A shared pool
/// would make the peak depend on how the two ranks' phases line up.
pub const BUDGET: usize = 1 << 30;

/// Node pools for one world: one rank per node.
pub fn node_map() -> NodeMap {
    NodeMap::new(RANKS, 1, PAGE, BUDGET).expect("valid pool layout")
}

pub fn io_model() -> IoModel {
    IoModel::new(IoModelConfig::lustre_scaled()).expect("valid io model")
}

pub fn config() -> MimirConfig {
    MimirConfig {
        comm_buf_size: PAGE,
        ..MimirConfig::default()
    }
}

/// What one rank hands back to the launcher. Times are nanoseconds since
/// the launch instant.
pub struct RankOut<T> {
    /// Job start: set-up is over.
    pub start_ns: u64,
    /// The job's output is drained into the app's own structures.
    pub end_ns: u64,
    /// [`ledger::COUNTERS`] slots.
    pub counts: Vec<u64>,
    /// Spans (traced repetitions only).
    pub spans: Vec<Span>,
    /// Digest of this rank's output, sorted by key.
    pub digest: u64,
    pub output: T,
}

impl<T: Wire> Wire for RankOut<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.start_ns, self.end_ns).wire_write(out);
        self.counts.wire_write(out);
        self.spans.wire_write(out);
        self.digest.wire_write(out);
        self.output.wire_write(out);
    }

    fn wire_read(buf: &mut &[u8]) -> Option<Self> {
        let (start_ns, end_ns) = <(u64, u64)>::wire_read(buf)?;
        Some(RankOut {
            start_ns,
            end_ns,
            counts: Wire::wire_read(buf)?,
            spans: Wire::wire_read(buf)?,
            digest: Wire::wire_read(buf)?,
            output: Wire::wire_read(buf)?,
        })
    }
}

/// One repetition as the harness sees it.
pub struct Rep {
    /// World launch to job start, max over ranks.
    pub setup_s: f64,
    /// Job start to output drained, max over ranks.
    pub wall_s: f64,
    /// [`ledger::COUNTERS`] folded across ranks.
    pub counts: Vec<f64>,
    pub digests: Vec<u64>,
    /// Per-layer seconds (traced repetitions only), by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Vec<Span>>,
    /// Why the repetition failed: a rank error, a panic, or a wrong
    /// output.
    pub error: Option<String>,
    /// The hypervisor took a noticeable share of the CPU while it ran
    /// (set by the harness).
    pub disturbed: bool,
}

impl Rep {
    pub fn failed(error: String) -> Rep {
        Rep {
            setup_s: 0.0,
            wall_s: 0.0,
            counts: Vec::new(),
            digests: Vec::new(),
            layers: BTreeMap::new(),
            spans: Vec::new(),
            error: Some(error),
            disturbed: false,
        }
    }

    /// Builds a repetition from the ranks' returns; `check` validates the
    /// outputs against the serial reference. An output whose per-rank
    /// digests equal `known_good`, those of an output that passed `check`
    /// earlier in the run, is the same output and is not checked again.
    pub fn assemble<T>(
        mut outs: Vec<RankOut<T>>,
        known_good: Option<&[u64]>,
        check: impl FnOnce(Vec<T>) -> Result<(), String>,
    ) -> Rep {
        let setup_s = outs.iter().map(|o| o.start_ns).max().unwrap_or(0) as f64 * 1e-9;
        let wall_s = outs
            .iter()
            .map(|o| o.end_ns - o.start_ns)
            .max()
            .unwrap_or(0) as f64
            * 1e-9;
        let per_rank: Vec<&[u64]> = outs.iter().map(|o| &o.counts[..]).collect();
        let counts = ledger::fold(&per_rank);
        let digests: Vec<u64> = outs.iter().map(|o| o.digest).collect();
        let repeat = known_good == Some(&digests[..]);
        let spans: Vec<Vec<Span>> = outs
            .iter_mut()
            .map(|o| std::mem::take(&mut o.spans))
            .collect();
        let layers = if spans.iter().all(|s| s.is_empty()) {
            BTreeMap::new()
        } else {
            layer_seconds(&spans, &counts)
        };
        let outputs = outs.into_iter().map(|o| o.output).collect();
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if repeat {
                Ok(())
            } else {
                check(outputs)
            }
        }));
        let error = match checked {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(format!("wrong output: {e}")),
            Err(p) => Some(format!(
                "wrong output: {}",
                mimir_mpi::panic_message(p.as_ref())
            )),
        };
        Rep {
            setup_s,
            wall_s,
            counts,
            digests,
            layers,
            spans,
            error,
            disturbed: false,
        }
    }
}

/// Per-layer seconds from the spans, as the mean over ranks of each
/// layer's self time. The user map runs inside the combiner fold when
/// there is one and inside the shuffle call otherwise; its no-op replay
/// time is taken out of that host span, so the layers plus
/// `unattributed_s` add up to the job window.
fn layer_seconds(spans: &[Vec<Span>], counts: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut mean: BTreeMap<&'static str, f64> = BTreeMap::new();
    for rank in spans {
        for (kind, s) in trace::self_times(rank) {
            *mean.entry(kind.name()).or_default() += s / spans.len() as f64;
        }
    }
    let get = |k: Kind| mean.get(k.name()).copied().unwrap_or(0.0);
    let map_user = get(Kind::MapUser);
    let has_fold = spans.iter().flatten().any(|s| s.kind == Kind::CombinerFold);
    let (fold, shuffle) = if has_fold {
        (get(Kind::CombinerFold) - map_user, get(Kind::MapShuffle))
    } else {
        (0.0, get(Kind::MapShuffle) - map_user)
    };
    let job: f64 = spans
        .iter()
        .flatten()
        .filter(|s| s.kind == Kind::Job)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum::<f64>()
        / spans.len() as f64;
    let handshake = counts[ledger::idx("mpi.handshake_s")];
    BTreeMap::from([
        ("mpi.launch_s", get(Kind::Launch) - handshake),
        ("core.context_new_s", get(Kind::ContextNew)),
        ("apps.pick_root_s", get(Kind::PickRoot)),
        ("apps.map_user_s", map_user),
        ("core.combiner.fold_s", fold),
        ("core.map_shuffle_s", shuffle),
        ("core.convert_s", get(Kind::Convert)),
        ("core.reduce_s", get(Kind::Reduce)),
        ("mpi.collective_s", get(Kind::Collective)),
        ("apps.drain_s", get(Kind::Drain)),
        ("unattributed_s", get(Kind::Job)),
        ("trace.job_s", job),
    ])
}

/// Starts a rank's tracer with the launch span (launch instant to the
/// rank closure) already recorded.
pub fn enter(origin: Instant) -> trace::Tracer {
    let mut tr = trace::Tracer::new(origin);
    tr.record(Kind::Launch, 0, trace::since(origin));
    tr
}

/// Runs a barrier and returns the time this rank spent blocked in it.
pub fn timed_barrier(comm: &mut Comm) -> u64 {
    let w0 = comm.stats().wait_ns;
    comm.barrier();
    comm.stats().wait_ns - w0
}

/// Emitter that only looks at what it is given: drives a user map
/// closure with no framework work behind it.
pub struct NoopEmitter(pub u64);

impl Emitter for NoopEmitter {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> mimir_core::Result<()> {
        self.0 += std::hint::black_box(key.len() + val.len()) as u64;
        Ok(())
    }
}
