//! Graph500 BFS with ranks as forked processes over the Unix-domain
//! socket transport.
//!
//! The untraced repetition calls `bfs_mimir`. The traced one drives the
//! same public core calls as the app, in the same order, with a span
//! around each: the partitioning `map_shuffle` and the adjacency build,
//! the seeding `map_shuffle` into the frontier cache, then one
//! `chain_shuffle` plus one `allreduce` per level, and the closing
//! `allreduce`. `bfs_mimir` folds its per-level `JobStats` with
//! `JobStats::merge`, which keeps the max of the phase times, so its
//! returned times are one level rather than the sum; the traced run's
//! spans give the sum. Its per-rank output must equal the untraced run's
//! byte for byte.

use std::collections::HashMap;
use std::time::Instant;

use mimir_apps::bfs::{bfs_mimir, bfs_serial, pick_root, BfsOptions, BfsResult};
use mimir_apps::validate::validate_bfs_tree;
use mimir_core::{typed, Emitter, GroupStats, KvMeta, MimirContext};
use mimir_datagen::Graph500;
use mimir_mem::{MemPool, Reservation};
use mimir_mpi::{run_world_result_on, TransportKind};

use crate::ledger::{self, CombinerCounts, JobTotals};
use crate::rep::{self, NoopEmitter, RankOut, Rep, RANKS};
use crate::trace::{self, Kind, Tracer};

/// `vertex → parent` pairs a rank owns, sorted by vertex.
type Parents = Vec<(u64, u64)>;

/// The paper's hinted configuration: fixed 8-byte keys and values, so
/// every KV is 16 bytes. No compression.
const OPTS: BfsOptions = BfsOptions {
    hint: true,
    compress: false,
};
const FRONTIER: &str = "bfs.frontier";

pub struct Bfs {
    graph: Graph500,
    shares: Vec<Vec<(u64, u64)>>,
    all_edges: Vec<(u64, u64)>,
    root: u64,
    reference: HashMap<u64, u32>,
}

impl Bfs {
    /// Generates the edge list (timed separately as `datagen.generate_s`)
    /// and the serial reference distances.
    pub fn new(scale: u32, seed: u64) -> (Bfs, f64) {
        let graph = Graph500::new(scale, seed);
        let t = Instant::now();
        let shares: Vec<Vec<(u64, u64)>> = (0..RANKS).map(|r| graph.edges(r, RANKS)).collect();
        let generate_s = t.elapsed().as_secs_f64();
        let all_edges: Vec<(u64, u64)> = shares.concat();
        let root = all_edges
            .iter()
            .flat_map(|&(u, v)| [u, v])
            .min()
            .expect("non-empty graph");
        let reference = bfs_serial(&all_edges, root);
        (
            Bfs {
                graph,
                shares,
                all_edges,
                root,
                reference,
            },
            generate_s,
        )
    }

    /// 16 bytes per generated edge, the convention of the repository's
    /// figure runners.
    pub fn input_bytes(&self) -> u64 {
        self.graph.n_edges() * 16
    }

    pub fn rep(&self, traced: bool, known_good: Option<&[u64]>) -> Rep {
        let origin = Instant::now();
        let nodes = rep::node_map();
        let io = rep::io_model();
        let res = run_world_result_on(
            TransportKind::Uds,
            RANKS,
            |comm| -> Result<RankOut<Parents>, String> {
                let mut tr = rep::enter(origin);
                let rank = comm.rank();
                let edges = &self.shares[rank];
                let root = tr.span(Kind::PickRoot, || pick_root(comm, edges));
                let pool = nodes.pool_for_rank(rank);
                let mut ctx = tr
                    .span(Kind::ContextNew, || {
                        MimirContext::new(comm, pool.clone(), io.clone(), rep::config())
                    })
                    .map_err(|e| e.to_string())?;
                tr.open(Kind::Job);
                let start_ns = trace::since(origin);
                let comm0 = ctx.comm().stats();
                let run = if traced {
                    mirror(&mut ctx, edges, root, &mut tr)
                } else {
                    bfs_mimir(&mut ctx, edges, root, &OPTS).map(|(res, m)| {
                        let totals = JobTotals {
                            job: m.job,
                            rounds: m.exchange_rounds,
                        };
                        (res.parents.into_iter().collect(), totals, None)
                    })
                };
                let (mut parents, totals, adj): (Parents, _, _) = run.map_err(|e| e.to_string())?;
                let end_ns = trace::since(origin);
                tr.close();
                let comm1 = ctx.comm().stats();
                if let Some(adj) = adj {
                    tr.span(Kind::MapUser, || replay_user_maps(edges, &parents, &adj))
                        .map_err(|e| e.to_string())?;
                }
                let counts = ledger::rank_counts(
                    &totals,
                    &GroupStats::default(),
                    &CombinerCounts::default(),
                    &pool.stats(),
                    &comm1.delta_since(&comm0),
                    comm1.handshake_ns,
                );
                parents.sort_unstable();
                Ok(RankOut {
                    start_ns,
                    end_ns,
                    counts,
                    spans: if traced { tr.finish() } else { Vec::new() },
                    digest: digest(&parents),
                    output: parents,
                })
            },
        );
        match res {
            Ok(outs) => Rep::assemble(outs, known_good, |outputs| {
                let per_rank: Vec<BfsResult> = outputs
                    .into_iter()
                    .map(|p| BfsResult {
                        parents: p.into_iter().collect(),
                        ..BfsResult::default()
                    })
                    .collect();
                validate_bfs_tree(per_rank, &self.all_edges, self.root, &self.reference);
                Ok(())
            }),
            Err(e) => Rep::failed(format!("{e:?}")),
        }
    }
}

fn digest(parents: &Parents) -> u64 {
    let bytes: Vec<u8> = parents
        .iter()
        .flat_map(|&(v, p)| v.to_le_bytes().into_iter().chain(p.to_le_bytes()))
        .collect();
    mimir_core::fxhash64(&bytes)
}

/// The app's partitioning map: both directions of every edge.
fn partition_map(
    edges: &[(u64, u64)],
) -> impl FnMut(&mut dyn Emitter) -> mimir_core::Result<()> + '_ {
    move |em: &mut dyn Emitter| {
        for &(u, v) in edges {
            em.emit(&typed::enc_u64(u), &typed::enc_u64(v))?;
            em.emit(&typed::enc_u64(v), &typed::enc_u64(u))?;
        }
        Ok(())
    }
}

/// The app's adjacency, with its heap footprint charged to the node pool
/// in the same steps, so the traced run's memory matches.
struct Adjacency {
    map: HashMap<u64, Vec<u64>>,
    res: Reservation,
    bytes: usize,
}

impl Adjacency {
    fn new(pool: &MemPool) -> mimir_core::Result<Self> {
        Ok(Self {
            map: HashMap::new(),
            res: pool.try_reserve(0)?,
            bytes: 0,
        })
    }

    fn add(&mut self, v: u64, n: u64) -> mimir_core::Result<()> {
        let entry = self.map.entry(v).or_insert_with(|| {
            self.bytes += 64;
            Vec::new()
        });
        entry.push(n);
        self.bytes += 8;
        if self.bytes.abs_diff(self.res.bytes()) > 16 * 1024 {
            self.res.resize(self.bytes)?;
        }
        Ok(())
    }
}

type MirrorOut = (Parents, JobTotals, Option<HashMap<u64, Vec<u64>>>);

/// `bfs_mimir` (hint, no compression) as its public pieces. Stage
/// bookkeeping follows the app: the seeding job's rounds are not counted
/// as exchange rounds, its other stats are folded in.
fn mirror(
    ctx: &mut MimirContext<'_>,
    edges: &[(u64, u64)],
    root: u64,
    tr: &mut Tracer,
) -> mimir_core::Result<MirrorOut> {
    let meta = KvMeta::fixed(8, 8);
    let rank = ctx.rank();
    let mut totals = JobTotals::default();

    let mut part_map = partition_map(edges);
    let out = tr.span(Kind::MapShuffle, || {
        ctx.job().kv_meta(meta).map_shuffle(&mut part_map)
    })?;
    totals.add(&out.stats);
    let mut adj = Adjacency::new(ctx.pool())?;
    tr.span(Kind::Drain, || {
        out.output
            .drain(|k, v| adj.add(typed::dec_u64(k), typed::dec_u64(v)))
    })?;

    let mut parents: HashMap<u64, u64> = HashMap::new();
    let mut seed_map = |em: &mut dyn Emitter| -> mimir_core::Result<()> {
        if rank == 0 {
            em.emit(&typed::enc_u64(root), &typed::enc_u64(root))?;
        }
        Ok(())
    };
    let out = tr.span(Kind::MapShuffle, || {
        ctx.job()
            .kv_meta(meta)
            .output_cached(FRONTIER)
            .map_shuffle(&mut seed_map)
    })?;
    totals.job.merge(&out.stats);

    loop {
        let mut new_local = 0u64;
        let adj_map = &adj.map;
        let mut trav_map = |k: &[u8], v: &[u8], em: &mut dyn Emitter| -> mimir_core::Result<()> {
            let vertex = typed::dec_u64(k);
            if let std::collections::hash_map::Entry::Vacant(e) = parents.entry(vertex) {
                e.insert(typed::dec_u64(v));
                new_local += 1;
                if let Some(neighbors) = adj_map.get(&vertex) {
                    for &n in neighbors {
                        em.emit(&typed::enc_u64(n), &typed::enc_u64(vertex))?;
                    }
                }
            }
            Ok(())
        };
        let out = tr.span(Kind::MapShuffle, || {
            ctx.job()
                .kv_meta(meta)
                .input_cached(FRONTIER)
                .output_cached(FRONTIER)
                .shuffle_elision(false)
                .chain_shuffle(&mut trav_map)
        })?;
        totals.add(&out.stats);
        let new_global = tr.span(Kind::Collective, || ctx.allreduce_sum(new_local));
        if new_global == 0 {
            break;
        }
    }
    ctx.cache_remove(FRONTIER);
    tr.span(Kind::Collective, || ctx.allreduce_sum(parents.len() as u64));
    Ok((parents.into_iter().collect(), totals, Some(adj.map)))
}

/// The user maps driven against a no-op emitter: the partitioning map
/// over the edge share, then the traversal map once for every vertex
/// this rank claimed. Proposals that lost the claim are not replayed
/// (their only user work is one failed map lookup), so this slightly
/// underestimates the traversal's user time.
fn replay_user_maps(
    edges: &[(u64, u64)],
    parents: &Parents,
    adj: &HashMap<u64, Vec<u64>>,
) -> mimir_core::Result<u64> {
    let mut em = NoopEmitter(0);
    partition_map(edges)(&mut em)?;
    let mut claimed: HashMap<u64, u64> = HashMap::with_capacity(parents.len());
    for &(vertex, parent) in parents {
        if let std::collections::hash_map::Entry::Vacant(e) = claimed.entry(vertex) {
            e.insert(parent);
            if let Some(neighbors) = adj.get(&vertex) {
                for &n in neighbors {
                    em.emit(&typed::enc_u64(n), &typed::enc_u64(vertex))?;
                }
            }
        }
    }
    Ok(std::hint::black_box(em.0))
}
