//! WordCount on the Wikipedia stand-in, on rank threads in one process.
//!
//! The untraced repetition calls `wordcount_mimir`. The traced one drives
//! the same public core calls the app's job makes, in the same order,
//! with a span around each: for the default configuration
//! `map_shuffle` → `convert_with` → `KmvContainer::for_each_group` →
//! barrier; for `WcOptions::all()` a `CombinerTable` fed by the map, its
//! flush into a `Shuffler` whose sink is a `PartialReducer`, the barrier,
//! `PartialReducer::into_output`, and the closing barrier. Its per-rank
//! output must equal the untraced run's byte for byte.

use std::collections::HashMap;
use std::time::Instant;

use mimir_apps::validate::merge_counts;
use mimir_apps::wordcount::{wordcount_mimir, wordcount_serial, WcOptions};
use mimir_core::{
    convert_with, typed, CombinerTable, Emitter, GroupStats, KvContainer, KvMeta, MimirContext,
    PartialReducer, Partitioner, Shuffler,
};
use mimir_datagen::WikipediaWords;
use mimir_io::{words, LineReader};
use mimir_mpi::run_world_result;

use crate::ledger::{self, CombinerCounts, JobTotals};
use crate::rep::{self, NoopEmitter, RankOut, Rep, RANKS};
use crate::trace::{self, Kind, Tracer};

type Counts = Vec<(Vec<u8>, u64)>;

pub struct Wc {
    opts: WcOptions,
    shares: Vec<Vec<u8>>,
    reference: HashMap<Vec<u8>, u64>,
}

impl Wc {
    /// Generates the corpus (timed separately as `datagen.generate_s`)
    /// and its serial reference counts.
    pub fn new(opts: WcOptions, total_bytes: usize, seed: u64) -> (Wc, f64) {
        let gen = WikipediaWords {
            vocab: 20_000,
            zipf_s: 1.0,
            seed,
        };
        let t = Instant::now();
        let shares: Vec<Vec<u8>> = (0..RANKS)
            .map(|r| gen.generate(r, RANKS, total_bytes))
            .collect();
        let generate_s = t.elapsed().as_secs_f64();
        let refs: Vec<&[u8]> = shares.iter().map(|s| &s[..]).collect();
        let reference = wordcount_serial(&refs);
        (
            Wc {
                opts,
                shares,
                reference,
            },
            generate_s,
        )
    }

    pub fn input_bytes(&self) -> u64 {
        self.shares.iter().map(|s| s.len() as u64).sum()
    }

    pub fn rep(&self, traced: bool, known_good: Option<&[u64]>) -> Rep {
        let origin = Instant::now();
        let nodes = rep::node_map();
        let io = rep::io_model();
        let res = run_world_result(RANKS, |comm| -> Result<RankOut<Counts>, String> {
            let mut tr = rep::enter(origin);
            let rank = comm.rank();
            let text = &self.shares[rank];
            let pool = nodes.pool_for_rank(rank);
            let mut ctx = tr
                .span(Kind::ContextNew, || {
                    MimirContext::new(comm, pool.clone(), io.clone(), rep::config())
                })
                .map_err(|e| e.to_string())?;
            tr.open(Kind::Job);
            let start_ns = trace::since(origin);
            let comm0 = ctx.comm().stats();
            let run = if !traced {
                self.plain(&mut ctx, text)
            } else if self.opts.partial_reduce {
                mirror_partial(&mut ctx, text, &mut tr)
            } else {
                mirror_grouped(&mut ctx, text, &mut tr)
            };
            let (mut counts, totals, convert, combiner) = run.map_err(|e| e.to_string())?;
            let end_ns = trace::since(origin);
            tr.close();
            let comm1 = ctx.comm().stats();
            if traced {
                tr.span(Kind::MapUser, || {
                    let mut em = NoopEmitter(0);
                    wc_map(text)(&mut em).map(|()| std::hint::black_box(em.0))
                })
                .map_err(|e| e.to_string())?;
            }
            let counts_slots = ledger::rank_counts(
                &totals,
                &convert,
                &combiner,
                &pool.stats(),
                &comm1.delta_since(&comm0),
                comm1.handshake_ns,
            );
            counts.sort_unstable();
            Ok(RankOut {
                start_ns,
                end_ns,
                counts: counts_slots,
                spans: if traced { tr.finish() } else { Vec::new() },
                digest: digest(&counts),
                output: counts,
            })
        });
        match res {
            Ok(outs) => Rep::assemble(outs, known_good, |outputs| {
                let merged = merge_counts(outputs);
                if merged == self.reference {
                    Ok(())
                } else {
                    Err(format!(
                        "{} distinct words counted, reference has {}",
                        merged.len(),
                        self.reference.len()
                    ))
                }
            }),
            Err(e) => Rep::failed(format!("{e:?}")),
        }
    }

    /// The app's entry point; the split counters come from the stats it
    /// returns (one job, so nothing is folded).
    fn plain(&self, ctx: &mut MimirContext<'_>, text: &[u8]) -> mimir_core::Result<Outcome> {
        let (counts, m) = wordcount_mimir(ctx, text, &self.opts)?;
        let totals = JobTotals {
            job: m.job,
            rounds: m.exchange_rounds,
        };
        // With compression or partial reduction on, `job.group` folds the
        // combiner and fold tables together; only the convert index is
        // reported on its own.
        let convert = if self.opts.partial_reduce || self.opts.compress {
            GroupStats::default()
        } else {
            m.job.group
        };
        Ok((counts, totals, convert, CombinerCounts::default()))
    }
}

type Outcome = (Counts, JobTotals, GroupStats, CombinerCounts);

/// The app's map closure: one `(word, 1)` per word of each line.
fn wc_map(text: &[u8]) -> impl FnMut(&mut dyn Emitter) -> mimir_core::Result<()> + '_ {
    let one = typed::enc_u64(1);
    move |em: &mut dyn Emitter| {
        for line in LineReader::new(text) {
            for w in words(line) {
                em.emit(w, &one)?;
            }
        }
        Ok(())
    }
}

fn sum_u64(_k: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&typed::enc_u64(typed::dec_u64(a) + typed::dec_u64(b)));
}

fn digest(counts: &Counts) -> u64 {
    let mut bytes = Vec::new();
    for (k, v) in counts {
        bytes.extend_from_slice(&(k.len() as u32).to_le_bytes());
        bytes.extend_from_slice(k);
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    mimir_core::fxhash64(&bytes)
}

fn drain_counts(out: KvContainer, tr: &mut Tracer) -> mimir_core::Result<Counts> {
    let mut counts = Vec::with_capacity(out.len() as usize);
    tr.span(Kind::Drain, || {
        out.drain(|k, v| {
            counts.push((k.to_vec(), typed::dec_u64(v)));
            Ok(())
        })
    })?;
    Ok(counts)
}

/// `map_reduce` (no hint, no compression) as its public pieces.
fn mirror_grouped(
    ctx: &mut MimirContext<'_>,
    text: &[u8],
    tr: &mut Tracer,
) -> mimir_core::Result<Outcome> {
    let meta = KvMeta::var();
    let pool = ctx.pool().clone();
    let gmode = ctx.config().grouping_mode;
    let mut map = wc_map(text);
    let mut totals = JobTotals::default();

    let out = tr.span(Kind::MapShuffle, || {
        ctx.job().kv_meta(meta).out_meta(meta).map_shuffle(&mut map)
    })?;
    totals.add(&out.stats);

    pool.reset_phase_peak();
    let (kmvc, convert) = tr.span(Kind::Convert, || convert_with(out.output, &pool, gmode))?;
    totals.job.convert_peak_bytes = pool.phase_peak();

    pool.reset_phase_peak();
    let mut reduced = KvContainer::new(&pool, meta);
    totals.job.unique_keys = kmvc.n_groups() as u64;
    tr.span(Kind::Reduce, || {
        let r = kmvc.for_each_group(|k, vals| {
            let total: u64 = vals.map(typed::dec_u64).sum();
            reduced.push(k, &typed::enc_u64(total))
        });
        drop(kmvc);
        r
    })?;
    totals.job.barrier_wait_ns += tr.span(Kind::Collective, || rep::timed_barrier(ctx.comm()));
    totals.job.reduce_peak_bytes = pool.phase_peak();

    let counts = drain_counts(reduced, tr)?;
    Ok((counts, totals, convert, CombinerCounts::default()))
}

/// `map_partial_reduce_compress` (hint, partial reduction, compression)
/// as its public pieces.
fn mirror_partial(
    ctx: &mut MimirContext<'_>,
    text: &[u8],
    tr: &mut Tracer,
) -> mimir_core::Result<Outcome> {
    let meta = KvMeta::cstr_key_u64_val();
    let pool = ctx.pool().clone();
    let cfg = ctx.config();
    let mut map = wc_map(text);
    let mut totals = JobTotals::default();

    pool.reset_phase_peak();
    tr.open(Kind::CombinerFold);
    let sink = PartialReducer::with_mode(&pool, meta, Box::new(sum_u64), cfg.grouping_mode)?;
    let mut shuffler = Shuffler::with_policy(
        ctx.comm(),
        &pool,
        meta,
        cfg.comm_buf_size,
        sink,
        Partitioner::hash(),
        cfg.shuffle_mode,
        cfg.adapt,
    )?;
    let mut table = CombinerTable::with_mode(&pool, meta, Box::new(sum_u64), cfg.grouping_mode)?;
    map(&mut table)?;
    tr.close();

    tr.open(Kind::MapShuffle);
    table.flush_into(&mut shuffler)?;
    let mut combiner = CombinerCounts {
        kvs_in: table.kvs_in(),
        kvs_out: 0,
        group: table.group_stats(),
    };
    drop(table);
    let (reducer, shuffle) = shuffler.finish()?;
    let barrier_wait_ns = rep::timed_barrier(ctx.comm());
    tr.close();
    combiner.kvs_out = shuffle.kvs_emitted;
    let map_peak_bytes = pool.phase_peak();

    pool.reset_phase_peak();
    let unique_keys = reducer.unique_keys() as u64;
    let out = tr.span(Kind::Reduce, || reducer.into_output(&pool, meta))?;
    let closing_wait = tr.span(Kind::Collective, || rep::timed_barrier(ctx.comm()));
    totals.add(&mimir_core::JobStats {
        shuffle,
        unique_keys,
        map_peak_bytes,
        reduce_peak_bytes: pool.phase_peak(),
        barrier_wait_ns: barrier_wait_ns + closing_wait,
        ..mimir_core::JobStats::default()
    });

    let counts = drain_counts(out, tr)?;
    Ok((counts, totals, GroupStats::default(), combiner))
}
