//! Job driver: wires map callbacks, the shuffle, the optional
//! optimizations, and the convert/reduce phases into the four run shapes
//! the paper's benchmarks need.
//!
//! | method | aggregate sink | grouping | used by |
//! |---|---|---|---|
//! | [`MapReduceJob::map_reduce`] | KVC | convert + reduce | WC/OC baseline |
//! | [`MapReduceJob::map_partial_reduce`] | fold bucket | (none) | WC/OC `pr` |
//! | [`MapReduceJob::map_shuffle`] | KVC | none (map-only) | BFS |
//!
//! Each shape has a `*_compress` variant that interposes the KV
//! compression table between the map and the shuffle, and a `chain_*`
//! variant (`chain_reduce`, `chain_partial_reduce`, `chain_shuffle`) that
//! replaces the map's input with a cross-job cached container (see
//! [`crate::KvCache`]) — eliding the shuffle entirely when the cached
//! placement fingerprint matches the job's partitioner.
//!
//! Per the paper, the global synchronization between map and reduce is
//! retained (a barrier after the shuffle completes); everything else is
//! implicit and interleaved.

use std::time::Instant;

use mimir_obs::{EventKind, Phase};

use crate::cache::{lock_cache, CheckedOut, SharedKvCache};
use crate::combiner::{CombineFn, CombinerTable, StreamingCombiner};
use crate::context::MimirContext;
use crate::convert::convert_counted;
use crate::group::GroupStats;
use crate::kmvc::ValueIter;
use crate::partial::PartialReducer;
use crate::partitioner::{PartitionFingerprint, Partitioner};
use crate::shuffle::{Emitter, ShuffleStats, Shuffler};
use crate::sink::KvSink;
use crate::{AdaptPolicy, JobStats, KvContainer, KvMeta, MimirError, Result, ShuffleMode};

/// Pushes the pool's current occupancy into this rank's live telemetry
/// accumulator (a no-op unless the plane is armed on this thread), so
/// the online memory-headroom rule sees gauges that move at phase
/// boundaries instead of only in the end-of-job report.
fn note_live_mem(pool: &mimir_mem::MemPool) {
    if mimir_obs::live::shared().is_none() {
        return;
    }
    mimir_obs::live::note_mem(pool.stats().counters());
}

/// A configured-but-not-yet-run MapReduce job.
pub struct MapReduceJob<'c, 'w> {
    ctx: &'c mut MimirContext<'w>,
    kv_meta: KvMeta,
    out_meta: KvMeta,
    partitioner: Partitioner,
    compress_flush_bytes: Option<usize>,
    shuffle_mode: Option<ShuffleMode>,
    adapt_policy: Option<AdaptPolicy>,
    input_cached: Option<String>,
    output_cached: Option<String>,
    elide: bool,
}

/// A finished job: the output KVs this rank owns, plus metrics.
pub struct JobOutput {
    /// Output KVs (hash-partitioned across ranks by key for shuffled
    /// shapes; reduce output stays on the reducing rank).
    pub output: KvContainer,
    /// Per-rank metrics.
    pub stats: JobStats,
}

/// Emitter wrapper for reduce callbacks writing job output.
pub struct OutEmitter<'a> {
    kvc: &'a mut KvContainer,
    count: u64,
}

impl Emitter for OutEmitter<'_> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        self.count += 1;
        self.kvc.push(key, val)
    }
}

/// Map callback: drives this rank's share of the input, emitting
/// intermediate KVs.
pub type MapFn<'f> = &'f mut dyn FnMut(&mut dyn Emitter) -> Result<()>;

/// Chained map callback: invoked once per KV of the locally-resident
/// cached input partition (see [`MapReduceJob::input_cached`]), emitting
/// intermediate KVs for this job.
pub type ChainMapFn<'f> = &'f mut dyn FnMut(&[u8], &[u8], &mut dyn Emitter) -> Result<()>;

/// The elided-shuffle emitter: feeds the chained map's output straight
/// into the aggregate sink, skipping the exchange entirely. Every emitted
/// key is checked against the declared partitioner so a map that is *not*
/// partition-preserving fails loudly instead of silently misplacing data.
struct LocalEmitter<'a, S: KvSink> {
    sink: &'a mut S,
    partitioner: &'a Partitioner,
    rank: usize,
    n_ranks: usize,
    kvs: u64,
    bytes: u64,
}

impl<S: KvSink> Emitter for LocalEmitter<'_, S> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        let owner = self.partitioner.of(key, self.n_ranks);
        if owner != self.rank {
            return Err(MimirError::Cache(format!(
                "elided shuffle on rank {}: map emitted a key owned by rank {owner}; \
                 the chained map is not partition-preserving — declare it with \
                 shuffle_elision(false)",
                self.rank
            )));
        }
        self.kvs += 1;
        self.bytes += (key.len() + val.len()) as u64;
        self.sink.accept(key, val)
    }
}

/// Reduce callback: one key with all its values; emits output KVs.
pub type ReduceFn<'f> = &'f mut dyn FnMut(&[u8], ValueIter<'_>, &mut dyn Emitter) -> Result<()>;

impl<'c, 'w> MapReduceJob<'c, 'w> {
    pub(crate) fn new(ctx: &'c mut MimirContext<'w>) -> Self {
        Self {
            ctx,
            kv_meta: KvMeta::var(),
            out_meta: KvMeta::var(),
            partitioner: Partitioner::hash(),
            compress_flush_bytes: None,
            shuffle_mode: None,
            adapt_policy: None,
            input_cached: None,
            output_cached: None,
            elide: true,
        }
    }

    /// Sets the intermediate KV encoding (the KV-hint optimization).
    #[must_use]
    pub fn kv_meta(mut self, meta: KvMeta) -> Self {
        self.kv_meta = meta;
        self
    }

    /// Sets the output KV encoding (defaults to un-hinted).
    #[must_use]
    pub fn out_meta(mut self, meta: KvMeta) -> Self {
        self.out_meta = meta;
        self
    }

    /// Installs a user key partitioner (default: hash). Must be
    /// deterministic and identical on every rank.
    #[must_use]
    pub fn partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Bounds the KV-compression table: when its footprint exceeds
    /// `bytes`, it flushes into the shuffle mid-map instead of delaying
    /// the whole aggregate until the map completes.
    ///
    /// This implements the improvement the paper defers to "a future
    /// version of Mimir" (Section III-C2 lists the delayed aggregate as
    /// an implementation shortcoming of KV compression): the compression
    /// memory becomes a tunable budget rather than scaling with the
    /// number of unique keys. Flushing early trades some compression
    /// ratio for bounded memory — duplicates arriving after a flush are
    /// re-sent rather than merged.
    #[must_use]
    pub fn compress_flush_bytes(mut self, bytes: usize) -> Self {
        self.compress_flush_bytes = Some(bytes);
        self
    }

    /// Overrides the context's [`ShuffleMode`] for this job. Collective:
    /// every rank must choose the same mode.
    #[must_use]
    pub fn shuffle_mode(mut self, mode: ShuffleMode) -> Self {
        self.shuffle_mode = Some(mode);
        self
    }

    /// Overrides the context's [`AdaptPolicy`] for this job (only
    /// consulted when the effective shuffle mode is
    /// [`ShuffleMode::Adaptive`]). Collective: every rank must choose the
    /// same policy — the adaptive controller's ballots assume identical
    /// thresholds on all ranks.
    #[must_use]
    pub fn adapt_policy(mut self, policy: AdaptPolicy) -> Self {
        self.adapt_policy = Some(policy);
        self
    }

    /// Chains this job onto the named cached container from a previous
    /// job on this context (see [`Self::output_cached`]): the `chain_*`
    /// run shapes feed the locally-resident partition straight into the
    /// chained map with zero serialize/spill round-trip. When the cached
    /// placement fingerprint matches this job's partitioner (and elision
    /// is not disabled via [`Self::shuffle_elision`]), the shuffle is
    /// elided entirely. Only valid with the `chain_*` shapes.
    #[must_use]
    pub fn input_cached(mut self, name: impl Into<String>) -> Self {
        self.input_cached = Some(name.into());
        self
    }

    /// Retains this job's output in the cross-job cache under `name`
    /// instead of returning it: the returned [`JobOutput`] carries an
    /// *empty* container (stats still describe the real output), and the
    /// KVs stay resident — charged against the pool — for a later job's
    /// [`Self::input_cached`] or [`MimirContext::with_cached`]. The entry
    /// is tagged with this job's partitioner fingerprint; an existing
    /// entry of the same name is replaced (the iterative update-in-place
    /// pattern).
    #[must_use]
    pub fn output_cached(mut self, name: impl Into<String>) -> Self {
        self.output_cached = Some(name.into());
        self
    }

    /// Controls shuffle elision for the `chain_*` shapes (default `true`).
    /// Elision requires a *partition-preserving* map: every emitted key
    /// must land on this rank under the job's partitioner (checked per
    /// emit; violations fail with [`MimirError::Cache`]). Key-changing
    /// maps — BFS traversal, PageRank scatter — must pass `false` to get
    /// a real exchange. Collective: every rank must choose the same value.
    #[must_use]
    pub fn shuffle_elision(mut self, on: bool) -> Self {
        self.elide = on;
        self
    }

    /// The baseline workflow: map → (implicit aggregate) → convert →
    /// reduce.
    ///
    /// # Errors
    /// Memory exhaustion, hint violations, oversized KVs, or errors from
    /// the callbacks.
    pub fn map_reduce(self, map: MapFn<'_>, reduce: ReduceFn<'_>) -> Result<JobOutput> {
        self.run_grouped(map, None, reduce)
    }

    /// [`Self::map_reduce`] with map-side KV compression.
    pub fn map_reduce_compress(
        self,
        map: MapFn<'_>,
        compress: CombineFn<'_>,
        reduce: ReduceFn<'_>,
    ) -> Result<JobOutput> {
        self.run_grouped(map, Some(compress), reduce)
    }

    /// Partial reduction: map → (implicit aggregate) → fold. Replaces
    /// convert+reduce; requires `combine` to be commutative and
    /// associative.
    pub fn map_partial_reduce(self, map: MapFn<'_>, combine: CombineFn<'_>) -> Result<JobOutput> {
        self.run_partial(map, None, combine)
    }

    /// [`Self::map_partial_reduce`] with map-side KV compression too.
    pub fn map_partial_reduce_compress(
        self,
        map: MapFn<'_>,
        compress: CombineFn<'_>,
        combine: CombineFn<'_>,
    ) -> Result<JobOutput> {
        self.run_partial(map, Some(compress), combine)
    }

    /// Map-only with shuffle: emitted KVs are hash-partitioned to their
    /// owner ranks and returned ungrouped (the BFS traversal shape).
    pub fn map_shuffle(self, map: MapFn<'_>) -> Result<JobOutput> {
        ensure_not_chained(&self.input_cached)?;
        let MimirContext {
            comm,
            pool,
            cfg,
            cancel,
            cache,
            ..
        } = &mut *self.ctx;
        cancel_checkpoint(comm, cancel)?;
        let t0 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let map_span = mimir_obs::phase_span(Phase::Map);
        let sink = KvContainer::new(pool, self.kv_meta);
        let mut shuffler = Shuffler::with_policy(
            comm,
            pool,
            self.kv_meta,
            cfg.comm_buf_size,
            sink,
            self.partitioner.clone(),
            self.shuffle_mode.unwrap_or(cfg.shuffle_mode),
            self.adapt_policy.unwrap_or(cfg.adapt),
        )?;
        map(&mut shuffler)?;
        drop(map_span);
        let agg_span = mimir_obs::phase_span(Phase::Aggregate);
        let (kvc, shuffle) = shuffler.finish()?;
        let barrier_wait_ns = timed_barrier(comm);
        drop(agg_span);
        let kvs_out = kvc.len();
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let output = stash_or_return(cache, pool, &self.output_cached, fingerprint, kvc);
        Ok(JobOutput {
            output,
            stats: JobStats {
                map_time: t0.elapsed(),
                shuffle,
                kvs_out,
                node_peak_bytes: pool.peak(),
                map_peak_bytes: pool.phase_peak(),
                barrier_wait_ns,
                ..JobStats::default()
            },
        })
    }

    /// [`Self::map_shuffle`] with map-side KV compression.
    pub fn map_shuffle_compress(
        self,
        map: MapFn<'_>,
        compress: CombineFn<'_>,
    ) -> Result<JobOutput> {
        ensure_not_chained(&self.input_cached)?;
        let MimirContext {
            comm,
            pool,
            cfg,
            cancel,
            cache,
            ..
        } = &mut *self.ctx;
        cancel_checkpoint(comm, cancel)?;
        let t0 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let map_span = mimir_obs::phase_span(Phase::Map);
        let sink = KvContainer::new(pool, self.kv_meta);
        let mut shuffler = Shuffler::with_policy(
            comm,
            pool,
            self.kv_meta,
            cfg.comm_buf_size,
            sink,
            self.partitioner.clone(),
            self.shuffle_mode.unwrap_or(cfg.shuffle_mode),
            self.adapt_policy.unwrap_or(cfg.adapt),
        )?;
        let group = drive_compressed_map(
            map,
            compress,
            pool,
            self.kv_meta,
            self.compress_flush_bytes,
            &mut shuffler,
        )?;
        drop(map_span);
        let agg_span = mimir_obs::phase_span(Phase::Aggregate);
        let (kvc, shuffle) = shuffler.finish()?;
        let barrier_wait_ns = timed_barrier(comm);
        drop(agg_span);
        let kvs_out = kvc.len();
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let output = stash_or_return(cache, pool, &self.output_cached, fingerprint, kvc);
        Ok(JobOutput {
            output,
            stats: JobStats {
                map_time: t0.elapsed(),
                shuffle,
                group,
                kvs_out,
                node_peak_bytes: pool.peak(),
                map_peak_bytes: pool.phase_peak(),
                barrier_wait_ns,
                ..JobStats::default()
            },
        })
    }

    /// Chained map-only: runs `map` once per KV of the cached input named
    /// by [`Self::input_cached`], partitioning its output by this job's
    /// partitioner. When the input's placement fingerprint matches and
    /// elision is enabled, the exchange is skipped entirely (a
    /// `shuffle_elided` trace event marks it); otherwise the output goes
    /// through a real shuffle. The iterative BFS traversal shape.
    ///
    /// # Errors
    /// [`MimirError::Cache`] when no input name was declared, the name is
    /// not cached, or an elided map emits a key this rank does not own;
    /// otherwise as [`Self::map_shuffle`].
    pub fn chain_shuffle(self, map: ChainMapFn<'_>) -> Result<JobOutput> {
        let in_name = require_chain_input(&self.input_cached)?;
        let MimirContext {
            comm,
            pool,
            cfg,
            cancel,
            cache,
            ..
        } = &mut *self.ctx;
        cancel_checkpoint(comm, cancel)?;
        let t0 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let map_span = mimir_obs::phase_span(Phase::Map);
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let input = lock_cache(cache).checkout(&in_name, pool)?;
        let elide = self.elide && input.fingerprint == fingerprint;
        let sink = KvContainer::new(pool, self.kv_meta);
        let fed = feed_chain(
            comm,
            pool,
            cfg.comm_buf_size,
            self.kv_meta,
            &self.partitioner,
            self.shuffle_mode.unwrap_or(cfg.shuffle_mode),
            self.adapt_policy.unwrap_or(cfg.adapt),
            &input.kvc,
            map,
            sink,
            elide,
        );
        finish_chain_input(cache, &in_name, input, elide && fed.is_ok());
        let (kvc, shuffle) = fed?;
        drop(map_span);
        let agg_span = mimir_obs::phase_span(Phase::Aggregate);
        let barrier_wait_ns = timed_barrier(comm);
        drop(agg_span);
        let kvs_out = kvc.len();
        let output = stash_or_return(cache, pool, &self.output_cached, fingerprint, kvc);
        Ok(JobOutput {
            output,
            stats: JobStats {
                map_time: t0.elapsed(),
                shuffle,
                kvs_out,
                node_peak_bytes: pool.peak(),
                map_peak_bytes: pool.phase_peak(),
                barrier_wait_ns,
                ..JobStats::default()
            },
        })
    }

    /// Chained full workflow: per-KV map over the cached input, then
    /// convert + reduce — [`Self::map_reduce`] with the front half
    /// replaced by the cache (and the shuffle elided when the placement
    /// fingerprint matches).
    ///
    /// # Errors
    /// As [`Self::chain_shuffle`] and [`Self::map_reduce`].
    pub fn chain_reduce(self, map: ChainMapFn<'_>, reduce: ReduceFn<'_>) -> Result<JobOutput> {
        let in_name = require_chain_input(&self.input_cached)?;
        let out_meta = self.out_meta;
        let kv_meta = self.kv_meta;
        let MimirContext {
            comm,
            pool,
            cfg,
            cancel,
            cache,
            ..
        } = &mut *self.ctx;
        cancel_checkpoint(comm, cancel)?;

        // --- chained map + (elided) aggregate -------------------------
        let t0 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let map_span = mimir_obs::phase_span(Phase::Map);
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let input = lock_cache(cache).checkout(&in_name, pool)?;
        let elide = self.elide && input.fingerprint == fingerprint;
        let sink = KvContainer::new(pool, kv_meta);
        let fed = feed_chain(
            comm,
            pool,
            cfg.comm_buf_size,
            kv_meta,
            &self.partitioner,
            self.shuffle_mode.unwrap_or(cfg.shuffle_mode),
            self.adapt_policy.unwrap_or(cfg.adapt),
            &input.kvc,
            map,
            sink,
            elide,
        );
        finish_chain_input(cache, &in_name, input, elide && fed.is_ok());
        let (kvc, shuffle) = fed?;
        drop(map_span);
        let agg_span = mimir_obs::phase_span(Phase::Aggregate);
        let mut barrier_wait_ns = timed_barrier(comm);
        drop(agg_span);
        let map_time = t0.elapsed();
        let map_peak_bytes = pool.phase_peak();
        cancel_checkpoint(comm, cancel)?;

        // --- convert ---------------------------------------------------
        let t1 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let convert_span = mimir_obs::phase_span(Phase::Convert);
        let (kmvc, group) = convert_counted(kvc, pool)?;
        drop(convert_span);
        let convert_time = t1.elapsed();
        let convert_peak_bytes = pool.phase_peak();
        cancel_checkpoint(comm, cancel)?;

        // --- reduce ----------------------------------------------------
        let t2 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let reduce_span = mimir_obs::phase_span(Phase::Reduce);
        let mut out = KvContainer::new(pool, out_meta);
        let unique_keys = kmvc.n_groups() as u64;
        {
            let mut emitter = OutEmitter {
                kvc: &mut out,
                count: 0,
            };
            kmvc.for_each_group(|k, vals| reduce(k, vals, &mut emitter))?;
        }
        drop(kmvc);
        barrier_wait_ns += timed_barrier(comm);
        drop(reduce_span);
        let reduce_time = t2.elapsed();
        let reduce_peak_bytes = pool.phase_peak();

        let kvs_out = out.len();
        let output = stash_or_return(cache, pool, &self.output_cached, fingerprint, out);
        Ok(JobOutput {
            output,
            stats: JobStats {
                map_time,
                convert_time,
                reduce_time,
                shuffle,
                group,
                unique_keys,
                node_peak_bytes: pool.peak(),
                map_peak_bytes,
                convert_peak_bytes,
                reduce_peak_bytes,
                kvs_out,
                barrier_wait_ns,
            },
        })
    }

    /// Chained partial reduction: per-KV map over the cached input folding
    /// straight into the combine bucket — [`Self::map_partial_reduce`]
    /// with the front half replaced by the cache (and the shuffle elided
    /// when the placement fingerprint matches). The iterative PageRank
    /// shape.
    ///
    /// # Errors
    /// As [`Self::chain_shuffle`] and [`Self::map_partial_reduce`].
    pub fn chain_partial_reduce(
        self,
        map: ChainMapFn<'_>,
        combine: CombineFn<'_>,
    ) -> Result<JobOutput> {
        let in_name = require_chain_input(&self.input_cached)?;
        let out_meta = self.out_meta;
        let kv_meta = self.kv_meta;
        let MimirContext {
            comm,
            pool,
            cfg,
            cancel,
            cache,
            ..
        } = &mut *self.ctx;
        cancel_checkpoint(comm, cancel)?;

        let t0 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let map_span = mimir_obs::phase_span(Phase::Map);
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let input = lock_cache(cache).checkout(&in_name, pool)?;
        let elide = self.elide && input.fingerprint == fingerprint;
        let sink = PartialReducer::new(pool, kv_meta, combine)?;
        let fed = feed_chain(
            comm,
            pool,
            cfg.comm_buf_size,
            kv_meta,
            &self.partitioner,
            self.shuffle_mode.unwrap_or(cfg.shuffle_mode),
            self.adapt_policy.unwrap_or(cfg.adapt),
            &input.kvc,
            map,
            sink,
            elide,
        );
        finish_chain_input(cache, &in_name, input, elide && fed.is_ok());
        let (reducer, shuffle) = fed?;
        drop(map_span);
        let agg_span = mimir_obs::phase_span(Phase::Aggregate);
        let mut barrier_wait_ns = timed_barrier(comm);
        drop(agg_span);
        let map_time = t0.elapsed();
        let map_peak_bytes = pool.phase_peak();
        cancel_checkpoint(comm, cancel)?;

        let t2 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let reduce_span = mimir_obs::phase_span(Phase::Reduce);
        let unique_keys = reducer.unique_keys() as u64;
        let group = reducer.group_stats();
        let out = reducer.into_output(pool, out_meta)?;
        barrier_wait_ns += timed_barrier(comm);
        drop(reduce_span);
        let reduce_time = t2.elapsed();
        let reduce_peak_bytes = pool.phase_peak();

        let kvs_out = out.len();
        let output = stash_or_return(cache, pool, &self.output_cached, fingerprint, out);
        Ok(JobOutput {
            output,
            stats: JobStats {
                map_time,
                convert_time: std::time::Duration::ZERO,
                reduce_time,
                shuffle,
                group,
                unique_keys,
                kvs_out,
                node_peak_bytes: pool.peak(),
                map_peak_bytes,
                reduce_peak_bytes,
                barrier_wait_ns,
                ..JobStats::default()
            },
        })
    }

    fn run_grouped(
        self,
        map: MapFn<'_>,
        compress: Option<CombineFn<'_>>,
        reduce: ReduceFn<'_>,
    ) -> Result<JobOutput> {
        ensure_not_chained(&self.input_cached)?;
        let out_meta = self.out_meta;
        let kv_meta = self.kv_meta;
        let MimirContext {
            comm,
            pool,
            cfg,
            cancel,
            cache,
            ..
        } = &mut *self.ctx;
        cancel_checkpoint(comm, cancel)?;

        // --- map + implicit aggregate --------------------------------
        let t0 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let map_span = mimir_obs::phase_span(Phase::Map);
        let sink = KvContainer::new(pool, kv_meta);
        let mut shuffler = Shuffler::with_policy(
            comm,
            pool,
            kv_meta,
            cfg.comm_buf_size,
            sink,
            self.partitioner.clone(),
            self.shuffle_mode.unwrap_or(cfg.shuffle_mode),
            self.adapt_policy.unwrap_or(cfg.adapt),
        )?;
        let mut group = GroupStats::default();
        match compress {
            None => map(&mut shuffler)?,
            Some(cf) => {
                group = drive_compressed_map(
                    map,
                    cf,
                    pool,
                    kv_meta,
                    self.compress_flush_bytes,
                    &mut shuffler,
                )?;
            }
        }
        drop(map_span);
        let agg_span = mimir_obs::phase_span(Phase::Aggregate);
        let (kvc, shuffle) = shuffler.finish()?;
        // The paper retains the global synchronization between the map
        // and reduce phases.
        let mut barrier_wait_ns = timed_barrier(comm);
        drop(agg_span);
        let map_time = t0.elapsed();
        let map_peak_bytes = pool.phase_peak();
        cancel_checkpoint(comm, cancel)?;

        // --- convert ---------------------------------------------------
        let t1 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let convert_span = mimir_obs::phase_span(Phase::Convert);
        let (kmvc, convert_group) = convert_counted(kvc, pool)?;
        group.merge(&convert_group);
        drop(convert_span);
        let convert_time = t1.elapsed();
        let convert_peak_bytes = pool.phase_peak();
        cancel_checkpoint(comm, cancel)?;

        // --- reduce ----------------------------------------------------
        let t2 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let reduce_span = mimir_obs::phase_span(Phase::Reduce);
        let mut out = KvContainer::new(pool, out_meta);
        let unique_keys = kmvc.n_groups() as u64;
        {
            let mut emitter = OutEmitter {
                kvc: &mut out,
                count: 0,
            };
            kmvc.for_each_group(|k, vals| reduce(k, vals, &mut emitter))?;
        }
        drop(kmvc);
        barrier_wait_ns += timed_barrier(comm);
        drop(reduce_span);
        let reduce_time = t2.elapsed();
        let reduce_peak_bytes = pool.phase_peak();

        let kvs_out = out.len();
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let output = stash_or_return(cache, pool, &self.output_cached, fingerprint, out);
        Ok(JobOutput {
            output,
            stats: JobStats {
                map_time,
                convert_time,
                reduce_time,
                shuffle,
                group,
                unique_keys,
                node_peak_bytes: pool.peak(),
                map_peak_bytes,
                convert_peak_bytes,
                reduce_peak_bytes,
                kvs_out,
                barrier_wait_ns,
            },
        })
    }

    fn run_partial(
        self,
        map: MapFn<'_>,
        compress: Option<CombineFn<'_>>,
        combine: CombineFn<'_>,
    ) -> Result<JobOutput> {
        ensure_not_chained(&self.input_cached)?;
        let out_meta = self.out_meta;
        let kv_meta = self.kv_meta;
        let MimirContext {
            comm,
            pool,
            cfg,
            cancel,
            cache,
            ..
        } = &mut *self.ctx;
        cancel_checkpoint(comm, cancel)?;

        let t0 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let map_span = mimir_obs::phase_span(Phase::Map);
        let sink = PartialReducer::new(pool, kv_meta, combine)?;
        let mut shuffler = Shuffler::with_policy(
            comm,
            pool,
            kv_meta,
            cfg.comm_buf_size,
            sink,
            self.partitioner.clone(),
            self.shuffle_mode.unwrap_or(cfg.shuffle_mode),
            self.adapt_policy.unwrap_or(cfg.adapt),
        )?;
        let mut group = GroupStats::default();
        match compress {
            None => map(&mut shuffler)?,
            Some(cf) => {
                group = drive_compressed_map(
                    map,
                    cf,
                    pool,
                    kv_meta,
                    self.compress_flush_bytes,
                    &mut shuffler,
                )?;
            }
        }
        drop(map_span);
        let agg_span = mimir_obs::phase_span(Phase::Aggregate);
        let (reducer, shuffle) = shuffler.finish()?;
        let mut barrier_wait_ns = timed_barrier(comm);
        drop(agg_span);
        let map_time = t0.elapsed();
        let map_peak_bytes = pool.phase_peak();
        cancel_checkpoint(comm, cancel)?;

        let t2 = Instant::now();
        pool.reset_phase_peak();
        note_live_mem(pool);
        let reduce_span = mimir_obs::phase_span(Phase::Reduce);
        let unique_keys = reducer.unique_keys() as u64;
        group.merge(&reducer.group_stats());
        let out = reducer.into_output(pool, out_meta)?;
        barrier_wait_ns += timed_barrier(comm);
        drop(reduce_span);
        let reduce_time = t2.elapsed();
        let reduce_peak_bytes = pool.phase_peak();

        let kvs_out = out.len();
        let fingerprint = self.partitioner.fingerprint(comm.size());
        let output = stash_or_return(cache, pool, &self.output_cached, fingerprint, out);
        Ok(JobOutput {
            output,
            stats: JobStats {
                map_time,
                convert_time: std::time::Duration::ZERO,
                reduce_time,
                shuffle,
                group,
                unique_keys,
                kvs_out,
                node_peak_bytes: pool.peak(),
                map_peak_bytes,
                reduce_peak_bytes,
                barrier_wait_ns,
                ..JobStats::default()
            },
        })
    }
}

/// Rejects [`MapReduceJob::input_cached`] on a non-chain run shape: the
/// classic shapes drive their own input and would silently ignore it.
fn ensure_not_chained(input: &Option<String>) -> Result<()> {
    match input {
        Some(name) => Err(MimirError::Cache(format!(
            "input_cached({name:?}) requires a chain_* run shape"
        ))),
        None => Ok(()),
    }
}

/// Requires the chain shapes' input name.
fn require_chain_input(input: &Option<String>) -> Result<String> {
    input.clone().ok_or_else(|| {
        MimirError::Cache("chain_* run shapes require input_cached(name)".to_string())
    })
}

/// Drives the chained map over the cached input and into `sink`: either
/// through the elided local path (per-emit ownership check, no exchange,
/// a `shuffle_elided` trace event) or through a real [`Shuffler`].
#[allow(clippy::too_many_arguments)]
fn feed_chain<S: KvSink>(
    comm: &mut mimir_mpi::Comm,
    pool: &mimir_mem::MemPool,
    comm_buf_size: usize,
    kv_meta: KvMeta,
    partitioner: &Partitioner,
    mode: ShuffleMode,
    policy: AdaptPolicy,
    input: &KvContainer,
    map: ChainMapFn<'_>,
    mut sink: S,
    elide: bool,
) -> Result<(S, ShuffleStats)> {
    if elide {
        let mut em = LocalEmitter {
            sink: &mut sink,
            partitioner,
            rank: comm.rank(),
            n_ranks: comm.size(),
            kvs: 0,
            bytes: 0,
        };
        input.for_each_kv(|k, v| map(k, v, &mut em))?;
        let (kvs, bytes) = (em.kvs, em.bytes);
        mimir_obs::emit(EventKind::ShuffleElided, kvs, bytes);
        Ok((sink, ShuffleStats::default()))
    } else {
        let mut shuffler = Shuffler::with_policy(
            comm,
            pool,
            kv_meta,
            comm_buf_size,
            sink,
            partitioner.clone(),
            mode,
            policy,
        )?;
        input.for_each_kv(|k, v| map(k, v, &mut shuffler))?;
        shuffler.finish()
    }
}

/// Returns a chained input to the cache — even when the map failed, so an
/// errored job does not lose the cached dataset — and credits an elision
/// on success.
fn finish_chain_input(cache: &SharedKvCache, name: &str, input: CheckedOut, elided: bool) {
    let mut c = lock_cache(cache);
    c.checkin(name, input);
    if elided {
        c.note_elision(name);
    }
}

/// Applies [`MapReduceJob::output_cached`]: moves the finished output
/// into the cache under the job's placement fingerprint and hands the
/// caller an empty container of the same encoding; without a name the
/// output passes through untouched.
fn stash_or_return(
    cache: &SharedKvCache,
    pool: &mimir_mem::MemPool,
    name: &Option<String>,
    fingerprint: PartitionFingerprint,
    out: KvContainer,
) -> KvContainer {
    match name {
        Some(n) => {
            let meta = out.meta();
            lock_cache(cache).insert(n, out, fingerprint);
            KvContainer::new(pool, meta)
        }
        None => out,
    }
}

/// Runs a barrier and returns the time this rank spent blocked in it, by
/// differencing the communicator's cumulative wait counter. Feeds
/// [`JobStats::barrier_wait_ns`]: the rank that waits *least* at a phase
/// barrier is the straggler everyone else waited for.
fn timed_barrier(comm: &mut mimir_mpi::Comm) -> u64 {
    let w0 = comm.stats().wait_ns;
    comm.barrier();
    comm.stats().wait_ns.saturating_sub(w0)
}

/// Collective cancellation checkpoint at a phase boundary: free when no
/// [`crate::CancelToken`] is installed; otherwise an `allreduce Max` vote
/// of the local flag on the job's communicator, so all ranks abandon the
/// job at the same boundary (see the `cancel` module docs).
fn cancel_checkpoint(
    comm: &mut mimir_mpi::Comm,
    cancel: &Option<crate::CancelToken>,
) -> Result<()> {
    if let Some(token) = cancel {
        let raised = comm.allreduce_u64(mimir_mpi::ReduceOp::Max, u64::from(token.is_cancelled()));
        if raised != 0 {
            return Err(crate::MimirError::Cancelled);
        }
    }
    Ok(())
}

/// Runs `map` through a compression table, flushing into `shuffler`
/// either once at the end (the paper's delayed aggregate) or whenever the
/// table exceeds `flush_bytes`. Returns the grouping engine's counters.
fn drive_compressed_map(
    map: MapFn<'_>,
    cf: CombineFn<'_>,
    pool: &mimir_mem::MemPool,
    meta: KvMeta,
    flush_bytes: Option<usize>,
    shuffler: &mut dyn Emitter,
) -> Result<GroupStats> {
    let mut table = CombinerTable::new(pool, meta, cf)?;
    match flush_bytes {
        None => {
            map(&mut table)?;
            table.flush_into(shuffler)?;
            Ok(table.group_stats())
        }
        Some(limit) => {
            let mut streaming = StreamingCombiner::new(table, shuffler, limit);
            map(&mut streaming)?;
            streaming.finish().map(|(_, stats)| stats)
        }
    }
}
