//! The unified per-rank metrics report.
//!
//! The stack accumulates statistics in four places — communication
//! counters in `mimir-mpi`, pool counters in `mimir-mem`, shuffle/job
//! counters in `mimir-core`, and the MR-MPI baseline's own struct. A
//! [`RankReport`] gathers all of them (plus the rank's trace events)
//! into one serializable record. Rank 0 collects every rank's report via
//! the `gather` collective at job end and [`RankReport::merge`]s them
//! into cluster-wide totals.
//!
//! `mimir-obs` sits below those crates in the dependency graph, so it
//! owns the counter groups: each is declared once with
//! [`counters!`](crate::counters), which also generates its merge,
//! window delta and JSON. The grouping, adaptive-shuffle and cache
//! groups are the very types `mimir-core` counts into; the others are
//! filled by one conversion in the crate that keeps the source stats.

use crate::counter::read_req;
use crate::event::{Event, EventKind};
use crate::json::{Json, JsonError};

crate::counters! {
    /// Point-to-point and collective communication counters, filled by
    /// `mimir-mpi`'s `CommStats::counters`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CommCounters {
        /// Point-to-point sends issued.
        sends: u64 => sum sub req,
        /// Point-to-point receives completed.
        recvs: u64 => sum sub req,
        /// Payload bytes sent point-to-point.
        bytes_sent: u64 => sum sub req,
        /// Payload bytes received point-to-point.
        bytes_recvd: u64 => sum sub req,
        /// Collective operations participated in.
        collectives: u64 => sum sub req,
        /// Payload bytes memcpy'd by the transport (pooled send buffers +
        /// caller-owned receive buffers).
        bytes_copied: u64 => sum sub,
        /// Heap allocations taken on the send path (pool misses + pooled
        /// buffer growths); flat after warm-up on the zero-copy path.
        send_allocs: u64 => sum sub,
        /// Bytes put on the wire including framing headers; zero on the
        /// in-process backend (no wire), per-frame overhead on sockets.
        wire_bytes_sent: u64 => sum sub,
        /// Bytes taken off the wire including framing headers.
        wire_bytes_recvd: u64 => sum sub,
        /// Frames sent (one per cross-process message on the socket backend).
        wire_frames_sent: u64 => sum sub,
        /// Frames received.
        wire_frames_recvd: u64 => sum sub,
        /// Receive-side buffer-pool misses in the socket readers.
        wire_recv_allocs: u64 => sum sub,
        /// Nanoseconds spent in transport bootstrap (socket bind / connect /
        /// accept / hello), reported once per rank by its world communicator.
        handshake_ns: u64 => sum sub,
    }
}

crate::counters! {
    /// Memory-pool counters, filled by `mimir-mem`'s `MemStats::counters`.
    /// Node pools are shared by the ranks on a node, so the gauges merge
    /// by max: summing them would count the same bytes once per rank.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MemCounters {
        /// Pages handed out.
        pages_allocated: u64 => sum sub req,
        /// Pages returned to the free list.
        pages_recycled: u64 => sum sub req,
        /// Bytes in use when the report was built.
        bytes_in_use: u64 => max keep req,
        /// High-water mark over the whole run.
        peak_bytes: u64 => max keep req,
        /// The pool's configured budget in bytes; 0 when the pool is
        /// unlimited (no budget to diagnose headroom against). Ranks of
        /// one run share a per-node budget.
        budget_bytes: u64 => max keep,
        /// Allocation attempts the pool rejected for lack of budget.
        oom_events: u64 => sum sub,
    }
}

crate::counters! {
    /// Shuffle counters, filled by `mimir-core`'s `ShuffleStats::counters`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ShuffleCounters {
        /// KVs pushed into the shuffle on this rank.
        kvs_emitted: u64 => sum sub req,
        /// Encoded bytes pushed into the shuffle.
        kv_bytes_emitted: u64 => sum sub req,
        /// KVs drained out of the shuffle on this rank.
        kvs_received: u64 => sum sub req,
        /// Exchange rounds this rank participated in. Rounds are
        /// collective (every rank steps through the same ones), so the
        /// merge takes the max.
        rounds: u64 => max sub req,
        /// KV payload bytes spilled to disk.
        spilled_bytes: u64 => sum sub req,
        /// Encoded bytes landed in this rank's receive buffer.
        bytes_received: u64 => sum sub,
        /// Largest single-round receive total — must stay ≤ the receive
        /// buffer capacity (the Section III-B bound).
        max_round_recv_bytes: u64 => max keep,
        /// Cumulative bytes this rank sent to its hottest destination.
        max_dest_bytes: u64 => max keep,
        /// Send-side partition imbalance over the whole shuffle: max/mean of
        /// cumulative per-destination bytes, in permille (1000 = perfectly
        /// balanced; 0 = nothing sent). The cluster is as skewed as its
        /// most skewed rank.
        imbalance_permille: u64 => max keep,
        /// Gini coefficient of cumulative per-destination bytes, in permille
        /// (0 = uniform, →1000 = everything to one destination).
        gini_permille: u64 => max keep,
    }
}

crate::counters! {
    /// The wait-state taxonomy: where one rank's wall-clock went while the
    /// transport was involved. Waits are *rank-nanoseconds blocked on peers*;
    /// work is the transport's own memcpy/encode time. On a merged report the
    /// values are cluster totals (sums), so the interesting diagnosis signal
    /// is the *spread* across the per-rank reports, which is why exporters
    /// keep per-rank lines.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WaitCounters {
        /// Every nanosecond blocked at any transport blocking point (recv,
        /// and the internal receives of all collectives). Supersets the
        /// attributed categories below.
        total_wait_ns: u64 => sum sub,
        /// Transport memcpy/encode nanoseconds (the time behind
        /// `comm.bytes_copied`). Flat under stragglers; grows with volume.
        total_work_ns: u64 => sum sub,
        /// Blocked in shuffle done-votes — straggler-bound wait: some rank
        /// was still mapping/draining when this one entered the round.
        sync_wait_ns: u64 => sum sub,
        /// Blocked completing shuffle partition receives — byte-bound wait:
        /// peers were still pushing payload.
        data_wait_ns: u64 => sum sub,
        /// Blocked in the phase barriers at aggregate/reduce boundaries.
        barrier_wait_ns: u64 => sum sub,
    }
}

crate::counters! {
    /// Wall-clock seconds spent in each phase on one rank. Merged times
    /// answer "how long did the cluster spend in this phase": phases are
    /// barrier-aligned, so they take the max.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct PhaseTimes {
        /// Map (+ interleaved aggregate for Mimir).
        map_s: f64 => max sub req,
        /// MR-MPI's explicit aggregate.
        aggregate_s: f64 => max sub req,
        /// Convert (KV → KMV grouping).
        convert_s: f64 => max sub req,
        /// Reduce.
        reduce_s: f64 => max sub req,
    }
}

crate::counters! {
    /// Per-phase memory high-water marks in bytes on one rank's node pool.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PhasePeaks {
        /// Peak during map (+ aggregate for Mimir).
        map_bytes: u64 => max keep req,
        /// Peak during convert.
        convert_bytes: u64 => max keep req,
        /// Peak during reduce.
        reduce_bytes: u64 => max keep req,
    }
}

crate::counters! {
    /// Grouping-engine counters: the arena-keyed group index behind
    /// convert, the combiner, and partial reduction (`mimir-core` counts
    /// into this type as `GroupStats`). Cumulative across index clears,
    /// so a streaming combiner's repeated flushes accumulate.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct GroupCounters {
        /// Keys routed through the index (one per KV); always the sum of
        /// `probe_hist`.
        inserts: u64 => sum sub,
        /// Probe steps beyond the home slot, summed over inserts.
        probes: u64 => sum sub,
        /// Longest single probe sequence.
        max_probe: u64 => max keep,
        /// Slot-table rebuilds with live entries.
        rehashes: u64 => sum sub,
        /// Key bytes interned into the arena.
        interned_bytes: u64 => sum sub,
        /// Unique keys grouped (live groups at measurement time, summed
        /// over clears).
        groups: u64 => sum sub,
        /// Slot-table capacity at measurement time.
        capacity: u64 => max keep,
        /// Probe-length histogram: buckets 0, 1, 2, 3, 4–7, 8–15, 16–31,
        /// 32+.
        probe_hist: [u64; 8] => sum sub,
    }
}

impl GroupCounters {
    /// Mean probe steps per insert (0 when nothing was inserted).
    pub fn avg_probe(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.probes as f64 / self.inserts as f64
        }
    }

    /// Live groups over slot capacity (0 when the table never grew).
    pub fn load_factor(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.groups as f64 / self.capacity as f64
        }
    }
}

crate::counters! {
    /// Adaptive-shuffle controller counters (`mimir-core` counts into
    /// this type as `AdaptStats`): what the live tuner decided and what
    /// the hot-key mitigation staged. All zero outside
    /// `ShuffleMode::Adaptive`. The convergence descriptors merge by max:
    /// ranks decide from identical tallies, so max is the identity there
    /// and stays meaningful when a rank sat out. A window keeps the whole
    /// group's latest view: the watch UI wants the controller's current
    /// state.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AdaptCounters {
        /// Exchange-mode switches applied (ZeroCopy ↔ Overlapped posting).
        mode_switches: u64 => sum keep,
        /// Effective round-size grow steps applied.
        grow_steps: u64 => sum keep,
        /// Effective round-size shrink steps applied.
        shrink_steps: u64 => sum keep,
        /// Effective round-size fill target at job end, in permille of the
        /// partition capacity (1000 = full partitions).
        final_fill_permille: u64 => max keep,
        /// 1 when the job finished with overlapped posting, 0 vote-first.
        final_overlap: u64 => max keep,
        /// Round index of the last tuning change (the controller is
        /// converged from here on); 0 when no change was ever applied.
        converged_round: u64 => max keep,
        /// Hot-destination trips: times a destination crossed the trip
        /// share and its traffic was diverted through the two-stage path.
        hot_trips: u64 => sum keep,
        /// KVs absorbed into the hot stage (count bumps included).
        hot_staged_kvs: u64 => sum keep,
        /// Encoded KV bytes those staged KVs would have sent directly.
        hot_staged_bytes: u64 => sum keep,
        /// Distinct KVs held by the hot stage (its interned population).
        hot_unique_kvs: u64 => sum keep,
        /// Encoded bytes that bypassed a full stage and shipped directly.
        hot_forward_bytes: u64 => sum keep,
        /// Exchange rounds spent in the salted spread phase of the flush.
        salted_rounds: u64 => sum keep,
        /// Exchange rounds spent in the owner-merge phase of the flush.
        merge_rounds: u64 => sum keep,
        /// Rounds where the jumbo floor overrode a shrunken fill target so
        /// the largest KV seen still fits the effective round.
        jumbo_floor_hits: u64 => sum keep,
    }
}

crate::counters! {
    /// Cross-job KV cache counters (`mimir-core` counts into this type as
    /// `CacheStats`). All zero when no job used
    /// `input_cached`/`output_cached`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheCounters {
        /// Chained inputs found resident.
        hits: u64 => sum sub,
        /// Lookups of names the cache did not hold (cold starts and errors).
        misses: u64 => sum sub,
        /// Shuffles skipped because the cached placement matched the job's.
        elisions: u64 => sum sub,
        /// Resident containers spilled under memory pressure.
        evictions: u64 => sum sub,
        /// Evicted entries transparently reloaded from spill.
        reloads: u64 => sum sub,
        /// Payload bytes resident when the report was built (charged against
        /// the pool budget). Per-rank caches hold disjoint partitions, so
        /// the merged sum is the cluster's cached footprint.
        cached_bytes: u64 => sum keep,
    }
}

/// One named cross-job cache entry as a rank saw it at report time.
/// Merged reports combine records by name (each rank holds its own
/// partition, so bytes and elisions sum to dataset-wide totals).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheNameRecord {
    /// The user-chosen cache name.
    pub name: String,
    /// Resident payload bytes (0 while evicted or removed).
    pub bytes: u64,
    /// Cumulative elided shuffles against this name.
    pub elisions: u64,
}

impl CacheNameRecord {
    /// Folds another rank's record for the *same name* into this one.
    pub fn merge(&mut self, other: &CacheNameRecord) {
        self.bytes += other.bytes;
        self.elisions += other.elisions;
    }
}

crate::counters! {
    /// Telemetry-plane counters: the live publisher's own bookkeeping
    /// (`obs::live`). All zero when no live sink was armed.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LiveCounters {
        /// Live snapshots published by this rank.
        snapshots: u64 => sum sub,
        /// Bytes of live records appended to the rank's sidecar file.
        published_bytes: u64 => sum sub,
        /// Nanoseconds the publisher spent building and writing snapshots
        /// (the plane's own overhead, on the publisher thread).
        publish_ns: u64 => sum sub,
        /// Worst observed gap between consecutive snapshots, in
        /// milliseconds over the configured interval (0 = every snapshot
        /// landed on time).
        max_publish_lag_ms: u64 => max keep,
        /// Flight-recorder dumps this rank wrote (crash corpses).
        flight_dumps: u64 => sum sub,
    }
}

crate::counters! {
    /// Job-level counters (the per-rank totals of `mimir-core`'s
    /// `JobStats`).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct JobCounters {
        /// Unique keys grouped on this rank.
        unique_keys: u64 => sum sub req,
        /// KVs produced by the reduce callbacks on this rank.
        kvs_out: u64 => sum sub req,
        /// Node-pool high-water mark at job end.
        node_peak_bytes: u64 => max keep req,
    }
}

/// One scheduled job's lifecycle record (built from `mimir-sched`'s
/// per-job stats): how long it queued, how long it ran, what it
/// reserved, and what it produced. A rank reports one record per job it
/// participated in; merged reports combine records by job id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRecord {
    /// Scheduler-assigned job id.
    pub id: u64,
    /// Human-readable job name.
    pub name: String,
    /// Submission priority (higher runs first).
    pub priority: u64,
    /// Terminal outcome code (the scheduler's `JobOutcome` encoding:
    /// 0 done, then increasing severity).
    pub outcome: u64,
    /// Times the job was suspended and re-queued after an OOM.
    pub retries: u64,
    /// Seconds spent waiting in the admission queue.
    pub queued_s: f64,
    /// Seconds spent admitted and running.
    pub running_s: f64,
    /// Reserved memory footprint at final admission, in bytes.
    pub footprint_bytes: u64,
    /// KVs the job's reduce produced on this rank.
    pub kvs_out: u64,
    /// Bytes the job spilled to its scoped spill directory on this rank.
    pub spill_bytes: u64,
}

impl JobRecord {
    /// Folds another rank's record for the *same job* into this one:
    /// per-rank production sums, lifecycle times and extremes take the
    /// max (the lifecycle is collective, so ranks agree up to clock
    /// skew).
    pub fn merge(&mut self, other: &JobRecord) {
        self.priority = self.priority.max(other.priority);
        self.outcome = self.outcome.max(other.outcome);
        self.retries = self.retries.max(other.retries);
        self.queued_s = self.queued_s.max(other.queued_s);
        self.running_s = self.running_s.max(other.running_s);
        self.footprint_bytes = self.footprint_bytes.max(other.footprint_bytes);
        self.kvs_out += other.kvs_out;
        self.spill_bytes += other.spill_bytes;
    }
}

/// Everything one rank knows about a finished job: counters from every
/// layer plus (optionally) the rank's trace events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankReport {
    /// The rank this report describes; after [`merge`](Self::merge),
    /// the number of ranks folded in is tracked by [`Self::ranks`].
    pub rank: u64,
    /// How many rank reports were merged into this one (1 for a fresh
    /// single-rank report).
    pub ranks: u64,
    /// Communication counters.
    pub comm: CommCounters,
    /// Memory-pool counters.
    pub mem: MemCounters,
    /// Shuffle counters.
    pub shuffle: ShuffleCounters,
    /// Wait-state attribution: where this rank's transport time went.
    pub waits: WaitCounters,
    /// Grouping-engine counters.
    pub group: GroupCounters,
    /// Adaptive-shuffle controller counters.
    pub adapt: AdaptCounters,
    /// Per-phase wall-clock times.
    pub times: PhaseTimes,
    /// Per-phase memory peaks.
    pub peaks: PhasePeaks,
    /// Job-level counters.
    pub job: JobCounters,
    /// Cross-job KV cache counters.
    pub cache: CacheCounters,
    /// Telemetry-plane counters (the live publisher's bookkeeping).
    pub live: LiveCounters,
    /// Per-name cache entries. Merged reports combine records by name.
    pub cache_names: Vec<CacheNameRecord>,
    /// Per-scheduled-job lifecycle records (empty outside the job
    /// service). Merged reports combine records by job id.
    pub jobs: Vec<JobRecord>,
    /// Trace events retained by the rank's recorder (empty when tracing
    /// was off, and dropped from merged reports).
    pub events: Vec<Event>,
    /// Events the recorder overwrote on ring overflow.
    pub events_dropped: u64,
}

impl RankReport {
    /// A fresh report for `rank` with all counters zero.
    pub fn new(rank: usize) -> Self {
        RankReport {
            rank: rank as u64,
            ranks: 1,
            ..RankReport::default()
        }
    }

    /// Folds `other` into `self`, producing cluster-wide aggregates:
    /// each counter group folds by its per-field rules (see
    /// [`counter`](crate::counter)), and records combine by name or job
    /// id. Per-rank trace events do not survive merging (a merged report
    /// describes the cluster, and traces stay per-rank in the exporters).
    pub fn merge(&mut self, other: &RankReport) {
        self.ranks += other.ranks;
        self.comm.merge(&other.comm);
        self.mem.merge(&other.mem);
        self.shuffle.merge(&other.shuffle);
        self.waits.merge(&other.waits);
        self.group.merge(&other.group);
        self.adapt.merge(&other.adapt);
        self.times.merge(&other.times);
        self.peaks.merge(&other.peaks);
        self.job.merge(&other.job);
        self.cache.merge(&other.cache);
        self.live.merge(&other.live);
        for theirs in &other.cache_names {
            if let Some(mine) = self.cache_names.iter_mut().find(|c| c.name == theirs.name) {
                mine.merge(theirs);
            } else {
                self.cache_names.push(theirs.clone());
            }
        }
        self.cache_names.sort_by(|a, b| a.name.cmp(&b.name));
        for theirs in &other.jobs {
            if let Some(mine) = self.jobs.iter_mut().find(|j| j.id == theirs.id) {
                mine.merge(theirs);
            } else {
                self.jobs.push(theirs.clone());
            }
        }
        self.jobs.sort_by_key(|j| j.id);
        self.events.clear();
        self.events_dropped += other.events_dropped;
    }

    /// The windowed difference `self − base`, where `base` is an
    /// *earlier snapshot of the same rank*: cumulative counters subtract
    /// (saturating, so a restarted counter degrades to "whole window"
    /// instead of wrapping), gauges and high-water marks take the later
    /// value, and phase times subtract clamped at zero. This is the
    /// online doctor's unit of analysis — rules run over the delta of a
    /// rolling live window rather than run-lifetime totals. The records
    /// (`cache_names`, `jobs`) keep the latest view.
    pub fn delta_since(&self, base: &RankReport) -> RankReport {
        RankReport {
            comm: self.comm.delta_since(&base.comm),
            mem: self.mem.delta_since(&base.mem),
            shuffle: self.shuffle.delta_since(&base.shuffle),
            waits: self.waits.delta_since(&base.waits),
            group: self.group.delta_since(&base.group),
            adapt: self.adapt.delta_since(&base.adapt),
            times: self.times.delta_since(&base.times),
            peaks: self.peaks.delta_since(&base.peaks),
            job: self.job.delta_since(&base.job),
            cache: self.cache.delta_since(&base.cache),
            live: self.live.delta_since(&base.live),
            events: Vec::new(),
            events_dropped: self.events_dropped.saturating_sub(base.events_dropped),
            ..self.clone()
        }
    }

    /// Serializes to a JSON object (see [`Self::from_json`] for the
    /// inverse).
    pub fn to_json(&self) -> Json {
        let cache_names = self.cache_names.iter().map(|c| {
            Json::obj(vec![
                ("name", Json::Str(c.name.clone())),
                ("bytes", Json::from_u64(c.bytes)),
                ("elisions", Json::from_u64(c.elisions)),
            ])
        });
        let jobs = self.jobs.iter().map(|j| {
            Json::obj(vec![
                ("id", Json::from_u64(j.id)),
                ("name", Json::Str(j.name.clone())),
                ("priority", Json::from_u64(j.priority)),
                ("outcome", Json::from_u64(j.outcome)),
                ("retries", Json::from_u64(j.retries)),
                ("queued_s", Json::Num(j.queued_s)),
                ("running_s", Json::Num(j.running_s)),
                ("footprint_bytes", Json::from_u64(j.footprint_bytes)),
                ("kvs_out", Json::from_u64(j.kvs_out)),
                ("spill_bytes", Json::from_u64(j.spill_bytes)),
            ])
        });
        let events = self.events.iter().map(|e| {
            let cols = [e.t_ns, e.kind.code(), e.a, e.b];
            Json::Arr(cols.into_iter().map(Json::from_u64).collect())
        });
        Json::obj(vec![
            ("rank", Json::from_u64(self.rank)),
            ("ranks", Json::from_u64(self.ranks)),
            ("comm", self.comm.to_json()),
            ("mem", self.mem.to_json()),
            ("shuffle", self.shuffle.to_json()),
            ("waits", self.waits.to_json()),
            ("group", self.group.to_json()),
            ("adapt", self.adapt.to_json()),
            ("times", self.times.to_json()),
            ("peaks", self.peaks.to_json()),
            ("job", self.job.to_json()),
            ("cache", self.cache.to_json()),
            ("live", self.live.to_json()),
            ("cache_names", Json::Arr(cache_names.collect())),
            ("jobs", Json::Arr(jobs.collect())),
            ("events", Json::Arr(events.collect())),
            ("events_dropped", Json::from_u64(self.events_dropped)),
        ])
    }

    /// Deserializes a report produced by [`Self::to_json`].
    ///
    /// # Errors
    /// Missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<RankReport, JsonError> {
        let err = |msg: &str| JsonError {
            msg: msg.into(),
            at: 0,
        };
        // The cross-job cache postdates the first release: the whole
        // section parses leniently.
        let mut cache_names = Vec::new();
        if let Some(Json::Arr(items)) = v.get("cache_names") {
            for item in items {
                cache_names.push(CacheNameRecord {
                    name: item
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    bytes: item.get("bytes").and_then(Json::as_u64).unwrap_or(0),
                    elisions: item.get("elisions").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        // The job service postdates the first release: absent in old
        // reports, so the whole section parses leniently.
        let mut jobs = Vec::new();
        if let Some(Json::Arr(items)) = v.get("jobs") {
            for item in items {
                let ju = |key: &str| -> u64 { item.get(key).and_then(Json::as_u64).unwrap_or(0) };
                let jf = |key: &str| -> f64 { item.get(key).and_then(Json::as_f64).unwrap_or(0.0) };
                jobs.push(JobRecord {
                    id: ju("id"),
                    name: item
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    priority: ju("priority"),
                    outcome: ju("outcome"),
                    retries: ju("retries"),
                    queued_s: jf("queued_s"),
                    running_s: jf("running_s"),
                    footprint_bytes: ju("footprint_bytes"),
                    kvs_out: ju("kvs_out"),
                    spill_bytes: ju("spill_bytes"),
                });
            }
        }
        let mut events = Vec::new();
        if let Some(Json::Arr(items)) = v.get("events") {
            for item in items {
                let cols = item.as_arr().ok_or_else(|| err("event is not an array"))?;
                if cols.len() != 4 {
                    return Err(err("event needs 4 columns"));
                }
                let num = |i: usize| -> Result<u64, JsonError> {
                    cols[i]
                        .as_u64()
                        .ok_or_else(|| err("event column is not a number"))
                };
                let kind =
                    EventKind::from_code(num(1)?).ok_or_else(|| err("unknown event kind"))?;
                events.push(Event {
                    t_ns: num(0)?,
                    kind,
                    a: num(2)?,
                    b: num(3)?,
                });
            }
        }
        let top = |key: &str| read_req(Some(v), "", key);
        Ok(RankReport {
            rank: top("rank")?,
            ranks: top("ranks")?,
            comm: CommCounters::from_json(v.get("comm"), "comm")?,
            mem: MemCounters::from_json(v.get("mem"), "mem")?,
            shuffle: ShuffleCounters::from_json(v.get("shuffle"), "shuffle")?,
            waits: WaitCounters::from_json(v.get("waits"), "waits")?,
            group: GroupCounters::from_json(v.get("group"), "group")?,
            adapt: AdaptCounters::from_json(v.get("adapt"), "adapt")?,
            times: PhaseTimes::from_json(v.get("times"), "times")?,
            peaks: PhasePeaks::from_json(v.get("peaks"), "peaks")?,
            job: JobCounters::from_json(v.get("job"), "job")?,
            cache: CacheCounters::from_json(v.get("cache"), "cache")?,
            live: LiveCounters::from_json(v.get("live"), "live")?,
            cache_names,
            jobs,
            events,
            events_dropped: top("events_dropped")?,
        })
    }

    /// Serializes to a compact single-line JSON string (the gather
    /// payload and the JSON-lines record format).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a string produced by [`Self::to_json_string`].
    ///
    /// # Errors
    /// Malformed JSON or missing fields.
    pub fn from_json_string(s: &str) -> Result<RankReport, JsonError> {
        RankReport::from_json(&Json::parse(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample(rank: u64) -> RankReport {
        RankReport {
            rank,
            ranks: 1,
            comm: CommCounters {
                sends: 10 + rank,
                recvs: 9,
                bytes_sent: 1000,
                bytes_recvd: 900,
                collectives: 4,
                bytes_copied: 1700,
                send_allocs: 3 + rank,
                wire_bytes_sent: 1200 + rank,
                wire_bytes_recvd: 1100,
                wire_frames_sent: 12,
                wire_frames_recvd: 11,
                wire_recv_allocs: 2,
                handshake_ns: 5000 + rank,
            },
            mem: MemCounters {
                pages_allocated: 8,
                pages_recycled: 8,
                bytes_in_use: 0,
                peak_bytes: 1 << 20,
                budget_bytes: 4 << 20,
                oom_events: rank,
            },
            shuffle: ShuffleCounters {
                kvs_emitted: 100 * (rank + 1),
                kv_bytes_emitted: 800,
                kvs_received: 100,
                rounds: 2 + rank,
                spilled_bytes: 0,
                bytes_received: 850,
                max_round_recv_bytes: 400 + rank,
                max_dest_bytes: 600 + rank,
                imbalance_permille: 1000 + 100 * rank,
                gini_permille: 50 * rank,
            },
            waits: WaitCounters {
                total_wait_ns: 90_000 + rank,
                total_work_ns: 8_000,
                sync_wait_ns: 60_000 * (rank + 1),
                data_wait_ns: 20_000,
                barrier_wait_ns: 10_000,
            },
            group: GroupCounters {
                inserts: 200 * (rank + 1),
                probes: 40,
                max_probe: 3 + rank,
                rehashes: 5,
                interned_bytes: 640,
                groups: 50,
                capacity: 128,
                probe_hist: [150, 30, 10, 5, 5, 0, 0, rank],
            },
            adapt: AdaptCounters {
                mode_switches: 1 + rank,
                grow_steps: 2,
                shrink_steps: rank,
                final_fill_permille: 750 + 50 * rank,
                final_overlap: rank % 2,
                converged_round: 6 + rank,
                hot_trips: rank,
                hot_staged_kvs: 300 * rank,
                hot_staged_bytes: 4800 * rank,
                hot_unique_kvs: 3 * rank,
                hot_forward_bytes: 16 * rank,
                salted_rounds: rank,
                merge_rounds: rank,
                jumbo_floor_hits: 0,
            },
            times: PhaseTimes {
                map_s: 0.5 + rank as f64,
                aggregate_s: 0.0,
                convert_s: 0.25,
                reduce_s: 0.125,
            },
            peaks: PhasePeaks {
                map_bytes: 1 << 19,
                convert_bytes: 1 << 20,
                reduce_bytes: 1 << 18,
            },
            job: JobCounters {
                unique_keys: 50,
                kvs_out: 50,
                node_peak_bytes: 1 << 20,
            },
            cache: CacheCounters {
                hits: 6 + rank,
                misses: 1,
                elisions: 5 * (rank + 1),
                evictions: rank,
                reloads: rank,
                cached_bytes: 4096 * (rank + 1),
            },
            live: LiveCounters {
                snapshots: 12 + rank,
                published_bytes: 9000 * (rank + 1),
                publish_ns: 40_000 + rank,
                max_publish_lag_ms: 3 * rank,
                flight_dumps: rank % 2,
            },
            cache_names: vec![CacheNameRecord {
                name: "pr".into(),
                bytes: 4096 * (rank + 1),
                elisions: 5 * (rank + 1),
            }],
            jobs: vec![JobRecord {
                id: 7,
                name: "wc-small".into(),
                priority: 2,
                outcome: 0,
                retries: rank,
                queued_s: 0.01,
                running_s: 0.5 + rank as f64,
                footprint_bytes: 1 << 20,
                kvs_out: 25 * (rank + 1),
                spill_bytes: 128 * rank,
            }],
            events: vec![Event {
                t_ns: 42,
                kind: EventKind::MemSample,
                a: 1,
                b: 2,
            }],
            events_dropped: 0,
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample(3);
        let back = RankReport::from_json_string(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = sample(0);
        let b = sample(1);
        a.merge(&b);
        assert_eq!(a.ranks, 2);
        assert_eq!(a.comm.sends, 10 + 11);
        assert_eq!(a.shuffle.kvs_emitted, 100 + 200);
        assert_eq!(a.shuffle.rounds, 3, "rounds take the max, not the sum");
        assert_eq!(a.mem.peak_bytes, 1 << 20, "peaks take the max");
        assert_eq!(a.mem.oom_events, 1, "oom events sum");
        assert_eq!(
            a.waits.sync_wait_ns,
            60_000 + 120_000,
            "waits sum into cluster rank-nanoseconds"
        );
        assert_eq!(
            a.shuffle.imbalance_permille, 1100,
            "skew takes the most skewed rank"
        );
        assert_eq!(a.job.unique_keys, 100);
        assert_eq!(a.adapt.mode_switches, 1 + 2, "adapt decisions sum");
        assert_eq!(
            a.adapt.final_fill_permille, 800,
            "the converged fill target takes the max"
        );
        assert_eq!(a.adapt.hot_staged_kvs, 300, "hot staging sums");
        assert!((a.times.map_s - 1.5).abs() < 1e-12, "times take the max");
        assert_eq!(a.cache.elisions, 5 + 10, "cache counters sum");
        assert_eq!(
            a.cache.cached_bytes,
            4096 + 8192,
            "per-rank partitions sum to the cluster footprint"
        );
        assert_eq!(a.cache_names.len(), 1, "same name folds");
        assert_eq!(a.cache_names[0].bytes, 4096 + 8192);
        assert!(a.events.is_empty(), "merged reports drop per-rank events");
    }

    #[test]
    fn merge_is_associative_on_counters() {
        let (r0, r1, r2) = (sample(0), sample(1), sample(2));
        let mut left = r0.clone();
        left.merge(&r1);
        left.merge(&r2);
        let mut pair = r1.clone();
        pair.merge(&r2);
        let mut right = r0.clone();
        right.merge(&pair);
        assert_eq!(left.comm, right.comm);
        assert_eq!(left.shuffle, right.shuffle);
        assert_eq!(left.waits, right.waits);
        assert_eq!(left.adapt, right.adapt);
        assert_eq!(left.mem, right.mem);
        assert_eq!(left.peaks, right.peaks);
        assert_eq!(left.ranks, right.ranks);
    }

    #[test]
    fn merge_combines_job_records_by_id() {
        let mut a = sample(0);
        let mut b = sample(1);
        b.jobs.push(JobRecord {
            id: 9,
            name: "bfs-big".into(),
            outcome: 3,
            ..JobRecord::default()
        });
        a.merge(&b);
        assert_eq!(a.jobs.len(), 2, "same id folds, new id appends");
        let wc = a.jobs.iter().find(|j| j.id == 7).unwrap();
        assert_eq!(wc.kvs_out, 25 + 50, "per-rank production sums");
        assert_eq!(wc.retries, 1, "retries take the max");
        assert!((wc.running_s - 1.5).abs() < 1e-12, "times take the max");
        assert_eq!(a.jobs.iter().find(|j| j.id == 9).unwrap().outcome, 3);
    }

    #[test]
    fn old_reports_without_jobs_section_still_parse() {
        let mut r = sample(0);
        r.jobs.clear();
        let mut s = r.to_json_string();
        // Simulate a pre-job-service report by deleting the field.
        s = s.replace("\"jobs\":[],", "");
        let back = RankReport::from_json_string(&s).unwrap();
        assert!(back.jobs.is_empty());
        assert_eq!(back.comm, r.comm);
    }

    #[test]
    fn old_reports_without_live_section_still_parse() {
        let mut r = sample(0);
        r.live = LiveCounters::default();
        let mut s = r.to_json_string();
        // Simulate a pre-telemetry-plane report by deleting the field.
        let needle = "\"live\":{\"snapshots\":0,\"published_bytes\":0,\"publish_ns\":0,\
                      \"max_publish_lag_ms\":0,\"flight_dumps\":0},";
        assert!(s.contains("\"live\""), "fixture must carry the section");
        s = s.replace(needle, "");
        assert!(!s.contains("\"live\""), "deletion must hit");
        let back = RankReport::from_json_string(&s).unwrap();
        assert_eq!(back.live, LiveCounters::default());
        assert_eq!(back.comm, r.comm);
    }

    #[test]
    fn merge_folds_live_counters() {
        let mut a = sample(0);
        a.merge(&sample(1));
        assert_eq!(a.live.snapshots, 12 + 13, "snapshots sum");
        assert_eq!(a.live.max_publish_lag_ms, 3, "lag takes the max");
        assert_eq!(a.live.flight_dumps, 1, "dumps sum");
    }

    #[test]
    fn delta_since_subtracts_counters_and_keeps_gauges() {
        let base = sample(0);
        let mut later = sample(0);
        later.comm.sends += 7;
        later.waits.total_wait_ns += 1_000_000;
        later.mem.bytes_in_use = 555;
        later.times.map_s += 0.25;
        later.shuffle.kvs_emitted += 40;
        let d = later.delta_since(&base);
        assert_eq!(d.comm.sends, 7, "cumulative counters subtract");
        assert_eq!(d.waits.total_wait_ns, 1_000_000);
        assert_eq!(d.shuffle.kvs_emitted, 40);
        assert_eq!(d.mem.bytes_in_use, 555, "gauges take the latest view");
        assert_eq!(d.mem.budget_bytes, later.mem.budget_bytes);
        assert!((d.times.map_s - 0.25).abs() < 1e-12, "times subtract");
        assert_eq!(d.comm.recvs, 0, "unchanged counters delta to zero");
        // A restarted (smaller) counter saturates instead of wrapping.
        let mut restarted = sample(0);
        restarted.comm.sends = 1;
        assert_eq!(restarted.delta_since(&base).comm.sends, 0);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let v = Json::parse("{\"rank\": 0}").unwrap();
        assert!(RankReport::from_json(&v).is_err());
    }
}
