//! The interleaved map/aggregate engine (paper Section III-A, Figure 4).
//!
//! Each rank owns a *send buffer* divided into `p` equal partitions and a
//! *receive buffer* of the same total size. The map callback emits KVs
//! straight into the partition chosen by the key hash — there is no map
//! output buffer and no staging copy. When a partition fills, the map is
//! suspended and an **exchange round** runs; received KVs drain into the
//! job's [`KvSink`] and the map resumes. Because every sender contributes
//! at most one partition (`comm_buf/p` bytes) to each receiver, the
//! received data can never exceed the receive buffer, "even when the KV
//! partitioning is highly unbalanced" — the paper's Section III-B
//! guarantee, which is why the receive buffer needs only one send-buffer's
//! worth of space where MR-MPI needed two pages. The bound is enforced at
//! runtime: every round's received bytes land in the static receive
//! buffer, and overflowing it panics.
//!
//! ## Exchange-round protocol
//!
//! A round is `allreduce(done flags)` + `alltoallv(partitions)` + drain.
//! A rank enters a round when a partition fills (`done = false`) or, once
//! its input is exhausted, repeatedly from [`Shuffler::finish`]
//! (`done = true`) until the allreduce reports everyone done. All ranks
//! thus execute identical collective sequences — the MPI matching rule —
//! and the final round still drains in-flight data, so the protocol is
//! deadlock-free and loses nothing.
//!
//! Under [`ShuffleMode::Overlapped`] the round is reordered to
//! `post(sends)` + `allreduce(done flags)` + `complete(receives)` +
//! drain: the sends leave before the done-vote, so the vote's
//! synchronization latency hides behind the data movement. Every rank
//! must run the same mode (it is part of the collective call sequence).
//!
//! ## Data path
//!
//! [`ShuffleMode::ZeroCopy`] (the default) sends each partition directly
//! from its send-buffer slice through pooled transport buffers, receives
//! into the static receive buffer, and hands each source rank's run to
//! the sink via [`KvSink::accept_run`] — for a [`crate::KvContainer`]
//! sink that is a page-wise memcpy, since wire format equals container
//! format. After a warm-up round the steady state performs no heap
//! allocation.

use std::ops::Range;

use mimir_mem::MemPool;
use mimir_mpi::{Comm, ReduceOp, MAX_BALLOT_RANKS};
use mimir_obs::{EventKind, Step};

use crate::adapt::{
    decision, salted_dest, write_frame, AdaptController, AdaptStats, FrameDecoder, HotStore,
    FRAME_HDR,
};
use crate::buffer::TrackedBuf;
use crate::kv::{decode_one, encode_into, encoded_len, validate};
use crate::partitioner::Partitioner;
use crate::sink::KvSink;
use crate::{AdaptPolicy, KvMeta, MimirError, Result, ShuffleMode};

/// Destination for KVs produced by a map callback.
///
/// Implemented by [`Shuffler`] (direct emission into the send buffer), by
/// [`crate::CombinerTable`] (KV compression), and by the reduce phase's
/// output container wrapper.
pub trait Emitter {
    /// Emits one KV.
    ///
    /// # Errors
    /// Hint violations, oversized KVs, or memory exhaustion.
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()>;

    /// Emits one KV whose `fxhash64` is already known (`key_hash` must be
    /// `fxhash64(key)`). Emitters that route by key hash — the
    /// [`Shuffler`] under the default partitioner — override this to skip
    /// re-hashing; the default discards the hash and forwards to
    /// [`Self::emit`].
    ///
    /// # Errors
    /// As [`Self::emit`].
    fn emit_hashed(&mut self, key: &[u8], val: &[u8], key_hash: u64) -> Result<()> {
        let _ = key_hash;
        self.emit(key, val)
    }
}

/// Counters describing one shuffle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// KVs emitted by this rank's map.
    pub kvs_emitted: u64,
    /// Encoded bytes emitted (the "KV size" of paper Figure 7).
    pub kv_bytes_emitted: u64,
    /// KVs received into this rank's sink.
    pub kvs_received: u64,
    /// Exchange rounds this rank participated in.
    pub rounds: u64,
    /// Encoded bytes landed in this rank's receive buffer (includes the
    /// rank's own partition).
    pub bytes_received: u64,
    /// Largest single-round receive total. The Section III-B invariant is
    /// `max_round_recv_bytes ≤ comm_buf_size`; the data path asserts it
    /// every round.
    pub max_round_recv_bytes: u64,
    /// Nanoseconds this rank spent blocked in the rounds' done-allreduce
    /// — straggler-bound wait: some peer was still mapping or draining
    /// when this rank entered the vote.
    pub sync_wait_ns: u64,
    /// Nanoseconds blocked receiving the rounds' partition payloads —
    /// byte-bound wait: peers were still pushing data.
    pub data_wait_ns: u64,
    /// Cumulative bytes this rank sent to its hottest destination.
    pub max_dest_bytes: u64,
    /// Send-side partition imbalance over the whole shuffle: max/mean of
    /// cumulative per-destination bytes in permille (1000 = perfectly
    /// balanced, 0 = nothing emitted).
    pub imbalance_permille: u64,
    /// Gini coefficient of cumulative per-destination bytes in permille
    /// (0 = uniform, →1000 = everything to one destination).
    pub gini_permille: u64,
    /// Adaptive-controller counters (all zero outside
    /// [`ShuffleMode::Adaptive`]).
    pub adapt: AdaptStats,
}

impl ShuffleStats {
    /// Folds another rank's counters into this one (cluster totals, the
    /// same shape as `CommStats::merge`). Traffic counters sum; `rounds`
    /// takes the max because exchange rounds are collective — every rank
    /// participates in the same ones, so summing would overcount — and so
    /// does the per-round receive high-water mark.
    pub fn merge(&mut self, other: &ShuffleStats) {
        self.kvs_emitted += other.kvs_emitted;
        self.kv_bytes_emitted += other.kv_bytes_emitted;
        self.kvs_received += other.kvs_received;
        self.rounds = self.rounds.max(other.rounds);
        self.bytes_received += other.bytes_received;
        self.max_round_recv_bytes = self.max_round_recv_bytes.max(other.max_round_recv_bytes);
        self.sync_wait_ns += other.sync_wait_ns;
        self.data_wait_ns += other.data_wait_ns;
        self.max_dest_bytes = self.max_dest_bytes.max(other.max_dest_bytes);
        self.imbalance_permille = self.imbalance_permille.max(other.imbalance_permille);
        self.gini_permille = self.gini_permille.max(other.gini_permille);
        self.adapt.merge(&other.adapt);
    }

    /// The report's shuffle section. The waits belong to the report's
    /// wait-state section and `adapt` is its own section; nothing spills
    /// inside the shuffle, so `spilled_bytes` is 0.
    pub fn counters(&self) -> mimir_obs::ShuffleCounters {
        mimir_obs::ShuffleCounters {
            kvs_emitted: self.kvs_emitted,
            kv_bytes_emitted: self.kv_bytes_emitted,
            kvs_received: self.kvs_received,
            rounds: self.rounds,
            spilled_bytes: 0,
            bytes_received: self.bytes_received,
            max_round_recv_bytes: self.max_round_recv_bytes,
            max_dest_bytes: self.max_dest_bytes,
            imbalance_permille: self.imbalance_permille,
            gini_permille: self.gini_permille,
        }
    }
}

/// The partitioned-send-buffer shuffle engine.
pub struct Shuffler<'a, S: KvSink> {
    comm: &'a mut Comm,
    meta: KvMeta,
    mode: ShuffleMode,
    send: TrackedBuf,
    /// The static receive buffer of paper Section III-B. Every round's
    /// received partitions are copied here; the partition arithmetic
    /// guarantees one send-buffer's worth of space always suffices.
    recv: TrackedBuf,
    part_cap: usize,
    part_len: Vec<usize>,
    /// Receive-buffer sub-range per source rank, reused across rounds.
    ranges: Vec<Range<usize>>,
    /// Cumulative bytes emitted towards each destination rank — the
    /// per-destination histogram behind the skew metrics.
    dest_bytes: Vec<u64>,
    /// Cumulative KVs emitted towards each destination rank.
    dest_kvs: Vec<u64>,
    /// Preallocated sort buffer for the Gini computation, so per-round
    /// skew accounting stays allocation-free in steady state.
    skew_scratch: Vec<u64>,
    partitioner: Partitioner,
    sink: S,
    stats: ShuffleStats,
    /// The pool that charged the comm buffers, kept for the hot stage's
    /// lazily-created arena.
    pool: MemPool,
    /// The live controller; present only under [`ShuffleMode::Adaptive`].
    adapt: Option<AdaptController>,
    /// Effective partition fill threshold triggering a round. Always
    /// `part_cap` outside adaptive mode; the controller moves it between
    /// the policy floor and `part_cap` (never below the largest KV seen).
    eff_cap: usize,
    /// Largest encoded KV seen so far — the jumbo floor for `eff_cap`.
    max_kv_len: usize,
    /// Whether the once-only oversized-KV warning has fired.
    warned_jumbo: bool,
    /// `hot_pending` count from the most recent ballot tally. Identical
    /// on every rank, so the flush participation decision at `finish` is
    /// collective without an extra allreduce.
    last_hot_pending: u64,
    /// The tripped hot destination and its count-collapsing stage.
    hot: Option<HotState>,
    /// Reused encode buffer for staging (sized `part_cap` at trip time).
    hot_scratch: Vec<u8>,
}

/// The hot-key divert state once a destination has tripped.
struct HotState {
    /// The destination rank whose traffic is being staged.
    dest: usize,
    /// Staged `(encoded kv, duplicate count)` entries.
    store: HotStore,
    /// First-eight-key-bytes fingerprints of `mru[0..4]`, kept as plain
    /// fields so the per-emit probe rejects a non-staged key with four
    /// register compares before touching the slots.
    heads: [u64; 4],
    /// The last four distinct staged KVs, raw bytes. A destination only
    /// trips hot because a handful of keys dominate it, so staged emits
    /// overwhelmingly repeat one of a few distinct KVs — matching on the
    /// raw `(key, val)` bytes turns those into a single count bump,
    /// skipping the encode, the hash, and the index probe a cold stage
    /// pays. Slots never move once filled (no LRU reordering: the swap
    /// churn costs more than an extra compare), and refills replace
    /// round-robin via `next_fill`.
    mru: [HotMru; 4],
    /// Next slot to replace on a cold stage (round-robin).
    next_fill: usize,
}

/// One raw-bytes MRU slot: `key ‖ val` in a buffer pre-sized to
/// `part_cap` at trip time, so steady-state hits and refills never
/// allocate. `len == usize::MAX` marks an empty slot. The slot also
/// remembers the encoded length, so a hit books emit stats without
/// re-deriving it — and because the partitioner is deterministic, a hit
/// needs no partition hash either: identical bytes route identically.
struct HotMru {
    raw: Vec<u8>,
    /// First eight key bytes (zero-padded). The probe compares the
    /// copy mirrored in [`HotState::heads`] so a non-matching key never
    /// dereferences the slot at all; this field keeps that mirror in
    /// sync across refills.
    head: u64,
    key_len: usize,
    len: usize,
    enc_len: usize,
    id: u32,
}

/// The first up-to-eight bytes of `key` as a little-endian word.
#[inline(always)]
fn head_of(key: &[u8]) -> u64 {
    // Keys of eight bytes or more — the common case — are one unaligned
    // load; the variable-length copy below would lower to an out-of-line
    // memcpy call on every emit.
    if let Some(first8) = key.first_chunk::<8>() {
        return u64::from_le_bytes(*first8);
    }
    let mut b = [0u8; 8];
    b[..key.len()].copy_from_slice(key);
    u64::from_le_bytes(b)
}

/// Word-at-a-time slice equality that the compiler keeps inline. The MRU
/// check runs on every emit of a hot-destination stream, where the
/// out-of-line `bcmp` the generic `==` lowers to costs more than the
/// whole direct emit path it is trying to beat.
#[inline(always)]
fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut i = 0;
    while i + 8 <= a.len() {
        let aw = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte chunk"));
        let bw = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte chunk"));
        if aw != bw {
            return false;
        }
        i += 8;
    }
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

impl HotMru {
    fn empty(part_cap: usize) -> Self {
        Self {
            raw: vec![0; part_cap],
            head: 0,
            key_len: 0,
            len: usize::MAX,
            enc_len: 0,
            id: 0,
        }
    }

    #[inline(always)]
    fn matches(&self, head: u64, key: &[u8], val: &[u8]) -> bool {
        self.head == head
            && self.len == key.len() + val.len()
            && self.key_len == key.len()
            && bytes_eq(&self.raw[..self.key_len], key)
            && bytes_eq(&self.raw[self.key_len..self.len], val)
    }

    fn fill(&mut self, key: &[u8], val: &[u8], enc_len: usize, id: u32) {
        self.raw[..key.len()].copy_from_slice(key);
        self.raw[key.len()..key.len() + val.len()].copy_from_slice(val);
        self.head = head_of(key);
        self.key_len = key.len();
        self.len = key.len() + val.len();
        self.enc_len = enc_len;
        self.id = id;
    }
}

/// Imbalance ratio (max/mean) and Gini coefficient, both in permille, of
/// the distribution currently held in `values`. Sorts `values` in place
/// (callers pass a reused scratch buffer). Returns `None` for an empty or
/// all-zero distribution.
fn skew_permille(values: &mut [u64]) -> Option<(u64, u64)> {
    let n = values.len() as u64;
    let total: u64 = values.iter().sum();
    if n == 0 || total == 0 {
        return None;
    }
    let max = values.iter().copied().max().unwrap_or(0);
    let imbalance = (max as u128 * 1000 * n as u128 / total as u128) as u64;
    values.sort_unstable();
    // G = (2 Σ i·x₍ᵢ₎) / (n Σ x) − (n+1)/n, ascending order, i 1-based.
    let weighted: u128 = values
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as u128 + 1) * x as u128)
        .sum();
    let g = (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64;
    let gini = (g.clamp(0.0, 1.0) * 1000.0).round() as u64;
    Some((imbalance, gini))
}

impl<'a, S: KvSink> Shuffler<'a, S> {
    /// Creates a shuffler whose send and receive buffers (each
    /// `comm_buf_size` bytes) are charged to `pool`.
    ///
    /// # Errors
    /// Memory exhaustion allocating the two communication buffers, or a
    /// configuration leaving partitions absurdly small.
    pub fn new(
        comm: &'a mut Comm,
        pool: &MemPool,
        meta: KvMeta,
        comm_buf_size: usize,
        sink: S,
    ) -> Result<Self> {
        Self::with_partitioner(comm, pool, meta, comm_buf_size, sink, Partitioner::hash())
    }

    /// [`Self::new`] with a user partitioner (paper Section III-A:
    /// "Users can provide alternative hash functions").
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn with_partitioner(
        comm: &'a mut Comm,
        pool: &MemPool,
        meta: KvMeta,
        comm_buf_size: usize,
        sink: S,
        partitioner: Partitioner,
    ) -> Result<Self> {
        Self::with_options(
            comm,
            pool,
            meta,
            comm_buf_size,
            sink,
            partitioner,
            ShuffleMode::default(),
        )
    }

    /// Fully-parameterized constructor: partitioner plus data-path
    /// [`ShuffleMode`]. The mode is part of the collective call sequence,
    /// so every rank must pass the same one.
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn with_options(
        comm: &'a mut Comm,
        pool: &MemPool,
        meta: KvMeta,
        comm_buf_size: usize,
        sink: S,
        partitioner: Partitioner,
        mode: ShuffleMode,
    ) -> Result<Self> {
        Self::with_policy(
            comm,
            pool,
            meta,
            comm_buf_size,
            sink,
            partitioner,
            mode,
            AdaptPolicy::default(),
        )
    }

    /// [`Self::with_options`] plus an explicit [`AdaptPolicy`], consulted
    /// only under [`ShuffleMode::Adaptive`].
    ///
    /// # Errors
    /// As [`Self::new`], plus worlds too large for the packed ballot
    /// under the adaptive mode.
    #[allow(clippy::too_many_arguments)]
    pub fn with_policy(
        comm: &'a mut Comm,
        pool: &MemPool,
        meta: KvMeta,
        comm_buf_size: usize,
        sink: S,
        partitioner: Partitioner,
        mode: ShuffleMode,
        policy: AdaptPolicy,
    ) -> Result<Self> {
        let p = comm.size();
        let part_cap = comm_buf_size / p;
        if part_cap < 16 {
            return Err(MimirError::Config(format!(
                "send buffer of {comm_buf_size} B leaves {part_cap} B partitions across {p} ranks"
            )));
        }
        if mode == ShuffleMode::Adaptive && p > MAX_BALLOT_RANKS {
            return Err(MimirError::Config(format!(
                "adaptive shuffle's packed ballot supports at most {MAX_BALLOT_RANKS} ranks, \
                 got {p}"
            )));
        }
        let adapt = (mode == ShuffleMode::Adaptive).then(|| AdaptController::new(policy));
        Ok(Self {
            comm,
            meta,
            mode,
            send: TrackedBuf::new(pool, part_cap * p)?,
            recv: TrackedBuf::new(pool, part_cap * p)?,
            part_cap,
            part_len: vec![0; p],
            ranges: Vec::with_capacity(p),
            dest_bytes: vec![0; p],
            dest_kvs: vec![0; p],
            skew_scratch: Vec::with_capacity(p),
            partitioner,
            sink,
            stats: ShuffleStats::default(),
            pool: pool.clone(),
            adapt,
            eff_cap: part_cap,
            max_kv_len: 0,
            warned_jumbo: false,
            last_hot_pending: 0,
            hot: None,
            hot_scratch: Vec::new(),
        })
    }

    /// Completes the shuffle: participates in exchange rounds until every
    /// rank is done, then returns the sink and the shuffle counters.
    ///
    /// # Errors
    /// Sink failures while draining the final rounds.
    pub fn finish(mut self) -> Result<(S, ShuffleStats)> {
        while !self.exchange(true)? {}
        // The final ballot's hot_pending tally is identical on every
        // rank, so this branch is collectively consistent: either all
        // ranks run the two flush phases or none do.
        if self.last_hot_pending > 0 {
            self.flush_hot()?;
        }
        if let Some(ctl) = &self.adapt {
            ctl.finalize(&mut self.stats.adapt);
        }
        // Whole-shuffle skew over the cumulative per-destination
        // histogram (the per-round view goes out as RoundSkew events).
        self.stats.max_dest_bytes = self.dest_bytes.iter().copied().max().unwrap_or(0);
        self.skew_scratch.clear();
        self.skew_scratch.extend_from_slice(&self.dest_bytes);
        if let Some((imbalance, gini)) = skew_permille(&mut self.skew_scratch) {
            self.stats.imbalance_permille = imbalance;
            self.stats.gini_permille = gini;
        }
        self.push_live();
        Ok((self.sink, self.stats))
    }

    /// The cumulative per-destination histogram: `(bytes, kvs)` emitted
    /// towards each rank so far.
    pub fn dest_histogram(&self) -> (&[u64], &[u64]) {
        (&self.dest_bytes, &self.dest_kvs)
    }

    /// Pushes the running shuffle counters — with skew computed over the
    /// cumulative per-destination histogram *so far* — into this rank's
    /// live telemetry accumulator, so the online partition-skew rule sees
    /// traffic while rounds are still in flight. No-op unless the live
    /// plane is armed on this thread.
    fn push_live(&self) {
        if mimir_obs::live::shared().is_none() {
            return;
        }
        let mut counters = self.stats.counters();
        counters.max_dest_bytes = self.dest_bytes.iter().copied().max().unwrap_or(0);
        let mut scratch = self.dest_bytes.clone();
        if let Some((imbalance, gini)) = skew_permille(&mut scratch) {
            counters.imbalance_permille = imbalance;
            counters.gini_permille = gini;
        }
        mimir_obs::live::note_shuffle(counters);
    }

    /// Read access to the sink mid-shuffle (mainly for tests and
    /// adaptive applications).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The active data-path mode.
    pub fn mode(&self) -> ShuffleMode {
        self.mode
    }

    /// One exchange round; returns whether every rank reported done.
    fn exchange(&mut self, my_done: bool) -> Result<bool> {
        let mut round = mimir_obs::span(
            EventKind::RoundBegin,
            EventKind::RoundEnd,
            self.stats.rounds,
            0,
        );
        // This round's send-side skew, while `part_len` still holds the
        // fill levels. Only computed when a recorder is listening — the
        // cumulative skew in `finish` covers the counters either way.
        if mimir_obs::active() {
            self.skew_scratch.clear();
            self.skew_scratch
                .extend(self.part_len.iter().map(|&l| l as u64));
            if let Some((imbalance, gini)) = skew_permille(&mut self.skew_scratch) {
                mimir_obs::emit(EventKind::RoundSkew, imbalance, gini);
            }
        }
        let (sync0, data0) = (self.stats.sync_wait_ns, self.stats.data_wait_ns);
        let overlap = match self.mode {
            ShuffleMode::ZeroCopy => false,
            ShuffleMode::Overlapped => true,
            // The posting order the controller converged on *before*
            // this round; mid-round ballot decisions apply from the next
            // round, uniformly on every rank.
            ShuffleMode::Adaptive => self.adapt.as_ref().is_some_and(AdaptController::overlap),
        };
        let all_done = self.exchange_zero_copy(my_done, overlap)?;
        let (sync_delta, data_delta) = (
            self.stats.sync_wait_ns - sync0,
            self.stats.data_wait_ns - data0,
        );
        mimir_obs::emit(EventKind::RoundWait, sync_delta, data_delta);
        self.stats.rounds += 1;
        self.push_live();
        if let Some(ctl) = &mut self.adapt {
            // This round's wait split becomes the next round's vote.
            ctl.observe_round(sync_delta, data_delta);
        }
        if !all_done {
            self.maybe_trip_hot();
        }
        self.refresh_eff_cap();
        round.set_b(u64::from(all_done));
        Ok(all_done)
    }

    /// The round's done-vote. Outside adaptive mode this is the classic
    /// `LAnd` allreduce; under it, the packed ballot — still exactly one
    /// collective — whose tally also steps the controller.
    fn round_vote(&mut self, my_done: bool) -> bool {
        let _sync = mimir_obs::step_span(Step::Sync);
        let w0 = self.comm.stats().wait_ns;
        let hot_pending = self.hot.as_ref().is_some_and(|h| !h.store.is_empty());
        let vote = self.adapt.as_ref().map(|c| c.vote(my_done, hot_pending));
        let all_done = if let Some(vote) = vote {
            let tally = self.comm.allreduce_ballot(vote);
            let world = self.comm.size() as u64;
            if let Some(ctl) = self.adapt.as_mut() {
                ctl.apply(&tally, world, self.stats.rounds, &mut self.stats.adapt);
            }
            self.last_hot_pending = tally.hot_pending;
            tally.done == world
        } else {
            self.comm.allreduce_u64(ReduceOp::LAnd, u64::from(my_done)) == 1
        };
        self.stats.sync_wait_ns += self.comm.stats().wait_ns - w0;
        all_done
    }

    /// Recomputes the effective round-size threshold from the
    /// controller's fill target, clamped below by the policy floor and
    /// by the largest KV seen (the jumbo floor — shrinking must never
    /// leave a partition unable to hold one KV, which would livelock the
    /// round loop on a KV that never fits).
    fn refresh_eff_cap(&mut self) {
        let Some(ctl) = &self.adapt else {
            self.eff_cap = self.part_cap;
            return;
        };
        let target = (self.part_cap as u64 * ctl.fill_permille() / 1000) as usize;
        let floor = (self.part_cap as u64 * ctl.policy().min_fill_permille / 1000) as usize;
        let mut cap = target.max(floor);
        if cap < self.max_kv_len {
            cap = self.max_kv_len;
            if cap != self.eff_cap {
                self.stats.adapt.jumbo_floor_hits += 1;
                mimir_obs::emit(
                    EventKind::AdaptDecision,
                    decision::JUMBO_FLOOR,
                    self.max_kv_len as u64,
                );
            }
        }
        self.eff_cap = cap.min(self.part_cap);
    }

    /// Trips the hot-key divert when the cumulative per-destination
    /// histogram shows one destination past the policy's share of fair.
    /// Purely sender-local: staging changes only what *this* rank sends;
    /// flush participation is negotiated through the ballot.
    fn maybe_trip_hot(&mut self) {
        let Some(ctl) = &self.adapt else { return };
        let policy = *ctl.policy();
        if !policy.hot_mitigation || self.hot.is_some() || self.stats.rounds < policy.hot_min_rounds
        {
            return;
        }
        let total: u64 = self.dest_bytes.iter().sum();
        if total == 0 {
            return;
        }
        let (dest, &max) = self
            .dest_bytes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &b)| b)
            .expect("non-empty histogram");
        let p = self.dest_bytes.len() as u64;
        let share_permille = (max as u128 * p as u128 * 1000 / total as u128) as u64;
        if share_permille < policy.hot_trip_permille {
            return;
        }
        let cap = if policy.hot_stage_bytes == 0 {
            self.part_cap * self.dest_bytes.len()
        } else {
            policy.hot_stage_bytes
        };
        // Pool exhaustion just means no mitigation: the direct path
        // keeps working.
        if let Ok(store) = HotStore::new(&self.pool, cap) {
            self.hot = Some(HotState {
                dest,
                store,
                // Sentinel heads; a collision with a real key is
                // harmless (the slot `matches` still rejects it).
                heads: [u64::MAX; 4],
                mru: std::array::from_fn(|_| HotMru::empty(self.part_cap)),
                next_fill: 0,
            });
            self.hot_scratch.resize(self.part_cap, 0);
            self.stats.adapt.hot_trips += 1;
            mimir_obs::emit(EventKind::AdaptDecision, decision::HOT_TRIP, dest as u64);
        }
    }

    /// The zero-copy round: partitions leave straight from their
    /// send-buffer slices, receives land in the static receive buffer,
    /// and each source's run drains in bulk. With `overlap`, sends are
    /// posted before the done-allreduce so the vote hides behind them.
    fn exchange_zero_copy(&mut self, my_done: bool, overlap: bool) -> Result<bool> {
        let send_bytes: u64 = self.part_len.iter().map(|&l| l as u64).sum();
        let p = self.comm.size();
        let part_cap = self.part_cap;

        let (pending, all_done) = if overlap {
            let pending = {
                let mut step = mimir_obs::step_span(Step::Post);
                step.set_b(send_bytes);
                let send = self.send.as_slice();
                let part_len = &self.part_len;
                self.comm.alltoallv_post(
                    (0..p).map(|d| &send[d * part_cap..d * part_cap + part_len[d]]),
                    self.recv.as_mut_slice(),
                )
            };
            let all_done = self.round_vote(my_done);
            (pending, all_done)
        } else {
            let all_done = self.round_vote(my_done);
            let pending = {
                let send = self.send.as_slice();
                let part_len = &self.part_len;
                self.comm.alltoallv_post(
                    (0..p).map(|d| &send[d * part_cap..d * part_cap + part_len[d]]),
                    self.recv.as_mut_slice(),
                )
            };
            (pending, all_done)
        };

        {
            let mut step = mimir_obs::step_span(if overlap { Step::Recv } else { Step::Alltoallv });
            if !overlap {
                step.set_b(send_bytes);
            }
            let w0 = self.comm.stats().wait_ns;
            self.comm
                .alltoallv_complete(pending, self.recv.as_mut_slice(), &mut self.ranges);
            self.stats.data_wait_ns += self.comm.stats().wait_ns - w0;
            if overlap {
                step.set_b(self.ranges.last().map_or(0, |r| r.end) as u64);
            }
        }
        self.part_len.fill(0);

        // The Section III-B bound, enforced: this round's receive total
        // fits the static receive buffer.
        let recv_bytes = self.ranges.last().map_or(0, |r| r.end) as u64;
        assert!(
            recv_bytes <= self.recv.as_slice().len() as u64,
            "round received {recv_bytes} B into a {} B receive buffer",
            self.recv.as_slice().len()
        );
        self.stats.bytes_received += recv_bytes;
        self.stats.max_round_recv_bytes = self.stats.max_round_recv_bytes.max(recv_bytes);

        {
            let mut drain = mimir_obs::step_span(Step::Drain);
            let recv = self.recv.as_slice();
            let meta = self.meta;
            let mut received = 0u64;
            for r in &self.ranges {
                received += self.sink.accept_run(meta, &recv[r.clone()])?;
            }
            self.stats.kvs_received += received;
            drain.set_b(recv_bytes);
        }
        Ok(all_done)
    }

    /// Flushes staged hot-key KVs at job end through two short exchange
    /// phases (Sanders-style multi-level aggregation with the count
    /// monoid):
    ///
    /// 1. **Salted spread** — every sender scatters its `(kv, count)`
    ///    frames across all ranks by [`salted_dest`]; each rank's relay
    ///    store merges counts of identical KVs arriving from different
    ///    senders.
    /// 2. **Owner merge** — each relay forwards its surviving frames to
    ///    the KV's true owner (the real partitioner on the decoded key),
    ///    which expands the count into the sink.
    ///
    /// Collective: every rank runs both phases (a rank with nothing
    /// staged still relays), which `finish` guarantees by gating on the
    /// final ballot's identical `hot_pending` tally.
    fn flush_hot(&mut self) -> Result<()> {
        let p = self.comm.size();
        let hot = self.hot.take();
        let mut relay = HotStore::new(&self.pool, 0)?;
        if let Some(h) = &hot {
            self.stats.adapt.hot_unique_kvs += h.store.len() as u64;
            // Deferred staging accounting: the per-emit divert paths only
            // bump counts, so fold the totals in here, once.
            let (skvs, sbytes) = h.store.staged_totals();
            self.stats.kvs_emitted += skvs;
            self.stats.kv_bytes_emitted += sbytes;
            self.stats.adapt.hot_staged_kvs += skvs;
            self.stats.adapt.hot_staged_bytes += sbytes;
            mimir_obs::emit(
                EventKind::AdaptDecision,
                decision::SALTED_FLUSH,
                h.store.len() as u64,
            );
        }
        // Per-sender routing choice, purely local (both phase loops are
        // collective regardless, so ranks may choose differently):
        //  * the owner expands its own staged counts straight into the
        //    sink — no wire trip at all;
        //  * a small stage (one partition's worth of frames) skips the
        //    salted spread and sends owner-routed frames in the merge
        //    phase — the relay indirection only pays for itself when
        //    per-sender stages are too large for one rank to absorb;
        //  * a large stage takes the full Sanders-style two-stage path.
        let mut direct = false;
        if let Some(h) = &hot {
            let own = self.comm.rank() == h.dest;
            direct = !own && h.store.staged_bytes() + FRAME_HDR * h.store.len() <= self.part_cap;
            for id in 0..h.store.len() as u32 {
                if own {
                    // This rank IS the hot owner: its own staged counts
                    // are already home, so expand them straight into the
                    // sink — no salted trip, no relay merge.
                    let kv = h.store.kv(id);
                    let ((k, v), _) = decode_one(self.meta, kv).expect("staged kv frame");
                    let count = h.store.count(id);
                    self.sink.accept_repeat(k, v, count)?;
                    self.stats.kvs_received += count;
                    continue;
                }
                if direct {
                    break;
                }
                let flen = FRAME_HDR + h.store.kv(id).len();
                let dst = salted_dest(h.store.hash_of(id), p);
                if self.part_len[dst] + flen > self.part_cap {
                    self.hot_exchange(false, Some(&mut relay))?;
                }
                let off = dst * self.part_cap + self.part_len[dst];
                write_frame(
                    &mut self.send.as_mut_slice()[off..off + flen],
                    h.store.kv(id),
                    h.store.count(id),
                );
                self.part_len[dst] += flen;
                self.dest_bytes[dst] += flen as u64;
                self.dest_kvs[dst] += 1;
            }
        }
        while !self.hot_exchange(true, Some(&mut relay))? {}

        mimir_obs::emit(
            EventKind::AdaptDecision,
            decision::MERGE_FLUSH,
            relay.len() as u64,
        );
        if direct {
            // Small-stage shortcut: this rank's frames go straight to
            // the true owner in the merge phase, no relay hop.
            let h = hot.as_ref().expect("direct implies a stage");
            for id in 0..h.store.len() as u32 {
                let kv = h.store.kv(id);
                let flen = FRAME_HDR + kv.len();
                let ((k, _), _) = decode_one(self.meta, kv).expect("staged kv frame");
                let dst = self.partitioner.of(k, p);
                if self.part_len[dst] + flen > self.part_cap {
                    self.hot_exchange(false, None)?;
                }
                let off = dst * self.part_cap + self.part_len[dst];
                write_frame(
                    &mut self.send.as_mut_slice()[off..off + flen],
                    kv,
                    h.store.count(id),
                );
                self.part_len[dst] += flen;
                self.dest_bytes[dst] += flen as u64;
                self.dest_kvs[dst] += 1;
            }
        }
        for id in 0..relay.len() as u32 {
            let (dst, flen) = {
                let kv = relay.kv(id);
                let ((k, _), _) = decode_one(self.meta, kv).expect("staged kv frame");
                (self.partitioner.of(k, p), FRAME_HDR + kv.len())
            };
            if self.part_len[dst] + flen > self.part_cap {
                self.hot_exchange(false, None)?;
            }
            let off = dst * self.part_cap + self.part_len[dst];
            write_frame(
                &mut self.send.as_mut_slice()[off..off + flen],
                relay.kv(id),
                relay.count(id),
            );
            self.part_len[dst] += flen;
            self.dest_bytes[dst] += flen as u64;
            self.dest_kvs[dst] += 1;
        }
        while !self.hot_exchange(true, None)? {}
        Ok(())
    }

    /// One flush round: the classic vote-first zero-copy exchange, but
    /// the payload is `(kv, count)` frames. With `relay` the received
    /// frames merge into it (the salted phase); without, they expand
    /// count-many KVs into the sink (the owner-merge phase). Wait
    /// attribution, the Section III-B assert, and round trace events all
    /// behave exactly like main-shuffle rounds.
    fn hot_exchange(&mut self, my_done: bool, mut relay: Option<&mut HotStore>) -> Result<bool> {
        let salted = relay.is_some();
        let mut round = mimir_obs::span(
            EventKind::RoundBegin,
            EventKind::RoundEnd,
            self.stats.rounds,
            0,
        );
        let (sync0, data0) = (self.stats.sync_wait_ns, self.stats.data_wait_ns);
        let all_done = {
            let _sync = mimir_obs::step_span(Step::Sync);
            let w0 = self.comm.stats().wait_ns;
            let done = self.comm.allreduce_u64(ReduceOp::LAnd, u64::from(my_done)) == 1;
            self.stats.sync_wait_ns += self.comm.stats().wait_ns - w0;
            done
        };
        let p = self.comm.size();
        let part_cap = self.part_cap;
        let pending = {
            let send = self.send.as_slice();
            let part_len = &self.part_len;
            self.comm.alltoallv_post(
                (0..p).map(|d| &send[d * part_cap..d * part_cap + part_len[d]]),
                self.recv.as_mut_slice(),
            )
        };
        {
            let mut step = mimir_obs::step_span(Step::Alltoallv);
            step.set_b(self.part_len.iter().map(|&l| l as u64).sum());
            let w0 = self.comm.stats().wait_ns;
            self.comm
                .alltoallv_complete(pending, self.recv.as_mut_slice(), &mut self.ranges);
            self.stats.data_wait_ns += self.comm.stats().wait_ns - w0;
        }
        self.part_len.fill(0);
        let recv_bytes = self.ranges.last().map_or(0, |r| r.end) as u64;
        assert!(
            recv_bytes <= self.recv.as_slice().len() as u64,
            "flush round received {recv_bytes} B into a {} B receive buffer",
            self.recv.as_slice().len()
        );
        self.stats.bytes_received += recv_bytes;
        self.stats.max_round_recv_bytes = self.stats.max_round_recv_bytes.max(recv_bytes);
        {
            let mut drain = mimir_obs::step_span(Step::Drain);
            let recv = self.recv.as_slice();
            let meta = self.meta;
            for r in &self.ranges {
                for (kv, count) in FrameDecoder::new(&recv[r.clone()]) {
                    match &mut relay {
                        Some(rel) => rel.absorb(kv, count)?,
                        None => {
                            let ((k, v), _) = decode_one(meta, kv).expect("framed kv");
                            self.sink.accept_repeat(k, v, count)?;
                            self.stats.kvs_received += count;
                        }
                    }
                }
            }
            drain.set_b(recv_bytes);
        }
        mimir_obs::emit(
            EventKind::RoundWait,
            self.stats.sync_wait_ns - sync0,
            self.stats.data_wait_ns - data0,
        );
        self.stats.rounds += 1;
        if salted {
            self.stats.adapt.salted_rounds += 1;
        } else {
            self.stats.adapt.merge_rounds += 1;
        }
        round.set_b(u64::from(all_done));
        Ok(all_done)
    }
}

impl<S: KvSink> Shuffler<'_, S> {
    /// The shared emit body once the destination rank is known.
    fn emit_to(&mut self, dst: usize, key: &[u8], val: &[u8]) -> Result<()> {
        validate(self.meta.key, key, "key")?;
        validate(self.meta.val, val, "value")?;
        let len = encoded_len(self.meta, key, val);
        if len > self.part_cap {
            if !self.warned_jumbo {
                self.warned_jumbo = true;
                eprintln!(
                    "mimir: comm buffer too small for a single KV: {len} B against {} B \
                     partitions — raise comm_buf_size (further oversized KVs will error \
                     without this warning)",
                    self.part_cap
                );
            }
            return Err(MimirError::KvTooLarge {
                size: len,
                limit: self.part_cap,
                what: "send-buffer partition",
            });
        }
        if len > self.max_kv_len {
            // A new jumbo raises the adaptive grower's floor so the
            // effective round size always holds at least one of it.
            self.max_kv_len = len;
            self.refresh_eff_cap();
        }
        if let Some(hot) = &mut self.hot {
            if dst == hot.dest {
                // Divert: collapse the KV into a local count instead of
                // sending. The raw-bytes MRU already missed (the
                // [`Self::hot_fast_path`] check runs before the
                // partitioner), so this is a cold stage.
                encode_into(self.meta, key, val, &mut self.hot_scratch[..len]);
                let kv = &self.hot_scratch[..len];
                match hot.store.stage(crate::hash::fxhash64(kv), kv)? {
                    Some(id) => {
                        let s = hot.next_fill;
                        hot.next_fill = (s + 1) % hot.mru.len();
                        hot.mru[s].fill(key, val, len, id);
                        hot.heads[s] = hot.mru[s].head;
                    }
                    None => {
                        // Stage full and the KV is new: ship it
                        // directly.
                        self.stats.adapt.hot_forward_bytes += len as u64;
                        return self.send_to(dst, key, val, len);
                    }
                }
                // Emit/staged totals are deferred to flush time
                // ([`HotStore::staged_totals`]) so bumps stay one add.
                return Ok(());
            }
        }
        self.send_to(dst, key, val, len)
    }

    /// The staged-repeat fast path, checked before the partitioner runs:
    /// a raw-bytes match against the last few distinct staged KVs is a
    /// pure count bump — no partition hash, no validation (identical
    /// bytes already validated), no encode, no index probe. Returns
    /// whether the KV was absorbed.
    #[inline(always)]
    fn hot_fast_path(&mut self, key: &[u8], val: &[u8]) -> bool {
        let Some(hot) = &mut self.hot else {
            return false;
        };
        // Four register compares reject almost every non-staged key
        // before any slot memory is touched; the slot `matches` check
        // still fully verifies the bytes afterwards.
        let head = head_of(key);
        for i in 0..hot.mru.len() {
            if head == hot.heads[i] && hot.mru[i].matches(head, key, val) {
                hot.store.bump(hot.mru[i].id);
                return true;
            }
        }
        false
    }

    /// The direct path: copy the encoded KV into its send-buffer
    /// partition, running an exchange round first if the partition is at
    /// its (possibly adapted) fill target.
    fn send_to(&mut self, dst: usize, key: &[u8], val: &[u8], len: usize) -> Result<()> {
        if self.part_len[dst] + len > self.eff_cap {
            // Partition reached the (possibly adapted) fill target:
            // suspend the map, run an aggregate round.
            self.exchange(false)?;
        }
        let off = dst * self.part_cap + self.part_len[dst];
        encode_into(
            self.meta,
            key,
            val,
            &mut self.send.as_mut_slice()[off..off + len],
        );
        self.part_len[dst] += len;
        self.dest_bytes[dst] += len as u64;
        self.dest_kvs[dst] += 1;
        self.stats.kvs_emitted += 1;
        self.stats.kv_bytes_emitted += len as u64;
        Ok(())
    }
}

impl<S: KvSink> Emitter for Shuffler<'_, S> {
    fn emit(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        if self.hot_fast_path(key, val) {
            return Ok(());
        }
        let dst = self.partitioner.of(key, self.comm.size());
        self.emit_to(dst, key, val)
    }

    fn emit_hashed(&mut self, key: &[u8], val: &[u8], key_hash: u64) -> Result<()> {
        debug_assert_eq!(key_hash, crate::hash::fxhash64(key));
        if self.hot_fast_path(key, val) {
            return Ok(());
        }
        let dst = if self.partitioner.is_hash() {
            crate::hash::partition_of_hashed(key_hash, self.comm.size())
        } else {
            self.partitioner.of(key, self.comm.size())
        };
        self.emit_to(dst, key, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::partition_of;
    use crate::KvContainer;
    use mimir_mem::MemPool;
    use mimir_mpi::run_world;
    use std::collections::HashMap;

    type WorldOutput = Vec<(HashMap<Vec<u8>, Vec<u64>>, ShuffleStats)>;

    fn shuffle_world_mode(
        n_ranks: usize,
        comm_buf: usize,
        kvs_per_rank: usize,
        mode: ShuffleMode,
    ) -> WorldOutput {
        run_world(n_ranks, move |comm| {
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::cstr_key_u64_val();
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
            let me = sh.rank() as u64;
            for i in 0..kvs_per_rank as u64 {
                let key = format!("key-{}", i % 13);
                sh.emit(key.as_bytes(), &(me * 10_000 + i).to_le_bytes())
                    .unwrap();
            }
            let (kvc, stats) = sh.finish().unwrap();
            let mut got: HashMap<Vec<u8>, Vec<u64>> = HashMap::new();
            kvc.drain(|k, v| {
                got.entry(k.to_vec())
                    .or_default()
                    .push(u64::from_le_bytes(v.try_into().unwrap()));
                Ok(())
            })
            .unwrap();
            (got, stats)
        })
    }

    fn shuffle_world(n_ranks: usize, comm_buf: usize, kvs_per_rank: usize) -> WorldOutput {
        shuffle_world_mode(n_ranks, comm_buf, kvs_per_rank, ShuffleMode::default())
    }

    #[test]
    fn all_kvs_arrive_exactly_once_partitioned_by_key() {
        let n = 4;
        let per_rank = 500;
        let results = shuffle_world(n, 4096, per_rank);
        let total: usize = results
            .iter()
            .map(|(m, _)| m.values().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(total, n * per_rank);

        // Every key lives on exactly the rank its hash selects.
        for (rank, (m, _)) in results.iter().enumerate() {
            for k in m.keys() {
                assert_eq!(
                    partition_of(k, n),
                    rank,
                    "key {:?}",
                    String::from_utf8_lossy(k)
                );
            }
        }
        // Each key's values came from all ranks.
        let mut all: HashMap<Vec<u8>, usize> = HashMap::new();
        for (m, _) in &results {
            for (k, vs) in m {
                *all.entry(k.clone()).or_default() += vs.len();
            }
        }
        assert_eq!(all.len(), 13);
    }

    #[test]
    fn every_mode_delivers_the_same_multiset() {
        let n = 3;
        let per_rank = 300;
        let mut per_mode = Vec::new();
        for mode in [
            ShuffleMode::ZeroCopy,
            ShuffleMode::Overlapped,
            ShuffleMode::Adaptive,
        ] {
            let results = shuffle_world_mode(n, 1536, per_rank, mode);
            let mut flat: Vec<(Vec<u8>, Vec<u64>)> = Vec::new();
            for (rank, (m, stats)) in results.into_iter().enumerate() {
                // The III-B bound held every round.
                assert!(stats.max_round_recv_bytes <= 1536, "{mode:?} rank {rank}");
                for (k, mut vs) in m {
                    vs.sort_unstable();
                    flat.push((k, vs));
                }
            }
            flat.sort();
            per_mode.push((mode, flat));
        }
        let (_, reference) = &per_mode[0];
        for (mode, flat) in &per_mode[1..] {
            assert_eq!(flat, reference, "{mode:?} differs from ZeroCopy");
        }
    }

    #[test]
    fn small_buffer_forces_many_rounds_but_loses_nothing() {
        let n = 3;
        let per_rank = 400;
        let small = shuffle_world(n, 256 * n, per_rank); // tiny partitions
        let big = shuffle_world(n, 64 * 1024, per_rank);
        let count = |rs: &WorldOutput| -> usize {
            rs.iter()
                .map(|(m, _)| m.values().map(Vec::len).sum::<usize>())
                .sum()
        };
        assert_eq!(count(&small), count(&big));
        assert!(
            small[0].1.rounds > big[0].1.rounds,
            "small {} vs big {}",
            small[0].1.rounds,
            big[0].1.rounds
        );
        // Rounds are collective: every rank saw the same number.
        let r0 = small[0].1.rounds;
        assert!(small.iter().all(|(_, s)| s.rounds == r0));
    }

    #[test]
    fn kv_bytes_metric_reflects_hint() {
        let out = run_world(2, |comm| {
            let pool = MemPool::unlimited("t", 4096);
            for (meta, expected_per_kv) in [
                (KvMeta::var(), 8 + 4 + 8),
                (KvMeta::cstr_key_u64_val(), 4 + 1 + 8),
            ] {
                let sink = KvContainer::new(&pool, meta);
                let mut sh = Shuffler::new(comm, &pool, meta, 4096, sink).unwrap();
                for i in 0..10u64 {
                    sh.emit(b"word", &i.to_le_bytes()).unwrap();
                }
                let (_, stats) = sh.finish().unwrap();
                assert_eq!(stats.kv_bytes_emitted, 10 * expected_per_kv as u64);
            }
        });
        drop(out);
    }

    #[test]
    fn kv_bigger_than_partition_is_rejected() {
        run_world(4, |comm| {
            let pool = MemPool::unlimited("t", 65536);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();
            // partition cap = 256; this KV is ~300 B.
            let big = vec![1u8; 300];
            let err = sh.emit(b"k", &big).unwrap_err();
            assert!(matches!(err, MimirError::KvTooLarge { .. }));
            let _ = sh.finish().unwrap();
        });
    }

    #[test]
    fn comm_buffers_are_charged_and_released() {
        run_world(2, |comm| {
            let pool = MemPool::new("t", 4096, 1 << 20).unwrap();
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let before = pool.used();
            let sh = Shuffler::new(comm, &pool, meta, 8192, sink).unwrap();
            assert_eq!(pool.used(), before + 2 * 8192, "send + recv buffers");
            let (kvc, _) = sh.finish().unwrap();
            drop(kvc);
            assert_eq!(pool.used(), 0);
        });
    }

    #[test]
    fn exchange_rounds_emit_trace_events() {
        let out = run_world(2, |comm| {
            mimir_obs::install(mimir_obs::Recorder::new(comm.rank(), 1024));
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 4096, sink).unwrap();
            for i in 0..50u32 {
                sh.emit(format!("k{i}").as_bytes(), b"v").unwrap();
            }
            let (_, stats) = sh.finish().unwrap();
            let r = mimir_obs::take().unwrap();
            (stats, r.events())
        });
        for (stats, evs) in out {
            let count = |k: EventKind| evs.iter().filter(|e| e.kind == k).count() as u64;
            assert_eq!(count(EventKind::RoundBegin), stats.rounds);
            assert_eq!(count(EventKind::RoundEnd), stats.rounds);
            // Three sub-steps (sync, alltoallv, drain) per round.
            assert_eq!(count(EventKind::StepBegin), 3 * stats.rounds);
            // One wait-attribution event per round; skew only for rounds
            // that actually carried bytes.
            assert_eq!(count(EventKind::RoundWait), stats.rounds);
            let skews = count(EventKind::RoundSkew);
            assert!((1..=stats.rounds).contains(&skews), "skew events: {skews}");
            let last_end = evs
                .iter()
                .rev()
                .find(|e| e.kind == EventKind::RoundEnd)
                .unwrap();
            assert_eq!(last_end.b, 1, "final round reports all-done");
        }
    }

    #[test]
    fn overlapped_rounds_emit_post_and_recv_steps() {
        let out = run_world(2, |comm| {
            mimir_obs::install(mimir_obs::Recorder::new(comm.rank(), 1024));
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::with_options(
                comm,
                &pool,
                meta,
                4096,
                sink,
                Partitioner::hash(),
                ShuffleMode::Overlapped,
            )
            .unwrap();
            for i in 0..50u32 {
                sh.emit(format!("k{i}").as_bytes(), b"v").unwrap();
            }
            let (_, stats) = sh.finish().unwrap();
            let r = mimir_obs::take().unwrap();
            (stats, r.events())
        });
        for (stats, evs) in out {
            let steps = |s: Step| {
                evs.iter()
                    .filter(|e| e.kind == EventKind::StepBegin && e.a == s as u64)
                    .count() as u64
            };
            // Four sub-steps (post, sync, recv, drain) per round; the
            // blocking alltoallv step never appears.
            assert_eq!(steps(Step::Post), stats.rounds);
            assert_eq!(steps(Step::Sync), stats.rounds);
            assert_eq!(steps(Step::Recv), stats.rounds);
            assert_eq!(steps(Step::Drain), stats.rounds);
            assert_eq!(steps(Step::Alltoallv), 0);
        }
    }

    #[test]
    fn skew_permille_math() {
        assert_eq!(skew_permille(&mut []), None);
        assert_eq!(skew_permille(&mut [0, 0, 0]), None);
        let (imb, gini) = skew_permille(&mut [100, 100, 100, 100]).unwrap();
        assert_eq!(imb, 1000, "uniform: max equals mean");
        assert_eq!(gini, 0, "uniform: zero Gini");
        let (imb, gini) = skew_permille(&mut [400, 0, 0, 0]).unwrap();
        assert_eq!(imb, 4000, "one hot destination out of four");
        assert_eq!(gini, 750, "G = (n−1)/n for a point mass");
    }

    #[test]
    fn skewed_partitioner_is_visible_in_counters_and_uniform_is_not() {
        let n = 4;
        let shuffle_stats = |partitioner: Partitioner| -> Vec<ShuffleStats> {
            run_world(n, move |comm| {
                let pool = MemPool::unlimited("t", 4096);
                let meta = KvMeta::cstr_key_u64_val();
                let sink = KvContainer::new(&pool, meta);
                let mut sh =
                    Shuffler::with_partitioner(comm, &pool, meta, 4096, sink, partitioner.clone())
                        .unwrap();
                for i in 0..400u64 {
                    let key = format!("key-{i}");
                    sh.emit(key.as_bytes(), &i.to_le_bytes()).unwrap();
                }
                let (bytes, kvs) = sh.dest_histogram();
                assert_eq!(bytes.len(), 4);
                assert_eq!(kvs.iter().sum::<u64>(), 400);
                sh.finish().unwrap().1
            })
        };
        let hot = shuffle_stats(Partitioner::custom("to-zero", |_, _| 0));
        for s in &hot {
            assert_eq!(
                s.imbalance_permille, 4000,
                "every byte went to rank 0: max = 4 × mean"
            );
            assert_eq!(s.gini_permille, 750);
            assert_eq!(s.max_dest_bytes, s.kv_bytes_emitted);
        }
        let uniform = shuffle_stats(Partitioner::hash());
        for s in &uniform {
            assert!(
                s.imbalance_permille < 1500,
                "hashed keys spread evenly, got {} permille",
                s.imbalance_permille
            );
            assert!(s.gini_permille < 250, "got {} permille", s.gini_permille);
        }
    }

    #[test]
    fn delayed_rank_shows_up_in_peers_sync_wait() {
        use std::time::Duration;
        let delay = Duration::from_millis(50);
        let stats = run_world(3, move |comm| {
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 4096, sink).unwrap();
            if sh.rank() == 2 {
                // Rank 2 is a slow mapper; its peers reach the shuffle's
                // final done-vote and block on it.
                std::thread::sleep(delay);
            }
            sh.emit(b"k", b"v").unwrap();
            sh.finish().unwrap().1
        });
        let floor = (delay.as_nanos() as u64 * 8) / 10;
        for (rank, s) in stats.iter().enumerate() {
            if rank == 2 {
                assert!(
                    s.sync_wait_ns < floor,
                    "the straggler itself should not wait: {} ns",
                    s.sync_wait_ns
                );
            } else {
                assert!(
                    s.sync_wait_ns >= floor,
                    "rank {rank} waited only {} ns on the straggler",
                    s.sync_wait_ns
                );
                assert!(
                    s.data_wait_ns < floor,
                    "the delay is sync-bound, not byte-bound: {} ns",
                    s.data_wait_ns
                );
            }
        }
    }

    #[test]
    fn adaptive_mode_is_a_drop_in_for_zero_copy() {
        let n = 4;
        let per_rank = 500;
        let results = shuffle_world_mode(n, 2048, per_rank, ShuffleMode::Adaptive);
        let total: usize = results
            .iter()
            .map(|(m, _)| m.values().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(total, n * per_rank, "adaptive loses nothing");
        for (rank, (m, stats)) in results.iter().enumerate() {
            assert!(stats.max_round_recv_bytes <= 2048, "III-B holds");
            for k in m.keys() {
                assert_eq!(partition_of(k, n), rank);
            }
            // The controller converged to *some* fill target in range.
            assert!(stats.adapt.final_fill_permille >= 250);
            assert!(stats.adapt.final_fill_permille <= 1000);
        }
        // Decisions are collective: every rank saw the identical tally
        // stream, so the tuning counters agree everywhere.
        let first = results[0].1.adapt;
        for (_, s) in &results {
            assert_eq!(s.adapt.mode_switches, first.mode_switches);
            assert_eq!(s.adapt.grow_steps, first.grow_steps);
            assert_eq!(s.adapt.shrink_steps, first.shrink_steps);
            assert_eq!(s.adapt.final_fill_permille, first.final_fill_permille);
            assert_eq!(s.adapt.final_overlap, first.final_overlap);
        }
    }

    #[test]
    fn hot_destination_trips_and_the_flush_delivers_everything() {
        // A point-mass partitioner makes rank 0 hot on every sender;
        // an aggressive policy trips after the first round. Every rank
        // emits the same duplicate-heavy stream, so the trip fires
        // symmetrically and the staged counts collapse hard.
        let n = 4;
        let per_rank = 600u64;
        let policy = AdaptPolicy {
            hot_min_rounds: 1,
            ..AdaptPolicy::default()
        };
        let out = run_world(n, move |comm| {
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::cstr_key_u64_val();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::with_policy(
                comm,
                &pool,
                meta,
                1024,
                sink,
                Partitioner::custom("to-zero", |_, _| 0),
                ShuffleMode::Adaptive,
                policy,
            )
            .unwrap();
            for i in 0..per_rank {
                // 13 distinct KVs repeated ~46× each: duplicate-heavy.
                let key = format!("key-{}", i % 13);
                sh.emit(key.as_bytes(), &(i % 13).to_le_bytes()).unwrap();
            }
            let (kvc, stats) = sh.finish().unwrap();
            let mut got: HashMap<Vec<u8>, Vec<u64>> = HashMap::new();
            kvc.drain(|k, v| {
                got.entry(k.to_vec())
                    .or_default()
                    .push(u64::from_le_bytes(v.try_into().unwrap()));
                Ok(())
            })
            .unwrap();
            (got, stats)
        });
        // Everything still lands on rank 0 (the true owner) exactly once.
        let total: usize = out
            .iter()
            .map(|(m, _)| m.values().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(total, (n as u64 * per_rank) as usize);
        for (rank, (m, _)) in out.iter().enumerate() {
            if rank != 0 {
                assert!(m.is_empty(), "rank {rank} owns nothing under to-zero");
            }
        }
        for (_, stats) in &out {
            assert!(stats.adapt.hot_trips >= 1, "the divert tripped");
            assert!(stats.adapt.hot_staged_kvs > 0, "KVs were staged");
            assert!(
                stats.adapt.hot_unique_kvs <= 13,
                "duplicates collapsed to at most the distinct population, got {}",
                stats.adapt.hot_unique_kvs
            );
            assert!(stats.adapt.salted_rounds >= 1);
            assert!(stats.adapt.merge_rounds >= 1);
            assert!(
                stats.max_round_recv_bytes <= 1024,
                "III-B held during flush"
            );
        }
        // The salted spread counts towards real wire destinations, so
        // the post-run histogram is no longer a point mass — except on
        // the owner itself, whose staged counts expand locally and never
        // hit the wire.
        for (rank, (_, stats)) in out.iter().enumerate() {
            if rank == 0 {
                continue;
            }
            assert!(
                stats.imbalance_permille < 4000,
                "salting broke rank {rank}'s point mass, got {}‰",
                stats.imbalance_permille
            );
        }
    }

    #[test]
    fn oversized_kv_warns_once_and_keeps_erroring() {
        run_world(2, |comm| {
            let pool = MemPool::unlimited("t", 65536);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();
            let big = vec![1u8; 600];
            for _ in 0..3 {
                let err = sh.emit(b"k", &big).unwrap_err();
                assert!(matches!(err, MimirError::KvTooLarge { .. }));
            }
            assert!(sh.warned_jumbo, "warned exactly once, flag latched");
            let _ = sh.finish().unwrap();
        });
    }

    #[test]
    fn single_rank_shuffle_is_local() {
        run_world(1, |comm| {
            let pool = MemPool::unlimited("t", 4096);
            let meta = KvMeta::var();
            let sink = KvContainer::new(&pool, meta);
            let mut sh = Shuffler::new(comm, &pool, meta, 1024, sink).unwrap();
            for i in 0..100u32 {
                sh.emit(format!("k{i}").as_bytes(), b"v").unwrap();
            }
            let (kvc, stats) = sh.finish().unwrap();
            assert_eq!(kvc.len(), 100);
            assert_eq!(stats.kvs_received, 100);
        });
    }
}
