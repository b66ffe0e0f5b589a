//! The adaptive shuffle runtime behind [`crate::ShuffleMode::Adaptive`]:
//! a per-job controller that folds the shuffler's existing round
//! counters into two live decisions.
//!
//! **Self-tuning exchange.** Every round the shuffler already splits its
//! blocked time into `sync_wait_ns` (the done-vote: straggler-bound) and
//! `data_wait_ns` (partition receives: byte-bound). The controller turns
//! the previous round's split into a vote — sync-bound rounds prefer
//! overlapped posting and bigger rounds, byte-bound rounds prefer
//! vote-first zero-copy and smaller rounds — and piggybacks it on the
//! round's done-allreduce as a packed ballot
//! ([`mimir_mpi::BallotVote`], one `Sum`-allreduce, zero extra
//! collectives). Every rank unpacks the identical tally and runs the
//! same deterministic [`AdaptController::apply`], so the world flips
//! mode or round size in lockstep. Hysteresis (a decision needs
//! [`crate::AdaptPolicy::hysteresis_rounds`] consecutive majority
//! ballots and is followed by `cooldown_rounds` of quiet) makes the
//! controller converge in a handful of rounds and never flap.
//!
//! **Hot-key mitigation.** When the cumulative per-destination byte
//! histogram shows one destination holding more than
//! `hot_trip_permille` of its fair share, further traffic towards it is
//! *staged* instead of sent: the encoded KV bytes intern into a
//! [`HotStore`] (a [`GroupIndex`] keyed on the full encoding) and exact
//! duplicates collapse into a count. At job end the stage flushes in
//! two short exchanges: a *salted spread* scatters `(kv, count)` frames
//! across all ranks by a salted hash (independent of the real
//! partitioner, so even a point-mass partitioner spreads), relays merge
//! counts of identical KVs arriving from different senders, and a
//! *merge exchange* forwards each surviving frame to its true owner,
//! which expands the count into the sink. Counts form a commutative
//! monoid, so the delivered multiset is exactly what direct sending
//! would have produced — the path is a pure optimization for
//! duplicate-heavy skew and degenerates to forwarding on unique values.

use mimir_mem::MemPool;
use mimir_mpi::{BallotTally, BallotVote};
use mimir_obs::EventKind;

use crate::config::AdaptPolicy;
use crate::group::GroupIndex;
use crate::hash::fast_range;
use crate::Result;

/// Decision codes carried in [`EventKind::AdaptDecision`] events
/// (`a` = code, `b` = operand).
pub mod decision {
    /// Switched to overlapped posting; operand = round index.
    pub const MODE_OVERLAPPED: u64 = 1;
    /// Switched to vote-first zero-copy posting; operand = round index.
    pub const MODE_ZEROCOPY: u64 = 2;
    /// Grew the effective round size; operand = new fill permille.
    pub const GROW: u64 = 3;
    /// Shrank the effective round size; operand = new fill permille.
    pub const SHRINK: u64 = 4;
    /// Declared a destination hot; operand = destination rank.
    pub const HOT_TRIP: u64 = 5;
    /// Started the salted spread; operand = staged unique KVs.
    pub const SALTED_FLUSH: u64 = 6;
    /// Started the owner merge; operand = relayed unique KVs.
    pub const MERGE_FLUSH: u64 = 7;
    /// The jumbo floor overrode a shrunken round size; operand = the
    /// largest KV seen.
    pub const JUMBO_FLOOR: u64 = 8;
}

/// Counters describing what the adaptive controller did during one
/// shuffle: the report's adapt section, counted into directly.
pub use mimir_obs::AdaptCounters as AdaptStats;

/// The per-job tuning state machine. Deterministic: fed identical
/// tallies (which the ballot allreduce guarantees), every rank's
/// controller steps through identical states.
pub struct AdaptController {
    policy: AdaptPolicy,
    /// Current posting order: true = post-before-vote (overlapped).
    overlap: bool,
    /// Current effective round-size target, permille of partition
    /// capacity.
    fill_permille: u64,
    /// The tuning vote computed from the previous round's wait split.
    vote: BallotVote,
    overlap_streak: u32,
    zerocopy_streak: u32,
    grow_streak: u32,
    shrink_streak: u32,
    cooldown: u32,
    /// Mode switches so far. Each switch doubles the streak the next
    /// one needs (capped at 8× the base hysteresis): a workload whose
    /// wait ratio hovers at a threshold otherwise flaps between modes
    /// all job long, paying the losing mode for half the rounds.
    mode_flips: u32,
}

impl AdaptController {
    /// A controller starting from the static defaults: vote-first
    /// zero-copy posting at full round size.
    pub fn new(policy: AdaptPolicy) -> Self {
        Self {
            policy,
            overlap: false,
            fill_permille: 1000,
            vote: BallotVote::default(),
            overlap_streak: 0,
            zerocopy_streak: 0,
            grow_streak: 0,
            shrink_streak: 0,
            cooldown: 0,
            mode_flips: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &AdaptPolicy {
        &self.policy
    }

    /// Whether rounds currently post sends before the done-vote.
    pub fn overlap(&self) -> bool {
        self.overlap
    }

    /// The current effective round-size target, permille of partition
    /// capacity.
    pub fn fill_permille(&self) -> u64 {
        self.fill_permille
    }

    /// Digests the round that just finished into the next round's vote.
    /// Rounds whose total wait is under the signal floor vote neutral.
    pub fn observe_round(&mut self, sync_wait_ns: u64, data_wait_ns: u64) {
        self.vote.prefer_overlap = false;
        self.vote.prefer_zerocopy = false;
        self.vote.grow = false;
        self.vote.shrink = false;
        let total = sync_wait_ns + data_wait_ns;
        if !self.policy.mode_tuning || total < self.policy.min_signal_ns {
            return;
        }
        let data_share = data_wait_ns.saturating_mul(1000) / total;
        if data_share < self.policy.sync_bound_permille {
            // The vote dominated the round: hide it behind the copy-out
            // and amortize it over bigger rounds.
            self.vote.prefer_overlap = true;
            self.vote.grow = true;
        } else if data_share > self.policy.data_bound_permille {
            // Byte movement dominated: vote first so a straggler's
            // copy-out pipelines against peers' receives, and smooth the
            // pipeline with smaller rounds.
            self.vote.prefer_zerocopy = true;
            self.vote.shrink = true;
        }
    }

    /// This rank's ballot for the upcoming round.
    pub fn vote(&self, done: bool, hot_pending: bool) -> BallotVote {
        BallotVote {
            done,
            hot_pending,
            ..self.vote
        }
    }

    /// Steps the state machine on the world tally. At most one decision
    /// per round, gated by hysteresis and cooldown; applied decisions
    /// are recorded in `stats` and emitted as
    /// [`EventKind::AdaptDecision`] events.
    pub fn apply(&mut self, tally: &BallotTally, world: u64, round: u64, stats: &mut AdaptStats) {
        if !self.policy.mode_tuning {
            return;
        }
        let majority = |n: u64| 2 * n > world;
        fn streak(s: &mut u32, agree: bool) {
            *s = if agree { *s + 1 } else { 0 };
        }
        streak(&mut self.overlap_streak, majority(tally.prefer_overlap));
        streak(&mut self.zerocopy_streak, majority(tally.prefer_zerocopy));
        streak(&mut self.grow_streak, majority(tally.grow));
        streak(&mut self.shrink_streak, majority(tally.shrink));
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return;
        }
        let h = self.policy.hysteresis_rounds;
        // Anti-flap backoff: the first switch applies after the base
        // hysteresis (fast convergence), but every switch doubles the
        // evidence the next one needs, so a wait ratio hovering at a
        // threshold settles instead of toggling all job long.
        let mode_h = h.saturating_mul(1 << self.mode_flips.min(3));
        if !self.overlap && self.overlap_streak >= mode_h {
            self.overlap = true;
            stats.mode_switches += 1;
            self.mode_flips += 1;
            mimir_obs::emit(EventKind::AdaptDecision, decision::MODE_OVERLAPPED, round);
            self.decided(round, stats);
        } else if self.overlap && self.zerocopy_streak >= mode_h {
            self.overlap = false;
            stats.mode_switches += 1;
            self.mode_flips += 1;
            mimir_obs::emit(EventKind::AdaptDecision, decision::MODE_ZEROCOPY, round);
            self.decided(round, stats);
        } else if self.grow_streak >= h && self.fill_permille < 1000 {
            self.fill_permille = (self.fill_permille + self.policy.fill_step_permille).min(1000);
            stats.grow_steps += 1;
            mimir_obs::emit(EventKind::AdaptDecision, decision::GROW, self.fill_permille);
            self.decided_size(round, stats);
        } else if self.shrink_streak >= h && self.fill_permille > self.policy.min_fill_permille {
            self.fill_permille = self
                .fill_permille
                .saturating_sub(self.policy.fill_step_permille)
                .max(self.policy.min_fill_permille);
            stats.shrink_steps += 1;
            mimir_obs::emit(
                EventKind::AdaptDecision,
                decision::SHRINK,
                self.fill_permille,
            );
            self.decided_size(round, stats);
        }
    }

    /// A mode switch changes the posting regime entirely, so every
    /// streak restarts from the new regime's evidence.
    fn decided(&mut self, round: u64, stats: &mut AdaptStats) {
        self.decided_size(round, stats);
        self.overlap_streak = 0;
        self.zerocopy_streak = 0;
    }

    /// A size step keeps the mode streaks alive: under switch backoff a
    /// mode flip needs more consecutive ballots than a size step, and
    /// resetting its streak here would let size steps starve the flip
    /// forever.
    fn decided_size(&mut self, round: u64, stats: &mut AdaptStats) {
        stats.converged_round = round;
        self.cooldown = self.policy.cooldown_rounds;
        self.grow_streak = 0;
        self.shrink_streak = 0;
    }

    /// Records the converged state into the stats at job end.
    pub fn finalize(&self, stats: &mut AdaptStats) {
        stats.final_fill_permille = self.fill_permille;
        stats.final_overlap = u64::from(self.overlap);
    }
}

/// Bytes of frame header on the hot-flush wire: a `u32` KV length plus a
/// `u64` duplicate count.
pub const FRAME_HDR: usize = 12;

/// Writes one `(kv, count)` frame into the front of `out` (which must
/// hold at least `FRAME_HDR + kv.len()` bytes); returns bytes written.
pub fn write_frame(out: &mut [u8], kv: &[u8], count: u64) -> usize {
    out[0..4].copy_from_slice(&(kv.len() as u32).to_le_bytes());
    out[4..12].copy_from_slice(&count.to_le_bytes());
    out[FRAME_HDR..FRAME_HDR + kv.len()].copy_from_slice(kv);
    FRAME_HDR + kv.len()
}

/// Iterator over the `(kv, count)` frames of a hot-flush buffer.
pub struct FrameDecoder<'a> {
    buf: &'a [u8],
}

impl<'a> FrameDecoder<'a> {
    /// Decodes `buf`, which must hold zero or more whole frames.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }
}

impl<'a> Iterator for FrameDecoder<'a> {
    type Item = (&'a [u8], u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.buf.is_empty() {
            return None;
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().expect("frame length")) as usize;
        let count = u64::from_le_bytes(self.buf[4..12].try_into().expect("frame count"));
        let kv = &self.buf[FRAME_HDR..FRAME_HDR + len];
        self.buf = &self.buf[FRAME_HDR + len..];
        Some((kv, count))
    }
}

const HOT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The salted spread destination of a staged KV: a splitmix-finalized
/// salted hash mapped by [`fast_range`]. A pure function of the KV
/// bytes, so identical KVs from different senders meet at one relay (and
/// their counts merge there), yet decorrelated from the real
/// partitioner, so even a point-mass partitioner spreads over all ranks.
pub fn salted_dest(kv_hash: u64, n_ranks: usize) -> usize {
    let mut x = kv_hash ^ HOT_SALT;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    fast_range(x, n_ranks)
}

/// A count-collapsing store of encoded KVs: the hot-key stage on the
/// sender side and the merge relay on the receiver side. Keys are the
/// *full encoded KV bytes* interned through a [`GroupIndex`] (so the
/// pool is charged page by page), values are duplicate counts.
pub struct HotStore {
    index: GroupIndex,
    counts: Vec<u64>,
    bytes: usize,
    /// Intern cap in bytes; 0 = uncapped (the relay role).
    cap: usize,
    /// Last staged `(hash, id)`: a destination only trips hot because a
    /// few keys dominate it, so consecutive staged emits overwhelmingly
    /// repeat one KV — this one-entry MRU turns the common bump into a
    /// 16-byte compare on L1-hot lines instead of an index probe.
    last: Option<(u64, u32)>,
}

impl HotStore {
    /// An empty store charging its arena to `pool`. `cap` bounds the
    /// interned bytes (0 = unbounded).
    ///
    /// # Errors
    /// Pool exhaustion.
    pub fn new(pool: &MemPool, cap: usize) -> Result<Self> {
        Ok(Self {
            index: GroupIndex::new(pool)?,
            counts: Vec::new(),
            bytes: 0,
            cap,
            last: None,
        })
    }

    /// Stages one encoded KV whose `fxhash64` is `kv_hash`. Returns the
    /// interned id when the KV was absorbed — an already-present KV
    /// always count-bumps (no memory), a new KV interns only while under
    /// the cap — or `None` when full, so the caller ships it directly.
    /// The id stays valid for the store's lifetime; [`Self::bump`] with
    /// it collapses later duplicates without re-hashing.
    ///
    /// # Errors
    /// Pool exhaustion while interning.
    pub fn stage(&mut self, kv_hash: u64, kv: &[u8]) -> Result<Option<u32>> {
        if let Some((h, id)) = self.last {
            if h == kv_hash && self.index.key(id) == kv {
                self.counts[id as usize] += 1;
                return Ok(Some(id));
            }
        }
        if self.cap != 0 && self.bytes + kv.len() > self.cap {
            // Full: only existing KVs may still collapse.
            match self.index.get(kv) {
                Some(id) => {
                    self.counts[id as usize] += 1;
                    self.last = Some((kv_hash, id));
                    Ok(Some(id))
                }
                None => Ok(None),
            }
        } else {
            let (id, is_new) = self.index.insert_hashed(kv_hash, kv)?;
            if is_new {
                self.counts.push(1);
                self.bytes += kv.len();
            } else {
                self.counts[id as usize] += 1;
            }
            self.last = Some((kv_hash, id));
            Ok(Some(id))
        }
    }

    /// Count-bumps a previously staged KV by id — the fast path for a
    /// caller-side MRU that recognized an exact repeat from the raw
    /// bytes, skipping the encode, the hash, and the index probe.
    pub fn bump(&mut self, id: u32) {
        self.counts[id as usize] += 1;
    }

    /// Merges one relayed `(kv, count)` frame in; counts of identical
    /// KVs arriving from different senders add.
    ///
    /// # Errors
    /// Pool exhaustion while interning.
    pub fn absorb(&mut self, kv: &[u8], count: u64) -> Result<()> {
        let (id, is_new) = self.index.insert(kv)?;
        if is_new {
            self.counts.push(count);
            self.bytes += kv.len();
        } else {
            self.counts[id as usize] += count;
        }
        Ok(())
    }

    /// Distinct KVs held.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The `id`-th distinct KV's encoded bytes (ids are dense,
    /// first-occurrence ordered).
    pub fn kv(&self, id: u32) -> &[u8] {
        self.index.key(id)
    }

    /// The `id`-th distinct KV's `fxhash64` (stored at intern time, so
    /// salted routing needs no re-hash).
    pub fn hash_of(&self, id: u32) -> u64 {
        self.index.hash_of(id)
    }

    /// The `id`-th distinct KV's duplicate count.
    pub fn count(&self, id: u32) -> u64 {
        self.counts[id as usize]
    }

    /// Interned KV bytes held.
    pub fn staged_bytes(&self) -> usize {
        self.bytes
    }

    /// Total staged emits and the encoded bytes they stand for —
    /// `Σ count(id)` and `Σ count(id) · kv(id).len()`. The per-emit
    /// staging paths defer this accounting to flush time so a count bump
    /// stays a single add.
    pub fn staged_totals(&self) -> (u64, u64) {
        let mut kvs = 0u64;
        let mut bytes = 0u64;
        for id in 0..self.len() as u32 {
            let c = self.count(id);
            kvs += c;
            bytes += c * self.kv(id).len() as u64;
        }
        (kvs, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fxhash64;

    fn sync_bound_tally(world: u64) -> BallotTally {
        BallotTally {
            done: 0,
            prefer_overlap: world,
            prefer_zerocopy: 0,
            grow: world,
            shrink: 0,
            hot_pending: 0,
        }
    }

    fn data_bound_tally(world: u64) -> BallotTally {
        BallotTally {
            done: 0,
            prefer_overlap: 0,
            prefer_zerocopy: world,
            grow: 0,
            shrink: world,
            hot_pending: 0,
        }
    }

    #[test]
    fn sync_bound_rounds_vote_overlap_and_grow() {
        let mut c = AdaptController::new(AdaptPolicy::default());
        c.observe_round(1_000_000, 0);
        let v = c.vote(false, false);
        assert!(v.prefer_overlap && v.grow);
        assert!(!v.prefer_zerocopy && !v.shrink);
        c.observe_round(0, 1_000_000);
        let v = c.vote(true, true);
        assert!(v.prefer_zerocopy && v.shrink && v.done && v.hot_pending);
        assert!(!v.prefer_overlap && !v.grow);
    }

    #[test]
    fn below_signal_floor_votes_neutral() {
        let mut c = AdaptController::new(AdaptPolicy::default());
        c.observe_round(100, 50); // 150 ns total, under min_signal_ns
        let v = c.vote(false, false);
        assert!(!v.prefer_overlap && !v.prefer_zerocopy && !v.grow && !v.shrink);
    }

    #[test]
    fn hysteresis_converges_and_cooldown_prevents_flapping() {
        let policy = AdaptPolicy::default();
        let mut c = AdaptController::new(policy);
        let mut stats = AdaptStats::default();
        // Two agreeing ballots are not enough at hysteresis 3.
        for round in 0..2 {
            c.apply(&sync_bound_tally(4), 4, round, &mut stats);
        }
        assert!(!c.overlap());
        // The third converges.
        c.apply(&sync_bound_tally(4), 4, 2, &mut stats);
        assert!(c.overlap(), "three agreeing ballots switch the mode");
        assert_eq!(stats.mode_switches, 1);
        assert_eq!(stats.converged_round, 2);
        // An immediate reversal cannot apply during the cooldown even
        // with a full streak.
        for round in 3..3 + policy.cooldown_rounds as u64 {
            c.apply(&data_bound_tally(4), 4, round, &mut stats);
        }
        assert!(c.overlap(), "cooldown holds the decision");
        // One switch already happened, so flipping back needs a doubled
        // streak (anti-flap backoff). At streak 5 the mode holds; the
        // data-bound ballots' shrink vote (plain hysteresis) applies
        // instead — and must not reset the building mode streak.
        c.apply(&data_bound_tally(4), 4, 7, &mut stats);
        assert!(c.overlap(), "backoff doubles the reversal hysteresis");
        assert_eq!(stats.shrink_steps, 1);
        // The shrink's cooldown holds rounds 8-11 while the zero-copy
        // streak keeps building; once it clears, the accumulated streak
        // (≥6) flips the mode back.
        for round in 8..12 {
            c.apply(&data_bound_tally(4), 4, round, &mut stats);
            assert!(c.overlap(), "cooldown holds during round {round}");
        }
        c.apply(&data_bound_tally(4), 4, 12, &mut stats);
        assert!(!c.overlap(), "doubled streak satisfied after cooldown");
        assert_eq!(stats.mode_switches, 2);
    }

    #[test]
    fn alternating_ballots_never_decide() {
        let mut c = AdaptController::new(AdaptPolicy::default());
        let mut stats = AdaptStats::default();
        for round in 0..40 {
            let t = if round % 2 == 0 {
                sync_bound_tally(4)
            } else {
                data_bound_tally(4)
            };
            c.apply(&t, 4, round, &mut stats);
        }
        assert_eq!(stats.mode_switches, 0, "streaks reset on disagreement");
        assert_eq!(stats.grow_steps + stats.shrink_steps, 0);
        assert_eq!(c.fill_permille(), 1000);
    }

    #[test]
    fn shrink_respects_the_policy_floor() {
        let policy = AdaptPolicy {
            hysteresis_rounds: 1,
            cooldown_rounds: 0,
            ..AdaptPolicy::default()
        };
        let mut c = AdaptController::new(policy);
        let mut stats = AdaptStats::default();
        // Force shrink decisions only: already in zero-copy, so the mode
        // arm never fires and every ballot shrinks one step.
        for round in 0..20 {
            c.apply(&data_bound_tally(4), 4, round, &mut stats);
        }
        assert_eq!(c.fill_permille(), policy.min_fill_permille);
        assert_eq!(stats.shrink_steps, 3, "1000 → 750 → 500 → 250");
        c.finalize(&mut stats);
        assert_eq!(stats.final_fill_permille, policy.min_fill_permille);
        assert_eq!(stats.final_overlap, 0);
    }

    #[test]
    fn minority_votes_do_not_move_the_controller() {
        let mut c = AdaptController::new(AdaptPolicy {
            hysteresis_rounds: 1,
            cooldown_rounds: 0,
            ..AdaptPolicy::default()
        });
        let mut stats = AdaptStats::default();
        let half = BallotTally {
            prefer_overlap: 2, // exactly half of 4: not a majority
            grow: 2,
            ..BallotTally::default()
        };
        for round in 0..10 {
            c.apply(&half, 4, round, &mut stats);
        }
        assert!(!c.overlap());
        assert_eq!(stats.mode_switches + stats.grow_steps, 0);
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = vec![0u8; 64];
        let n1 = write_frame(&mut buf, b"alpha", 7);
        let n2 = write_frame(&mut buf[n1..], b"", 1);
        let n3 = write_frame(&mut buf[n1 + n2..], b"key-value-bytes", u64::MAX);
        let frames: Vec<(Vec<u8>, u64)> = FrameDecoder::new(&buf[..n1 + n2 + n3])
            .map(|(kv, c)| (kv.to_vec(), c))
            .collect();
        assert_eq!(
            frames,
            vec![
                (b"alpha".to_vec(), 7),
                (Vec::new(), 1),
                (b"key-value-bytes".to_vec(), u64::MAX),
            ]
        );
    }

    #[test]
    fn hot_store_collapses_duplicates_and_caps_new_keys() {
        let pool = MemPool::unlimited("t", 4096);
        let mut s = HotStore::new(&pool, 8).unwrap();
        let kv = b"dup-kv";
        assert_eq!(s.stage(fxhash64(kv), kv).unwrap(), Some(0));
        for _ in 0..99 {
            assert!(
                s.stage(fxhash64(kv), kv).unwrap().is_some(),
                "duplicates collapse"
            );
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.count(0), 100);
        assert_eq!(s.staged_bytes(), kv.len());
        // 6 + 7 > 8: a new distinct KV no longer fits …
        let other = b"other!!";
        assert!(s.stage(fxhash64(other), other).unwrap().is_none());
        // … but the existing one still collapses, by probe or by id.
        assert!(s.stage(fxhash64(kv), kv).unwrap().is_some());
        s.bump(0);
        assert_eq!(s.count(0), 102);
    }

    #[test]
    fn relay_merges_counts_from_many_senders() {
        let pool = MemPool::unlimited("t", 4096);
        let mut relay = HotStore::new(&pool, 0).unwrap();
        relay.absorb(b"shared", 10).unwrap();
        relay.absorb(b"mine", 1).unwrap();
        relay.absorb(b"shared", 32).unwrap();
        assert_eq!(relay.len(), 2);
        assert_eq!(relay.count(0), 42, "counts add associatively");
        assert_eq!(relay.kv(1), b"mine");
    }

    #[test]
    fn salted_dest_spreads_and_stays_deterministic() {
        let p = 8;
        let mut hit = vec![false; p];
        for i in 0..256u64 {
            let h = fxhash64(&i.to_le_bytes());
            let d = salted_dest(h, p);
            assert!(d < p);
            assert_eq!(d, salted_dest(h, p), "pure function of the hash");
            hit[d] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys cover all 8 ranks");
    }
}
