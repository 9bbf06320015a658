//! Top-k string similarity joins (§4.1 of the paper).
//!
//! Given two collections of token-rank records, find the `k` cross-table
//! pairs with the highest set-similarity score **that are not in the
//! blocker output `C`** — without a threshold, in a branch-and-bound
//! fashion:
//!
//! * every record exposes a *prefix* that is extended one token at a time;
//! * extending record `w` to 1-indexed position `p` caps any newly
//!   discovered pair at `ubound(|w|, p)` (see
//!   [`mc_strsim::measures::SetMeasure::prefix_ubound`]);
//! * a max-heap of per-record caps drives extension order ("extend the
//!   prefix whose next token has the highest cap");
//! * the join stops when the best remaining cap cannot beat the current
//!   k-th score.
//!
//! **TopKJoin** \[34\] scores a pair the moment its prefixes first
//! intersect. The paper's **QJoin** defers scoring until a pair has
//! accumulated `q` common prefix tokens — score computation is the
//! dominant cost for long strings, and pairs sharing few tokens rarely
//! reach the top-k. `q = 1` reproduces TopKJoin exactly; `q > 1`
//! intentionally never scores pairs with fewer than `q` common tokens (a
//! documented approximation). To keep early termination admissible for
//! scored pairs, bounds carry a `q − 1` token *credit* for
//! discovered-but-unscored pairs.
//!
//! ## Data layout
//!
//! Records live in a flat [`RecordArena`] (one contiguous token buffer +
//! offsets) and tokens are dense dictionary ranks, so the inverted index
//! is a **`Vec`-indexed postings array** rather than a hash map. Each
//! posting is `(record, copies, first)`: the number of copies of its
//! token the posting record's prefix holds, and the record position of
//! the first copy. Together with a per-record *current-token run
//! counter* this removes the two per-event `partition_point` binary
//! searches the occurrence check used to need: a record's own occurrence
//! count is maintained incrementally as its prefix extends, and a
//! partner's count is read straight off its posting. All per-join state
//! (positions, run counters, postings, pair states, the event heap)
//! lives in a reusable [`JoinScratch`] so that consecutive joins on one
//! worker allocate nothing in steady state.
//!
//! ## Positional verification
//!
//! Most scoring attempts are refutations, and each used to merge both
//! records from token 0 — re-walking the prefixes whose overlap the
//! event loop had just counted. When an incidence on the `occ`-th copy of
//! token `tok` (record position `p`) brings a pair to `q` common tokens:
//!
//! * the event record's prefix is `rec[..=p]` and ends at that copy;
//! * the partner's prefix holds every token below `tok` and at least
//!   `occ` copies of it, so cutting it after its `occ`-th copy, at
//!   `first + occ`, leaves the same `tok` count on both sides;
//! * every incidence is counted exactly once, so `q` is the exact
//!   multiset overlap of the two cut prefixes.
//!
//! Both prefixes hold only tokens `≤ tok` and both suffixes only tokens
//! `≥ tok`, so `|ra ∩ rb| = q + |ra[ia..] ∩ rb[ib..]|` (see
//! [`Split`]): the scorer merges only the suffixes, against the required
//! overlap minus `q`, and scores `from_overlap(q + o, |ra|, |rb|)` — the
//! same value and the same Scored/Refuted outcome as a whole-record
//! merge. When `q + min(suffix lengths)` already misses the required
//! overlap, the length filter refutes with no merge work (PPJoin's
//! positional filter). `mc.core.ssj.verify_tokens` counts the suffix
//! tokens handed to the merge. The scorer-fed token count [`select_q`]
//! charges stays `|ra| + |rb|` per attempt: it is a cost model, and
//! changing it would change the chosen `q` and with it the outputs.

use mc_strsim::arena::RecordArena;
use mc_strsim::measures::{SetMeasure, Split};
use mc_table::hash::{fx_map, hash_u64, FxHashMap};
use mc_table::{pair_key, split_pair_key, PairSet, TupleId};
use parking_lot::RwLock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A totally ordered f64 wrapper (scores are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score(pub f64);

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A bounded top-k list of `(score, pair)` entries.
///
/// Maintains the k highest-scoring pairs seen so far; the *threshold* is
/// the k-th best score once full (0 before), the join's pruning bar.
///
/// The kept set is **canonical**: entries are totally ordered by
/// `(score descending, pair key ascending)` — the same tie-break
/// [`select_q`] uses — and the list always holds the top k of everything
/// ever offered under that order, regardless of offer order. This is
/// what makes sharded joins mergeable bit-identically: each shard's list
/// and the merged list are pure functions of the offered pair sets, not
/// of event interleaving (see [`topk_join_sharded`]).
#[derive(Debug, Clone)]
pub struct TopKList {
    k: usize,
    /// Min-heap whose root is the *worst* entry under the canonical
    /// order: lowest score, and among equal scores the largest pair key
    /// (hence the inner `Reverse`). Eviction therefore removes the
    /// canonical minimum, independent of arrival order.
    heap: BinaryHeap<Reverse<(Score, Reverse<u64>)>>,
}

impl TopKList {
    /// An empty list with capacity `k`.
    pub fn new(k: usize) -> Self {
        TopKList::with_capacity_hint(k, 0)
    }

    /// An empty list with capacity `k`, pre-sized to hold at least
    /// `hint` entries up front (e.g. a seed list) so early inserts never
    /// reallocate.
    pub fn with_capacity_hint(k: usize, hint: usize) -> Self {
        assert!(k > 0, "k must be positive");
        // Pre-allocation is capped: callers may pass an effectively
        // unbounded k (e.g. brute-force references), and the heap grows
        // on demand anyway. The list never holds more than k entries, so
        // a hint beyond k is clamped.
        TopKList {
            k,
            heap: BinaryHeap::with_capacity(k.min(1 << 16).max(hint.min(k)) + 1),
        }
    }

    /// The capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no entries are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current pruning threshold: the k-th best score when full,
    /// otherwise 0.
    pub fn threshold(&self) -> f64 {
        if self.heap.len() == self.k {
            self.heap.peek().map_or(0.0, |Reverse((s, _))| s.0)
        } else {
            0.0
        }
    }

    /// The scorer gate: an offer can enter the list **iff** its score is
    /// strictly above this value. One ulp below [`TopKList::threshold`]
    /// once full, because a score exactly equal to the k-th best can
    /// still displace a larger pair key under the canonical tie-break —
    /// so `score > gate() ⟺ score ≥ threshold()`, and refuting at the
    /// gate never drops a tie the canonical order would have kept.
    pub fn gate(&self) -> f64 {
        if self.heap.len() == self.k {
            f64::next_down(self.threshold())
        } else {
            0.0
        }
    }

    /// Offers an entry; keeps it only if it canonically beats the worst
    /// held entry (or the list is not yet full). Scores ≤ 0 are never
    /// kept. At equal scores the smaller pair key wins, so the kept set
    /// never depends on offer order.
    pub fn insert(&mut self, score: f64, pair: u64) {
        if score <= 0.0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Reverse((Score(score), Reverse(pair))));
        } else if let Some(&Reverse((worst, Reverse(worst_pair)))) = self.heap.peek() {
            if score > worst.0 || (score == worst.0 && pair < worst_pair) {
                self.heap.pop();
                self.heap.push(Reverse((Score(score), Reverse(pair))));
            }
        }
    }

    /// Merges another list into this one (used when a child config adopts
    /// its parent's re-scored list, §4.2).
    pub fn merge(&mut self, other: &TopKList) {
        for &Reverse((s, Reverse(p))) in other.heap.iter() {
            self.insert(s.0, p);
        }
    }

    /// Entries sorted by descending score (ties by ascending pair key, so
    /// output order is deterministic).
    pub fn sorted_entries(&self) -> Vec<(f64, u64)> {
        let mut v: Vec<(f64, u64)> = self
            .heap
            .iter()
            .map(|Reverse((s, Reverse(p)))| (s.0, *p))
            .collect();
        v.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        v
    }

    /// The scores only, descending.
    pub fn sorted_scores(&self) -> Vec<f64> {
        self.sorted_entries().into_iter().map(|(s, _)| s).collect()
    }
}

/// Parameters of a single top-k join.
#[derive(Debug, Clone, Copy)]
pub struct SsjParams {
    /// Number of pairs to retrieve.
    pub k: usize,
    /// Minimum common prefix tokens before a pair is scored. `1` =
    /// TopKJoin; the paper's QJoin selects `q` empirically (see
    /// [`select_q`]).
    pub q: usize,
    /// Similarity measure (Theorem 4.2: Jaccard, cosine, Dice, overlap).
    pub measure: SetMeasure,
}

impl Default for SsjParams {
    fn default() -> Self {
        SsjParams {
            k: 1000,
            q: 1,
            measure: SetMeasure::Jaccard,
        }
    }
}

/// The input of a join: both tables' records in flat arenas (sorted rank
/// slices) and the blocker output to exclude.
#[derive(Clone, Copy)]
pub struct SsjInstance<'a> {
    /// Records of table A (sorted rank slices in a flat arena).
    pub records_a: &'a RecordArena,
    /// Records of table B.
    pub records_b: &'a RecordArena,
    /// The blocker output `C`: pairs to exclude from the top-k list.
    pub killed: &'a PairSet,
}

/// How a threshold-gated scoring attempt resolved (see
/// [`PairScorer::score_above`]).
///
/// The split matters for the work counters: `Scored` is a completed full
/// merge (`mc.core.ssj.scored`), `Cached` reused a previously computed
/// value without a fresh merge, `Refuted` aborted the merge once the
/// score provably could not beat the gate (`mc.core.ssj.merge_aborts`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreOutcome {
    /// A full merge completed; the score is exact.
    Scored(f64),
    /// The exact score was obtained without a fresh merge (a
    /// [`ScoreCache`] hit).
    Cached(f64),
    /// The merge aborted: the score is provably `≤` the gate. A refuted
    /// pair can never enter the top-k list, so no score is produced.
    Refuted,
}

impl ScoreOutcome {
    /// The score, if one was produced.
    #[inline]
    pub fn value(self) -> Option<f64> {
        match self {
            ScoreOutcome::Scored(s) | ScoreOutcome::Cached(s) => Some(s),
            ScoreOutcome::Refuted => None,
        }
    }
}

/// Scores a pair given both records. Every join loop verifies through
/// this one trait, so callers choose how scores are produced (plain
/// merge, score cache in front) without touching the loops.
///
/// Deliberately **not** `Sync`: every scorer is created and consumed on
/// a single worker thread, which lets implementations keep cheap
/// `Cell`-based statistics and `RefCell` scratch buffers instead of
/// atomics.
pub trait PairScorer {
    /// Similarity score of `(a, b)`.
    fn score(&self, a: TupleId, b: TupleId, ra: &[u32], rb: &[u32]) -> f64;

    /// Threshold-gated scoring: produces the exact score only when it is
    /// strictly above `gate` (the caller's top-k threshold), and may
    /// abort early — returning [`ScoreOutcome::Refuted`] — as soon as the
    /// score provably cannot beat it. Any score returned must be
    /// **bit-identical** to what [`PairScorer::score`] would produce, so
    /// gating never changes the resulting top-k list.
    ///
    /// `split` is where the join loop's prefixes met (see [`Split`]):
    /// `split.common` tokens of `ra[..split.ia]` and `rb[..split.ib]`
    /// are already counted, so only the suffixes need merging.
    /// [`Split::WHOLE`] verifies the whole records. The split must never
    /// change the outcome or the score.
    ///
    /// The default falls back to ungated whole-record scoring.
    #[inline]
    fn score_above(
        &self,
        a: TupleId,
        b: TupleId,
        ra: &[u32],
        rb: &[u32],
        split: Split,
        gate: f64,
    ) -> ScoreOutcome {
        let _ = (split, gate);
        ScoreOutcome::Scored(self.score(a, b, ra, rb))
    }
}

/// The default scorer: exact multiset similarity of the merged records.
pub struct ExactScorer(pub SetMeasure);

impl PairScorer for ExactScorer {
    #[inline]
    fn score(&self, _a: TupleId, _b: TupleId, ra: &[u32], rb: &[u32]) -> f64 {
        self.0.score(ra, rb)
    }

    #[inline]
    fn score_above(
        &self,
        _a: TupleId,
        _b: TupleId,
        ra: &[u32],
        rb: &[u32],
        split: Split,
        gate: f64,
    ) -> ScoreOutcome {
        match self.0.score_above(ra, rb, split, gate) {
            Some(s) => ScoreOutcome::Scored(s),
            None => ScoreOutcome::Refuted,
        }
    }
}

const CACHE_SHARDS: usize = 16;

/// A concurrent, insert-only pair → score cache shared by the `q`
/// preludes of [`select_q_cached`] and the winning `q`'s main run.
///
/// Set-measure scores are q-independent, so every pair a prelude scores
/// is a pair the main run would otherwise score again from scratch. The
/// preludes **insert only** — they never read the cache — so each
/// prelude's own work counters stay deterministic regardless of how the
/// prelude threads interleave; because scores are pure functions of the
/// pair, the cache's final contents after all preludes join are the
/// deterministic union of every prelude's scored pairs.
pub struct ScoreCache {
    shards: Vec<RwLock<FxHashMap<u64, f64>>>,
    hits: AtomicU64,
}

impl Default for ScoreCache {
    fn default() -> Self {
        ScoreCache::new()
    }
}

impl ScoreCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScoreCache {
            shards: (0..CACHE_SHARDS).map(|_| RwLock::new(fx_map())).collect(),
            hits: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &RwLock<FxHashMap<u64, f64>> {
        &self.shards[(hash_u64(key) >> 60) as usize % CACHE_SHARDS]
    }

    /// The cached score of a pair, if present. Hits are counted here
    /// (per instance and as `mc.core.ssj.cache_hits`).
    pub fn get(&self, key: u64) -> Option<f64> {
        let out = self.shard(key).read().get(&key).copied();
        if out.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mc_obs::counter!("mc.core.ssj.cache_hits").inc();
        }
        out
    }

    /// Records a pair's score (first writer wins; idempotent — scores
    /// are pure, so every writer holds the same value).
    pub fn insert(&self, key: u64, score: f64) {
        self.shard(key).write().entry(key).or_insert(score);
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total cached pairs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if nothing was cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The prelude scorer of [`select_q_cached`]: exact scoring that
/// **populates** a [`ScoreCache`] as a side effect.
///
/// Deliberately write-only (see [`ScoreCache`]): consulting the cache
/// from racing preludes would make each prelude's `scored` counter
/// depend on thread interleaving, and the q-selection cost model must
/// stay machine-independent.
pub struct CachedExactScorer<'a> {
    /// The similarity measure.
    pub measure: SetMeasure,
    /// The cache to populate.
    pub cache: &'a ScoreCache,
}

impl PairScorer for CachedExactScorer<'_> {
    #[inline]
    fn score(&self, a: TupleId, b: TupleId, ra: &[u32], rb: &[u32]) -> f64 {
        let s = self.measure.score(ra, rb);
        self.cache.insert(pair_key(a, b), s);
        s
    }

    #[inline]
    fn score_above(
        &self,
        a: TupleId,
        b: TupleId,
        ra: &[u32],
        rb: &[u32],
        split: Split,
        gate: f64,
    ) -> ScoreOutcome {
        match self.measure.score_above(ra, rb, split, gate) {
            Some(s) => {
                self.cache.insert(pair_key(a, b), s);
                ScoreOutcome::Scored(s)
            }
            None => ScoreOutcome::Refuted,
        }
    }
}

/// Prefix bound with a token *credit* for QJoin's deferred pairs: an
/// unscored pair may already hold up to `credit = q − 1` common tokens,
/// so its achievable overlap is `min(la, rem + credit)`.
#[inline]
fn bound_with_credit(measure: SetMeasure, la: usize, p: usize, credit: usize) -> f64 {
    if credit == 0 {
        return measure.prefix_ubound(la, p, 1);
    }
    let rem = (la - p + 1 + credit).min(la) as f64;
    let la_f = la as f64;
    match measure {
        SetMeasure::Jaccard => rem / la_f,
        SetMeasure::Cosine => (rem / la_f).sqrt(),
        SetMeasure::Dice => 2.0 * rem / (la_f + rem),
        SetMeasure::Overlap => 1.0,
    }
}

/// The [`Split`] of a pair whose prefixes just met at its `q`-th common
/// token: the record on `side` (0 = A) processed that token and its
/// suffix starts at `own`; the partner's starts at `theirs`.
#[inline]
fn meet_split(side: usize, own: usize, theirs: usize, q: usize) -> Split {
    let (ia, ib) = if side == 0 {
        (own, theirs)
    } else {
        (theirs, own)
    };
    Split { ia, ib, common: q }
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Event {
    bound: Score,
    side: u8,
    rec: TupleId,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .cmp(&other.bound)
            .then_with(|| other.side.cmp(&self.side))
            .then_with(|| other.rec.cmp(&self.rec))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default, Clone, Copy)]
struct PairState {
    common: u32,
    scored: bool,
}

/// Largest `|A| × |B|` for which the pair-state table is stored densely
/// (one generation-stamped slot per pair, ~64 MiB of `u64`s at the cap)
/// instead of as a hash map. The dense table turns the per-incidence
/// state probe — the hottest operation of the event loop — into a single
/// indexed load with no hashing.
const DENSE_STATES_MAX: usize = 1 << 23;

/// Dense-slot layout: bits 63–32 hold the scratch generation (0 = never
/// touched), bit 31 the scored flag, bits 30–0 the common-token count.
const SCORED_BIT: u64 = 1 << 31;
const COMMON_MASK: u64 = SCORED_BIT - 1;

/// Scored flag of [`topk_semi_join`]'s per-probe-record pair states
/// (low bits hold the pair's common-token count).
const SEMI_SCORED: u32 = 1 << 31;

/// What a per-incidence state advance tells the event loop to do.
enum Step {
    /// The pair has fewer than `q` common tokens so far.
    Pending,
    /// This incidence is the pair's `q`-th common token: score it now.
    ReachedQ,
    /// The pair was already scored (or seeded); nothing to do.
    AlreadyScored,
}

/// The pair-state table behind the event loop: dense when the join's
/// `rows × |B|` fits the scratch's dense budget (default
/// [`DENSE_STATES_MAX`]), a hash map otherwise. `rows` is the A-side
/// *range* the join covers — a shard of a partitioned join sizes its
/// dense table by its own row range, so sharding retires the global
/// `|A| × |B|` cap: each shard only needs `(|A| / shards) × |B|` slots.
/// Generation stamps make dense reuse across joins O(1) — `prepare`
/// bumps the generation instead of clearing millions of slots.
enum StateTable<'s> {
    Dense {
        slots: &'s mut [u64],
        gen: u64,
        nb: usize,
        /// First A-record id of the covered range; dense rows are
        /// indexed relative to it.
        a_lo: TupleId,
        /// First B-record id of the covered range (`nb` counts records
        /// from here); dense columns are indexed relative to it.
        b_lo: TupleId,
    },
    Sparse {
        map: &'s mut FxHashMap<u64, PairState>,
    },
}

impl StateTable<'_> {
    /// Records one more common token for `(a, b)`; `discovered` is
    /// bumped on the pair's first incidence.
    #[inline]
    fn advance(&mut self, a: TupleId, b: TupleId, q: usize, discovered: &mut u64) -> Step {
        match self {
            StateTable::Dense {
                slots,
                gen,
                nb,
                a_lo,
                b_lo,
            } => {
                let slot = &mut slots[(a - *a_lo) as usize * *nb + (b - *b_lo) as usize];
                if (*slot >> 32) != *gen {
                    *discovered += 1;
                    *slot = *gen << 32;
                }
                if *slot & SCORED_BIT != 0 {
                    return Step::AlreadyScored;
                }
                let common = (*slot & COMMON_MASK) + 1;
                if common as usize >= q {
                    *slot = (*gen << 32) | SCORED_BIT | common;
                    Step::ReachedQ
                } else {
                    *slot = (*gen << 32) | common;
                    Step::Pending
                }
            }
            StateTable::Sparse { map } => {
                let st = match map.entry(pair_key(a, b)) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        *discovered += 1;
                        v.insert(PairState::default())
                    }
                };
                if st.scored {
                    return Step::AlreadyScored;
                }
                st.common += 1;
                if st.common as usize >= q {
                    st.scored = true;
                    Step::ReachedQ
                } else {
                    Step::Pending
                }
            }
        }
    }

    /// Marks a seeded pair as already scored so the loop never rescores
    /// it.
    #[inline]
    fn seed(&mut self, key: u64) {
        match self {
            StateTable::Dense {
                slots,
                gen,
                nb,
                a_lo,
                b_lo,
            } => {
                let (a, b) = split_pair_key(key);
                slots[(a - *a_lo) as usize * *nb + (b - *b_lo) as usize] =
                    (*gen << 32) | SCORED_BIT;
            }
            StateTable::Sparse { map } => {
                map.insert(
                    key,
                    PairState {
                        common: 0,
                        scored: true,
                    },
                );
            }
        }
    }
}

/// A dense (rank-indexed) inverted index over the records' prefixes.
///
/// `lists[rank]` holds `(record, copies, first)` postings: every record
/// whose prefix contains `rank`, the number of copies the prefix holds,
/// and the record position of its first copy (where a candidate's
/// suffix on this side starts, see [`Split`]). Reset clears only the
/// lists touched by the previous join.
#[derive(Default)]
struct DensePostings {
    lists: Vec<Vec<(TupleId, u32, u32)>>,
    touched: Vec<u32>,
}

impl DensePostings {
    fn reset(&mut self, rank_bound: usize) {
        for &t in &self.touched {
            self.lists[t as usize].clear();
        }
        self.touched.clear();
        if self.lists.len() < rank_bound {
            self.lists.resize_with(rank_bound, Vec::new);
        }
    }
}

/// Reusable per-worker state of [`topk_join_with_scratch`]: prefix
/// positions, run counters, postings, the pair-state table, and the
/// event heap. A worker that keeps one scratch across consecutive joins
/// (as the joint executor does per thread) allocates nothing in steady
/// state.
#[derive(Default)]
pub struct JoinScratch {
    /// Per-side prefix positions (next 0-indexed token to process).
    pos: [Vec<u32>; 2],
    /// Per-side current-token run counters: copies of the record's most
    /// recently processed token within its own prefix.
    run: [Vec<u32>; 2],
    /// Last token each record posted (sentinel `u32::MAX` = none), so a
    /// record's duplicated tokens share a single posting.
    last_posted: [Vec<u32>; 2],
    /// Index of each record's live posting within its last token's list.
    slot: [Vec<u32>; 2],
    /// Per-side dense inverted indexes.
    postings: [DensePostings; 2],
    /// Discovered pair states (hash fallback for huge `|A| × |B|`).
    states: FxHashMap<u64, PairState>,
    /// Dense pair-state slots (see [`StateTable`]), generation-stamped
    /// so reuse across joins never clears them.
    dense_states: Vec<u64>,
    /// Current dense generation; bumped by every `prepare`.
    dense_gen: u32,
    /// Whether the most recent `prepare` chose the dense table.
    dense: bool,
    /// The event max-heap.
    heap: BinaryHeap<Event>,
    /// Heap events processed by the most recent join on this scratch.
    events: u64,
    /// Total tokens fed to the scorer by the most recent join (the sum
    /// of whole-record `|ra| + |rb|` over scoring *attempts*, whether or
    /// not the merge completed and however much of it positional
    /// verification skipped — a machine-independent proxy for scoring
    /// cost that is unaffected by threshold gating, so [`select_q`]'s
    /// cost model is stable across kernel changes).
    scored_tokens: u64,
    /// Scoring attempts the most recent join refuted via merge abort.
    merge_aborts: u64,
    /// Pairs the most recent join actually scored (completed merges that
    /// produced a fresh score, cache hits and aborts excluded).
    scored: u64,
    /// Scoring attempts the most recent join served from the score
    /// cache without a fresh merge.
    cache_served: u64,
    /// [`topk_semi_join`] pair state, indexed by post-side record id:
    /// the probe generation that last touched the pair and its
    /// common-token count (high bit = scored). Valid only while one
    /// probe record's scan is live — one-directional processing means a
    /// pair's incidences never span two probe records — so two flat
    /// arrays replace the event loop's whole state table.
    semi_stamp: Vec<u32>,
    semi_common: Vec<u32>,
    /// Current probe generation (bumped per probe record; wrapping
    /// clears the stamps).
    semi_gen: u32,
    /// Dense pair-state slot budget override; `0` means
    /// [`DENSE_STATES_MAX`]. Exposed via [`JoinScratch::set_dense_cap`]
    /// so tests can force the sparse fallback on small inputs.
    dense_cap: usize,
}

impl JoinScratch {
    /// An empty scratch; buffers grow to fit the first join and are
    /// reused afterwards.
    pub fn new() -> Self {
        JoinScratch {
            states: fx_map(),
            ..Default::default()
        }
    }

    /// Clears all state and sizes the buffers for one join.
    fn prepare(&mut self, na: usize, nb: usize, rank_bound: usize) {
        for (side, n) in [(0, na), (1, nb)] {
            self.pos[side].clear();
            self.pos[side].resize(n, 0);
            self.run[side].clear();
            self.run[side].resize(n, 0);
            self.last_posted[side].clear();
            self.last_posted[side].resize(n, u32::MAX);
            self.slot[side].clear();
            self.slot[side].resize(n, 0);
            self.postings[side].reset(rank_bound);
        }
        let cap = if self.dense_cap == 0 {
            DENSE_STATES_MAX
        } else {
            self.dense_cap
        };
        let cells = na.checked_mul(nb);
        self.dense = cells.is_some_and(|c| c > 0 && c <= cap);
        if !self.dense && cells != Some(0) {
            // The pair-state table exceeds its slot budget: this join
            // takes the hash-map path (correct but slower per probe).
            // Persistently high values at scale suggest sharding the join
            // so each shard's row range fits the dense budget again.
            mc_obs::counter!("mc.core.ssj.dense_fallback").inc();
        }
        if self.dense {
            if self.dense_gen == u32::MAX {
                // Generation wrap (once per 2³² joins): restart cleanly.
                self.dense_states.clear();
                self.dense_gen = 0;
            }
            self.dense_gen += 1;
            if self.dense_states.len() < na * nb {
                self.dense_states.resize(na * nb, 0);
            }
        } else {
            self.states.clear();
        }
        self.heap.clear();
        // At most one outstanding event per record.
        self.heap.reserve(na + nb);
        self.events = 0;
        self.scored_tokens = 0;
        self.merge_aborts = 0;
        self.scored = 0;
        self.cache_served = 0;
    }

    /// Clears the subset of the scratch [`topk_semi_join`] uses: the
    /// post side's postings, the semi pair-state arrays (generation
    /// bump), and the work counters. The event loop's per-record arrays,
    /// state table and heap stay untouched — the semi-join never reads
    /// them, so delta joins skip megabytes of memsets per call.
    fn prepare_semi(&mut self, post: usize, n_post: usize, rank_bound: usize) {
        self.postings[post].reset(rank_bound);
        if self.semi_stamp.len() < n_post {
            self.semi_stamp.resize(n_post, 0);
            self.semi_common.resize(n_post, 0);
        }
        self.events = 0;
        self.scored_tokens = 0;
        self.merge_aborts = 0;
        self.scored = 0;
        self.cache_served = 0;
    }

    /// Heap events the most recent join on this scratch processed — a
    /// deterministic, machine-independent cost measure (used by
    /// [`select_q`]).
    pub fn last_events(&self) -> u64 {
        self.events
    }

    /// Tokens fed to the scorer by the most recent join (`Σ |ra| + |rb|`
    /// over scoring attempts, aborted merges included).
    pub fn last_scored_tokens(&self) -> u64 {
        self.scored_tokens
    }

    /// Scoring attempts the most recent join refuted via merge abort.
    pub fn last_merge_aborts(&self) -> u64 {
        self.merge_aborts
    }

    /// Pairs the most recent join scored with a completed merge (fresh
    /// scores only — cache hits and refuted merges excluded). The
    /// incremental debugger reads this to account re-scoring work.
    pub fn last_scored(&self) -> u64 {
        self.scored
    }

    /// Scoring attempts the most recent join answered from a cache.
    pub fn last_cache_served(&self) -> u64 {
        self.cache_served
    }

    /// Whether the most recent join on this scratch used the dense
    /// pair-state table (false = hash-map fallback).
    pub fn last_used_dense(&self) -> bool {
        self.dense
    }

    /// Overrides the dense pair-state slot budget (`0` restores the
    /// default [`DENSE_STATES_MAX`]). Primarily a test hook for driving
    /// the sparse fallback path on small inputs.
    pub fn set_dense_cap(&mut self, cap: usize) {
        self.dense_cap = cap;
    }
}

/// A pool of [`JoinScratch`] buffers shared across consecutive
/// [`topk_join_sharded`] calls.
///
/// Without a pool every sharded join allocates one fresh scratch per
/// worker, and a scratch is *expensive* to warm up: its dense postings
/// index holds one `Vec` per token rank (hundreds of thousands on real
/// vocabularies). A joint run executes one sharded join per config, so
/// `shards × configs` scratches were built and thrown away. The joint
/// executor instead builds one pool sized to its worker count and passes
/// it to every config's join; worker `w` of each join locks slot `w`, so
/// locks are uncontended and each slot's buffers stay warm across
/// configs (the same steady-state-allocation-free contract
/// [`topk_join_with_scratch`] gives single-threaded callers).
pub struct JoinScratchPool {
    slots: Vec<parking_lot::Mutex<JoinScratch>>,
}

impl JoinScratchPool {
    /// A pool with `workers` slots (at least one).
    pub fn new(workers: usize) -> Self {
        JoinScratchPool {
            slots: (0..workers.max(1))
                .map(|_| parking_lot::Mutex::new(JoinScratch::new()))
                .collect(),
        }
    }

    /// Locks the slot for worker `w` (wrapping if the pool is smaller
    /// than the caller's worker count).
    pub(crate) fn lock_slot(&self, w: usize) -> parking_lot::MutexGuard<'_, JoinScratch> {
        self.slots[w % self.slots.len()].lock()
    }

    /// Overrides every slot's dense pair-state budget (see
    /// [`JoinScratch::set_dense_cap`]). The incremental debugger caps
    /// its session pool: delta joins pair a handful of changed records
    /// with a full table, so their candidate sets are sparse and a
    /// full-range dense table would be tens of megabytes per slot for
    /// no probe-speed win.
    pub fn set_dense_cap(&self, cap: usize) {
        for slot in &self.slots {
            slot.lock().set_dense_cap(cap);
        }
    }
}

/// Runs the top-k join with a fresh scratch. Prefer
/// [`topk_join_with_scratch`] when executing many joins on one thread.
///
/// * `seed` — optional initial entries (a parent config's re-scored top-k
///   list, §4.2); seeded pairs are marked scored and never recomputed.
/// * `cancel` — optional cooperative cancellation flag; a cancelled
///   join returns its partial list.
pub fn topk_join(
    inst: SsjInstance<'_>,
    params: SsjParams,
    scorer: &dyn PairScorer,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
) -> TopKList {
    let mut scratch = JoinScratch::new();
    topk_join_with_scratch(inst, params, scorer, seed, cancel, &mut scratch)
}

/// Runs the top-k join, reusing `scratch` buffers from previous joins.
/// See [`topk_join`] for the parameter contract.
pub fn topk_join_with_scratch(
    inst: SsjInstance<'_>,
    params: SsjParams,
    scorer: &dyn PairScorer,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
    scratch: &mut JoinScratch,
) -> TopKList {
    topk_join_in_range(
        inst,
        params,
        scorer,
        seed,
        cancel,
        scratch,
        0,
        inst.records_a.len() as TupleId,
        0,
        inst.records_b.len() as TupleId,
        None,
    )
}

/// Which side's record range [`topk_join_sharded_on`] partitions.
///
/// Per-pair work splits across shards either way (a pair lands in
/// exactly one shard); what repeats per shard is the *other* side's
/// per-event bookkeeping. Shard the side whose records dominate the
/// event count: the incremental debugger joins a handful of changed
/// records against a full table, and picks the axis that puts the full
/// table's events into the partitioned side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAxis {
    /// Partition `[0, |A|)` into contiguous A-record ranges.
    A,
    /// Partition `[0, |B|)` into contiguous B-record ranges.
    B,
}

/// Slack for comparisons between a *prefix bound* and the list
/// threshold. Bounds and scores are computed by different floating-point
/// expression trees, so a bound that equals a later score in exact
/// arithmetic can land one ulp below it after rounding (cosine's
/// `o / sqrt(la·lb)` vs `sqrt(rem / la)`). Distinct rational
/// score/bound values on integer token counts differ by far more than
/// 1e-12 while rounding error stays below 1e-15, so the slack separates
/// "really below" from "equal up to rounding" exactly. Score-vs-gate
/// comparisons need no slack: both sides are the same expression.
const BOUND_SLACK: f64 = 1e-12;

/// The cross-shard pruning state of [`topk_join_sharded`]: one shared
/// canonical [`TopKList`] holding the union of every shard's accepted
/// entries, plus its current threshold cached as the bit pattern of a
/// non-negative `f64` (for which integer `fetch_max` ordering coincides
/// with numeric ordering) so the hot loop reads it with one relaxed
/// load.
///
/// A shard's *local* threshold is the k-th best of its own range's pairs
/// — far below the global k-th when the data is split many ways, so a
/// shard pruning only with its local list overexplores superlinearly in
/// the shard count. The shared list restores single-shard pruning
/// quality: its threshold is the k-th best of *everything any shard has
/// accepted so far*, which evolves like the unsharded run's threshold.
///
/// Soundness: every entry offered is a genuine pair score (seeds are
/// pre-offered once, scored pairs are scored by exactly one shard), so
/// the shared list is a canonical top-k of a subset of the final pair
/// set and its threshold never exceeds the final global k-th score.
/// Pruning events and gating scorers against it therefore only drops
/// pairs that cannot appear in the merged top-k — the merged
/// `sorted_entries()` stays bit-identical at every shard and thread
/// count. Offers happen only for entries that pass the gate (a few per
/// shard beyond k), so the mutex is effectively uncontended.
struct SharedBound {
    /// Bit pattern of the shared list's current threshold (0 until the
    /// list fills). Monotone non-decreasing.
    bits: AtomicU64,
    /// Union of all shards' accepted entries, canonical order.
    list: parking_lot::Mutex<TopKList>,
}

impl SharedBound {
    fn new(k: usize) -> Self {
        SharedBound {
            bits: AtomicU64::new(0),
            list: parking_lot::Mutex::new(TopKList::new(k)),
        }
    }

    /// The current bound (0.0 until the shared list fills).
    #[inline]
    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Offers an accepted entry to the shared list and publishes the
    /// possibly-raised threshold.
    fn offer(&self, score: f64, pair: u64) {
        let mut list = self.list.lock();
        list.insert(score, pair);
        let thr = list.threshold();
        drop(list);
        if thr > 0.0 {
            self.bits.fetch_max(thr.to_bits(), Ordering::Relaxed);
        }
    }
}

/// The event loop of [`topk_join_with_scratch`], restricted to A-records
/// in `[a_lo, a_hi)` and B-records in `[b_lo, b_hi)` — the unit of work
/// of one shard of [`topk_join_sharded_on`] (which restricts exactly one
/// of the two ranges per shard). A pair `(a, b)` is discovered by
/// whichever side's prefix event hits the other's posting list, and with
/// each side's postings holding only its range's records, exactly the
/// pairs with `a ∈ [a_lo, a_hi) ∧ b ∈ [b_lo, b_hi)` are discovered.
/// Per-pair work (state advance, scoring) is therefore perfectly
/// partitioned across disjoint ranges; only the unrestricted side's
/// per-event bookkeeping is repeated per shard. The full join is the
/// `[0, |A|) × [0, |B|)` range.
///
/// `shared` is the cross-shard bound: folded into every prune and gate
/// decision (max with the local threshold) and raised whenever this
/// shard's own list fills. `None` for unsharded joins.
#[allow(clippy::too_many_arguments)]
fn topk_join_in_range(
    inst: SsjInstance<'_>,
    params: SsjParams,
    scorer: &dyn PairScorer,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
    scratch: &mut JoinScratch,
    a_lo: TupleId,
    a_hi: TupleId,
    b_lo: TupleId,
    b_hi: TupleId,
    shared: Option<&SharedBound>,
) -> TopKList {
    assert!(params.q >= 1, "q must be at least 1");
    assert!(a_lo <= a_hi && a_hi as usize <= inst.records_a.len());
    assert!(b_lo <= b_hi && b_hi as usize <= inst.records_b.len());
    let credit = params.q - 1;
    let rank_bound = inst.records_a.rank_bound().max(inst.records_b.rank_bound()) as usize;
    let rows = (a_hi - a_lo) as usize;
    let a_off = a_lo as usize;
    let cols = (b_hi - b_lo) as usize;
    let b_off = b_lo as usize;
    scratch.prepare(rows, cols, rank_bound);
    let JoinScratch {
        pos,
        run,
        last_posted,
        slot,
        postings,
        states,
        dense_states,
        dense_gen,
        dense,
        heap,
        events: scratch_events,
        scored_tokens: scratch_scored_tokens,
        merge_aborts: scratch_merge_aborts,
        scored: scratch_scored,
        cache_served: scratch_cache_served,
        ..
    } = scratch;

    let mut table = if *dense {
        StateTable::Dense {
            slots: &mut dense_states[..],
            gen: *dense_gen as u64,
            nb: cols,
            a_lo,
            b_lo,
        }
    } else {
        StateTable::Sparse { map: states }
    };

    // Every seed raises the threshold (shards receive the full seed list
    // for maximal pruning), but only in-range pairs exist in this range's
    // state table — out-of-range pairs can never be rediscovered here.
    let mut k_list = TopKList::with_capacity_hint(params.k, seed.len());
    for &(score, pair) in seed {
        if !inst.killed.contains_key(pair) {
            k_list.insert(score, pair);
            let (a, b) = split_pair_key(pair);
            if a >= a_lo && a < a_hi && b >= b_lo && b < b_hi {
                table.seed(pair);
            }
        }
    }

    for r in a_lo..a_hi {
        let rec = inst.records_a.record(r);
        if !rec.is_empty() {
            heap.push(Event {
                bound: Score(bound_with_credit(params.measure, rec.len(), 1, credit)),
                side: 0,
                rec: r,
            });
        }
    }
    for r in b_lo..b_hi {
        let rec = inst.records_b.record(r);
        if !rec.is_empty() {
            heap.push(Event {
                bound: Score(bound_with_credit(params.measure, rec.len(), 1, credit)),
                side: 1,
                rec: r,
            });
        }
    }

    // Hot-loop statistics accumulate in locals and flush to the global
    // registry once per join, so the event loop pays no atomic ops.
    let mut n_events = 0u64;
    let mut n_discovered = 0u64;
    let mut n_scored = 0u64;
    let mut n_cached = 0u64;
    let mut n_aborted = 0u64;
    let mut n_scored_tokens = 0u64;
    let mut n_verify_tokens = 0u64;
    let mut n_killed_skipped = 0u64;
    let mut n_bound_pruned = 0u64;
    // Hoisted: the blocker output is checked once per pair (at scoring
    // time), and not at all when it is empty.
    let no_killed = inst.killed.is_empty();

    let mut since_cancel_check = 0u32;
    while let Some(ev) = heap.pop() {
        // The pruning threshold: the local list's (0 until it fills),
        // raised to the cross-shard bound when sharded. The shared bound
        // never exceeds the final global k-th score, so folding it in
        // keeps the merged result exact (see [`SharedBound`]).
        let threshold = match shared {
            Some(s) => k_list.threshold().max(s.get()),
            None => k_list.threshold(),
        };
        if threshold > 0.0 && ev.bound.0 < threshold - BOUND_SLACK {
            // Everything still on the heap is pruned by the prefix
            // bound. Strictly below the threshold only: an event whose
            // bound *equals* the threshold can still yield a tie that
            // displaces a larger pair key under the canonical order, so
            // it must be processed for shard-count invariance.
            n_bound_pruned += heap.len() as u64 + 1;
            break;
        }
        n_events += 1;
        if let Some(flag) = cancel {
            since_cancel_check += 1;
            if since_cancel_check >= 256 {
                since_cancel_check = 0;
                if flag.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
        let side = ev.side as usize;
        let other = 1 - side;
        let arena = if side == 0 {
            inst.records_a
        } else {
            inst.records_b
        };
        let rec = arena.record(ev.rec);
        // Scratch arrays cover only each side's covered range.
        let idx = if side == 0 {
            ev.rec as usize - a_off
        } else {
            ev.rec as usize - b_off
        };
        let p = pos[side][idx] as usize; // 0-indexed token to process
        let tok = rec[p];

        // This is the `occ`-th occurrence of `tok` within our own prefix:
        // records are sorted, so occurrences are contiguous and the run
        // counter extends by one whenever the previous token repeats.
        let occ = if p > 0 && rec[p - 1] == tok {
            run[side][idx] + 1
        } else {
            1
        };
        run[side][idx] = occ;

        let partners = &postings[other].lists[tok as usize];
        if !partners.is_empty() {
            for &(o, o_count, o_first) in partners {
                // The pair's prefix multiset overlap grows by one exactly
                // when the partner's prefix already holds ≥ occ copies of
                // this token (its posting counts them); this keeps
                // `common` equal to the true multiset overlap of the two
                // prefixes.
                if o_count < occ {
                    continue;
                }
                let (a, b) = if side == 0 { (ev.rec, o) } else { (o, ev.rec) };
                if let Step::ReachedQ = table.advance(a, b, params.q, &mut n_discovered) {
                    // Membership in the blocker output `C` is checked
                    // once per pair, here — not per incidence. A killed
                    // pair costs one pair-state slot but saves a hash
                    // probe on `C` for every later shared token.
                    let key = pair_key(a, b);
                    if !no_killed && inst.killed.contains_key(key) {
                        n_killed_skipped += 1;
                        continue;
                    }
                    let ra = inst.records_a.record(a);
                    let rb = inst.records_b.record(b);
                    // The cost model counts whole records, whatever the
                    // merge below skips (see `JoinScratch::scored_tokens`).
                    n_scored_tokens += (ra.len() + rb.len()) as u64;
                    // Positional verification: the pair just reached
                    // `q` common tokens, and those are exactly the
                    // overlap of our prefix (ending at the `occ`-th copy
                    // of `tok`) and the partner's prefix cut after its
                    // own `occ`-th copy — so only the suffixes merge.
                    let split = meet_split(side, p + 1, (o_first + occ) as usize, params.q);
                    // Gate one ulp below the current k-th score (see
                    // `TopKList::gate`): a refuted attempt has
                    // `score < threshold` and could never enter the
                    // list, while exact threshold ties come through for
                    // the canonical key tie-break — the outcome split
                    // never changes the resulting list. When sharded,
                    // the cross-shard bound raises the gate the same
                    // way (one ulp below, ties still come through).
                    let mut gate = k_list.gate();
                    if let Some(s) = shared {
                        let thr = s.get();
                        if thr > 0.0 {
                            gate = gate.max(f64::next_down(thr));
                        }
                    }
                    let accepted = match scorer.score_above(a, b, ra, rb, split, gate) {
                        ScoreOutcome::Scored(s) => {
                            n_scored += 1;
                            n_verify_tokens += split.suffix_tokens(ra.len(), rb.len()) as u64;
                            k_list.insert(s, key);
                            Some(s)
                        }
                        ScoreOutcome::Cached(s) => {
                            n_cached += 1;
                            k_list.insert(s, key);
                            Some(s)
                        }
                        ScoreOutcome::Refuted => {
                            n_aborted += 1;
                            n_verify_tokens += split.suffix_tokens(ra.len(), rb.len()) as u64;
                            None
                        }
                    };
                    if let (Some(score), Some(s)) = (accepted, shared) {
                        s.offer(score, key);
                    }
                }
            }
        }
        // Register this token in our own prefix index: a record posts
        // each distinct token once and bumps its posting's copy count for
        // duplicates (the slot stays valid because lists only grow).
        if last_posted[side][idx] != tok {
            last_posted[side][idx] = tok;
            let list = &mut postings[side].lists[tok as usize];
            if list.is_empty() {
                postings[side].touched.push(tok);
            }
            slot[side][idx] = list.len() as u32;
            list.push((ev.rec, 1, p as u32));
        } else {
            let s = slot[side][idx] as usize;
            postings[side].lists[tok as usize][s].1 += 1;
        }

        pos[side][idx] += 1;
        let next_p = p + 1;
        if next_p < rec.len() {
            let b = bound_with_credit(params.measure, rec.len(), next_p + 1, credit);
            // Mirror the pop-side prune: re-enqueue while the bound can
            // still reach the threshold (local or cross-shard), ties
            // included.
            let threshold = match shared {
                Some(s) => k_list.threshold().max(s.get()),
                None => k_list.threshold(),
            };
            if threshold == 0.0 || b >= threshold - BOUND_SLACK {
                heap.push(Event {
                    bound: Score(b),
                    side: ev.side,
                    rec: ev.rec,
                });
            } else {
                n_bound_pruned += 1;
            }
        }
    }
    *scratch_events = n_events;
    *scratch_scored_tokens = n_scored_tokens;
    *scratch_merge_aborts = n_aborted;
    *scratch_scored = n_scored;
    *scratch_cache_served = n_cached;
    mc_obs::counter!("mc.core.ssj.events").add(n_events);
    mc_obs::counter!("mc.core.ssj.candidates").add(n_discovered);
    mc_obs::counter!("mc.core.ssj.scored").add(n_scored);
    mc_obs::counter!("mc.core.ssj.merge_aborts").add(n_aborted);
    mc_obs::counter!("mc.core.ssj.verify_tokens").add(n_verify_tokens);
    mc_obs::counter!("mc.core.ssj.scored_saved").add(n_aborted + n_cached);
    mc_obs::counter!("mc.core.ssj.killed_skipped").add(n_killed_skipped);
    mc_obs::counter!("mc.core.ssj.bound_pruned").add(n_bound_pruned);
    k_list
}

/// Runs the top-k join partitioned into `shards` contiguous A-record
/// ranges executed by up to `threads` workers, then merges the per-shard
/// lists canonically. The result's `sorted_entries()` is **bit-identical
/// to the unsharded join at any shard/thread count**:
///
/// * pairs are partitioned by their A-record's range, so each shard's
///   canonical list is a pure function of its own pair set;
/// * every shard receives the full seed list (raising its threshold as
///   early as possible); broadcast seeds are deduplicated by pair key at
///   merge time, where duplicates carry identical scores;
/// * the merge re-offers every shard entry to one canonical
///   [`TopKList`], whose kept set is offer-order-independent.
///
/// `make_scorer` builds one scorer per shard on the worker thread that
/// runs it (scorers are deliberately not `Sync`); it must be cheap and
/// produce scorers that agree bit-for-bit on every pair.
///
/// `pool` optionally supplies per-worker [`JoinScratch`] buffers reused
/// across calls (see [`JoinScratchPool`]); `None` allocates fresh
/// scratches as before. The pool never affects results — scratches are
/// fully re-prepared per join.
#[allow(clippy::too_many_arguments)]
pub fn topk_join_sharded<S, F>(
    inst: SsjInstance<'_>,
    params: SsjParams,
    make_scorer: F,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
    shards: usize,
    threads: usize,
    pool: Option<&JoinScratchPool>,
) -> TopKList
where
    S: PairScorer,
    F: Fn(usize) -> S + Sync,
{
    topk_join_sharded_on(
        inst,
        params,
        make_scorer,
        seed,
        cancel,
        shards,
        threads,
        pool,
        ShardAxis::A,
    )
}

/// [`topk_join_sharded`] with an explicit shard [`ShardAxis`]: `A`
/// partitions A-record ranges (the default), `B` partitions B-record
/// ranges. The bit-identity contract is symmetric — every pair lands in
/// exactly one shard either way, and the canonical merge is
/// offer-order-independent — so the axis never changes the result, only
/// which side's per-event bookkeeping is repeated per shard.
#[allow(clippy::too_many_arguments)]
pub fn topk_join_sharded_on<S, F>(
    inst: SsjInstance<'_>,
    params: SsjParams,
    make_scorer: F,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
    shards: usize,
    threads: usize,
    pool: Option<&JoinScratchPool>,
    axis: ShardAxis,
) -> TopKList
where
    S: PairScorer,
    F: Fn(usize) -> S + Sync,
{
    let na = inst.records_a.len();
    let nb = inst.records_b.len();
    let sharded_n = match axis {
        ShardAxis::A => na,
        ShardAxis::B => nb,
    };
    let shards = shards.clamp(1, sharded_n.max(1));
    if shards == 1 {
        let scorer = make_scorer(0);
        return match pool {
            Some(p) => {
                topk_join_with_scratch(inst, params, &scorer, seed, cancel, &mut p.lock_slot(0))
            }
            None => topk_join(inst, params, &scorer, seed, cancel),
        };
    }
    let _span = mc_obs::span!("mc.core.ssj.sharded");
    // Each shard covers the full range of one side and a contiguous
    // slice of the other.
    let bounds: Vec<(TupleId, TupleId, TupleId, TupleId)> = (0..shards)
        .map(|i| {
            let lo = (sharded_n * i / shards) as TupleId;
            let hi = (sharded_n * (i + 1) / shards) as TupleId;
            match axis {
                ShardAxis::A => (lo, hi, 0, nb as TupleId),
                ShardAxis::B => (0, na as TupleId, lo, hi),
            }
        })
        .collect();
    let workers = threads.clamp(1, shards);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::OnceLock<TopKList>> =
        (0..shards).map(|_| std::sync::OnceLock::new()).collect();
    // Cross-shard pruning state: one shared canonical top-k whose
    // threshold every shard folds into its prune/gate decisions. Seeds
    // are pre-offered exactly once here (shards would otherwise offer
    // duplicates, and duplicate keys in the shared list would inflate
    // its threshold past the true global k-th — an unsound prune).
    let shared = SharedBound::new(params.k);
    for &(score, pair) in seed {
        if !inst.killed.contains_key(pair) {
            shared.offer(score, pair);
        }
    }
    let obs = mc_obs::ObsContext::current();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, results, bounds) = (&next, &results, &bounds);
            let (make_scorer, obs, shared) = (&make_scorer, &obs, &shared);
            scope.spawn(move || {
                let _obs = obs.attach();
                // Worker `w` owns pool slot `w`: uncontended, and the
                // slot's buffers stay warm across consecutive sharded
                // joins that share the pool.
                let mut local = None;
                let mut leased = None;
                let scratch: &mut JoinScratch = match pool {
                    Some(p) => &mut *leased.insert(p.lock_slot(w)),
                    None => local.insert(JoinScratch::new()),
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= shards {
                        break;
                    }
                    let scorer = make_scorer(i);
                    let (a_lo, a_hi, b_lo, b_hi) = bounds[i];
                    let list = topk_join_in_range(
                        inst,
                        params,
                        &scorer,
                        seed,
                        cancel,
                        scratch,
                        a_lo,
                        a_hi,
                        b_lo,
                        b_hi,
                        Some(shared),
                    );
                    let _ = results[i].set(list);
                }
            });
        }
    });
    // Canonical merge: offer every shard entry once (seeds were
    // broadcast, so the same pair key may surface from several shards
    // with an identical score — first offer wins, the rest are skipped).
    let mut seen: FxHashMap<u64, ()> = fx_map();
    let mut merged = TopKList::new(params.k);
    for slot in &results {
        let list = slot.get().expect("every shard produced a list");
        for (score, pair) in list.sorted_entries() {
            if seen.insert(pair, ()).is_none() {
                merged.insert(score, pair);
            }
        }
    }
    merged
}

/// Heap-free one-directional variant of the top-k join for asymmetric
/// instances: one side is tiny (the incremental debugger's changed set),
/// the other is a full table.
///
/// The event heap exists to interleave both sides' prefix tokens in
/// global bound order so the list threshold rises as early as possible.
/// A delta join starts with a threshold that is already near-final — its
/// seed list is the surviving top-K of the previous run — so the global
/// ordering buys almost nothing while charging a `log(|A| + |B|)` heap
/// operation per token. This variant drops the heap entirely and runs
/// two flat passes:
///
/// 1. the **post** side (the small changed set) streams each record's
///    prefix into the postings index, probing nothing;
/// 2. the **probe** side (the full table) streams each record's prefix
///    against the completed postings, advancing pair states and scoring
///    at the `q`-th common token exactly like the event loop.
///
/// Every common-prefix incidence is counted exactly once — by the probe
/// side against the post side's *final* copy counts, which equals the
/// event loop's "whichever side posts the occurrence level second"
/// accounting because `min(copies, copies)` is order-free. Both passes
/// stop each record once its credit-adjusted prefix bound falls below
/// `threshold − BOUND_SLACK`; the threshold only rises, so any pair
/// skipped by a stopped prefix provably cannot beat the final threshold
/// (the same soundness argument as the heap loop's prune, applied
/// per-record instead of globally). Seeds, killed-pair handling and
/// threshold gating are identical to [`topk_join_with_scratch`], so the
/// returned `sorted_entries()` is **bit-identical** to it: both produce
/// the canonical top-k of the same pair universe.
///
/// `post_side` picks which side's prefixes are indexed: `0` posts A and
/// probes with B, `1` posts B and probes with A. Always post the small
/// side — partner lists stay short and the probe pass degenerates to a
/// streaming scan with almost-always-empty postings lookups. The scratch
/// counters record probed + posted prefix tokens as this join's events.
#[allow(clippy::too_many_arguments)]
pub fn topk_semi_join(
    inst: SsjInstance<'_>,
    params: SsjParams,
    scorer: &dyn PairScorer,
    seed: &[(f64, u64)],
    cancel: Option<&AtomicBool>,
    scratch: &mut JoinScratch,
    post_side: u8,
) -> TopKList {
    assert!(params.q >= 1, "q must be at least 1");
    assert!(post_side <= 1, "post_side is 0 (A) or 1 (B)");
    let credit = params.q - 1;
    let measure = params.measure;
    let rank_bound = inst.records_a.rank_bound().max(inst.records_b.rank_bound()) as usize;
    let post = post_side as usize;
    let post_arena = if post == 0 {
        inst.records_a
    } else {
        inst.records_b
    };
    scratch.prepare_semi(post, post_arena.len(), rank_bound);
    let JoinScratch {
        postings,
        semi_stamp,
        semi_common,
        semi_gen,
        events: scratch_events,
        scored_tokens: scratch_scored_tokens,
        merge_aborts: scratch_merge_aborts,
        scored: scratch_scored,
        cache_served: scratch_cache_served,
        ..
    } = scratch;

    // Seeds are never rescored. The event loop marks them in its state
    // table; here the per-record pair state is rebuilt per probe record,
    // so the live seeds are indexed by their probe-side endpoint and
    // pre-stamped as scored when that record's scan opens.
    let mut k_list = TopKList::with_capacity_hint(params.k, seed.len());
    let mut seed_pairs: Vec<(TupleId, TupleId)> = Vec::with_capacity(seed.len());
    for &(score, pair) in seed {
        if !inst.killed.contains_key(pair) {
            k_list.insert(score, pair);
            let (a, b) = split_pair_key(pair);
            let (probe_rec, post_rec) = if post == 0 { (b, a) } else { (a, b) };
            if (post_rec as usize) < post_arena.len() {
                seed_pairs.push((probe_rec, post_rec));
            }
        }
    }
    seed_pairs.sort_unstable();

    let mut n_tokens = 0u64;
    let mut n_discovered = 0u64;
    let mut n_scored = 0u64;
    let mut n_cached = 0u64;
    let mut n_aborted = 0u64;
    let mut n_scored_tokens = 0u64;
    let mut n_verify_tokens = 0u64;
    let mut n_killed_skipped = 0u64;
    let mut n_bound_pruned = 0u64;
    let no_killed = inst.killed.is_empty();

    // Pass 1: index the post side's prefixes. No insert happens here, so
    // the threshold is fixed for the whole pass; each record posts until
    // its bound falls below it. Records are processed contiguously, so
    // the kernel's per-record posting arrays collapse to two locals.
    let threshold = k_list.threshold();
    for r in 0..post_arena.len() as TupleId {
        let rec = post_arena.record(r);
        let len = rec.len();
        let mut last_tok = u32::MAX;
        let mut slot_idx = 0usize;
        for (p, &tok) in rec.iter().enumerate() {
            if threshold > 0.0
                && bound_with_credit(measure, len, p + 1, credit) < threshold - BOUND_SLACK
            {
                n_bound_pruned += (len - p) as u64;
                break;
            }
            n_tokens += 1;
            if last_tok != tok {
                last_tok = tok;
                let list = &mut postings[post].lists[tok as usize];
                if list.is_empty() {
                    postings[post].touched.push(tok);
                }
                slot_idx = list.len();
                list.push((r, 1, p as u32));
            } else {
                postings[post].lists[tok as usize][slot_idx].1 += 1;
            }
        }
    }

    // Pass 2: stream the probe side against the completed index. The
    // threshold can rise mid-pass as contributions land, so it is
    // re-read per token like the event loop does per event.
    let probe_arena = if post == 0 {
        inst.records_b
    } else {
        inst.records_a
    };
    let mut seed_cursor = 0usize;
    let mut since_cancel_check = 0u32;
    'probe: for r in 0..probe_arena.len() as TupleId {
        // Open this record's pair-state generation and pre-stamp its
        // seeds as scored.
        *semi_gen = semi_gen.wrapping_add(1);
        if *semi_gen == 0 {
            semi_stamp.fill(0);
            *semi_gen = 1;
        }
        let gen = *semi_gen;
        while seed_cursor < seed_pairs.len() && seed_pairs[seed_cursor].0 == r {
            let o = seed_pairs[seed_cursor].1 as usize;
            semi_stamp[o] = gen;
            semi_common[o] = SEMI_SCORED;
            seed_cursor += 1;
        }
        let rec = probe_arena.record(r);
        let len = rec.len();
        let mut occ = 0u32;
        for (p, &tok) in rec.iter().enumerate() {
            let threshold = k_list.threshold();
            if threshold > 0.0
                && bound_with_credit(measure, len, p + 1, credit) < threshold - BOUND_SLACK
            {
                n_bound_pruned += (len - p) as u64;
                break;
            }
            n_tokens += 1;
            if let Some(flag) = cancel {
                since_cancel_check += 1;
                if since_cancel_check >= 1024 {
                    since_cancel_check = 0;
                    if flag.load(Ordering::Relaxed) {
                        break 'probe;
                    }
                }
            }
            // `occ`-th copy of `tok` within our own prefix (records are
            // sorted, so copies are contiguous).
            occ = if p > 0 && rec[p - 1] == tok {
                occ + 1
            } else {
                1
            };
            let partners = &postings[post].lists[tok as usize];
            if partners.is_empty() {
                continue;
            }
            // Stale-but-sound gate for the length pre-gate below: read
            // once per token, so inserts inside the partner loop make it
            // conservative (too low), never unsound.
            let len_gate = k_list.gate();
            for &(o, o_count, o_first) in partners {
                // Same multiset accounting as the event loop: this
                // incidence advances the pair iff the partner's prefix
                // holds at least `occ` copies.
                if o_count < occ {
                    continue;
                }
                let oi = o as usize;
                if semi_stamp[oi] != gen {
                    semi_stamp[oi] = gen;
                    n_discovered += 1;
                    // Length pre-gate, applied once at the pair's first
                    // incidence: `from_overlap` is monotone in `o`
                    // (also under f64 rounding), so the score at full
                    // containment caps the pair's achievable score. At
                    // or below the gate the scorer would refute the
                    // attempt anyway — mark the pair scored so every
                    // later incidence skips on the stamp alone.
                    // (Vacuous for the overlap measure, whose
                    // containment score is always 1.)
                    let plen = post_arena.record(o).len();
                    if measure.from_overlap(len.min(plen), len, plen) <= len_gate {
                        semi_common[oi] = SEMI_SCORED;
                        continue;
                    }
                    semi_common[oi] = 0;
                }
                let c = semi_common[oi];
                if c & SEMI_SCORED != 0 {
                    continue;
                }
                let c = c + 1;
                if (c as usize) < params.q {
                    semi_common[oi] = c;
                    continue;
                }
                semi_common[oi] = c | SEMI_SCORED;
                let (a, b) = if post == 0 { (o, r) } else { (r, o) };
                let key = pair_key(a, b);
                if !no_killed && inst.killed.contains_key(key) {
                    n_killed_skipped += 1;
                    continue;
                }
                let ra = inst.records_a.record(a);
                let rb = inst.records_b.record(b);
                n_scored_tokens += (ra.len() + rb.len()) as u64;
                // Positional verification, as in the event loop: the
                // probe prefix ends at its `occ`-th copy of `tok`, the
                // post record's is cut after its own `occ`-th copy.
                let split = meet_split(1 - post, p + 1, (o_first + occ) as usize, params.q);
                match scorer.score_above(a, b, ra, rb, split, k_list.gate()) {
                    ScoreOutcome::Scored(s) => {
                        n_scored += 1;
                        n_verify_tokens += split.suffix_tokens(ra.len(), rb.len()) as u64;
                        k_list.insert(s, key);
                    }
                    ScoreOutcome::Cached(s) => {
                        n_cached += 1;
                        k_list.insert(s, key);
                    }
                    ScoreOutcome::Refuted => {
                        n_aborted += 1;
                        n_verify_tokens += split.suffix_tokens(ra.len(), rb.len()) as u64;
                    }
                }
            }
        }
    }
    *scratch_events = n_tokens;
    *scratch_scored_tokens = n_scored_tokens;
    *scratch_merge_aborts = n_aborted;
    *scratch_scored = n_scored;
    *scratch_cache_served = n_cached;
    mc_obs::counter!("mc.core.ssj.events").add(n_tokens);
    mc_obs::counter!("mc.core.ssj.candidates").add(n_discovered);
    mc_obs::counter!("mc.core.ssj.scored").add(n_scored);
    mc_obs::counter!("mc.core.ssj.merge_aborts").add(n_aborted);
    mc_obs::counter!("mc.core.ssj.verify_tokens").add(n_verify_tokens);
    mc_obs::counter!("mc.core.ssj.scored_saved").add(n_aborted + n_cached);
    mc_obs::counter!("mc.core.ssj.killed_skipped").add(n_killed_skipped);
    mc_obs::counter!("mc.core.ssj.bound_pruned").add(n_bound_pruned);
    k_list
}

/// Brute-force reference: scores **every** cross pair with non-zero
/// overlap that is not in `C`. Used by tests and tiny inputs.
pub fn brute_force_topk(inst: SsjInstance<'_>, k: usize, measure: SetMeasure) -> TopKList {
    let mut list = TopKList::new(k);
    for (a, ra) in inst.records_a.iter().enumerate() {
        if ra.is_empty() {
            continue;
        }
        for (b, rb) in inst.records_b.iter().enumerate() {
            if rb.is_empty() {
                continue;
            }
            let key = pair_key(a as TupleId, b as TupleId);
            if inst.killed.contains_key(key) {
                continue;
            }
            list.insert(measure.score(ra, rb), key);
        }
    }
    list
}

/// Empirical `q` selection (§4.1), made deterministic. The paper races
/// `q ∈ {1, …, max_q}` on threads and keeps the first finisher; that
/// wall-clock race made the chosen `q` — and everything downstream —
/// depend on OS scheduling. Here every candidate `q` instead runs a
/// small prelude join (`prelude_k`, the paper uses 50) **to
/// completion**, still one thread each, and the winner is the `q` whose
/// prelude was cheapest under a machine-independent cost model:
/// heap events processed plus tokens fed to the scorer (ties go to the
/// smaller `q`). Repeated runs at any thread count therefore pick the
/// same `q`. Deterministic inputs can also fix `q` via [`SsjParams`].
pub fn select_q(
    inst: SsjInstance<'_>,
    measure: SetMeasure,
    max_q: usize,
    prelude_k: usize,
) -> usize {
    select_q_cached(inst, measure, max_q, prelude_k, None)
}

/// [`select_q`] with an optional [`ScoreCache`] that the preludes
/// populate as they score (write-only; see [`CachedExactScorer`]). The
/// winning `q`'s main run can then consume the cache and skip re-scoring
/// every pair a prelude already scored — the cost of determinism
/// (running all preludes to completion) is recycled instead of wasted.
///
/// The chosen `q` is identical to [`select_q`]'s: the cost model reads
/// events and *attempt-time* scored tokens, both unaffected by the cache.
pub fn select_q_cached(
    inst: SsjInstance<'_>,
    measure: SetMeasure,
    max_q: usize,
    prelude_k: usize,
    cache: Option<&ScoreCache>,
) -> usize {
    let max_q = max_q.max(1);
    if max_q == 1 {
        return 1;
    }
    let _span = mc_obs::span!("mc.core.ssj.select_q");
    let obs = mc_obs::ObsContext::current();
    let costs: Vec<(u64, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=max_q)
            .map(|q| {
                let obs = &obs;
                scope.spawn(move || {
                    let _obs = obs.attach();
                    let scorer: Box<dyn PairScorer> = match cache {
                        Some(cache) => Box::new(CachedExactScorer { measure, cache }),
                        None => Box::new(ExactScorer(measure)),
                    };
                    let params = SsjParams {
                        k: prelude_k,
                        q,
                        measure,
                    };
                    let mut scratch = JoinScratch::new();
                    let _ = topk_join_with_scratch(
                        inst,
                        params,
                        scorer.as_ref(),
                        &[],
                        None,
                        &mut scratch,
                    );
                    (scratch.last_events() + scratch.last_scored_tokens(), q)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("select_q prelude thread panicked"))
            .collect()
    });
    costs.into_iter().min().map_or(1, |(_, q)| q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(data: &[&[u32]]) -> RecordArena {
        RecordArena::from_records(data)
    }

    #[test]
    fn topk_list_threshold_and_order() {
        let mut l = TopKList::new(2);
        assert_eq!(l.threshold(), 0.0);
        l.insert(0.5, 1);
        l.insert(0.9, 2);
        assert_eq!(l.threshold(), 0.5);
        l.insert(0.7, 3); // evicts 0.5
        assert_eq!(l.threshold(), 0.7);
        l.insert(0.1, 4); // ignored
        assert_eq!(l.sorted_scores(), vec![0.9, 0.7]);
        assert_eq!(l.sorted_entries()[0].1, 2);
    }

    #[test]
    fn topk_list_rejects_nonpositive() {
        let mut l = TopKList::new(3);
        l.insert(0.0, 1);
        l.insert(-0.5, 2);
        assert!(l.is_empty());
    }

    #[test]
    fn join_matches_brute_force_q1() {
        let a = arena(&[&[1, 2, 3, 4], &[5, 6, 7], &[1, 9], &[2, 5, 8, 10, 11]]);
        let b = arena(&[&[1, 2, 3], &[5, 6, 7, 8], &[9, 10], &[4, 11]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        for k in [1, 2, 3, 5, 16] {
            let fast = topk_join(
                inst,
                SsjParams {
                    k,
                    q: 1,
                    measure: SetMeasure::Jaccard,
                },
                &ExactScorer(SetMeasure::Jaccard),
                &[],
                None,
            );
            let slow = brute_force_topk(inst, k, SetMeasure::Jaccard);
            assert_eq!(fast.sorted_scores(), slow.sorted_scores(), "k={k}");
        }
    }

    #[test]
    fn join_matches_brute_force_all_measures() {
        let a = arena(&[&[1, 2, 3, 4, 5], &[2, 3, 9], &[7, 8], &[1, 6, 7, 10]]);
        let b = arena(&[&[1, 2, 3], &[3, 4, 5, 6], &[7, 8, 9, 10], &[2]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        for m in [SetMeasure::Jaccard, SetMeasure::Cosine, SetMeasure::Dice] {
            let fast = topk_join(
                inst,
                SsjParams {
                    k: 4,
                    q: 1,
                    measure: m,
                },
                &ExactScorer(m),
                &[],
                None,
            );
            let slow = brute_force_topk(inst, 4, m);
            let f = fast.sorted_scores();
            let s = slow.sorted_scores();
            assert_eq!(f.len(), s.len(), "{m:?}");
            for (x, y) in f.iter().zip(&s) {
                assert!((x - y).abs() < 1e-12, "{m:?}: {f:?} vs {s:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        // One scratch reused across joins of different shapes must give
        // the same results as fresh scratches (the joint executor's
        // steady-state mode).
        let a1 = arena(&[&[1, 2, 3, 4], &[5, 6, 7], &[1, 9]]);
        let b1 = arena(&[&[1, 2, 3], &[5, 6, 7, 8], &[9, 10]]);
        let a2 = arena(&[&[2, 2, 5], &[0, 1]]);
        let b2 = arena(&[&[2, 5, 5], &[0, 3], &[1, 2, 2]]);
        let killed = PairSet::new();
        let mut scratch = JoinScratch::new();
        for (a, b) in [(&a1, &b1), (&a2, &b2), (&a1, &b1)] {
            let inst = SsjInstance {
                records_a: a,
                records_b: b,
                killed: &killed,
            };
            let params = SsjParams {
                k: 5,
                q: 1,
                measure: SetMeasure::Jaccard,
            };
            let scorer = ExactScorer(SetMeasure::Jaccard);
            let reused = topk_join_with_scratch(inst, params, &scorer, &[], None, &mut scratch);
            let fresh = topk_join(inst, params, &scorer, &[], None);
            assert_eq!(reused.sorted_entries(), fresh.sorted_entries());
        }
    }

    #[test]
    fn killed_pairs_are_excluded() {
        let a = arena(&[&[1, 2, 3]]);
        let b = arena(&[&[1, 2, 3], &[1, 2, 9]]);
        let mut killed = PairSet::new();
        killed.insert(0, 0); // the perfect pair is in C
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let l = topk_join(
            inst,
            SsjParams {
                k: 5,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &ExactScorer(SetMeasure::Jaccard),
            &[],
            None,
        );
        let entries = l.sorted_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, pair_key(0, 1));
    }

    #[test]
    fn qjoin_finds_high_overlap_pairs() {
        // Pairs sharing ≥ q tokens must still be found with q = 2.
        let a = arena(&[&[1, 2, 3, 4], &[5, 6, 7, 8]]);
        let b = arena(&[&[1, 2, 3, 9], &[5, 9, 10, 11]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let l = topk_join(
            inst,
            SsjParams {
                k: 10,
                q: 2,
                measure: SetMeasure::Jaccard,
            },
            &ExactScorer(SetMeasure::Jaccard),
            &[],
            None,
        );
        let entries = l.sorted_entries();
        // (a0, b0) shares 3 tokens → found; (a1, b1) shares only 1 → by
        // design, never scored with q = 2.
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, pair_key(0, 0));
        assert!((entries[0].0 - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn qjoin_agrees_with_topkjoin_on_high_overlap_top() {
        // When the true top-k pairs all share ≥ q tokens, QJoin returns
        // the same scores as TopKJoin.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..20u32 {
            a.push(vec![i * 3, i * 3 + 1, i * 3 + 2, 100 + i]);
            b.push(vec![i * 3, i * 3 + 1, i * 3 + 2, 200 + i]);
        }
        let a = RecordArena::from_records(&a);
        let b = RecordArena::from_records(&b);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let t1 = topk_join(
            inst,
            SsjParams {
                k: 10,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &ExactScorer(SetMeasure::Jaccard),
            &[],
            None,
        );
        let t2 = topk_join(
            inst,
            SsjParams {
                k: 10,
                q: 2,
                measure: SetMeasure::Jaccard,
            },
            &ExactScorer(SetMeasure::Jaccard),
            &[],
            None,
        );
        assert_eq!(t1.sorted_scores(), t2.sorted_scores());
    }

    #[test]
    fn seeding_never_worsens_results() {
        let a = arena(&[&[1, 2, 3, 4], &[5, 6, 7]]);
        let b = arena(&[&[1, 2, 8], &[5, 6, 7, 9]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let plain = topk_join(
            inst,
            SsjParams {
                k: 2,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &ExactScorer(SetMeasure::Jaccard),
            &[],
            None,
        );
        // Seed with the true scores of both pairs.
        let seed: Vec<(f64, u64)> = plain.sorted_entries();
        let seeded = topk_join(
            inst,
            SsjParams {
                k: 2,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &ExactScorer(SetMeasure::Jaccard),
            &seed,
            None,
        );
        assert_eq!(plain.sorted_scores(), seeded.sorted_scores());
    }

    #[test]
    fn seeded_killed_pairs_are_dropped() {
        let a = arena(&[&[1, 2]]);
        let b = arena(&[&[1, 2]]);
        let mut killed = PairSet::new();
        killed.insert(0, 0);
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let seeded = topk_join(
            inst,
            SsjParams {
                k: 2,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &ExactScorer(SetMeasure::Jaccard),
            &[(1.0, pair_key(0, 0))],
            None,
        );
        assert!(seeded.is_empty());
    }

    #[test]
    fn empty_records_produce_empty_list() {
        let a = arena(&[&[]]);
        let b = arena(&[&[1]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let l = topk_join(
            inst,
            SsjParams::default(),
            &ExactScorer(SetMeasure::Jaccard),
            &[],
            None,
        );
        assert!(l.is_empty());
    }

    #[test]
    fn select_q_returns_valid_q() {
        let a: Vec<Vec<u32>> = (0..50).map(|i| vec![i, i + 1, i + 2, i + 50]).collect();
        let b: Vec<Vec<u32>> = (0..50).map(|i| vec![i, i + 1, i + 3, i + 90]).collect();
        let a = RecordArena::from_records(&a);
        let b = RecordArena::from_records(&b);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let q = select_q(inst, SetMeasure::Jaccard, 4, 10);
        assert!((1..=4).contains(&q));
    }

    #[test]
    fn cancellation_returns_partial_list() {
        let a: Vec<Vec<u32>> = (0..200).map(|i| (i..i + 12).collect()).collect();
        let b: Vec<Vec<u32>> = (0..200).map(|i| (i + 3..i + 15).collect()).collect();
        let a = RecordArena::from_records(&a);
        let b = RecordArena::from_records(&b);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let cancel = AtomicBool::new(true); // cancelled from the start
        let l = topk_join(
            inst,
            SsjParams {
                k: 50,
                q: 1,
                measure: SetMeasure::Jaccard,
            },
            &ExactScorer(SetMeasure::Jaccard),
            &[],
            Some(&cancel),
        );
        // Join bailed early: far fewer events processed than a full run
        // (we can't assert exact counts, but it must return without
        // violating the list invariants).
        assert!(l.len() <= 50);
    }

    #[test]
    fn credit_bound_is_weaker_but_valid() {
        for p in 1..=6 {
            let b0 = bound_with_credit(SetMeasure::Jaccard, 6, p, 0);
            let b2 = bound_with_credit(SetMeasure::Jaccard, 6, p, 2);
            assert!(b2 >= b0);
            assert!(b2 <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn topk_list_kept_set_is_offer_order_independent() {
        // Three equal-score offers at a k=2 boundary: whatever the offer
        // order, the canonical list keeps the two smallest pair keys.
        let offers = [(0.5, 10u64), (0.5, 7), (0.9, 3), (0.5, 8)];
        let orders = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]];
        for order in orders {
            let mut l = TopKList::new(3);
            for i in order {
                let (s, p) = offers[i];
                l.insert(s, p);
            }
            assert_eq!(l.sorted_entries(), vec![(0.9, 3), (0.5, 7), (0.5, 8)]);
        }
    }

    fn random_arena(seed: u64, n: usize, universe: u32, max_len: usize) -> RecordArena {
        // Tiny deterministic LCG; no rand dependency in mc-core.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        let mut recs: Vec<Vec<u32>> = Vec::with_capacity(n);
        for _ in 0..n {
            let len = next(max_len + 1);
            let mut r: Vec<u32> = (0..len).map(|_| next(universe as usize) as u32).collect();
            r.sort_unstable();
            recs.push(r);
        }
        let views: Vec<&[u32]> = recs.iter().map(|r| r.as_slice()).collect();
        RecordArena::from_records(&views)
    }

    #[test]
    fn sharded_join_is_bit_identical_across_shard_and_thread_counts() {
        let a = random_arena(11, 120, 40, 9);
        let b = random_arena(23, 90, 40, 9);
        let mut killed = PairSet::new();
        killed.insert(3, 4);
        killed.insert(17, 2);
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let seed = [(0.75, pair_key(5, 5)), (0.4, pair_key(9, 1))];
        for m in [
            SetMeasure::Jaccard,
            SetMeasure::Cosine,
            SetMeasure::Dice,
            SetMeasure::Overlap,
        ] {
            for (k, q) in [(10, 1), (50, 1), (10, 2)] {
                let params = SsjParams { k, q, measure: m };
                let baseline = topk_join(inst, params, &ExactScorer(m), &seed, None);
                for shards in [1, 3, 4, 8, 200] {
                    for threads in [1, 4] {
                        // Alternate pooled and pool-free scratches to
                        // cover both paths of the reuse machinery.
                        let pool = (shards % 2 == 0).then(|| JoinScratchPool::new(threads));
                        let sharded = topk_join_sharded(
                            inst,
                            params,
                            |_| ExactScorer(m),
                            &seed,
                            None,
                            shards,
                            threads,
                            pool.as_ref(),
                        );
                        assert_eq!(
                            baseline.sorted_entries(),
                            sharded.sorted_entries(),
                            "{m:?} k={k} q={q} shards={shards} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dense_and_sparse_state_tables_agree_and_fallback_is_counted() {
        // An isolated metrics context so concurrent tests can't bump the
        // counter under us.
        let ctx = mc_obs::ObsContext::session();
        let _guard = ctx.attach();
        let a = random_arena(5, 40, 24, 7);
        let b = random_arena(6, 35, 24, 7);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let params = SsjParams {
            k: 12,
            q: 1,
            measure: SetMeasure::Jaccard,
        };
        let scorer = ExactScorer(SetMeasure::Jaccard);

        let base = mc_obs::MetricsSnapshot::capture();
        let mut dense_scratch = JoinScratch::new();
        let dense_list =
            topk_join_with_scratch(inst, params, &scorer, &[], None, &mut dense_scratch);
        assert!(
            dense_scratch.last_used_dense(),
            "40×35 fits the default cap"
        );
        let after_dense = mc_obs::MetricsSnapshot::capture().since(&base);
        assert_eq!(after_dense.counter("mc.core.ssj.dense_fallback"), 0);

        let mut sparse_scratch = JoinScratch::new();
        sparse_scratch.set_dense_cap(8); // 40×35 ≫ 8: force the hash path
        let sparse_list =
            topk_join_with_scratch(inst, params, &scorer, &[], None, &mut sparse_scratch);
        assert!(!sparse_scratch.last_used_dense());
        let after_sparse = mc_obs::MetricsSnapshot::capture().since(&base);
        assert_eq!(after_sparse.counter("mc.core.ssj.dense_fallback"), 1);

        assert_eq!(dense_list.sorted_entries(), sparse_list.sorted_entries());
        assert_eq!(
            dense_scratch.last_events(),
            sparse_scratch.last_events(),
            "state representation must not change the event schedule"
        );
    }

    #[test]
    fn semi_join_is_bit_identical_to_event_loop() {
        let a = random_arena(31, 110, 36, 9);
        let b = random_arena(47, 85, 36, 9);
        let mut killed = PairSet::new();
        killed.insert(2, 9);
        killed.insert(40, 11);
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let seed = [(0.8, pair_key(7, 3)), (0.35, pair_key(12, 12))];
        for m in [
            SetMeasure::Jaccard,
            SetMeasure::Cosine,
            SetMeasure::Dice,
            SetMeasure::Overlap,
        ] {
            for (k, q) in [(10, 1), (60, 1), (10, 2), (25, 3)] {
                for seeds in [&seed[..], &[]] {
                    let params = SsjParams { k, q, measure: m };
                    let baseline = topk_join(inst, params, &ExactScorer(m), seeds, None);
                    for post_side in [0u8, 1] {
                        // Cover the dense and the sparse state table.
                        for cap in [0usize, 8] {
                            let mut scratch = JoinScratch::new();
                            scratch.set_dense_cap(cap);
                            let semi = topk_semi_join(
                                inst,
                                params,
                                &ExactScorer(m),
                                seeds,
                                None,
                                &mut scratch,
                                post_side,
                            );
                            assert_eq!(
                                baseline.sorted_entries(),
                                semi.sorted_entries(),
                                "{m:?} k={k} q={q} post_side={post_side} cap={cap}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn semi_join_handles_empty_and_masked_records() {
        // Empty records on both sides (as masked delta views produce)
        // must be skipped without disturbing discovery.
        let a = arena(&[&[], &[1, 2, 3], &[], &[2, 5, 8]]);
        let b = arena(&[&[1, 2, 4], &[], &[2, 5, 9], &[]]);
        let killed = PairSet::new();
        let inst = SsjInstance {
            records_a: &a,
            records_b: &b,
            killed: &killed,
        };
        let params = SsjParams {
            k: 5,
            q: 1,
            measure: SetMeasure::Jaccard,
        };
        let baseline = topk_join(inst, params, &ExactScorer(SetMeasure::Jaccard), &[], None);
        for post_side in [0u8, 1] {
            let mut scratch = JoinScratch::new();
            let semi = topk_semi_join(
                inst,
                params,
                &ExactScorer(SetMeasure::Jaccard),
                &[],
                None,
                &mut scratch,
                post_side,
            );
            assert_eq!(baseline.sorted_entries(), semi.sorted_entries());
        }
    }
}
