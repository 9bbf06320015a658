//! Joint execution of top-k joins across all configs (§4.2).
//!
//! Two cooperating mechanisms from the paper:
//!
//! * **Top-k list seeding** — a child config re-scores its parent's
//!   finished top-k list under its own config and starts from it,
//!   raising the pruning threshold immediately.
//! * **One config per core** — configs are processed breadth-first by a
//!   pool of workers; splitting a single config across cores suffers from
//!   skew (§4.2), so parallelism is across configs.
//!
//! Every pair is scored by one exact, gated kernel: the merged-multiset
//! overlap of the pair's config records, aborted as soon as it cannot
//! beat the config's live top-k threshold. The paper's per-attribute-pair
//! overlap database `H` is not implemented: on the committed profiles its
//! bookkeeping cost more than the merges it saved, and its decomposed
//! sum overestimates overlaps whenever a token repeats across attributes
//! (see DESIGN.md, "Joint execution").
//!
//! # Determinism
//!
//! Only seeding involves a parent. The worker that claims a config with
//! seeding on **waits for the parent config to finish**
//! ([`std::sync::OnceLock::wait`]) and seeds from its complete, frozen
//! list instead of whatever partial state happens to exist. Combined with
//! the canonical [`TopKList`] order and the deterministic `q` selection
//! in [`select_q`](crate::ssj::select_q), `run_joint` produces a
//! **bit-identical** [`JointOutput`] at every thread and shard count.
//!
//! The wait cannot deadlock: configs are claimed in increasing index
//! order from one atomic counter and a parent's index is always smaller
//! than its child's, so the smallest unfinished config's parent is
//! already finished and its worker can always make progress.

use crate::config::{Config, ConfigTree};
use crate::ssj::{
    select_q_cached, topk_join_sharded, topk_join_with_scratch, ExactScorer, JoinScratch,
    JoinScratchPool, PairScorer, ScoreCache, ScoreOutcome, SsjInstance, SsjParams, TopKList,
};
use mc_strsim::arena::RecordArena;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::measures::{overlap_bound_key, required_overlap_keyed, SetMeasure, Split};
use mc_table::hash::FxHashMap;
use mc_table::{split_pair_key, PairSet, TupleId};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-gate memo of [`required_overlap_keyed`]: the bound collapses to a
/// function of one small scalar per measure (see [`overlap_bound_key`]),
/// and the gate — the config's top-k threshold — changes only when the
/// list improves, orders of magnitude more rarely than pairs are scored.
struct BoundMemo {
    gate: f64,
    by_key: Vec<u32>,
}

/// Keys above this fall back to the direct computation (the table would
/// stop being "tiny"); record-length sums and products in practice sit
/// far below it.
const BOUND_MEMO_MAX: usize = 1 << 12;

impl Default for BoundMemo {
    fn default() -> Self {
        BoundMemo {
            gate: f64::NEG_INFINITY,
            by_key: Vec::new(),
        }
    }
}

impl BoundMemo {
    #[inline]
    fn required(&mut self, measure: SetMeasure, gate: f64, la: usize, lb: usize) -> usize {
        let key = overlap_bound_key(measure, la, lb);
        if key >= BOUND_MEMO_MAX {
            return required_overlap_keyed(measure, gate, key);
        }
        if self.gate != gate {
            self.gate = gate;
            self.by_key.clear();
        }
        if self.by_key.len() <= key {
            self.by_key.resize(key + 1, u32::MAX);
        }
        let slot = &mut self.by_key[key];
        if *slot == u32::MAX {
            *slot = required_overlap_keyed(measure, gate, key) as u32;
        }
        *slot as usize
    }
}

/// The joint stage's scorer: the exact gated kernel, with the required
/// overlap served from a per-gate memo and, on the root config, the
/// prelude score cache in front.
///
/// Scorers are deliberately not `Sync`: each worker (or shard) owns one
/// and tallies its attempts in a plain cell — no atomic traffic per
/// attempt — flushing the tally into the run-wide sink on drop.
struct JointScorer<'a> {
    measure: SetMeasure,
    /// The prelude-populated score cache (root config only; see
    /// [`run_joint_with_arenas`]).
    score_cache: Option<&'a ScoreCache>,
    /// Scoring attempts since construction.
    attempts: Cell<usize>,
    /// The run-wide attempts sink `attempts` flushes into on drop.
    attempts_sink: &'a AtomicUsize,
    /// Per-gate required-overlap memo.
    bound_memo: RefCell<BoundMemo>,
}

impl<'a> JointScorer<'a> {
    fn new(
        measure: SetMeasure,
        score_cache: Option<&'a ScoreCache>,
        attempts_sink: &'a AtomicUsize,
    ) -> Self {
        JointScorer {
            measure,
            score_cache,
            attempts: Cell::new(0),
            attempts_sink,
            bound_memo: RefCell::new(BoundMemo::default()),
        }
    }
}

impl Drop for JointScorer<'_> {
    fn drop(&mut self) {
        self.attempts_sink
            .fetch_add(self.attempts.get(), Ordering::Relaxed);
    }
}

impl PairScorer for JointScorer<'_> {
    fn score(&self, a: TupleId, b: TupleId, ra: &[u32], rb: &[u32]) -> f64 {
        // A gate of −1 can never refute, so the gated path degenerates to
        // exact scoring (one implementation, one score path).
        match self.score_above(a, b, ra, rb, Split::WHOLE, -1.0) {
            ScoreOutcome::Scored(s) | ScoreOutcome::Cached(s) => s,
            ScoreOutcome::Refuted => unreachable!("a −1 gate never refutes"),
        }
    }

    fn score_above(
        &self,
        a: TupleId,
        b: TupleId,
        ra: &[u32],
        rb: &[u32],
        split: Split,
        gate: f64,
    ) -> ScoreOutcome {
        self.attempts.set(self.attempts.get() + 1);
        if let Some(s) = self
            .score_cache
            .and_then(|cache| cache.get(mc_table::pair_key(a, b)))
        {
            return ScoreOutcome::Cached(s);
        }
        // Same kernel as `SetMeasure::score_above`, with the required
        // overlap served from the per-gate memo (bit-identical boundary;
        // see `required_overlap_keyed`).
        let o_min = self
            .bound_memo
            .borrow_mut()
            .required(self.measure, gate, ra.len(), rb.len());
        match split.overlap_with_bound(ra, rb, o_min) {
            Some(o) => ScoreOutcome::Scored(self.measure.from_overlap(o, ra.len(), rb.len())),
            None => ScoreOutcome::Refuted,
        }
    }
}

/// How QJoin's `q` is chosen.
#[derive(Debug, Clone, Copy)]
pub enum QStrategy {
    /// Use a fixed `q` (1 = TopKJoin behaviour).
    Fixed(usize),
    /// Race `q ∈ {1, …, max_q}` with a `prelude_k` join on the root
    /// config and use the winner everywhere (§4.1's empirical selection).
    Auto {
        /// Largest q to try.
        max_q: usize,
        /// Prelude list size (the paper uses 50).
        prelude_k: usize,
    },
}

/// Parameters of the joint execution.
#[derive(Debug, Clone, Copy)]
pub struct JointParams {
    /// Top-k list size per config.
    pub k: usize,
    /// Similarity measure.
    pub measure: SetMeasure,
    /// QJoin q selection.
    pub q: QStrategy,
    /// Worker threads. `Default` resolves to the machine's available
    /// parallelism; [`run_joint`] still tolerates an explicit 0 as "all
    /// cores", but `DebuggerParams::validate` rejects it.
    pub threads: usize,
    /// Record-range shards per config join. 1 (the default) keeps the
    /// paper's one-config-per-core schedule; above 1, configs run
    /// **sequentially** in tree order and each join is split into this
    /// many A-record ranges executed by up to [`JointParams::threads`]
    /// workers (`crate::ssj::topk_join_sharded`) — the right trade on
    /// huge inputs whose root join dwarfs the rest of the tree. Results
    /// are bit-identical at every shard count.
    pub shards: usize,
    /// Enable parent→child top-k list seeding. Result-neutral at
    /// `q = 1`; with `q > 1` a seed can keep a pair below the child's
    /// q-overlap floor in its list.
    pub reuse_topk: bool,
    /// Clamp the effective shard count to the machine's available
    /// parallelism (default `true`): the executor runs `min(shards,
    /// cores)`. More shards than cores only adds scratch/merge overhead —
    /// the scale bench measured a 0.66× *slowdown* at 8 shards on a
    /// 1-core host. Results are bit-identical at every shard count, so
    /// the clamp never changes output — benches that record
    /// shard-dependent work counters opt out for reproducibility.
    pub clamp_shards: bool,
}

impl Default for JointParams {
    fn default() -> Self {
        JointParams {
            k: 1000,
            measure: SetMeasure::Jaccard,
            q: QStrategy::Fixed(1),
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
            shards: 1,
            reuse_topk: true,
            clamp_shards: true,
        }
    }
}

/// Result of the joint execution.
///
/// Wall-clock timing lives in the observability layer: the execution is
/// wrapped in an `mc.core.joint.run` span (and each config in a labeled
/// `mc.core.joint.config` span), so read durations from a
/// [`mc_obs::MetricsSnapshot`] delta instead of an ad-hoc field.
pub struct JointOutput {
    /// Configs in tree order.
    pub configs: Vec<Config>,
    /// One top-k list per config (same order).
    pub lists: Vec<TopKList>,
    /// Always 0: there is no overlap database to reuse scores from. Kept
    /// (with the `mc.core.joint.reuse_hits` counter) so readers of the
    /// paper's hit/miss accounting keep working.
    pub reuse_hits: usize,
    /// Scoring attempts: every pair handed to the joint scorer, each one
    /// computed fresh by the exact kernel or served from the prelude
    /// score cache (also the `mc.core.joint.reuse_misses` counter).
    pub reuse_misses: usize,
    /// The q actually used.
    pub q_used: usize,
}

/// Resolves the requested worker-thread count against the machine and
/// the number of configs.
fn resolve_threads(requested: usize, n_configs: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    } else {
        requested
    }
    .min(n_configs)
    .max(1)
}

/// Materializes both sides' flat record arenas for every config, in
/// parallel, so workers share them by reference (no per-worker clones).
///
/// Public so warm-start callers (`mc-store`) can build — or restore —
/// arenas themselves and hand them to [`run_joint_with_arenas`].
pub fn build_arenas(
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    configs: &[Config],
    threads: usize,
) -> Vec<(RecordArena, RecordArena)> {
    let _span = mc_obs::span!("mc.core.joint.build_arenas");
    let slots: Vec<OnceLock<(RecordArena, RecordArena)>> =
        (0..configs.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let obs = mc_obs::ObsContext::current();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(configs.len()).max(1) {
            scope.spawn(|| {
                let _obs = obs.attach();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= configs.len() {
                        break;
                    }
                    let idx = configs[i].positions();
                    let pair = (
                        RecordArena::from_tokenized(tok_a, &idx),
                        RecordArena::from_tokenized(tok_b, &idx),
                    );
                    slots[i].set(pair).expect("each slot filled once");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("all arenas built"))
        .collect()
}

/// Runs one top-k join per config of the tree, jointly.
///
/// `tok_a`/`tok_b` are the promising-attribute tokenizations (shared rank
/// space); `killed` is the blocker output `C`. Builds the per-config
/// record arenas itself; warm-start callers that restored arenas from an
/// artifact store should use [`run_joint_with_arenas`] instead.
pub fn run_joint(
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    killed: &PairSet,
    tree: &ConfigTree,
    params: JointParams,
) -> JointOutput {
    let configs = tree.configs();
    let threads = resolve_threads(params.threads, configs.len());
    let arenas = build_arenas(tok_a, tok_b, &configs, threads);
    run_joint_with_arenas(tok_a, tok_b, killed, tree, params, &arenas)
}

/// Runs the joint execution over pre-built per-config record arenas
/// (`arenas[i]` = `(side A, side B)` for config `i` in tree order, as
/// [`build_arenas`] produces them). The arenas carry every token the
/// join reads, so the tokenized tables are not consulted.
///
/// The output is bit-identical at every thread and shard count (see the
/// module docs on determinism).
pub fn run_joint_with_arenas(
    _tok_a: &TokenizedTable,
    _tok_b: &TokenizedTable,
    killed: &PairSet,
    tree: &ConfigTree,
    params: JointParams,
    arenas: &[(RecordArena, RecordArena)],
) -> JointOutput {
    let _run_span = mc_obs::span!("mc.core.joint.run");
    let configs = tree.configs();
    let n = configs.len();
    assert_eq!(arenas.len(), n, "one arena pair per config, in tree order");

    // Shard clamp (`JointParams::clamp_shards`): more shards than cores
    // is pure overhead, and the output is the same at every shard count.
    let shards_requested = params.shards.max(1);
    let shards = if params.clamp_shards {
        let cores = std::thread::available_parallelism().map_or(shards_requested, |p| p.get());
        shards_requested.min(cores)
    } else {
        shards_requested
    };
    mc_obs::gauge!("mc.core.joint.shards_effective").set(shards as i64);
    if shards < shards_requested {
        mc_obs::counter!("mc.core.joint.shards_clamped").inc();
    }

    let threads = resolve_threads(params.threads, n);

    // q selection on the root config. With `Auto`, every prelude join
    // populates a pair → score cache over the root arenas; the root
    // config's main run consumes it (the preludes already paid for those
    // merges, and their scores are q-independent).
    let (root_a, root_b) = &arenas[0];
    let (q_used, score_cache) = match params.q {
        QStrategy::Fixed(q) => (q.max(1), None),
        QStrategy::Auto { max_q, prelude_k } => {
            let cache = ScoreCache::new();
            let q = select_q_cached(
                SsjInstance {
                    records_a: root_a,
                    records_b: root_b,
                    killed,
                },
                params.measure,
                max_q,
                prelude_k,
                Some(&cache),
            );
            (q, Some(cache))
        }
    };

    // A config's final sorted entries, set exactly once when its join
    // completes. Seeded children *wait* on their parent's slot rather
    // than peeking, which is what makes the output schedule-independent
    // — see the module docs.
    let finished: Vec<OnceLock<Vec<(f64, u64)>>> = (0..n).map(|_| OnceLock::new()).collect();
    let lists: Vec<Mutex<Option<TopKList>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let attempts = AtomicUsize::new(0);

    // Under sharding, parallelism moves inside each join: one config at
    // a time, `threads` workers over its record-range shards. The
    // scratch pool is shared by every config's sharded join — building
    // a fresh `JoinScratch` per shard per config was the scale bench's
    // dominant allocation source (each scratch's dense postings index
    // is one `Vec` per token rank).
    let workers = if shards > 1 { 1 } else { threads };
    let scratch_pool = (shards > 1).then(|| JoinScratchPool::new(threads.clamp(1, shards)));

    mc_obs::gauge!("mc.core.joint.workers").set(threads as i64);
    mc_obs::gauge!("mc.core.joint.q_used").set(q_used as i64);
    let obs = mc_obs::ObsContext::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _obs = obs.attach();
                // Per-thread work statistics, flushed when the worker
                // retires. The join scratch is reused across every config
                // this worker processes, so steady state allocates
                // nothing.
                let mut my_configs = 0u64;
                let mut my_seeded = 0u64;
                let mut scratch = JoinScratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let _config_span = mc_obs::span!("mc.core.joint.config", i as u64);
                    my_configs += 1;
                    let (records_a, records_b) = &arenas[i];
                    // Determinism gate: seed only from the parent's
                    // complete, frozen list.
                    let parent_final: Option<&Vec<(f64, u64)>> = match tree.parent(i) {
                        Some(p) if params.reuse_topk => Some(finished[p].wait()),
                        _ => None,
                    };
                    // The prelude cache is keyed on the *root* arenas, so
                    // only the root config may consume it.
                    let cache = if i == 0 { score_cache.as_ref() } else { None };
                    let scorer = JointScorer::new(params.measure, cache, &attempts);
                    // Top-k seeding: adopt the parent's finished list,
                    // re-scored under this config.
                    let seed: Vec<(f64, u64)> = parent_final
                        .map(|entries| {
                            entries
                                .iter()
                                .map(|&(_, key)| {
                                    let (a, b) = split_pair_key(key);
                                    let s = scorer.score(
                                        a,
                                        b,
                                        records_a.record(a),
                                        records_b.record(b),
                                    );
                                    (s, key)
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    my_seeded += seed.len() as u64;
                    let inst = SsjInstance {
                        records_a,
                        records_b,
                        killed,
                    };
                    let ssj_params = SsjParams {
                        k: params.k,
                        q: q_used,
                        measure: params.measure,
                    };
                    let list = if shards > 1 {
                        topk_join_sharded(
                            inst,
                            ssj_params,
                            |_| JointScorer::new(params.measure, cache, &attempts),
                            &seed,
                            None,
                            shards,
                            threads,
                            scratch_pool.as_ref(),
                        )
                    } else {
                        topk_join_with_scratch(inst, ssj_params, &scorer, &seed, None, &mut scratch)
                    };
                    finished[i]
                        .set(list.sorted_entries())
                        .expect("each config finishes exactly once");
                    *lists[i].lock() = Some(list);
                }
                mc_obs::counter!("mc.core.joint.configs_executed").add(my_configs);
                mc_obs::counter!("mc.core.joint.seeded_pairs").add(my_seeded);
                mc_obs::histogram!("mc.core.joint.configs_per_thread").record(my_configs);
            });
        }
    });
    let attempts = attempts.into_inner();
    mc_obs::counter!("mc.core.joint.reuse_hits").add(0);
    mc_obs::counter!("mc.core.joint.reuse_misses").add(attempts as u64);

    JointOutput {
        configs,
        lists: lists
            .into_iter()
            .map(|m| m.into_inner().expect("all configs ran"))
            .collect(),
        reuse_hits: 0,
        reuse_misses: attempts,
        q_used,
    }
}

/// Baseline for the §6.5 ablation: each config executed independently
/// (no list seeding) on a single thread with the exact scorer.
pub fn run_individual(
    tok_a: &TokenizedTable,
    tok_b: &TokenizedTable,
    killed: &PairSet,
    tree: &ConfigTree,
    k: usize,
    measure: SetMeasure,
) -> JointOutput {
    let _span = mc_obs::span!("mc.core.joint.run_individual");
    let configs = tree.configs();
    let scorer = ExactScorer(measure);
    let mut scratch = JoinScratch::new();
    let lists: Vec<TopKList> = configs
        .iter()
        .map(|&config| {
            let idx = config.positions();
            let records_a = RecordArena::from_tokenized(tok_a, &idx);
            let records_b = RecordArena::from_tokenized(tok_b, &idx);
            topk_join_with_scratch(
                SsjInstance {
                    records_a: &records_a,
                    records_b: &records_b,
                    killed,
                },
                SsjParams { k, q: 1, measure },
                &scorer,
                &[],
                None,
                &mut scratch,
            )
        })
        .collect();
    JointOutput {
        configs,
        lists,
        reuse_hits: 0,
        reuse_misses: 0,
        q_used: 1,
    }
}

/// The union `E` of all top-k lists: `(pair key, per-config scores)` with
/// `None` where a pair is absent from a config's list. Order of pairs is
/// deterministic (descending best score, then key).
pub struct CandidateUnion {
    /// Pair keys.
    pub pairs: Vec<u64>,
    /// `scores[c][i]` = score of `pairs[i]` in config `c`'s list.
    pub scores: Vec<Vec<Option<f64>>>,
}

impl CandidateUnion {
    /// Builds the union from per-config lists.
    pub fn build(lists: &[TopKList]) -> Self {
        // `sorted_entries` re-sorts the list's heap on every call — do it
        // exactly once per list and reuse for both passes.
        let entries: Vec<Vec<(f64, u64)>> = lists.iter().map(|l| l.sorted_entries()).collect();
        let mut best: FxHashMap<u64, f64> = FxHashMap::default();
        for l in &entries {
            for &(s, p) in l {
                let e = best.entry(p).or_insert(f64::MIN);
                if s > *e {
                    *e = s;
                }
            }
        }
        let mut pairs: Vec<(f64, u64)> = best.into_iter().map(|(p, s)| (s, p)).collect();
        pairs.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let pairs: Vec<u64> = pairs.into_iter().map(|(_, p)| p).collect();
        let index: FxHashMap<u64, usize> = pairs.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let mut scores = vec![vec![None; pairs.len()]; lists.len()];
        for (c, l) in entries.iter().enumerate() {
            for &(s, p) in l {
                scores[c][index[&p]] = Some(s);
            }
        }
        CandidateUnion { pairs, scores }
    }

    /// Number of candidate pairs `|E|`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no candidates were retrieved.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigGenerator, ConfigGeneratorParams};
    use mc_strsim::tokenize::Tokenizer;
    use mc_table::{Schema, Table, Tuple};
    use std::sync::Arc;

    /// Builds a small synthetic pair of tables with 3 promising attrs.
    fn fixture() -> (Table, Table) {
        let schema = Arc::new(Schema::from_names(["x", "y", "z"]));
        let mut a = Table::new("A", Arc::clone(&schema));
        let mut b = Table::new("B", schema);
        for i in 0..60u32 {
            a.push(Tuple::from_present([
                format!("xa{} xb{} xc{}", i, i % 7, i % 3),
                format!("ya{} yb{}", i % 5, i),
                format!("za{} zb{} zc{} zd{}", i, i % 2, i % 11, i % 4),
            ]));
            b.push(Tuple::from_present([
                format!("xa{} xb{} xq{}", i, i % 7, i % 4),
                format!("ya{} yb{}", i % 5, i),
                format!("za{} zb{} zq{} zd{}", i, i % 2, i % 5, i % 4),
            ]));
        }
        (a, b)
    }

    fn tree_for(a: &Table, b: &Table) -> (TokenizedTable, TokenizedTable, ConfigTree) {
        let generator = ConfigGenerator::new(ConfigGeneratorParams::default());
        let promising = generator.promising(a, b);
        let tree = generator.build_tree(&promising);
        let (ta, tb, _) = TokenizedTable::build_pair(a, b, &promising.attrs, Tokenizer::Word);
        (ta, tb, tree)
    }

    #[test]
    fn joint_equals_individual_lists() {
        // At q = 1 seeding is result-neutral and every pair is scored by
        // the exact kernel, so each joint list is the individual one, bit
        // for bit.
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        let indiv = run_individual(&ta, &tb, &killed, &tree, 20, SetMeasure::Jaccard);
        for reuse_topk in [true, false] {
            for threads in [1usize, 2] {
                let joint = run_joint(
                    &ta,
                    &tb,
                    &killed,
                    &tree,
                    JointParams {
                        k: 20,
                        threads,
                        reuse_topk,
                        ..Default::default()
                    },
                );
                assert_eq!(
                    run_bits(&joint),
                    run_bits(&indiv),
                    "reuse_topk={reuse_topk} threads={threads}"
                );
                assert_eq!(joint.reuse_hits, 0);
                assert!(joint.reuse_misses > 0, "attempts are counted");
            }
        }
    }

    #[test]
    fn killed_pairs_never_appear() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        // Kill the identity pairs.
        let mut killed = PairSet::new();
        for i in 0..60u32 {
            killed.insert(i, i);
        }
        let joint = run_joint(
            &ta,
            &tb,
            &killed,
            &tree,
            JointParams {
                k: 50,
                ..Default::default()
            },
        );
        for l in &joint.lists {
            for (_, key) in l.sorted_entries() {
                let (x, y) = split_pair_key(key);
                assert_ne!(x, y, "killed pair leaked into a top-k list");
            }
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        // Parent-gated seeding plus deterministic q selection make the
        // output *bit-identical* across worker counts: same q, same
        // pairs, same f64 score bits — with seeding on and q chosen
        // empirically.
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let out = run_joint(
                &ta,
                &tb,
                &killed,
                &tree,
                JointParams {
                    k: 12,
                    threads,
                    q: QStrategy::Auto {
                        max_q: 3,
                        prelude_k: 5,
                    },
                    ..Default::default()
                },
            );
            runs.push((threads, run_bits(&out)));
        }
        for (threads, bits) in &runs[1..] {
            assert_eq!(&runs[0].1, bits, "threads={threads}");
        }
    }

    /// Bit patterns of every list of a run (q_used + score bits + keys).
    fn run_bits(out: &JointOutput) -> (usize, Vec<Vec<(u64, u64)>>) {
        (
            out.q_used,
            out.lists
                .iter()
                .map(|l| {
                    l.sorted_entries()
                        .into_iter()
                        .map(|(s, key)| (s.to_bits(), key))
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn sharded_runs_are_bit_identical_across_shards() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        let base = run_joint(
            &ta,
            &tb,
            &killed,
            &tree,
            JointParams {
                k: 15,
                threads: 2,
                ..Default::default()
            },
        );
        let base_bits = run_bits(&base);
        for shards in [2usize, 4, 16] {
            for threads in [1usize, 3] {
                let out = run_joint(
                    &ta,
                    &tb,
                    &killed,
                    &tree,
                    JointParams {
                        k: 15,
                        threads,
                        shards,
                        ..Default::default()
                    },
                );
                assert_eq!(
                    base_bits,
                    run_bits(&out),
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn shard_clamp_caps_shards_at_cores_without_changing_output() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let shards = cores + 3;
        let mut runs = Vec::new();
        for clamp_shards in [true, false] {
            let ctx = mc_obs::ObsContext::session();
            let out = {
                let _obs = ctx.attach();
                run_joint(
                    &ta,
                    &tb,
                    &killed,
                    &tree,
                    JointParams {
                        k: 15,
                        threads: 2,
                        shards,
                        clamp_shards,
                        ..Default::default()
                    },
                )
            };
            let snap = ctx.snapshot();
            runs.push((
                run_bits(&out),
                snap.gauge("mc.core.joint.shards_effective"),
                snap.counter("mc.core.joint.shards_clamped"),
            ));
        }
        let (on, off) = (&runs[0], &runs[1]);
        assert_eq!(on.0, off.0, "the clamp never changes output");
        assert_eq!(on.1, shards.min(cores) as i64);
        assert_eq!(on.2, 1);
        assert_eq!(off.1, shards as i64, "clamp off runs every shard");
        assert_eq!(off.2, 0);
    }

    #[test]
    fn candidate_union_collects_all_lists() {
        let mut l1 = TopKList::new(3);
        l1.insert(0.9, 10);
        l1.insert(0.5, 20);
        let mut l2 = TopKList::new(3);
        l2.insert(0.7, 20);
        l2.insert(0.6, 30);
        let e = CandidateUnion::build(&[l1, l2]);
        assert_eq!(e.len(), 3);
        // Ordered by best score: 10 (0.9), 20 (0.7), 30 (0.6).
        assert_eq!(e.pairs, vec![10, 20, 30]);
        assert_eq!(e.scores[0][0], Some(0.9));
        assert_eq!(e.scores[0][1], Some(0.5));
        assert_eq!(e.scores[0][2], None);
        assert_eq!(e.scores[1][1], Some(0.7));
    }

    #[test]
    fn auto_q_runs() {
        let (a, b) = fixture();
        let (ta, tb, tree) = tree_for(&a, &b);
        let killed = PairSet::new();
        let out = run_joint(
            &ta,
            &tb,
            &killed,
            &tree,
            JointParams {
                k: 10,
                q: QStrategy::Auto {
                    max_q: 3,
                    prelude_k: 5,
                },
                ..Default::default()
            },
        );
        assert!((1..=3).contains(&out.q_used));
        assert_eq!(out.lists.len(), tree.len());
    }

    #[test]
    fn joint_scorer_split_verification_matches_whole_records() {
        // Positional verification through the memoized joint kernel: a
        // split after the `occ`-th copy of any shared token must give the
        // whole-record outcome and score bit for bit, at every gate.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let recs: Vec<Vec<u32>> = (0..40)
            .map(|_| {
                let mut r: Vec<u32> = (0..next(10)).map(|_| next(4) as u32).collect();
                r.sort_unstable();
                r
            })
            .collect();
        let bits = |o: ScoreOutcome| match o {
            ScoreOutcome::Scored(s) => (0, s.to_bits()),
            ScoreOutcome::Cached(s) => (1, s.to_bits()),
            ScoreOutcome::Refuted => (2, 0),
        };
        let sink = AtomicUsize::new(0);
        for m in SetMeasure::ALL {
            let scorer = JointScorer::new(m, None, &sink);
            for ra in &recs {
                for rb in &recs {
                    let exact = m.score(ra, rb);
                    for gate in [-1.0, 0.0, 0.3, exact] {
                        let whole = bits(scorer.score_above(0, 0, ra, rb, Split::WHOLE, gate));
                        for tok in 0..4u32 {
                            let fa = ra.partition_point(|&t| t < tok);
                            let fb = rb.partition_point(|&t| t < tok);
                            let ca = ra.partition_point(|&t| t <= tok) - fa;
                            let cb = rb.partition_point(|&t| t <= tok) - fb;
                            for occ in 1..=ca.min(cb) {
                                let split = Split {
                                    ia: fa + occ,
                                    ib: fb + occ,
                                    common: mc_strsim::multiset_overlap(
                                        &ra[..fa + occ],
                                        &rb[..fb + occ],
                                    ),
                                };
                                let got = bits(scorer.score_above(0, 0, ra, rb, split, gate));
                                assert_eq!(got, whole, "{m:?} gate={gate} {ra:?} {rb:?} {split:?}");
                            }
                        }
                    }
                }
            }
        }
    }
}
