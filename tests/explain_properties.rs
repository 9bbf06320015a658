//! Randomized equivalence proofs for the batch explain engine.
//!
//! The `DiagnosisKernel` is an optimization, not a reinterpretation: on
//! any pair of tables it must produce **bit-identical** diagnoses,
//! pervasiveness groups and similar-pair lists to the per-pair path
//! (`explain::explain_match`, `pervasive::pervasiveness`,
//! `pervasive::similar_pairs`). These tests draw tables from a value
//! pool engineered to hit every [`Diagnosis`] class — including unicode
//! lowercase expansion and trim-empty edge cases — and compare the two
//! paths cell by cell across seeds and thread counts. A kernel built
//! over the rows a pair list touches (`DiagnosisKernel::build_for`, the
//! pipeline's build) must match the all-rows build exactly, refuse rows
//! outside its cover, and keep a session's interning proportional to
//! `union ∪ confirmed`. A final test drives the `explain`/`pervade`
//! verbs over a live daemon and checks the `mc-explain/v1` payload
//! against the session's own report.

use matchcatcher::debugger::{DebugReport, DebuggerParams, MatchCatcher};
use matchcatcher::explain::{explain_match, Diagnosis};
use matchcatcher::joint::{CandidateUnion, QStrategy};
use matchcatcher::oracle::GoldOracle;
use matchcatcher::pervasive;
use matchcatcher::{DebugSession, DiagnosisKernel};
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::perturb_killed;
use mc_datagen::profiles::DatasetProfile;
use mc_obs::{JsonValue, ObsContext};
use mc_serve::{Client, Daemon, ServeParams};
use mc_table::{pair_key, split_pair_key, AttrId, Schema, Table, TableDelta, Tuple, TupleId};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Value pool engineered so random cell pairs cover every diagnosis
/// class: exact repeats, case/punctuation variants, word reorders,
/// strict token subsets, initialisms and prefixes, one-edit
/// misspellings, close numerics, missing/blank values, unicode
/// lowercase expansion ('İ' → "i" + combining dot), and plain
/// disagreements.
const POOL: &[Option<&str>] = &[
    Some("dave smith"),
    Some("Dave Smith"),
    Some("Dave, Smith!"),
    Some("smith dave"),
    Some("dave"),
    Some("dave smith jr"),
    Some("ds"),
    Some("da"),
    Some("dave smyth"),
    Some("International Business Machines"),
    Some("IBM"),
    Some("İstanbul Grill"),
    Some("istanbul grill"),
    Some("100"),
    Some("103"),
    Some("97.5"),
    Some("250"),
    Some(""),
    Some("   "),
    Some("completely unrelated value"),
    None,
];

fn random_table(name: &str, schema: &Arc<Schema>, rows: usize, rng: &mut StdRng) -> Table {
    let mut t = Table::new(name, Arc::clone(schema));
    for _ in 0..rows {
        let row: Vec<Option<String>> = (0..schema.len())
            .map(|_| POOL[rng.random_range(0..POOL.len())].map(str::to_string))
            .collect();
        t.push(Tuple::new(row));
    }
    t
}

/// A synthetic candidate union: a random subset of the cross product,
/// with two configs' worth of random scores (some absent).
fn random_union(n_a: usize, n_b: usize, frac: f64, rng: &mut StdRng) -> CandidateUnion {
    let mut pairs = Vec::new();
    for x in 0..n_a {
        for y in 0..n_b {
            if rng.random_bool(frac) {
                pairs.push(pair_key(x as TupleId, y as TupleId));
            }
        }
    }
    let scores = (0..2)
        .map(|_| {
            pairs
                .iter()
                .map(|_| rng.random_bool(0.8).then(|| rng.random_range(0.0..1.0)))
                .collect()
        })
        .collect();
    CandidateUnion { pairs, scores }
}

#[test]
fn batch_diagnoses_equal_per_pair_oracle_on_every_cell() {
    let schema = Arc::new(Schema::from_names(["name", "city", "age"]));
    let mut covered: HashSet<std::mem::Discriminant<Diagnosis>> = HashSet::new();
    for seed in [1u64, 42, 0xfeed] {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_table("A", &schema, 30, &mut rng);
        let b = random_table("B", &schema, 30, &mut rng);
        for threads in [1usize, 4] {
            let kernel = DiagnosisKernel::build(&a, &b, threads);
            for x in 0..a.len() as TupleId {
                for y in 0..b.len() as TupleId {
                    let batch = kernel.diagnose_pair(x, y);
                    let oracle = explain_match(&a, &b, x, y);
                    assert_eq!(oracle.pair, (x, y));
                    assert_eq!(
                        batch, oracle.per_attr,
                        "seed {seed} threads {threads} pair ({x},{y}): \
                         batch and per-pair diagnoses diverge"
                    );
                    for &(_, d) in &batch {
                        covered.insert(std::mem::discriminant(&d));
                    }
                }
            }
            let stats = kernel.stats();
            assert!(
                stats.cache_hits() > 0,
                "a pool-drawn table must produce repeated value pairs"
            );
        }
    }
    // The pool must actually exercise the whole cascade, or the
    // equivalence proof above is vacuous for the untested classes.
    let all = [
        Diagnosis::Exact,
        Diagnosis::CaseOrPunct,
        Diagnosis::MissingOneSide,
        Diagnosis::MissingBoth,
        Diagnosis::Abbreviation,
        Diagnosis::WordReorder,
        Diagnosis::TokenSubset,
        Diagnosis::SmallEdit(1),
        Diagnosis::NumericClose,
        Diagnosis::Different,
    ];
    for d in all {
        assert!(
            covered.contains(&std::mem::discriminant(&d)),
            "diagnosis class {d:?} never produced by the pool"
        );
    }
}

#[test]
fn batch_pervasiveness_and_similar_pairs_equal_slow_path() {
    let schema = Arc::new(Schema::from_names(["name", "city"]));
    for seed in [7u64, 0xbeef] {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_table("A", &schema, 25, &mut rng);
        let b = random_table("B", &schema, 25, &mut rng);
        let union = random_union(a.len(), b.len(), 0.3, &mut rng);
        // A few union pairs play the confirmed killed-off matches.
        let confirmed: Vec<(TupleId, TupleId)> = union
            .pairs
            .iter()
            .step_by(17)
            .map(|&k| split_pair_key(k))
            .collect();

        let kernel = DiagnosisKernel::build(&a, &b, 3);
        let fast = kernel.pervasiveness(&union, &confirmed);
        let slow = pervasive::pervasiveness(&a, &b, &union, &confirmed);
        assert_eq!(fast.len(), slow.len(), "seed {seed}: group counts diverge");
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.signature, s.signature, "seed {seed}");
            assert_eq!(f.pairs, s.pairs, "seed {seed}");
            assert_eq!(f.confirmed, s.confirmed, "seed {seed}");
        }

        for &m in confirmed.iter().take(3) {
            assert_eq!(
                kernel.similar_pairs(&union, m),
                pervasive::similar_pairs(&a, &b, &union, m),
                "seed {seed}: similar_pairs({m:?}) diverges"
            );
        }
    }
}

/// Distinct A rows and distinct B rows that `pairs` touch.
fn covered_rows(pairs: &[(TupleId, TupleId)]) -> (usize, usize) {
    let a: HashSet<TupleId> = pairs.iter().map(|p| p.0).collect();
    let b: HashSet<TupleId> = pairs.iter().map(|p| p.1).collect();
    (a.len(), b.len())
}

#[test]
fn build_for_matches_full_build_on_random_pair_subsets() {
    let schema = Arc::new(Schema::from_names(["name", "city", "age"]));
    for seed in [1u64, 42, 0xfeed] {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_table("A", &schema, 30, &mut rng);
        let b = random_table("B", &schema, 30, &mut rng);
        // Sparse enough that many rows stay outside the cover.
        let union = random_union(a.len(), b.len(), 0.03, &mut rng);
        let confirmed: Vec<(TupleId, TupleId)> = union
            .pairs
            .iter()
            .step_by(4)
            .map(|&k| split_pair_key(k))
            .collect();
        let pairs: Vec<(TupleId, TupleId)> =
            union.pairs.iter().map(|&k| split_pair_key(k)).collect();
        let (rows_a, rows_b) = covered_rows(&pairs);
        assert!(
            rows_a < a.len() && rows_b < b.len(),
            "seed {seed}: the subset must leave rows uncovered"
        );
        for threads in [1usize, 4] {
            let full = DiagnosisKernel::build(&a, &b, threads);
            let part = DiagnosisKernel::build_for(&a, &b, pairs.iter().copied(), threads);
            let explained = |k: &DiagnosisKernel| -> Vec<_> {
                k.explain_pairs(&confirmed)
                    .into_iter()
                    .map(|e| (e.pair, e.per_attr))
                    .collect()
            };
            assert_eq!(
                explained(&part),
                explained(&full),
                "seed {seed} threads {threads}: explain_pairs diverges"
            );
            let (pp, fp) = (
                part.pervasiveness(&union, &confirmed),
                full.pervasiveness(&union, &confirmed),
            );
            assert_eq!(pp.len(), fp.len(), "seed {seed} threads {threads}");
            for (p, f) in pp.iter().zip(&fp) {
                assert_eq!(p.signature, f.signature, "seed {seed} threads {threads}");
                assert_eq!(p.pairs, f.pairs, "seed {seed} threads {threads}");
                assert_eq!(p.confirmed, f.confirmed, "seed {seed} threads {threads}");
            }
            for &m in confirmed.iter().take(3) {
                assert_eq!(
                    part.similar_pairs(&union, m),
                    full.similar_pairs(&union, m),
                    "seed {seed} threads {threads}: similar_pairs({m:?}) diverges"
                );
            }
            let (ps, fs) = (part.stats(), full.stats());
            assert_eq!(ps.lookups, fs.lookups, "seed {seed} threads {threads}");
            assert_eq!(
                ps.cache_entries, fs.cache_entries,
                "seed {seed} threads {threads}"
            );
            assert!(
                ps.distinct_values <= (schema.len() * (rows_a + rows_b)) as u64,
                "seed {seed} threads {threads}: {} values interned for {rows_a}+{rows_b} rows",
                ps.distinct_values
            );
        }
    }
}

#[test]
#[should_panic(expected = "outside the rows this DiagnosisKernel was built over")]
fn diagnosing_an_uncovered_row_panics() {
    let schema = Arc::new(Schema::from_names(["name", "city"]));
    let mut a = Table::new("A", Arc::clone(&schema));
    let mut b = Table::new("B", Arc::clone(&schema));
    for _ in 0..3 {
        // Both cells missing: a silent fallback would say MissingBoth.
        a.push(Tuple::new(vec![None, None]));
        b.push(Tuple::new(vec![None, None]));
    }
    let kernel = DiagnosisKernel::build_for(&a, &b, [(0, 0), (1, 1)], 1);
    assert_eq!(kernel.diagnose_pair(1, 0)[0].1, Diagnosis::MissingBoth);
    kernel.diagnose_pair(2, 0);
}

/// Checks one session report's explain build against the rows of its
/// own `union ∪ confirmed`, rebuilt through the one-shot stages with
/// the session's normalized parameters.
fn assert_interning_proportional(session: &DebugSession, report: &DebugReport, what: &str) {
    let mc = MatchCatcher::new(session.params().clone());
    let (a, b) = (session.table_a(), session.table_b());
    let prepared = mc.prepare(a, b);
    let union = CandidateUnion::build(&mc.topk(&prepared, session.killed()).lists);
    assert_eq!(union.len(), report.e_size, "{what}: rebuilt union diverges");
    let mut pairs: Vec<(TupleId, TupleId)> =
        union.pairs.iter().map(|&k| split_pair_key(k)).collect();
    pairs.extend_from_slice(&report.confirmed_matches);
    let (rows_a, rows_b) = covered_rows(&pairs);
    let bound = (a.schema().len() * (rows_a + rows_b)) as u64;
    let interned = report.metrics.counter("mc.core.explain.values_interned");
    assert!(interned > 0, "{what}: the explain stage interned nothing");
    assert!(
        interned <= bound,
        "{what}: {interned} values interned for {rows_a}+{rows_b} rows of union ∪ confirmed \
         (bound {bound})"
    );
    // The bound must be tight enough to catch full-table interning.
    let full = DiagnosisKernel::build(a, b, 1).stats().distinct_values;
    assert!(bound < full, "{what}: bound {bound} ≥ full-table {full}");
}

#[test]
fn session_explain_interning_is_proportional_to_pairs_explained() {
    let ds = DatasetProfile::ZipfScale.generate_scaled(7, 0.01);
    let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
    let mut params = DebuggerParams::small();
    params.joint.k = 20;
    params.joint.q = QStrategy::Fixed(1);
    params.obs = ObsContext::session();
    let mc = MatchCatcher::new(params);
    let mut oracle = GoldOracle::exact(&ds.gold);
    let (mut session, start) = mc.start_session(ds.a, ds.b, killed, &mut oracle);
    assert_interning_proportional(&session, &start, "start_session");

    let mut rng = StdRng::seed_from_u64(0x9e0);
    let nk = perturb_killed(
        session.killed(),
        session.table_a().len() as u32,
        session.table_b().len() as u32,
        0.02,
        session.killed().len() / 50 + 1,
        &mut rng,
    );
    let rerun = session
        .rerun(
            &TableDelta::new(),
            &TableDelta::new(),
            Some(nk),
            &mut oracle,
        )
        .expect("killed-only rerun");
    assert_interning_proportional(&session, &rerun, "killed-only rerun");
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[test]
fn serve_explain_and_pervade_round_trip() {
    let daemon = Daemon::spawn(ServeParams::default()).expect("spawn");
    let mut client = Client::connect(daemon.addr(), Duration::from_secs(120)).expect("connect");
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "open".into()),
            ("profile", "fodors-zagats".into()),
            ("scale", JsonValue::Num(0.35)),
            ("seed", 11u64.into()),
            ("blocker_attr", 0u64.into()),
            ("q", 1u64.into()),
        ]))
        .expect("open");
    let session = resp.get("session").unwrap().as_u64().unwrap();
    let confirmed = resp
        .get("report")
        .unwrap()
        .get("confirmed")
        .unwrap()
        .as_array()
        .unwrap()
        .len() as u64;

    // explain: pages align with the report, every item carries the
    // mc-explain/v1 members, and gap = score − floor where both exist.
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "explain".into()),
            ("session", session.into()),
            ("offset", 0u64.into()),
            ("limit", 100u64.into()),
        ]))
        .expect("explain");
    assert_eq!(resp.get("schema").unwrap().as_str(), Some("mc-explain/v1"));
    assert_eq!(resp.get("total").unwrap().as_u64(), Some(confirmed));
    let items = resp.get("items").unwrap().as_array().unwrap();
    assert_eq!(items.len() as u64, confirmed.min(100));
    for item in items {
        let attrs = item.get("attrs").unwrap().as_array().unwrap();
        assert!(!attrs.is_empty());
        for a in attrs {
            assert!(a.get("diagnosis").unwrap().as_str().is_some());
            assert!(a.get("agreement").unwrap().as_bool().is_some());
        }
        for s in item.get("scores").unwrap().as_array().unwrap() {
            if let (Some(score), Some(floor)) = (
                s.get("score").and_then(JsonValue::as_f64),
                s.get("floor").and_then(JsonValue::as_f64),
            ) {
                let gap = s.get("gap").and_then(JsonValue::as_f64).unwrap();
                assert!((gap - (score - floor)).abs() < 1e-12, "gap ≠ score − floor");
            }
        }
    }

    // pervade: groups are sorted most-pervasive-first and their kill
    // counts never exceed the session's confirmed matches.
    let resp = client
        .call_ok(&obj(vec![
            ("verb", "pervade".into()),
            ("session", session.into()),
            ("limit", 50u64.into()),
        ]))
        .expect("pervade");
    assert_eq!(resp.get("schema").unwrap().as_str(), Some("mc-explain/v1"));
    assert!(resp.get("union_size").unwrap().as_u64().unwrap() > 0);
    let groups = resp.get("groups").unwrap().as_array().unwrap();
    assert!(!groups.is_empty(), "a lossy blocker must show problems");
    let mut prev: Option<(u64, u64)> = None;
    let mut kills_total = 0;
    for g in groups {
        let pairs = g.get("pairs").unwrap().as_u64().unwrap();
        let kills = g.get("kills").unwrap().as_u64().unwrap();
        assert!(kills <= pairs, "a group cannot kill more than it holds");
        assert!(!g.get("problems").unwrap().as_array().unwrap().is_empty());
        assert!(g.get("signature").unwrap().as_str().is_some());
        if let Some((pk, pp)) = prev {
            assert!(
                (kills, pairs) <= (pk, pp),
                "groups must be sorted most pervasive first"
            );
        }
        prev = Some((kills, pairs));
        kills_total += kills;
    }
    assert!(
        kills_total <= confirmed,
        "killed-match attributions exceed the confirmed count"
    );

    let (_, protocol_errors) = daemon.shutdown();
    assert_eq!(protocol_errors, 0);
}
