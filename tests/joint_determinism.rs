//! Exactness of the *joint* stage, in the style of `verifier_parallel.rs`:
//! with parent-gated seeding and deterministic empirical `q` selection,
//! `run_joint` must produce a bit-identical candidate union — same
//! `q_used`, same pairs, same `f64` score bit patterns — at every
//! worker-thread and shard count, and at `q = 1` its lists must be the
//! independently executed ones bit for bit.

use matchcatcher::config::ConfigGenerator;
use matchcatcher::debugger::{DebuggerParams, MatchCatcher};
use matchcatcher::joint::{run_individual, run_joint, CandidateUnion, JointParams, QStrategy};
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::tokenize::Tokenizer;
use mc_strsim::SetMeasure;
use mc_table::AttrId;

/// The union projected to comparable bits: pairs plus per-config score
/// bit patterns.
fn union_bits(u: &CandidateUnion) -> (Vec<u64>, Vec<Vec<Option<u64>>>) {
    (
        u.pairs.clone(),
        u.scores
            .iter()
            .map(|row| row.iter().map(|s| s.map(f64::to_bits)).collect())
            .collect(),
    )
}

#[test]
fn joint_union_is_bit_identical_across_thread_counts() {
    let ds = DatasetProfile::FodorsZagats.generate_scaled(11, 0.5);
    let blocker = Blocker::Hash(KeyFunc::Attr(AttrId(0)));
    let c = blocker.apply(&ds.a, &ds.b);
    let mc = MatchCatcher::new(DebuggerParams::small());
    let prepared = mc.prepare(&ds.a, &ds.b);

    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let out = run_joint(
                &prepared.tok_a,
                &prepared.tok_b,
                &c,
                &prepared.tree,
                JointParams {
                    k: 60,
                    threads,
                    q: QStrategy::Auto {
                        max_q: 3,
                        prelude_k: 20,
                    },
                    ..Default::default()
                },
            );
            let union = CandidateUnion::build(&out.lists);
            (out.q_used, union_bits(&union))
        })
        .collect();

    assert!(
        !runs[0].1 .0.is_empty(),
        "fixture must produce candidates for the comparison to mean anything"
    );
    for (threads, run) in [2usize, 4].iter().zip(&runs[1..]) {
        assert_eq!(runs[0].0, run.0, "q_used diverged at {threads} threads");
        assert_eq!(
            runs[0].1, run.1,
            "candidate union not bit-identical at {threads} threads"
        );
    }
}

#[test]
fn joint_union_is_bit_identical_with_seeding_only() {
    // Seeding is the only mechanism that links a config to its parent:
    // the parent-wait gate must keep the union bit-identical at every
    // thread and shard count.
    let ds = DatasetProfile::FodorsZagats.generate_scaled(5, 0.25);
    let blocker = Blocker::Hash(KeyFunc::Attr(AttrId(0)));
    let c = blocker.apply(&ds.a, &ds.b);
    let mc = MatchCatcher::new(DebuggerParams::small());
    let prepared = mc.prepare(&ds.a, &ds.b);

    let run = |threads: usize, shards: usize| {
        let out = run_joint(
            &prepared.tok_a,
            &prepared.tok_b,
            &c,
            &prepared.tree,
            JointParams {
                k: 40,
                threads,
                shards,
                // Shard as requested on every machine.
                clamp_shards: false,
                ..Default::default()
            },
        );
        union_bits(&CandidateUnion::build(&out.lists))
    };
    let serial = run(1, 1);
    for threads in [1, 2, 4] {
        for shards in [1, 3] {
            assert_eq!(
                serial,
                run(threads, shards),
                "diverged at {threads} threads, {shards} shards"
            );
        }
    }
}

#[test]
fn joint_lists_equal_individual_lists_on_long_records() {
    // Amazon-Google's long descriptions are the regime where the paper's
    // decomposed overlap database would engage. Every joint score comes
    // from the exact kernel, and seeding is result-neutral at q = 1, so
    // each config's list must equal its independent execution bit for
    // bit.
    let ds = DatasetProfile::AmazonGoogle.generate_scaled(42, 0.1);
    let manufacturer = ds.a.schema().expect_id("manufacturer");
    let c = Blocker::Hash(KeyFunc::Attr(manufacturer)).apply(&ds.a, &ds.b);
    let generator = ConfigGenerator::default();
    let promising = generator.promising(&ds.a, &ds.b);
    let tree = generator.build_tree(&promising);
    let (ta, tb, _) = TokenizedTable::build_pair(&ds.a, &ds.b, &promising.attrs, Tokenizer::Word);

    let params = JointParams::default();
    let joint = run_joint(&ta, &tb, &c, &tree, params);
    let indiv = run_individual(&ta, &tb, &c, &tree, params.k, SetMeasure::Jaccard);
    let bits = |lists: &[matchcatcher::ssj::TopKList]| -> Vec<Vec<(u64, u64)>> {
        lists
            .iter()
            .map(|l| {
                l.sorted_entries()
                    .into_iter()
                    .map(|(s, key)| (key, s.to_bits()))
                    .collect()
            })
            .collect()
    };
    assert!(tree.len() > 1, "fixture must exercise seeding");
    assert!(
        joint.lists.iter().any(|l| !l.is_empty()),
        "fixture must produce candidates"
    );
    assert_eq!(bits(&joint.lists), bits(&indiv.lists));
}
