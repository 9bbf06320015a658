//! **§6.5 ablation: joint vs individual top-k execution.**
//!
//! The paper reports the joint strategy (overlap reuse + top-k seeding +
//! one config per core) outperforms executing each config independently
//! by up to 3.5×. This implementation has no overlap database, so we
//! time what remains:
//!
//! * `individual` — each config alone, serial, exact scorer;
//! * `joint-1t`   — top-k seeding, one worker (isolates seeding);
//! * `joint`      — seeding + one config per core (`--threads`, default
//!   all cores).
//!
//! Each time is the best of three runs. `|E|` is the candidate union;
//! at `q = 1` the joint lists equal the individual ones bit for bit, so
//! the two unions match.
//!
//! `cargo run --release -p mc-bench --bin ablation_joint [--scale X]`

use matchcatcher::debugger::MatchCatcher;
use matchcatcher::joint::{run_individual, run_joint, CandidateUnion, JointOutput, JointParams};
use mc_bench::blockers::table2_suite;
use mc_bench::harness::CliArgs;
use mc_datagen::profiles::DatasetProfile;
use mc_strsim::measures::SetMeasure;

/// Best-of-three wall time in seconds, plus the last run's `|E|`.
fn best_of_3(run: impl Fn() -> JointOutput) -> (f64, usize) {
    let mut best = f64::MAX;
    let mut e = 0;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let out = run();
        best = best.min(t.elapsed().as_secs_f64());
        e = CandidateUnion::build(&out.lists).len();
    }
    (best, e)
}

fn main() {
    let args = CliArgs::parse(0.0);
    let sets = [
        (DatasetProfile::AmazonGoogle, "HASH", 1.0),
        (DatasetProfile::WalmartAmazon, "HASH", 0.5),
        (DatasetProfile::AcmDblp, "R2", 1.0),
        (DatasetProfile::FodorsZagats, "HASH", 1.0),
        (DatasetProfile::Music1, "HASH", 0.05),
    ];
    println!(
        "{:<16} {:<6} {:>12} {:>12} {:>12} {:>9} {:>8} {:>8}",
        "dataset", "Q", "indiv (s)", "joint1t (s)", "joint (s)", "speedup", "|E| ind", "|E| jnt"
    );
    for (profile, label, default_scale) in sets {
        let scale = if args.scale > 0.0 {
            args.scale.min(1.0)
        } else {
            default_scale
        };
        let ds = profile.generate_scaled(args.seed, scale);
        let suite = table2_suite(profile, ds.a.schema());
        let nb = suite
            .iter()
            .find(|nb| nb.label == label)
            .expect("Table 2 blocker");
        let c = nb.blocker.apply(&ds.a, &ds.b);
        let params = args.params();
        let mc = MatchCatcher::new(params.clone());
        let prepared = mc.prepare(&ds.a, &ds.b);
        let (tok_a, tok_b, tree) = (&prepared.tok_a, &prepared.tok_b, &prepared.tree);

        let (t_indiv, e_indiv) =
            best_of_3(|| run_individual(tok_a, tok_b, &c, tree, args.k, SetMeasure::Jaccard));
        let joint = |threads| {
            best_of_3(|| {
                run_joint(
                    tok_a,
                    tok_b,
                    &c,
                    tree,
                    JointParams {
                        k: args.k,
                        threads,
                        ..Default::default()
                    },
                )
            })
        };
        let (t_joint1, _) = joint(1);
        let (t_joint, e_joint) = joint(params.joint.threads);
        println!(
            "{:<16} {:<6} {:>12.2} {:>12.2} {:>12.2} {:>8.2}x {:>8} {:>8}",
            ds.name,
            nb.label,
            t_indiv,
            t_joint1,
            t_joint,
            t_indiv / t_joint.max(1e-9),
            e_indiv,
            e_joint
        );
    }
    args.obs_report();
}
