//! `paper-cold`: cold `MatchCatcher::run` passes on two paper cells with
//! the paper's parameters (k = 1000, n = 20), one single closed-loop
//! caller.
//!
//! A pass runs amazon-google / HASH, then acm-dblp / R2. The joint top-k
//! stage does almost all the work; amazon-google's long descriptions turn
//! the overlap-DB reuse path on, acm-dblp leaves it off. After each pass
//! the caller re-debugs the acm-dblp cell through an incremental session
//! (started untimed; delta and killed-only reruns in turn, ending with a
//! killed-only one), so this workload also reports rerun latency on a
//! paper cell.
//!
//! The traced run alternates untraced passes with traced ones. A traced
//! pass replaces `MatchCatcher::run` with the equivalent public stage
//! sequence, timing each stage from outside, and must reproduce the
//! untraced pass exactly.

use crate::common::{
    data_seed, explain_stage_ms, peak_rss_mb, rerun_gate, scripted_rerun, Outcome, Rerun, RerunKind,
};
use crate::layers::{split_rerun, Layers};
use crate::oracle::TimedOracle;
use crate::stats::{median, Ratio};
use crate::trace::Tracer;
use matchcatcher::debugger::Prepared;
use matchcatcher::joint::{build_arenas, run_joint_with_arenas, CandidateUnion, QStrategy};
use matchcatcher::{ConfigGenerator, DebugReport, DebuggerParams, DiagnosisKernel, MatchCatcher};
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::measures::SetMeasure;
use mc_strsim::tokenize::Tokenizer;
use mc_table::{split_pair_key, GoldMatches, PairSet, Schema, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// The two cells.
const CELLS: [DatasetProfile; 2] = [DatasetProfile::AmazonGoogle, DatasetProfile::AcmDblp];
/// (delta, killed-only) rerun pairs per pass on the acm-dblp session.
const RERUN_PAIRS: usize = 2;

struct Cell {
    name: &'static str,
    a: Table,
    b: Table,
    gold: GoldMatches,
    c: PairSet,
}

/// The cell's Table-2 blocker: `HASH` on amazon-google, `R2` on
/// acm-dblp, as `mc_bench::blockers::table2_suite` states them (a test
/// checks they agree). They are restated because linking `mc-bench`
/// installs its allocation-counting global allocator, which the
/// program's users do not run with.
pub fn cell_blocker(profile: DatasetProfile, schema: &Schema) -> Blocker {
    match profile {
        DatasetProfile::AmazonGoogle => {
            Blocker::Hash(KeyFunc::Attr(schema.expect_id("manufacturer")))
        }
        _ => Blocker::Intersect(vec![
            Blocker::Sim {
                attr: schema.expect_id("title"),
                tokenizer: Tokenizer::Word,
                measure: SetMeasure::Jaccard,
                threshold: 0.7,
            },
            Blocker::NumBand {
                attr: schema.expect_id("year"),
                width: 0.5,
            },
        ]),
    }
}

fn setup(seed: u64) -> Vec<Cell> {
    CELLS
        .iter()
        .map(|&profile| {
            let ds = profile.generate(seed);
            let c = cell_blocker(profile, ds.a.schema()).apply(&ds.a, &ds.b);
            Cell {
                name: profile.name(),
                a: ds.a,
                b: ds.b,
                gold: ds.gold,
                c,
            }
        })
        .collect()
}

/// Result fields a traced pass must reproduce, as comparable text.
fn identity(
    e: usize,
    confirmed: &[(u32, u32)],
    labeled: usize,
    iterations: &impl std::fmt::Debug,
    explanations: &impl std::fmt::Debug,
    pervasive: &impl std::fmt::Debug,
) -> String {
    format!("{e}|{confirmed:?}|{labeled}|{iterations:?}|{explanations:?}|{pervasive:?}")
}

fn report_identity(r: &DebugReport) -> String {
    identity(
        r.e_size,
        &r.confirmed_matches,
        r.labeled,
        &r.iterations,
        &r.explanations,
        &r.pervasive,
    )
}

/// The public stage sequence `MatchCatcher::run` performs (no store),
/// each stage timed as a span. Returns the identity text.
fn traced_run(mc: &MatchCatcher, cell: &Cell, tracer: &mut Tracer, layers: &mut Layers) -> String {
    let params = &mc.params;
    let threads = if params.joint.threads == 0 {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    } else {
        params.joint.threads
    };
    let generator = ConfigGenerator::new(params.config);
    let mut oracle = TimedOracle::new(&cell.gold);
    let before = mc_obs::MetricsSnapshot::capture();
    let op = tracer.enter("cold_run");
    let promising = tracer.time("config.promising", || generator.promising(&cell.a, &cell.b));
    let tree = tracer.time("config.tree", || generator.build_tree(&promising));
    let (tok_a, tok_b, _) = tracer.time("strsim.tokenize", || {
        TokenizedTable::build_pair(&cell.a, &cell.b, &promising.attrs, Tokenizer::Word)
    });
    let configs = tree.configs();
    let arenas = tracer.time("joint.arenas", || {
        build_arenas(&tok_a, &tok_b, &configs, threads)
    });
    let joint = tracer.time("joint.topk", || {
        run_joint_with_arenas(&tok_a, &tok_b, &cell.c, &tree, params.joint, &arenas)
    });
    let union = tracer.time("joint.union", || CandidateUnion::build(&joint.lists));
    let prepared = Prepared {
        promising,
        tree,
        tok_a,
        tok_b,
    };
    let verify = tracer.enter("verify.run");
    oracle.restart();
    let outcome = mc.verify_union(&cell.a, &cell.b, &prepared, &union, &mut oracle);
    tracer.exit(verify);
    let kernel = tracer.time("explain.build", || {
        DiagnosisKernel::build(&cell.a, &cell.b, threads)
    });
    let confirmed: Vec<(u32, u32)> = outcome.matches.iter().map(|&k| split_pair_key(k)).collect();
    let explanations = tracer.time("explain.diagnose", || kernel.explain_pairs(&confirmed));
    let pervasive = tracer.time("explain.pervade", || {
        kernel.pervasiveness(&union, &confirmed)
    });
    tracer.exit(op);
    let delta = mc_obs::MetricsSnapshot::capture().since(&before);

    let stats = kernel.stats();
    layers.add(
        "strsim.distinct_tokens",
        delta.gauge("mc.strsim.dict.distinct_tokens") as f64,
    );
    layers.add("joint.candidates", union.len() as f64);
    layers.ratio(
        "joint.reuse_hit_ratio",
        joint.reuse_hits as f64,
        (joint.reuse_hits + joint.reuse_misses) as f64,
    );
    layers.ratio(
        "joint.scored_per_candidate",
        delta.counter("mc.core.ssj.scored") as f64,
        union.len() as f64,
    );
    layers.add("verify.iterations", outcome.iterations.len() as f64);
    layers.add("verify.labels", outcome.labeled as f64);
    if let Some(first) = oracle.first_label_ms() {
        layers.add("verify.first_batch_ms", first);
    }
    layers.gaps(oracle.batch_gaps_ms(&outcome.iterations));
    layers.add("explain.values_interned", stats.distinct_values as f64);
    layers.ratio(
        "explain.pairs_per_value",
        (confirmed.len() + union.len()) as f64,
        stats.distinct_values as f64,
    );
    layers.ratio(
        "explain.cache_hit_ratio",
        stats.cache_hits() as f64,
        stats.lookups as f64,
    );
    identity(
        union.len(),
        &confirmed,
        outcome.labeled,
        &outcome.iterations,
        &explanations,
        &pervasive,
    )
}

/// Runs the workload. Each untraced pass draws fresh tables for both
/// cells, so a run's figures average over several draws of each paper
/// profile; a traced pass reuses the tables of the untraced pass before
/// it, whose results it must reproduce.
pub fn run(seed: u64, seconds: u64, trace: bool, state: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mc = MatchCatcher::new(DebuggerParams::default());
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();

    let mut setups = Vec::new();
    let mut pass_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let mut first_ms = Vec::new();
    let mut explain_ms = Vec::new();
    let mut killed_ms = Vec::new();
    let mut delta_ms = Vec::new();
    let (mut matches, mut labels) = (0usize, 0usize);
    let mut cells = Vec::new();
    let mut reference: Vec<String> = Vec::new();
    let mut session = None;
    let mut last: [Option<Rerun>; 2] = [None, None];
    let mut busy = Duration::ZERO;
    let mut ops = 0u64;
    let mut pass = 0u64;

    while busy < Duration::from_secs(seconds) || pass < 2 {
        pass += 1;
        tracer.set_pass(pass);
        layers.set_pass(pass);
        let traced = trace && pass.is_multiple_of(2);
        if !traced {
            let t = Instant::now();
            cells = setup(data_seed(seed, pass));
            setups.push(t.elapsed().as_secs_f64());
            reference.clear();
            if pass == 1 {
                for cell in &cells {
                    out.size(
                        &format!("{}.rows", cell.name),
                        format!("{}x{}", cell.a.len(), cell.b.len()),
                    );
                    out.size(&format!("{}.c", cell.name), cell.c.len());
                }
            }
        }
        let t_pass = Instant::now();
        let mut first = 0.0;
        let mut reports = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            out.attempted += 1;
            if traced {
                let id = traced_run(&mc, cell, &mut tracer, &mut layers);
                out.check(reference.get(i) == Some(&id), || {
                    format!(
                        "{}: traced stage sequence differs from MatchCatcher::run",
                        cell.name
                    )
                });
                continue;
            }
            let mut oracle = TimedOracle::new(&cell.gold);
            let report = mc.run(&cell.a, &cell.b, &cell.c, &mut oracle);
            first += oracle.first_label_ms().unwrap_or(0.0);
            matches += report.confirmed_matches.len();
            labels += report.labeled;
            reference.push(report_identity(&report));
            if pass == 1 {
                out.size(&format!("{}.e", cell.name), report.e_size);
            }
            reports.push(report);
        }
        let elapsed = t_pass.elapsed();
        busy += elapsed;
        ops += cells.len() as u64;
        if traced {
            traced_pass_ms.push(elapsed.as_secs_f64() * 1e3);
            continue;
        }
        pass_ms.push(elapsed.as_secs_f64() * 1e3);
        first_ms.push(first);
        let mut explain = reports.iter().map(explain_stage_ms).sum::<f64>();

        // Re-debug the acm-dblp cell incrementally: the session starts
        // untimed, at the q the cold run chose.
        let ad = &cells[1];
        let mut params = DebuggerParams::default();
        params.joint.q = QStrategy::Fixed(reports[1].q_used);
        let smc = MatchCatcher::new(params);
        let mut oracle = TimedOracle::new(&ad.gold);
        let (mut s, _) = smc.start_session(ad.a.clone(), ad.b.clone(), ad.c.clone(), &mut oracle);
        let mut rng = StdRng::seed_from_u64(data_seed(seed, pass) ^ 0xad);
        for kind in [RerunKind::Delta, RerunKind::Killed].repeat(RERUN_PAIRS) {
            out.attempted += 1;
            match scripted_rerun(&mut s, &ad.gold, kind, &mut rng) {
                Ok(r) => {
                    busy += Duration::from_secs_f64(r.ms / 1e3);
                    ops += 1;
                    match kind {
                        RerunKind::Killed => killed_ms.push(r.ms),
                        RerunKind::Delta => delta_ms.push(r.ms),
                    }
                    if trace {
                        split_rerun(&mut tracer, &mut layers, r.kind, r.ms, &r.report.metrics);
                    }
                    explain += explain_stage_ms(&r.report);
                    last[kind as usize] = Some(r);
                }
                Err(e) => {
                    out.failed += 1;
                    out.failures.push(e);
                }
            }
        }
        explain_ms.push(explain);
        session = Some((smc, s, ad.gold.clone()));
    }

    // The identity gate on the last session, outside the timed passes.
    if let (Some((smc, s, gold)), [Some(k), Some(d)]) = (&session, &last) {
        layers.set(
            "incr.resident_mb",
            s.resident_bytes() as f64 / (1 << 20) as f64,
        );
        rerun_gate(smc, s, gold, [d, k], &mut out, "acm-dblp session");
    }

    if trace {
        let untraced = median(&pass_ms).unwrap_or(0.0);
        let traced = median(&traced_pass_ms).unwrap_or(0.0);
        layers.ratio("obs.trace_overhead_share", traced - untraced, untraced);
        layers.finish(
            &tracer,
            &mut out,
            &["cold_run", "rerun"],
            &state.with_extension("spans.jsonl"),
        );
    } else {
        out.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        out.timing("cold_run_p50_ms", &pass_ms);
        out.timing("first_batch_p50_ms", &first_ms);
        out.timing("rerun_killed_p50_ms", &killed_ms);
        out.timing("rerun_delta_p50_ms", &delta_ms);
        out.timing("explain_p50_ms", &explain_ms);
        out.metric("ops_per_s", ops as f64 / busy.as_secs_f64(), "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        // Per pass, over every draw of the tables.
        let passes = pass_ms.len().max(1) as f64;
        out.metric("matches_found", matches as f64 / passes, "count");
        out.ratio(
            "labels_per_match",
            Ratio::new(labels as f64, matches as f64),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_blockers_are_the_table2_ones() {
        for (profile, label) in CELLS.into_iter().zip(["HASH", "R2"]) {
            let ds = profile.generate_scaled(1, 0.05);
            let suite = mc_bench::blockers::table2_suite(profile, ds.a.schema());
            let named = suite
                .into_iter()
                .find(|nb| nb.label == label)
                .expect("label");
            let ours = cell_blocker(profile, ds.a.schema());
            assert_eq!(format!("{ours:?}"), format!("{:?}", named.blocker));
        }
    }
}
