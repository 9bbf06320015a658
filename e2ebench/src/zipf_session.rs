//! `zipf-session`: an incremental debugging session on zipf-scale
//! 60K×60K (k = 200, q = 1, hash blocker on attribute 0), one single
//! closed-loop caller.
//!
//! Each untraced pass draws fresh tables (data generation and blocking
//! are the pass's set-up, untimed); a traced pass reuses the tables of
//! the untraced pass before it. A pass is a cold `start_session` followed by a fixed script of reruns
//! that alternates a 1% random delta on both tables plus a killed-set
//! diff (writes) with a killed-only perturbation (reads: the tables stay
//! unchanged). The script ends with a killed-only rerun. After the last
//! pass, outside the timed phase, the last rerun of each kind is checked
//! against a cold `start_session` on the tables it ran against. The explain kernel's
//! build dominates killed-only reruns; the joint stage does almost
//! nothing there.
//!
//! `start_session` and `DebugSession::rerun` are single public calls, so
//! the traced run splits them with the `mc-obs` snapshot each report
//! carries. Traced passes give the session a recorder large enough to
//! keep every stage span.

use crate::common::{
    data_seed, explain_stage_ms, peak_rss_mb, rerun_gate, scripted_rerun, span_ms, Outcome, Rerun,
    RerunKind,
};
use crate::layers::{split_cold, split_rerun, Layers};
use crate::oracle::TimedOracle;
use crate::stats::{median, Ratio};
use crate::trace::Tracer;
use matchcatcher::joint::QStrategy;
use matchcatcher::{ConfigGenerator, DebugReport, DebuggerParams, MatchCatcher};
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::ObsContext;
use mc_table::{AttrId, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// (delta, killed-only) rerun pairs per pass.
const SCRIPT_PAIRS: usize = 2;
/// Flight-recorder capacity of traced sessions.
const TRACE_RECORDER: usize = 1 << 16;

fn params(trace: bool) -> DebuggerParams {
    let mut p = DebuggerParams::default();
    p.joint.k = 200;
    p.joint.q = QStrategy::Fixed(1);
    if trace {
        p.obs = ObsContext::with_recorder_capacity(TRACE_RECORDER);
    }
    p
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool, state: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut data = None;
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut cold_ms = Vec::new();
    let mut traced_cold_ms = Vec::new();
    let mut first_ms = Vec::new();
    let mut explain_ms = Vec::new();
    let mut killed_ms = Vec::new();
    let mut delta_ms = Vec::new();
    let (mut matches, mut labels) = (0usize, 0usize);
    let mut busy = Duration::ZERO;
    let mut ops = 0u64;
    let mut pass = 0u64;
    let mut finale = None;

    while busy < Duration::from_secs(seconds) || pass < 2 {
        pass += 1;
        tracer.set_pass(pass);
        layers.set_pass(pass);
        let traced = trace && pass.is_multiple_of(2);
        // Only the last pass's session is kept, for the gate.
        drop(finale.take());
        if !traced {
            drop(data.take());
            let t = Instant::now();
            let ds = DatasetProfile::ZipfScale.generate(data_seed(seed, pass));
            let c = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&ds.a, &ds.b);
            setups.push(t.elapsed().as_secs_f64());
            if pass == 1 {
                out.size("rows", format!("{}x{}", ds.a.len(), ds.b.len()));
                out.size("c", c.len());
            }
            data = Some((ds, c));
        }
        let (ds, c) = data.as_ref().expect("an untraced pass comes first");
        let mc = MatchCatcher::new(params(traced));
        let (a, b, killed) = (ds.a.clone(), ds.b.clone(), c.clone());
        let mut oracle = TimedOracle::new(&ds.gold);
        out.attempted += 1;
        let t = Instant::now();
        let (mut session, report) = mc.start_session(a, b, killed, &mut oracle);
        let elapsed = t.elapsed();
        busy += elapsed;
        ops += 1;
        let ms = elapsed.as_secs_f64() * 1e3;
        if pass == 1 {
            out.size("e", report.e_size);
        }
        if traced {
            traced_cold_ms.push(ms);
            trace_cold(
                &mut tracer,
                &mut layers,
                &ds.a,
                &ds.b,
                &mc,
                ms,
                &report,
                &oracle,
            );
        } else {
            cold_ms.push(ms);
            first_ms.push(oracle.first_label_ms().unwrap_or(0.0));
            matches += report.confirmed_matches.len();
            labels += report.labeled;
        }
        let mut explain = explain_stage_ms(&report);
        drop(report);

        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x100_0000_01b3) ^ pass);
        let mut last: [Option<Rerun>; 2] = [None, None];
        for kind in [RerunKind::Delta, RerunKind::Killed]
            .into_iter()
            .cycle()
            .take(2 * SCRIPT_PAIRS)
        {
            out.attempted += 1;
            let r = match scripted_rerun(&mut session, &ds.gold, kind, &mut rng) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.failures.push(e);
                    continue;
                }
            };
            busy += Duration::from_secs_f64(r.ms / 1e3);
            ops += 1;
            if traced {
                split_rerun(&mut tracer, &mut layers, r.kind, r.ms, &r.report.metrics);
            } else {
                match kind {
                    RerunKind::Killed => killed_ms.push(r.ms),
                    RerunKind::Delta => delta_ms.push(r.ms),
                }
                explain += explain_stage_ms(&r.report);
            }
            last[kind as usize] = Some(r);
        }
        if !traced {
            explain_ms.push(explain);
        }
        if traced {
            layers.add(
                "incr.resident_mb",
                session.resident_bytes() as f64 / (1 << 20) as f64,
            );
        }
        finale = Some((mc, session, last));
    }

    // The identity gate on the last pass, outside the timed passes.
    match (&finale, &data) {
        (Some((mc, session, [Some(k), Some(d)])), Some((ds, _))) => {
            rerun_gate(mc, session, &ds.gold, [d, k], &mut out, "zipf")
        }
        _ => out.check(false, || "zipf: the last pass lost its reruns".into()),
    }

    if trace {
        let untraced = median(&cold_ms).unwrap_or(0.0);
        let traced = median(&traced_cold_ms).unwrap_or(0.0);
        layers.ratio("obs.trace_overhead_share", traced - untraced, untraced);
        layers.finish(
            &tracer,
            &mut out,
            &["cold_run", "rerun"],
            &state.with_extension("spans.jsonl"),
        );
    } else {
        out.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        out.timing("cold_run_p50_ms", &cold_ms);
        out.timing("first_batch_p50_ms", &first_ms);
        out.timing("rerun_killed_p50_ms", &killed_ms);
        out.timing("rerun_delta_p50_ms", &delta_ms);
        out.timing("explain_p50_ms", &explain_ms);
        out.metric("ops_per_s", ops as f64 / busy.as_secs_f64(), "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        // Per cold start, over every draw of the tables.
        let starts = cold_ms.len().max(1) as f64;
        out.metric("matches_found", matches as f64 / starts, "count");
        out.ratio(
            "labels_per_match",
            Ratio::new(labels as f64, matches as f64),
        );
    }
    out
}

/// Records a traced `start_session`: the call as a `cold_run` span split
/// by its snapshot, plus the config-tree build timed from outside (the
/// session exposes no hook between promising attributes and the tree).
#[allow(clippy::too_many_arguments)]
fn trace_cold(
    tracer: &mut Tracer,
    layers: &mut Layers,
    a: &Table,
    b: &Table,
    mc: &MatchCatcher,
    ms: f64,
    report: &DebugReport,
    oracle: &TimedOracle<'_>,
) {
    let m = &report.metrics;
    let op = tracer.closed("cold_run", ms);
    split_cold(tracer, layers, op, m);
    let generator = ConfigGenerator::new(mc.params.config);
    let promising = generator.promising(a, b);
    tracer.time("config.tree", || generator.build_tree(&promising));
    let before_verify = span_ms(m, "mc.core.debug.prepare") + span_ms(m, "mc.core.debug.topk");
    if let Some(first) = oracle.first_label_ms() {
        layers.add("verify.first_batch_ms", (first - before_verify).max(0.0));
    }
    layers.gaps(oracle.batch_gaps_ms(&report.iterations));
    layers.add("joint.candidates", report.e_size as f64);
    layers.ratio(
        "joint.scored_per_candidate",
        m.counter("mc.core.ssj.scored") as f64,
        report.e_size as f64,
    );
    let hits = m.counter("mc.core.joint.reuse_hits") as f64;
    let misses = m.counter("mc.core.joint.reuse_misses") as f64;
    layers.ratio("joint.reuse_hit_ratio", hits, hits + misses);
    layers.add("verify.iterations", report.iterations.len() as f64);
    layers.add("verify.labels", report.labeled as f64);
}
