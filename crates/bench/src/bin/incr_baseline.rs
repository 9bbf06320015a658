//! Incremental-debugging baseline: cold pipeline refresh vs.
//! delta-patched reruns, writing `BENCH_incr.json`.
//!
//! Three scenarios per dataset, all through [`MatchCatcher::start_session`]:
//!
//! * `cold` — a fresh session on the current tables: full tokenization,
//!   arena build, and one joint top-K execution. Its *refresh* time is
//!   the prepare + topk stage spans — the work a user pays today for
//!   every blocker tweak or data fix.
//! * `delta` — a 1% random [`TableDelta`] against each table (splice
//!   updates, tombstone deletes, appended inserts) plus a small
//!   killed-set diff, replayed through `DebugSession::rerun`. Refresh
//!   time is the rerun span minus the verify/explain stages.
//! * `killed_only` — unchanged tables, killed-set diff only: the fast
//!   path that reuses every join verbatim.
//!
//! Verification and explanation run identically in every scenario, so
//! they are excluded from the refresh times — the comparison isolates
//! exactly the work the incremental path avoids. Each scenario also
//! reports `rerun_total_us`, the operation as a user sees it: the whole
//! `mc.core.incr.rerun` span (verify and explain included), or for
//! `cold` the session start's four stage spans; `speedup_total` is the
//! cold total over each rerun's. The identity gate runs
//! on every scenario: each incremental report must match a cold session
//! on the patched state field for field (metrics aside); a mismatch
//! aborts with a panic, so the CI smoke run doubles as an exactness
//! gate.
//!
//! `MC_BENCH_SMOKE=1` shrinks the datasets for CI. `--min-speedup-delta`
//! / `--min-speedup-killed` make the run exit non-zero below the given
//! refresh-speedup floors (used when regenerating the committed
//! full-scale baseline, not in smoke CI).
//!
//! `cargo run --release -p mc-bench --bin incr_baseline [--scale X]
//!  [--k N] [--runs N] [--out PATH] [--min-speedup-delta X]
//!  [--min-speedup-killed X]`

use matchcatcher::debugger::{DebugReport, DebuggerParams, MatchCatcher};
use matchcatcher::joint::QStrategy;
use matchcatcher::oracle::GoldOracle;
use mc_bench::alloc::AllocStats;
use mc_bench::env::BenchEnv;
use mc_blocking::{Blocker, KeyFunc};
use mc_datagen::delta::{perturb_killed, random_delta, DeltaSpec};
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_table::{AttrId, GoldMatches, Table, TableDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Dataset name suffix for a scale factor. Dots would split into extra
/// segments in `bench-compare`'s flattened metric paths, so `0.25`
/// becomes `0_25`.
fn scale_tag(scale: f64) -> String {
    format!("{scale}").replace('.', "_")
}

/// The result-bearing report fields, metrics excluded.
fn summarize(r: &DebugReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.confirmed_matches.clone(),
        r.e_size,
        r.q_used,
        r.labeled,
        r.iterations.clone(),
        r.problems.clone(),
    )
}

struct ScenarioReport {
    name: &'static str,
    refresh_us: u64,
    total_us: u64,
    records_patched: u64,
    pairs_rescored: u64,
    pairs_reused: u64,
    full_rejoins: u64,
    compactions: u64,
    allocs: AllocStats,
}

/// Cold refresh cost: prepare (promising + tokenization) plus topk
/// (arenas + joint K-execution) stage time of a fresh session.
fn cold_refresh_us(delta: &MetricsSnapshot) -> u64 {
    delta.span("mc.core.debug.prepare").total_us + delta.span("mc.core.debug.topk").total_us
}

/// Cold total: every stage of a fresh session, verify and explain
/// included.
fn cold_total_us(delta: &MetricsSnapshot) -> u64 {
    cold_refresh_us(delta)
        + delta.span("mc.core.debug.verify").total_us
        + delta.span("mc.core.debug.explain").total_us
}

/// Incremental total: the whole rerun span.
fn rerun_total_us(delta: &MetricsSnapshot) -> u64 {
    delta.span("mc.core.incr.rerun").total_us
}

/// Incremental refresh cost: everything the rerun did except the
/// verify/explain stages, which run identically in every scenario.
fn rerun_refresh_us(delta: &MetricsSnapshot) -> u64 {
    let rerun = rerun_total_us(delta);
    let excluded =
        delta.span("mc.core.debug.verify").total_us + delta.span("mc.core.debug.explain").total_us;
    rerun - excluded.min(rerun)
}

fn scenario_counters(
    name: &'static str,
    delta: &MetricsSnapshot,
    allocs: AllocStats,
) -> ScenarioReport {
    ScenarioReport {
        name,
        refresh_us: rerun_refresh_us(delta),
        total_us: rerun_total_us(delta),
        records_patched: delta.counter("mc.core.incr.records_patched"),
        pairs_rescored: delta.counter("mc.core.incr.pairs_rescored"),
        pairs_reused: delta.counter("mc.core.incr.pairs_reused"),
        full_rejoins: delta.counter("mc.core.incr.full_rejoins"),
        compactions: delta.counter("mc.core.incr.compactions"),
        allocs,
    }
}

struct DatasetRun {
    name: String,
    rows_a: usize,
    rows_b: usize,
    configs: usize,
    scenarios: Vec<ScenarioReport>,
    speedup_delta: f64,
    speedup_killed: f64,
    speedup_total_delta: f64,
    speedup_total_killed: f64,
}

#[allow(clippy::too_many_arguments)]
fn bench_dataset(
    name: String,
    a: Table,
    b: Table,
    gold: GoldMatches,
    k: usize,
    runs: usize,
    delta_frac: f64,
    seed: u64,
    threads: usize,
) -> DatasetRun {
    let killed = Blocker::Hash(KeyFunc::Attr(AttrId(0))).apply(&a, &b);
    let mut params = DebuggerParams::default();
    params.joint.k = k;
    params.joint.q = QStrategy::Fixed(1);
    if threads != 0 {
        params.joint.threads = threads;
    }
    let mc = MatchCatcher::new(params);

    // Cold session: refresh cost is best-of-N fresh starts (the first
    // also becomes the live session for the incremental scenarios).
    let mut oracle = GoldOracle::exact(&gold);
    let mut best_cold: Option<u64> = None;
    let mut best_cold_total: Option<u64> = None;
    let mut cold_allocs = AllocStats::capture();
    let mut live = None;
    for rep in 0..runs.max(1) {
        let alloc_base = AllocStats::capture();
        let base = MetricsSnapshot::capture();
        let started = mc.start_session(a.clone(), b.clone(), killed.clone(), &mut oracle);
        let delta = MetricsSnapshot::capture().since(&base);
        if rep == 0 {
            cold_allocs = AllocStats::capture().since(&alloc_base);
            live = Some(started);
        }
        let us = cold_refresh_us(&delta);
        if best_cold.is_none_or(|b| us < b) {
            best_cold = Some(us);
        }
        let total = cold_total_us(&delta);
        if best_cold_total.is_none_or(|b| total < b) {
            best_cold_total = Some(total);
        }
    }
    let (mut session, start_report) = live.expect("at least one run");
    let cold_us = best_cold.expect("at least one run");
    let cold_total = best_cold_total.expect("at least one run");
    let configs = start_report.configs.len();

    // 1% table delta + small killed diff.
    let mut rng = StdRng::seed_from_u64(seed);
    let da = random_delta(
        session.table_a(),
        DeltaSpec::fraction_of(a.len(), delta_frac),
        &mut rng,
    );
    let db = random_delta(
        session.table_b(),
        DeltaSpec::fraction_of(b.len(), delta_frac),
        &mut rng,
    );
    let nk = perturb_killed(
        session.killed(),
        (session.table_a().len() + da.inserts.len()) as u32,
        (session.table_b().len() + db.inserts.len()) as u32,
        0.01,
        killed.len() / 100 + 1,
        &mut rng,
    );
    let alloc_base = AllocStats::capture();
    let base = MetricsSnapshot::capture();
    let incr_report = session
        .rerun(&da, &db, Some(nk), &mut oracle)
        .expect("generated delta is valid");
    let delta_metrics = MetricsSnapshot::capture().since(&base);
    let delta_allocs = AllocStats::capture().since(&alloc_base);
    if std::env::var("MC_BENCH_DUMP").is_ok_and(|v| v == "1") {
        eprintln!(
            "--- {name} delta-rerun metrics ---\n{}",
            delta_metrics.render()
        );
    }

    // Identity gate: the incremental report must match a cold session on
    // the patched state.
    let (_, cold_check) = mc.start_session(
        session.table_a().clone(),
        session.table_b().clone(),
        session.killed().clone(),
        &mut GoldOracle::exact(&gold),
    );
    assert!(
        summarize(&cold_check) == summarize(&incr_report),
        "{name}: delta rerun diverged from the cold run on the patched tables"
    );

    // Killed-set-only diff on the patched state.
    let nk2 = perturb_killed(
        session.killed(),
        session.table_a().len() as u32,
        session.table_b().len() as u32,
        0.02,
        killed.len() / 50 + 1,
        &mut rng,
    );
    let alloc_base = AllocStats::capture();
    let base = MetricsSnapshot::capture();
    let killed_report = session
        .rerun(
            &TableDelta::new(),
            &TableDelta::new(),
            Some(nk2),
            &mut oracle,
        )
        .expect("killed-only rerun");
    let killed_metrics = MetricsSnapshot::capture().since(&base);
    let killed_allocs = AllocStats::capture().since(&alloc_base);

    let (_, cold_check2) = mc.start_session(
        session.table_a().clone(),
        session.table_b().clone(),
        session.killed().clone(),
        &mut GoldOracle::exact(&gold),
    );
    assert!(
        summarize(&cold_check2) == summarize(&killed_report),
        "{name}: killed-only rerun diverged from the cold run"
    );

    let delta = scenario_counters("delta", &delta_metrics, delta_allocs);
    let killed = scenario_counters("killed_only", &killed_metrics, killed_allocs);
    let speedup = |cold: u64, rerun: u64| cold as f64 / rerun.max(1) as f64;
    DatasetRun {
        name,
        rows_a: session.table_a().len(),
        rows_b: session.table_b().len(),
        configs,
        speedup_delta: speedup(cold_us, delta.refresh_us),
        speedup_killed: speedup(cold_us, killed.refresh_us),
        speedup_total_delta: speedup(cold_total, delta.total_us),
        speedup_total_killed: speedup(cold_total, killed.total_us),
        scenarios: vec![
            ScenarioReport {
                name: "cold",
                refresh_us: cold_us,
                total_us: cold_total,
                records_patched: 0,
                pairs_rescored: 0,
                pairs_reused: 0,
                full_rejoins: 0,
                compactions: 0,
                allocs: cold_allocs,
            },
            delta,
            killed,
        ],
    }
}

fn main() {
    let env = BenchEnv::parse();
    let k: usize = env.value_or("--k", 200);
    let runs = env.runs(3);
    let out_path = env.out("BENCH_incr.json");
    let min_delta: f64 = env.value_or("--min-speedup-delta", 0.0);
    let min_killed: f64 = env.value_or("--min-speedup-killed", 0.0);
    let threads = env.threads();

    // Full mode: 60K×60K zipf + amazon-google ×0.25 (the paper's
    // software-products workload). Smoke shrinks both.
    let zipf_scale = env.scale(1.0, 0.01);
    let ag_scale = if env.smoke { 0.05 } else { 0.25 };

    let mut datasets = Vec::new();
    {
        let ds = DatasetProfile::ZipfScale.generate_scaled(7, zipf_scale);
        datasets.push(bench_dataset(
            format!("{}-{}", ds.name, scale_tag(zipf_scale)),
            ds.a,
            ds.b,
            ds.gold,
            k,
            runs,
            0.01,
            41,
            threads,
        ));
    }
    {
        let ds = DatasetProfile::AmazonGoogle.generate_scaled(7, ag_scale);
        datasets.push(bench_dataset(
            format!("{}-{}", ds.name, scale_tag(ag_scale)),
            ds.a,
            ds.b,
            ds.gold,
            k,
            runs,
            0.01,
            43,
            threads,
        ));
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mc-bench-incr/v1\",\n  \"datasets\": [");
    for (i, d) in datasets.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"name\": \"{}\", \"rows_a\": {}, \"rows_b\": {}, \"k\": {k}, \
             \"configs\": {}, \"scenarios\": [",
            d.name, d.rows_a, d.rows_b, d.configs
        );
        for (j, s) in d.scenarios.iter().enumerate() {
            if j > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n      {{\"name\": \"{}\", \"refresh_us\": {}, \"rerun_total_us\": {}, \
                 \"counters\": {{\"records_patched\": {}, \"pairs_rescored\": {}, \
                 \"pairs_reused\": {}, \"full_rejoins\": {}, \"compactions\": {}}}, \
                 \"allocs\": {{\"count\": {}, \"bytes\": {}}}}}",
                s.name,
                s.refresh_us,
                s.total_us,
                s.records_patched,
                s.pairs_rescored,
                s.pairs_reused,
                s.full_rejoins,
                s.compactions,
                s.allocs.allocations,
                s.allocs.bytes
            );
        }
        let _ = write!(
            json,
            "\n    ], \"identity\": true, \"speedup\": {{\"delta\": {:.4}, \
             \"killed_only\": {:.4}}}, \"speedup_total\": {{\"delta\": {:.4}, \
             \"killed_only\": {:.4}}}}}",
            d.speedup_delta, d.speedup_killed, d.speedup_total_delta, d.speedup_total_killed
        );
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_incr.json");

    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "dataset", "scenario", "refresh", "total", "rescored", "reused", "allocs"
    );
    for d in &datasets {
        for s in &d.scenarios {
            println!(
                "{:<22} {:<12} {:>10.2}ms {:>10.2}ms {:>12} {:>12} {:>10}",
                d.name,
                s.name,
                s.refresh_us as f64 / 1e3,
                s.total_us as f64 / 1e3,
                s.pairs_rescored,
                s.pairs_reused,
                s.allocs.allocations
            );
        }
        println!(
            "{:<22} identity ok; refresh speedup {:.1}x (1% delta), {:.1}x (killed-only); \
             total speedup {:.1}x / {:.1}x",
            d.name,
            d.speedup_delta,
            d.speedup_killed,
            d.speedup_total_delta,
            d.speedup_total_killed
        );
    }
    println!("wrote {out_path}");

    for d in &datasets {
        assert!(
            d.speedup_delta >= min_delta,
            "{}: delta speedup {:.2}x below the {min_delta:.2}x floor",
            d.name,
            d.speedup_delta
        );
        assert!(
            d.speedup_killed >= min_killed,
            "{}: killed-only speedup {:.2}x below the {min_killed:.2}x floor",
            d.name,
            d.speedup_killed
        );
    }
}
