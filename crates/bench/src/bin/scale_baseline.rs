//! Scale-out SSJ baseline: runs the joint top-k execution on the
//! synthetic `zipf-scale` profile (60K × 60K records at scale 1.0,
//! heavy-tailed token distribution) in two schedules and writes
//! `BENCH_scale.json`:
//!
//! * `single` — `shards = 1`: the paper's one-config-per-core schedule,
//!   where the root config's join runs on a single thread;
//! * `sharded` — `--shards` record-range shards (default: the core
//!   count): configs run sequentially, each join split across workers.
//!
//! Both variants score with the one exact kernel under the same
//! `--threads` budget, so the comparison is the schedule alone. The
//! headline `speedup.joint_wall` is single-shard joint time over sharded
//! joint time, both wall-clocked on this machine (`cores` in the JSON);
//! with more shards than cores the workers serialize, so it can be < 1.
//!
//! The binary also verifies the sharding determinism contract on every
//! run: shard counts {1, 4, `--shards`} must produce `sorted_entries()`
//! bit-identical to the single-shard reference for every config. A
//! mismatch aborts with exit code 1 — in CI the smoke run doubles as the
//! identity gate.
//!
//! `MC_BENCH_SMOKE=1` shrinks the defaults to `--scale 0.02 --runs 1`
//! and pins `--shards 8`, so the committed smoke work counters do not
//! depend on the machine; explicit flags still override. `--sweep`
//! appends a diagnostic table of single-repetition joint wall times at
//! shard counts {1, 2, 4, 8}.
//!
//! `cargo run --release -p mc-bench --bin scale_baseline [--scale X]
//!  [--runs N] [--threads N] [--shards N] [--k N] [--out PATH] [--sweep]`

use matchcatcher::config::{ConfigGenerator, ConfigTree};
use matchcatcher::joint::{run_joint, CandidateUnion, JointParams};
use mc_bench::alloc::AllocStats;
use mc_bench::env::BenchEnv;
use mc_datagen::profiles::DatasetProfile;
use mc_obs::MetricsSnapshot;
use mc_strsim::dict::TokenizedTable;
use mc_strsim::tokenize::Tokenizer;
use mc_table::PairSet;
use std::fmt::Write as _;

/// Per-config canonical results: one `sorted_entries()` vector per
/// config, in tree order. `f64` compares exactly here — bit-identity is
/// the contract under test, not approximate agreement.
type Entries = Vec<Vec<(f64, u64)>>;

struct VariantReport {
    name: &'static str,
    shards: usize,
    candidates: usize,
    joint_us: u64,
    config_us: u64,
    events: u64,
    scored: u64,
    verify_tokens: u64,
    dense_fallbacks: u64,
    allocs: AllocStats,
}

fn params_for(k: usize, threads: usize, shards: usize) -> JointParams {
    let mut params = JointParams {
        k,
        shards,
        // The committed baseline's work counters and the shard-identity
        // sweep must see the *requested* shard counts on every machine,
        // including boxes with fewer cores than shards.
        clamp_shards: false,
        ..Default::default()
    };
    if threads != 0 {
        params.threads = threads;
    }
    params
}

/// Best-of-`runs` execution of one variant. The allocation counter comes
/// from the first (cold) repetition: with pinned threads it is
/// deterministic, while warm repetitions depend on allocator reuse.
/// Returns the report plus the first run's canonical entries.
fn run_variant(
    name: &'static str,
    ta: &TokenizedTable,
    tb: &TokenizedTable,
    tree: &ConfigTree,
    params: JointParams,
    runs: usize,
) -> (VariantReport, Entries) {
    let killed = PairSet::new();
    let mut best: Option<(u64, MetricsSnapshot, usize)> = None;
    let mut allocs = AllocStats::capture();
    let mut entries: Entries = Vec::new();
    for rep in 0..runs.max(1) {
        let alloc_base = AllocStats::capture();
        let base = MetricsSnapshot::capture();
        let out = run_joint(ta, tb, &killed, tree, params);
        let delta = MetricsSnapshot::capture().since(&base);
        if rep == 0 {
            allocs = AllocStats::capture().since(&alloc_base);
            entries = out.lists.iter().map(|l| l.sorted_entries()).collect();
        }
        let joint_us = delta.span("mc.core.joint.run").total_us;
        let candidates = CandidateUnion::build(&out.lists).len();
        if best.as_ref().is_none_or(|(b, _, _)| joint_us < *b) {
            best = Some((joint_us, delta, candidates));
        }
    }
    let (joint_us, delta, candidates) = best.expect("at least one run");
    if std::env::var("MC_BENCH_DUMP").is_ok_and(|v| v == "1") {
        eprintln!("--- {name} best-run metrics ---\n{}", delta.render());
    }
    let report = VariantReport {
        name,
        shards: params.shards,
        candidates,
        joint_us,
        config_us: delta.span("mc.core.joint.config").total_us,
        events: delta.counter("mc.core.ssj.events"),
        scored: delta.counter("mc.core.ssj.scored"),
        verify_tokens: delta.counter("mc.core.ssj.verify_tokens"),
        dense_fallbacks: delta.counter("mc.core.ssj.dense_fallback"),
        allocs,
    };
    (report, entries)
}

/// One single-repetition execution used only for the shard-identity
/// sweep; returns the canonical entries.
fn entries_at(
    ta: &TokenizedTable,
    tb: &TokenizedTable,
    tree: &ConfigTree,
    params: JointParams,
) -> Entries {
    let killed = PairSet::new();
    let out = run_joint(ta, tb, &killed, tree, params);
    out.lists.iter().map(|l| l.sorted_entries()).collect()
}

/// Panics (→ exit 101) with a per-config diagnosis when two executions'
/// canonical entries differ anywhere.
fn assert_identical(reference: &Entries, got: &Entries, label: &str) {
    assert_eq!(
        reference.len(),
        got.len(),
        "{label}: config count diverged from the single-shard reference"
    );
    for (cfg, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
        assert!(
            r == g,
            "{label}: sorted_entries mismatch at config {cfg} \
             (reference {} entries, got {}) — the sharded execution \
             must be bit-identical to the single-shard one",
            r.len(),
            g.len()
        );
    }
}

fn main() {
    let env = BenchEnv::parse();
    let scale = env.scale(1.0, 0.02);
    let k: usize = env.value_or("--k", 200);
    let seed = env.seed(7);
    let runs = env.runs(3);
    let threads = env.threads();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let shards: usize = env.value_or("--shards", if env.smoke { 8 } else { cores });
    let out_path = env.out("BENCH_scale.json");

    let ds = DatasetProfile::ZipfScale.generate_scaled(seed, scale);
    let generator = ConfigGenerator::default();
    let promising = generator.promising(&ds.a, &ds.b);
    let tree = generator.build_tree(&promising);

    let tok_base = MetricsSnapshot::capture();
    let (ta, tb, _) = TokenizedTable::build_pair(&ds.a, &ds.b, &promising.attrs, Tokenizer::Word);
    let tokenize_us = MetricsSnapshot::capture()
        .since(&tok_base)
        .span("mc.strsim.dict.build")
        .total_us;

    let (single, reference) =
        run_variant("single", &ta, &tb, &tree, params_for(k, threads, 1), runs);
    let (sharded, sharded_entries) = run_variant(
        "sharded",
        &ta,
        &tb,
        &tree,
        params_for(k, threads, shards),
        runs,
    );

    // Determinism contract: every swept shard count reproduces the
    // single-shard entries bit for bit.
    assert_identical(&reference, &sharded_entries, "sharded");
    let mut shard_counts_checked = vec![1usize, 4, shards];
    shard_counts_checked.sort_unstable();
    shard_counts_checked.dedup();
    for &s in &shard_counts_checked {
        if s == shards {
            continue; // already checked via the sharded run above
        }
        let got = entries_at(&ta, &tb, &tree, params_for(k, threads, s));
        assert_identical(&reference, &got, &format!("shards={s}"));
    }

    let speedup_wall = single.joint_us as f64 / sharded.joint_us.max(1) as f64;

    let variants = [&single, &sharded];
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema\": \"mc-bench-scale/v2\",\n  \"cores\": {cores},\n  \
         \"dataset\": {{\"name\": \"{}\", \
         \"scale\": {}, \"records_a\": {}, \"records_b\": {}, \"k\": {}, \
         \"configs\": {}, \"tokenize_us\": {}}},\n  \"variants\": [",
        ds.name,
        scale,
        ds.a.len(),
        ds.b.len(),
        k,
        tree.len(),
        tokenize_us
    );
    for (i, v) in variants.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"name\": \"{}\", \"shards\": {}, \
             \"candidates\": {}, \"stages\": {{\"joint_us\": {}, \"config_us\": {}}}, \
             \"counters\": {{\"events\": {}, \"scored\": {}, \"verify_tokens\": {}, \
             \"dense_fallbacks\": {}}}, \
             \"allocs\": {{\"count\": {}, \"bytes\": {}}}}}",
            v.name,
            v.shards,
            v.candidates,
            v.joint_us,
            v.config_us,
            v.events,
            v.scored,
            v.verify_tokens,
            v.dense_fallbacks,
            v.allocs.allocations,
            v.allocs.bytes
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"identity\": {{\"shard_counts_checked\": {}}},\n  \
         \"speedup\": {{\"joint_wall\": {speedup_wall:.4}}}\n}}\n",
        shard_counts_checked.len()
    );
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");

    println!(
        "{:<8} {:>6} {:>12} {:>14} {:>12} {:>8}",
        "variant", "shards", "joint", "scored", "allocs", "|E|"
    );
    for v in &variants {
        println!(
            "{:<8} {:>6} {:>10.2}ms {:>14} {:>12} {:>8}",
            v.name,
            v.shards,
            v.joint_us as f64 / 1e3,
            v.scored,
            v.allocs.allocations,
            v.candidates
        );
    }
    println!(
        "identity ok across shard counts {shard_counts_checked:?}; \
         joint speedup {speedup_wall:.2}x wall on {cores} cores"
    );
    println!("wrote {out_path}");

    if env.has("--sweep") {
        // Diagnostic column: single-repetition joint wall time per shard
        // count. Not part of the JSON report.
        println!("{:<8} {:>12}", "shards", "joint");
        for s in [1usize, 2, 4, 8] {
            let killed = PairSet::new();
            let base = MetricsSnapshot::capture();
            let _ = run_joint(&ta, &tb, &killed, &tree, params_for(k, threads, s));
            let us = MetricsSnapshot::capture()
                .since(&base)
                .span("mc.core.joint.run")
                .total_us;
            println!("{s:<8} {:>10.2}ms", us as f64 / 1e3);
        }
    }
}
