//! Scale-out SSJ baseline: runs the joint top-k execution on the
//! synthetic `zipf-scale` profile (60K × 60K records at scale 1.0,
//! heavy-tailed token distribution) in two configurations and writes
//! `BENCH_scale.json`:
//!
//! * `single_scalar` — `shards = 1`, scalar merge+gallop kernel: the
//!   paper's one-config-per-core schedule, where the root config's join
//!   runs on a single thread;
//! * `sharded_simd` — `--shards` record-range shards (default 8) with
//!   the bitmap popcount kernel: configs run sequentially, each join
//!   split across workers.
//!
//! Both variants run with the same `--threads` budget, so the
//! comparison is kernel + schedule.
//!
//! Two speedups are reported, both from measured times only:
//!
//! * `speedup.joint_wall` — single-shard joint time over sharded joint
//!   time as wall-clocked on this machine. On a box with fewer cores
//!   than shards the workers serialize, so this can be < 1.
//! * `speedup.joint_critical_path` — single-shard joint time over the
//!   sharded variant's `stages.critical_us`, where every sharded stage
//!   is collapsed to its slowest shard's measured busy time. This is
//!   the sharded wall clock once `threads >= shards`; it is
//!   conservative, because each shard's busy time is measured while the
//!   shards run back-to-back and therefore sees no cross-shard pruning
//!   help from concurrently running peers.
//!
//! The binary also verifies the sharding determinism contract on every
//! run: the bitmap-kernel execution at shard counts {1, 4, `--shards`}
//! must produce `sorted_entries()` bit-identical to the single-shard
//! scalar reference for every config. A mismatch aborts with exit code 1
//! — in CI the smoke run doubles as the identity gate.
//!
//! `MC_BENCH_SMOKE=1` shrinks the defaults to `--scale 0.02 --runs 1`
//! for CI; explicit flags still override. With `--min-speedup X` the run
//! exits non-zero unless `speedup.joint_critical_path >= X` (used when
//! regenerating the committed full-scale baseline, not in smoke CI).
//!
//! `cargo run --release -p mc-bench --bin scale_baseline [--scale X]
//!  [--runs N] [--threads N] [--shards N] [--k N] [--out PATH]
//!  [--min-speedup X]`

use matchcatcher::config::{ConfigGenerator, ConfigTree};
use matchcatcher::joint::{run_joint, CandidateUnion, JointParams, SsjKernel};
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
    kernel: &'static str,
    candidates: usize,
    joint_us: u64,
    config_us: u64,
    /// Joint time with each sharded stage collapsed to its slowest
    /// shard's busy time — the wall clock once `threads >= shards`.
    /// Equals `joint_us` for unsharded variants.
    critical_us: u64,
    events: u64,
    scored: u64,
    dense_fallbacks: u64,
    allocs: AllocStats,
}

fn params_for(k: usize, threads: usize, shards: usize, kernel: SsjKernel) -> JointParams {
    let mut params = JointParams {
        k,
        shards,
        kernel,
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
    // Parallel critical path: replace every sharded stage's sequential
    // time with its slowest shard's busy time (both measured — see
    // `mc.core.ssj.shard_critical_us`). On a machine with fewer cores
    // than shards the workers serialize, so `joint_us` carries the full
    // per-shard sum while this is the wall clock at `threads >= shards`.
    let sharded_us = delta.span("mc.core.ssj.sharded").total_us;
    let shard_critical_us = delta.span("mc.core.ssj.shard_critical_us").total_us;
    let critical_us = joint_us - sharded_us.min(joint_us) + shard_critical_us;
    let report = VariantReport {
        name,
        shards: params.shards,
        kernel: match params.kernel {
            SsjKernel::Scalar => "scalar",
            SsjKernel::Bitmap { .. } => "bitmap",
        },
        candidates,
        joint_us,
        config_us: delta.span("mc.core.joint.config").total_us,
        critical_us,
        events: delta.counter("mc.core.ssj.events"),
        scored: delta.counter("mc.core.ssj.scored"),
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
        "{label}: config count diverged from the scalar reference"
    );
    for (cfg, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
        assert!(
            r == g,
            "{label}: sorted_entries mismatch at config {cfg} \
             (reference {} entries, got {}) — the sharded/bitmap execution \
             must be bit-identical to the single-shard scalar one",
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
    let shards: usize = env.value_or("--shards", 8);
    let out_path = env.out("BENCH_scale.json");
    let min_speedup: f64 = env.value_or("--min-speedup", 0.0);

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

    let (single, reference) = run_variant(
        "single_scalar",
        &ta,
        &tb,
        &tree,
        params_for(k, threads, 1, SsjKernel::Scalar),
        runs,
    );
    let (sharded, sharded_entries) = run_variant(
        "sharded_simd",
        &ta,
        &tb,
        &tree,
        params_for(k, threads, shards, SsjKernel::bitmap()),
        runs,
    );

    // Determinism contract: the bitmap kernel at every swept shard count
    // reproduces the scalar single-shard entries bit for bit.
    assert_identical(&reference, &sharded_entries, "sharded_simd");
    let mut shard_counts_checked = vec![1usize, 4, shards];
    shard_counts_checked.sort_unstable();
    shard_counts_checked.dedup();
    for &s in &shard_counts_checked {
        if s == shards {
            continue; // already checked via the sharded_simd run above
        }
        let got = entries_at(
            &ta,
            &tb,
            &tree,
            params_for(k, threads, s, SsjKernel::bitmap()),
        );
        assert_identical(&reference, &got, &format!("bitmap shards={s}"));
    }

    // Wall-clock speedup on THIS machine (sequential when cores <
    // shards) and the parallel speedup at `threads >= shards`, from the
    // measured per-shard critical paths.
    let speedup_wall = single.joint_us as f64 / sharded.joint_us.max(1) as f64;
    let speedup = single.joint_us as f64 / sharded.critical_us.max(1) as f64;

    let variants = [&single, &sharded];
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema\": \"mc-bench-scale/v1\",\n  \"dataset\": {{\"name\": \"{}\", \
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
            "\n    {{\"name\": \"{}\", \"shards\": {}, \"kernel\": \"{}\", \
             \"candidates\": {}, \"stages\": {{\"joint_us\": {}, \"config_us\": {}, \
             \"critical_us\": {}}}, \
             \"counters\": {{\"events\": {}, \"scored\": {}, \"dense_fallbacks\": {}}}, \
             \"allocs\": {{\"count\": {}, \"bytes\": {}}}}}",
            v.name,
            v.shards,
            v.kernel,
            v.candidates,
            v.joint_us,
            v.config_us,
            v.critical_us,
            v.events,
            v.scored,
            v.dense_fallbacks,
            v.allocs.allocations,
            v.allocs.bytes
        );
    }
    let _ = write!(
        json,
        "\n  ],\n  \"identity\": {{\"shard_counts_checked\": {}}},\n  \
         \"speedup\": {{\"joint_wall\": {speedup_wall:.4}, \
         \"joint_critical_path\": {speedup:.4}}}\n}}\n",
        shard_counts_checked.len()
    );
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");

    println!(
        "{:<14} {:>6} {:>8} {:>12} {:>12} {:>14} {:>12} {:>8}",
        "variant", "shards", "kernel", "joint", "critical", "scored", "allocs", "|E|"
    );
    for v in &variants {
        println!(
            "{:<14} {:>6} {:>8} {:>10.2}ms {:>10.2}ms {:>14} {:>12} {:>8}",
            v.name,
            v.shards,
            v.kernel,
            v.joint_us as f64 / 1e3,
            v.critical_us as f64 / 1e3,
            v.scored,
            v.allocs.allocations,
            v.candidates
        );
    }
    println!(
        "identity ok across shard counts {shard_counts_checked:?}; \
         joint speedup {speedup_wall:.2}x wall, {speedup:.2}x critical-path \
         (threads >= shards)"
    );
    println!("wrote {out_path}");

    if env.has("--sweep") {
        // Diagnostic matrix: single-repetition joint time for every
        // (shards, kernel) combination. Not part of the JSON report.
        println!("{:<8} {:>12} {:>12}", "shards", "scalar", "bitmap");
        for s in [1usize, 2, 4, 8] {
            let mut row = format!("{s:<8}");
            for kernel in [SsjKernel::Scalar, SsjKernel::bitmap()] {
                let killed = PairSet::new();
                let base = MetricsSnapshot::capture();
                let _ = run_joint(&ta, &tb, &killed, &tree, params_for(k, threads, s, kernel));
                let us = MetricsSnapshot::capture()
                    .since(&base)
                    .span("mc.core.joint.run")
                    .total_us;
                let _ = write!(row, " {:>10.2}ms", us as f64 / 1e3);
            }
            println!("{row}");
        }
    }

    if min_speedup > 0.0 && speedup < min_speedup {
        eprintln!(
            "SPEEDUP BELOW FLOOR: sharded_simd critical path is only {speedup:.2}x \
             faster than single_scalar (floor {min_speedup})"
        );
        std::process::exit(1);
    }
}
