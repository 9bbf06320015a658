//! Batch explain engine baseline: per-pair diagnosis vs. the columnar
//! [`DiagnosisKernel`], writing `BENCH_explain.json`.
//!
//! The workload is full-union pervasiveness on the zipf 60K×60K profile
//! — ROADMAP item 3's "fast enough to run on every session" target. The
//! candidate union models the joint top-k output across a config tree:
//! a seeded sample of the cross product at ~8 candidates per A-row,
//! which under the Zipfian value distribution makes repeated value
//! pairs (the kernel cache's bread and butter) the common case, exactly
//! as on real data. A slice of the union plays the confirmed
//! killed-match list.
//!
//! Two scenarios, best-of-N each:
//!
//! * `per_pair` — the seed-era slow path: [`pervasive::pervasiveness`]
//!   re-tokenizes both raw values and recomputes edit distances for
//!   every pair, single-threaded.
//! * `batch` — the pipeline's explain path:
//!   [`DiagnosisKernel::build_for`] over `union ∪ confirmed`
//!   (value/token interning over the rows those pairs touch, parallel
//!   per attribute) **plus** [`DiagnosisKernel::pervasiveness`] (sharded
//!   diagnosis with the value-pair cache). Build time is included — the
//!   speedup is end-to-end, not amortized.
//!
//! The identity gate runs on every rep: the batch groups must equal the
//! per-pair groups field for field (signature, member pairs, confirmed
//! counts), so the CI smoke run doubles as an exactness gate.
//!
//! `MC_BENCH_SMOKE=1` shrinks the dataset for CI. `--min-speedup` makes
//! the run exit non-zero below the given floor (used when regenerating
//! the committed full-scale baseline, not in smoke CI).
//!
//! `cargo run --release -p mc-bench --bin explain_baseline [--scale X]
//!  [--pairs-per-row N] [--runs N] [--threads N] [--out PATH]
//!  [--min-speedup X]`

use matchcatcher::joint::CandidateUnion;
use matchcatcher::pervasive::{self, ProblemGroup};
use matchcatcher::DiagnosisKernel;
use mc_bench::alloc::AllocStats;
use mc_bench::env::BenchEnv;
use mc_datagen::profiles::DatasetProfile;
use mc_table::{pair_key, split_pair_key, Table, TupleId};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

fn scale_tag(scale: f64) -> String {
    format!("{scale}").replace('.', "_")
}

/// A seeded stand-in for the joint top-k union: `per_row` candidates
/// per A-row, biased toward low B-ids the way Zipfian joins are, plus
/// the diagonal (the true matches a debugger cares about).
fn sample_union(a: &Table, b: &Table, per_row: usize, seed: u64) -> CandidateUnion {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_b = b.len() as u64;
    let mut pairs: Vec<u64> = Vec::with_capacity(a.len() * (per_row + 1));
    for x in 0..a.len() as TupleId {
        pairs.push(pair_key(x, x % b.len() as TupleId));
        for _ in 0..per_row {
            // Square the unit draw to skew toward popular (low-id) rows.
            let u: f64 = rng.random_range(0.0..1.0);
            let y = ((u * u) * n_b as f64) as u64;
            pairs.push(pair_key(x, y.min(n_b - 1) as TupleId));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    CandidateUnion {
        pairs,
        scores: Vec::new(),
    }
}

fn assert_identical(fast: &[ProblemGroup], slow: &[ProblemGroup]) {
    assert_eq!(fast.len(), slow.len(), "group counts diverge");
    for (f, s) in fast.iter().zip(slow) {
        assert!(
            f.signature == s.signature && f.pairs == s.pairs && f.confirmed == s.confirmed,
            "batch pervasiveness diverged from the per-pair oracle on {:?}",
            s.signature
        );
    }
}

fn main() {
    let env = BenchEnv::parse();
    let runs = env.runs(3);
    let out_path = env.out("BENCH_explain.json");
    let min_speedup: f64 = env.value_or("--min-speedup", 0.0);
    let per_row: usize = env.value_or("--pairs-per-row", 8);
    let threads = env.threads();
    let scale = env.scale(1.0, 0.01);

    let ds = DatasetProfile::ZipfScale.generate_scaled(7, scale);
    let name = format!("{}-{}", ds.name, scale_tag(scale));
    let union = sample_union(&ds.a, &ds.b, per_row, 0xe8);
    let confirmed: Vec<(TupleId, TupleId)> = union
        .pairs
        .iter()
        .step_by(97)
        .map(|&k| split_pair_key(k))
        .collect();
    println!(
        "{name}: {}x{} rows, union {} pairs, {} confirmed",
        ds.a.len(),
        ds.b.len(),
        union.pairs.len(),
        confirmed.len()
    );

    // Per-pair slow path.
    let mut slow_best = u64::MAX;
    let mut slow_allocs = AllocStats::capture();
    let mut slow_groups = Vec::new();
    for rep in 0..runs {
        let alloc_base = AllocStats::capture();
        let t = Instant::now();
        let groups = pervasive::pervasiveness(&ds.a, &ds.b, &union, &confirmed);
        let us = t.elapsed().as_micros() as u64;
        if rep == 0 {
            slow_allocs = AllocStats::capture().since(&alloc_base);
            slow_groups = groups;
        }
        slow_best = slow_best.min(us);
    }

    // Batch kernel, build included.
    let mut batch_best = u64::MAX;
    let mut build_best = u64::MAX;
    let mut batch_allocs = AllocStats::capture();
    let mut stats = None;
    for rep in 0..runs {
        let alloc_base = AllocStats::capture();
        let t = Instant::now();
        let kernel = DiagnosisKernel::build_for(
            &ds.a,
            &ds.b,
            union
                .pairs
                .iter()
                .map(|&k| split_pair_key(k))
                .chain(confirmed.iter().copied()),
            threads,
        );
        let build_us = t.elapsed().as_micros() as u64;
        let groups = kernel.pervasiveness(&union, &confirmed);
        let us = t.elapsed().as_micros() as u64;
        assert_identical(&groups, &slow_groups);
        if rep == 0 {
            batch_allocs = AllocStats::capture().since(&alloc_base);
            stats = Some(kernel.stats());
        }
        batch_best = batch_best.min(us);
        build_best = build_best.min(build_us);
    }
    let stats = stats.expect("at least one run");
    let speedup = slow_best as f64 / batch_best.max(1) as f64;

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mc-bench-explain/v1\",\n  \"datasets\": [");
    let _ = write!(
        json,
        "\n    {{\"name\": \"{name}\", \"rows_a\": {}, \"rows_b\": {}, \
         \"union_pairs\": {}, \"confirmed\": {}, \"groups\": {}, \"scenarios\": [\n      \
         {{\"name\": \"per_pair\", \"total_us\": {slow_best}, \
         \"allocs\": {{\"count\": {}, \"bytes\": {}}}}},\n      \
         {{\"name\": \"batch\", \"total_us\": {batch_best}, \"build_us\": {build_best}, \
         \"allocs\": {{\"count\": {}, \"bytes\": {}}}}}\n    ], \
         \"counters\": {{\"lookups\": {}, \"cache_entries\": {}, \"cache_hits\": {}, \
         \"distinct_values\": {}}}, \"identity\": true, \"speedup\": {speedup:.4}}}",
        ds.a.len(),
        ds.b.len(),
        union.pairs.len(),
        confirmed.len(),
        slow_groups.len(),
        slow_allocs.allocations,
        slow_allocs.bytes,
        batch_allocs.allocations,
        batch_allocs.bytes,
        stats.lookups,
        stats.cache_entries,
        stats.cache_hits(),
        stats.distinct_values,
    );
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_explain.json");

    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "scenario", "total", "allocs", "bytes"
    );
    println!(
        "{:<12} {:>10.2}ms {:>12} {:>12}",
        "per_pair",
        slow_best as f64 / 1e3,
        slow_allocs.allocations,
        slow_allocs.bytes
    );
    println!(
        "{:<12} {:>10.2}ms {:>12} {:>12}  (build {:.2}ms)",
        "batch",
        batch_best as f64 / 1e3,
        batch_allocs.allocations,
        batch_allocs.bytes,
        build_best as f64 / 1e3
    );
    println!(
        "identity ok; {} groups; cache {}/{} hits; speedup {speedup:.1}x",
        slow_groups.len(),
        stats.cache_hits(),
        stats.lookups
    );
    println!("wrote {out_path}");

    assert!(
        speedup >= min_speedup,
        "{name}: batch speedup {speedup:.2}x below the {min_speedup:.2}x floor"
    );
}
