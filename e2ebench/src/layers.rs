//! Per-layer metrics of the traced run.
//!
//! A `*_ms` metric is the layer's time in one cold debugging pass: the
//! per-pass total of the trace spans of that name (without `_ms`), median
//! over passes. Counts are per-pass totals, median over passes; ratios
//! are run totals with their base printed. Every metric of [`PER_LAYER`]
//! is printed on every workload; a layer the workload bypasses reads 0.

use crate::common::{span_ms, Outcome, RerunKind};
use crate::stats::{median, percentile_with_tail, Ratio};
use crate::trace::Tracer;
use mc_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::Path;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("config.promising_ms", "ms"),
    ("config.tree_ms", "ms"),
    ("strsim.tokenize_ms", "ms"),
    ("strsim.distinct_tokens", "count"),
    ("joint.arenas_ms", "ms"),
    ("joint.topk_ms", "ms"),
    ("joint.union_ms", "ms"),
    ("joint.candidates", "count"),
    ("joint.reuse_hit_ratio", "ratio"),
    ("joint.scored_per_candidate", "ratio"),
    ("verify.run_ms", "ms"),
    ("verify.first_batch_ms", "ms"),
    ("verify.iter_gap_p50_ms", "ms"),
    ("verify.iter_gap_p90_ms", "ms"),
    ("verify.iterations", "count"),
    ("verify.labels", "count"),
    ("explain.build_ms", "ms"),
    ("explain.diagnose_ms", "ms"),
    ("explain.pervade_ms", "ms"),
    ("explain.values_interned", "count"),
    ("explain.pairs_per_value", "ratio"),
    ("explain.cache_hit_ratio", "ratio"),
    ("incr.maintain_ms", "ms"),
    ("incr.killed_verify_ms", "ms"),
    ("incr.killed_explain_ms", "ms"),
    ("incr.pairs_rescored", "count"),
    ("incr.records_patched", "count"),
    ("incr.full_rejoins", "count"),
    ("incr.resident_mb", "MB"),
    ("store.hit_ratio", "ratio"),
    ("store.failed", "count"),
    ("store.bytes", "bytes"),
    ("serve.open_rtt_ms", "ms"),
    ("serve.rerun_killed_rtt_ms", "ms"),
    ("serve.rerun_delta_rtt_ms", "ms"),
    ("serve.explain_rtt_ms", "ms"),
    ("serve.pervade_rtt_ms", "ms"),
    ("serve.label_rtt_ms", "ms"),
    ("serve.metrics_rtt_ms", "ms"),
    ("serve.close_rtt_ms", "ms"),
    ("serve.open_rtt_p90_ms", "ms"),
    ("serve.rerun_killed_rtt_p90_ms", "ms"),
    ("serve.rerun_delta_rtt_p90_ms", "ms"),
    ("serve.explain_rtt_p90_ms", "ms"),
    ("serve.open_exec_ms", "ms"),
    ("serve.rerun_killed_exec_ms", "ms"),
    ("serve.rerun_delta_exec_ms", "ms"),
    ("serve.explain_exec_ms", "ms"),
    ("serve.pervade_exec_ms", "ms"),
    ("serve.label_exec_ms", "ms"),
    ("serve.metrics_exec_ms", "ms"),
    ("serve.close_exec_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.wire_share", "ratio"),
    ("serve.resident_mb", "MB"),
    ("serve.protocol_errors", "count"),
    ("obs.trace_overhead_share", "ratio"),
    ("obs.unattributed_share", "ratio"),
];

/// Per-layer values gathered during a traced run.
#[derive(Default)]
pub struct Layers {
    pass: u64,
    sums: BTreeMap<&'static str, BTreeMap<u64, f64>>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    gaps: Vec<f64>,
}

impl Layers {
    /// Sets the pass that [`Layers::add`] accumulates into.
    pub fn set_pass(&mut self, pass: u64) {
        self.pass = pass;
    }

    /// Adds `v` to this pass's total of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self
            .sums
            .entry(name)
            .or_default()
            .entry(self.pass)
            .or_default() += v;
    }

    /// Adds to the run totals of ratio `name`.
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let r = self.ratios.entry(name).or_default();
        r.0 += num;
        r.1 += den;
    }

    /// Sets `name` outright.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Adds one sample of `name`; the metric is the samples' median.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds verifier batch gaps.
    pub fn gaps(&mut self, gaps: Vec<f64>) {
        self.gaps.extend(gaps);
    }

    /// Records the explain-kernel counters of an `mc-obs` delta.
    pub fn explain_counters(&mut self, m: &MetricsSnapshot) {
        let interned = m.counter("mc.core.explain.values_interned") as f64;
        self.add("explain.values_interned", interned);
        self.ratio(
            "explain.pairs_per_value",
            m.counter("mc.core.explain.pairs") as f64,
            interned,
        );
        self.ratio(
            "explain.cache_hit_ratio",
            m.counter("mc.core.explain.cache_hits") as f64,
            m.counter("mc.core.explain.diagnosed") as f64,
        );
    }

    /// Emits every [`PER_LAYER`] metric into `out`, plus the
    /// unattributed share of the spans named in `ops`, and writes the
    /// run's spans to `spans`.
    pub fn finish(mut self, tracer: &Tracer, out: &mut Outcome, ops: &[&str], spans: &Path) {
        match tracer.write(spans) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", spans.display())),
            Err(e) => out.notes.push(format!("spans not written: {e}")),
        }
        self.set("obs.unattributed_share", tracer.unattributed_share(ops));
        let gap_p50 = median(&self.gaps).unwrap_or(0.0);
        self.set("verify.iter_gap_p50_ms", gap_p50);
        let gap_p90 = percentile_with_tail(&self.gaps, 90.0);
        self.set("verify.iter_gap_p90_ms", gap_p90.unwrap_or(0.0));
        out.notes
            .push(format!("verify.iter_gap: n={}", self.gaps.len()));
        for &(name, unit) in PER_LAYER {
            let value = if let Some(&v) = self.values.get(name) {
                v
            } else if let Some(&(num, den)) = self.ratios.get(name) {
                let r = Ratio::new(num, den);
                out.notes.push(format!("{name} = {}", r.describe()));
                r.value()
            } else if let Some(s) = self.samples.get(name) {
                out.notes.push(format!("{name}: n={}", s.len()));
                median(s).unwrap_or(0.0)
            } else if let Some(by_pass) = self.sums.get(name) {
                median(&by_pass.values().copied().collect::<Vec<_>>()).unwrap_or(0.0)
            } else if let Some(span) = name.strip_suffix("_ms") {
                tracer.median_pass_ms(span)
            } else {
                0.0
            };
            out.metric(name, value, unit);
        }
    }
}

/// Splits a rerun of `ms` wall time by its `mc-obs` snapshot into
/// derived trace spans (the rerun's direct child spans: killed-set diff,
/// promising recompute, patch, list maintenance, verify and the explain
/// kernel's stages) and per-layer samples. Maintenance is the rerun minus
/// verify and explain.
pub fn split_rerun(
    tracer: &mut Tracer,
    layers: &mut Layers,
    kind: RerunKind,
    ms: f64,
    m: &MetricsSnapshot,
) {
    let op = tracer.closed("rerun", ms);
    for (span, name) in [
        ("mc.core.incr.killed_diff", "rerun.incr.killed_diff"),
        ("mc.core.incr.promising", "rerun.incr.promising"),
        ("mc.core.incr.patch", "rerun.incr.patch"),
        ("mc.core.debug.topk", "rerun.incr.lists"),
        ("mc.core.debug.verify", "rerun.verify.run"),
    ] {
        tracer.derived(op, name, span_ms(m, span));
    }
    split_explain(tracer, op, m, "rerun.");
    let verify = span_ms(m, "mc.core.debug.verify");
    let explain = span_ms(m, "mc.core.debug.explain");
    // The report's snapshot is taken before the rerun's own span closes,
    // so the rerun total is the call's wall time, measured outside.
    let maintain = ms - verify - explain;
    match kind {
        RerunKind::Delta => {
            layers.sample("incr.maintain_ms", maintain);
            layers.sample(
                "incr.pairs_rescored",
                m.counter("mc.core.incr.pairs_rescored") as f64,
            );
            layers.sample(
                "incr.records_patched",
                m.counter("mc.core.incr.records_patched") as f64,
            );
        }
        RerunKind::Killed => {
            layers.sample("incr.killed_verify_ms", verify);
            layers.sample("incr.killed_explain_ms", explain);
        }
    }
    layers.add(
        "incr.full_rejoins",
        m.counter("mc.core.incr.full_rejoins") as f64,
    );
}

/// Splits the explain stage of snapshot `m` into derived spans under
/// `op`: the kernel build, pervasiveness, and the rest (diagnosing the
/// confirmed matches and summarising them).
pub fn split_explain(tracer: &mut Tracer, op: usize, m: &MetricsSnapshot, prefix: &str) {
    let explain = span_ms(m, "mc.core.debug.explain");
    let build = span_ms(m, "mc.core.explain.build");
    let pervade = span_ms(m, "mc.core.explain.pervasiveness");
    tracer.derived(op, &format!("{prefix}explain.build"), build);
    tracer.derived(op, &format!("{prefix}explain.pervade"), pervade);
    tracer.derived(
        op,
        &format!("{prefix}explain.diagnose"),
        explain - build - pervade,
    );
}

/// Splits a cold pipeline run (a `start_session`, or an `open` replayed
/// in process) by its `mc-obs` snapshot into derived spans under `op`.
/// The session's first prepare span covers statistics, promising
/// attributes and the config tree; the second is tokenization.
pub fn split_cold(tracer: &mut Tracer, layers: &mut Layers, op: usize, m: &MetricsSnapshot) {
    let mut prepares: Vec<_> = m.events_named("mc.core.debug.prepare");
    prepares.sort_by_key(|e| e.seq);
    let prepare_ms: Vec<f64> = prepares.iter().map(|e| e.dur_ns as f64 / 1e6).collect();
    if let [promising, tokenize] = prepare_ms[..] {
        tracer.derived(op, "config.promising", promising);
        tracer.derived(op, "strsim.tokenize", tokenize);
    } else {
        tracer.derived(op, "prepare", span_ms(m, "mc.core.debug.prepare"));
    }
    let arenas = span_ms(m, "mc.core.joint.build_arenas");
    tracer.derived(op, "joint.arenas", arenas);
    tracer.derived(op, "joint.topk", span_ms(m, "mc.core.debug.topk") - arenas);
    tracer.derived(op, "verify.run", span_ms(m, "mc.core.debug.verify"));
    split_explain(tracer, op, m, "");
    layers.add(
        "strsim.distinct_tokens",
        m.gauge("mc.strsim.dict.distinct_tokens") as f64,
    );
    layers.explain_counters(m);
}
