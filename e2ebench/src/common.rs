//! Pieces shared by the workloads: the run outcome, the scripted session
//! reruns and their identity gate.

use crate::oracle::TimedOracle;
use crate::stats::{median, tail, Ratio};
use matchcatcher::{DebugReport, DebugSession, MatchCatcher};
use mc_datagen::delta::{perturb_killed, random_delta, DeltaSpec};
use mc_obs::MetricsSnapshot;
use mc_serve::proto::report_summary;
use mc_table::{GoldMatches, PairSet, TableDelta};
use rand::rngs::StdRng;
use std::time::Instant;

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (passes, reruns, requests, gates).
    pub attempted: u64,
    /// Operations that failed, gates included.
    pub failed: u64,
    /// Human-readable reasons for every failure.
    pub failures: Vec<String>,
    /// The metrics of this run, in print order.
    pub metrics: Vec<Metric>,
    /// Extra report lines: sample counts, ratio bases, tails.
    pub notes: Vec<String>,
    /// Workload sizes for the environment stamp (`rows`, `c`, `e`, ...).
    pub sizes: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a ratio metric and its base.
    pub fn ratio(&mut self, name: &'static str, r: Ratio) {
        self.notes.push(format!("{name} = {}", r.describe()));
        self.metric(name, r.value(), "ratio");
    }

    /// Records a timing sample set by its median, noting the count and,
    /// when there are enough samples, the tail.
    pub fn timing(&mut self, name: &'static str, samples: &[f64]) {
        let med = median(samples).unwrap_or(0.0);
        let tail = match tail(samples) {
            Some((p, v)) => format!(", p{p} = {v:.3} ms"),
            None => String::new(),
        };
        self.notes
            .push(format!("{name}: n={}{tail}", samples.len()));
        self.metric(name, med, "ms");
    }

    /// Counts one gate or operation check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn size(&mut self, key: &str, value: impl ToString) {
        self.sizes.push((key.to_string(), value.to_string()));
    }
}

/// Generator seed of the `n`-th table draw of a run.
pub fn data_seed(seed: u64, n: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9).wrapping_add(n)
}

/// The identity surface of a report (metrics excluded), as JSON text.
pub fn summary(report: &DebugReport) -> String {
    report_summary(report).to_json_string()
}

/// The explain stage of a run or rerun, from the report's own `mc-obs`
/// snapshot (recorded whether or not the benchmark traces), in ms.
pub fn explain_stage_ms(report: &DebugReport) -> f64 {
    span_ms(&report.metrics, "mc.core.debug.explain")
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The kind of a scripted rerun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerunKind {
    /// Unchanged tables, perturbed killed set.
    Killed,
    /// 1% random delta on both tables plus a killed-set diff.
    Delta,
}

/// A scripted session rerun and what it returned.
pub struct Rerun {
    pub kind: RerunKind,
    pub ms: f64,
    pub report: DebugReport,
    /// The killed set the rerun ran against (for the identity gate).
    pub killed: PairSet,
}

/// Draws and runs one scripted rerun against `session`, timing only the
/// `DebugSession::rerun` call.
pub fn scripted_rerun(
    session: &mut DebugSession,
    gold: &GoldMatches,
    kind: RerunKind,
    rng: &mut StdRng,
) -> Result<Rerun, String> {
    let (n_a, n_b) = (
        session.table_a().len() as u32,
        session.table_b().len() as u32,
    );
    let (da, db, killed) = match kind {
        RerunKind::Killed => (
            TableDelta::default(),
            TableDelta::default(),
            perturb_killed(session.killed(), n_a, n_b, 0.02, 50, rng),
        ),
        RerunKind::Delta => {
            let da = random_delta(
                session.table_a(),
                DeltaSpec::fraction_of(n_a as usize, 0.01),
                rng,
            );
            let db = random_delta(
                session.table_b(),
                DeltaSpec::fraction_of(n_b as usize, 0.01),
                rng,
            );
            let killed = perturb_killed(session.killed(), n_a, n_b, 0.01, 20, rng);
            (da, db, killed)
        }
    };
    let mut oracle = TimedOracle::new(gold);
    let t = Instant::now();
    let report = session
        .rerun(&da, &db, Some(killed.clone()), &mut oracle)
        .map_err(|e| format!("{kind:?} rerun rejected its delta: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Rerun {
        kind,
        ms,
        report,
        killed,
    })
}

/// The rerun identity gate: the last rerun of each kind must equal a
/// cold `start_session` on the tables and killed set it ran against.
/// Runs outside any timed phase. The script must end with a killed-only
/// rerun: then no delta follows either of the two, so the session's
/// current tables are the tables both ran against.
pub fn rerun_gate(
    mc: &MatchCatcher,
    session: &DebugSession,
    gold: &GoldMatches,
    lasts: [&Rerun; 2],
    out: &mut Outcome,
    context: &str,
) {
    for last in lasts {
        let mut oracle = TimedOracle::new(gold);
        let (_, cold) = mc.start_session(
            session.table_a().clone(),
            session.table_b().clone(),
            last.killed.clone(),
            &mut oracle,
        );
        let same = summary(&cold) == summary(&last.report);
        out.check(same, || {
            format!(
                "{context}: last {:?} rerun differs from a cold start_session",
                last.kind
            )
        });
    }
}

/// Span total of `name` in a snapshot, in ms.
pub fn span_ms(m: &MetricsSnapshot, name: &str) -> f64 {
    m.span(name).total_us as f64 / 1e3
}
