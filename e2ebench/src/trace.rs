//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call into a layer: name, start, end, parent and pass id. Where the only
//! public call is the whole operation, the operation's own `mc-obs`
//! snapshot splits it, and those child spans are recorded as *derived*:
//! their durations are exact, but they carry no start time of their own.
//! Spans stay in memory and are written out once, when the run ends.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    pass: u64,
    derived: bool,
}

/// In-memory span recorder for one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    pass: u64,
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Sets the pass id stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u64) {
        self.pass = pass;
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let now = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: (now - self.origin).as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().map(|&(i, _)| i),
            pass: self.pass,
            derived: false,
        });
        self.open.push((idx, now));
        SpanId(idx)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let (idx, start) = self.open.pop().expect("exit without a matching enter");
        assert_eq!(idx, id.0, "spans must close innermost first");
        self.spans[idx].dur_us = start.elapsed().as_secs_f64() * 1e6;
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a child of span `parent` whose duration comes from an
    /// `mc-obs` snapshot rather than from this recorder's clock.
    pub fn derived(&mut self, parent: usize, name: &str, dur_ms: f64) {
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.spans[parent].start_us,
            dur_us: dur_ms.max(0.0) * 1e3,
            parent: Some(parent),
            pass: self.pass,
            derived: true,
        });
    }

    /// Records a span timed elsewhere that ended just now, under the
    /// innermost open span; returns its index for [`Tracer::derived`].
    pub fn closed(&mut self, name: &str, dur_ms: f64) -> usize {
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: end_us - dur_ms * 1e3,
            dur_us: dur_ms * 1e3,
            parent: self.open.last().map(|&(i, _)| i),
            pass: self.pass,
            derived: false,
        });
        idx
    }

    /// Per pass, the summed duration (ms) of spans named `name`; passes
    /// without such a span are skipped.
    pub fn per_pass_ms(&self, name: &str) -> Vec<f64> {
        let mut by_pass: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_pass.entry(s.pass).or_default() += s.dur_us / 1e3;
        }
        by_pass.into_values().collect()
    }

    /// Median over passes of the per-pass total of `name`, in ms (0 when
    /// the span never ran).
    pub fn median_pass_ms(&self, name: &str) -> f64 {
        median(&self.per_pass_ms(name)).unwrap_or(0.0)
    }

    /// For each span named in `parents`, the share of its duration not
    /// covered by its direct children; the median over those spans.
    pub fn unattributed_share(&self, parents: &[&str]) -> f64 {
        let mut child_us: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.dur_us;
            }
        }
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| parents.contains(&s.name.as_str()) && s.dur_us > 0.0)
            .map(|(i, s)| {
                let covered = child_us.get(&i).copied().unwrap_or(0.0);
                ((s.dur_us - covered) / s.dur_us).max(0.0)
            })
            .collect();
        median(&shares).unwrap_or(0.0)
    }

    /// Writes every span as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"pass\":{},\"derived\":{}}}",
                s.name,
                s.start_us,
                s.start_us + s.dur_us,
                s.pass,
                s.derived
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_attribute_their_parent() {
        let mut t = Tracer::new();
        t.set_pass(1);
        let pass = t.enter("pass");
        t.time("stage", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(pass);
        let op = t.closed("op", 10.0);
        t.derived(op, "part", 9.0);
        assert!((t.unattributed_share(&["op"]) - 0.1).abs() < 1e-9);
        assert_eq!(t.per_pass_ms("stage").len(), 1);
        assert!(t.median_pass_ms("stage") >= 5.0);
        let share = t.unattributed_share(&["pass"]);
        assert!((0.0..0.5).contains(&share), "share {share}");
        assert_eq!(t.median_pass_ms("missing"), 0.0);
    }
}
