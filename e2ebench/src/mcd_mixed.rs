//! `mcd-mixed`: an in-process `mcd` (`Daemon::spawn`, two workers, a
//! shared store root) driven by two closed-loop TCP clients with zero
//! think time.
//!
//! Each client repeats one session script: `open` (fodors-zagats, with
//! [`DATA_SEEDS`] generator seeds taken in turn, so later opens find their
//! artifacts in the warm store) → `explain` (limit 20, the first page a client shows)
//! → delta `rerun` → killed-only `rerun` → delta → killed-only →
//! `pervade` → `label` → `metrics` → `close`. Requests are small and
//! many, so frame and JSON handling, the queue, the session manager and
//! store hits carry the cost rather than the joins.
//!
//! Set-up spawns the daemon and warms the store with one open per
//! generator seed. Fodors-zagats is small (112 gold matches), so one
//! table pair's results swing widely with its seed; the load cycles
//! through many pairs so that per-run figures describe the profile, not
//! one draw of it.
//! After the load, one recorded session is replayed in process through
//! `parse_request` → `SessionManager::execute` and must return the same
//! report summaries it returned over the wire. The traced run also
//! replays scripts in process to time execution and encoding per verb,
//! and splits `open` and `rerun` by the session's `metrics` snapshots.

use crate::common::{peak_rss_mb, Outcome, RerunKind};
use crate::layers::{split_cold, split_rerun, Layers};
use crate::stats::{median, percentile_with_tail, Ratio};
use crate::trace::Tracer;
use mc_obs::{JsonValue, MetricsSnapshot};
use mc_serve::frame::write_frame;
use mc_serve::proto::parse_request;
use mc_serve::{Client, Daemon, ServeParams, SessionManager};
use mc_store::{Store, StoreConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const PROFILE: &str = "fodors-zagats";
/// Concurrent clients, and daemon workers (at most `nproc` = 2).
const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Sessions replayed in process by the traced run.
const REPLAYS: usize = 12;
/// Distinct fodors-zagats table pairs per run.
const DATA_SEEDS: u64 = 32;

/// Generator seed of the `n`-th table pair of a run.
fn data_seed(seed: u64, n: u64) -> u64 {
    seed.wrapping_mul(DATA_SEEDS).wrapping_add(n % DATA_SEEDS)
}

/// One step of the session script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Open,
    Explain,
    Rerun(RerunKind),
    Pervade,
    Label,
    Metrics,
    Close,
}

const SCRIPT: [Step; 10] = [
    Step::Open,
    Step::Explain,
    Step::Rerun(RerunKind::Delta),
    Step::Rerun(RerunKind::Killed),
    Step::Rerun(RerunKind::Delta),
    Step::Rerun(RerunKind::Killed),
    Step::Pervade,
    Step::Label,
    Step::Metrics,
    Step::Close,
];

impl Step {
    /// Name used for per-verb metrics.
    fn name(self) -> &'static str {
        match self {
            Step::Open => "open",
            Step::Explain => "explain",
            Step::Rerun(RerunKind::Killed) => "rerun_killed",
            Step::Rerun(RerunKind::Delta) => "rerun_delta",
            Step::Pervade => "pervade",
            Step::Label => "label",
            Step::Metrics => "metrics",
            Step::Close => "close",
        }
    }
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The scripted state a request is built from.
#[derive(Debug, Clone, Copy)]
struct Ctx {
    /// Generator seed of this session's tables.
    data_seed: u64,
    /// Seed of this session's deltas and perturbations.
    script_seed: u64,
    session: u64,
    /// A pair to label (the first confirmed match, when there is one).
    label: (u64, u64, bool),
}

fn request(step: Step, ctx: &Ctx, index: usize) -> JsonValue {
    let session = ("session", ctx.session.into());
    let seed = ctx.script_seed.wrapping_mul(31).wrapping_add(index as u64);
    let perturb = |rate: f64, kills: u64| {
        obj(vec![
            ("unkill_rate", JsonValue::Num(rate)),
            ("kills", kills.into()),
            ("seed", seed.into()),
        ])
    };
    let spec = || {
        obj(vec![(
            "spec",
            obj(vec![("frac", JsonValue::Num(0.01)), ("seed", seed.into())]),
        )])
    };
    match step {
        Step::Open => obj(vec![
            ("verb", "open".into()),
            ("profile", PROFILE.into()),
            ("scale", JsonValue::Num(1.0)),
            ("seed", ctx.data_seed.into()),
            ("blocker_attr", 0u64.into()),
            ("q", 1u64.into()),
        ]),
        Step::Explain => obj(vec![
            ("verb", "explain".into()),
            session,
            ("limit", 20u64.into()),
        ]),
        Step::Rerun(RerunKind::Killed) => obj(vec![
            ("verb", "rerun".into()),
            session,
            ("perturb_killed", perturb(0.02, 10)),
        ]),
        Step::Rerun(RerunKind::Delta) => obj(vec![
            ("verb", "rerun".into()),
            session,
            ("delta_a", spec()),
            ("delta_b", spec()),
            ("perturb_killed", perturb(0.01, 5)),
        ]),
        Step::Pervade => obj(vec![
            ("verb", "pervade".into()),
            session,
            ("limit", 20u64.into()),
        ]),
        Step::Label => obj(vec![
            ("verb", "label".into()),
            session,
            ("a", ctx.label.0.into()),
            ("b", ctx.label.1.into()),
            ("is_match", ctx.label.2.into()),
        ]),
        Step::Metrics => obj(vec![("verb", "metrics".into()), session]),
        Step::Close => obj(vec![("verb", "close".into()), session]),
    }
}

fn is_ok(resp: &JsonValue) -> bool {
    resp.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

/// The `report` summary of an `open`/`rerun` response, as JSON text.
fn report_text(resp: &JsonValue) -> Option<String> {
    resp.get("report").map(JsonValue::to_json_string)
}

/// Reads the state later steps need from a response.
fn absorb(step: Step, resp: &JsonValue, ctx: &mut Ctx) {
    if step == Step::Open {
        ctx.session = resp.get("session").and_then(JsonValue::as_u64).unwrap_or(0);
    }
    if let Some(report) = resp.get("report") {
        let first = report
            .get("confirmed")
            .and_then(JsonValue::as_array)
            .and_then(|c| c.first())
            .and_then(JsonValue::as_array)
            .and_then(|p| Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?)));
        ctx.label = match first {
            Some((a, b)) => (a, b, true),
            None => (0, 0, false),
        };
    }
}

/// What one client observed.
#[derive(Default)]
struct ClientLog {
    /// (step, rtt ms, ok)
    calls: Vec<(Step, f64, bool)>,
    /// `open` sent → first `explain` page received, per session.
    first_batch_ms: Vec<f64>,
    /// (confirmed matches, labels) of each `open` report.
    opens: Vec<(f64, f64)>,
    /// Errors seen, for the failure report.
    errors: Vec<String>,
    /// The first session's requests' contexts and report summaries.
    recorded: Option<(Ctx, Vec<Option<String>>)>,
}

fn run_client(addr: std::net::SocketAddr, id: usize, seed: u64, deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr, Duration::from_secs(60)) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("client {id}: connect: {e}"));
            log.calls.push((Step::Open, 0.0, false));
            return log;
        }
    };
    let mut n = 0u64;
    while Instant::now() < deadline {
        let mut ctx = Ctx {
            data_seed: data_seed(seed, n * CLIENTS as u64 + id as u64),
            script_seed: seed ^ ((id as u64) << 40) ^ n,
            session: 0,
            label: (0, 0, false),
        };
        let start_ctx = ctx;
        let mut reports = Vec::new();
        let t_open = Instant::now();
        for (i, &step) in SCRIPT.iter().enumerate() {
            let t = Instant::now();
            let resp = client.call(&request(step, &ctx, i));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    log.errors
                        .push(format!("client {id}: {}: {e}", step.name()));
                    log.calls.push((step, ms, false));
                    return log;
                }
            };
            let ok = is_ok(&resp);
            if !ok {
                log.errors.push(format!(
                    "client {id}: {} answered {}",
                    step.name(),
                    resp.to_json_string()
                ));
            }
            log.calls.push((step, ms, ok));
            if step == Step::Explain {
                log.first_batch_ms
                    .push(t_open.elapsed().as_secs_f64() * 1e3);
            }
            if step == Step::Open {
                let report = resp.get("report");
                let confirmed = report
                    .and_then(|r| r.get("confirmed"))
                    .and_then(JsonValue::as_array)
                    .map_or(0, <[JsonValue]>::len);
                let labeled = report
                    .and_then(|r| r.get("labeled"))
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                log.opens.push((confirmed as f64, labeled));
            }
            reports.push(report_text(&resp));
            absorb(step, &resp, &mut ctx);
            if !ok && step == Step::Open {
                break;
            }
        }
        if log.recorded.is_none() && reports.len() == SCRIPT.len() {
            log.recorded = Some((start_ctx, reports));
        }
        n += 1;
    }
    log
}

/// Replays one recorded session in process and compares every report
/// summary with the one the wire returned.
fn replay_matches(
    manager: &SessionManager,
    ctx: Ctx,
    wire: &[Option<String>],
) -> Result<(), String> {
    let mut ctx = ctx;
    for (i, &step) in SCRIPT.iter().enumerate() {
        let req =
            parse_request(&request(step, &ctx, i)).map_err(|e| format!("replay parse: {e}"))?;
        let resp = manager.execute(&req);
        if report_text(&resp) != wire[i] {
            return Err(format!("replayed {} differs from the wire", step.name()));
        }
        absorb(step, &resp, &mut ctx);
    }
    Ok(())
}

fn spawn(root: &Path) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(root);
    Daemon::spawn(ServeParams {
        workers: WORKERS,
        store_root: Some(root.to_path_buf()),
        ..ServeParams::default()
    })
}

/// Opens and closes one session per generator seed, from [`CLIENTS`]
/// connections, so the store holds every table pair's artifacts before
/// the load starts.
fn warm(addr: std::net::SocketAddr, seed: u64) -> Result<(), String> {
    let warm_one = |id: u64| -> Result<(), String> {
        let mut client = Client::connect(addr, Duration::from_secs(60))?;
        for n in (id..DATA_SEEDS).step_by(CLIENTS) {
            let mut ctx = Ctx {
                data_seed: data_seed(seed, n),
                script_seed: n,
                session: 0,
                label: (0, 0, false),
            };
            let resp = client.call(&request(Step::Open, &ctx, 0))?;
            if !is_ok(&resp) {
                return Err(format!("warm-up open failed: {}", resp.to_json_string()));
            }
            absorb(Step::Open, &resp, &mut ctx);
            client.call(&request(Step::Close, &ctx, 0))?;
        }
        Ok(())
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS as u64)
            .map(|id| s.spawn(move || warm_one(id)))
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up thread panicked"))
    })
}

/// Runs the workload; run state lives under `state`, removed at the end.
pub fn run(seed: u64, seconds: u64, trace: bool, state: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut root = PathBuf::new();
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d);
        }
        root = state.join(format!("store-{rep}"));
        let t = Instant::now();
        let d = match spawn(&root).and_then(|d| warm(d.addr(), seed).map(|()| d)) {
            Ok(d) => d,
            Err(e) => {
                out.check(false, || format!("daemon set-up failed: {e}"));
                return out;
            }
        };
        setups.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr();
    let handle = daemon.handle();
    out.size("dataset", PROFILE);
    out.size("clients", CLIENTS);

    let store_before = MetricsSnapshot::capture();
    // A traced run splits its time between the traced load and an
    // untraced one of the same length, for the tracing overhead.
    let load_secs = if trace { (seconds / 2).max(1) } else { seconds };
    let started = Instant::now();
    let deadline = started + Duration::from_secs(load_secs);
    let mut peak_resident = 0usize;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| s.spawn(move || run_client(addr, id, seed, deadline)))
            .collect();
        if trace {
            while !clients.iter().all(|c| c.is_finished()) {
                peak_resident = peak_resident.max(handle.resident_bytes());
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let load = MetricsSnapshot::capture().since(&store_before);

    let mut rtt: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut first = Vec::new();
    let (mut matches, mut labels) = (Vec::new(), Vec::new());
    let mut requests = 0u64;
    for log in &logs {
        for &(step, ms, ok) in &log.calls {
            requests += 1;
            out.attempted += 1;
            if ok {
                rtt.entry(step.name()).or_default().push(ms);
            } else {
                out.failed += 1;
            }
        }
        out.failures.extend(log.errors.iter().cloned());
        first.extend(&log.first_batch_ms);
        for &(m, l) in &log.opens {
            matches.push(m);
            labels.push(l);
        }
    }
    out.size(
        "sessions",
        logs.iter().map(|l| l.opens.len()).sum::<usize>(),
    );
    let protocol_errors = handle.protocol_errors();
    out.check(protocol_errors == 0, || {
        format!("daemon counted {protocol_errors} protocol errors")
    });

    // Identity gate: one recorded session, replayed in process.
    let replay_root = state.join("replay");
    let manager = SessionManager::new(64, 512 << 20, Some(replay_root.clone()));
    match logs.iter().find_map(|l| l.recorded.as_ref()) {
        Some((ctx, wire)) => {
            let r = replay_matches(&manager, *ctx, wire);
            out.check(r.is_ok(), || r.err().unwrap_or_default());
        }
        None => out.check(false, || {
            "no session was recorded for the replay gate".into()
        }),
    }

    let samples = |name: &str| rtt.get(name).cloned().unwrap_or_default();

    if trace {
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        for (name, s) in &rtt {
            let metric = rtt_metric(name);
            layers.set(metric.0, median(s).unwrap_or(0.0));
            if let Some(p90) = metric.1 {
                layers.set(p90, percentile_with_tail(s, 90.0).unwrap_or(0.0));
            }
        }
        let hits = load.counter("mc.store.hits") as f64;
        let misses = load.counter("mc.store.misses") as f64;
        layers.ratio("store.hit_ratio", hits, hits + misses);
        let failed = [
            "mc.store.errors",
            "mc.store.corrupt",
            "mc.store.decode_failed",
            "mc.store.open_failed",
        ]
        .iter()
        .map(|c| load.counter(c))
        .sum::<u64>();
        layers.set("store.failed", failed as f64);
        if let Ok(store) = Store::open(&StoreConfig::at(&root)) {
            layers.set("store.bytes", store.stats().bytes as f64);
        }
        layers.set("serve.resident_mb", peak_resident as f64 / (1 << 20) as f64);
        layers.set("serve.protocol_errors", protocol_errors as f64);
        replay_traced(&manager, seed, &mut tracer, &mut layers, &rtt);
        // The load itself records nothing beyond its own timings, so the
        // traced run's overhead is the resident-footprint polling: compare
        // its throughput with an untraced load of the same length.
        let traced_ops = requests as f64 / wall;
        let untraced = untraced_ops_per_s(addr, seed, load_secs);
        layers.ratio(
            "obs.trace_overhead_share",
            untraced - traced_ops,
            traced_ops,
        );
        layers.finish(
            &tracer,
            &mut out,
            &["cold_run", "rerun"],
            &state.with_extension("spans.jsonl"),
        );
    } else {
        out.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        out.timing("cold_run_p50_ms", &samples("open"));
        out.timing("first_batch_p50_ms", &first);
        out.timing("rerun_killed_p50_ms", &samples("rerun_killed"));
        out.timing("rerun_delta_p50_ms", &samples("rerun_delta"));
        out.timing("explain_p50_ms", &samples("explain"));
        out.metric("ops_per_s", requests as f64 / wall, "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        // Means over every open: the opens cycle through all table pairs.
        let opens = matches.len().max(1) as f64;
        let (m, l) = (matches.iter().sum::<f64>(), labels.iter().sum::<f64>());
        out.metric("matches_found", m / opens, "count");
        out.ratio("labels_per_match", Ratio::new(l, m));
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(state);
    out
}

/// Per-layer names of a verb's round-trip median and, for the verbs
/// reported with a tail, its p90.
fn rtt_metric(name: &str) -> (&'static str, Option<&'static str>) {
    match name {
        "open" => ("serve.open_rtt_ms", Some("serve.open_rtt_p90_ms")),
        "rerun_killed" => (
            "serve.rerun_killed_rtt_ms",
            Some("serve.rerun_killed_rtt_p90_ms"),
        ),
        "rerun_delta" => (
            "serve.rerun_delta_rtt_ms",
            Some("serve.rerun_delta_rtt_p90_ms"),
        ),
        "explain" => ("serve.explain_rtt_ms", Some("serve.explain_rtt_p90_ms")),
        "pervade" => ("serve.pervade_rtt_ms", None),
        "label" => ("serve.label_rtt_ms", None),
        "metrics" => ("serve.metrics_rtt_ms", None),
        _ => ("serve.close_rtt_ms", None),
    }
}

fn exec_metric(name: &str) -> &'static str {
    match name {
        "open" => "serve.open_exec_ms",
        "rerun_killed" => "serve.rerun_killed_exec_ms",
        "rerun_delta" => "serve.rerun_delta_exec_ms",
        "explain" => "serve.explain_exec_ms",
        "pervade" => "serve.pervade_exec_ms",
        "label" => "serve.label_exec_ms",
        "metrics" => "serve.metrics_exec_ms",
        _ => "serve.close_exec_ms",
    }
}

/// Replays [`REPLAYS`] sessions in process: each request is parsed,
/// executed and encoded into a buffer, each phase timed. A `metrics`
/// call after every pipeline verb (outside the timings) splits `open`
/// and `rerun` by the session's snapshot.
fn replay_traced(
    manager: &SessionManager,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    rtt: &std::collections::BTreeMap<&'static str, Vec<f64>>,
) {
    let mut exec: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut encode_us = Vec::new();
    let mut bytes = Vec::new();
    for n in 0..REPLAYS as u64 {
        tracer.set_pass(n + 1);
        layers.set_pass(n + 1);
        let mut ctx = Ctx {
            data_seed: data_seed(seed, n),
            script_seed: seed ^ (7 << 40) ^ n,
            session: 0,
            label: (0, 0, false),
        };
        let mut snap = MetricsSnapshot::default();
        for (i, &step) in SCRIPT.iter().enumerate() {
            let t = Instant::now();
            let req = parse_request(&request(step, &ctx, i)).expect("scripted requests parse");
            let resp = manager.execute(&req);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let mut buf = Vec::new();
            write_frame(&mut buf, &resp).expect("writing into a Vec cannot fail");
            encode_us.push(t.elapsed().as_secs_f64() * 1e6);
            bytes.push(buf.len() as f64);
            exec.entry(step.name()).or_default().push(ms);
            absorb(step, &resp, &mut ctx);
            if matches!(step, Step::Open | Step::Rerun(_)) {
                let now = session_snapshot(manager, ctx.session);
                let delta = now.since(&snap);
                match step {
                    Step::Open => {
                        let op = tracer.closed("cold_run", ms);
                        split_cold(tracer, layers, op, &delta);
                        layers.add("joint.candidates", e_size(&resp));
                        layers.add(
                            "verify.iterations",
                            delta.counter("mc.core.verify.iterations") as f64,
                        );
                        layers.add(
                            "verify.labels",
                            delta.counter("mc.core.verify.labeled") as f64,
                        );
                        let hits = delta.counter("mc.core.joint.reuse_hits") as f64;
                        let misses = delta.counter("mc.core.joint.reuse_misses") as f64;
                        layers.ratio("joint.reuse_hit_ratio", hits, hits + misses);
                        layers.ratio(
                            "joint.scored_per_candidate",
                            delta.counter("mc.core.ssj.scored") as f64,
                            e_size(&resp),
                        );
                    }
                    Step::Rerun(kind) => {
                        split_rerun(tracer, layers, kind, ms, &delta);
                        let resident = resp.get("resident_bytes").and_then(JsonValue::as_f64);
                        layers.sample(
                            "incr.resident_mb",
                            resident.unwrap_or(0.0) / (1 << 20) as f64,
                        );
                    }
                    _ => {}
                }
                snap = now;
            }
        }
    }
    let mut wire_num = 0.0;
    let mut wire_den = 0.0;
    let enc_ms = median(&encode_us).unwrap_or(0.0) / 1e3;
    for (name, s) in &exec {
        let e = median(s).unwrap_or(0.0);
        layers.set(exec_metric(name), e);
        if let Some(r) = rtt.get(name).and_then(|r| median(r)) {
            wire_num += r - e - enc_ms;
            wire_den += r;
        }
    }
    layers.ratio("serve.wire_share", wire_num, wire_den);
    layers.set("serve.encode_us", median(&encode_us).unwrap_or(0.0));
    layers.set("serve.response_bytes", median(&bytes).unwrap_or(0.0));
}

fn e_size(resp: &JsonValue) -> f64 {
    resp.get("report")
        .and_then(|r| r.get("e_size"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// The session's own `mc-obs` snapshot, via the `metrics` verb.
fn session_snapshot(manager: &SessionManager, session: u64) -> MetricsSnapshot {
    let req = parse_request(&obj(vec![
        ("verb", "metrics".into()),
        ("session", session.into()),
    ]))
    .expect("metrics request parses");
    let resp = manager.execute(&req);
    resp.get("metrics")
        .map(JsonValue::to_json_string)
        .and_then(|t| MetricsSnapshot::from_json(&t).ok())
        .unwrap_or_default()
}

/// Requests per second of an untraced load of `seconds` on the daemon.
fn untraced_ops_per_s(addr: std::net::SocketAddr, seed: u64, seconds: u64) -> f64 {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let requests: usize = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| s.spawn(move || run_client(addr, id, seed, deadline).calls.len()))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .sum()
    });
    requests as f64 / started.elapsed().as_secs_f64()
}
