//! The MatchCatcher debugger's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper-cold|zipf-session|mcd-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public API the way a user does and checks
//! the program's outputs while it measures. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the traced variant and prints the
//! per-layer metrics, writing its spans under `.bench_state/`. The last
//! stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed correctness gate makes `correct` false and the exit code 1.
//! `CATALOG.md` next to this crate describes the workloads and metrics.

mod common;
mod layers;
mod mcd_mixed;
mod oracle;
mod paper_cold;
mod stats;
mod trace;
mod zipf_session;

use common::Outcome;
use std::path::{Path, PathBuf};

/// Every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "cold_run_p50_ms",
    "first_batch_p50_ms",
    "rerun_killed_p50_ms",
    "rerun_delta_p50_ms",
    "explain_p50_ms",
    "ops_per_s",
    "peak_rss_mb",
    "matches_found",
    "labels_per_match",
];

const WORKLOADS: [&str; 3] = ["paper-cold", "zipf-session", "mcd-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    mc_obs::JsonValue::Str(s.to_string()).to_json_string()
}

/// The environment stamp: cores, thread counts, build, commit, seed and
/// the workload's sizes.
fn stamp(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let params = matchcatcher::DebuggerParams::default();
    let resolve = |t: usize| if t == 0 { nproc } else { t };
    let mut fields = vec![
        ("nproc".to_string(), nproc.to_string()),
        (
            "joint_threads".into(),
            resolve(params.joint.threads).to_string(),
        ),
        (
            "verifier_threads".into(),
            resolve(params.verifier.forest.threads).to_string(),
        ),
        ("daemon_workers".into(), mcd_mixed::WORKERS.to_string()),
        (
            "profile".into(),
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit".into(), json_str(&commit())),
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
    ];
    fields.extend(out.sizes.iter().map(|(k, v)| {
        let v = if v.parse::<f64>().is_ok() {
            v.clone()
        } else {
            json_str(v)
        };
        (k.clone(), v)
    }));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"env\": {{{}}}}}", body.join(", "))
}

fn run(args: &Args, state: &Path) -> Outcome {
    match args.workload.as_str() {
        "paper-cold" => paper_cold::run(args.seed, args.seconds, args.trace, state),
        "zipf-session" => zipf_session::run(args.seed, args.seconds, args.trace, state),
        _ => mcd_mixed::run(args.seed, args.seconds, args.trace, state),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let state: PathBuf = Path::new(".bench_state").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let mut out = run(&args, &state);

    // The printed metrics must be exactly the benchmark's list.
    let expected: Vec<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|&(n, _)| n).collect()
    } else {
        END_TO_END.to_vec()
    };
    let printed: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let complete = printed == expected;
    out.check(complete, || {
        format!("metric list mismatch: printed {printed:?}")
    });

    println!("{}", stamp(&args, &out));
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let correct = out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    let _ = std::fs::remove_dir_all(&state);
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = mc_obs::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(mc_obs::JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(mc_obs::JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        assert_eq!(listed("end_to_end"), END_TO_END);
        let per_layer: Vec<&str> = layers::PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(listed("per_layer"), per_layer);
        assert_eq!(listed("workloads"), WORKLOADS);
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(ok("--workload mcd-mixed --seed 3 --seconds 5 --trace 1").is_ok());
        assert!(ok("--workload nope --seed 3 --seconds 5 --trace 1").is_err());
        assert!(ok("--workload mcd-mixed --seconds 5 --trace 1").is_err());
        assert!(ok("--workload mcd-mixed --seed 3 --seconds 5 --trace 2").is_err());
        assert!(ok("--workload mcd-mixed --seed x --seconds 5 --trace 0").is_err());
    }
}
