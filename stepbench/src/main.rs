//! The SteppingNet stack's benchmark.
//!
//! ```text
//! stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! stepbench compare <a.json> <b.json>
//! ```
//!
//! A run builds its inputs from the seed, measures for about `--seconds`,
//! checks the program's outputs, writes a detail document (host block,
//! every metric, notes) under `stepbench/out/`, and prints as its last
//! stdout line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `stepbench/README.md`.

mod construct;
mod host;
mod layers;
mod offline;
mod report;
mod rng;
mod serving;
mod stats;
mod trace;

use std::process::ExitCode;

use host::Host;
use report::{RunInfo, RunResult};
use trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "oneshot_budget",
    "stepping_zipf",
    "offline_anytime",
    "construct_lenet",
];

/// Parsed `--workload/--seed/--seconds/--trace` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv {
            [_, a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("usage: stepbench compare <a.json> <b.json>".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; expected one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }))
}

fn read_detail(p: &str) -> Result<report::Parsed, String> {
    std::fs::read_to_string(p)
        .map_err(|e| format!("{p}: {e}"))
        .and_then(|t| report::parse_detail(&t).map_err(|e| format!("{p}: {e}")))
}

fn compare(a: &str, b: &str) -> ExitCode {
    match (read_detail(a), read_detail(b)) {
        (Ok(a), Ok(b)) => {
            let (text, comparable) = report::compare(&a, &b);
            print!("{text}");
            if comparable {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("stepbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let host = Host::detect();
    eprintln!(
        "stepbench: {} seed={} seconds={} trace={} [{}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.shape()
    );
    // recording is on only in the traced run
    stepping_metrics::set_runtime_enabled(false);
    let mut tracer = Tracer::new(args.trace);
    let mut out = RunResult::default();
    let steal0 = host::steal_ticks();
    match args.workload.as_str() {
        "oneshot_budget" => serving::run(args, false, &mut out, &mut tracer),
        "stepping_zipf" => serving::run(args, true, &mut out, &mut tracer),
        "offline_anytime" => offline::run(args, &mut out, &mut tracer),
        "construct_lenet" => construct::run(args, &mut out, &mut tracer),
        other => unreachable!("parse() admits only known workloads, got {other}"),
    }
    if args.trace {
        layers::panel(&mut out, args.seed);
        reconcile(&args.workload, &mut out);
    }
    // how much CPU the hypervisor took from this machine during the run:
    // a run that lost much reads slow for reasons outside the code
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, host::steal_ticks()) {
        out.note(
            "host.steal_frac",
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0).max(1) as f64),
        );
    }
    let info = RunInfo {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let path = info.detail_path();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, out.detail_json(&info, &host)));
    if let Err(e) = written {
        eprintln!("stepbench: cannot write {}: {e}", path.display());
    }
    if args.trace {
        let spans = path.with_extension("spans.jsonl");
        if let Err(e) = std::fs::write(&spans, tracer.to_jsonl()) {
            eprintln!("stepbench: cannot write {}: {e}", spans.display());
        }
    }
    for (name, v, unit) in &out.metrics {
        println!("{name:<40} {v:>14.4} {unit}");
    }
    for (k, v) in &out.notes {
        println!("  {k}: {v}");
    }
    for f in &out.check_failures {
        println!("CHECK FAILED: {f}");
    }
    println!("detail: {}", path.display());
    println!("{}", out.summary_line(args.trace));
    ExitCode::SUCCESS
}

/// Tolerance within which the layers must account for the whole.
const RECONCILE_TOLERANCE: f64 = 0.25;

/// Notes whether the layers account for the whole within the tolerance.
/// For the closed-loop workloads it first sets `harness.unaccounted_frac`
/// from the panel's layer figures against the traced end-to-end median: a
/// 64-row chain is one conv `begin` plus an expand chain; a `construct`
/// call is its training steps (one sharded batch plus an SGD step each)
/// plus its batch fetches. The serving workloads reconcile against the
/// metrics registry in `serving`.
fn reconcile(workload: &str, out: &mut RunResult) {
    let v = |n: &str| out.value(n).unwrap_or(f64::NAN);
    let closed = match workload {
        "offline_anytime" => Some((
            v("offline.chain_us_p50"),
            v("core.conv_begin_us.b64") + v("core.conv_expand_chain_us.b64"),
            "chain p50 vs conv begin + expand chain",
        )),
        "construct_lenet" => Some((
            v("construct.call_ms_p50"),
            v("construct.steps_per_call") * (v("exec.train_batch_ms") + v("train.sgd_ms"))
                + v("construct.fetch_ms_per_call"),
            "call p50 vs steps x (train batch + sgd) + fetches",
        )),
        _ => None,
    };
    if let Some((whole, parts, how)) = closed {
        out.metric("harness.unaccounted_frac", 1.0 - parts / whole, "frac");
        out.note("reconcile", format!("{how}: {whole:.1} vs {parts:.1}"));
    }
    if let Some(u) = out.value("harness.unaccounted_frac") {
        let held = if u.abs() <= RECONCILE_TOLERANCE {
            "yes"
        } else {
            "no"
        };
        out.note(
            "reconciled",
            format!("{held} (|{u:.3}| against tolerance {RECONCILE_TOLERANCE})"),
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare(a, b)) => compare(&a, &b),
        Err(e) => {
            eprintln!("stepbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let got = parse(&argv(
            "--workload stepping_zipf --seed 42 --seconds 10 --trace 1",
        ));
        assert_eq!(
            got,
            Ok(Command::Run(Args {
                workload: "stepping_zipf".into(),
                seed: 42,
                seconds: 10,
                trace: true,
            }))
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload oneshot_budget --trace 2",
            "--workload oneshot_budget --seconds 0",
            "--workload oneshot_budget --seed -1",
            "--workload oneshot_budget --seed",
            "--workload oneshot_budget --bogus 1",
            "compare only-one.json",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_compare() {
        assert_eq!(
            parse(&argv("compare a.json b.json")),
            Ok(Command::Compare("a.json".into(), "b.json".into()))
        );
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = stepping_metrics::snapshot::json::parse(&text).unwrap();
        let Some(stepping_metrics::snapshot::json::Json::Array(items)) = doc.get("workloads")
        else {
            panic!("workloads")
        };
        let names: Vec<&str> = items
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
