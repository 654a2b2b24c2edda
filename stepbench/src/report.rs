//! Run results: the metric list each mode must print, the closing JSON
//! line, the detail file, and the comparison of two detail files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use stepping_metrics::snapshot::json::{self, Json};

use crate::host::Host;
use crate::stats::Windowed;

/// End-to-end metrics printed with `--trace 0`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("first_p50_us", "us"),
    ("upgrade_p50_us", "us"),
    ("full_p50_us", "us"),
    ("ok_frac", "frac"),
    ("met_frac", "frac"),
    ("cpu_us_per_op", "us"),
];

/// Per-layer metrics printed with `--trace 1`, in `BENCHMARK.json` order.
/// Every traced run measures all of them; metrics of layers that only some
/// workloads reach go to the detail file instead.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.begin_us.s0.b1", "us"),
    ("core.begin_us.s0.b8", "us"),
    ("core.begin_us.s3.b1", "us"),
    ("core.begin_us.s3.b8", "us"),
    ("core.expand_chain_us.b1", "us"),
    ("core.expand_chain_us.b8", "us"),
    ("core.forward_packed_us.s0.b1", "us"),
    ("core.forward_packed_us.s0.b8", "us"),
    ("core.forward_packed_us.s3.b1", "us"),
    ("core.forward_packed_us.s3.b8", "us"),
    ("core.plan_compile_ms", "ms"),
    ("core.conv_begin_us.b64", "us"),
    ("core.conv_expand_chain_us.b64", "us"),
    ("tensor.peak_gflops", "GF/s"),
    ("tensor.blocked_pct_peak.m8k512n512", "%"),
    ("tensor.blocked_pct_peak.m4096k216n48", "%"),
    ("tensor.ref_gflops.nt", "GF/s"),
    ("tensor.ref_gflops.nn", "GF/s"),
    ("tensor.ref_gflops.tn", "GF/s"),
    ("train.fwd_ms", "ms"),
    ("train.bwd_ms", "ms"),
    ("train.sgd_ms", "ms"),
    ("exec.train_batch_ms", "ms"),
    ("exec.speedup", "x"),
    ("exec.dispatch_us_mean", "us"),
    ("exec.reduce_us_mean", "us"),
    ("harness.trace_overhead_frac", "frac"),
    ("harness.gen_late_us_p50", "us"),
    ("harness.gen_late_us_p99", "us"),
    ("harness.unaccounted_frac", "frac"),
];

/// Failure descriptions kept per run; the count is always exact.
pub const MAX_EXAMPLES: usize = 20;

/// The metrics a mode must print.
pub fn required(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that errored, were refused, timed out or failed a check.
    pub failed: u64,
    /// Descriptions of failed output checks (empty when all passed).
    pub check_failures: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Free-form facts for the detail file: sample counts, the quantile a
    /// tail metric used, workload-specific layer metrics.
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong(1, &[what()]);
        }
    }

    /// Counts `count` failed output checks, keeping the first examples.
    pub fn wrong(&mut self, count: u64, examples: &[String]) {
        self.failed += count;
        for e in examples {
            if self.check_failures.len() < MAX_EXAMPLES {
                self.check_failures.push(e.clone());
            }
        }
    }

    /// The latency metrics every workload reports: medians (over time
    /// windows) of the first answer, each upgrade step and the top-subnet
    /// answer. Their tails go to the notes with the quantile each could
    /// support; on a shared host they do not repeat closely enough to
    /// gate on.
    pub fn latencies(&mut self, first: &mut Windowed, upgrade: &mut Windowed, full: &mut Windowed) {
        for (name, w) in [("first", first), ("upgrade", upgrade), ("full", full)] {
            self.metric(&format!("{name}_p50_us"), w.median(), "us");
            let (tail, q) = w.tail();
            self.note(
                &format!("{name}.tail_us"),
                format!("{tail:.1} (p{})", q * 100.0),
            );
            self.note(&format!("{name}.samples"), w.len());
            self.note(&format!("{name}.windows"), w.windows());
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Correct when every check passed and every required metric is
    /// present and finite.
    pub fn correct(&self, trace: bool) -> bool {
        self.check_failures.is_empty()
            && required(trace)
                .iter()
                .all(|(n, _)| self.value(n).is_some_and(f64::is_finite))
    }

    /// The closing stdout line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding the mode's required metrics.
    pub fn summary_line(&self, trace: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(trace),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in required(trace).iter().enumerate() {
            let v = self.value(name).unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                name,
                num(v),
                unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The detail document written next to the run: host block, every
    /// metric (required or not), notes and check failures.
    pub fn detail_json(&self, run: &RunInfo, host: &Host) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            quote(&run.workload),
            run.seed,
            run.seconds,
            run.trace
        );
        let _ = write!(
            out,
            "\"host\": {{\"shape\": {}, \"cores\": {}, \"avx2\": {}, \"fma\": {}, \
             \"avx512f\": {}, \"profile\": {}, \"rustc\": {}}}, ",
            quote(&host.shape()),
            host.cores,
            host.avx2,
            host.fma,
            host.avx512f,
            quote(host.profile),
            quote(host.rustc)
        );
        let _ = write!(
            out,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(run.trace),
            self.attempted,
            self.failed
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                quote(name),
                num(*v),
                quote(unit)
            );
        }
        out.push_str("}, \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {}",
                if i == 0 { "" } else { ", " },
                quote(k),
                quote(v)
            );
        }
        out.push_str("}, \"check_failures\": [");
        for (i, f) in self.check_failures.iter().enumerate() {
            let _ = write!(out, "{}{}", if i == 0 { "" } else { ", " }, quote(f));
        }
        out.push_str("]}");
        out
    }
}

/// Identity of a run, from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl RunInfo {
    /// Where the detail document goes, relative to the working directory.
    pub fn detail_path(&self) -> PathBuf {
        Path::new("stepbench").join("out").join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ))
    }
}

/// A JSON number; non-finite values become `null` (and make the run
/// incorrect through [`RunResult::correct`]).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn quote(s: &str) -> String {
    format!("\"{}\"", stepping_metrics::snapshot::escape(s))
}

/// One metric of a parsed detail document.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub workload: String,
    pub host_shape: String,
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a detail document written by [`RunResult::detail_json`].
///
/// # Errors
///
/// Describes the first missing or malformed field.
pub fn parse_detail(text: &str) -> Result<Parsed, String> {
    let doc = json::parse(text.trim())?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("missing workload")?
        .to_string();
    let host_shape = doc
        .get("host")
        .and_then(|h| h.get("shape"))
        .and_then(Json::as_str)
        .ok_or("missing host.shape")?
        .to_string();
    let Some(Json::Object(fields)) = doc.get("metrics") else {
        return Err("missing metrics object".into());
    };
    let mut metrics = Vec::with_capacity(fields.len());
    for (name, m) in fields {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        metrics.push((name.clone(), value, unit));
    }
    Ok(Parsed {
        workload,
        host_shape,
        metrics,
    })
}

/// Side-by-side comparison of two detail documents. Returns the report
/// text and whether the two came from the same host shape and workload.
pub fn compare(a: &Parsed, b: &Parsed) -> (String, bool) {
    let mut out = String::new();
    let same_host = a.host_shape == b.host_shape;
    let same_workload = a.workload == b.workload;
    if !same_host {
        let _ = writeln!(
            out,
            "HOST MISMATCH: results come from different host shapes\n  a: {}\n  b: {}",
            a.host_shape, b.host_shape
        );
    }
    if !same_workload {
        let _ = writeln!(out, "WORKLOAD MISMATCH: {} vs {}", a.workload, b.workload);
    }
    let _ = writeln!(out, "{:<40} {:>14} {:>14} {:>9}", "metric", "a", "b", "b/a");
    for (name, va, unit) in &a.metrics {
        if let Some((_, vb, _)) = b.metrics.iter().find(|(n, _, _)| n == name) {
            let ratio = if *va != 0.0 { vb / va } else { f64::NAN };
            let _ = writeln!(
                out,
                "{:<40} {:>14.4} {:>14.4} {:>9.3}  {}",
                name, va, vb, ratio, unit
            );
        }
    }
    (out, same_host && same_workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (RunResult, RunInfo) {
        let mut r = RunResult {
            attempted: 10,
            ..Default::default()
        };
        for (name, unit) in END_TO_END {
            r.metric(name, 1.5, unit);
        }
        r.metric("serve.batch_size_mean", 3.25, "rows");
        r.note("first_p99_us.quantile", 0.99);
        let info = RunInfo {
            workload: "oneshot_budget".into(),
            seed: 7,
            seconds: 10,
            trace: false,
        };
        (r, info)
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let (r, _) = sample();
        let doc = json::parse(&r.summary_line(false)).unwrap();
        let Json::Object(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(metrics.iter().all(|(n, _)| n != "serve.batch_size_mean"));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn missing_or_non_finite_metric_is_incorrect() {
        let (mut r, _) = sample();
        r.metric("setup_s", f64::NAN, "s");
        assert!(!r.correct(false));
        let doc = json::parse(&r.summary_line(false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        let (mut r, _) = sample();
        r.metrics.retain(|(n, _, _)| n != "met_frac");
        assert!(!r.correct(false));
        // a traced run needs the per-layer list instead
        assert!(!sample().0.correct(true));
    }

    #[test]
    fn failed_check_counts_and_makes_the_run_incorrect() {
        let (mut r, _) = sample();
        r.check(true, || unreachable!());
        assert!(r.correct(false));
        r.check(false, || "logits differ".into());
        assert_eq!(r.failed, 1);
        assert!(!r.correct(false));
    }

    #[test]
    fn detail_round_trips_through_the_parser() {
        let (r, info) = sample();
        let host = Host::detect();
        let parsed = parse_detail(&r.detail_json(&info, &host)).unwrap();
        assert_eq!(parsed.workload, "oneshot_budget");
        assert_eq!(parsed.host_shape, host.shape());
        assert_eq!(parsed.metrics.len(), END_TO_END.len() + 1);
        assert!(parsed
            .metrics
            .contains(&("serve.batch_size_mean".into(), 3.25, "rows".into())));
        assert!(parse_detail("{\"workload\": \"x\"}").is_err());
        assert!(parse_detail("not json").is_err());
    }

    #[test]
    fn compare_flags_different_host_shapes() {
        let (r, info) = sample();
        let host = Host::detect();
        let a = parse_detail(&r.detail_json(&info, &host)).unwrap();
        let (text, ok) = compare(&a, &a);
        assert!(ok && !text.contains("MISMATCH"));
        let mut other = host.clone();
        other.cores += 1;
        let b = parse_detail(&r.detail_json(&info, &other)).unwrap();
        let (text, ok) = compare(&a, &b);
        assert!(!ok);
        assert!(text.contains("HOST MISMATCH"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Array(items)) = doc.get(key) else {
                panic!("{key}")
            };
            let names: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap(),
                        m.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(names, list.to_vec(), "{key}");
        }
    }
}
