//! `construct_lenet`: the paper's construction flow, `construct()`, on the
//! quick-scale LeNet-3C1L case with `nproc` threads and 8-row shards. The
//! only workload on the training path: reference GEMMs, `nn` backward,
//! `exec` shard and reduce, SGD.
//!
//! Construction trains each subnet in turn for a few 32-row batches per
//! iteration. The benchmark hands `construct` a dataset wrapper that
//! stamps every batch fetch; the gap from one fetch of a subnet's round to
//! the next is one training step (forward, backward, reduce, SGD).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use stepping_bench::cases::{ExperimentScale, TestCase};
use stepping_core::checkpoint::save_state;
use stepping_core::construct::{construct, ConstructionOptions};
use stepping_core::{ParallelConfig, SteppingNet};
use stepping_data::{Dataset, InMemory, Split};
use stepping_tensor::{Shape, Tensor};

use crate::host::{cores, process_cpu};
use crate::report::RunResult;
use crate::stats::{median_of, Sample};
use crate::trace::{Tracer, NONE};
use crate::Args;

const SETUP_REPS: usize = 15;
/// Rows per training batch of the quick LeNet-3C1L case.
const BATCH_ROWS: u64 = 32;

/// Dataset wrapper recording when each batch fetch started and ended.
#[derive(Debug)]
struct Stamped<'a> {
    inner: &'a InMemory,
    fetches: Mutex<Vec<(Instant, Instant)>>,
}

impl Dataset for Stamped<'_> {
    fn len(&self, split: Split) -> usize {
        self.inner.len(split)
    }
    fn classes(&self) -> usize {
        self.inner.classes()
    }
    fn sample_shape(&self) -> Shape {
        self.inner.sample_shape()
    }
    fn sample(&self, split: Split, index: usize) -> stepping_data::Result<(Tensor, usize)> {
        self.inner.sample(split, index)
    }
    fn batch(
        &self,
        split: Split,
        indices: &[usize],
    ) -> stepping_data::Result<(Tensor, Vec<usize>)> {
        let start = Instant::now();
        let out = self.inner.batch(split, indices);
        let end = Instant::now();
        self.fetches
            .lock()
            .expect("fetch log lock is never held across a panic")
            .push((start, end));
        out
    }
}

/// The case, its dataset and untrained expanded net, and the options.
pub struct Setup {
    pub data: InMemory,
    pub net: SteppingNet,
    pub opts: ConstructionOptions,
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let mut case = TestCase::lenet_3c1l(ExperimentScale::Quick);
    case.data_seed ^= seed;
    let data =
        InMemory::new(&case.dataset().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let net = case
        .arch
        .build(case.budgets.len(), case.model_seed, case.expansion)
        .map_err(|e| e.to_string())?;
    let mut opts = case.construction_options();
    opts.parallel = ParallelConfig {
        threads: cores(),
        shard_rows: 8,
        ..ParallelConfig::sequential()
    };
    Ok(Setup { data, net, opts })
}

/// FNV-1a over the serialized weights.
fn digest(net: &mut SteppingNet) -> u64 {
    save_state(net)
        .as_ref()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One `construct()` call and what it showed.
struct Call {
    start: Instant,
    end: Instant,
    secs: f64,
    /// (when it started, subnet trained, step µs) for every training step.
    steps: Vec<(Instant, usize, f64)>,
    fetch_us: f64,
    /// Process CPU the call used, µs.
    cpu_us: f64,
    satisfied: bool,
    digest: u64,
}

fn call(s: &Setup, tracer: &mut Tracer, id: u64) -> Result<Call, String> {
    let mut net = s.net.clone();
    let stamped = Stamped {
        inner: &s.data,
        fetches: Mutex::new(Vec::new()),
    };
    let cpu0 = process_cpu();
    let start = Instant::now();
    let report = construct(&mut net, &stamped, &s.opts).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let cpu_us = match (cpu0, process_cpu()) {
        (Some(a), Some(b)) => b.saturating_sub(a).as_secs_f64() * 1e6,
        _ => f64::NAN,
    };
    let fetches = stamped
        .fetches
        .into_inner()
        .expect("fetch log lock is never held across a panic");
    // each subnet's round fetches batches_per_iter + 1 batches (the last
    // one ends the loop unused); steps are the gaps inside a round
    let round = s.opts.batches_per_iter + 1;
    let subnets = s.net.subnet_count();
    let root = tracer.record("construct", start, end, NONE, id);
    let mut steps = Vec::new();
    for (r, chunk) in fetches.chunks(round).enumerate() {
        let subnet = r % subnets;
        for w in chunk.windows(2) {
            steps.push((w[0].1, subnet, (w[1].0 - w[0].1).as_secs_f64() * 1e6));
            tracer.record("train.step", w[0].1, w[1].0, root, id);
        }
    }
    let mut fetch_us = 0.0;
    for &(a, b) in &fetches {
        fetch_us += (b - a).as_secs_f64() * 1e6;
        tracer.record("data.batch", a, b, root, id);
    }
    Ok(Call {
        start,
        end,
        secs: (end - start).as_secs_f64(),
        steps,
        fetch_us,
        cpu_us,
        satisfied: report.satisfied,
        digest: digest(&mut net),
    })
}

struct Calls {
    start: Instant,
    calls: Vec<Call>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    cpu: Duration,
}

impl Calls {
    fn samples(&self) -> u64 {
        let steps: usize = self.calls.iter().map(|c| c.steps.len()).sum();
        steps as u64 * BATCH_ROWS
    }

    fn secs(&self) -> f64 {
        self.calls.iter().map(|c| c.secs).sum()
    }
}

/// Calls `construct` until `secs` have passed (at least `min_calls`
/// times), checking that each is satisfied and that every call of the
/// run ends on the same weights.
fn measure(s: &Setup, secs: f64, min_calls: usize, tracer: &mut Tracer) -> Calls {
    let mut out = Calls {
        start: Instant::now(),
        calls: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        cpu: Duration::ZERO,
    };
    let cpu0 = process_cpu();
    let stop = out.start + Duration::from_secs_f64(secs);
    while (out.attempted as usize) < min_calls || Instant::now() < stop {
        out.attempted += 1;
        match call(s, tracer, out.calls.len() as u64) {
            Ok(c) => {
                let mut wrong = Vec::new();
                if !c.satisfied {
                    wrong.push("construct did not meet its MAC targets".to_string());
                }
                if let Some(first) = out.calls.first().filter(|f| f.digest != c.digest) {
                    wrong.push(format!(
                        "final weights differ between calls: {:016x} vs {:016x}",
                        first.digest, c.digest
                    ));
                }
                if !wrong.is_empty() {
                    out.failed += 1;
                    out.failures.extend(wrong);
                }
                out.calls.push(c);
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("construct failed: {e}"));
                break;
            }
        }
    }
    out.cpu = match (cpu0, process_cpu()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => Duration::ZERO,
    };
    out
}

pub fn run(args: &Args, out: &mut RunResult, tracer: &mut Tracer) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(args.seed);
        setups.push(t.elapsed().as_secs_f64());
        built = Some(s);
    }
    let s = match built.expect("set up above") {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("set-up failed: {e}")),
    };
    out.metric("setup_s", median_of(&setups), "s");
    out.note("setup_reps", SETUP_REPS);
    out.note("iterations_per_call", s.opts.iterations);
    let secs = args.seconds as f64;

    if tracer.is_on() {
        let plain = measure(&s, 0.0, 1, &mut Tracer::new(false));
        let traced = measure(&s, 0.0, 3, tracer);
        for c in [&plain, &traced] {
            out.attempted += c.attempted;
            out.wrong(c.failed, &c.failures);
        }
        let secs = |c: &Calls| median_of(&c.calls.iter().map(|c| c.secs).collect::<Vec<_>>());
        out.metric(
            "harness.trace_overhead_frac",
            secs(&traced) / secs(&plain) - 1.0,
            "frac",
        );
        // per call, for the reconciliation against the panel in main
        let per_call =
            |f: &dyn Fn(&Call) -> f64| median_of(&traced.calls.iter().map(f).collect::<Vec<_>>());
        out.metric("construct.call_ms_p50", 1e3 * secs(&traced), "ms");
        out.metric(
            "construct.steps_per_call",
            per_call(&|c| c.steps.len() as f64),
            "count",
        );
        out.metric(
            "construct.fetch_ms_per_call",
            per_call(&|c| c.fetch_us / 1e3),
            "ms",
        );
        let own = tracer
            .self_times_us()
            .get("construct")
            .map_or(f64::NAN, Sample::sum);
        out.note(
            "spans",
            format!(
                "construct's own time outside steps and fetches: {:.1}% of the calls",
                100.0 * own / (1e6 * traced.secs())
            ),
        );
        // the harness's own time between calls: cloning the net, the
        // weight digest and the checks
        let mut gaps = Sample::new();
        for w in traced.calls.windows(2) {
            gaps.push((w[1].start - w[0].end).as_secs_f64() * 1e6);
        }
        out.metric("harness.gen_late_us_p50", gaps.median(), "us");
        out.metric("harness.gen_late_us_p99", gaps.tail().0, "us");
        return;
    }

    // Every call trains the same steps in the same order on the same data
    // (the weight digest check holds it to that), so interference from
    // outside the process can only slow a call: the fastest call measures
    // the code. Whole-run figures are in the notes.
    let l = measure(&s, secs, 2, tracer);
    out.attempted += l.attempted;
    out.wrong(l.failed, &l.failures);
    let Some(best) = l.calls.iter().min_by(|a, b| a.secs.total_cmp(&b.secs)) else {
        return out.check(false, || "no construct call completed".into());
    };
    let top = s.net.subnet_count() - 1;
    let step_p50 = |keep: &dyn Fn(usize) -> bool| {
        let v: Vec<f64> = best
            .steps
            .iter()
            .filter(|s| keep(s.1))
            .map(|s| s.2)
            .collect();
        median_of(&v)
    };
    out.metric("first_p50_us", step_p50(&|k| k == 0), "us");
    out.metric("upgrade_p50_us", step_p50(&|k| k > 0), "us");
    out.metric("full_p50_us", step_p50(&|k| k == top), "us");
    let samples = best.steps.len() as f64 * BATCH_ROWS as f64;
    let rate = samples / best.secs;
    out.metric(
        "ok_frac",
        1.0 - l.failed as f64 / l.attempted.max(1) as f64,
        "frac",
    );
    // construction has no degraded outcome
    out.metric("met_frac", 1.0, "frac");
    out.metric("cpu_us_per_op", best.cpu_us / samples, "us");
    out.note("calls", l.calls.len());
    out.note("steps_per_call", best.steps.len());
    out.note("train_samples_per_s", rate);
    out.note(
        "train_samples_per_s.whole_run",
        l.samples() as f64 / l.secs(),
    );
    out.note(
        "cpu_us_per_op.whole_run",
        l.cpu.as_secs_f64() * 1e6 / l.samples().max(1) as f64,
    );
    let mut every = Sample::new();
    for c in &l.calls {
        for &(_, _, us) in &c.steps {
            every.push(us);
        }
    }
    out.note("step.every_call_p50_us", every.median());
    out.note("cpu_op", "training sample");
    out.note(
        "weights_digest",
        l.calls
            .first()
            .map_or("none".into(), |c| format!("{:016x}", c.digest)),
    );
}
