//! `offline_anytime`: no server. One thread drives [`BatchExecutor`]
//! through `begin(0)` and three `expand` steps over a fixed synthetic test
//! set, 64 rows at a time, on the LeNet-3C1L-style conv net. Nearly all
//! of its time is in the packed conv/linear plans and the GEMM
//! microkernel, so kernel gains show end to end here.

use std::time::{Duration, Instant};

use stepping_baselines::regular_assign;
use stepping_core::{BatchExecutor, SteppingNet, SteppingNetBuilder};
use stepping_tensor::{init, Shape, Tensor};

use crate::host::process_cpu;
use crate::report::{RunResult, MAX_EXAMPLES};
use crate::stats::{median_of, Sample};
use crate::trace::{Tracer, NONE};
use crate::Args;

pub const BATCH: usize = 64;
const TEST_ROWS: usize = 1024;
const SETUP_REPS: usize = 15;

/// The conv net of the plans bench: 3x16x16 input, conv 24 and 48 with
/// pooling, a 96-wide linear layer, four subnets at 25/50/75/100% width.
pub fn conv_net() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[3, 16, 16]), 4, 9)
        .conv(24, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .conv(48, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(96)
        .relu()
        .build(10)
        .expect("the conv net geometry is valid");
    regular_assign(&mut net, &[0.25, 0.5, 0.75, 1.0]).expect("four width fractions");
    net
}

/// The test set, as 64-row batches generated from the seed.
pub fn test_set(seed: u64) -> Vec<Tensor> {
    let mut rng = init::rng(seed ^ 0x0FF1);
    (0..TEST_ROWS / BATCH)
        .map(|_| init::uniform(Shape::of(&[BATCH, 3, 16, 16]), -1.0, 1.0, &mut rng))
        .collect()
}

/// Timings of one anytime chain over one batch, µs.
struct Chain {
    begin: f64,
    expands: [f64; 3],
    total: f64,
    reuse: [f64; 3],
    logits: Vec<Vec<u32>>,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn chain(net: &mut SteppingNet, x: &Tensor, tracer: &mut Tracer, id: u64) -> Result<Chain, String> {
    let mut exec = BatchExecutor::new(net, 0.0);
    let t0 = Instant::now();
    let started = exec
        .begin(std::slice::from_ref(x), 0)
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let (cache, step) = started.into_iter().next().ok_or("begin returned nothing")?;
    let mut logits = vec![bits(&step.logits)];
    let mut caches = vec![cache];
    let mut expands = [0.0; 3];
    let mut reuse = [0.0; 3];
    let mut marks = [t1; 4];
    for i in 0..3 {
        let a = Instant::now();
        let steps = exec.expand(&mut caches).map_err(|e| e.to_string())?;
        let b = Instant::now();
        expands[i] = (b - a).as_secs_f64() * 1e6;
        marks[i + 1] = b;
        let s = steps.first().ok_or("expand returned nothing")?;
        reuse[i] = 1.0 - s.step_macs as f64 / s.cumulative_macs.max(1) as f64;
        logits.push(bits(&s.logits));
    }
    let end = marks[3];
    if tracer.is_on() {
        let root = tracer.record("offline.chain", t0, end, NONE, id);
        tracer.record("core.begin", t0, t1, root, id);
        for i in 0..3 {
            tracer.record("core.expand", marks[i], marks[i + 1], root, id);
        }
    }
    Ok(Chain {
        begin: (t1 - t0).as_secs_f64() * 1e6,
        expands,
        total: (end - t0).as_secs_f64() * 1e6,
        reuse,
        logits,
    })
}

/// The fastest times one test batch has taken, µs: each step's and the
/// whole chain's, each the minimum over the batch's chains, and the
/// process CPU of its cheapest chain.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Best {
    begin: f64,
    expands: [f64; 3],
    total: f64,
    cpu: f64,
}

impl Best {
    fn of(c: &Chain, cpu: f64) -> Self {
        Best {
            begin: c.begin,
            expands: c.expands,
            total: c.total,
            cpu,
        }
    }

    fn merge(&mut self, o: &Best) {
        self.begin = self.begin.min(o.begin);
        for (a, b) in self.expands.iter_mut().zip(o.expands) {
            *a = a.min(b);
        }
        self.total = self.total.min(o.total);
        self.cpu = self.cpu.min(o.cpu);
    }
}

/// What a measured loop saw.
struct Loop {
    /// Every chain's times (begin, each expand, whole chain).
    first: Sample,
    upgrade: Sample,
    full: Sample,
    /// Per test batch, its fastest times (`None` until it has run).
    best: Vec<Option<Best>>,
    gaps: Sample,
    reuse: Sample,
    chains: u64,
    failed: u64,
    failures: Vec<String>,
    cpu: Duration,
}

fn us_since(a: Option<Duration>, b: Option<Duration>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) => b.saturating_sub(a).as_secs_f64() * 1e6,
        _ => f64::NAN,
    }
}

/// Runs chains over the test set for `secs`, comparing every answer bit
/// for bit with `reference` (the oracle's logits per batch and subnet).
fn measure(
    net: &mut SteppingNet,
    batches: &[Tensor],
    reference: &[Vec<Vec<u32>>],
    secs: f64,
    tracer: &mut Tracer,
) -> Loop {
    let mut out = Loop {
        first: Sample::new(),
        upgrade: Sample::new(),
        full: Sample::new(),
        best: vec![None; batches.len()],
        gaps: Sample::new(),
        reuse: Sample::new(),
        chains: 0,
        failed: 0,
        failures: Vec::new(),
        cpu: Duration::ZERO,
    };
    let cpu0 = process_cpu();
    let stop = Instant::now() + Duration::from_secs_f64(secs);
    let mut last_end: Option<Instant> = None;
    let mut i = 0usize;
    while Instant::now() < stop {
        let b = i % batches.len();
        let start = Instant::now();
        if let Some(prev) = last_end {
            out.gaps.push((start - prev).as_secs_f64() * 1e6);
        }
        out.chains += 1;
        let cpu_a = process_cpu();
        let result = chain(net, &batches[b], tracer, i as u64);
        let cpu = us_since(cpu_a, process_cpu());
        last_end = Some(Instant::now());
        match result {
            Ok(c) => {
                out.first.push(c.begin);
                for (e, r) in c.expands.iter().zip(c.reuse) {
                    out.upgrade.push(*e);
                    out.reuse.push(r);
                }
                out.full.push(c.total);
                if c.logits == reference[b] {
                    let seen = Best::of(&c, cpu);
                    match &mut out.best[b] {
                        Some(best) => best.merge(&seen),
                        none => *none = Some(seen),
                    }
                } else {
                    out.failed += 1;
                    if out.failures.len() < MAX_EXAMPLES {
                        out.failures.push(format!(
                            "batch {b}: anytime logits differ from the masked forward"
                        ));
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                if out.failures.len() < MAX_EXAMPLES {
                    out.failures.push(format!("batch {b}: {e}"));
                }
            }
        }
        i += 1;
    }
    out.cpu = match (cpu0, process_cpu()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => Duration::ZERO,
    };
    out
}

/// The end-to-end figures of one pass over the test set at each batch's
/// fastest times: median begin, expand step and chain (µs), rows/s, and
/// process CPU per row (µs).
#[derive(Debug, PartialEq)]
struct Pass {
    first: f64,
    upgrade: f64,
    full: f64,
    rows_per_s: f64,
    cpu_per_row: f64,
}

fn pass(best: &[Option<Best>]) -> Pass {
    let seen: Vec<&Best> = best.iter().flatten().collect();
    let rows = (seen.len() * BATCH) as f64;
    let expands: Vec<f64> = seen.iter().flat_map(|b| b.expands).collect();
    let of = |f: fn(&Best) -> f64| seen.iter().map(|b| f(b)).collect::<Vec<_>>();
    Pass {
        first: median_of(&of(|b| b.begin)),
        upgrade: median_of(&expands),
        full: median_of(&of(|b| b.total)),
        rows_per_s: rows * 1e6 / of(|b| b.total).iter().sum::<f64>(),
        cpu_per_row: of(|b| b.cpu).iter().sum::<f64>() / rows,
    }
}

/// The masked reference logits (`SteppingNet::forward`) of every batch at
/// every subnet.
fn oracle(batches: &[Tensor]) -> Result<Vec<Vec<Vec<u32>>>, String> {
    let mut net = conv_net();
    batches
        .iter()
        .map(|x| {
            (0..net.subnet_count())
                .map(|k| net.forward(x, k, false).map(|t| bits(&t)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())
        })
        .collect()
}

pub fn run(args: &Args, out: &mut RunResult, tracer: &mut Tracer) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut net = conv_net();
        let batches = test_set(args.seed);
        // warm-up: compiles every begin and expand plan once
        let warm = chain(&mut net, &batches[0], &mut Tracer::new(false), 0);
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            out.check(false, || format!("warm-up failed: {e}"));
            return;
        }
        built = Some((net, batches));
    }
    let (mut net, batches) = built.expect("set up above");
    out.metric("setup_s", median_of(&setups), "s");
    out.note("setup_reps", SETUP_REPS);
    let reference = match oracle(&batches) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("oracle failed: {e}"));
            return;
        }
    };
    let secs = args.seconds as f64;

    if tracer.is_on() {
        let plain = measure(
            &mut net,
            &batches,
            &reference,
            0.3 * secs,
            &mut Tracer::new(false),
        );
        let mut traced = measure(&mut net, &batches, &reference, 0.3 * secs, tracer);
        for l in [&plain, &traced] {
            out.attempted += l.chains;
            out.wrong(l.failed, &l.failures);
        }
        out.metric(
            "harness.trace_overhead_frac",
            traced.full.mean() / plain.full.mean() - 1.0,
            "frac",
        );
        out.metric("harness.gen_late_us_p50", traced.gaps.median(), "us");
        out.metric("harness.gen_late_us_p99", traced.gaps.tail().0, "us");
        // the layers' own figures (the panel's conv probes) are reconciled
        // with this median in main; the spans' own gap is noted here
        let times = tracer.self_times_us();
        let own = times.get("offline.chain").map_or(f64::NAN, Sample::sum);
        out.metric("offline.chain_us_p50", traced.full.median(), "us");
        out.metric("core.cache_reuse_mean", traced.reuse.mean(), "frac");
        out.note(
            "spans",
            format!(
                "chain mean {:.1} us = begin {:.1} + 3 x expand {:.1} + between calls {:.2}",
                traced.full.mean(),
                traced.first.mean(),
                traced.upgrade.mean(),
                own / traced.chains.max(1) as f64
            ),
        );
        out.note("harness.spans", tracer.spans().len());
        return;
    }

    // The chains are the same fixed work every time, so interference from
    // outside the process (other tenants of the machine, a descheduled
    // vCPU) can only slow them: each batch's fastest chain measures the
    // code, and the end-to-end figures are one pass over the test set at
    // those times. Every chain's times are in the notes.
    let mut l = measure(&mut net, &batches, &reference, secs, tracer);
    out.attempted += l.chains;
    out.wrong(l.failed, &l.failures);
    let p = pass(&l.best);
    out.metric("first_p50_us", p.first, "us");
    out.metric("upgrade_p50_us", p.upgrade, "us");
    out.metric("full_p50_us", p.full, "us");
    out.metric(
        "ok_frac",
        1.0 - l.failed as f64 / l.chains.max(1) as f64,
        "frac",
    );
    // nothing in an offline chain can be degraded
    out.metric("met_frac", 1.0, "frac");
    out.metric("cpu_us_per_op", p.cpu_per_row, "us");
    out.note("chains", l.chains);
    out.note(
        "batches_seen",
        format!("{} of {}", l.best.iter().flatten().count(), l.best.len()),
    );
    out.note("offline_rows_per_s", p.rows_per_s);
    for (name, s) in [
        ("first", &mut l.first),
        ("upgrade", &mut l.upgrade),
        ("full", &mut l.full),
    ] {
        out.note(&format!("{name}.every_chain_p50_us"), s.median());
        let (tail, q) = s.tail();
        out.note(
            &format!("{name}.tail_us"),
            format!("{tail:.1} (p{})", q * 100.0),
        );
    }
    let rows = (l.chains * BATCH as u64) as f64;
    out.note("rows_per_s.whole_run", rows / secs);
    out.note(
        "cpu_us_per_op.whole_run",
        l.cpu.as_secs_f64() * 1e6 / rows.max(1.0),
    );
    out.note("cpu_op", "row through all four subnets");
    out.note("harness.gen_late_us_p50", l.gaps.median());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_each_batch_at_its_fastest() {
        let chain = |begin: f64, e: f64, cpu: f64| {
            let c = Chain {
                begin,
                expands: [e, e + 1.0, e + 2.0],
                total: begin + 3.0 * e + 3.0,
                reuse: [0.0; 3],
                logits: Vec::new(),
            };
            Best::of(&c, cpu)
        };
        // batch 0 ran twice: a slow chain, then a fast one with a slower
        // second expand; batch 2 never ran
        let mut b0 = chain(30.0, 10.0, 70.0);
        b0.merge(&Best {
            expands: [5.0, 20.0, 7.0],
            ..chain(10.0, 5.0, 30.0)
        });
        assert_eq!(b0.begin, 10.0);
        assert_eq!(b0.expands, [5.0, 11.0, 7.0]);
        assert_eq!(b0.total, 28.0);
        assert_eq!(b0.cpu, 30.0);
        let b1 = chain(20.0, 6.0, 50.0);
        let p = pass(&[Some(b0), Some(b1), None]);
        // begins 10 and 20: nearest-rank median takes the lower
        assert_eq!(p.first, 10.0);
        // expands 5 7 11 6 7 8 -> 7
        assert_eq!(p.upgrade, 7.0);
        assert_eq!(p.full, 28.0);
        // two batches of rows in 28 + 41 us
        let rows = 2.0 * BATCH as f64;
        assert!((p.rows_per_s - rows * 1e6 / 69.0).abs() < 1e-6);
        assert!((p.cpu_per_row - 80.0 / rows).abs() < 1e-12);
    }
}
