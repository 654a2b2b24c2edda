//! The per-layer panel every traced run measures: timed calls into the
//! public functions of `core` (batch executor, packed forward, plan
//! compile, conv chains), `tensor` (blocked and reference GEMM), `nn`
//! (training forward, backward, SGD) and `exec` (sharded training batch).
//! Each figure is the median over repeated calls on fixed shapes, so it
//! does not depend on the workload that ran before it.

use std::hint::black_box;
use std::time::Instant;

use stepping_core::{BatchExecutor, BatchLoss, ParallelConfig, ParallelRunner, SteppingNet};
use stepping_metrics::MetricsRegistry;
use stepping_nn::optim::Sgd;
use stepping_tensor::matmul::{gemm, GemmSpec};
use stepping_tensor::microkernel::{gemm_packed, Epilogue, PackedB};
use stepping_tensor::{init, Shape, Tensor};

use crate::construct;
use crate::host::cores;
use crate::offline::{conv_net, BATCH};
use crate::report::RunResult;
use crate::serving::serving_net;
use crate::stats::{median_of, Sample};

/// Median µs per call of `f` over `reps` calls, after two warm-up calls.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut s = Sample::new();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_secs_f64() * 1e6);
    }
    s.median()
}

fn rows(n: usize, width: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = init::rng(seed);
    (0..n)
        .map(|_| init::uniform(Shape::of(&[1, width]), -1.0, 1.0, &mut rng))
        .collect()
}

fn stacked(n: usize, width: usize, seed: u64) -> Tensor {
    init::uniform(Shape::of(&[n, width]), -1.0, 1.0, &mut init::rng(seed))
}

/// `core` batch executor on the serving MLP: begin at subnets 0 and 3,
/// the three-step expand chain, and the fused packed forward, each on 1
/// and 8 one-row requests.
fn core_batch(out: &mut RunResult) {
    let mut net = serving_net();
    for b in [1usize, 8] {
        let inputs = rows(b, 128, 11);
        for s in [0usize, 3] {
            let mut exec = BatchExecutor::new(&mut net, 0.0);
            let t = time_us(300, || {
                black_box(exec.begin(black_box(&inputs), s).expect("begin"));
            });
            out.metric(&format!("core.begin_us.s{s}.b{b}"), t, "us");
            let x = stacked(b, 128, 12);
            let t = time_us(300, || {
                black_box(
                    net.forward_packed(black_box(&x), s)
                        .expect("forward_packed"),
                );
            });
            out.metric(&format!("core.forward_packed_us.s{s}.b{b}"), t, "us");
        }
        let t = expand_chain_us(&mut net, &inputs, 300);
        out.metric(&format!("core.expand_chain_us.b{b}"), t, "us");
    }
}

/// Median µs of three `expand` calls after an untimed `begin(0)`.
fn expand_chain_us(net: &mut SteppingNet, inputs: &[Tensor], reps: usize) -> f64 {
    let mut exec = BatchExecutor::new(net, 0.0);
    let mut s = Sample::new();
    for _ in 0..reps + 2 {
        let mut caches: Vec<_> = exec
            .begin(inputs, 0)
            .expect("begin")
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        let t = Instant::now();
        for _ in 0..3 {
            black_box(exec.expand(&mut caches).expect("expand"));
        }
        s.push(t.elapsed().as_secs_f64() * 1e6);
    }
    s.median()
}

/// Plan compilation: the registry's `plan.compile_ns` total while a fresh
/// serving net compiles every begin and expand plan, median of 5.
fn plan_compile(out: &mut RunResult) {
    let registry = MetricsRegistry::global();
    let inputs = rows(1, 128, 13);
    let mut ms = Vec::new();
    for _ in 0..5 {
        let mut net = serving_net();
        let before = registry.snapshot().hist_merged("plan.compile_ns");
        let mut exec = BatchExecutor::new(&mut net, 0.0);
        for s in 0..4 {
            exec.begin(&inputs, s).expect("begin");
        }
        let mut caches: Vec<_> = exec
            .begin(&inputs, 0)
            .expect("begin")
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        for _ in 0..3 {
            exec.expand(&mut caches).expect("expand");
        }
        let after = registry.snapshot().hist_merged("plan.compile_ns");
        ms.push(after.since(&before).sum as f64 / 1e6);
    }
    out.metric("core.plan_compile_ms", median_of(&ms), "ms");
}

/// The conv net's begin and expand chain on one 64-row batch.
fn core_conv(out: &mut RunResult) {
    let mut net = conv_net();
    let x = init::uniform(
        Shape::of(&[BATCH, 3, 16, 16]),
        -1.0,
        1.0,
        &mut init::rng(14),
    );
    let inputs = std::slice::from_ref(&x);
    let mut exec = BatchExecutor::new(&mut net, 0.0);
    let t = time_us(40, || {
        black_box(exec.begin(black_box(inputs), 0).expect("begin"));
    });
    out.metric("core.conv_begin_us.b64", t, "us");
    let t = expand_chain_us(&mut net, inputs, 40);
    out.metric("core.conv_expand_chain_us.b64", t, "us");
}

fn gflops(m: usize, k: usize, n: usize, us: f64) -> f64 {
    2.0 * (m * k * n) as f64 / (us * 1e3)
}

/// Blocked GEMM with B pre-packed (as the plans store it), GF/s.
fn packed_gflops(m: usize, k: usize, n: usize, reps: usize) -> f64 {
    let a = stacked(m, k, 15);
    let b = stacked(n, k, 16);
    let packed = PackedB::pack_nt(b.data(), n, k);
    let mut c = vec![0.0f32; m * n];
    let mut scratch = Vec::new();
    let t = time_us(reps, || {
        gemm_packed(
            black_box(a.data()),
            false,
            &packed,
            &mut c,
            m,
            &mut scratch,
            Epilogue::None,
        );
        black_box(&c);
    });
    gflops(m, k, n, t)
}

/// `tensor`: the microkernel's cache-resident peak, the blocked GEMM on
/// the serving and conv plan shapes as a share of it, and the reference
/// kernels on training shapes.
fn tensor(out: &mut RunResult) {
    // the best of a few cache-resident tiles (one k block, few panels)
    let peak = [(64, 256, 64), (128, 256, 128), (32, 256, 256)]
        .into_iter()
        .map(|(m, k, n)| packed_gflops(m, k, n, 300))
        .fold(0.0, f64::max);
    out.metric("tensor.peak_gflops", peak, "GF/s");
    // serving MLP hidden layer at 8 rows; conv2 im2col of a 64-row batch
    // (64 images x 8x8 positions, 24 channels x 3x3 taps, 48 filters)
    let mlp = packed_gflops(8, 512, 512, 200);
    let conv = packed_gflops(4096, 216, 48, 20);
    out.metric(
        "tensor.blocked_pct_peak.m8k512n512",
        100.0 * mlp / peak,
        "%",
    );
    out.metric(
        "tensor.blocked_pct_peak.m4096k216n48",
        100.0 * conv / peak,
        "%",
    );
    // reference kernels: forward (NT), input gradient (NN) and weight
    // gradient (TN) of a 256 -> 128 layer on a 32-row batch
    let x = stacked(32, 256, 17);
    let w = stacked(128, 256, 18);
    let dy = stacked(32, 128, 19);
    for (name, a, b, spec) in [
        ("nt", &x, &w, GemmSpec::NT),
        ("nn", &dy, &w, GemmSpec::NN),
        ("tn", &dy, &x, GemmSpec::TN),
    ] {
        let t = time_us(200, || {
            black_box(gemm(black_box(a), black_box(b), spec).expect("gemm"));
        });
        out.metric(
            &format!("tensor.ref_gflops.{name}"),
            gflops(32, 256, 128, t),
            "GF/s",
        );
    }
}

/// `nn` training steps and the `exec` sharded batch on the construction
/// case's net, 32 rows at the whole (subnet 0) net.
fn training(out: &mut RunResult, seed: u64) {
    let s = match construct::setup(seed) {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("training probe set-up failed: {e}")),
    };
    let mut net = s.net.clone();
    let dims: Vec<usize> = std::iter::once(32)
        .chain(net.input_shape().dims().iter().copied())
        .collect();
    let x = init::uniform(Shape::of(&dims), -1.0, 1.0, &mut init::rng(20));
    let y: Vec<usize> = (0..32).map(|i| i % net.classes()).collect();
    let dlogits = Tensor::ones(Shape::of(&[32, net.classes()]));
    let reps = 30;
    let fwd = time_us(reps, || {
        black_box(net.forward(black_box(&x), 0, true).expect("forward"));
    });
    let mut bwd = Sample::new();
    for _ in 0..reps {
        net.forward(&x, 0, true).expect("forward");
        let t = Instant::now();
        net.backward(&dlogits).expect("backward");
        bwd.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut sgd = Sgd::new(1e-6).expect("positive learning rate");
    let step = time_us(reps, || {
        sgd.step(&mut net.params_for(0).expect("subnet 0"))
            .expect("sgd step");
    });
    out.metric("train.fwd_ms", fwd / 1e3, "ms");
    out.metric("train.bwd_ms", bwd.median() / 1e3, "ms");
    out.metric("train.sgd_ms", step / 1e3, "ms");

    let registry = MetricsRegistry::global();
    let batch_ms = |threads: usize| {
        let config = ParallelConfig {
            threads,
            ..s.opts.parallel
        };
        let runner = ParallelRunner::new(config, "construction").expect("valid config");
        let mut net = s.net.clone();
        time_us(reps, || {
            black_box(
                runner
                    .train_batch(&mut net, &x, &y, 0, BatchLoss::CrossEntropy, false)
                    .expect("train batch"),
            );
        }) / 1e3
    };
    let one = batch_ms(1);
    let before = registry.snapshot();
    let many = batch_ms(cores());
    let after = registry.snapshot();
    out.metric("exec.train_batch_ms", many, "ms");
    out.metric("exec.speedup", one / many, "x");
    // registry histograms have log2 buckets, so their quantiles are only
    // bucket bounds; their sums are exact, hence means
    let mean = |name: &str| {
        after
            .hist_merged(name)
            .since(&before.hist_merged(name))
            .mean()
            / 1e3
    };
    out.metric("exec.dispatch_us_mean", mean("exec.dispatch_ns"), "us");
    out.metric("exec.reduce_us_mean", mean("exec.reduce_ns"), "us");
    out.note("exec.threads", cores());
}

/// Runs the whole panel with metric recording on.
pub fn panel(out: &mut RunResult, seed: u64) {
    stepping_metrics::set_runtime_enabled(true);
    core_batch(out);
    plan_compile(out);
    core_conv(out);
    tensor(out);
    training(out, seed);
    stepping_metrics::set_runtime_enabled(false);
}
