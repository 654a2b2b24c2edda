//! Packed-plan kernel benchmark: does inference cost track the MAC budget?
//!
//! For a Table-I-style MLP and a small conv net, per subnet:
//!
//! 1. **direct path** — latency of the packed full pass
//!    ([`SteppingNet::forward_packed`]) against the masked reference
//!    ([`SteppingNet::forward`]), with logits asserted bit-identical,
//! 2. **expand path** — per-step latency of the incremental executor
//!    (which routes through the packed step kernels) against a masked
//!    from-scratch pass at the same subnet,
//! 3. **achieved-FLOP ratio** — `packed_macs(i) / full_macs` (what the
//!    packed kernels actually execute) next to the paper's budget ratio
//!    `P_i = macs(i) / full_macs`.
//!
//! Results are printed as tables and written to `results/BENCH_plans.json`.
//! The binary asserts that subnet 0 of **both** models is at least 2x
//! faster packed than masked, and that every compared logits pair is
//! bit-identical. The full-net rows are reported, not asserted: the masked
//! reference runs the same blocked microkernel as the packed plans, so with
//! every neuron active the two differ only by per-call weight packing and
//! the fused epilogues.
//!
//! Run with `cargo run --release -p stepping-bench --bin plans`.
//! Set `STEPPING_PLANS_REPS` to change the timing repetitions (default 20;
//! `scripts/check.sh` uses a smaller smoke value).

use std::fs;
use std::time::Instant;

use stepping_baselines::regular_assign;
use stepping_bench::observe::{self, progress, report_text};
use stepping_bench::print_table;
use stepping_core::{IncrementalExecutor, SteppingNet, SteppingNetBuilder};
use stepping_tensor::{init, Shape, Tensor};

/// Rows per inference batch.
const BATCH: usize = 16;
/// Magnitude threshold used for MAC accounting (none pruned here).
const THRESHOLD: f32 = 0.0;

fn reps() -> usize {
    std::env::var("STEPPING_PLANS_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Table-I-style MLP (LeNet-300-100 shape class, widened): the model the
/// >=2x acceptance assertion runs on.
fn mlp() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[256]), 4, 7)
        .linear(512)
        .relu()
        .linear(512)
        .relu()
        .linear(256)
        .relu()
        .build(10)
        .expect("build mlp");
    regular_assign(&mut net, &[0.25, 0.5, 0.75, 1.0]).expect("assign mlp");
    net
}

/// Small LeNet-3C1L-style conv net (Table I row 1 shape class).
fn conv_net() -> SteppingNet {
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
        .expect("build conv");
    regular_assign(&mut net, &[0.25, 0.5, 0.75, 1.0]).expect("assign conv");
    net
}

/// Median wall-clock microseconds of `reps` runs of `f`.
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct SubnetResult {
    subnet: usize,
    budget_ratio: f64,
    packed_ratio: f64,
    masked_us: f64,
    packed_us: f64,
    speedup: f64,
    expand_step_us: f64,
    expand_cumulative_us: f64,
}

/// Benchmarks one model across all its subnets; panics on any logits
/// mismatch between the packed and masked paths.
fn run_model(name: &str, net: &mut SteppingNet, input: &Tensor) -> Vec<SubnetResult> {
    let reps = reps();
    let full = net.full_macs() as f64;
    let subnets = net.subnet_count();
    let mut out = Vec::with_capacity(subnets);

    // Expand path first: one executor pass, timing each step. begin(0)
    // runs subnet 0; each expand() computes only the new neurons.
    let mut expand_step = vec![0.0f64; subnets];
    let mut expand_logits = Vec::with_capacity(subnets);
    {
        let mut exec = IncrementalExecutor::new(net, THRESHOLD);
        // warm-up compiles the step plans so timing sees the steady state
        let _ = exec.begin(input).expect("warm begin");
        for _ in 1..subnets {
            let _ = exec.expand().expect("warm expand");
        }
        let t = Instant::now();
        let first = exec.begin(input).expect("begin");
        expand_step[0] = t.elapsed().as_secs_f64() * 1e6;
        expand_logits.push(first.logits);
        for step_us in expand_step.iter_mut().skip(1) {
            let t = Instant::now();
            let step = exec.expand().expect("expand");
            *step_us = t.elapsed().as_secs_f64() * 1e6;
            expand_logits.push(step.logits);
        }
    }

    let mut cumulative = 0.0;
    for s in 0..subnets {
        cumulative += expand_step[s];
        // masked reference pass; the packed direct path must match bitwise
        let masked = net.forward(input, s, false).expect("masked forward");
        let packed = net.forward_packed(input, s).expect("packed forward");
        assert_eq!(
            masked, packed,
            "{name} subnet {s}: packed direct logits differ from masked"
        );
        assert_eq!(
            masked, expand_logits[s],
            "{name} subnet {s}: packed expand logits differ from masked"
        );
        let masked_us = time_us(reps, || {
            let _ = net.forward(input, s, false).expect("masked forward");
        });
        let packed_us = time_us(reps, || {
            let _ = net.forward_packed(input, s).expect("packed forward");
        });
        out.push(SubnetResult {
            subnet: s,
            budget_ratio: net.macs(s, THRESHOLD) as f64 / full,
            packed_ratio: net.packed_macs(s) as f64 / full,
            masked_us,
            packed_us,
            speedup: masked_us / packed_us,
            expand_step_us: expand_step[s],
            expand_cumulative_us: cumulative,
        });
    }
    out
}

fn row(r: &SubnetResult) -> Vec<String> {
    vec![
        r.subnet.to_string(),
        format!("{:.3}", r.budget_ratio),
        format!("{:.3}", r.packed_ratio),
        format!("{:.0}", r.masked_us),
        format!("{:.0}", r.packed_us),
        format!("{:.2}x", r.speedup),
        format!("{:.0}", r.expand_step_us),
        format!("{:.0}", r.expand_cumulative_us),
    ]
}

fn json_entry(r: &SubnetResult) -> String {
    format!(
        "{{\"subnet\": {}, \"budget_mac_ratio\": {:.4}, \"packed_mac_ratio\": {:.4}, \
         \"masked_us\": {:.1}, \"packed_us\": {:.1}, \"speedup\": {:.3}, \
         \"expand_step_us\": {:.1}, \"expand_cumulative_us\": {:.1}}}",
        r.subnet,
        r.budget_ratio,
        r.packed_ratio,
        r.masked_us,
        r.packed_us,
        r.speedup,
        r.expand_step_us,
        r.expand_cumulative_us,
    )
}

fn main() {
    observe::init("plans");
    progress(&format!("batch = {BATCH}, reps = {}", reps()));
    let headers = [
        "subnet",
        "P_i",
        "packed P_i",
        "masked us",
        "packed us",
        "speedup",
        "expand us",
        "cum expand us",
    ];

    let mut net = mlp();
    let x = init::uniform(Shape::of(&[BATCH, 256]), -1.0, 1.0, &mut init::rng(41));
    let mlp_results = run_model("mlp", &mut net, &x);
    report_text("\nPLANS: MLP (256-512-512-256-10), packed vs masked");
    print_table(&headers, &mlp_results.iter().map(row).collect::<Vec<_>>());
    let mlp_full = net.full_macs();

    let mut cnet = conv_net();
    let cx = init::uniform(
        Shape::of(&[BATCH, 3, 16, 16]),
        -1.0,
        1.0,
        &mut init::rng(43),
    );
    let conv_results = run_model("conv", &mut cnet, &cx);
    report_text("\nPLANS: conv (LeNet-3C1L style), packed vs masked");
    print_table(&headers, &conv_results.iter().map(row).collect::<Vec<_>>());
    let conv_full = cnet.full_macs();

    // Subnet 0: the packed plan runs only the active neurons, while the
    // masked reference still multiplies the full-width (zeroed) weights.
    for (model, results) in [("mlp", &mlp_results), ("conv", &conv_results)] {
        let s0 = &results[0];
        report_text(&format!(
            "\n{model} subnet 0: packed {:.2}x faster than masked dense \
             (budget P_0 = {:.3}, packed FLOP ratio = {:.3})",
            s0.speedup, s0.budget_ratio, s0.packed_ratio
        ));
        assert!(
            s0.speedup >= 2.0,
            "acceptance: {model} subnet 0 packed speedup {:.2}x < 2x",
            s0.speedup
        );
        let last = results.last().expect("subnet results");
        report_text(&format!(
            "{model} subnet {} (full net): packed {:.2}x faster than masked",
            last.subnet, last.speedup
        ));
    }
    report_text("all packed/masked logits pairs bit-identical (asserted)");

    let mlp_json: Vec<String> = mlp_results.iter().map(json_entry).collect();
    let conv_json: Vec<String> = conv_results.iter().map(json_entry).collect();
    let json = format!(
        "{{\n  \"bench\": \"plans\",\n  \"batch\": {BATCH},\n  \"reps\": {},\n  \
         \"bit_identical\": true,\n  \"models\": [\n    {{\n      \"name\": \"mlp\", \
         \"full_macs\": {},\n      \"subnets\": [\n        {}\n      ]\n    }},\n    \
         {{\n      \"name\": \"conv\", \"full_macs\": {},\n      \"subnets\": [\n        \
         {}\n      ]\n    }}\n  ]\n}}\n",
        reps(),
        mlp_full,
        mlp_json.join(",\n        "),
        conv_full,
        conv_json.join(",\n        "),
    );
    fs::create_dir_all("results").expect("results dir");
    fs::write("results/BENCH_plans.json", json).expect("write BENCH_plans.json");
    report_text("wrote results/BENCH_plans.json");
    observe::finish();
}
