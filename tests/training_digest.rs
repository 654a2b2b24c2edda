//! Pinned training numerics: the weights a short construction and a few
//! SGD steps end on, as an FNV-1a digest of `save_state`.
//!
//! The digests were captured on the reference GEMM kernels. Any kernel
//! change that claims bit-identity (a different loop order, tiling,
//! dispatch rule or thread split) must leave them unchanged; a change that
//! alters rounding anywhere in the training forward or backward fails here.

use stepping_bench::cases::{ExperimentScale, TestCase};
use steppingnet::core::checkpoint::save_state;
use steppingnet::core::construct::construct;
use steppingnet::core::train::{train_subnet, TrainOptions};
use steppingnet::core::{ParallelConfig, SteppingNet, SteppingNetBuilder};
use steppingnet::data::{GaussianBlobs, GaussianBlobsConfig, InMemory};
use steppingnet::tensor::Shape;

/// FNV-1a over the serialized weights.
fn digest(net: &mut SteppingNet) -> u64 {
    save_state(net)
        .as_ref()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Two construction iterations on the quick LeNet-3C1L case with 8-row
/// shards: masked conv and linear forwards over 2048-row im2col panels and
/// 8-row heads, conv/linear backward, shard reduction and SGD.
#[test]
fn lenet_construction_weights_are_pinned() {
    let case = TestCase::lenet_3c1l(ExperimentScale::Quick);
    let data = InMemory::new(&case.dataset().unwrap()).unwrap();
    let mut net = case
        .arch
        .build(case.budgets.len(), case.model_seed, case.expansion)
        .unwrap();
    let mut opts = case.construction_options();
    opts.iterations = 2;
    opts.batches_per_iter = 2;
    opts.parallel = ParallelConfig {
        threads: 1,
        shard_rows: 8,
        ..ParallelConfig::sequential()
    };
    construct(&mut net, &data, &opts).unwrap();
    assert_eq!(
        digest(&mut net),
        15_208_441_774_482_717_294,
        "construction weights digest"
    );
}

/// SGD on a small MLP with whole-batch shards of 5 rows and a 3-row tail,
/// so the training products cross the blocked kernel's row tile.
#[test]
fn mlp_sgd_weights_are_pinned() {
    let data = GaussianBlobs::new(
        GaussianBlobsConfig {
            classes: 3,
            features: 10,
            train_per_class: 41,
            test_per_class: 4,
            separation: 3.0,
            noise_std: 0.6,
        },
        17,
    )
    .unwrap();
    let mut net = SteppingNetBuilder::new(Shape::of(&[10]), 2, 5)
        .linear(20)
        .relu()
        .linear(14)
        .relu()
        .build(3)
        .unwrap();
    for subnet in [1, 0] {
        train_subnet(
            &mut net,
            &data,
            subnet,
            &TrainOptions {
                epochs: 1,
                batch_size: 5,
                lr: 0.05,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
    }
    assert_eq!(
        digest(&mut net),
        14_473_383_822_831_311_851,
        "MLP SGD weights digest"
    );
}
