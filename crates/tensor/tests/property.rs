//! Property-based tests of the tensor substrate: algebraic identities that
//! must hold for arbitrary shapes and values.

mod reference;

use proptest::prelude::*;
use stepping_tensor::conv::{col2im, im2col, ConvGeometry};
use stepping_tensor::matmul::GemmSpec;
use stepping_tensor::microkernel::{gemm_blocked, gemm_packed, Epilogue, PackedB};
use stepping_tensor::{matmul, reduce, Shape, Tensor};

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let n = b.shape().dims()[1];
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// `(im2col(x), col2im(y))` for `batch` NCHW images, one element at a time:
/// every patch entry is bounds-checked on its own, and the fold adds patch
/// rows in row order.
fn im2col_col2im_reference(
    x: &[f32],
    y: &[f32],
    batch: usize,
    g: &ConvGeometry,
) -> (Vec<f32>, Vec<f32>) {
    let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
    let patch = g.patch_len();
    let mut cols = vec![0.0f32; batch * g.positions() * patch];
    let mut img = vec![0.0f32; batch * c * h * w];
    for b in 0..batch {
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let row = (b * g.positions() + oy * g.out_w + ox) * patch;
                let mut col = 0;
                for ch in 0..c {
                    for ky in 0..g.kernel_h {
                        for kx in 0..g.kernel_w {
                            let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                                let at = ((b * c + ch) * h + iy as usize) * w + ix as usize;
                                cols[row + col] = x[at];
                                img[at] += y[row + col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    (cols, img)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn matmul_matches_naive(
        m in 1usize..8, k in 1usize..12, n in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(seed);
        let a = stepping_tensor::init::uniform(Shape::of(&[m, k]), -2.0, 2.0, &mut rng);
        let b = stepping_tensor::init::uniform(Shape::of(&[k, n]), -2.0, 2.0, &mut rng);
        let fast = matmul::matmul(&a, &b).unwrap();
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn matmul_transpose_identities(
        m in 1usize..6, k in 1usize..8, n in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(seed);
        let a = stepping_tensor::init::uniform(Shape::of(&[m, k]), -2.0, 2.0, &mut rng);
        let b = stepping_tensor::init::uniform(Shape::of(&[n, k]), -2.0, 2.0, &mut rng);
        // A·Bᵀ computed directly equals A·(Bᵀ)
        let direct = matmul::matmul_bt(&a, &b).unwrap();
        let via = matmul::matmul(&a, &b.transpose2().unwrap()).unwrap();
        prop_assert_eq!(direct, via);
        // Aᵀ·C identity
        let c = stepping_tensor::init::uniform(Shape::of(&[m, n]), -2.0, 2.0, &mut rng);
        let direct = matmul::matmul_at(&a, &c).unwrap();
        let via = matmul::matmul(&a.transpose2().unwrap(), &c).unwrap();
        prop_assert_eq!(direct, via);
    }

    #[test]
    fn transpose_is_involutive(
        r in 1usize..10, c in 1usize..10, data_seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(data_seed);
        let t = stepping_tensor::init::uniform(Shape::of(&[r, c]), -5.0, 5.0, &mut rng);
        prop_assert_eq!(t.transpose2().unwrap().transpose2().unwrap(), t);
    }

    #[test]
    fn softmax_rows_are_distributions(
        n in 1usize..6, c in 1usize..10, vals_seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(vals_seed);
        let t = stepping_tensor::init::uniform(Shape::of(&[n, c]), -30.0, 30.0, &mut rng);
        let p = reduce::softmax_rows(&t).unwrap();
        prop_assert!(p.is_finite());
        for i in 0..n {
            let row = p.row(i).unwrap();
            prop_assert!(row.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
            prop_assert!((row.sum() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(
        c in 2usize..8, shift in -20.0f32..20.0, seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(seed);
        let t = stepping_tensor::init::uniform(Shape::of(&[1, c]), -3.0, 3.0, &mut rng);
        let shifted = t.map(|v| v + shift);
        let p1 = reduce::softmax_rows(&t).unwrap();
        let p2 = reduce::softmax_rows(&shifted).unwrap();
        for (a, b) in p1.data().iter().zip(p2.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn im2col_col2im_adjointness(
        c in 1usize..4, h in 3usize..8, w in 3usize..8,
        k in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        seed in 0u64..10_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = ConvGeometry::new(c, h, w, k, k, stride, pad).unwrap();
        let mut rng = stepping_tensor::init::rng(seed);
        let x = stepping_tensor::init::uniform(Shape::of(&[2, c, h, w]), -1.0, 1.0, &mut rng);
        let y = stepping_tensor::init::uniform(
            Shape::of(&[2 * geom.positions(), geom.patch_len()]), -1.0, 1.0, &mut rng);
        // <im2col(x), y> == <x, col2im(y)>
        let lhs = im2col(&x, &geom).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&col2im(&y, 2, &geom).unwrap()).unwrap();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-4, "{} vs {}", lhs, rhs);
    }

    /// [`matmul::gemm`] and the blocked microkernel must both be
    /// bit-identical (`f32 ==`, not approximate) to the scalar reference for
    /// every transpose variant: shapes ragged against the MR/NR register
    /// tile and deep enough to force a Kc partial-sum spill, plus fully
    /// degenerate extents.
    #[test]
    fn gemm_and_blocked_bit_identical_to_reference(
        m in 0usize..21, k in 0usize..280, n in 0usize..21,
        which in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let spec = [GemmSpec::NN, GemmSpec::NT, GemmSpec::TN, GemmSpec::TT][which];
        let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
        let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
        let mut rng = stepping_tensor::init::rng(seed);
        let a = stepping_tensor::init::uniform(Shape::of(&a_dims), -2.0, 2.0, &mut rng);
        let b = stepping_tensor::init::uniform(Shape::of(&b_dims), -2.0, 2.0, &mut rng);
        let want = reference::gemm(a.data(), spec.trans_a, b.data(), spec.trans_b, (m, k, n));
        let via_gemm = matmul::gemm(&a, &b, spec).unwrap();
        prop_assert_eq!(via_gemm.data(), want.as_slice(), "gemm {:?} {}x{}x{}", spec, m, k, n);
        let blocked = gemm_blocked(&a, &b, spec).unwrap();
        prop_assert_eq!(blocked.data(), want.as_slice(), "blocked {:?} {}x{}x{}", spec, m, k, n);
    }

    /// `im2col` and `col2im` are pure data movement: equal bit for bit to
    /// a per-element gather and scatter-add, including windows that overhang
    /// the padding on every side.
    #[test]
    fn im2col_col2im_match_per_element_reference(
        c in 1usize..4, h in 1usize..8, w in 1usize..8,
        kh in 1usize..4, kw in 1usize..4, stride in 1usize..3, pad in 0usize..4,
        seed in 0u64..10_000,
    ) {
        prop_assume!(h + 2 * pad >= kh && w + 2 * pad >= kw);
        let geom = ConvGeometry::new(c, h, w, kh, kw, stride, pad).unwrap();
        let mut rng = stepping_tensor::init::rng(seed);
        let x = stepping_tensor::init::uniform(Shape::of(&[2, c, h, w]), -1.0, 1.0, &mut rng);
        let y = stepping_tensor::init::uniform(
            Shape::of(&[2 * geom.positions(), geom.patch_len()]), -1.0, 1.0, &mut rng);
        let (want_cols, want_img) = im2col_col2im_reference(x.data(), y.data(), 2, &geom);
        let (cols, img) = (im2col(&x, &geom).unwrap(), col2im(&y, 2, &geom).unwrap());
        prop_assert_eq!(cols.data(), want_cols.as_slice());
        prop_assert_eq!(img.data(), want_img.as_slice());
    }

    /// Fused bias/activation epilogues must equal the unfused sequence
    /// (GEMM, then add bias, then activate) bitwise — the packed inference
    /// pipeline relies on this to stay `==` with the masked oracle.
    #[test]
    fn blocked_gemm_epilogues_match_unfused(
        m in 1usize..10, k in 1usize..64, n in 1usize..17,
        seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(seed);
        let a = stepping_tensor::init::uniform(Shape::of(&[m, k]), -2.0, 2.0, &mut rng);
        let b = stepping_tensor::init::uniform(Shape::of(&[n, k]), -2.0, 2.0, &mut rng);
        let bias = stepping_tensor::init::uniform(Shape::of(&[n]), -1.0, 1.0, &mut rng);
        let packed = PackedB::pack_nt(b.data(), n, k);
        let mut apack = Vec::new();
        let reference = matmul::matmul_bt(&a, &b).unwrap();
        for which in 0..3 {
            let epi = match which {
                0 => Epilogue::Bias(bias.data()),
                1 => Epilogue::BiasRelu(bias.data()),
                _ => Epilogue::BiasTanh(bias.data()),
            };
            let mut out = vec![f32::NAN; m * n];
            gemm_packed(a.data(), false, &packed, &mut out, m, &mut apack, epi);
            for i in 0..m {
                for j in 0..n {
                    let z = reference.data()[i * n + j] + bias.data()[j];
                    let want = match which {
                        0 => z,
                        1 => z.max(0.0),
                        _ => z.tanh(),
                    };
                    prop_assert_eq!(
                        out[i * n + j], want,
                        "epilogue {} at ({}, {})", which, i, j
                    );
                }
            }
        }
    }

    #[test]
    fn axpy_matches_zip(
        len in 1usize..64, alpha in -3.0f32..3.0,
        a in tensor_strategy(64), b in tensor_strategy(64),
    ) {
        let av = Tensor::from_vec(Shape::of(&[len]), a[..len].to_vec()).unwrap();
        let bv = Tensor::from_vec(Shape::of(&[len]), b[..len].to_vec()).unwrap();
        let mut c = av.clone();
        c.axpy(alpha, &bv).unwrap();
        let expected = av.zip(&bv, |x, y| x + alpha * y).unwrap();
        for (x, y) in c.data().iter().zip(expected.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}
