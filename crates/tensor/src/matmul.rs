//! Matrix multiplication with transpose variants.
//!
//! These are the kernels behind every [`Linear`](../../stepping_nn) layer,
//! the `im2col` formulation of convolution, and the masked training
//! forwards and backwards. All kernels operate on rank-2 [`Tensor`]s.
//!
//! One general kernel, [`gemm`], handles every transpose combination via a
//! [`GemmSpec`]; the historical entry points [`matmul`], [`matmul_bt`] and
//! [`matmul_at`] are documented thin wrappers kept for their
//! self-explanatory names.
//!
//! ## Dispatch
//!
//! * `A · Bᵀ` and `Aᵀ · Bᵀ` run the blocked, register-tiled
//!   [`microkernel`](crate::microkernel) with `B` packed per call.
//! * `A · B` and `Aᵀ · B` keep outer-product loops that skip zero `A`
//!   entries: in training they multiply masked gradients, which after ReLU
//!   and max-pool are mostly zeros.
//!
//! Every path accumulates each output element sequentially in `k` from
//! `+0.0`, one `acc += a·b` rounding step per term, so the dispatch never
//! changes a result (`f32 ==`; see the microkernel module docs). No kernel
//! here spawns threads: data parallelism belongs to the `stepping-exec`
//! shards that call these kernels.

use crate::microkernel::gemm_blocked;
use crate::{Result, Shape, Tensor, TensorError};

/// Cache block size (elements) for the `A · B` k-loop; tuned for
/// L1-resident panels.
const BLOCK: usize = 64;

fn check2(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok((t.shape().dims()[0], t.shape().dims()[1]))
}

/// Transpose flags for [`gemm`]: which operands are read transposed.
///
/// The default (`NN`) multiplies the operands as stored. Construct via
/// struct literal or the named presets.
///
/// # Example
///
/// ```
/// use stepping_tensor::matmul::GemmSpec;
///
/// assert_eq!(GemmSpec::NT, GemmSpec { trans_a: false, trans_b: true });
/// assert_eq!(GemmSpec::default(), GemmSpec::NN);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmSpec {
    /// Read `A` transposed (`Aᵀ`).
    pub trans_a: bool,
    /// Read `B` transposed (`Bᵀ`).
    pub trans_b: bool,
}

impl GemmSpec {
    /// `C = A · B` (no transposition).
    pub const NN: GemmSpec = GemmSpec {
        trans_a: false,
        trans_b: false,
    };
    /// `C = A · Bᵀ` — the `Linear` forward layout (`W: [out, in]`).
    pub const NT: GemmSpec = GemmSpec {
        trans_a: false,
        trans_b: true,
    };
    /// `C = Aᵀ · B` — the weight-gradient layout (`dW = xᵀ · dy`).
    pub const TN: GemmSpec = GemmSpec {
        trans_a: true,
        trans_b: false,
    };
    /// `C = Aᵀ · Bᵀ`.
    pub const TT: GemmSpec = GemmSpec {
        trans_a: true,
        trans_b: true,
    };
}

/// General matrix multiply `C = op(A) · op(B)` where `op` optionally
/// transposes each operand per `spec`.
///
/// Expected shapes (with result `[m, n]` and inner dimension `k`):
///
/// | spec | `A` | `B` |
/// |---|---|---|
/// | [`GemmSpec::NN`] | `[m, k]` | `[k, n]` |
/// | [`GemmSpec::NT`] | `[m, k]` | `[n, k]` |
/// | [`GemmSpec::TN`] | `[k, m]` | `[k, n]` |
/// | [`GemmSpec::TT`] | `[k, m]` | `[n, k]` |
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::InnerDimMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use stepping_tensor::matmul::{gemm, GemmSpec};
/// use stepping_tensor::{Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::of(&[1, 2]), vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(Shape::of(&[1, 2]), vec![3.0, 4.0])?;
/// assert_eq!(gemm(&a, &b, GemmSpec::NT)?.data(), &[11.0]);
/// # Ok::<(), stepping_tensor::TensorError>(())
/// ```
pub fn gemm(a: &Tensor, b: &Tensor, spec: GemmSpec) -> Result<Tensor> {
    let (m, k, n) = gemm_dims(a, b, spec)?;
    let (ad, bd) = (a.data(), b.data());
    let out = match (spec.trans_a, spec.trans_b) {
        (false, false) => {
            let mut out = Tensor::zeros(Shape::of(&[m, n]));
            nn_kernel(ad, bd, out.data_mut(), m, k, n);
            out
        }
        (true, false) => {
            let mut out = Tensor::zeros(Shape::of(&[m, n]));
            tn_kernel(ad, bd, out.data_mut(), m, k, n);
            out
        }
        (_, true) => gemm_blocked(a, b, spec)?,
    };
    Ok(out)
}

/// The `(m, k, n)` extents of `op(A) · op(B)` per `spec`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::InnerDimMismatch`] if the inner dimensions disagree.
pub(crate) fn gemm_dims(a: &Tensor, b: &Tensor, spec: GemmSpec) -> Result<(usize, usize, usize)> {
    let (a0, a1) = check2(a)?;
    let (b0, b1) = check2(b)?;
    let (m, ka) = if spec.trans_a { (a1, a0) } else { (a0, a1) };
    let (kb, n) = if spec.trans_b { (b1, b0) } else { (b0, b1) };
    if ka != kb {
        return Err(TensorError::InnerDimMismatch {
            left: ka,
            right: kb,
        });
    }
    Ok((m, ka, n))
}

/// `C = A · B`: k-blocked outer products, skipping zero `A` entries.
fn nn_kernel(ad: &[f32], bd: &[f32], od: &mut [f32], m: usize, ka: usize, n: usize) {
    for k0 in (0..ka).step_by(BLOCK) {
        let k1 = (k0 + BLOCK).min(ka);
        for i in 0..m {
            let arow = &ad[i * ka..(i + 1) * ka];
            let orow = &mut od[i * n..(i + 1) * n];
            for k in k0..k1 {
                let aik = arow[k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &bd[k * n..(k + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * bv;
                }
            }
        }
    }
}

/// `C = Aᵀ · B`: outer-product accumulation over `k`, skipping zero `A`
/// entries (gradient layout; `m`/`n` are small, `k` is the batch).
fn tn_kernel(ad: &[f32], bd: &[f32], od: &mut [f32], m: usize, ka: usize, n: usize) {
    for k in 0..ka {
        let arow = &ad[k * m..(k + 1) * m];
        let brow = &bd[k * n..(k + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `C = A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// Thin wrapper over [`gemm`] with [`GemmSpec::NN`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::InnerDimMismatch`] if `A`'s columns differ from `B`'s rows.
///
/// # Example
///
/// ```
/// use stepping_tensor::{matmul::matmul, Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::of(&[1, 2]), vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(Shape::of(&[2, 1]), vec![3.0, 4.0])?;
/// assert_eq!(matmul(&a, &b)?.data(), &[11.0]);
/// # Ok::<(), stepping_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(a, b, GemmSpec::NN)
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]`.
///
/// This variant is the natural layout for `Linear` forward passes where the
/// weight matrix is stored `[out, in]`. Thin wrapper over [`gemm`] with
/// [`GemmSpec::NT`].
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(a, b, GemmSpec::NT)
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]`.
///
/// This variant computes weight gradients (`dW = xᵀ · dy`) without explicit
/// transposition. Thin wrapper over [`gemm`] with [`GemmSpec::TN`].
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(a, b, GemmSpec::TN)
}

/// Matrix–vector product `y = A · x` for `A: [m, k]`, `x: [k]`.
///
/// # Errors
///
/// Returns rank/dimension errors as in [`matmul`].
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    let (m, k) = check2(a)?;
    if x.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: x.shape().rank(),
        });
    }
    if x.len() != k {
        return Err(TensorError::InnerDimMismatch {
            left: k,
            right: x.len(),
        });
    }
    let mut out = Tensor::zeros(Shape::of(&[m]));
    let (ad, xd) = (a.data(), x.data());
    let od = out.data_mut();
    for i in 0..m {
        let row = &ad[i * k..(i + 1) * k];
        od[i] = row.iter().zip(xd.iter()).map(|(&a, &b)| a * b).sum();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
        let n = b.shape().dims()[1];
        let mut out = Tensor::zeros(Shape::of(&[m, n]));
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    fn seq(shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(
            Shape::of(shape),
            (0..len).map(|i| (i as f32) * 0.5 - 3.0).collect(),
        )
        .unwrap()
    }

    #[test]
    fn matmul_matches_naive() {
        let a = seq(&[7, 130]);
        let b = seq(&[130, 5]);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_bt_equals_matmul_with_transpose() {
        let a = seq(&[4, 6]);
        let b = seq(&[3, 6]);
        let direct = matmul_bt(&a, &b).unwrap();
        let via_t = matmul(&a, &b.transpose2().unwrap()).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn matmul_at_equals_matmul_with_transpose() {
        let a = seq(&[6, 4]);
        let b = seq(&[6, 3]);
        let direct = matmul_at(&a, &b).unwrap();
        let via_t = matmul(&a.transpose2().unwrap(), &b).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = seq(&[5, 9]);
        let x = seq(&[9]);
        let xm = x.reshape(Shape::of(&[9, 1])).unwrap();
        let ym = matmul(&a, &xm).unwrap();
        let y = matvec(&a, &x).unwrap();
        assert_eq!(y.data(), ym.data());
    }

    #[test]
    fn dimension_errors() {
        let a = seq(&[2, 3]);
        let b = seq(&[4, 5]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::InnerDimMismatch { .. })
        ));
        let v = seq(&[3]);
        assert!(matmul(&a, &v).is_err());
    }

    /// Every spec, with row counts on both sides of the blocked kernel's
    /// `MR`-row register tile, equals the scalar reference bit for bit.
    #[test]
    fn gemm_bit_identical_to_scalar_reference() {
        use crate::microkernel::MR;
        for &(m, k, n) in &[
            (1usize, 5usize, 4usize),
            (MR - 1, 70, 9),
            (MR, 70, 9),
            (MR + 1, 300, 17),
            (300, 200, 100),
        ] {
            for spec in [GemmSpec::NN, GemmSpec::NT, GemmSpec::TN, GemmSpec::TT] {
                let mut rng = crate::init::rng((m * k * n) as u64);
                let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
                let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
                let a = crate::init::uniform(Shape::of(&a_dims), -2.0, 2.0, &mut rng);
                let b = crate::init::uniform(Shape::of(&b_dims), -2.0, 2.0, &mut rng);
                let want = crate::reference::gemm(
                    a.data(),
                    spec.trans_a,
                    b.data(),
                    spec.trans_b,
                    (m, k, n),
                );
                assert_eq!(
                    gemm(&a, &b, spec).unwrap().data(),
                    want.as_slice(),
                    "{spec:?} {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn gemm_tt_equals_double_transpose() {
        let a = seq(&[6, 4]); // Aᵀ: [4, 6]
        let b = seq(&[3, 6]); // Bᵀ: [6, 3]
        let direct = gemm(&a, &b, GemmSpec::TT).unwrap();
        let via_t = matmul(&a.transpose2().unwrap(), &b.transpose2().unwrap()).unwrap();
        assert_eq!(direct.shape().dims(), &[4, 3]);
        for (x, y) in direct.data().iter().zip(via_t.data().iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_validates_all_spec_shapes() {
        let a = seq(&[2, 3]);
        let b = seq(&[4, 5]);
        for spec in [GemmSpec::NN, GemmSpec::NT, GemmSpec::TN, GemmSpec::TT] {
            assert!(matches!(
                gemm(&a, &b, spec),
                Err(TensorError::InnerDimMismatch { .. })
            ));
        }
        let v = seq(&[3]);
        assert!(gemm(&a, &v, GemmSpec::NN).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = seq(&[3, 3]);
        let mut eye = Tensor::zeros(Shape::of(&[3, 3]));
        for i in 0..3 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        assert_eq!(matmul(&a, &eye).unwrap(), a);
        assert_eq!(matmul(&eye, &a).unwrap(), a);
    }
}
