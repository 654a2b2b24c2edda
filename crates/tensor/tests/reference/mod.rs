//! Scalar reference GEMM: the oracle for every kernel in `matmul` and
//! `microkernel`.
//!
//! Each output element is one dot product accumulated sequentially in `k`
//! from `+0.0`, one `acc += a·b` rounding step per term, with no blocking,
//! tiling or zero-skip. The kernels claim bit-identity (`f32 ==`) with it.
//! It works on raw row-major slices so that the crate's unit tests (which
//! include this file as a module) and its integration tests share it.

/// `C = op(A) · op(B)` with `op` transposing per flag, for result `[m, n]`
/// and inner dimension `k`. `A` is `[m, k]` (`[k, m]` with `trans_a`) and
/// `B` is `[k, n]` (`[n, k]` with `trans_b`).
pub fn gemm(
    a: &[f32],
    trans_a: bool,
    b: &[f32],
    trans_b: bool,
    (m, k, n): (usize, usize, usize),
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let av = if trans_a {
                    a[kk * m + i]
                } else {
                    a[i * k + kk]
                };
                let bv = if trans_b {
                    b[j * k + kk]
                } else {
                    b[kk * n + j]
                };
                acc += av * bv;
            }
            out.push(acc);
        }
    }
    out
}
