//! Cache-blocked, register-tiled f32 GEMM microkernel.
//!
//! A dot-product GEMM loop accumulates each output element through a single
//! dependent add chain, so it runs at the FP-add *latency* (one
//! multiply-add every ~4 cycles) instead of the FP *throughput* of the
//! machine. This module is the replacement behind the packed inference
//! paths and [`matmul`](crate::matmul)'s `A · Bᵀ` products: a BLIS-style
//! blocked GEMM whose inner loop keeps an `MR×NR` tile of
//! independent accumulators live in registers — `MR·NR/NR_vec` separate add
//! chains that the CPU can overlap — while A and B stream from contiguous,
//! tile-major packed panels.
//!
//! ## Structure
//!
//! * [`PackedB`] — the right-hand operand packed once into `NR`-wide
//!   micro-panels (`data[(jt·k + kk)·NR + j]`). Execution plans pack their
//!   weight panels at compile time, so steady-state inference never repacks
//!   B.
//! * `pack_a_block` — the left-hand operand packed per `(Mc, Kc)` block
//!   into `MR`-interleaved micro-panels inside a reusable scratch `Vec`.
//! * [`gemm_packed`] — the driver: `Kc` (depth) and `Mc` (row) cache
//!   blocking around an `MR×NR` register-tile microkernel, with an optional
//!   fused [`Epilogue`] (bias add, bias+activation) applied to each tile
//!   while it is still hot.
//!
//! ## Bit-identity
//!
//! Results are bit-identical (`f32 ==`, with `-0.0 == 0.0`) to a scalar
//! dot-product loop (the tensor tests' reference), because for every output
//! element the accumulation is *sequential in `k` starting from `+0.0`*
//! with one `acc += a·b` rounding step per term — exactly the reference
//! order:
//!
//! * `m`/`n` tiling and the register tile only regroup *independent*
//!   elements; no element's own sum is ever split or reordered.
//! * `Kc` blocking spills the partial sum to `out` between depth blocks; an
//!   `f32` store/load round-trip is exact, and the next block resumes the
//!   same chain (the first block *writes* its tile, so `out` needs no
//!   zero-fill).
//! * Ragged edges are zero-*padded* in `m`/`n` only: padded lanes compute
//!   garbage that is never stored. `k` is never padded or reordered.
//! * There is **no zero-skip branch** anywhere in this module: packed
//!   panels are dense by construction, so the branch could only cost; the
//!   `if aik == 0.0` skip survives solely in [`matmul`](crate::matmul)'s
//!   `A · B` and `Aᵀ · B` loops, whose masked gradient operands really are
//!   mostly zero.
//!
//! Fused epilogues reproduce the downstream ops verbatim: bias is one add
//! after the finished dot product (as in the masked layers), ReLU is
//! `v.max(0.0)` and tanh is `f32::tanh` — the exact expressions
//! `stepping-nn`'s activation layers apply elementwise. Sigmoid is *not*
//! offered as an epilogue: `sigmoid(0) = 0.5`, so applying it panel-wise
//! would diverge from the masked reference on inactive (zero) entries once
//! scattered back to full width.
//!
//! ## Tuning knobs
//!
//! [`MR`]`×`[`NR`] `= 4×8` keeps 8 four-wide SSE accumulator vectors plus
//! operands inside the 16 XMM registers of baseline x86-64; [`KC`]` = 256`
//! keeps one A micro-panel (`KC·MR` floats ≈ 4 KiB) L1-resident and one B
//! micro-panel (`KC·NR` ≈ 8 KiB) L1/L2-resident; [`MC`]` = 128` bounds the
//! packed A block (`MC·KC` ≈ 128 KiB) to L2. See `docs/PERFORMANCE.md` for
//! the measured effect.

use crate::matmul::{gemm_dims, GemmSpec};
use crate::{Result, Shape, Tensor};

/// Register-tile rows: independent accumulator rows per microkernel call.
pub const MR: usize = 4;
/// Register-tile columns: accumulator lanes per row (two 4-wide vectors).
pub const NR: usize = 8;
/// Depth (`k`) cache-block: A micro-panels stay L1-resident.
pub const KC: usize = 256;
/// Row (`m`) cache-block: one packed A block stays L2-resident.
pub const MC: usize = 128;

/// Fused per-element epilogue applied to each output tile while it is still
/// in registers, after the final depth block.
///
/// Every variant reproduces the downstream operator bit-for-bit (see the
/// module docs); `None` stores the raw accumulators.
#[derive(Debug, Clone, Copy, Default)]
pub enum Epilogue<'a> {
    /// Store the accumulators unchanged.
    #[default]
    None,
    /// `out[i][j] = acc[i][j] + bias[j]` (`bias.len() == n`).
    Bias(&'a [f32]),
    /// `out[i][j] = (acc[i][j] + bias[j]).max(0.0)` — fused ReLU.
    BiasRelu(&'a [f32]),
    /// `out[i][j] = (acc[i][j] + bias[j]).tanh()` — fused tanh.
    BiasTanh(&'a [f32]),
}

impl Epilogue<'_> {
    /// Applies the epilogue to one finished element.
    #[inline(always)]
    fn apply(&self, v: f32, j: usize) -> f32 {
        match self {
            Epilogue::None => v,
            Epilogue::Bias(bias) => v + bias[j],
            Epilogue::BiasRelu(bias) => (v + bias[j]).max(0.0),
            Epilogue::BiasTanh(bias) => (v + bias[j]).tanh(),
        }
    }

    fn check(&self, n: usize) {
        let len = match self {
            Epilogue::None => return,
            Epilogue::Bias(b) | Epilogue::BiasRelu(b) | Epilogue::BiasTanh(b) => b.len(),
        };
        assert!(len >= n, "epilogue bias shorter than output width");
    }
}

/// The right-hand GEMM operand packed into `NR`-wide, `k`-major
/// micro-panels: `data[(jt·k + kk)·NR + j]` holds `B[jt·NR + j, kk]` (of
/// the *logical* `[n, k]` operand `Bᵀ` reads against), zero-padded in the
/// lane dimension.
///
/// Packing is done once — by the layer-plan compiler for weights, or by
/// [`PackedB::pack_nt`]/[`PackedB::pack_nn`] for ad-hoc operands — and
/// reused by every subsequent [`gemm_packed`] call.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    data: Vec<f32>,
    n: usize,
    k: usize,
}

impl PackedB {
    /// Packs a row-major `[n, k]` operand (the NT/`matmul_bt` weight
    /// layout: one row per output, contiguous over `k`).
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than `n * k`.
    pub fn pack_nt(b: &[f32], n: usize, k: usize) -> PackedB {
        assert!(b.len() >= n * k, "pack_nt operand too short");
        let ntiles = n.div_ceil(NR);
        let mut data = vec![0.0f32; ntiles * k * NR];
        for jt in 0..ntiles {
            let nr_act = NR.min(n - jt * NR);
            let panel = &mut data[jt * k * NR..(jt + 1) * k * NR];
            for j in 0..nr_act {
                let src = &b[(jt * NR + j) * k..(jt * NR + j + 1) * k];
                for (kk, &v) in src.iter().enumerate() {
                    panel[kk * NR + j] = v;
                }
            }
        }
        PackedB { data, n, k }
    }

    /// Packs a row-major `[k, n]` operand (the NN layout: `k` rows of
    /// width `n`, copied as contiguous `NR`-lane runs).
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than `k * n`.
    pub fn pack_nn(b: &[f32], k: usize, n: usize) -> PackedB {
        assert!(b.len() >= k * n, "pack_nn operand too short");
        let ntiles = n.div_ceil(NR);
        let mut data = vec![0.0f32; ntiles * k * NR];
        for jt in 0..ntiles {
            let nr_act = NR.min(n - jt * NR);
            let panel = &mut data[jt * k * NR..(jt + 1) * k * NR];
            for kk in 0..k {
                let src = &b[kk * n + jt * NR..kk * n + jt * NR + nr_act];
                panel[kk * NR..kk * NR + nr_act].copy_from_slice(src);
            }
        }
        PackedB { data, n, k }
    }

    /// Logical output width `n` (columns of the product).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Logical depth `k` (inner dimension).
    pub fn k(&self) -> usize {
        self.k
    }
}

/// The innermost loop: accumulates one `MR×NR` register tile over `kc`
/// depth steps. `apanel` is `kc` groups of `MR` interleaved A values,
/// `bpanel` is `kc` groups of `NR` interleaved B values; per element the
/// depth order is strictly ascending, matching the reference dot product.
#[inline(always)]
fn microtile(apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    // Work on a by-value copy so the accumulators are locals LLVM can hold
    // in vector registers across the depth loop, instead of memory the
    // caller's `&mut` points at.
    let mut local = *acc;
    for (av, bv) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let av: &[f32; MR] = av.try_into().expect("MR chunk");
        let bv: &[f32; NR] = bv.try_into().expect("NR chunk");
        for j in 0..NR {
            let b = bv[j];
            local[0][j] += av[0] * b;
            local[1][j] += av[1] * b;
            local[2][j] += av[2] * b;
            local[3][j] += av[3] * b;
        }
    }
    *acc = local;
}

/// Grows `buf` to `len` elements without re-zeroing retained capacity.
///
/// The packed kernels fully overwrite what they read back, so a reused
/// scratch buffer only pays initialisation for freshly grown capacity —
/// this is the steady-state "no redundant zero-fill" path shared with
/// [`pack`](crate::pack).
pub fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() >= len {
        buf.truncate(len);
    } else {
        buf.resize(len, 0.0);
    }
}

/// Packs the `rows × depth` block of A into `MR`-interleaved micro-panels
/// (`apack[(it·kc + kk)·MR + i]`), zero-padding ragged row tiles.
/// `trans_a` reads A as `[k_total, m]` (TN/TT layouts).
fn pack_a_block(
    a: &[f32],
    trans_a: bool,
    (m, k): (usize, usize),
    rows: std::ops::Range<usize>,
    depth: std::ops::Range<usize>,
    apack: &mut Vec<f32>,
) {
    let (ic, mc) = (rows.start, rows.len());
    let (pc, kc) = (depth.start, depth.len());
    let mtiles = mc.div_ceil(MR);
    grow(apack, mtiles * kc * MR);
    for it in 0..mtiles {
        let dst = &mut apack[it * kc * MR..(it + 1) * kc * MR];
        let mr_act = MR.min(mc - it * MR);
        let row0 = ic + it * MR;
        if trans_a {
            for (kk, d) in dst.chunks_exact_mut(MR).enumerate() {
                let arow = &a[(pc + kk) * m..(pc + kk) * m + m];
                for (i, v) in d.iter_mut().enumerate() {
                    *v = if i < mr_act { arow[row0 + i] } else { 0.0 };
                }
            }
        } else {
            for i in 0..MR {
                if i < mr_act {
                    let arow = &a[(row0 + i) * k + pc..(row0 + i) * k + pc + kc];
                    for (kk, &v) in arow.iter().enumerate() {
                        dst[kk * MR + i] = v;
                    }
                } else {
                    for kk in 0..kc {
                        dst[kk * MR + i] = 0.0;
                    }
                }
            }
        }
    }
}

/// Blocked, register-tiled `C = op(A) · Bᵀ_packed` into a caller-sized
/// slice (`out.len() == m * b.n()`).
///
/// `a` is row-major `[m, k]` (or `[k, m]` with `trans_a`); `b` carries the
/// packed right-hand operand and the `k`/`n` extents; `apack` is reusable
/// A-packing scratch (zero steady-state allocation once grown); `epi` is
/// fused into the final store of each tile.
///
/// Every output element is written (first depth block stores, later blocks
/// read-modify-write), so `out` does not need to be zeroed beforehand.
/// Results are bit-identical to a scalar dot-product loop — see the
/// module docs for the argument.
///
/// # Panics
///
/// Panics if `a`, `out`, or an epilogue bias is shorter than its implied
/// extent.
pub fn gemm_packed(
    a: &[f32],
    trans_a: bool,
    b: &PackedB,
    out: &mut [f32],
    m: usize,
    apack: &mut Vec<f32>,
    epi: Epilogue,
) {
    let (k, n) = (b.k, b.n);
    assert_eq!(out.len(), m * n, "blocked GEMM output extent mismatch");
    assert!(a.len() >= m * k, "blocked GEMM A operand too short");
    epi.check(n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // No depth blocks would run; the reference writes a 0.0 accumulator
        // (plus epilogue) to every element.
        for (idx, o) in out.iter_mut().enumerate() {
            *o = epi.apply(0.0, idx % n);
        }
        return;
    }
    let ntiles = n.div_ceil(NR);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let first = pc == 0;
        let last = pc + kc == k;
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            pack_a_block(a, trans_a, (m, k), ic..ic + mc, pc..pc + kc, apack);
            let mtiles = mc.div_ceil(MR);
            for jt in 0..ntiles {
                let bpanel = &b.data[(jt * k + pc) * NR..(jt * k + pc + kc) * NR];
                let col0 = jt * NR;
                let nr_act = NR.min(n - col0);
                for it in 0..mtiles {
                    let apanel = &apack[it * kc * MR..(it + 1) * kc * MR];
                    let mr_act = MR.min(mc - it * MR);
                    let row0 = ic + it * MR;
                    let mut acc = [[0.0f32; NR]; MR];
                    if !first {
                        // Resume each element's chain from its spilled
                        // partial sum (exact f32 round-trip).
                        for (i, row) in acc.iter_mut().enumerate().take(mr_act) {
                            let orow = &out[(row0 + i) * n + col0..(row0 + i) * n + col0 + nr_act];
                            row[..nr_act].copy_from_slice(orow);
                        }
                    }
                    microtile(apanel, bpanel, &mut acc);
                    for (i, row) in acc.iter().enumerate().take(mr_act) {
                        let orow = &mut out[(row0 + i) * n + col0..(row0 + i) * n + col0 + nr_act];
                        if last {
                            for (j, o) in orow.iter_mut().enumerate() {
                                *o = epi.apply(row[j], col0 + j);
                            }
                        } else {
                            orow.copy_from_slice(&row[..nr_act]);
                        }
                    }
                }
            }
        }
    }
}

/// Whole-matrix blocked GEMM mirroring [`gemm`](crate::matmul::gemm): packs
/// B per `spec` and runs [`gemm_packed`]. Results are bit-identical
/// (`f32 ==`) to the scalar reference for every `GemmSpec` variant — the
/// property tests assert this. [`gemm`](crate::matmul::gemm) routes its
/// `A · Bᵀ` and `Aᵀ · Bᵀ` products here; the packed inference paths use a
/// plan-compiled [`PackedB`] directly instead.
///
/// # Errors
///
/// Returns the same rank/inner-dimension errors as
/// [`gemm`](crate::matmul::gemm).
pub fn gemm_blocked(a: &Tensor, b: &Tensor, spec: GemmSpec) -> Result<Tensor> {
    let (m, k, n) = gemm_dims(a, b, spec)?;
    let packed = if spec.trans_b {
        PackedB::pack_nt(b.data(), n, k)
    } else {
        PackedB::pack_nn(b.data(), k, n)
    };
    // The kernel writes every element before reading any back, but safe
    // Rust cannot hand it uninitialised memory. `Tensor::zeros` uses the
    // zeroed allocator, which can skip the fill on fresh pages; `grow` on
    // an empty `Vec` would always write the zeros.
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    gemm_packed(
        a.data(),
        spec.trans_a,
        &packed,
        out.data_mut(),
        m,
        &mut Vec::new(),
        Epilogue::None,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn seq(shape: &[usize], seed: u64) -> Tensor {
        init::uniform(Shape::of(shape), -1.0, 1.0, &mut init::rng(seed))
    }

    /// The scalar reference `A · Bᵀ` for `a: [m, k]`, `b: [n, k]`.
    fn reference_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
        let n = b.shape().dims()[0];
        let out = crate::reference::gemm(a.data(), false, b.data(), true, (m, k, n));
        Tensor::from_vec(Shape::of(&[m, n]), out).unwrap()
    }

    #[test]
    fn blocked_nt_matches_reference_ragged() {
        // deliberately not multiples of MR/NR/KC
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (17, 300, 33),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
        ] {
            let a = seq(&[m, k], 1);
            let b = seq(&[n, k], 2);
            let reference = reference_nt(&a, &b);
            let blocked = gemm_blocked(&a, &b, GemmSpec::NT).unwrap();
            assert_eq!(reference, blocked, "NT {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_all_specs_match_reference() {
        let (m, k, n) = (9, 70, 13);
        for spec in [GemmSpec::NN, GemmSpec::NT, GemmSpec::TN, GemmSpec::TT] {
            let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
            let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
            let a = seq(&a_dims, 3);
            let b = seq(&b_dims, 4);
            let reference =
                crate::reference::gemm(a.data(), spec.trans_a, b.data(), spec.trans_b, (m, k, n));
            let blocked = gemm_blocked(&a, &b, spec).unwrap();
            assert_eq!(blocked.data(), reference.as_slice(), "{spec:?}");
        }
    }

    #[test]
    fn degenerate_extents() {
        for &(m, k, n) in &[(0usize, 4usize, 3usize), (4, 0, 3), (4, 3, 0), (0, 0, 0)] {
            let a = seq(&[m, k], 5);
            let b = seq(&[n, k], 6);
            let reference = reference_nt(&a, &b);
            let blocked = gemm_blocked(&a, &b, GemmSpec::NT).unwrap();
            assert_eq!(reference, blocked, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn epilogue_bias_and_relu() {
        let (m, k, n) = (5, 33, 11);
        let a = seq(&[m, k], 7);
        let b = seq(&[n, k], 8);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 1.0).collect();
        let packed = PackedB::pack_nt(b.data(), n, k);
        let mut apack = Vec::new();

        let mut with_bias = vec![f32::NAN; m * n];
        gemm_packed(
            a.data(),
            false,
            &packed,
            &mut with_bias,
            m,
            &mut apack,
            Epilogue::Bias(&bias),
        );
        let mut relu = vec![f32::NAN; m * n];
        gemm_packed(
            a.data(),
            false,
            &packed,
            &mut relu,
            m,
            &mut apack,
            Epilogue::BiasRelu(&bias),
        );
        let reference = reference_nt(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let z = reference.data()[i * n + j] + bias[j];
                assert_eq!(with_bias[i * n + j], z);
                assert_eq!(relu[i * n + j], z.max(0.0));
            }
        }
    }

    #[test]
    fn kc_spill_resumes_exactly() {
        // k > KC forces at least one partial-sum spill/reload per element.
        let (m, k, n) = (3, 2 * KC + 17, 5);
        let a = seq(&[m, k], 9);
        let b = seq(&[n, k], 10);
        assert_eq!(
            reference_nt(&a, &b),
            gemm_blocked(&a, &b, GemmSpec::NT).unwrap()
        );
    }

    #[test]
    fn output_never_needs_prezeroing() {
        let (m, k, n) = (6, 40, 9);
        let a = seq(&[m, k], 11);
        let b = seq(&[n, k], 12);
        let packed = PackedB::pack_nt(b.data(), n, k);
        let mut apack = Vec::new();
        let mut out = vec![f32::NAN; m * n];
        gemm_packed(
            a.data(),
            false,
            &packed,
            &mut out,
            m,
            &mut apack,
            Epilogue::None,
        );
        assert_eq!(out.as_slice(), reference_nt(&a, &b).data());
    }

    #[test]
    fn grow_keeps_contents() {
        let mut v = vec![1.0f32, 2.0];
        grow(&mut v, 4);
        assert_eq!(v, [1.0, 2.0, 0.0, 0.0]);
        grow(&mut v, 1);
        assert_eq!(v, [1.0]);
    }
}
