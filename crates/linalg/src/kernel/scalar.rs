//! Portable scalar arm — the reference semantics every other backend
//! must reproduce bit for bit.
//!
//! These loops are byte-for-byte the pre-kernel-layer implementations
//! that used to live in `Matrix`/`vecops`, so routing through the
//! dispatch changed nothing for `FIA_FORCE_SCALAR=1` runs.

/// `k`-block width the scalar gemm switches to once the working set
/// outgrows L1/L2 — same cutover the old `Matrix::matmul` used.
const SCALAR_KC: usize = 64;
const SCALAR_CUTOVER: usize = 64 * 1024;

/// `out += a · b`, row-major. Accumulates `k`-ascending per output
/// element (blocked and plain orderings agree bit-for-bit).
pub(super) fn gemm_acc(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    if m * k + k * n > SCALAR_CUTOVER {
        for k0 in (0..k).step_by(SCALAR_KC) {
            let k1 = (k0 + SCALAR_KC).min(k);
            for i in 0..m {
                row_kernel(
                    &a[i * k..(i + 1) * k],
                    b,
                    &mut out[i * n..(i + 1) * n],
                    k0,
                    k1,
                    n,
                );
            }
        }
    } else {
        for i in 0..m {
            row_kernel(
                &a[i * k..(i + 1) * k],
                b,
                &mut out[i * n..(i + 1) * n],
                0,
                k,
                n,
            );
        }
    }
}

/// Accumulates `o_row[j] += Σ_{k0≤kk<k1} a_row[kk] · b[kk][j]`.
#[inline]
fn row_kernel(a_row: &[f64], b: &[f64], o_row: &mut [f64], k0: usize, k1: usize, n: usize) {
    for (kk, &a_ik) in a_row[k0..k1].iter().enumerate() {
        if a_ik == 0.0 {
            continue;
        }
        let b_row = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
        for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
            *o += a_ik * bv;
        }
    }
}

/// `out += a · btᵀ` with `bt` stored `n × k`: every output element is a
/// contiguous row-dot, accumulated `k`-ascending. The fold seeds from the
/// existing `out` value (not a fresh zero) so the accumulation order is
/// the same left fold the AVX2 microkernel performs — bit-identical even
/// when `out` arrives non-zero. For the zero-initialized call the old
/// `matmul_transposed` made, seeding from `0.0` is the identical fold.
pub(super) fn gemm_tn_acc(a: &[f64], bt: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
            *o = a_row
                .iter()
                .zip(bt[j * k..(j + 1) * k].iter())
                .fold(*o, |acc, (&x, &y)| acc + x * y);
        }
    }
}

/// `y ← y + alpha·x`.
#[inline]
pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

pub(super) fn vadd(a: &[f64], b: &[f64], out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x + y;
    }
}

pub(super) fn vsub(a: &[f64], b: &[f64], out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x - y;
    }
}

pub(super) fn vmul(a: &[f64], b: &[f64], out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x * y;
    }
}

pub(super) fn vscale(a: &[f64], s: f64, out: &mut [f64]) {
    for (o, &x) in out.iter_mut().zip(a.iter()) {
        *o = x * s;
    }
}
