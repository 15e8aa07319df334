//! The matrix-product kernel behind [`Tensor::matmul`](crate::Tensor::matmul),
//! `matmul_nt` and `matmul_tn`, written once and compiled twice.
//!
//! Every output sums its products from `+0.0` in ascending inner index and
//! skips a zero left factor. An accumulator that starts at `+0.0` never
//! holds `-0.0`, so adding `+0.0` to it changes nothing: the tile skips by
//! adding `+0.0` instead of the product, and for finite right factors
//! adding the product `±0.0` would change nothing either. The blocking only decides which outputs share a pass
//! over the inner dimension, never the order of one output's additions, so
//! every block shape — and every lane width — gives the same bits.
//!
//! [`product`] keeps a tile of 4 rows × 16 outputs in registers, then per
//! row blocks of 16, 4 and 1 outputs. A single-row block carries one
//! dependent add chain per register, so it is bound by add latency and SSE2
//! lanes are enough for it; the 4-row tile runs four independent chains and
//! fills the 8-lane registers AVX2 has. The same body is therefore compiled
//! as is (baseline x86-64, SSE2) and under `avx2` — never `fma`, which would
//! fuse a multiply into its add and round once instead of twice. The host's
//! copy is picked once, at first use ([`Width::host`]).

use std::sync::OnceLock;

/// Rows of the left factor from which `Tensor::matmul_nt` transposes the
/// right one and runs [`product`]; below it, each row runs
/// [`transposed_blocks`] on the right factor as it lies. Measured for
/// `g · w_ctxᵀ` (`k = 16, n = 48`; 2-vCPU Xeon, release build, AVX2 copy,
/// best of 7): 1 row takes ≈ 0.37 µs in row blocks and ≈ 1.1 µs
/// transposed, 3 rows ≈ 1.2 and ≈ 1.5 µs, and the two meet at 4 rows
/// (≈ 1.5 µs each; at `n = 16` and `n = 64` too). Training calls
/// `matmul_nt` with a shard's stacked rows (15–48 on the bench dataset),
/// serving with one row (a layer on one vector) or a tower's `d ≤ 12`.
pub(crate) const NT_BLOCKED_ROWS: usize = 4;

/// Which compiled copy of the product kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Width {
    /// The baseline build: 4 SSE2 lanes.
    Base,
    /// The same body compiled for AVX2 (8 lanes), without FMA.
    Avx2,
}

impl Width {
    /// The widest copy the host runs, detected on the first call.
    pub(crate) fn host() -> Self {
        static HOST: OnceLock<Width> = OnceLock::new();
        *HOST.get_or_init(|| if Width::Avx2.runs() { Width::Avx2 } else { Width::Base })
    }

    /// Whether this host can run the copy.
    pub(crate) fn runs(self) -> bool {
        match self {
            Width::Base => true,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Width::Avx2 => false,
        }
    }
}

/// The left factor of a [`product`]: its element `(i, p)` lies at
/// `data[i * k + p]` (row-major, `k` columns) or `data[p * m + i]` (read
/// down the columns of a row-major `k × m` matrix: a transposed factor).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// `m × k`, row-major.
    Rows(&'a [f32]),
    /// `k × m`, row-major, read as its transpose.
    Cols(&'a [f32]),
}

/// `out[i][j] = Σ_p a(i, p) · b[p][j]` for an `m × n` `out` and a `k × n`
/// row-major `b`, on the `width` copy of the kernel (see the module docs).
/// Writes every element of `out`, whatever it held.
///
/// # Panics
/// Panics if the host cannot run `width`, or a factor is shorter than its
/// shape.
pub(crate) fn product(width: Width, m: usize, k: usize, n: usize, a: Lhs<'_>, b: &[f32], out: &mut [f32]) {
    let a_len = match a {
        Lhs::Rows(data) | Lhs::Cols(data) => data.len(),
    };
    assert!(a_len >= m * k && b.len() >= k * n && out.len() >= m * n, "kernel: a factor is shorter than its shape");
    match width {
        Width::Base => product_body(m, k, n, a, b, out),
        Width::Avx2 => {
            assert!(width.runs(), "kernel: this host has no AVX2");
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `runs` just confirmed the CPU supports AVX2, the only
            // feature the copy is compiled with.
            unsafe {
                product_avx2(m, k, n, a, b, out)
            }
        }
    }
}

/// [`product_body`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn product_avx2(m: usize, k: usize, n: usize, a: Lhs<'_>, b: &[f32], out: &mut [f32]) {
    product_body(m, k, n, a, b, out)
}

/// The kernel's one body. Inlined into each copy, with everything it
/// calls, so that each is compiled for its copy's width.
#[inline(always)]
fn product_body(m: usize, k: usize, n: usize, a: Lhs<'_>, b: &[f32], out: &mut [f32]) {
    let mut i = 0;
    // A rank-1 product (`k = 1`: the `fc`/head weight gradients of one
    // row) has no chain to interleave; its rows keep their one pass.
    if k > 1 {
        while i + 4 <= m {
            let tile = &mut out[i * n..(i + 4) * n];
            let j = match a {
                Lhs::Rows(data) => {
                    let rows: [&[f32]; 4] = std::array::from_fn(|r| &data[(i + r) * k..(i + r + 1) * k]);
                    row_tiles(k, n, |p| std::array::from_fn(|r| rows[r][p]), b, tile)
                }
                Lhs::Cols(data) => row_tiles(k, n, |p| data[p * m + i..p * m + i + 4].try_into().expect("4 rows"), b, tile),
            };
            for r in 0..4 {
                row_blocks::<4>(j, i + r, m, k, n, a, b, &mut tile[r * n..(r + 1) * n]);
            }
            i += 4;
        }
    }
    for i in i..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        if k == 1 {
            let (Lhs::Rows(data) | Lhs::Cols(data)) = a;
            match data[i] {
                0.0 => out_row.fill(0.0),
                av => out_row.iter_mut().zip(b).for_each(|(o, &bv)| *o = 0.0 + av * bv),
            }
            continue;
        }
        row_blocks::<16>(0, i, m, k, n, a, b, out_row);
    }
}

/// Row `i`'s outputs from column `j` on, in blocks of `B`, then of 4, then
/// of 1 output.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_blocks<const B: usize>(j: usize, i: usize, m: usize, k: usize, n: usize, a: Lhs<'_>, b: &[f32], out_row: &mut [f32]) {
    match a {
        Lhs::Rows(data) => {
            let row = &data[i * k..(i + 1) * k];
            let j = output_blocks::<B>(k, n, j, |p| row[p], b, out_row);
            let j = output_blocks::<4>(k, n, j, |p| row[p], b, out_row);
            output_blocks::<1>(k, n, j, |p| row[p], b, out_row);
        }
        Lhs::Cols(data) => {
            let j = output_blocks::<B>(k, n, j, |p| data[p * m + i], b, out_row);
            let j = output_blocks::<4>(k, n, j, |p| data[p * m + i], b, out_row);
            output_blocks::<1>(k, n, j, |p| data[p * m + i], b, out_row);
        }
    }
}

/// The four rows of `tile` (`4 × n`) in tiles of 16 outputs, from column 0
/// while a whole tile fits; `a(p)` gives the four rows' left factors at
/// inner index `p`. Returns the first column left over. Each row skips its
/// own zero left factors.
#[inline(always)]
fn row_tiles(k: usize, n: usize, a: impl Fn(usize) -> [f32; 4], b: &[f32], tile: &mut [f32]) -> usize {
    let mut j = 0;
    while j + 16 <= n {
        let mut acc = [[0.0f32; 16]; 4];
        for p in 0..k {
            let b_block: &[f32; 16] = b[p * n + j..p * n + j + 16].try_into().expect("a whole tile");
            for (acc, av) in acc.iter_mut().zip(a(p)) {
                // The skip without a branch: a zero left factor adds
                // `+0.0`, which changes no accumulator (see the module docs).
                let keep = av != 0.0;
                for (acc, &bv) in acc.iter_mut().zip(b_block) {
                    *acc += if keep { av * bv } else { 0.0 };
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            tile[r * n + j..r * n + j + 16].copy_from_slice(acc);
        }
        j += 16;
    }
    j
}

/// Blocks of `B` outputs of one row, from column `j` while a whole block
/// fits; returns the first column left over.
#[inline(always)]
fn output_blocks<const B: usize>(
    k: usize,
    n: usize,
    mut j: usize,
    a: impl Fn(usize) -> f32,
    b: &[f32],
    out_row: &mut [f32],
) -> usize {
    while j + B <= n {
        let mut acc = [0.0f32; B];
        for p in 0..k {
            let av = a(p);
            if av == 0.0 {
                continue;
            }
            let b_block: &[f32; B] = b[p * n + j..p * n + j + B].try_into().expect("a whole block");
            for (acc, &bv) in acc.iter_mut().zip(b_block) {
                *acc += av * bv;
            }
        }
        out_row[j..j + B].copy_from_slice(&acc);
        j += B;
    }
    j
}

/// `out_row[j] = Σ_p a_row[p] · b[j][p]` for a row-major `b` of
/// `out_row.len()` rows of `k`, under [`product`]'s contract: `B` outputs
/// at a time keep their sums in registers across the inner dimension, each
/// reading its own row of `b` as it lies (no transpose). Returns the first
/// output left over, from `j` on.
pub(crate) fn transposed_blocks<const B: usize>(
    a_row: &[f32],
    b: &[f32],
    k: usize,
    mut j: usize,
    out_row: &mut [f32],
) -> usize {
    while j + B <= out_row.len() {
        let rows: [&[f32]; B] = std::array::from_fn(|t| &b[(j + t) * k..(j + t + 1) * k]);
        let mut acc = [0.0f32; B];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc += av * row[p];
            }
        }
        out_row[j..j + B].copy_from_slice(&acc);
        j += B;
    }
    j
}

#[cfg(test)]
mod tests {
    //! Both compiled copies against a triple loop that sums each output
    //! from `+0.0` in ascending inner index: over widths on and off the
    //! tile and block sizes, row counts on and off the 4-row tile, all-zero
    //! rows, `-0.0` entries and inner or outer dimensions of 0 and 1 (a
    //! 1-row product, a rank-1 one, an empty one).

    use super::Width;
    use crate::Tensor;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A value whose bits make the association observable: exact zeros of
    /// both signs, O(1) values and magnitudes that swallow them.
    fn draw(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..20) {
            0..=3 => 0.0,
            4 => -0.0,
            5..=7 => rng.gen_range(-1.0e6f32..1.0e6),
            _ => rng.gen_range(-3.0f32..3.0),
        }
    }

    /// A `rows × cols` draw with about one row in four all zero.
    fn random_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        let mut t = Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| draw(rng)).collect());
        for r in 0..rows {
            if rng.gen_range(0..4) == 0 {
                t.row_mut(r).fill(0.0);
            }
        }
        t
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `out[i][j] = Σ_p a(i, p) · b(p, j)`, each output from `+0.0` in
    /// ascending `p`.
    fn naive(m: usize, k: usize, n: usize, a: impl Fn(usize, usize) -> f32, b: impl Fn(usize, usize) -> f32) -> Tensor {
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a(i, p) * b(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// The three products on the `width` copy against the triple loop, at
    /// one shape.
    fn kernels_match_at(width: Width, m: usize, k: usize, n: usize, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut out = Tensor::default();
        let (a, b) = (random_tensor(&mut rng, m, k), random_tensor(&mut rng, k, n));
        a.matmul_into_on(width, &b, &mut out);
        let want = naive(m, k, n, |i, p| a.get(i, p), |p, j| b.get(p, j));
        prop_assert_eq!(bits(&out), bits(&want), "{:?} matmul {}x{} . {}x{}", width, m, k, k, n);

        let (a, b) = (random_tensor(&mut rng, m, k), random_tensor(&mut rng, n, k));
        a.matmul_nt_into_on(width, &b, &mut out, &mut Tensor::default());
        let want = naive(m, k, n, |i, p| a.get(i, p), |p, j| b.get(j, p));
        prop_assert_eq!(bits(&out), bits(&want), "{:?} matmul_nt {}x{} . ({}x{})^T", width, m, k, n, k);

        let (a, b) = (random_tensor(&mut rng, k, m), random_tensor(&mut rng, k, n));
        a.matmul_tn_rows_into_on(width, &b, 0..k, &mut out);
        let want = naive(m, k, n, |i, p| a.get(p, i), |p, j| b.get(p, j));
        prop_assert_eq!(bits(&out), bits(&want), "{:?} matmul_tn ({}x{})^T . {}x{}", width, k, m, k, n);
        Ok(())
    }

    /// Every product at every shape built from 0, 1, 2, 3, 4, 5, 8 and 17
    /// (one block of 16 plus one): the empty, 1-row and rank-1 products,
    /// one and two whole row tiles, and a tile with each remainder of 1–3
    /// rows.
    fn edge_shapes(width: Width) {
        let dims = [0, 1, 2, 3, 4, 5, 8, 17];
        let mut seed = 0;
        for m in dims {
            for k in dims {
                for n in dims {
                    kernels_match_at(width, m, k, n, seed).unwrap();
                    seed += 1;
                }
            }
        }
    }

    /// Shapes around one, two and three tiles or blocks of 16, the row
    /// counts around the 4-row tile, and the small ones: 0 and 1 in a
    /// quarter of the draws.
    fn random_shape(width: Width, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dim = || match rng.gen_range(0..4) {
            0 => rng.gen_range(0..2),
            1 => rng.gen_range(2..9),
            _ => rng.gen_range(12..52),
        };
        let (m, k, n) = (dim(), dim(), dim());
        kernels_match_at(width, m, k, n, seed)
    }

    /// Runs `check` on the AVX2 copy, or says that this host skips it.
    fn on_avx2(check: impl FnOnce()) {
        if Width::Avx2.runs() {
            check();
        } else {
            eprintln!("skipped: this host has no AVX2, so the AVX2 copy of the kernel was not run");
        }
    }

    #[test]
    fn kernels_match_the_triple_loop_at_the_edge_shapes() {
        edge_shapes(Width::Base);
    }

    #[test]
    fn avx2_kernels_match_the_triple_loop_at_the_edge_shapes() {
        on_avx2(|| edge_shapes(Width::Avx2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn blocked_backward_kernels_are_the_naive_triple_loop(seed in 0u64..1_000_000) {
            random_shape(Width::Base, seed)?;
        }

        #[test]
        fn avx2_blocked_kernels_are_the_naive_triple_loop(seed in 0u64..1_000_000) {
            if Width::Avx2.runs() {
                random_shape(Width::Avx2, seed)?;
            }
        }
    }
}
