//! Row-major dense matrices and BLAS-2/3 style kernels.

use crate::blocking::{dot8, fused_madd4, MULAD_UNROLL, PAR_BLOCKS};
use crate::error::{LinalgError, Result};
use crate::vector::DVec;
use meshfree_runtime::par;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Row-major dense `f64` matrix.
///
/// The RBF collocation matrices in this workspace are dense and moderately
/// sized (hundreds to a few thousand rows), so a flat row-major `Vec<f64>`
/// with cache-friendly loops and pool parallelism over rows is the right
/// tool. Above [`DMat::PAR_THRESHOLD`] total work, `matmul`/`matvec`
/// parallelize over rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Work threshold (in multiply-adds) above which kernels go parallel.
    pub const PAR_THRESHOLD: usize = 1 << 16;

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity.
    pub fn eye(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DMat { rows, cols, data }
    }

    /// Builds from row-major data. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: wrong data length");
        DMat { rows, cols, data }
    }

    /// Builds from a slice of rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        DMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Diagonal matrix from a vector.
    pub fn from_diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = DMat::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out into a vector.
    pub fn col(&self, j: usize) -> DVec {
        DVec::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat row-major data, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes `self`, returning the flat row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &DVec) -> Result<DVec> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                got: (x.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let work = self.rows * self.cols;
        let y = if work >= Self::PAR_THRESHOLD {
            par::par_map_collect(self.rows, |i| dot8(self.row(i), x))
        } else {
            (0..self.rows).map(|i| dot8(self.row(i), x)).collect()
        };
        Ok(DVec(y))
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    pub fn matvec_t(&self, x: &DVec) -> Result<DVec> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_t",
                got: (x.len(), 1),
                expected: (self.rows, 1),
            });
        }
        let mut y = DVec::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            if xi != 0.0 {
                for (j, &aij) in self.row(i).iter().enumerate() {
                    y[j] += aij * xi;
                }
            }
        }
        Ok(y)
    }

    /// Matrix product `A B`, parallel over rows of the output when large.
    pub fn matmul(&self, b: &DMat) -> Result<DMat> {
        if self.cols != b.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                got: (b.rows, b.cols),
                expected: (self.cols, b.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, b.cols);
        let mut out = vec![0.0; m * n];
        let body = |i: usize, orow: &mut [f64]| {
            // i-k-j loop order: streams through B's rows, vectorizes the
            // inner j loop, and touches each output row once. Four of A's
            // multipliers are fused per pass over the output row
            // (MULAD_UNROLL), quartering output traffic and handing the
            // compiler independent mul-add chains; the summation order is
            // a pure function of k, so results are deterministic.
            let arow = &self.data[i * k..(i + 1) * k];
            let mut p = 0;
            while p + MULAD_UNROLL <= k {
                let mul = [arow[p], arow[p + 1], arow[p + 2], arow[p + 3]];
                let r0 = &b.data[p * n..(p + 1) * n];
                let r1 = &b.data[(p + 1) * n..(p + 2) * n];
                let r2 = &b.data[(p + 2) * n..(p + 3) * n];
                let r3 = &b.data[(p + 3) * n..(p + 4) * n];
                fused_madd4(orow, mul, r0, r1, r2, r3);
                p += MULAD_UNROLL;
            }
            while p < k {
                let a = arow[p];
                if a != 0.0 {
                    let brow = &b.data[p * n..(p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += a * bv;
                    }
                }
                p += 1;
            }
        };
        if m * k * n >= Self::PAR_THRESHOLD {
            // Fixed row-block decomposition (at most PAR_BLOCKS blocks),
            // independent of the pool width.
            let rows_per = m.div_ceil(PAR_BLOCKS).max(1);
            par::par_chunks_mut(&mut out, rows_per * n, |c, piece| {
                for (r, orow) in piece.chunks_mut(n).enumerate() {
                    body(c * rows_per + r, orow);
                }
            });
        } else {
            out.chunks_mut(n)
                .enumerate()
                .for_each(|(i, orow)| body(i, orow));
        }
        Ok(DMat {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Transpose.
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DMat {
        DMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scales every row `i` by `s[i]` (i.e. computes `diag(s) * A`).
    pub fn scale_rows(&self, s: &[f64]) -> DMat {
        assert_eq!(s.len(), self.rows, "scale_rows: wrong scale length");
        let mut out = self.clone();
        for (i, &si) in s.iter().enumerate() {
            for v in out.row_mut(i) {
                *v *= si;
            }
        }
        out
    }

    /// `self += alpha * other`, elementwise. Panics on shape mismatch.
    pub fn axpy_mat(&mut self, alpha: f64, other: &DMat) {
        assert_eq!(self.shape(), other.shape(), "axpy_mat: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute row sum (the induced infinity norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute column sum (the induced 1-norm).
    pub fn norm_1(&self) -> f64 {
        let mut sums = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, &v) in self.row(i).iter().enumerate() {
                sums[j] += v.abs();
            }
        }
        sums.into_iter().fold(0.0, f64::max)
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Writes `block` into `self` with its top-left corner at `(r0, c0)`.
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &DMat) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for i in 0..block.rows {
            let dst = &mut self.row_mut(r0 + i)[c0..c0 + block.cols];
            dst.copy_from_slice(block.row(i));
        }
    }

    /// Extracts the `nr x nc` block with top-left corner at `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> DMat {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols);
        DMat::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Outer product `x yᵀ`.
    pub fn outer(x: &DVec, y: &DVec) -> DMat {
        DMat::from_fn(x.len(), y.len(), |i, j| x[i] * y[j])
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&DMat> for &DMat {
    type Output = DMat;
    fn add(self, rhs: &DMat) -> DMat {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let mut out = self.clone();
        out.axpy_mat(1.0, rhs);
        out
    }
}

impl Sub<&DMat> for &DMat {
    type Output = DMat;
    fn sub(self, rhs: &DMat) -> DMat {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let mut out = self.clone();
        out.axpy_mat(-1.0, rhs);
        out
    }
}

impl Mul<f64> for &DMat {
    type Output = DMat;
    fn mul(self, rhs: f64) -> DMat {
        self.map(|x| x * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn construction_and_indexing() {
        let m = DMat::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.col(1).as_slice(), &[1.0, 4.0]);
        let id = DMat::eye(3);
        assert_eq!(id[(0, 0)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
        let d = DMat::from_diag(&[2.0, 3.0]);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn matvec_known_result() {
        let a = DMat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let y = a.matvec(&DVec(vec![1.0, 1.0])).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
        let yt = a.matvec_t(&DVec(vec![1.0, 1.0])).unwrap();
        assert_eq!(yt.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn matvec_shape_error() {
        let a = DMat::zeros(2, 3);
        assert!(a.matvec(&DVec::zeros(2)).is_err());
        assert!(a.matvec_t(&DVec::zeros(3)).is_err());
        assert!(a.matmul(&DMat::zeros(2, 2)).is_err());
    }

    #[test]
    fn matmul_known_result() {
        let a = DMat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DMat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DMat::from_fn(4, 4, |i, j| (i + 2 * j) as f64);
        let c = a.matmul(&DMat::eye(4)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn large_matmul_matches_small_path() {
        // Force the parallel path and compare against the naive triple loop.
        let n = 70; // 70^3 > PAR_THRESHOLD
        let a = DMat::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
        let b = DMat::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 7) as f64 - 3.0);
        let c = a.matmul(&b).unwrap();
        for i in (0..n).step_by(17) {
            for j in (0..n).step_by(13) {
                let mut s = 0.0;
                for p in 0..n {
                    s += a[(i, p)] * b[(p, j)];
                }
                assert!(approx(c[(i, j)], s, 1e-12));
            }
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        // Shapes straddling MULAD_UNROLL: ragged k (fused + scalar tail),
        // exact multiples, and a size crossing the parallel threshold.
        for (m, k, n) in [
            (1, 1, 1),
            (5, 7, 6),
            (33, 48, 50),
            (40, 41, 42),
            (70, 70, 70),
        ] {
            let a = DMat::from_fn(m, k, |i, j| ((i * 7 + j * 13) % 11) as f64 * 0.3 - 1.5);
            let b = DMat::from_fn(k, n, |i, j| ((i * 3 + j * 5) % 7) as f64 * 0.7 - 2.1);
            let c = a.matmul(&b).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0;
                    for p in 0..k {
                        s += a[(i, p)] * b[(p, j)];
                    }
                    let rel = (c[(i, j)] - s).abs() / s.abs().max(1.0);
                    assert!(rel <= 1e-13, "({m},{k},{n}) at ({i},{j}): rel {rel}");
                }
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = DMat::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn norms() {
        let a = DMat::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        assert!(approx(a.norm_fro(), 5.0, 1e-15));
        assert!(approx(a.norm_inf(), 4.0, 1e-15));
        assert!(approx(a.norm_1(), 4.0, 1e-15));
    }

    #[test]
    fn blocks_and_outer() {
        let mut m = DMat::zeros(3, 3);
        m.set_block(1, 1, &DMat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 4.0);
        let b = m.block(1, 1, 2, 2);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let o = DMat::outer(&DVec(vec![1.0, 2.0]), &DVec(vec![3.0, 4.0]));
        assert_eq!(o.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn scale_rows_matches_diag_product() {
        let a = DMat::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        let s = [2.0, 0.5, -1.0];
        let scaled = a.scale_rows(&s);
        let viadiag = DMat::from_diag(&s).matmul(&a).unwrap();
        assert_eq!(scaled, viadiag);
    }

    #[test]
    fn add_sub_scalar_mul() {
        let a = DMat::eye(2);
        let b = DMat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!((&a + &b).as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!((&a - &b).as_slice(), &[1.0, -1.0, -1.0, 1.0]);
        assert_eq!((&a * 2.0)[(0, 0)], 2.0);
    }

    #[test]
    fn parallel_matmul_is_deterministic_across_thread_counts() {
        // Pool parallelism here is pure row partitioning: results must be
        // bit-identical regardless of the pool size. serial_scope forces
        // the shared pool through its inline path — no per-call pool
        // construction (the old per-test rayon ThreadPoolBuilder).
        let n = 90; // above PAR_THRESHOLD
        let a = DMat::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.37 - 3.0);
        let b = DMat::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 19) as f64 * 0.21 - 1.5);
        let par = a.matmul(&b).unwrap();
        let seq = par::serial_scope(|| a.matmul(&b).unwrap());
        assert_eq!(par, seq, "thread count changed the result bits");
    }

    /// Seeded property tests: each draws its inputs from one fixed
    /// `Rng64` stream, so every `cargo test` runs the same cases.
    mod prop {
        use super::*;
        use meshfree_runtime::Rng64;

        #[test]
        fn prop_matvec_linearity() {
            let mut rng = Rng64::seed_from_u64(0x21);
            for case in 0..64 {
                let seed = rng.gen_range_usize(0..1000) as u64;
                let n = 5 + (seed % 7) as usize;
                let a = DMat::from_fn(n, n, |i, j| {
                    ((seed as usize + i * 31 + j * 17) % 13) as f64 - 6.0
                });
                let x = DVec::from_fn(n, |i| (i as f64 - 2.0) * 0.5);
                let y = DVec::from_fn(n, |i| ((i * 3) % 5) as f64);
                let lhs = a.matvec(&(&x + &y)).unwrap();
                let rhs = &a.matvec(&x).unwrap() + &a.matvec(&y).unwrap();
                for i in 0..n {
                    assert!(
                        (lhs[i] - rhs[i]).abs() < 1e-9,
                        "case {case}: seed = {seed}: row {i}"
                    );
                }
            }
        }

        #[test]
        fn prop_transpose_matvec_adjoint() {
            let mut rng = Rng64::seed_from_u64(0x22);
            for case in 0..64 {
                let seed = rng.gen_range_usize(0..1000) as u64;
                // <Ax, y> == <x, A^T y>
                let m = 3 + (seed % 5) as usize;
                let n = 2 + (seed % 7) as usize;
                let a = DMat::from_fn(m, n, |i, j| {
                    ((seed as usize + i * 7 + j * 11) % 9) as f64 - 4.0
                });
                let x = DVec::from_fn(n, |i| i as f64 * 0.3 - 1.0);
                let y = DVec::from_fn(m, |i| 1.0 - i as f64 * 0.2);
                let lhs = a.matvec(&x).unwrap().dot(&y);
                let rhs = x.dot(&a.matvec_t(&y).unwrap());
                assert!(
                    (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
                    "case {case}: seed = {seed}"
                );
            }
        }

        #[test]
        fn prop_matmul_associative_with_vector() {
            let mut rng = Rng64::seed_from_u64(0x23);
            for case in 0..64 {
                let seed = rng.gen_range_usize(0..500) as u64;
                // (AB)x == A(Bx)
                let n = 3 + (seed % 6) as usize;
                let a = DMat::from_fn(n, n, |i, j| ((seed as usize + i + 2 * j) % 7) as f64 - 3.0);
                let b = DMat::from_fn(n, n, |i, j| ((seed as usize + 3 * i + j) % 5) as f64 - 2.0);
                let x = DVec::from_fn(n, |i| (i as f64).sin());
                let lhs = a.matmul(&b).unwrap().matvec(&x).unwrap();
                let rhs = a.matvec(&b.matvec(&x).unwrap()).unwrap();
                for i in 0..n {
                    assert!(
                        (lhs[i] - rhs[i]).abs() < 1e-9,
                        "case {case}: seed = {seed}: row {i}"
                    );
                }
            }
        }
    }
}
