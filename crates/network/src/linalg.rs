//! Small dense linear algebra.
//!
//! A plain LU with partial pivoting, no external BLAS. The hydraulic
//! Newton solver does not factor its whole Jacobian with it: that matrix
//! is a diagonal block of branch derivatives bordered by ±1 links to the
//! junction pressures, and eliminating the border first leaves only the
//! (nodes − 1)² pressure block for `lu_solve_in_place` (see
//! `hydraulic`). The dense [`Matrix::solve`] stays as that solver's
//! reference and as its path for Jacobians the bordered elimination
//! would not reproduce exactly.

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Solve `A·x = b` via LU with partial pivoting; consumes the matrix
    /// (it is overwritten by the factors). Returns `None` when the matrix
    /// is numerically singular.
    pub fn solve(mut self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(b.len(), self.rows);
        let mut x = b.to_vec();
        lu_solve_in_place(&mut self.data, self.rows, &mut x).then_some(x)
    }
}

/// Solve `A·x = b` for the row-major `n × n` matrix `a` by LU with partial
/// pivoting. `a` is overwritten by its factors and `x` holds `b` on entry
/// and the solution on exit. Returns `false` when a pivot falls below
/// 1e-14 (numerically singular); `x` is then unspecified.
pub(crate) fn lu_solve_in_place(a: &mut [f64], n: usize, x: &mut [f64]) -> bool {
    debug_assert!(a.len() == n * n && x.len() == n);
    for k in 0..n {
        // Partial pivot: largest magnitude in column k at/below row k.
        let mut pivot_row = k;
        let mut pivot_val = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val < 1e-14 {
            return false;
        }
        if pivot_row != k {
            for j in 0..n {
                a.swap(k * n + j, pivot_row * n + j);
            }
            x.swap(k, pivot_row);
        }
        // Eliminate below.
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let factor = a[i * n + k] / pivot;
            if factor == 0.0 {
                continue;
            }
            a[i * n + k] = 0.0;
            for j in (k + 1)..n {
                a[i * n + j] -= factor * a[k * n + j];
            }
            x[i] -= factor * x[k];
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        let mut sum = x[k];
        for j in (k + 1)..n {
            sum -= a[k * n + j] * x[j];
        }
        x[k] = sum / a[k * n + k];
    }
    true
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The matrix with the given rows.
    fn from_rows(rows: &[&[f64]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    #[test]
    fn solve_identity() {
        let b = vec![1.0, 2.0, 3.0];
        let identity = from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let x = identity.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_hand_worked_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let a = from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the initial diagonal: fails without partial pivoting.
        let a = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    proptest! {
        /// A·x recovered by solve(A, A·x) for diagonally dominant A.
        #[test]
        fn prop_solve_round_trip(seed in 0u64..1000) {
            let mut rng = exadigit_sim::Rng::new(seed);
            let n = 2 + (seed % 9) as usize;
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                let mut off_diag_sum = 0.0;
                for j in 0..n {
                    if i != j {
                        let v = rng.uniform_range(-1.0, 1.0);
                        a[(i, j)] = v;
                        off_diag_sum += v.abs();
                    }
                }
                // Diagonal dominance guarantees a well-conditioned solve.
                a[(i, i)] = off_diag_sum + 1.0 + rng.uniform();
            }
            let x_true: Vec<f64> = (0..n).map(|_| rng.uniform_range(-10.0, 10.0)).collect();
            let b: Vec<f64> = (0..n)
                .map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum())
                .collect();
            let x = a.solve(&b).expect("diagonally dominant must solve");
            for (xi, ti) in x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-8, "xi={} ti={}", xi, ti);
            }
        }
    }
}
