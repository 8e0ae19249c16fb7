//! Linear solvers for the fundamental-matrix equation `(I − Q) x = b`:
//! dense Gaussian elimination with partial pivoting for small systems, and
//! a residual-stopped BiCGSTAB (van der Vorst's stabilized bi-conjugate
//! gradient method) for large ones.
//!
//! The sparse solver is generic over the engine's row-access trait
//! [`RowStore`], so it runs unchanged over every tier of the one tier
//! stack `Q` lives on: the flat [`QMatrix`](crate::QMatrix), the
//! compressed stream and the disk spill. Callers dispatch the tier once
//! per solve, so every matrix-vector product runs monomorphically over
//! the concrete row cursor. Each iteration costs two
//! products; on the compressed tier each product re-decodes the byte
//! stream (and, on the disk tier, re-faults chunks through the cache),
//! paying time for the memory reduction that lets 10⁸-entry chains fit.

use stab_core::engine::{Budget, RowStore};

use crate::error::MarkovError;
use crate::qstore::QEntry;

/// Solves the dense system `A x = b` by Gaussian elimination with partial
/// pivoting, consuming the inputs.
///
/// # Errors
///
/// [`MarkovError::Singular`] on a vanishing pivot.
// Indexed loops: the elimination reads row `col` while writing row `row`,
// which iterator adapters cannot express without `split_at_mut` noise.
#[allow(clippy::needless_range_loop)]
pub fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, MarkovError> {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    assert_eq!(b.len(), n, "dimension mismatch");
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-300 {
            return Err(MarkovError::Singular);
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let inv = 1.0 / a[col][col];
        for row in col + 1..n {
            let factor = a[row][col] * inv;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// An iterative solve's answer together with its a-posteriori residual.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The approximate solution of `(I − Q) x = b`.
    pub x: Vec<f64>,
    /// `‖b − (I − Q) x‖∞` of the returned `x`, measured by one explicit
    /// pass over the rows (not the recurrence's running estimate).
    pub residual_inf: f64,
}

/// Rounding floor of the stopping test, in units of `‖x‖∞`: an explicit
/// residual below `ROUNDING_FLOOR · ‖x‖∞` is indistinguishable from the
/// rounding error of evaluating it, so the stopping threshold never asks
/// for less. With `tol = 1e-12` and `‖b‖∞ = 1` the tolerance binds while
/// `‖x‖∞ < 70` (Herman N=15 reads 33).
const ROUNDING_FLOOR: f64 = 64.0 * f64::EPSILON;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// `y ← (I − Q) v`: one pass over the rows.
fn apply<M: RowStore<Item = QEntry>>(q: &M, v: &[f64], y: &mut [f64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        let qv: f64 = q.row_iter(i).map(|(j, p)| p * v[j as usize]).sum();
        *yi = v[i] - qv;
    }
}

/// `r ← b − (I − Q) x` by one explicit pass; returns the true residual
/// `‖r‖∞`. All three vectors have one entry per row of `q`.
pub(crate) fn residual_into<M: RowStore<Item = QEntry>>(
    q: &M,
    b: &[f64],
    x: &[f64],
    r: &mut [f64],
) -> f64 {
    apply(q, x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    inf_norm(r)
}

/// Solves `(I − Q) x = b` by BiCGSTAB, where row `i` of `q` holds the
/// sparse entries `(j, Q_ij)` of the substochastic matrix `Q`.
///
/// `I − Q` is nonsingular whenever every state eventually absorbs
/// (spectral radius of `Q` below 1). The iteration stops once the true
/// residual `‖b − (I − Q) x‖∞` is at most `tol · ‖b‖∞` (never below the
/// rounding floor of its own evaluation).
///
/// # Errors
///
/// [`MarkovError::SolverDiverged`] if the residual has not fallen below
/// the threshold within `max_iter` iterations, or if the iteration breaks
/// down with a non-finite step (a singular `I − Q`).
pub fn bicgstab<M: RowStore<Item = QEntry>>(
    q: &M,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<Solution, MarkovError> {
    bicgstab_budgeted(q, b, tol, max_iter, &Budget::unlimited())
}

/// [`bicgstab`] under a cooperative [`Budget`]: each iteration probes the
/// `solver` stage, so an exhausted wall-clock budget interrupts a slowly
/// converging iteration with a typed error instead of spinning to
/// `max_iter`.
///
/// The recurrence residual only nominates a stopping point: one explicit
/// pass confirms it before the solve returns, and the reported
/// [`Solution::residual_inf`] is that pass's figure. When the pass does
/// not confirm, or when the recurrence breaks down (a vanishing `ρ` or
/// `ω`), the iteration restarts from the true residual at the current
/// iterate. A zero right-hand side returns the zero vector before any
/// pass.
///
/// Each product walks the rows in ascending index order: rows were
/// appended to the store in that order, so on the disk tier consecutive
/// rows share a spill chunk and each product rotates every chunk through
/// the pinned cache exactly once. The per-iteration probe carries
/// [`RowStore::spill_resident_bytes`] — 0 on the in-RAM tiers, the disk
/// tier's offsets, probability table and chunk cache — so a byte budget
/// observes the cache, not the spilled stream.
///
/// # Errors
///
/// As [`bicgstab`], plus
/// [`MarkovError::Core`]`(`[`CoreError::BudgetExhausted`]`)` when a probe
/// trips.
///
/// # Panics
///
/// Panics if `b` does not have one entry per row.
///
/// [`CoreError::BudgetExhausted`]: stab_core::CoreError::BudgetExhausted
// Indexed loops: the vector updates read and write several same-length
// vectors in lockstep.
#[allow(clippy::needless_range_loop)]
pub fn bicgstab_budgeted<M: RowStore<Item = QEntry>>(
    q: &M,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    budget: &Budget,
) -> Result<Solution, MarkovError> {
    let n = q.n_rows();
    assert_eq!(b.len(), n, "dimension mismatch");
    let b_inf = inf_norm(b);
    let mut x = vec![0.0; n];
    if b_inf == 0.0 {
        return Ok(Solution {
            x,
            residual_inf: 0.0,
        });
    }
    let threshold = |x: &[f64]| (tol * b_inf).max(ROUNDING_FLOOR * inf_norm(x));
    // x₀ = 0, so the first residual is b itself; the shadow residual r̂ is
    // the residual the current cycle started from.
    let mut r = b.to_vec();
    let mut r_hat = r.clone();
    let mut p = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut t = vec![0.0; n];
    // (ρ_prev, α, ω) = 1 with p = v = 0 makes the first direction p = r.
    let (mut rho_prev, mut alpha, mut omega) = (1.0, 1.0, 1.0);
    let mut r_inf = b_inf;
    let mut restart = false;
    let diverged = |iterations: usize, residual: f64| MarkovError::SolverDiverged {
        iterations,
        residual,
    };
    for iter in 0..max_iter {
        budget.probe("solver", q.spill_resident_bytes(), iter as u64)?;
        let mut rho = dot(&r_hat, &r);
        // A vanishing ρ (r orthogonal to r̂), a stagnating ω or an
        // unconfirmed stop restarts the recurrence from the true residual
        // at the current iterate.
        if restart || rho.abs() <= f64::EPSILON * dot(&r_hat, &r_hat).sqrt() * dot(&r, &r).sqrt() {
            r_inf = residual_into(q, b, &x, &mut r);
            r_hat.copy_from_slice(&r);
            p.fill(0.0);
            v.fill(0.0);
            (rho_prev, alpha, omega) = (1.0, 1.0, 1.0);
            rho = dot(&r, &r);
        }
        let beta = (rho / rho_prev) * (alpha / omega);
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        apply(q, &p, &mut v);
        alpha = rho / dot(&r_hat, &v);
        if !alpha.is_finite() {
            return Err(diverged(iter + 1, r_inf));
        }
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
            x[i] += alpha * p[i];
        }
        let mut converged = inf_norm(&s) <= threshold(&x);
        if !converged {
            apply(q, &s, &mut t);
            omega = dot(&t, &s) / dot(&t, &t);
            if !omega.is_finite() {
                return Err(diverged(iter + 1, r_inf));
            }
            for i in 0..n {
                x[i] += omega * s[i];
                r[i] = s[i] - omega * t[i];
            }
            rho_prev = rho;
            r_inf = inf_norm(&r);
            converged = r_inf <= threshold(&x);
        }
        if converged {
            // The recurrence says done: confirm on the true residual.
            r_inf = residual_into(q, b, &x, &mut r);
            if r_inf <= threshold(&x) {
                return Ok(Solution {
                    x,
                    residual_inf: r_inf,
                });
            }
        }
        restart = converged || omega.abs() <= f64::EPSILON;
    }
    Err(diverged(max_iter, r_inf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qstore::QMatrix;

    #[test]
    fn dense_solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve_dense(a, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn dense_solves_2x2() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve_dense(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dense_needs_pivoting() {
        // Zero on the initial diagonal; pivoting must handle it.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve_dense(a, vec![7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn dense_detects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(
            solve_dense(a, vec![1.0, 2.0]).unwrap_err(),
            MarkovError::Singular
        );
    }

    #[test]
    fn bicgstab_geometric_chain() {
        // Single transient state with self-loop 1/2: (1 - 1/2) t = 1 -> t=2.
        let q = QMatrix::from_rows(vec![vec![(0u32, 0.5)]]);
        let sol = bicgstab(&q, &[1.0], 1e-12, 10_000).unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
    }

    /// A 4-state substochastic matrix with leakage.
    fn leaky_chain() -> QMatrix {
        QMatrix::from_rows(vec![
            vec![(1u32, 0.5), (2, 0.25)],
            vec![(0u32, 0.3), (3, 0.3)],
            vec![(2u32, 0.6), (0, 0.2)],
            vec![(1u32, 0.9)],
        ])
    }

    #[test]
    fn bicgstab_matches_dense_on_random_chain() {
        let q = leaky_chain();
        let b = vec![1.0; 4];
        let sol = bicgstab(&q, &b, 1e-13, 100_000).unwrap();
        // Dense version of (I - Q).
        let mut a = vec![vec![0.0; 4]; 4];
        for (i, row) in q.rows().enumerate() {
            a[i][i] += 1.0;
            for &(j, p) in row {
                a[i][j as usize] -= p;
            }
        }
        let dense = solve_dense(a, b).unwrap();
        for (i, (x, d)) in sol.x.iter().zip(&dense).enumerate() {
            assert!((x - d).abs() < 1e-8, "state {i}: {x} vs {d}");
        }
    }

    #[test]
    fn reported_residual_is_the_explicit_one() {
        let q = leaky_chain();
        let b = [1.0, 2.0, 0.5, 3.0];
        let sol = bicgstab(&q, &b, 1e-12, 100_000).unwrap();
        let explicit = residual_into(&q, &b, &sol.x, &mut [0.0; 4]);
        assert_eq!(sol.residual_inf, explicit);
        assert!(sol.residual_inf <= 1e-12 * 3.0);
    }

    #[test]
    fn zero_rhs_returns_before_any_pass() {
        let q = leaky_chain();
        let budget = Budget::unlimited();
        let sol = bicgstab_budgeted(&q, &[0.0; 4], 1e-12, 100_000, &budget).unwrap();
        assert_eq!(sol.x, vec![0.0; 4]);
        assert_eq!(sol.residual_inf, 0.0);
        assert_eq!(budget.probes_seen(), 0, "no pass, hence no probe");
    }

    #[test]
    fn bicgstab_budget_trips_as_typed_core_error() {
        let q = QMatrix::from_rows(vec![vec![(0u32, 0.5)]]);
        let expired = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        let err = bicgstab_budgeted(&q, &[1.0], 1e-12, 10_000, &expired).unwrap_err();
        assert!(matches!(
            err,
            MarkovError::Core(stab_core::CoreError::BudgetExhausted {
                stage: "solver",
                ..
            })
        ));
    }

    #[test]
    fn bicgstab_reports_divergence() {
        // Stochastic row with no leakage anywhere: no absorption, I − Q is
        // singular and the iteration cannot settle.
        let q = QMatrix::from_rows(vec![vec![(0u32, 1.0)]]);
        let err = bicgstab(&q, &[1.0], 1e-12, 50).unwrap_err();
        assert!(matches!(err, MarkovError::SolverDiverged { .. }));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = bicgstab(&QMatrix::from_rows(vec![vec![]]), &[1.0, 2.0], 1e-9, 10);
    }
}
