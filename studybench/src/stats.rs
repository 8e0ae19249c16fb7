//! Order statistics and the solver residual the benchmark reports.

use weak_stabilization::markov::QStorage;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `None` on an empty slice. `q = 0.5` is the
/// median.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// `‖(I − Q) t − 1‖∞`: how far the expected times `t` are from solving
/// the hitting-time system exactly, computed row by row off the chain's
/// own `Q` store (whatever its tier).
///
/// # Panics
///
/// Panics if `t` does not have one entry per row of `q`.
pub fn residual_inf(q: &QStorage, t: &[f64]) -> f64 {
    assert_eq!(t.len(), q.n_rows(), "one expected time per transient row");
    (0..q.n_rows())
        .map(|i| {
            let qt: f64 = q.row_iter(i).map(|(j, p)| p * t[j as usize]).sum();
            (t[i] - qt - 1.0).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use weak_stabilization::core::engine::EdgeStoreKind;
    use weak_stabilization::markov::qstore::QStorageBuilder;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(quantile(&v, 0.9), Some(46.0));
        // Out-of-range levels clamp instead of indexing past the ends.
        assert_eq!(quantile(&v, 1.5), Some(50.0));
    }

    /// Two transient states: 0 → {0: ½, 1: ¼} (¼ absorbs), 1 → {0: ½}
    /// (½ absorbs).
    fn tiny_chain() -> QStorage {
        let mut b = QStorageBuilder::new(EdgeStoreKind::Flat);
        b.push_row(&[(0, 0.5), (1, 0.25)]);
        b.push_row(&[(0, 0.5)]);
        b.finish()
    }

    #[test]
    fn residual_vanishes_on_the_exact_solution() {
        // t0 = 1 + t0/2 + t1/4, t1 = 1 + t0/2  ⇒  t0 = 10/3, t1 = 8/3.
        let q = tiny_chain();
        let exact = [10.0 / 3.0, 8.0 / 3.0];
        assert!(residual_inf(&q, &exact) < 1e-15);
    }

    #[test]
    fn residual_measures_the_worst_row() {
        let q = tiny_chain();
        // t = (3, 3): row 0 gives 3 − 1.5 − 0.75 − 1 = −0.25,
        // row 1 gives 3 − 1.5 − 1 = 0.5 ⇒ ‖·‖∞ = 0.5.
        assert!((residual_inf(&q, &[3.0, 3.0]) - 0.5).abs() < 1e-15);
    }
}
