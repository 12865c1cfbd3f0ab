//! Quadrature along boundary segments.
//!
//! The cost functionals in the paper are line integrals over a boundary
//! (e.g. `J = ∫₀¹ |∂u/∂y(x,1) − cos πx|² dx`); with scattered boundary nodes
//! they are discretised by the trapezoid rule on the (sorted) node
//! parameters.

/// Trapezoid weights for nodes at (sorted, strictly increasing) parameters
/// `t` along a segment. `Σ wᵢ f(tᵢ) ≈ ∫ f dt`.
pub fn trapezoid_weights(t: &[f64]) -> Vec<f64> {
    let n = t.len();
    match n {
        0 => Vec::new(),
        1 => vec![0.0],
        _ => {
            for w in t.windows(2) {
                assert!(w[1] > w[0], "trapezoid_weights: parameters must increase");
            }
            let mut w = vec![0.0; n];
            w[0] = (t[1] - t[0]) / 2.0;
            w[n - 1] = (t[n - 1] - t[n - 2]) / 2.0;
            for i in 1..n - 1 {
                w[i] = (t[i + 1] - t[i - 1]) / 2.0;
            }
            w
        }
    }
}

/// Trapezoid integral of samples `f` at parameters `t`.
pub fn trapezoid_integral(t: &[f64], f: &[f64]) -> f64 {
    assert_eq!(t.len(), f.len(), "trapezoid_integral: length mismatch");
    trapezoid_weights(t).iter().zip(f).map(|(w, v)| w * v).sum()
}

/// Sorts `indices` by the parameter `param(i)` (ascending) and returns the
/// sorted indices together with their parameters. Used to order boundary
/// nodes along a wall before quadrature.
pub fn sort_along(indices: &[usize], param: impl Fn(usize) -> f64) -> (Vec<usize>, Vec<f64>) {
    let mut pairs: Vec<(usize, f64)> = indices.iter().map(|&i| (i, param(i))).collect();
    pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let idx = pairs.iter().map(|p| p.0).collect();
    let t = pairs.iter().map(|p| p.1).collect();
    (idx, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_interval_length() {
        let t = [0.0, 0.1, 0.35, 0.7, 1.0];
        let w = trapezoid_weights(&t);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn exact_for_linear_functions() {
        let t = [0.0, 0.2, 0.5, 0.9, 1.3];
        let f: Vec<f64> = t.iter().map(|x| 3.0 * x + 1.0).collect();
        let exact = 1.5 * 1.3 * 1.3 + 1.3;
        assert!((trapezoid_integral(&t, &f) - exact).abs() < 1e-13);
    }

    #[test]
    fn converges_for_smooth_functions() {
        // ∫₀^1 sin(πx) dx = 2/π; error should drop ~4x when h halves.
        let int_with = |n: usize| {
            let t: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
            let f: Vec<f64> = t.iter().map(|x| (std::f64::consts::PI * x).sin()).collect();
            trapezoid_integral(&t, &f)
        };
        let exact = 2.0 / std::f64::consts::PI;
        let e1 = (int_with(17) - exact).abs();
        let e2 = (int_with(33) - exact).abs();
        assert!(e2 < e1 / 3.0, "errors {e1} -> {e2} (expected ~4x drop)");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(trapezoid_weights(&[]).is_empty());
        assert_eq!(trapezoid_weights(&[0.5]), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn unsorted_parameters_panic() {
        trapezoid_weights(&[0.0, 0.5, 0.3]);
    }

    #[test]
    fn sort_along_orders_by_parameter() {
        let idx = [10, 11, 12];
        let coords = [0.9, 0.1, 0.5];
        let (sorted, t) = sort_along(&idx, |i| coords[i - 10]);
        assert_eq!(sorted, vec![11, 12, 10]);
        assert_eq!(t, vec![0.1, 0.5, 0.9]);
    }

    /// Seeded property tests: each draws its inputs from one fixed
    /// `Rng64` stream, so every `cargo test` runs the same cases.
    mod prop {
        use super::*;
        use meshfree_runtime::Rng64;

        #[test]
        fn prop_weights_nonnegative_and_sum() {
            let mut rng = Rng64::seed_from_u64(0x91);
            for case in 0..64 {
                let n = rng.gen_range_usize(2..20);
                let seed = rng.gen_range_usize(0..1000) as u64;
                let mut t: Vec<f64> = (0..n)
                    .map(|i| ((seed as usize + i * 37) % 100) as f64 / 100.0 + i as f64)
                    .collect();
                t.sort_by(f64::total_cmp);
                t.dedup();
                if t.len() >= 2 {
                    let w = trapezoid_weights(&t);
                    for &wi in &w {
                        assert!(wi >= 0.0, "case {case}: n = {n}, seed = {seed}");
                    }
                    let total: f64 = w.iter().sum();
                    let span = t[t.len() - 1] - t[0];
                    assert!(
                        (total - span).abs() < 1e-10,
                        "case {case}: n = {n}, seed = {seed}"
                    );
                }
            }
        }
    }
}
