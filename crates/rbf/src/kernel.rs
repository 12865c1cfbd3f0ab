//! Radial basis functions and their radial derivatives.
//!
//! Every kernel is a univariate function `φ(r)` of the Euclidean distance.
//! The Cartesian differential operators the PDE layer needs reduce to two
//! radial quantities:
//!
//! * `φ'(r)/r` — gradient: `∂φ/∂x = (x − x_j) · φ'(r)/r`;
//! * `φ''(r)` — 2-D Laplacian: `∇²φ = φ''(r) + φ'(r)/r`.
//!
//! Both are obtained automatically from the generic definition via
//! second-order forward-mode AD ([`Dual2`]); the well-known closed forms are
//! kept alongside purely as test oracles. At `r = 0` the smooth-kernel limit
//! `lim_{r→0} φ'(r)/r = φ''(0)` is used.

use autodiff::{derivative2, Dual2, Scalar};

/// The radial basis functions used in the paper's discussion (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RbfKernel {
    /// Polyharmonic spline `r³` — the paper's choice ("to avoid tuning
    /// [a shape] parameter, we opted for the polyharmonic cubic spline").
    Phs3,
    /// Polyharmonic spline `r⁵`.
    Phs5,
    /// Gaussian `exp(−(εr)²)` with shape parameter `ε`.
    Gaussian(f64),
    /// Multiquadric `√(1 + (εr)²)` with shape parameter `ε`.
    Multiquadric(f64),
    /// Inverse multiquadric `1/√(1 + (εr)²)`.
    InverseMultiquadric(f64),
    /// Thin-plate spline `r² ln r` (0 at the origin by continuity).
    ThinPlate,
    /// Wendland C² compactly-supported kernel
    /// `(1 − r/ρ)⁴₊ (4r/ρ + 1)` with support radius `ρ` — gives *sparse*
    /// collocation matrices even in the global formulation.
    WendlandC2(f64),
}

impl RbfKernel {
    /// Evaluates `φ(r)` generically over any [`Scalar`].
    ///
    /// This is the *single* definition of each kernel; derivatives come from
    /// instantiating it with dual numbers.
    pub fn phi<S: Scalar>(&self, r: S) -> S {
        match *self {
            RbfKernel::Phs3 => r.powi(3),
            RbfKernel::Phs5 => r.powi(5),
            RbfKernel::Gaussian(eps) => {
                let er = r * S::from_f64(eps);
                (-(er * er)).exp()
            }
            RbfKernel::Multiquadric(eps) => {
                let er = r * S::from_f64(eps);
                (S::from_f64(1.0) + er * er).sqrt()
            }
            RbfKernel::InverseMultiquadric(eps) => {
                let er = r * S::from_f64(eps);
                S::from_f64(1.0) / (S::from_f64(1.0) + er * er).sqrt()
            }
            RbfKernel::ThinPlate => {
                if r.value() <= 0.0 {
                    S::from_f64(0.0)
                } else {
                    r * r * r.ln()
                }
            }
            RbfKernel::WendlandC2(rho) => {
                if r.value() >= rho {
                    S::from_f64(0.0)
                } else {
                    let t = r * S::from_f64(1.0 / rho);
                    let one = S::from_f64(1.0);
                    let m = one - t;
                    m * m * m * m * (t * S::from_f64(4.0) + one)
                }
            }
        }
    }

    /// `φ(r)` at a plain floating point radius.
    pub fn eval(&self, r: f64) -> f64 {
        self.phi(r)
    }

    /// `(φ, φ', φ'')` at `r`, by forward-mode AD.
    pub fn eval2(&self, r: f64) -> (f64, f64, f64) {
        derivative2(|d: Dual2| self.phi(d), r)
    }

    /// `φ'(r)/r`, with the smooth limit `φ''(0)` at the origin.
    ///
    /// For the polyharmonic splines the limit is 0, consistent with the
    /// closed forms (`φ'(r)/r = 3r` for PHS3).
    pub fn d1_over_r(&self, r: f64) -> f64 {
        const R_TINY: f64 = 1e-12;
        if r > R_TINY {
            let (_, d1, _) = self.eval2(r);
            d1 / r
        } else {
            match *self {
                // Polyharmonic splines & TPS: derivative-over-r vanishes.
                RbfKernel::Phs3 | RbfKernel::Phs5 | RbfKernel::ThinPlate => 0.0,
                _ => {
                    let (_, _, d2) = self.eval2(0.0);
                    d2
                }
            }
        }
    }

    /// Support radius beyond which the kernel is identically zero, if any.
    pub fn support_radius(&self) -> Option<f64> {
        match *self {
            RbfKernel::WendlandC2(rho) => Some(rho),
            _ => None,
        }
    }

    /// 2-D Laplacian `∇²φ = φ'' + φ'/r` at radius `r`.
    pub fn laplacian2d(&self, r: f64) -> f64 {
        const R_TINY: f64 = 1e-12;
        if r > R_TINY {
            let (_, d1, d2) = self.eval2(r);
            d2 + d1 / r
        } else {
            match *self {
                RbfKernel::Phs3 | RbfKernel::Phs5 | RbfKernel::ThinPlate => 0.0,
                _ => {
                    let (_, _, d2) = self.eval2(0.0);
                    2.0 * d2
                }
            }
        }
    }

    /// Closed-form `(φ, φ', φ'')`, kept as a test oracle for the AD path.
    pub fn closed_form2(&self, r: f64) -> (f64, f64, f64) {
        match *self {
            RbfKernel::Phs3 => (r.powi(3), 3.0 * r * r, 6.0 * r),
            RbfKernel::Phs5 => (r.powi(5), 5.0 * r.powi(4), 20.0 * r.powi(3)),
            RbfKernel::Gaussian(eps) => {
                let e2 = eps * eps;
                let g = (-e2 * r * r).exp();
                (g, -2.0 * e2 * r * g, (4.0 * e2 * e2 * r * r - 2.0 * e2) * g)
            }
            RbfKernel::Multiquadric(eps) => {
                let e2 = eps * eps;
                let q = (1.0 + e2 * r * r).sqrt();
                (q, e2 * r / q, e2 / q - e2 * e2 * r * r / (q * q * q))
            }
            RbfKernel::InverseMultiquadric(eps) => {
                let e2 = eps * eps;
                let s = 1.0 + e2 * r * r;
                let q = s.sqrt();
                (
                    1.0 / q,
                    -e2 * r / (q * s),
                    -e2 / (q * s) + 3.0 * e2 * e2 * r * r / (q * s * s),
                )
            }
            RbfKernel::ThinPlate => {
                if r <= 0.0 {
                    (0.0, 0.0, 0.0)
                } else {
                    let l = r.ln();
                    (r * r * l, r * (2.0 * l + 1.0), 2.0 * l + 3.0)
                }
            }
            RbfKernel::WendlandC2(rho) => {
                if r >= rho {
                    (0.0, 0.0, 0.0)
                } else {
                    let t = r / rho;
                    let m = 1.0 - t;
                    // φ = (1−t)⁴(4t+1); φ' = −20 t (1−t)³ / ρ;
                    // φ'' = −20 (1−t)² (1−4t) / ρ².
                    (
                        m.powi(4) * (4.0 * t + 1.0),
                        -20.0 * t * m.powi(3) / rho,
                        -20.0 * m * m * (1.0 - 4.0 * t) / (rho * rho),
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [RbfKernel; 7] = [
        RbfKernel::Phs3,
        RbfKernel::Phs5,
        RbfKernel::Gaussian(1.3),
        RbfKernel::Multiquadric(0.8),
        RbfKernel::InverseMultiquadric(1.1),
        RbfKernel::ThinPlate,
        RbfKernel::WendlandC2(3.0),
    ];

    #[test]
    fn ad_matches_closed_forms() {
        for k in ALL {
            for &r in &[0.05, 0.3, 1.0, 2.7] {
                let (v, d1, d2) = k.eval2(r);
                let (cv, cd1, cd2) = k.closed_form2(r);
                assert!(
                    (v - cv).abs() < 1e-12 * (1.0 + cv.abs()),
                    "{k:?} value at {r}"
                );
                assert!(
                    (d1 - cd1).abs() < 1e-11 * (1.0 + cd1.abs()),
                    "{k:?} d1 at {r}: ad={d1} cf={cd1}"
                );
                assert!(
                    (d2 - cd2).abs() < 1e-10 * (1.0 + cd2.abs()),
                    "{k:?} d2 at {r}: ad={d2} cf={cd2}"
                );
            }
        }
    }

    #[test]
    fn phs3_values() {
        let k = RbfKernel::Phs3;
        assert_eq!(k.eval(2.0), 8.0);
        assert_eq!(k.eval(0.0), 0.0);
        assert!((k.d1_over_r(2.0) - 6.0).abs() < 1e-12); // 3r
        assert!((k.laplacian2d(2.0) - 18.0).abs() < 1e-12); // 6r + 3r
    }

    #[test]
    fn origin_limits_are_finite() {
        for k in ALL {
            let d = k.d1_over_r(0.0);
            let l = k.laplacian2d(0.0);
            assert!(d.is_finite(), "{k:?} d1_over_r(0) = {d}");
            assert!(l.is_finite(), "{k:?} laplacian2d(0) = {l}");
        }
        // Gaussian limit: φ'(r)/r → -2ε².
        let eps = 1.3;
        let g = RbfKernel::Gaussian(eps);
        assert!((g.d1_over_r(0.0) + 2.0 * eps * eps).abs() < 1e-10);
        assert!((g.laplacian2d(0.0) + 4.0 * eps * eps).abs() < 1e-10);
    }

    #[test]
    fn d1_over_r_continuous_near_origin() {
        // Thin-plate is excluded: φ'(r)/r = 2 ln r + 1 genuinely diverges
        // (logarithmically) at the origin — the reason TPS collocation
        // matrices zero that entry via φ(0) = 0 instead.
        for k in ALL {
            if k == RbfKernel::ThinPlate {
                continue;
            }
            let a = k.d1_over_r(1e-6);
            let b = k.d1_over_r(2e-6);
            assert!((a - b).abs() < 1e-4, "{k:?}: {a} vs {b}");
        }
    }

    #[test]
    fn wendland_compact_support_and_smoothness() {
        let k = RbfKernel::WendlandC2(2.0);
        assert_eq!(k.support_radius(), Some(2.0));
        assert_eq!(k.eval(2.0), 0.0);
        assert_eq!(k.eval(5.0), 0.0);
        assert_eq!(k.eval(0.0), 1.0);
        // C² at the support edge: value and first derivative vanish there.
        let (v, d1, _) = k.eval2(2.0 - 1e-9);
        assert!(v.abs() < 1e-8);
        assert!(d1.abs() < 1e-8);
        // Positive definiteness proxy: positive and decreasing inside.
        assert!(k.eval(0.5) > k.eval(1.0));
        assert!(k.eval(1.0) > 0.0);
    }

    #[test]
    fn thin_plate_zero_at_origin() {
        let k = RbfKernel::ThinPlate;
        assert_eq!(k.eval(0.0), 0.0);
        assert!(k.eval(1e-8).abs() < 1e-12);
    }

    #[test]
    fn gaussian_decays_multiquadric_grows() {
        let g = RbfKernel::Gaussian(1.0);
        assert!(g.eval(3.0) < g.eval(1.0));
        let m = RbfKernel::Multiquadric(1.0);
        assert!(m.eval(3.0) > m.eval(1.0));
        let im = RbfKernel::InverseMultiquadric(1.0);
        assert!(im.eval(3.0) < im.eval(1.0));
    }

    /// Seeded property tests: each draws its inputs from one fixed
    /// `Rng64` stream, so every `cargo test` runs the same cases.
    mod prop {
        use super::*;
        use meshfree_runtime::Rng64;

        #[test]
        fn prop_ad_and_closed_forms_agree() {
            let mut rng = Rng64::seed_from_u64(0xA1);
            for case in 0..64 {
                let r = rng.gen_range(0.01..4.0);
                let eps = rng.gen_range(0.3..2.0);
                for k in [
                    RbfKernel::Phs3,
                    RbfKernel::Gaussian(eps),
                    RbfKernel::Multiquadric(eps),
                    RbfKernel::InverseMultiquadric(eps),
                    RbfKernel::ThinPlate,
                ] {
                    let (v, d1, d2) = k.eval2(r);
                    let (cv, cd1, cd2) = k.closed_form2(r);
                    let inputs = format!("case {case}: r = {r:?}, eps = {eps:?}, kernel {k:?}");
                    assert!((v - cv).abs() < 1e-10 * (1.0 + cv.abs()), "{inputs}");
                    assert!((d1 - cd1).abs() < 1e-9 * (1.0 + cd1.abs()), "{inputs}");
                    assert!((d2 - cd2).abs() < 1e-8 * (1.0 + cd2.abs()), "{inputs}");
                }
            }
        }

        #[test]
        fn prop_kernels_are_radial_even() {
            let mut rng = Rng64::seed_from_u64(0xA2);
            for case in 0..64 {
                let r = rng.gen_range(0.0..3.0);
                // φ depends only on |r| — evaluating the generic definition with
                // a negated dual radius must give the same primal value.
                for k in ALL {
                    assert!(
                        (k.eval(r) - k.eval(r.abs())).abs() < 1e-14,
                        "case {case}: r = {r:?}, kernel {k:?}"
                    );
                }
            }
        }
    }
}
