//! Forward-mode dual numbers: first-order [`Dual`] and second-order
//! [`Dual2`].
//!
//! `Dual2` propagates `(f, f', f'')` through a univariate computation. The
//! RBF kernels only ever need derivatives with respect to the radius `r` (the
//! chain rule to Cartesian derivatives is closed-form), so second-order
//! univariate forward mode is exactly the tool: with it, `∇²φ` for a *user
//! supplied* `φ` costs one evaluation — the Rust analogue of defining the
//! differential operator `D` via `jax.grad` in the paper.

use crate::scalar::Scalar;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// First-order dual number `a + b·ε` with `ε² = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dual {
    /// Primal value.
    pub re: f64,
    /// Derivative (tangent) component.
    pub eps: f64,
}

impl Dual {
    /// A constant (zero derivative).
    pub fn constant(v: f64) -> Self {
        Dual { re: v, eps: 0.0 }
    }
    /// The differentiation variable (unit derivative).
    pub fn variable(v: f64) -> Self {
        Dual { re: v, eps: 1.0 }
    }
}

/// Evaluates `f` and `df/dx` at `x` in one pass.
pub fn derivative(f: impl Fn(Dual) -> Dual, x: f64) -> (f64, f64) {
    let y = f(Dual::variable(x));
    (y.re, y.eps)
}

impl Add for Dual {
    type Output = Dual;
    fn add(self, o: Dual) -> Dual {
        Dual {
            re: self.re + o.re,
            eps: self.eps + o.eps,
        }
    }
}
impl Sub for Dual {
    type Output = Dual;
    fn sub(self, o: Dual) -> Dual {
        Dual {
            re: self.re - o.re,
            eps: self.eps - o.eps,
        }
    }
}
impl Mul for Dual {
    type Output = Dual;
    fn mul(self, o: Dual) -> Dual {
        Dual {
            re: self.re * o.re,
            eps: self.re * o.eps + self.eps * o.re,
        }
    }
}
impl Div for Dual {
    type Output = Dual;
    fn div(self, o: Dual) -> Dual {
        Dual {
            re: self.re / o.re,
            eps: (self.eps * o.re - self.re * o.eps) / (o.re * o.re),
        }
    }
}
impl Neg for Dual {
    type Output = Dual;
    fn neg(self) -> Dual {
        Dual {
            re: -self.re,
            eps: -self.eps,
        }
    }
}

impl Scalar for Dual {
    fn from_f64(v: f64) -> Self {
        Dual::constant(v)
    }
    fn value(&self) -> f64 {
        self.re
    }
    fn sqrt(self) -> Self {
        let s = self.re.sqrt();
        Dual {
            re: s,
            eps: self.eps / (2.0 * s),
        }
    }
    fn exp(self) -> Self {
        let e = self.re.exp();
        Dual {
            re: e,
            eps: self.eps * e,
        }
    }
    fn ln(self) -> Self {
        Dual {
            re: self.re.ln(),
            eps: self.eps / self.re,
        }
    }
    fn sin(self) -> Self {
        Dual {
            re: self.re.sin(),
            eps: self.eps * self.re.cos(),
        }
    }
    fn cos(self) -> Self {
        Dual {
            re: self.re.cos(),
            eps: -self.eps * self.re.sin(),
        }
    }
    fn tanh(self) -> Self {
        let t = self.re.tanh();
        Dual {
            re: t,
            eps: self.eps * (1.0 - t * t),
        }
    }
    fn powi(self, n: i32) -> Self {
        Dual {
            re: self.re.powi(n),
            eps: self.eps * n as f64 * self.re.powi(n - 1),
        }
    }
    fn abs(self) -> Self {
        Dual {
            re: self.re.abs(),
            eps: self.eps * self.re.signum(),
        }
    }
}

/// Second-order dual: propagates `(f, f', f'')` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dual2 {
    /// Primal value.
    pub v: f64,
    /// First derivative.
    pub d: f64,
    /// Second derivative.
    pub dd: f64,
}

impl Dual2 {
    /// A constant.
    pub fn constant(v: f64) -> Self {
        Dual2 { v, d: 0.0, dd: 0.0 }
    }
    /// The differentiation variable.
    pub fn variable(v: f64) -> Self {
        Dual2 { v, d: 1.0, dd: 0.0 }
    }
}

/// Evaluates `f, f', f''` at `x` in one pass.
pub fn derivative2(f: impl Fn(Dual2) -> Dual2, x: f64) -> (f64, f64, f64) {
    let y = f(Dual2::variable(x));
    (y.v, y.d, y.dd)
}

impl Add for Dual2 {
    type Output = Dual2;
    fn add(self, o: Dual2) -> Dual2 {
        Dual2 {
            v: self.v + o.v,
            d: self.d + o.d,
            dd: self.dd + o.dd,
        }
    }
}
impl Sub for Dual2 {
    type Output = Dual2;
    fn sub(self, o: Dual2) -> Dual2 {
        Dual2 {
            v: self.v - o.v,
            d: self.d - o.d,
            dd: self.dd - o.dd,
        }
    }
}
impl Mul for Dual2 {
    type Output = Dual2;
    fn mul(self, o: Dual2) -> Dual2 {
        Dual2 {
            v: self.v * o.v,
            d: self.v * o.d + self.d * o.v,
            dd: self.v * o.dd + 2.0 * self.d * o.d + self.dd * o.v,
        }
    }
}
impl Div for Dual2 {
    type Output = Dual2;
    fn div(self, o: Dual2) -> Dual2 {
        let v = self.v / o.v;
        let d = (self.d - v * o.d) / o.v;
        let dd = (self.dd - 2.0 * d * o.d - v * o.dd) / o.v;
        Dual2 { v, d, dd }
    }
}
impl Neg for Dual2 {
    type Output = Dual2;
    fn neg(self) -> Dual2 {
        Dual2 {
            v: -self.v,
            d: -self.d,
            dd: -self.dd,
        }
    }
}

impl Dual2 {
    /// Chain rule for a univariate elementary function with known first and
    /// second derivatives at the primal point.
    #[inline]
    fn chain(self, f: f64, fp: f64, fpp: f64) -> Dual2 {
        Dual2 {
            v: f,
            d: fp * self.d,
            dd: fpp * self.d * self.d + fp * self.dd,
        }
    }
}

impl Scalar for Dual2 {
    fn from_f64(v: f64) -> Self {
        Dual2::constant(v)
    }
    fn value(&self) -> f64 {
        self.v
    }
    fn sqrt(self) -> Self {
        let s = self.v.sqrt();
        self.chain(s, 0.5 / s, -0.25 / (s * s * s))
    }
    fn exp(self) -> Self {
        let e = self.v.exp();
        self.chain(e, e, e)
    }
    fn ln(self) -> Self {
        self.chain(self.v.ln(), 1.0 / self.v, -1.0 / (self.v * self.v))
    }
    fn sin(self) -> Self {
        self.chain(self.v.sin(), self.v.cos(), -self.v.sin())
    }
    fn cos(self) -> Self {
        self.chain(self.v.cos(), -self.v.sin(), -self.v.cos())
    }
    fn tanh(self) -> Self {
        let t = self.v.tanh();
        let s = 1.0 - t * t;
        self.chain(t, s, -2.0 * t * s)
    }
    fn powi(self, n: i32) -> Self {
        let nf = n as f64;
        self.chain(
            self.v.powi(n),
            nf * self.v.powi(n - 1),
            nf * (nf - 1.0) * self.v.powi(n - 2),
        )
    }
    fn abs(self) -> Self {
        let s = self.v.signum();
        self.chain(self.v.abs(), s, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd1(f: impl Fn(f64) -> f64, x: f64) -> f64 {
        let h = 1e-6 * (1.0 + x.abs());
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn dual_derivative_of_composite() {
        // f(x) = sin(x^2) * exp(x); f'(x) = 2x cos(x^2) e^x + sin(x^2) e^x
        let f = |x: Dual| (x * x).sin() * x.exp();
        let (v, d) = derivative(f, 0.8);
        let expected_v = (0.8f64 * 0.8).sin() * (0.8f64).exp();
        let expected_d = 2.0 * 0.8 * (0.8f64 * 0.8).cos() * (0.8f64).exp() + expected_v;
        assert!((v - expected_v).abs() < 1e-14);
        assert!((d - expected_d).abs() < 1e-14);
    }

    #[test]
    fn dual_elementary_functions_vs_fd() {
        type Check = (fn(Dual) -> Dual, fn(f64) -> f64);
        for &x in &[0.3, 0.9, 1.7] {
            let checks: Vec<Check> = vec![
                (|d| d.sqrt(), |x| x.sqrt()),
                (|d| d.exp(), |x| x.exp()),
                (|d| d.ln(), |x| x.ln()),
                (|d| d.sin(), |x| x.sin()),
                (|d| d.cos(), |x| x.cos()),
                (|d| d.tanh(), |x| x.tanh()),
                (|d| d.powi(3), |x| x.powi(3)),
                (|d| Scalar::recip(d), |x| 1.0 / x),
                (|d| Scalar::sech(d), |x| 1.0 / x.cosh()),
            ];
            for (fd_fun, f) in checks {
                let (_, d) = derivative(fd_fun, x);
                let fdv = fd1(f, x);
                assert!(
                    (d - fdv).abs() < 1e-6 * (1.0 + fdv.abs()),
                    "derivative mismatch at x={x}: ad={d} fd={fdv}"
                );
            }
        }
    }

    #[test]
    fn dual2_second_derivatives_vs_closed_form() {
        // phi(r) = r^3: phi'' = 6r.
        let (v, d, dd) = derivative2(|r| r.powi(3), 1.5);
        assert!((v - 3.375).abs() < 1e-14);
        assert!((d - 6.75).abs() < 1e-14);
        assert!((dd - 9.0).abs() < 1e-13);
        // sin: f'' = -sin
        let (_, _, dd) = derivative2(|x| x.sin(), 0.6);
        assert!((dd + (0.6f64).sin()).abs() < 1e-13);
    }

    #[test]
    fn dual2_division_second_derivative() {
        // f(x) = 1/(1+x), f'' = 2/(1+x)^3.
        let f = |x: Dual2| Dual2::constant(1.0) / (Dual2::constant(1.0) + x);
        let (_, d, dd) = derivative2(f, 0.5);
        assert!((d + 1.0 / 2.25).abs() < 1e-13);
        assert!((dd - 2.0 / 3.375).abs() < 1e-12);
    }

    #[test]
    fn dual2_gaussian_kernel_derivatives() {
        // phi(r) = exp(-r^2): phi' = -2r e^{-r^2}, phi'' = (4r^2-2) e^{-r^2}.
        let f = |r: Dual2| (-(r * r)).exp();
        let (v, d, dd) = derivative2(f, 0.9);
        let e = (-0.81f64).exp();
        assert!((v - e).abs() < 1e-14);
        assert!((d + 1.8 * e).abs() < 1e-13);
        assert!((dd - (4.0 * 0.81 - 2.0) * e).abs() < 1e-12);
    }

    /// Seeded property tests: each draws its inputs from one fixed
    /// `Rng64` stream, so every `cargo test` runs the same cases.
    mod prop {
        use super::*;
        use meshfree_runtime::Rng64;

        fn fd2(f: impl Fn(f64) -> f64, x: f64) -> f64 {
            let h = 1e-4 * (1.0 + x.abs());
            (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
        }

        #[test]
        fn prop_dual_matches_fd() {
            let mut rng = Rng64::seed_from_u64(0x51);
            for case in 0..64 {
                let x = rng.gen_range(0.1..3.0);
                let f_dual = |d: Dual| (d * d + Dual::constant(1.0)).sqrt() * d.tanh();
                let f = |x: f64| (x * x + 1.0).sqrt() * x.tanh();
                let (_, d) = derivative(f_dual, x);
                assert!(
                    (d - fd1(f, x)).abs() < 1e-5 * (1.0 + d.abs()),
                    "case {case}: x = {x:?}"
                );
            }
        }

        #[test]
        fn prop_dual2_matches_fd() {
            let mut rng = Rng64::seed_from_u64(0x52);
            for case in 0..64 {
                let x = rng.gen_range(0.2..2.5);
                let f_dual = |d: Dual2| d.powi(3) * d.sin() + d.exp();
                let f = |x: f64| x.powi(3) * x.sin() + x.exp();
                let (_, d, dd) = derivative2(f_dual, x);
                assert!(
                    (d - fd1(f, x)).abs() < 1e-5 * (1.0 + d.abs()),
                    "case {case}: x = {x:?}"
                );
                assert!(
                    (dd - fd2(f, x)).abs() < 1e-3 * (1.0 + dd.abs()),
                    "case {case}: x = {x:?}"
                );
            }
        }

        #[test]
        fn prop_dual_product_rule() {
            let mut rng = Rng64::seed_from_u64(0x53);
            for case in 0..64 {
                let x = rng.gen_range(0.1..2.0);
                let (_, d_fg) = derivative(|d| d.sin() * d.exp(), x);
                let (f, df) = derivative(|d| d.sin(), x);
                let (g, dg) = derivative(|d| d.exp(), x);
                assert!(
                    (d_fg - (df * g + f * dg)).abs() < 1e-12,
                    "case {case}: x = {x:?}"
                );
            }
        }
    }
}
