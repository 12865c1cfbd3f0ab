//! Target and reference final J values of the full-size workloads.
//!
//! Recorded from a seed run at the commit that introduced the benchmark.
//! A target is the J every Adam, L-BFGS and Newton-CG cell of the problem
//! reaches within its budget; `time_to_target_s` clocks when each cell
//! first gets there. The reference final J values are what the
//! deterministic (seed-independent) cells end on; a run that ends
//! elsewhere counts as a failed operation.

/// Per-problem target J.
const TARGETS: &[(&str, f64)] = &[
    ("laplace-dense", 5e-6),
    ("ns-dense", 6e-4),
    ("laplace-sparse", 2e-3),
    ("ns-sparse", 3e-4),
];

/// Final J of each deterministic cell.
const FINAL_J: &[(&str, f64)] = &[
    ("laplace-dense/DAL/adam", 1.7891408694291743e-6),
    ("laplace-dense/DAL/lbfgs", 7.380496281482485e-8),
    ("laplace-dense/DAL/newton-cg", 3.5382579449569846e-6),
    ("laplace-dense/DP/adam", 1.8160967895727937e-6),
    ("laplace-dense/DP/lbfgs", 7.130851945195248e-9),
    ("laplace-dense/DP/newton-cg", 9.675075605510795e-26),
    ("laplace-dense/FD/adam", 0.15364554768696947),
    ("ns-dense/DAL/k3", 0.0007470023848544254),
    ("ns-dense/DP/k5", 0.0004053430145335809),
    ("laplace-sparse/DP/adam", 0.0011750934510014193),
    ("ns-sparse/DP/k5", 0.0002213012234730322),
];

/// Relative agreement demanded of a final J. The runs are bitwise
/// reproducible on one host; the slack admits last-digit differences in
/// the math library of another.
pub const REL_TOL: f64 = 1e-9;

/// Absolute slack below which two J values are both machine zero (a
/// converged Newton run ends near 1e-25, where the last step is rounding).
pub const ABS_FLOOR: f64 = 1e-18;

/// The target J of a problem label.
pub fn target(problem: &str) -> Option<f64> {
    TARGETS.iter().find(|(k, _)| *k == problem).map(|&(_, v)| v)
}

/// The reference final J of a cell.
pub fn final_j(cell: &str) -> Option<f64> {
    FINAL_J.iter().find(|(k, _)| *k == cell).map(|&(_, v)| v)
}

/// Whether `got` matches the reference `want`.
pub fn matches(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs() + ABS_FLOOR
}
