//! The Navier–Stokes control objective (paper §3.2, fig. 4, Table 2).
//!
//! [`NsObjective`] hands the one optimizer loop,
//! [`crate::api::optimize_ctx`], the DAL, DP or finite-difference gradient
//! of the inflow-control cost. Under Adam (Table 2: initial rate `1e-1`,
//! 350 iterations at paper scale) it warm-starts the flow state across
//! optimization iterations — this is what makes small refinement counts
//! (`k = 3` for DAL, `k = 10` for DP) meaningful: the forward solution
//! tracks the slowly-moving control. The initial guess for the inflow
//! control is the parabolic profile `4y(L−y)/L²`, exactly as in the paper.

use crate::api::{ControlError, ControlObjective};
use crate::laplace::GradMethod;
use linalg::DVec;
use pde::analytic::poiseuille;
use pde::ns_adjoint::NsAdjoint;
use pde::ns_dp::NsDp;
use pde::{NsSolver, NsState, NsWorkspace};

/// The paper's initial control: the parabolic profile.
pub fn initial_control(solver: &NsSolver) -> DVec {
    let ly = solver.cfg().channel.ly;
    DVec(
        solver
            .inflow_y()
            .iter()
            .map(|&y| poiseuille(y, ly))
            .collect(),
    )
}

/// The Navier–Stokes inflow-control problem as a [`ControlObjective`], with
/// the gradient of one [`GradMethod`]. Its name is the method's name.
///
/// The objective carries the run's state between calls: the warm-started
/// flow field, one `(3N)²` matrix + LU storage recycled across every Picard
/// sweep and adjoint solve (see [`NsWorkspace`]), and the peak tape bytes
/// of the DP gradients. [`ControlObjective::cost`] solves from the warm
/// state with at least 12 refinements — the converged score of a run's
/// final control — and keeps the state it scored, which
/// [`NsObjective::into_state`] returns. Runs are Adam only
/// ([`crate::api::RunSpec::validate`] rejects second-order NS specs): the
/// default [`ControlObjective::hvp`] would move the warm state.
pub struct NsObjective<'s> {
    solver: &'s NsSolver,
    method: GradMethod,
    refinements: usize,
    initial_scale: f64,
    dp: NsDp<'s>,
    dal: NsAdjoint<'s>,
    ws: NsWorkspace,
    state: Option<NsState>,
    peak_tape: usize,
}

impl<'s> NsObjective<'s> {
    /// `refinements` Picard sweeps per gradient evaluation (paper: 3 for
    /// DAL, 10 for DP), starting from the parabolic control scaled by
    /// `initial_scale` (1 = the paper's initial guess; < 1 starts from a
    /// deliberately poor control).
    pub fn new(
        solver: &'s NsSolver,
        method: GradMethod,
        refinements: usize,
        initial_scale: f64,
    ) -> Self {
        NsObjective {
            solver,
            method,
            refinements,
            initial_scale,
            dp: NsDp::new(solver),
            dal: NsAdjoint::new(solver),
            ws: solver.workspace(),
            state: None,
            peak_tape: 0,
        }
    }

    /// The flow state of the last solve: after a run, the state its final
    /// cost was scored on.
    pub fn into_state(self) -> Option<NsState> {
        self.state
    }
}

impl ControlObjective for NsObjective<'_> {
    fn n_controls(&self) -> usize {
        self.solver.n_controls()
    }

    fn cost(&mut self, c: &DVec) -> Result<f64, ControlError> {
        let k = self.refinements.max(12);
        let st = self
            .solver
            .solve_with(c, k, self.state.take(), &mut self.ws)?;
        let j = self.solver.cost(&st);
        self.state = Some(st);
        Ok(j)
    }

    fn cost_and_grad(&mut self, c: &DVec) -> Result<(f64, DVec), ControlError> {
        let k = self.refinements;
        Ok(match self.method {
            GradMethod::Dp => {
                let (j, g, stats, st) = self.dp.run(c, k, self.state.as_ref())?;
                self.peak_tape = self.peak_tape.max(stats.tape_bytes);
                self.state = Some(st);
                (j, g)
            }
            GradMethod::Dal => {
                let (j, g, st) =
                    self.dal
                        .cost_and_grad_with(c, k, self.state.take(), &mut self.ws)?;
                self.state = Some(st);
                (j, g)
            }
            // FD must use cold starts per perturbation for a consistent
            // J(c), so it neither reads nor updates the warm state.
            GradMethod::FiniteDiff => self.dp.cost_and_grad_fd(c, k.max(8), 1e-6)?,
        })
    }

    fn name(&self) -> &str {
        self.method.name()
    }

    fn initial_control(&self) -> DVec {
        initial_control(self.solver).scaled(self.initial_scale)
    }

    fn peak_bytes(&self) -> usize {
        self.peak_tape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{optimize, OptimizeOpts};
    use crate::metrics::RunReport;
    use geometry::generators::ChannelConfig;
    use pde::NsConfig;

    fn solver(re: f64) -> NsSolver {
        NsSolver::new(NsConfig {
            channel: ChannelConfig {
                h: 0.15,
                ..Default::default()
            },
            re,
            slot_velocity: 0.3,
            ..Default::default()
        })
        .unwrap()
    }

    /// A quick Adam run (25 iterations, 4 refinements, `lr = 5e-2`) and
    /// the flow state its final cost was scored on.
    fn run(s: &NsSolver, method: GradMethod, initial_scale: f64) -> (RunReport, NsState) {
        let opts = OptimizeOpts {
            iterations: 25,
            lr: 5e-2,
            log_every: 5,
            ..Default::default()
        };
        let mut obj = NsObjective::new(s, method, 4, initial_scale);
        let (report, _) = optimize(&mut obj, &opts).unwrap();
        (report, obj.into_state().expect("a scored state"))
    }

    #[test]
    fn dp_improves_over_initial_parabola() {
        let s = solver(50.0);
        let c0 = initial_control(&s);
        let st0 = s.solve(&c0, 12, None).unwrap();
        let j0 = s.cost(&st0);
        let (report, _) = run(&s, GradMethod::Dp, 1.0);
        assert!(
            report.final_cost < 0.6 * j0,
            "DP did not improve: {j0:.3e} -> {:.3e}",
            report.final_cost
        );
    }

    #[test]
    fn dal_descends_from_a_poor_control_at_low_re() {
        // Away from the optimum the OTD gradient aligns with the true
        // gradient (cos ≈ +0.8 at Re = 10) and DAL makes real progress; near
        // the optimum it stalls/drifts — the paper's fig. 4b failure mode.
        let s = solver(10.0);
        let c0 = initial_control(&s).scaled(0.3);
        let st0 = s.solve(&c0, 12, None).unwrap();
        let j0 = s.cost(&st0);
        let (report, _) = run(&s, GradMethod::Dal, 0.3);
        assert!(
            report.final_cost < 0.7 * j0,
            "DAL did not descend from a poor control: {j0:.3e} -> {:.3e}",
            report.final_cost
        );
    }

    #[test]
    fn dal_stalls_near_the_optimum_while_dp_does_not() {
        // Starting at the near-optimal parabola, DAL's biased gradient
        // cannot reduce J further (it typically increases it slightly),
        // while DP keeps descending — the headline fig. 4b contrast.
        let s = solver(10.0);
        let c0 = initial_control(&s);
        let st0 = s.solve(&c0, 12, None).unwrap();
        let j0 = s.cost(&st0);
        let (dal, _) = run(&s, GradMethod::Dal, 1.0);
        let (dp, _) = run(&s, GradMethod::Dp, 1.0);
        assert!(dp.final_cost < j0, "DP failed to improve");
        assert!(
            dp.final_cost < dal.final_cost,
            "DP {:.3e} should beat DAL {:.3e}",
            dp.final_cost,
            dal.final_cost
        );
    }

    #[test]
    fn dp_beats_dal_as_in_fig4b() {
        let s = solver(50.0);
        let (dp, _) = run(&s, GradMethod::Dp, 1.0);
        let (dal, _) = run(&s, GradMethod::Dal, 1.0);
        assert!(
            dp.final_cost <= dal.final_cost * 1.01,
            "DP {:.3e} vs DAL {:.3e}",
            dp.final_cost,
            dal.final_cost
        );
    }

    #[test]
    fn optimized_outflow_closer_to_parabola_than_uncontrolled() {
        let s = solver(50.0);
        let (_, state) = run(&s, GradMethod::Dp, 1.0);
        let (u_out, _) = s.outflow_profile(&state);
        let mut err_opt = 0.0f64;
        for (k, &y) in s.outflow_y().iter().enumerate() {
            err_opt = err_opt.max((u_out[k] - poiseuille(y, 1.0)).abs());
        }
        // Uncontrolled (initial parabola, slots on).
        let st0 = s.solve(&initial_control(&s), 12, None).unwrap();
        let (u0, _) = s.outflow_profile(&st0);
        let mut err0 = 0.0f64;
        for (k, &y) in s.outflow_y().iter().enumerate() {
            err0 = err0.max((u0[k] - poiseuille(y, 1.0)).abs());
        }
        assert!(
            err_opt < err0,
            "outflow error not reduced: {err0:.3} -> {err_opt:.3}"
        );
    }
}
