//! The solver workloads: the Table 3 grid of control runs.
//!
//! A *pass* executes every cell of the workload's grid once through the
//! public API (`control::api::execute_on` against problems built once in
//! set-up). A *traced pass* replays the same cells through the layer
//! functions in the order `control::laplace::run_ctx` /
//! `control::ns::run_ctx` call them, timing each call from here; it must
//! end on the untraced run's final control bit for bit, so its split is a
//! split of the same computation.

use crate::layers::Layers;
use crate::reference;
use meshfree_oc::control::api::{optimize, BackendKind, ControlError, OptimizeOpts};
use meshfree_oc::control::laplace::GradMethod;
use meshfree_oc::control::metrics::HistoryEntry;
use meshfree_oc::control::{
    execute_on, BuiltProblem, LaplaceSurrogate, OptimizerKind, ProblemSpec, RunCtx, RunSpec,
    Strategy, SurrogateObjective, SurrogateSpec,
};
use meshfree_oc::linalg::DVec;
use meshfree_oc::opt::CurvatureOracle;
use meshfree_oc::pde::ns_adjoint::NsAdjoint;
use meshfree_oc::pde::ns_dp::NsDp;
use meshfree_oc::pde::{LaplaceControlProblem, NsSolver};
use meshfree_oc::runtime::Rng64;
use std::time::Instant;

/// Problem sizes: the benchmark's own (`Full`) or a seconds-long smoke
/// (`Tiny`, used by the tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Smallest sizes that still run every code path.
    Tiny,
}

/// One built problem of a workload.
pub struct ProblemDef {
    /// Key into the reference table.
    pub label: &'static str,
    /// What to build.
    pub spec: ProblemSpec,
}

/// One cell of the grid.
pub struct Cell {
    /// Key into the reference table (`<problem>/<strategy>/<optimizer>`).
    pub name: String,
    /// Index into [`SolverWorkload::problems`].
    pub problem: usize,
    /// The run.
    pub spec: RunSpec,
}

impl Cell {
    /// Whether the cell's final J depends on the workload seed (the
    /// trained strategies), so no fixed reference value applies.
    pub fn seeded(&self) -> bool {
        matches!(self.spec.strategy, Strategy::NeuralOp | Strategy::Pinn)
    }
}

/// A solver workload's grid.
pub struct SolverWorkload {
    /// Problems, built once per set-up.
    pub problems: Vec<ProblemDef>,
    /// Control runs of one pass.
    pub cells: Vec<Cell>,
    /// Reference targets and final J apply (full scale only).
    pub scale: Scale,
    /// Whether the traced run also serves the problem to clients (the
    /// serve layer's split; see `serving`).
    pub serves: bool,
}

fn laplace_cell(
    problem: usize,
    label: &str,
    nx: usize,
    backend: BackendKind,
    strategy: Strategy,
    optimizer: OptimizerKind,
    iterations: usize,
) -> Cell {
    Cell {
        name: format!("{label}/{}/{}", strategy.name(), optimizer.name()),
        problem,
        spec: RunSpec::laplace()
            .nx(nx)
            .backend(backend)
            .strategy(strategy)
            .optimizer(optimizer)
            .iterations(iterations)
            .lr(1e-2)
            .log_every(1)
            .build(),
    }
}

fn ns_spec(
    h: f64,
    k: usize,
    backend: BackendKind,
    strategy: Strategy,
    iterations: usize,
) -> RunSpec {
    RunSpec::navier_stokes()
        .resolution(h)
        .reynolds(100.0)
        .refinements(k)
        .backend(backend)
        .strategy(strategy)
        .iterations(iterations)
        .lr(1e-1)
        .log_every(1)
        .build()
}

fn ns_cell(problem: usize, label: &str, spec: RunSpec) -> Cell {
    let k = match spec.problem {
        ProblemSpec::NavierStokes { refinements, .. } => refinements,
        _ => unreachable!("ns_cell takes Navier-Stokes specs"),
    };
    Cell {
        name: format!("{label}/{}/k{k}", spec.strategy.name()),
        problem,
        spec,
    }
}

/// Seeds for the trained strategies, drawn from the workload seed. Kept
/// below 2^24 so the PINN's derived seeds (`seed + 1000`) cannot overflow.
fn trained_seeds(seed: u64) -> (u64, u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    (rng.next_u64() >> 40, rng.next_u64() >> 40)
}

impl SolverWorkload {
    /// `laplace_dense`: the Table 3 Laplace row on one dense build.
    pub fn laplace_dense(scale: Scale, seed: u64) -> SolverWorkload {
        let tiny = scale == Scale::Tiny;
        let nx = if tiny { 10 } else { 32 };
        let label = "laplace-dense";
        let dense = BackendKind::DenseLu;
        let mut cells = Vec::new();
        for strategy in [Strategy::Dal, Strategy::Dp] {
            for (optimizer, it, tiny_it) in [
                (OptimizerKind::Adam, 200, 6),
                (OptimizerKind::Lbfgs, 50, 3),
                (OptimizerKind::NewtonCg, 10, 2),
            ] {
                let it = if tiny { tiny_it } else { it };
                cells.push(laplace_cell(0, label, nx, dense, strategy, optimizer, it));
            }
        }
        let fd_it = if tiny { 2 } else { 10 };
        cells.push(laplace_cell(
            0,
            label,
            nx,
            dense,
            Strategy::FiniteDiff,
            OptimizerKind::Adam,
            fd_it,
        ));
        let (neural_seed, pinn_seed) = trained_seeds(seed);
        let mut neural = laplace_cell(
            0,
            label,
            nx,
            dense,
            Strategy::NeuralOp,
            OptimizerKind::Adam,
            if tiny { 5 } else { 200 },
        );
        neural.spec.seed = neural_seed;
        if tiny {
            neural.spec.surrogate = Some(SurrogateSpec {
                epochs: 20,
                n_samples: 4,
                ..SurrogateSpec::default()
            });
        }
        cells.push(neural);
        let mut pinn = laplace_cell(
            0,
            label,
            nx,
            dense,
            Strategy::Pinn,
            OptimizerKind::Adam,
            if tiny { 4 } else { 400 },
        );
        pinn.spec.seed = pinn_seed;
        cells.push(pinn);
        SolverWorkload {
            problems: vec![ProblemDef {
                label,
                spec: ProblemSpec::Laplace { nx, backend: dense },
            }],
            cells,
            scale,
            serves: true,
        }
    }

    /// `ns_picard`: dense Navier–Stokes, Picard refactoring every sweep.
    pub fn ns_picard(scale: Scale) -> SolverWorkload {
        let tiny = scale == Scale::Tiny;
        let h = if tiny { 0.3 } else { 0.12 };
        let label = "ns-dense";
        let dense = BackendKind::DenseLu;
        let (dal_it, dp_it) = if tiny { (3, 2) } else { (60, 40) };
        let dal = ns_spec(h, 3, dense, Strategy::Dal, dal_it);
        let dp = ns_spec(h, 5, dense, Strategy::Dp, dp_it);
        SolverWorkload {
            problems: vec![ProblemDef {
                label,
                spec: dal.problem.clone(),
            }],
            cells: vec![ns_cell(0, label, dal), ns_cell(0, label, dp)],
            scale,
            serves: false,
        }
    }

    /// `sparse_krylov`: Laplace and Navier–Stokes on the sparse GMRES
    /// backend, no dense LU anywhere.
    pub fn sparse_krylov(scale: Scale) -> SolverWorkload {
        let tiny = scale == Scale::Tiny;
        let sparse = BackendKind::SparseGmres;
        let (nx, lap_it) = if tiny { (12, 3) } else { (48, 100) };
        let (h, ns_it) = if tiny { (0.3, 2) } else { (0.12, 30) };
        let lap = laplace_cell(
            0,
            "laplace-sparse",
            nx,
            sparse,
            Strategy::Dp,
            OptimizerKind::Adam,
            lap_it,
        );
        let ns = ns_spec(h, 5, sparse, Strategy::Dp, ns_it);
        SolverWorkload {
            problems: vec![
                ProblemDef {
                    label: "laplace-sparse",
                    spec: lap.spec.problem.clone(),
                },
                ProblemDef {
                    label: "ns-sparse",
                    spec: ns.problem.clone(),
                },
            ],
            cells: vec![lap, ns_cell(1, "ns-sparse", ns)],
            scale,
            serves: false,
        }
    }

    /// Builds every problem (the workload's set-up).
    pub fn build(&self) -> Result<Vec<BuiltProblem>, ControlError> {
        self.problems
            .iter()
            .map(|p| BuiltProblem::build(&p.spec))
            .collect()
    }

    /// The target J of a cell's problem (full scale only).
    fn target(&self, cell: &Cell) -> Option<f64> {
        match self.scale {
            Scale::Full => reference::target(self.problems[cell.problem].label),
            Scale::Tiny => None,
        }
    }
}

/// What one untraced execution of a cell produced.
pub struct CellOutcome {
    /// Wall time around `execute_on`, as the caller sees it.
    pub wall_s: f64,
    /// The run's own clock (starts after any surrogate training).
    pub report_wall_s: f64,
    /// Final J.
    pub final_cost: f64,
    /// Final control.
    pub control: DVec,
    /// Convergence history (every iteration: `log_every = 1`).
    pub history: Vec<HistoryEntry>,
}

/// One untraced pass over the grid.
pub struct PassResult {
    /// Wall time of the whole grid.
    pub wall_s: f64,
    /// Per cell, its wall time cut into phases (`None` where the run
    /// failed).
    pub phases: Vec<Option<Phases>>,
    /// Per-cell outcomes (`None` where the run failed).
    pub outcomes: Vec<Option<CellOutcome>>,
    /// Checked operations.
    pub attempted: usize,
    /// One line per failed run or wrong output.
    pub problems: Vec<String>,
}

/// Runs one cell through the public API.
fn run_cell(built: &BuiltProblem, cell: &Cell) -> Result<CellOutcome, ControlError> {
    let t = Instant::now();
    let run = execute_on(built.as_problem(), &cell.spec, &RunCtx::new())?;
    let wall_s = t.elapsed().as_secs_f64();
    Ok(CellOutcome {
        wall_s,
        report_wall_s: run.report.wall_s,
        final_cost: run.report.final_cost,
        control: run.control,
        history: run.report.history.entries,
    })
}

/// A cell's wall time cut into phases that recur in every pass: the wait
/// before the run's own clock starts (surrogate training), each logged
/// iteration on that clock (`log_every = 1`), and the tail after its last
/// entry. Medians per phase across passes filter a noise burst that hits
/// one phase of one pass.
#[derive(Debug, Clone)]
pub struct Phases {
    /// Phase durations (s); they sum to the cell's wall time.
    pub secs: Vec<f64>,
    /// How many leading phases pass before J first reaches the problem's
    /// target; all of them when it never does.
    pub to_target: usize,
    /// The optimizer-iteration phases (the step latencies).
    pub steps: std::ops::Range<usize>,
}

impl Phases {
    fn of(cell: &Cell, o: &CellOutcome, target: Option<f64>) -> Phases {
        // The PINN's two training stages restart their history clocks, so
        // its whole run is one phase.
        if cell.spec.strategy == Strategy::Pinn {
            return Phases {
                secs: vec![o.wall_s],
                to_target: 1,
                steps: 0..0,
            };
        }
        let pre = (o.wall_s - o.report_wall_s).max(0.0);
        let mut secs = vec![pre];
        let mut prev = 0.0;
        for e in &o.history {
            secs.push((e.elapsed_s - prev).max(0.0));
            prev = e.elapsed_s;
        }
        secs.push((o.wall_s - pre - prev).max(0.0));
        // Trained strategies log surrogate or network estimates, not the
        // problem's J: only their audited end counts, so they reach the
        // target (if at all) when they finish.
        let reached = match target {
            Some(t) if !cell.seeded() => o.history.iter().position(|e| e.cost <= t),
            _ => None,
        };
        Phases {
            // The pre phase plus history entries 0..=i.
            to_target: reached.map_or(secs.len(), |i| i + 2),
            steps: 1..secs.len() - 1,
            secs,
        }
    }
}

/// Checks one outcome; returns a description of what is wrong.
fn check(w: &SolverWorkload, built: &BuiltProblem, cell: &Cell, o: &CellOutcome) -> Option<String> {
    if !o.final_cost.is_finite() || o.control.has_non_finite() {
        return Some(format!("{}: non-finite result", cell.name));
    }
    // Laplace runs score their final control with the plain solver, so
    // the reported J must be that solve, bit for bit.
    if let Some(p) = built.laplace() {
        match p.cost(&o.control) {
            Ok(j) if j.to_bits() == o.final_cost.to_bits() => {}
            Ok(j) => {
                return Some(format!(
                    "{}: reported J {:e} but the control costs {j:e}",
                    cell.name, o.final_cost
                ))
            }
            Err(e) => return Some(format!("{}: audit solve failed: {e}", cell.name)),
        }
    }
    if w.scale == Scale::Full && !cell.seeded() {
        match reference::final_j(&cell.name) {
            Some(r) if reference::matches(o.final_cost, r) => {}
            Some(r) => {
                return Some(format!(
                    "{}: final J {:e} differs from reference {r:e}",
                    cell.name, o.final_cost
                ))
            }
            None => return Some(format!("{}: no reference final J", cell.name)),
        }
    }
    None
}

/// One untraced pass: every cell through `execute_on`, then the checks.
pub fn pass(w: &SolverWorkload, built: &[BuiltProblem]) -> PassResult {
    let t = Instant::now();
    let runs: Vec<Result<CellOutcome, ControlError>> = w
        .cells
        .iter()
        .map(|cell| run_cell(&built[cell.problem], cell))
        .collect();
    let wall_s = t.elapsed().as_secs_f64();
    let mut r = PassResult {
        wall_s,
        phases: Vec::new(),
        outcomes: Vec::new(),
        attempted: 0,
        problems: Vec::new(),
    };
    for (cell, run) in w.cells.iter().zip(runs) {
        r.attempted += 1;
        match run {
            Ok(o) => {
                r.phases.push(Some(Phases::of(cell, &o, w.target(cell))));
                if let Some(msg) = check(w, &built[cell.problem], cell, &o) {
                    r.problems.push(msg);
                }
                r.outcomes.push(Some(o));
            }
            Err(e) => {
                r.problems.push(format!("{}: {e}", cell.name));
                r.phases.push(None);
                r.outcomes.push(None);
            }
        }
    }
    r
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// The curvature oracle of `control::laplace::run_ctx`, answering the same
/// queries with the same arithmetic and timing each one.
struct TimedOracle<'a> {
    problem: &'a LaplaceControlProblem,
    method: GradMethod,
    x: DVec,
    layers: Layers,
}

impl TimedOracle<'_> {
    fn dal_weighted_grad(&self, c: &DVec) -> Option<DVec> {
        let (_, g) = self.problem.cost_and_grad_dal(c).ok()?;
        let w = self.problem.quad_weights();
        Some(DVec::from_fn(g.len(), |i| w[i] * g[i]))
    }
}

impl CurvatureOracle for TimedOracle<'_> {
    fn hvp(&mut self, v: &DVec) -> Option<DVec> {
        let t = Instant::now();
        let hv = match self.method {
            GradMethod::Dal => {
                // Central difference of the weighted adjoint gradient.
                let h = 1e-5 / (1.0 + v.norm_inf()).max(1.0);
                let mut cp = self.x.clone();
                cp.axpy(h, v);
                let mut cm = self.x.clone();
                cm.axpy(-h, v);
                let gp = self.dal_weighted_grad(&cp);
                let gm = self.dal_weighted_grad(&cm);
                gp.zip(gm)
                    .map(|(gp, gm)| DVec::from_fn(gp.len(), |i| (gp[i] - gm[i]) / (2.0 * h)))
            }
            GradMethod::Dp | GradMethod::FiniteDiff => self
                .problem
                .cost_grad_hvp(&self.x, v)
                .ok()
                .map(|(_, _, hv)| hv),
        };
        self.layers.add("autodiff.hvp_s", t.elapsed().as_secs_f64());
        self.layers.add("autodiff.hvp_calls", 1.0);
        hv.filter(|hv| !hv.has_non_finite())
    }

    fn cost_at(&mut self, c: &DVec) -> Option<f64> {
        self.layers.add("opt.trial_costs", 1.0);
        self.layers
            .time("pde.cost_s", Some("pde.cost_calls"), || {
                self.problem.cost(c)
            })
            .ok()
            .filter(|j| j.is_finite())
    }
}

fn replay_laplace(
    p: &LaplaceControlProblem,
    spec: &RunSpec,
    method: GradMethod,
    l: &mut Layers,
) -> Result<(DVec, f64), ControlError> {
    let n = p.n_controls();
    let mut c = DVec::zeros(n);
    let mut optimizer = spec.optimizer.build(n, spec.lr, spec.iterations);
    let second_order = optimizer.uses_curvature();
    let mut oracle = TimedOracle {
        problem: p,
        method,
        x: DVec::zeros(n),
        layers: Layers::default(),
    };
    for _ in 0..spec.iterations {
        let (j, g) = l.time("pde.grad_s", Some("pde.grad_calls"), || match method {
            GradMethod::Dal => {
                let (j, g) = p.cost_and_grad_dal(&c)?;
                if second_order {
                    let w = p.quad_weights();
                    Ok((j, DVec::from_fn(n, |i| w[i] * g[i])))
                } else {
                    Ok((j, g))
                }
            }
            GradMethod::Dp => p.cost_and_grad_dp(&c),
            GradMethod::FiniteDiff => p.cost_and_grad_fd(&c, 1e-6),
        })?;
        if second_order {
            oracle.x.clone_from(&c);
            let inner = oracle.layers.attributed_s();
            let hvps = oracle.layers.get("autodiff.hvp_calls");
            let t = Instant::now();
            optimizer.step_with_curvature(&mut c, j, &g, &mut oracle);
            let step = t.elapsed().as_secs_f64();
            l.add(
                "opt.step_self_s",
                step - (oracle.layers.attributed_s() - inner),
            );
            l.add("opt.second_order_steps", 1.0);
            if oracle.layers.get("autodiff.hvp_calls") > hvps {
                l.add("opt.hvp_steps_x_nc", n as f64);
            }
        } else {
            l.time("opt.step_self_s", None, || optimizer.step(&mut c, &g));
        }
    }
    for (k, v) in oracle.layers.0 {
        l.add(k, v);
    }
    let j = l.time("pde.cost_s", Some("pde.cost_calls"), || p.cost(&c))?;
    Ok((c, j))
}

fn replay_ns(
    s: &NsSolver,
    spec: &RunSpec,
    method: GradMethod,
    l: &mut Layers,
) -> Result<(DVec, f64), ControlError> {
    let (k, initial_scale) = match spec.problem {
        ProblemSpec::NavierStokes {
            refinements,
            initial_scale,
            ..
        } => (refinements, initial_scale),
        _ => unreachable!("replay_ns takes Navier-Stokes specs"),
    };
    let n = s.n_controls();
    let mut c = meshfree_oc::control::ns::initial_control(s).scaled(initial_scale);
    let mut optimizer = OptimizerKind::Adam.build(n, spec.lr, spec.iterations);
    let mut state = None;
    // Preparing the taped and adjoint gradient machinery is gradient work.
    let (dp, dal, mut ws) = l.time("pde.grad_s", None, || {
        (NsDp::new(s), NsAdjoint::new(s), s.workspace())
    });
    for _ in 0..spec.iterations {
        let g = l
            .time("pde.grad_s", Some("pde.grad_calls"), || match method {
                GradMethod::Dp => {
                    let (_, g, _, st) = dp.run(&c, k, state.as_ref())?;
                    state = Some(st);
                    Ok(g)
                }
                GradMethod::Dal => {
                    let (_, g, st) = dal.cost_and_grad_with(&c, k, state.take(), &mut ws)?;
                    state = Some(st);
                    Ok(g)
                }
                GradMethod::FiniteDiff => dp.cost_and_grad_fd(&c, k.max(8), 1e-6).map(|(_, g)| g),
            })
            .map_err(ControlError::from)?;
        l.time("opt.step_self_s", None, || optimizer.step(&mut c, &g));
        if c.has_non_finite() {
            break;
        }
    }
    let j = l.time("pde.cost_s", Some("pde.cost_calls"), || {
        s.solve_with(&c, k.max(12), state, &mut ws)
            .map(|st| s.cost(&st))
    })?;
    Ok((c, j))
}

/// Replays one cell through the layer functions, timing each call.
/// Returns the final control and J.
pub fn replay_cell(
    built: &BuiltProblem,
    cell: &Cell,
    l: &mut Layers,
) -> Result<(DVec, f64), ControlError> {
    let spec = &cell.spec;
    match (spec.strategy, built.laplace()) {
        (Strategy::Pinn, _) => {
            let run = l.time("control.pinn_s", None, || {
                execute_on(built.as_problem(), spec, &RunCtx::new())
            })?;
            Ok((run.control, run.report.final_cost))
        }
        (Strategy::NeuralOp, Some(p)) => {
            let cfg = spec.surrogate.clone().unwrap_or_default();
            let surrogate = l.time("nn.surrogate_train_s", None, || {
                LaplaceSurrogate::train(p, &cfg, spec.seed)
            })?;
            let opts = OptimizeOpts {
                iterations: spec.iterations,
                lr: spec.lr,
                log_every: spec.log_every,
                optimizer: spec.optimizer,
            };
            let (_, c) = l.time("control.surrogate_opt_s", None, || {
                optimize(&mut SurrogateObjective::new(&surrogate), &opts)
            })?;
            let j = l.time("pde.cost_s", Some("pde.cost_calls"), || p.cost(&c))?;
            Ok((c, j))
        }
        (s, Some(p)) => {
            let method = s.grad_method().expect("solver strategy");
            replay_laplace(p, spec, method, l)
        }
        (s, None) => {
            let method = s.grad_method().expect("solver strategy");
            let ns = match built.as_problem() {
                meshfree_oc::control::Problem::NavierStokes(ns) => ns,
                _ => unreachable!("non-Laplace solver workloads are Navier-Stokes"),
            };
            replay_ns(ns, spec, method, l)
        }
    }
}

/// One traced pass: replays every cell, counting each whose final control
/// differs from `expected` (the untraced run's) in any bit.
pub fn traced_pass(
    w: &SolverWorkload,
    built: &[BuiltProblem],
    expected: &[Option<CellOutcome>],
    l: &mut Layers,
) -> (f64, Vec<String>) {
    let t = Instant::now();
    let replays: Vec<_> = w
        .cells
        .iter()
        .map(|cell| replay_cell(&built[cell.problem], cell, l))
        .collect();
    let wall_s = t.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    for ((cell, replay), exp) in w.cells.iter().zip(replays).zip(expected) {
        match (replay, exp) {
            (Ok((c, j)), Some(o)) => {
                let same = c.len() == o.control.len()
                    && (0..c.len()).all(|i| c[i].to_bits() == o.control[i].to_bits())
                    && j.to_bits() == o.final_cost.to_bits();
                if !same {
                    problems.push(format!(
                        "{}: traced replay diverged from the run",
                        cell.name
                    ));
                }
            }
            (Err(e), _) => problems.push(format!("{}: traced replay failed: {e}", cell.name)),
            (Ok(_), None) => problems.push(format!("{}: no untraced run to compare", cell.name)),
        }
    }
    (wall_s, problems)
}
