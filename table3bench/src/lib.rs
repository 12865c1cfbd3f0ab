//! `table3bench`: the Table 3 control-run benchmark.
//!
//! Three workloads (see `README.md` for why each exists) run through the
//! repository's public API. An untraced run (`--trace 0`) reports the
//! end-to-end metrics; a traced run (`--trace 1`) alternates untraced and
//! traced passes and reports the per-layer split. See [`run`].

pub mod layers;
pub mod reference;
pub mod serving;
pub mod solver;
pub mod stats;

use layers::{Capture, Layers};
use meshfree_oc::control::metrics::{peak_allocated_bytes, reset_peak};
use serving::ServeWorkload;
use solver::{Scale, SolverWorkload};
use stats::{median, percentile, ProcStat};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["laplace_dense", "ns_picard", "sparse_krylov"];

/// End-to-end metrics (`--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("time_to_target_s", "s"),
    ("peak_mb", "MB"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`) and their units. Every workload reports
/// every one; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("control.build_s", "s"),
    ("linalg.lu_factor_s", "s"),
    ("rbf.assembly_s", "s"),
    ("pde.grad_s", "s"),
    ("pde.grad_calls", "count"),
    ("pde.cost_s", "s"),
    ("pde.cost_calls", "count"),
    ("autodiff.hvp_s", "s"),
    ("autodiff.hvp_calls", "count"),
    ("opt.step_self_s", "s"),
    ("opt.hvps_per_step", "ratio"),
    ("opt.trial_costs_per_step", "count"),
    ("nn.surrogate_train_s", "s"),
    ("control.surrogate_opt_s", "s"),
    ("control.pinn_s", "s"),
    ("linalg.lu_refactor_s", "s"),
    ("linalg.lu_refactor_calls", "count"),
    ("pde.ns_solve_s", "s"),
    ("pde.picard_sweeps", "count"),
    ("linalg.gmres_s", "s"),
    ("linalg.gmres_iters", "count"),
    ("linalg.gmres_iters_per_solve", "count"),
    ("linalg.ilu0_jacobi_fallbacks", "count"),
    ("process.sys_s", "s"),
    ("process.minor_faults", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.eval_solve_ms", "ms"),
    ("serve.eval_queue_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.neural_predict_ms", "ms"),
    ("serve.run_req_ms", "ms"),
    ("serve.eval_p50_ms", "ms"),
    ("serve.neural_eval_p50_ms", "ms"),
    ("serve.eval_p99_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Fewest set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Set-ups repeat (up to [`SETUP_REPS_MAX`]) until they have taken this
/// long in total, so a millisecond build still yields a steady median.
pub const SETUP_MIN_S: f64 = 1.0;

/// Most set-ups per run.
pub const SETUP_REPS_MAX: usize = 50;

/// Command-line request.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time; passes repeat until it is spent.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Fewest untraced passes per run, whatever `seconds` says.
    pub min_passes: usize,
}

/// What a run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Reported metrics, by name (every name of [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Checked operations.
    pub attempted: usize,
    /// Failed or wrong operations.
    pub failed: usize,
    /// Descriptions of failures (deduplicated).
    pub problems: Vec<String>,
    /// Free-form lines for the log (sample counts, per-cell J).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn fail(&mut self, problems: Vec<String>) {
        self.failed += problems.len();
        for p in problems {
            if !self.problems.contains(&p) {
                self.problems.push(p);
            }
        }
    }

    fn set_metrics(&mut self, table: &[(&'static str, &'static str)], value: impl Fn(&str) -> f64) {
        self.metrics = table
            .iter()
            .map(|&(name, unit)| {
                let v = value(name);
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect();
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Runs one workload as `args` asks, at `scale`.
pub fn run(args: &Args, scale: Scale) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "laplace_dense" => run_solver(&SolverWorkload::laplace_dense(scale, args.seed), args),
        "ns_picard" => run_solver(&SolverWorkload::ns_picard(scale), args),
        "sparse_krylov" => run_solver(&SolverWorkload::sparse_krylov(scale), args),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Durations of the same operations (cell phases, scripted requests)
/// across the passes of a run, `[operation][pass]`. Sums of per-operation
/// medians estimate a pass's time while a noise burst that slows one
/// operation in one pass moves nothing.
#[derive(Default)]
struct PerOp(Vec<Vec<f64>>);

impl PerOp {
    /// Records one pass's durations, in operation order.
    fn push(&mut self, pass: impl IntoIterator<Item = f64>) {
        for (i, v) in pass.into_iter().enumerate() {
            if self.0.len() <= i {
                self.0.push(Vec::new());
            }
            self.0[i].push(v);
        }
    }

    /// Per-operation medians of the operations in `range` (clamped to
    /// the operations recorded).
    fn medians(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = f64> + '_ {
        let end = range.end.min(self.0.len());
        self.0[range.start.min(end)..end].iter().map(|xs| med(xs))
    }

    /// Sum of the medians of the first `n` operations.
    fn sum_of_medians(&self, n: usize) -> f64 {
        self.medians(0..n).sum()
    }
}

/// A percentile of per-step median latencies (0 when there are too few
/// steps to back it, which only the test-sized grids have). Each step is
/// first reduced to its median across passes, so the tail is the
/// workload's own, not a noise burst's.
fn step_percentile(step_medians: &[f64], q: f64) -> f64 {
    percentile(step_medians, q).unwrap_or(0.0)
}

/// What every run measures, whatever the workload: set-ups, untraced
/// passes (time, peak memory, `/proc` deltas) and traced passes.
struct Run<'a> {
    args: &'a Args,
    out: Outcome,
    /// Set-up layers (traced runs), then the per-pass means.
    layers: Layers,
    setups: Vec<f64>,
    walls: Vec<f64>,
    peaks: Vec<f64>,
    sys: Vec<f64>,
    faults: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Sums over the traced passes.
    traced_layers: Layers,
    start: Instant,
}

impl<'a> Run<'a> {
    /// Set-up: `build` repeated for a steady median (once, traced, in a
    /// traced run). Keeps the last state.
    fn setup<T>(
        args: &'a Args,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<(Run<'a>, T), String> {
        let mut run = Run {
            args,
            out: Outcome::default(),
            layers: Layers::default(),
            setups: Vec::new(),
            walls: Vec::new(),
            peaks: Vec::new(),
            sys: Vec::new(),
            faults: Vec::new(),
            traced_walls: Vec::new(),
            traced_layers: Layers::default(),
            start: Instant::now(),
        };
        let mut state = None;
        while run.more_setups() {
            drop(state.take());
            let capture = args.trace.then(Capture::start);
            let t = Instant::now();
            state = Some(build()?);
            let build_s = t.elapsed().as_secs_f64();
            run.setups.push(build_s);
            if let Some(capture) = capture {
                let mut l = Layers::default();
                l.fold_trace(&capture.finish());
                let factor_s = l.get("linalg.lu_factor_s");
                run.layers.add("control.build_s", build_s);
                run.layers.add("rbf.assembly_s", build_s - factor_s);
                run.layers.add("linalg.lu_factor_s", factor_s);
            }
        }
        run.start = Instant::now();
        Ok((run, state.expect("at least one set-up")))
    }

    fn more_setups(&self) -> bool {
        let done = &self.setups;
        if self.args.trace {
            return done.is_empty();
        }
        done.len() < SETUP_REPS
            || (done.iter().sum::<f64>() < SETUP_MIN_S && done.len() < SETUP_REPS_MAX)
    }

    /// One untraced pass, with its peak memory and `/proc` deltas.
    fn untraced<R>(&mut self, pass: impl FnOnce() -> R, wall_s: impl Fn(&R) -> f64) -> R {
        reset_peak();
        let before = ProcStat::sample();
        let r = pass();
        let after = ProcStat::sample();
        self.peaks.push(peak_allocated_bytes() as f64 / 1e6);
        self.sys.push(after.sys_s_since(&before));
        self.faults.push(after.minor_faults_since(&before));
        self.walls.push(wall_s(&r));
        r
    }

    /// One traced pass under an in-memory sink; `pass` returns its wall
    /// time, checked operations and failures.
    fn traced(&mut self, pass: impl FnOnce(&mut Layers) -> (f64, usize, Vec<String>)) {
        let capture = Capture::start();
        let mut l = Layers::default();
        let (wall, attempted, problems) = pass(&mut l);
        l.fold_trace(&capture.finish());
        self.out.attempted += attempted;
        self.out.fail(problems);
        self.traced_walls.push(wall);
        for (k, v) in l.0 {
            self.traced_layers.add(k, v);
        }
    }

    /// Whether the run has measured enough.
    fn done(&self) -> bool {
        self.walls.len() >= self.args.min_passes.max(1)
            && self.start.elapsed().as_secs_f64() >= self.args.seconds
    }

    /// The per-layer metrics: per-pass means of the traced passes plus
    /// the ratios derived from them.
    fn per_layer(&mut self) {
        let n = self.traced_walls.len() as f64;
        let l = &mut self.layers;
        for (k, v) in std::mem::take(&mut self.traced_layers.0) {
            l.add(k, v / n);
        }
        let ratio = |l: &Layers, num: &str, den: &str| {
            let d = l.get(den);
            if d > 0.0 {
                l.get(num) / d
            } else {
                0.0
            }
        };
        // Useful-work ratios of the second-order steps: HVPs per
        // HVP-driven step against the control dimension (exact-arithmetic
        // CG needs at most n_controls), and trial costs per step.
        let hvps = ratio(l, "autodiff.hvp_calls", "opt.hvp_steps_x_nc");
        let trials = ratio(l, "opt.trial_costs", "opt.second_order_steps");
        let per_solve = ratio(l, "linalg.gmres_iters", "linalg.gmres_solves");
        l.add("opt.hvps_per_step", hvps);
        l.add("opt.trial_costs_per_step", trials);
        l.add("linalg.gmres_iters_per_solve", per_solve);
        l.add("process.sys_s", med(&self.sys));
        l.add("process.minor_faults", med(&self.faults));
        l.add("trace.overhead", med(&self.traced_walls) / med(&self.walls));
        let layers = &self.layers;
        self.out.set_metrics(&PER_LAYER, |k| layers.get(k));
    }

    /// Finishes the run: the per-layer metrics of a traced run, or the
    /// end-to-end metrics, where `e2e` gives the workload's own.
    fn finish(mut self, e2e: impl Fn(&str) -> f64) -> Outcome {
        if self.args.trace {
            self.per_layer();
        } else {
            let (setup, peak) = (med(&self.setups), med(&self.peaks));
            self.out.set_metrics(&END_TO_END, |k| match k {
                "setup_s" => setup,
                "peak_mb" => peak,
                _ => e2e(k),
            });
        }
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.out.notes.push(format!(
            "pass walls [{}] traced [{}] setups {} (median {:.4})",
            list(&self.walls),
            list(&self.traced_walls),
            self.setups.len(),
            med(&self.setups)
        ));
        self.out
    }
}

fn run_solver(w: &SolverWorkload, args: &Args) -> Result<Outcome, String> {
    let (mut run, built) = Run::setup(args, || {
        w.build().map_err(|e| format!("set-up failed: {e}"))
    })?;
    // Per cell: its phases across passes, how many lead to the target, and
    // which are optimizer steps.
    let mut cells: Vec<(PerOp, usize, std::ops::Range<usize>)> =
        w.cells.iter().map(|_| Default::default()).collect();
    loop {
        let r = run.untraced(|| solver::pass(w, &built), |r| r.wall_s);
        for ((ops, to_target, steps), ph) in cells.iter_mut().zip(&r.phases) {
            if let Some(ph) = ph {
                ops.push(ph.secs.iter().copied());
                *to_target = ph.to_target;
                *steps = ph.steps.clone();
            }
        }
        run.out.attempted += r.attempted;
        run.out.fail(r.problems.clone());
        let notes = &mut run.out.notes;
        if run.walls.len() == 1 {
            for (cell, o) in w.cells.iter().zip(&r.outcomes) {
                if let Some(o) = o {
                    notes.push(format!("cell {} final_j {:?}", cell.name, o.final_cost));
                }
            }
            let steps: usize = cells.iter().map(|c| c.2.len()).sum();
            notes.push(format!("steps per pass: {steps}"));
        }
        let cell_walls: Vec<String> = r
            .outcomes
            .iter()
            .map(|o| {
                o.as_ref()
                    .map_or("-".into(), |o| format!("{:.3}", o.wall_s))
            })
            .collect();
        notes.push(format!("cell walls [{}]", cell_walls.join(" ")));
        if args.trace {
            run.traced(|l| {
                let (wall, problems) = solver::traced_pass(w, &built, &r.outcomes, l);
                l.add("trace.coverage", l.attributed_s() / wall);
                (wall, w.cells.len(), problems)
            });
        }
        if run.done() {
            break;
        }
    }
    if args.trace && w.serves {
        let (attempted, problems) =
            ServeWorkload::new(w.scale, args.seed).traced_segment(&mut run.layers);
        run.out.attempted += attempted;
        run.out.fail(problems);
    }
    let step_ms: Vec<f64> = cells
        .iter()
        .flat_map(|c| c.0.medians(c.2.clone()))
        .map(|s| s * 1e3)
        .collect();
    Ok(run.finish(|k| match k {
        "wall_s" => cells.iter().map(|c| c.0.sum_of_medians(usize::MAX)).sum(),
        "time_to_target_s" => cells.iter().map(|c| c.0.sum_of_medians(c.1)).sum(),
        "step_p50_ms" => step_percentile(&step_ms, 0.5),
        "step_p90_ms" => step_percentile(&step_ms, 0.9),
        _ => unreachable!("every end-to-end metric is handled"),
    }))
}
