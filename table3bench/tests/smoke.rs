//! Tiny-size smoke runs of every workload, untraced and traced.

use std::sync::Mutex;
use table3bench::solver::{Scale, SolverWorkload};
use table3bench::{run, Args, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// The trace sink is process-wide; traced runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: &str, trace: bool) -> Outcome {
    let args = Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        min_passes: 1,
    };
    run(&args, Scale::Tiny).expect("workload runs")
}

fn names(o: &Outcome) -> Vec<&'static str> {
    o.metrics.iter().map(|m| m.0).collect()
}

#[test]
fn every_workload_runs_checks_and_reports_its_metrics() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let o = tiny(w, false);
        assert!(o.correct(), "{w}: {:?}", o.problems);
        assert_eq!(names(&o), END_TO_END.map(|m| m.0), "{w}");
        for m in ["setup_s", "wall_s", "time_to_target_s"] {
            let v = o.metric(m).expect("reported");
            assert!(v > 0.0 && v.is_finite(), "{w}: {m} = {v}");
        }
        assert!(o.json().starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_replay_reproduces_every_cell_bitwise_and_attributes_its_time() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let o = tiny(w, true);
        // The replay check is part of correctness: a cell whose traced
        // replay ends on a different control in any bit fails.
        assert!(o.correct(), "{w}: {:?}", o.problems);
        assert_eq!(names(&o), PER_LAYER.map(|m| m.0), "{w}");
        let coverage = o.metric("trace.coverage").expect("reported");
        assert!(
            coverage > 0.5 && coverage <= 1.0 + 1e-9,
            "{w}: coverage {coverage}"
        );
        assert!(o.metric("trace.overhead").expect("reported") > 0.0);
        // Only the dense Laplace run serves its problem to clients.
        let hits = o.metric("serve.cache_hits").expect("reported");
        assert_eq!(hits > 0.0, w == "laplace_dense", "{w}: {hits} cache hits");
        assert!(
            !meshfree_oc::runtime::trace::enabled(),
            "{w}: tracing left on after the traced run"
        );
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let args = Args {
        workload: "nope".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        min_passes: 1,
    };
    assert!(run(&args, Scale::Tiny).is_err());
}

#[test]
fn full_size_passes_back_a_step_p90() {
    // The full-size grids fix each pass's step count: iterations + 1 per
    // non-PINN cell. A p90 needs 100 of them.
    for w in [
        SolverWorkload::laplace_dense(Scale::Full, 1),
        SolverWorkload::ns_picard(Scale::Full),
        SolverWorkload::sparse_krylov(Scale::Full),
    ] {
        let steps: usize = w
            .cells
            .iter()
            .filter(|c| c.spec.strategy != meshfree_oc::control::Strategy::Pinn)
            .map(|c| c.spec.iterations + 1)
            .sum();
        assert!(steps >= 100, "{steps} steps per pass");
    }
}

#[test]
fn replay_check_catches_a_one_bit_difference() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let w = SolverWorkload::ns_picard(Scale::Tiny);
    let built = w.build().expect("tiny build");
    let mut r = table3bench::solver::pass(&w, &built);
    assert!(r.problems.is_empty(), "{:?}", r.problems);
    let mut l = table3bench::layers::Layers::default();
    let (_, problems) = table3bench::solver::traced_pass(&w, &built, &r.outcomes, &mut l);
    assert!(problems.is_empty(), "{problems:?}");
    let o = r.outcomes[1].as_mut().expect("cell ran");
    o.control[0] = f64::from_bits(o.control[0].to_bits() ^ 1);
    let (_, problems) = table3bench::solver::traced_pass(&w, &built, &r.outcomes, &mut l);
    assert_eq!(problems.len(), 1, "{problems:?}");
}
