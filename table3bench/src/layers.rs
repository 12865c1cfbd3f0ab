//! Per-layer accounting for the traced runs.
//!
//! Two sources feed one [`Layers`] table:
//!
//! * the benchmark's own clocks around calls into each layer's public
//!   functions ([`Layers::time`]); these calls never nest, so their sum is
//!   the attributed self time behind `trace.coverage`;
//! * the spans, counters and solve events the program already emits,
//!   collected by a `runtime::trace::MemorySink` and folded in by
//!   [`Layers::fold_trace`]. These nest inside the benchmark's calls
//!   (an `lu_refactor` runs inside a gradient), so they split a layer's
//!   time further but never add to coverage.

use meshfree_oc::runtime::trace::{self, MemorySink, TraceEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Benchmark-clocked layers whose times do not nest (the coverage sum).
const TOP_LEVEL: &[&str] = &[
    "pde.grad_s",
    "pde.cost_s",
    "autodiff.hvp_s",
    "opt.step_self_s",
    "nn.surrogate_train_s",
    "control.surrogate_opt_s",
    "control.pinn_s",
];

/// Named per-layer quantities (seconds, counts) of one traced phase.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to the named quantity.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// The named quantity (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Times one call into a layer: its seconds go to `time_key`, and one
    /// call is counted under `calls_key` when given.
    pub fn time<T>(
        &mut self,
        time_key: &'static str,
        calls_key: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t = Instant::now();
        let out = f();
        self.add(time_key, t.elapsed().as_secs_f64());
        if let Some(k) = calls_key {
            self.add(k, 1.0);
        }
        out
    }

    /// Sum of the non-nesting benchmark-clocked layers.
    pub fn attributed_s(&self) -> f64 {
        TOP_LEVEL.iter().map(|k| self.get(k)).sum()
    }

    /// Folds the program's own telemetry into the table.
    pub fn fold_trace(&mut self, events: &[TraceEvent]) {
        for e in events {
            match *e {
                TraceEvent::Span { name, micros } => {
                    let s = micros as f64 * 1e-6;
                    match name {
                        "lu_factor" => self.add("linalg.lu_factor_s", s),
                        "lu_refactor" => {
                            self.add("linalg.lu_refactor_s", s);
                            self.add("linalg.lu_refactor_calls", 1.0);
                        }
                        "gmres_solve" => self.add("linalg.gmres_s", s),
                        "ns_solve" => self.add("pde.ns_solve_s", s),
                        _ => {}
                    }
                }
                TraceEvent::Counter { name, .. } => match name {
                    "ilu0_jacobi_fallback" => self.add("linalg.ilu0_jacobi_fallbacks", 1.0),
                    "serve_cache_hit" => self.add("serve.cache_hits", 1.0),
                    "serve_cache_miss" => self.add("serve.cache_misses", 1.0),
                    _ => {}
                },
                TraceEvent::Solve {
                    layer,
                    solver,
                    event,
                } => match (layer, solver) {
                    ("pde", "ns_picard") => self.add("pde.picard_sweeps", 1.0),
                    // One event per backend solve, carrying its Krylov
                    // iteration count (the per-iteration "linear" events
                    // would count the same iterations again).
                    ("linsolve", _) => {
                        self.add("linalg.gmres_iters", event.iter as f64);
                        self.add("linalg.gmres_solves", 1.0);
                    }
                    _ => {}
                },
            }
        }
    }
}

/// An installed in-memory trace sink. Tracing stays on until
/// [`Capture::finish`], which uninstalls the sink so `trace::enabled()`
/// is false again for the untraced passes that follow.
pub struct Capture {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl Capture {
    /// Installs a fresh sink.
    pub fn start() -> Capture {
        let (sink, events) = MemorySink::new();
        trace::set_sink(Box::new(sink));
        Capture { events }
    }

    /// Uninstalls the sink and returns what it recorded.
    pub fn finish(self) -> Vec<TraceEvent> {
        trace::clear_sink();
        std::mem::take(&mut *self.events.lock().expect("trace buffer poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshfree_oc::runtime::trace::SolveEvent;

    fn solve(layer: &'static str, solver: &'static str, iter: usize) -> TraceEvent {
        TraceEvent::Solve {
            layer,
            solver,
            event: SolveEvent {
                iter,
                residual: 0.0,
                cost: f64::NAN,
                grad_norm: f64::NAN,
            },
        }
    }

    #[test]
    fn fold_maps_program_telemetry_onto_layer_names() {
        let mut l = Layers::default();
        l.fold_trace(&[
            TraceEvent::Span {
                name: "lu_refactor",
                micros: 1500,
            },
            TraceEvent::Span {
                name: "lu_refactor",
                micros: 500,
            },
            TraceEvent::Counter {
                name: "ilu0_jacobi_fallback",
                value: 1.0,
            },
            TraceEvent::Counter {
                name: "serve_cache_hit",
                value: 4096.0,
            },
            solve("linsolve", "gmres_ilu0", 12),
            solve("linsolve", "gmres_ilu0", 8),
            solve("linear", "gmres", 3),
            solve("pde", "ns_picard", 0),
        ]);
        assert_eq!(l.get("linalg.lu_refactor_s"), 0.002);
        assert_eq!(l.get("linalg.lu_refactor_calls"), 2.0);
        assert_eq!(l.get("linalg.ilu0_jacobi_fallbacks"), 1.0);
        assert_eq!(l.get("serve.cache_hits"), 1.0);
        assert_eq!(l.get("linalg.gmres_iters"), 20.0);
        assert_eq!(l.get("linalg.gmres_solves"), 2.0);
        assert_eq!(l.get("pde.picard_sweeps"), 1.0);
        assert_eq!(l.attributed_s(), 0.0);
    }
}
