//! The request batcher: coalesces same-operator Laplace evaluations
//! arriving within a window into one blocked multi-RHS solve.
//!
//! Full `run` requests are iterative optimizations and execute
//! individually; lightweight `eval` requests (one objective value per
//! control vector) are the batchable workload — the "millions of users
//! with distinct objectives on shared geometry" shape. When several
//! clients' evals against the same [`build_key`] land within the
//! batching window, the worker drains them together and calls
//! [`cost_many`], which forwards the whole block to the backend's
//! `solve_many` — one pass over the cached `Lu` factors instead of one
//! per request. On the dense backend that pass runs register-blocked
//! kernels whose per-request substitution chains overlap, so coalescing
//! wins from a batch of two: two evals cost well under two standalone
//! solves (gated by `lu_solve_many_w2_vs_loop` in `BENCH_perf.json`).
//!
//! [`build_key`]: control::api::ProblemSpec::build_key
//! [`cost_many`]: pde::LaplaceControlProblem::cost_many
//!
//! Coalescing is invisible in the answers: `solve_many`'s bitwise
//! contract guarantees each client receives exactly the bits of a
//! standalone evaluation, whatever batch its request rode in. The
//! `batch` scalar on the response reports how many requests shared the
//! solve, purely as telemetry.
//!
//! Window semantics: the worker sleeps until a first request arrives,
//! then keeps the window open for [`Batcher::window`] and drains
//! everything queued when it closes. A zero window degrades gracefully
//! to per-request solves under light load.

use control::api::BuiltProblem;
use linalg::DVec;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Environment variable holding the batching window in milliseconds
/// (re-exported from [`meshfree_runtime::config`], where all
/// `MESHFREE_*` knobs now resolve).
pub const BATCH_WINDOW_ENV: &str = meshfree_runtime::config::BATCH_WINDOW_ENV;

/// Default batching window when [`BATCH_WINDOW_ENV`] is unset.
pub const DEFAULT_BATCH_WINDOW: Duration = meshfree_runtime::config::DEFAULT_BATCH_WINDOW;

/// One batched evaluation answer: the objective value and the size of
/// the batch that computed it.
pub type EvalAnswer = Result<(f64, usize), String>;

struct Pending {
    key: String,
    problem: Arc<BuiltProblem>,
    control: DVec,
    reply: Sender<EvalAnswer>,
}

#[derive(Default)]
struct Queue {
    pending: Vec<Pending>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    arrived: Condvar,
}

/// Handle to the batching worker. Dropping it drains the queue and joins
/// the worker thread.
pub struct Batcher {
    shared: Arc<Shared>,
    window: Duration,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the batching worker with the given window.
    pub fn new(window: Duration) -> Batcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            arrived: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("serve-batcher".into())
            .spawn(move || worker_loop(&worker_shared, window))
            .expect("spawn batcher worker");
        Batcher {
            shared,
            window,
            worker: Some(worker),
        }
    }

    /// Starts the worker with the window from the process-wide
    /// [`RuntimeConfig`](meshfree_runtime::RuntimeConfig) — i.e.
    /// [`BATCH_WINDOW_ENV`] when set, [`DEFAULT_BATCH_WINDOW`] otherwise.
    pub fn from_env() -> Batcher {
        Batcher::new(meshfree_runtime::RuntimeConfig::global().batch_window)
    }

    /// The configured batching window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Enqueues one evaluation; the answer arrives on the returned
    /// receiver once the window closes and the batch solves.
    pub fn submit(
        &self,
        key: String,
        problem: Arc<BuiltProblem>,
        control: DVec,
    ) -> Receiver<EvalAnswer> {
        let (reply, rx) = channel();
        let mut q = self.shared.queue.lock().expect("batch queue poisoned");
        q.pending.push(Pending {
            key,
            problem,
            control,
            reply,
        });
        self.shared.arrived.notify_all();
        rx
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("batch queue poisoned");
            q.shutdown = true;
            self.shared.arrived.notify_all();
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, window: Duration) {
    loop {
        // Sleep until the first request opens a window (or shutdown).
        let drained = {
            let mut q = shared.queue.lock().expect("batch queue poisoned");
            while q.pending.is_empty() && !q.shutdown {
                q = shared.arrived.wait(q).expect("batch queue poisoned");
            }
            if q.pending.is_empty() && q.shutdown {
                return;
            }
            drop(q);
            // Hold the window open so concurrent clients can join the batch.
            if !window.is_zero() {
                std::thread::sleep(window);
            }
            let mut q = shared.queue.lock().expect("batch queue poisoned");
            std::mem::take(&mut q.pending)
        };
        solve_batches(drained);
    }
}

/// Groups the drained requests by build key (first-arrival order) and
/// answers each group with one batched solve.
fn solve_batches(drained: Vec<Pending>) {
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<Pending>> = HashMap::new();
    for p in drained {
        if !groups.contains_key(&p.key) {
            order.push(p.key.clone());
        }
        groups.entry(p.key.clone()).or_default().push(p);
    }
    for key in order {
        let group = groups.remove(&key).expect("key registered above");
        let size = group.len();
        match group[0].problem.laplace() {
            Some(problem) => {
                let controls: Vec<DVec> = group.iter().map(|p| p.control.clone()).collect();
                match problem.cost_many(&controls) {
                    Ok(costs) => {
                        for (p, cost) in group.iter().zip(costs) {
                            let _ = p.reply.send(Ok((cost, size)));
                        }
                    }
                    Err(e) => {
                        for p in &group {
                            let _ = p.reply.send(Err(format!("batched solve failed: {e}")));
                        }
                    }
                }
            }
            None => {
                for p in &group {
                    let _ = p
                        .reply
                        .send(Err(format!("eval is Laplace-only, got key {key:?}")));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use control::api::{ProblemSpec, RunSpec};

    fn laplace_built(nx: usize) -> (String, Arc<BuiltProblem>) {
        let spec: ProblemSpec = RunSpec::laplace().nx(nx).build().problem;
        (
            spec.build_key(),
            Arc::new(BuiltProblem::build(&spec).unwrap()),
        )
    }

    #[test]
    fn concurrent_evals_coalesce_and_match_standalone_costs_bitwise() {
        let (key, built) = laplace_built(8);
        let problem = built
            .laplace()
            .expect("laplace spec builds a laplace problem");
        let n = problem.n_controls();
        let batcher = Batcher::new(Duration::from_millis(40));
        let controls: Vec<DVec> = (0..6)
            .map(|k| DVec::from_fn(n, |i| 0.2 * ((i + 2 * k) as f64).cos()))
            .collect();
        let receivers: Vec<_> = controls
            .iter()
            .map(|c| batcher.submit(key.clone(), Arc::clone(&built), c.clone()))
            .collect();
        let mut max_batch = 0;
        for (c, rx) in controls.iter().zip(receivers) {
            let (cost, batch) = rx.recv().unwrap().unwrap();
            assert_eq!(cost.to_bits(), problem.cost(c).unwrap().to_bits());
            max_batch = max_batch.max(batch);
        }
        assert!(
            max_batch >= 2,
            "submissions within the window must coalesce (largest batch {max_batch})"
        );
    }

    #[test]
    fn non_laplace_evals_answer_with_an_error() {
        let spec: ProblemSpec = RunSpec::synthetic(4).build().problem;
        let built = Arc::new(BuiltProblem::build(&spec).unwrap());
        let batcher = Batcher::new(Duration::ZERO);
        let rx = batcher.submit(spec.build_key(), built, DVec::zeros(4));
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.contains("Laplace-only"), "{err}");
    }

    #[test]
    fn drop_joins_the_worker_cleanly() {
        let batcher = Batcher::new(Duration::ZERO);
        drop(batcher); // must not hang
    }
}
