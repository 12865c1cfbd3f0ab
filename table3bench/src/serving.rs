//! The served segment of `laplace_dense`'s traced run: an in-process
//! daemon driven by two closed-loop clients over `UnixStream::pair`.
//!
//! Client 0 sends only `eval` requests; client 1 sends a seeded shuffle of
//! `neural-eval` and `eval` requests with a short `run` every 50th. Each
//! client sends its next request only when the previous one is answered,
//! so a slower daemon receives less load. Every answer is checked against
//! direct in-process computation of the same request.
//!
//! Serving has no end-to-end metric: its latencies follow the host's
//! thread wake-up and steal state (see README.md), so it feeds only the
//! per-layer split of the cache, batcher, wire and solve.

use crate::layers::{Capture, Layers};
use crate::solver::Scale;
use crate::stats::{median, percentile};
use meshfree_oc::control::{
    BackendKind, BuiltProblem, LaplaceSurrogate, OptimizerKind, ProblemSpec, RunCtx, RunSpec,
    Strategy, SurrogateSpec,
};
use meshfree_oc::linalg::DVec;
use meshfree_oc::runtime::Rng64;
use meshfree_oc::serve::batch::DEFAULT_BATCH_WINDOW;
use meshfree_oc::serve::cache::DEFAULT_CACHE_BYTES;
use meshfree_oc::serve::wire::{self, Response};
use meshfree_oc::serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Cursor, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

const BACKEND: BackendKind = BackendKind::DenseLu;

/// One scripted request.
enum Req {
    Eval(DVec),
    Neural(DVec),
    Run(Box<RunSpec>),
}

/// What the client saw for one request.
struct Answer {
    latency_s: f64,
    /// `Cost` (eval, neural-eval) or `Record` (run) on success.
    response: Result<Response, String>,
}

/// The workload: the request scripts plus what each answer must equal.
pub struct ServeWorkload {
    nx: usize,
    n_controls: usize,
    neural_seed: u64,
    scripts: [Vec<Req>; 2],
    /// Direct results, per client and request: cost bits for evals, the
    /// cost-history bits for runs.
    expected: [Vec<Vec<u64>>; 2],
}

/// One pass over both scripts.
struct ServePass {
    /// Wall time until both clients finished their scripts.
    wall_s: f64,
    /// `eval` round-trip latencies (ms), in script order.
    eval_ms: Vec<f64>,
    /// `neural-eval` round-trip latencies (ms), in script order.
    neural_ms: Vec<f64>,
    /// `run` round-trip latencies (s), in script order.
    run_s: Vec<f64>,
    /// Requests sent (all kinds), each one checked operation.
    requests: usize,
    /// One line per failure.
    problems: Vec<String>,
    /// Coalesced batch width of each `eval` answer.
    batches: Vec<f64>,
}

fn random_control(rng: &mut Rng64, n: usize) -> DVec {
    DVec::from_fn(n, |_| rng.gen_range(-1.0..1.0))
}

impl ServeWorkload {
    /// Draws both scripts from `seed`.
    pub fn new(scale: Scale, seed: u64) -> ServeWorkload {
        let tiny = scale == Scale::Tiny;
        let nx = if tiny { 10 } else { 24 };
        let (evals0, evals1, neural1, runs1) = if tiny {
            (30, 12, 16, 2)
        } else {
            (600, 420, 560, 20)
        };
        let spec = ProblemSpec::Laplace {
            nx,
            backend: BACKEND,
        };
        let built = BuiltProblem::build(&spec).expect("laplace build");
        let n = built.laplace().expect("laplace build").n_controls();
        let mut rng = Rng64::seed_from_u64(seed);
        let neural_seed = rng.next_u64() >> 40;
        let script0: Vec<Req> = (0..evals0)
            .map(|_| Req::Eval(random_control(&mut rng, n)))
            .collect();
        // Client 1: a seeded shuffle of evals and neural evals, with a
        // short run in every 50th slot.
        let mut kinds: Vec<bool> = std::iter::repeat_n(true, evals1)
            .chain(std::iter::repeat_n(false, neural1))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.gen_range_usize(0..i + 1));
        }
        let mut script1 = Vec::new();
        let mut kinds = kinds.into_iter();
        let mut runs = 0;
        loop {
            if script1.len() % 50 == 25 && runs < runs1 {
                let strategy = if runs % 2 == 0 {
                    Strategy::Dal
                } else {
                    Strategy::Dp
                };
                runs += 1;
                script1.push(Req::Run(Box::new(
                    RunSpec::laplace()
                        .nx(nx)
                        .strategy(strategy)
                        .optimizer(OptimizerKind::Adam)
                        .iterations(20)
                        .lr(1e-2)
                        .build(),
                )));
                continue;
            }
            match kinds.next() {
                Some(true) => script1.push(Req::Eval(random_control(&mut rng, n))),
                Some(false) => script1.push(Req::Neural(random_control(&mut rng, n))),
                None => break,
            }
        }
        let mut w = ServeWorkload {
            nx,
            n_controls: n,
            neural_seed,
            scripts: [script0, script1],
            expected: [Vec::new(), Vec::new()],
        };
        w.expected = w.direct_results(&built);
        w
    }

    fn problem_spec(&self) -> ProblemSpec {
        ProblemSpec::Laplace {
            nx: self.nx,
            backend: BACKEND,
        }
    }

    /// Every request computed in-process on `built`, without the daemon.
    fn direct_results(&self, built: &BuiltProblem) -> [Vec<Vec<u64>>; 2] {
        let p = built.laplace().expect("laplace build");
        let surrogate = LaplaceSurrogate::train(p, &SurrogateSpec::default(), self.neural_seed)
            .expect("surrogate training");
        let mut runs: Vec<(String, Vec<u64>)> = Vec::new();
        let mut one = |req: &Req| -> Vec<u64> {
            match req {
                Req::Eval(c) => vec![p.cost(c).expect("direct eval").to_bits()],
                Req::Neural(c) => vec![surrogate.cost(c).to_bits()],
                Req::Run(spec) => {
                    let id = spec.id();
                    if let Some((_, bits)) = runs.iter().find(|(k, _)| *k == id) {
                        return bits.clone();
                    }
                    let run = built.execute(spec, &RunCtx::new()).expect("direct run");
                    let bits: Vec<u64> = run
                        .report
                        .history
                        .entries
                        .iter()
                        .map(|e| e.cost.to_bits())
                        .collect();
                    runs.push((id, bits.clone()));
                    bits
                }
            }
        };
        [
            self.scripts[0].iter().map(&mut one).collect(),
            self.scripts[1].iter().map(&mut one).collect(),
        ]
    }

    /// The daemon's set-up: a fresh server pinned to the shipped cache
    /// budget and batch window, warmed by a cold `eval` (the build) and a
    /// cold `neural-eval` (the surrogate training).
    fn setup(&self) -> Server {
        let server = Server::new(&ServeConfig {
            cache_bytes: DEFAULT_CACHE_BYTES,
            batch_window: DEFAULT_BATCH_WINDOW,
        });
        let zero = DVec::zeros(self.n_controls);
        let input = [
            wire::eval_request_line("setup-eval", self.nx, BACKEND, &zero),
            wire::neural_eval_request_line(
                "setup-neural",
                self.nx,
                BACKEND,
                self.neural_seed,
                &zero,
            ),
            wire::done_request_line("setup"),
        ]
        .join("\n")
            + "\n";
        let summary = server.serve_stream(Cursor::new(input.into_bytes()), Vec::new(), true);
        assert_eq!(summary.errors, 0, "set-up request failed");
        server
    }

    fn request_line(&self, id: &str, req: &Req) -> String {
        match req {
            Req::Eval(c) => wire::eval_request_line(id, self.nx, BACKEND, c),
            Req::Neural(c) => {
                wire::neural_eval_request_line(id, self.nx, BACKEND, self.neural_seed, c)
            }
            Req::Run(spec) => wire::run_request_line(id, spec),
        }
    }

    /// One closed-loop client session over `stream`.
    fn client(&self, who: usize, stream: UnixStream) -> Vec<Answer> {
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut writer = stream;
        let mut line = String::new();
        let mut answers = Vec::with_capacity(self.scripts[who].len());
        for (i, req) in self.scripts[who].iter().enumerate() {
            let id = format!("c{who}-{i}");
            let t = Instant::now();
            let sent = writeln!(writer, "{}", self.request_line(&id, req));
            let response = sent.map_err(|e| e.to_string()).and_then(|()| loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break Err("daemon closed the stream".to_string()),
                    Ok(_) => {}
                    Err(e) => break Err(e.to_string()),
                }
                match wire::parse_response(line.trim_end()) {
                    Ok(Response::Event { .. }) => continue,
                    Ok(r @ (Response::Cost { .. } | Response::Record(_))) => break Ok(r),
                    Ok(Response::Error { detail, .. }) => break Err(detail),
                    Ok(Response::Done { .. }) => break Err("unexpected done".to_string()),
                    Err(e) => break Err(e),
                }
            });
            answers.push(Answer {
                latency_s: t.elapsed().as_secs_f64(),
                response,
            });
        }
        let _ = writeln!(
            writer,
            "{}",
            wire::done_request_line(&format!("c{who}-done"))
        );
        // Drain to the daemon's acknowledgement so its session ends first.
        loop {
            line.clear();
            if reader.read_line(&mut line).map_or(true, |n| n == 0) {
                break;
            }
        }
        answers
    }

    /// One pass: both clients run their scripts against the daemon.
    fn pass(&self, server: &Server) -> ServePass {
        let t = Instant::now();
        let answers = std::thread::scope(|sc| {
            let mut daemons = Vec::new();
            let mut clients = Vec::new();
            for who in 0..2 {
                let (daemon_end, client_end) = UnixStream::pair().expect("socketpair");
                let writer = daemon_end.try_clone().expect("clone socket");
                daemons.push(sc.spawn(move || server.serve_stream(daemon_end, writer, false)));
                clients.push(sc.spawn(move || self.client(who, client_end)));
            }
            let answers: Vec<Vec<Answer>> = clients
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            for h in daemons {
                h.join().expect("daemon session");
            }
            answers
        });
        let wall_s = t.elapsed().as_secs_f64();
        let mut p = ServePass {
            wall_s,
            eval_ms: Vec::new(),
            neural_ms: Vec::new(),
            run_s: Vec::new(),
            requests: 0,
            problems: Vec::new(),
            batches: Vec::new(),
        };
        let clients = self.scripts.iter().zip(&answers).zip(&self.expected);
        for (who, ((script, answers), expected)) in clients.enumerate() {
            for ((req, ans), want) in script.iter().zip(answers).zip(expected) {
                p.requests += 1;
                match req {
                    Req::Eval(_) => p.eval_ms.push(ans.latency_s * 1e3),
                    Req::Neural(_) => p.neural_ms.push(ans.latency_s * 1e3),
                    Req::Run(_) => p.run_s.push(ans.latency_s),
                }
                let got: Result<Vec<u64>, String> = match (&ans.response, req) {
                    (Ok(Response::Cost { cost, batch, .. }), Req::Eval(_)) => {
                        p.batches.push(*batch as f64);
                        Ok(vec![cost.to_bits()])
                    }
                    (Ok(Response::Cost { cost, .. }), Req::Neural(_)) => Ok(vec![cost.to_bits()]),
                    (Ok(Response::Record(rec)), Req::Run(_)) => {
                        Ok(rec.cost_history.iter().map(|c| c.to_bits()).collect())
                    }
                    (Ok(_), _) => Err("answer of the wrong kind".to_string()),
                    (Err(e), _) => Err(e.clone()),
                };
                match got {
                    Ok(bits) if bits == *want => {}
                    Ok(_) => {
                        p.problems
                            .push(format!("client {who}: answer differs from direct result"));
                    }
                    Err(e) => {
                        p.problems.push(format!("client {who}: {e}"));
                    }
                }
            }
        }
        p
    }

    /// Per-layer split of a traced pass: direct solve and surrogate times
    /// on the daemon's own cached build, wire codec times on the same
    /// payloads, and queueing as the rest of the eval latency.
    fn layer_split(&self, server: &Server, pass: &ServePass, l: &mut Layers) {
        let spec = self.problem_spec();
        let (built, _) = server.cache().get_or_build(&spec).expect("cached build");
        let p = built.laplace().expect("laplace build");
        let neural_spec = RunSpec::laplace()
            .nx(self.nx)
            .backend(BACKEND)
            .strategy(Strategy::NeuralOp)
            .seed(self.neural_seed)
            .build();
        let surrogate = built.surrogate_for(&neural_spec).expect("cached surrogate");
        let (mut solve_ms, mut wire_ms, mut predict_ms) = (Vec::new(), Vec::new(), Vec::new());
        for (i, req) in self.scripts.iter().flatten().enumerate() {
            match req {
                Req::Eval(c) => {
                    let t = Instant::now();
                    let j = p.cost(c).expect("direct eval");
                    solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let t = Instant::now();
                    let id = format!("w{i}");
                    let line = wire::eval_request_line(&id, self.nx, BACKEND, c);
                    let parsed = wire::parse_request(&line).expect("request round trip");
                    let reply = wire::cost_line(&id, j, 1);
                    let back = wire::parse_response(&reply).expect("response round trip");
                    std::hint::black_box((parsed, back));
                    wire_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Req::Neural(c) => {
                    let t = Instant::now();
                    std::hint::black_box(surrogate.cost(c));
                    predict_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Req::Run(_) => {}
            }
        }
        let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
        let eval_p50 = med(&pass.eval_ms);
        let (solve, wire_t) = (med(&solve_ms), med(&wire_ms));
        l.add("serve.eval_solve_ms", solve);
        l.add("serve.wire_ms", wire_t);
        l.add("serve.eval_queue_ms", (eval_p50 - solve - wire_t).max(0.0));
        l.add("serve.neural_predict_ms", med(&predict_ms));
        l.add("serve.run_req_ms", med(&pass.run_s) * 1e3);
        l.add("serve.eval_p50_ms", eval_p50);
        l.add("serve.neural_eval_p50_ms", med(&pass.neural_ms));
        l.add(
            "serve.eval_p99_ms",
            percentile(&pass.eval_ms, 0.99).unwrap_or(0.0),
        );
        l.add("serve.req_per_s", pass.requests as f64 / pass.wall_s);
        l.add(
            "serve.batch_size_mean",
            pass.batches.iter().sum::<f64>() / pass.batches.len().max(1) as f64,
        );
    }

    /// One traced pass against a fresh daemon: folds the cache counters and
    /// the [`ServeWorkload::layer_split`] into `l`, and returns the checked
    /// requests and the failures.
    pub fn traced_segment(&self, l: &mut Layers) -> (usize, Vec<String>) {
        let server = self.setup();
        let capture = Capture::start();
        let pass = self.pass(&server);
        let mut folded = Layers::default();
        folded.fold_trace(&capture.finish());
        for k in ["serve.cache_hits", "serve.cache_misses"] {
            l.add(k, folded.get(k));
        }
        self.layer_split(&server, &pass, l);
        (pass.requests, pass.problems)
    }
}
