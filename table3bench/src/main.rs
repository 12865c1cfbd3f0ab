//! Command line of the Table 3 benchmark:
//!
//! ```text
//! table3bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a readable log, then as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

use meshfree_oc::runtime::config::{THREADS_ENV, TRACE_ENV};
use meshfree_oc::runtime::RuntimeConfig;
use std::process::ExitCode;
use table3bench::solver::Scale;
use table3bench::Args;

/// Thread-pool width of every run.
const POOL_WIDTH: usize = 1;

#[global_allocator]
static ALLOC: meshfree_oc::control::metrics::TrackingAllocator =
    meshfree_oc::control::metrics::TrackingAllocator;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        min_passes: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Timing with the program's own tracing on would measure the sink,
    // not the program.
    if std::env::var_os(TRACE_ENV).is_some() {
        eprintln!("table3bench: refusing to time with {TRACE_ENV} set");
        return ExitCode::from(2);
    }
    // The caller's runtime knobs are ignored, so results do not depend on
    // the environment; all are cleared before anything resolves the
    // process-wide configuration. The pool width is then fixed at one
    // worker: on a small shared host, keeping two vCPUs busy draws several
    // times the hypervisor steal of one, and run-to-run medians moved by
    // 20-34 % at width 2 against about 3 % at width 1 (see README.md).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MESHFREE_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var(THREADS_ENV, POOL_WIDTH.to_string());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("table3bench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RuntimeConfig::global();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# table3bench workload={} seed={} trace={} seconds={} nproc={nproc} threads={} \
         batch_window_ms={} cache_bytes={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        cfg.threads,
        cfg.batch_window.as_secs_f64() * 1e3,
        cfg.cache_bytes
    );
    let outcome = match table3bench::run(&args, Scale::Full) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("table3bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for p in &outcome.problems {
        println!("# FAILED {p}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<32} {value:>14.6} {unit}");
    }
    println!(
        "error_rate {:?} ({} of {} operations failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
