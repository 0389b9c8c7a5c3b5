//! The repository benchmark. See README.md for the workloads, metrics and
//! how to run it.
//!
//! ```text
//! epidemic-perfbench --workload <steady-cin|megascale|mixed-ops> --seed <n>
//!                    --seconds <s> --trace <0|1>
//! ```
//!
//! Prints report lines and a machine-and-build stamp, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics untraced, the per-layer metrics traced).

mod measure;
mod mega;
mod mixed;
mod probe;
mod seams;
mod steady;
mod tally;
#[cfg(test)]
mod tests;

use measure::{Budget, Checks, Metric};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: &[&str] = &["steady-cin", "megascale", "mixed-ops"];

/// One run's result.
pub struct Outcome {
    /// Output checks made.
    pub checks: Checks,
    /// Report lines for people.
    pub report: Vec<String>,
    /// The metrics, by name with unit.
    pub metrics: Vec<Metric>,
}

/// Runs `workload` on inputs generated from `seed`; `None` for an unknown
/// workload name.
pub fn run(workload: &str, seed: u64, budget: Budget, trace: bool) -> Option<Outcome> {
    let run = match workload {
        "steady-cin" => steady::run,
        "megascale" => mega::run,
        "mixed-ops" => mixed::run,
        _ => return None,
    };
    let mut checks = Checks::default();
    // Read before any workload input exists; the digests and per-trial
    // times the harness keeps later add a few kB.
    measure::harness_rss_mb();
    let mut report = Vec::new();
    let metrics = run(seed, budget, trace, &mut checks, &mut report);
    for &(name, value, _) in &metrics {
        checks.record(value.is_finite(), || format!("{name} is not finite"));
    }
    Some(Outcome {
        checks,
        report,
        metrics,
    })
}

struct Args {
    workload: String,
    seed: u64,
    budget: Budget,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Budget::Seconds(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // Measure the library defaults: the store backend and thread counts
    // are pinned here and in the workloads, never inherited.
    std::env::remove_var("EPIDEMIC_BACKEND");
    std::env::remove_var("EPIDEMIC_THREADS");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(outcome) = run(&args.workload, args.seed, args.budget, args.trace) else {
        eprintln!(
            "error: unknown workload {:?} (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    for line in &outcome.report {
        println!("# {line}");
    }
    for failure in &outcome.checks.failures {
        println!("# FAILED: {failure}");
    }
    let checks = &outcome.checks;
    println!(
        "# failed_share: {} ({} of {} checks)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for &(name, value, unit) in &outcome.metrics {
        println!("# {name} = {value} {unit}");
    }
    println!("# stamp {}", probe::stamp());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.join(",")
    );
}
