//! End-to-end and per-layer benchmark of the stdpar-nbody engine.
//!
//! ```text
//! perfbench --workload <galaxy-paper|plummer-fast|service-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints a host fingerprint and human-readable notes, then as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Any failed output check exits with status 1; a usage or set-up
//! error exits with status 2 before any result is printed. `--smoke`
//! shrinks every input for a seconds-long functional run.
//! The workloads, metrics and their definitions are in `README.md`.

mod checks;
mod host;
mod metrics;
mod replay;
mod service;
mod sims;
mod stats;
mod trace;

use checks::Check;
use metrics::{Values, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["galaxy-paper", "plummer-fast", "service-mixed"];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub values: Values,
    pub notes: Vec<String>,
}

/// Set every per-layer metric to 0, for layers a workload does not use.
pub fn zero_all(v: &mut Values) {
    for (name, _) in PER_LAYER {
        v.set(name, 0.0);
    }
}

/// The inventory's name for `base` + `suffix` (e.g. a `_1w` variant).
pub fn metric_name(base: &str, suffix: &str) -> Result<&'static str, String> {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_prefix(base) == Some(suffix))
        .ok_or_else(|| format!("no per-layer metric {base}{suffix}"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, got {t}")),
                })
            }
            "--smoke" => smoke = true,
            f => return Err(format!("unknown argument {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Run one workload; `Err` is a set-up or usage failure (no result).
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    workers: usize,
) -> Result<Outcome, String> {
    match workload {
        "galaxy-paper" => sims::run(&sims::galaxy_paper(smoke), seed, seconds, trace, workers),
        "plummer-fast" => sims::run(&sims::plummer_fast(smoke), seed, seconds, trace, workers),
        "service-mixed" => service::run(
            &service::service_mixed(smoke),
            seed,
            seconds,
            trace,
            workers,
        ),
        w => Err(format!("unknown workload {w}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    // Every parallel region runs on exactly `nproc` workers.
    stdpar::backend::set_threads(host.workers);
    println!("{}", host.describe(&args.workload, args.seed, args.trace));
    let outcome = match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        host.workers,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for n in &outcome.notes {
        println!("note: {n}");
    }
    let mut correct = true;
    for c in &outcome.checks {
        println!(
            "check: {} — {}: {}",
            c.name,
            if c.passed { "ok" } else { "FAILED" },
            c.detail
        );
        correct &= c.passed;
    }
    let defs: &[metrics::Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in defs {
        if let Some(v) = outcome.values.get(name) {
            println!("metric: {name} = {v} {unit}");
        }
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    match metrics::result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        defs,
        &outcome.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload runs end to end on shrunken inputs, traced and
    /// untraced, passes its checks and reports every metric.
    fn smoke(workload: &str) {
        let workers = stdpar::backend::hardware_parallelism();
        for trace in [false, true] {
            let out = run(workload, 7, 1.0, trace, true, workers).expect("smoke run");
            // Timing closure is meaningless on millisecond-sized smoke steps;
            // every output check must hold.
            for c in out.checks.iter().filter(|c| c.name != "1-worker closure") {
                assert!(
                    c.passed,
                    "{workload} trace={trace}: {} failed: {}",
                    c.name, c.detail
                );
            }
            let defs: &[metrics::Def] = if trace { &PER_LAYER } else { &END_TO_END };
            metrics::result_line(true, out.attempted, out.failed, defs, &out.values)
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(out.attempted >= 1);
            if !trace {
                for (name, _) in END_TO_END {
                    let v = out.values.get(name).unwrap();
                    assert!(v > 0.0, "{workload}: {name} = {v}");
                }
            }
        }
    }

    /// One test for all workloads: worker count and telemetry are
    /// process-global, so the runs must not overlap.
    #[test]
    fn smoke_every_workload() {
        for w in WORKLOADS {
            smoke(w);
        }
    }

    #[test]
    fn metric_name_finds_suffixed_variants() {
        assert_eq!(metric_name("bvh.sort_ms", "_1w"), Ok("bvh.sort_ms_1w"));
        assert_eq!(metric_name("bvh.sort_ms", ""), Ok("bvh.sort_ms"));
        assert!(metric_name("bvh.sort_ms", "_2w").is_err());
    }
}
