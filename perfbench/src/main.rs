//! The ncql repository benchmark.
//!
//! ```text
//! ncql-perfbench --workload <wire_small|wire_bulk|analytic> --seed <n>
//!                --seconds <s> --trace <0|1> [--rev <git revision>]
//! ```
//!
//! Every workload is a closed loop generated from the seed. With
//! `--trace 0` a run reports the end-to-end metrics; with `--trace 1` it
//! spends half the time on the untraced loop and half on a traced replay of
//! the same inputs, and reports the per-layer metrics. Every result is
//! checked against an independent oracle after the clock stops; the last
//! line of standard output is one JSON object, and the exit code is non-zero
//! when any check fails.

mod analytic;
mod common;
mod wire;

use common::RunResult;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rev: String,
}

const WORKLOADS: &[&str] = &["wire_small", "wire_bulk", "analytic"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        rev: "unknown".to_string(),
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--rev" => args.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn print_result(args: &Args, result: &RunResult) -> bool {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let config = match args.workload.as_str() {
        "analytic" => analytic::describe_config(),
        _ => wire::describe_config(),
    };
    println!(
        "config: workload={} seed={} seconds={} trace={} rev={} nproc={nproc} {config}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.rev
    );
    for note in &result.notes {
        println!("{note}");
    }
    for mismatch in &result.mismatches {
        println!("MISMATCH: {mismatch}");
    }
    let correct = result.failed == 0 && result.mismatches.is_empty();
    let mut metrics = Vec::new();
    for m in &result.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
    correct
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ncql-perfbench: {message}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "analytic" => analytic::run(&args),
        _ => wire::run(&args),
    };
    match outcome {
        Ok(mut result) => {
            // Failed, refused and wrong requests over those attempted. The
            // metric is its complement, which is never 0.
            let error_ratio = result.failed as f64 / result.attempted.max(1) as f64;
            result.note(format!(
                "error_ratio: {error_ratio} ({} of {})",
                result.failed, result.attempted
            ));
            if !args.trace {
                result.metric("success_ratio", 1.0 - error_ratio, "ratio");
            }
            if !print_result(&args, &result) {
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("ncql-perfbench: {message}");
            std::process::exit(1);
        }
    }
}
