//! `idbench` command line: runs one workload and prints the result object as
//! the last line of standard output. Exits non-zero when an output is wrong,
//! an operation failed, or a traced run's layer-mix check fails.

use idbench::{flows, service, Args, Workload, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("idbench: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::SocFlow => flows::run(&args),
        Workload::ServiceMix => service::run(&args),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("idbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed {} ({} run): {} operations, {} failed",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.gate.attempted,
        outcome.gate.failed
    );
    eprint!("{}", outcome.summary());
    for problem in &outcome.gate.problems {
        eprintln!("idbench: FAILED: {problem}");
    }
    for failure in &outcome.mix_failures {
        eprintln!("idbench: layer-mix check FAILED: {failure}");
    }
    if args.trace && outcome.mix_failures.is_empty() {
        eprintln!("idbench: layer-mix check passed");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() && outcome.mix_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
