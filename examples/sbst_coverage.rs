//! The pay-off of the paper (§4): pruning on-line functionally untestable
//! faults raises the fault-coverage figure reported for an SBST suite.
//!
//! This example runs the *full staged pipeline* on the industrial SoC:
//!
//! 1. baseline structural analysis plus the four §3 screening rules,
//! 2. compiled-engine fault simulation of the whole surviving universe
//!    against the four-program SBST suite, observing only the system bus,
//! 3. the constraint-aware PODEM/SAT proof portfolio over **every** fault
//!    that survives both — cone-clipped, SCOAP-guided and
//!    collapse-scheduled, with PODEM aborts escalated to the SAT backend —
//!    re-labelling everything it proves as `OU(atpg-proof)`.
//!
//! The coverage figures are then exact (every fault graded, no sampling):
//! detected / universe before pruning, detected / (universe − untestable)
//! after.
//!
//! # Invocations
//!
//! ```console
//! $ cargo run --release --example sbst_coverage              # full industrial run
//! $ cargo run --release --example sbst_coverage -- --quick   # reduced SoC, for iterating
//! $ cargo run --release --example sbst_coverage -- --threads 4
//! $ cargo run --release --example sbst_coverage -- --max-proof 2000 --seed 2013
//! $ cargo run --release --example sbst_coverage -- --no-sat
//! ```
//!
//! * `--quick` runs the reduced SoC instead of the industrial one, cutting
//!   the multi-minute run down to seconds;
//! * `--threads N` pins the proof-stage fan-out (default: the machine's
//!   available parallelism; classifications are thread-invariant);
//! * `--max-proof N` caps the proof worklist at `N` survivors (default:
//!   unlimited — the whole survivor set is proven);
//! * `--seed S` draws the capped worklist as a seeded random sample of the
//!   survivors instead of a universe-order prefix (only meaningful together
//!   with `--max-proof`);
//! * `--no-sat` turns the SAT escalation off (PODEM only), a faster pass
//!   when iterating on the industrial SoC.

use faultmodel::UntestableSource;
use online_untestable::flow::ProofStageConfig;
use untestable_repro::prelude::*;

/// Parsed command line; see the example header for the meaning of each flag.
struct Options {
    quick: bool,
    threads: usize,
    max_proof: Option<usize>,
    seed: Option<u64>,
    sat: bool,
}

fn parse_options() -> Options {
    let mut options = Options {
        quick: false,
        threads: 0,
        max_proof: None,
        seed: None,
        sat: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--threads" => {
                options.threads = value("--threads").parse().expect("--threads: integer")
            }
            "--max-proof" => {
                options.max_proof =
                    Some(value("--max-proof").parse().expect("--max-proof: integer"))
            }
            "--seed" => options.seed = Some(value("--seed").parse().expect("--seed: integer")),
            "--no-sat" => options.sat = false,
            other => panic!(
                "unknown argument `{other}` (expected --quick, --threads N, --max-proof N, \
                 --seed S, --no-sat)"
            ),
        }
    }
    options
}

fn main() {
    let options = parse_options();
    let soc = if options.quick {
        SocBuilder::small().build()
    } else {
        SocBuilder::industrial().build()
    };
    println!("design          : {}", soc.netlist.name());
    println!("nets            : {}", soc.netlist.num_nets());

    // The full pipeline. By default the proof stage attacks the *entire*
    // surviving undetected population: cone clipping, SCOAP guidance and
    // collapse scheduling keep the per-fault cost low enough that no budget
    // cap is needed.
    let config = FlowConfig {
        proof: ProofStageConfig {
            backtrack_limit: 16,
            threads: options.threads,
            max_faults: options.max_proof,
            sample_seed: options.seed,
            use_sat: options.sat,
            ..ProofStageConfig::default()
        },
        ..FlowConfig::full_pipeline()
    };
    let flow = IdentificationFlow::new(config);
    let (report, classified) = flow.run_with_faults(&soc).expect("identification flow");
    // The report's Display includes the per-stage walkthrough of the §4
    // procedure (classified / still-undetected / wall-clock per stage).
    println!("{report}");
    println!();

    let detected = report.counts.detected;
    let untestable = report.baseline_structural + report.total_untestable();
    let raw = report.coverage_before_pruning(detected);
    let pruned = report.coverage_after_pruning(detected);

    println!("fault universe              : {}", report.total_faults);
    println!("detected by the SBST suite  : {detected}");
    println!("untestable (all classes)    : {untestable}");
    println!(
        "proven by ATPG (atpg-proof) : {}",
        report.count_for(UntestableSource::AtpgProof)
    );
    if let Some(breakdown) = &report.engine_breakdown {
        println!("proof-engine breakdown      : {breakdown}");
    }
    println!("coverage before pruning     : {:.1}%", raw * 100.0);
    println!("coverage after pruning      : {:.1}%", pruned * 100.0);
    println!(
        "coverage gain from pruning  : {:+.1} percentage points",
        (pruned - raw) * 100.0
    );
    println!();
    println!(
        "The paper reports a ~13 percentage-point rise on its industrial SoC\n\
         once the 29,657 on-line functionally untestable faults are removed\n\
         from the fault list. The atpg-proof bucket is this reproduction's\n\
         extension: faults no structural rule can attribute, *proven*\n\
         untestable by the PODEM/SAT portfolio under the mission\n\
         constraints — over the full survivor set, not a budgeted slice."
    );
    assert!(
        report.count_for(UntestableSource::AtpgProof) > 0,
        "the proof stage should prove at least one fault"
    );

    // Cross-check the report against the classified list.
    assert_eq!(classified.counts(), report.counts);
}
