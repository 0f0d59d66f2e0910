//! The correctness gate: a flipped proof verdict and a mismatched service
//! report must each be counted as a failure and make the command exit
//! non-zero; an untouched run must pass. Run with
//! `cargo test --release --manifest-path idbench/Cargo.toml` from the
//! repository root (the command itself runs real flows and the daemon).

use atpg::proof::{EngineOutcome, ProofEngine};
use atpg::{ConstraintSet, ProofOutcome};
use faultmodel::FaultList;
use idbench::replay::{audit, replay};
use idbench::trace::Recorder;
use idbench::{Workload, END_TO_END, PER_LAYER};
use netlist::NetlistBuilder;
use online_untestable::JsonValue;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Runs the benchmark command; returns the exit success and the result
/// object printed as the last line. Concurrent tests use distinct seeds, so
/// they never share a trace file or a daemon state directory.
fn run(
    workload: &str,
    seed: &str,
    seconds: &str,
    trace: &str,
    inject: Option<&str>,
) -> (bool, JsonValue) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_idbench"));
    command.args([
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        seconds,
        "--trace",
        trace,
    ]);
    if let Some(defect) = inject {
        command.args(["--inject", defect]);
    }
    let output = command
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no result line; stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let result = JsonValue::parse(last).expect("the last line is JSON");
    (output.status.success(), result)
}

fn failed(result: &JsonValue) -> u64 {
    result.get("failed").and_then(JsonValue::as_u64).unwrap()
}

fn correct(result: &JsonValue) -> bool {
    result.get("correct").and_then(JsonValue::as_bool).unwrap()
}

#[test]
fn audit_counts_a_flipped_verdict() {
    // y = (a AND b) OR c, observed; every fault is testable.
    let mut b = NetlistBuilder::new("audit");
    let a = b.input("a");
    let c = b.input("b");
    let d = b.input("c");
    let t = b.and2(a, c);
    let y = b.or2(t, d);
    b.output("y", y);
    let netlist = b.finish();
    let constraints = ConstraintSet::full_scan();
    let faults = FaultList::full_universe(&netlist).faults().to_vec();
    let mut rec = Recorder::new(Instant::now());
    let root = rec.open("proof", None, 0);
    let mut outcomes = replay(&netlist, &constraints, &faults, 1, &mut rec, root, 0).outcomes;
    assert!(outcomes
        .iter()
        .all(|o| o.outcome == ProofOutcome::TestExists));
    let clean = audit(&netlist, &constraints, &faults, &outcomes, 1, usize::MAX);
    assert_eq!((clean.checked, clean.wrong.len()), (0, 0));

    outcomes[2] = EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Podem);
    outcomes[4] = EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Sat);
    let flipped = audit(&netlist, &constraints, &faults, &outcomes, 1, usize::MAX);
    assert_eq!(flipped.checked, 2);
    assert_eq!(flipped.wrong, vec![faults[2], faults[4]]);
}

// Five seconds of soc-flow is a 500-fault sample: long enough for SAT to
// outweigh the fixed SBST simulation, so the layer-mix check holds.
#[test]
fn flipped_verdict_fails_the_flow_run() {
    let (ok, result) = run("soc-flow", "3", "5", "1", Some("flip-verdict"));
    assert!(!ok, "a flipped verdict must exit non-zero");
    assert!(!correct(&result));
    assert!(failed(&result) >= 1);
}

#[test]
fn untouched_flow_run_passes() {
    let (ok, result) = run("soc-flow", "4", "5", "1", None);
    assert!(ok && correct(&result), "{result}");
    assert_eq!(failed(&result), 0);
}

#[test]
fn mismatched_report_fails_the_service_run() {
    let (ok, result) = run("service-mix", "3", "2", "0", Some("mismatch-report"));
    assert!(!ok, "a mismatched report must exit non-zero");
    assert!(!correct(&result));
    assert_eq!(failed(&result), 1);
    let (ok, result) = run("service-mix", "3", "2", "0", None);
    assert!(ok && correct(&result), "{result}");
}

#[test]
fn benchmark_json_lists_what_the_command_prints() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = JsonValue::parse(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expected = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), expected(END_TO_END));
    assert_eq!(listed("per_layer"), expected(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
