//! Cross-crate integration tests: netlist I/O on the generated SoC, physical
//! vs constraint-based circuit manipulation, and end-to-end flow consistency.

use netlist::stats::stats;
use netlist::verilog::{parse_verilog, write_verilog};
use online_untestable::flow::{FlowConfig, IdentificationFlow};
use online_untestable::manipulate;
use untestable_repro::prelude::*;

#[test]
fn soc_netlist_round_trips_through_verilog() {
    let soc = SocBuilder::small().build();
    let text = write_verilog(&soc.netlist);
    assert!(text.contains("module soc_mini32"));
    let parsed = parse_verilog(&text).expect("parse the emitted netlist");
    let original = stats(&soc.netlist);
    let reparsed = stats(&parsed);
    assert_eq!(original.combinational_cells, reparsed.combinational_cells);
    assert_eq!(original.scan_flip_flops, reparsed.scan_flip_flops);
    assert_eq!(original.primary_inputs, reparsed.primary_inputs);
    assert_eq!(original.primary_outputs, reparsed.primary_outputs);
    assert_eq!(original.pins, reparsed.pins);
}

#[test]
fn physical_manipulation_matches_constraint_analysis() {
    let soc = SocBuilder::small().build();
    let mut constraints = ConstraintSet::full_scan();
    for (net, value) in soc.mission_tied_inputs() {
        constraints.tie_net(net, value);
    }

    // Constraint-based analysis on the original design.
    let mut faults = FaultList::full_universe(&soc.netlist);
    let untestable_constraints = StructuralAnalysis::with_constraints(constraints.clone())
        .run(&soc.netlist, &mut faults)
        .expect("analysis");

    // Physically edited design, analysed without extra constraints.
    let modified = manipulate::apply(&soc.netlist, &constraints);
    let mut faults = FaultList::full_universe(&modified);
    let physical = StructuralAnalysis::with_constraints(ConstraintSet::full_scan())
        .run(&modified, &mut faults)
        .expect("analysis");

    // The physical edit inserts tie-buffer cells (extra faults) and detaches
    // the original input drivers, so the counts are not identical — but the
    // identified untestable populations must be of the same order and the
    // physical one can only be larger or equal up to the inserted cells.
    assert!(physical > 0);
    assert!(untestable_constraints > 0);
    let ratio = physical as f64 / untestable_constraints as f64;
    assert!(
        (0.8..=1.5).contains(&ratio),
        "physical {physical} vs constraints {untestable_constraints}"
    );
}

#[test]
fn flow_report_is_internally_consistent() {
    let soc = SocBuilder::small().build();
    let (report, faults) = IdentificationFlow::new(FlowConfig::default())
        .run_with_faults(&soc)
        .expect("flow");
    // The report's counts equal the fault list's counts.
    assert_eq!(report.counts, faults.counts());
    // Every on-line untestable fault in the list is attributed to exactly one
    // source and the totals match.
    assert_eq!(
        report.total_untestable(),
        faults
            .iter()
            .filter(|(_, c)| matches!(c, FaultClass::OnlineUntestable(_)))
            .count()
    );
    // The summary percentages add up to the total row.
    let summary = report.summary();
    let sum: usize = summary.rows[..3].iter().map(|r| r.count).sum();
    assert_eq!(sum, summary.total_row().count);
    // Phase durations are recorded for every enabled phase.
    assert_eq!(report.phases.len(), 5);
    assert!(report.total_duration().as_nanos() > 0);
}

#[test]
fn pruning_never_decreases_the_coverage_figure() {
    let soc = SocBuilder::small().build();
    let report = IdentificationFlow::new(FlowConfig::default())
        .run(&soc)
        .expect("flow");
    for detected in [0usize, 100, 10_000, report.total_faults / 2] {
        let before = report.coverage_before_pruning(detected);
        let after = report.coverage_after_pruning(detected);
        assert!(after >= before, "detected={detected}");
    }
}

#[test]
fn staged_pipeline_proof_verdicts_survive_a_longer_sbst_campaign() {
    use cpu::sbst::{grade_suite, standard_suite, suite_stimuli};
    use online_untestable::flow::ProofStageConfig;

    // A reduced SoC keeps the full pipeline (SBST simulation + PODEM proofs)
    // affordable in the test build.
    let soc = SocBuilder::small()
        .core_config(cpu::core_gen::CoreConfig {
            num_regs: 4,
            btb_entries: 2,
            include_cycle_counter: false,
        })
        .build();
    let config = FlowConfig {
        sbst_max_cycles: 200,
        proof: ProofStageConfig {
            backtrack_limit: 8,
            threads: 0,
            max_faults: Some(1_500),
            ..ProofStageConfig::default()
        },
        ..FlowConfig::full_pipeline()
    };
    let (report, faults) = IdentificationFlow::new(config)
        .run_with_faults(&soc)
        .expect("flow");
    let proven: Vec<StuckAt> = faults
        .iter()
        .filter(|&(_, c)| {
            c == FaultClass::OnlineUntestable(faultmodel::UntestableSource::AtpgProof)
        })
        .map(|(f, _)| f)
        .collect();
    assert!(!proven.is_empty(), "{report}");

    // Soundness across stages: the proof stage only saw a 200-cycle SBST
    // budget; its untestability verdicts must hold against a far longer run
    // of the same suite observed at the system bus.
    let sim = atpg::FaultSim::new(&soc.netlist).expect("fault sim");
    let stimuli = suite_stimuli(&standard_suite(), &soc.interface, 1_500);
    let detected = grade_suite(&sim, &stimuli, &proven, &soc.interface.bus_output_ports);
    let escapes: Vec<&StuckAt> = proven
        .iter()
        .zip(&detected)
        .filter(|&(_, &d)| d)
        .map(|(f, _)| f)
        .collect();
    assert!(
        escapes.is_empty(),
        "faults proven untestable were detected on the bus: {escapes:?}"
    );
}

#[test]
fn disabled_scan_insertion_removes_the_scan_source() {
    use cpu::soc::SocConfig;
    use dft::scan::ScanConfig;
    // Build an SoC whose scan insertion produces a single chain without path
    // buffers; the scan source shrinks accordingly but never disappears
    // (SI/SE pins remain).
    let mut config = SocConfig {
        core: cpu::core_gen::CoreConfig::small(),
        scan: ScanConfig {
            num_chains: 1,
            insert_path_buffers: false,
            ..ScanConfig::default()
        },
        ..SocConfig::default()
    };
    config.bist = None;
    let soc = cpu::soc::SocBuilder::new(config).build();
    let report = IdentificationFlow::new(FlowConfig::default())
        .run(&soc)
        .expect("flow");
    let with_buffers = SocBuilder::small().build();
    let report_with_buffers = IdentificationFlow::new(FlowConfig::default())
        .run(&with_buffers)
        .expect("flow");
    let scan_a = report.count_for(faultmodel::UntestableSource::Scan);
    let scan_b = report_with_buffers.count_for(faultmodel::UntestableSource::Scan);
    assert!(scan_a > 0);
    assert!(
        scan_b > scan_a,
        "scan-path buffers must add to the scan-untestable population ({scan_b} vs {scan_a})"
    );
}
