//! End-to-end coverage of the decoupled pipeline: load committed circuits
//! through every frontend and run the generic screen+proof flow — the same
//! path the `untestable` CLI drives.

use untestable_repro::prelude::*;

fn circuit(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("circuits")
        .join(name)
}

/// The committed `synth_c432` circuit under its committed mission spec.
fn synth_c432() -> NetlistDesign {
    let netlist = load_netlist(circuit("synth_c432.bench"), None).unwrap();
    let spec =
        ConstraintSpec::parse(&std::fs::read_to_string(circuit("synth_c432.mission")).unwrap())
            .unwrap();
    NetlistDesign::with_constraints(netlist, &spec).unwrap()
}

#[test]
fn synth_c432_screen_plus_proof_matches_the_cli_run() {
    let design = synth_c432();
    let report = IdentificationFlow::new(FlowConfig::full_pipeline())
        .run(&design)
        .unwrap();
    // The pipeline degrades to screen + proof for a pure netlist.
    let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        ["baseline", "debug-control", "debug-observe", "atpg-proof"],
        "{report}"
    );
    // Exact deterministic results on the committed circuit + spec (the
    // proof engine is thread-invariant); these are the numbers the CLI
    // walkthrough in EXPERIMENTS.md advertises.
    assert_eq!(report.total_faults, 1136, "{report}");
    assert_eq!(report.total_untestable(), 184, "{report}");
    assert_eq!(
        report.count_for(faultmodel::UntestableSource::AtpgProof),
        27,
        "{report}"
    );
    assert_eq!(
        report.count_for(faultmodel::UntestableSource::DebugControl),
        60,
        "{report}"
    );
    assert_eq!(
        report.count_for(faultmodel::UntestableSource::DebugObservation),
        97,
        "{report}"
    );
    assert_eq!(
        report.total_faults,
        report.counts.total(),
        "report consistent"
    );
}

#[test]
fn synth_c432_campaign_fingerprint_is_pinned() {
    // The key every existing checkpoint and daemon cache entry for this
    // circuit was written under (the `fingerprint` line of
    // `untestable --checkpoint`); a change here orphans all of them. Engine
    // epoch 0 wrote `9d7e91e4b45d808f`.
    let design = synth_c432();
    let fingerprint = IdentificationFlow::new(FlowConfig::full_pipeline())
        .campaign_fingerprint(&design)
        .unwrap();
    assert_eq!(format!("{fingerprint:016x}"), "3bf0dbecd7c89e4e");
}

#[test]
fn engine_epoch_pins_budget_limited_verdicts() {
    // `untestable circuits/synth_c432.bench --constraints
    // circuits/synth_c432.mission --backtrack 0 --sat-conflicts 100`: budgets
    // this tight leave aborts in both columns, and a checkpoint or a cached
    // report replays those aborts. An engine change that moves any of these
    // counts must bump `ENGINE_EPOCH` (and update this pin with it), or a
    // resumed campaign would mix the old engine's aborts into the new
    // engine's verdicts.
    let design = synth_c432();
    let mut config = FlowConfig::full_pipeline();
    config.proof.backtrack_limit = 0;
    config.proof.sat_conflict_limit = 100;
    let report = IdentificationFlow::new(config).run(&design).unwrap();
    let expected = atpg::EngineBreakdown {
        podem_test_exists: 924,
        sat_test_exists: 28,
        sat_proven: 25,
        sat_aborted: 2,
        aborted_conflicts: 2,
        ..Default::default()
    };
    assert_eq!(
        (atpg::ENGINE_EPOCH, report.engine_breakdown),
        (1, Some(expected)),
        "{report}"
    );
}

#[test]
fn every_frontend_feeds_the_same_pipeline() {
    for file in ["c17.bench", "s27.bench", "half_adder.edif"] {
        let netlist = load_netlist(circuit(file), None).unwrap();
        let design = NetlistDesign::new(netlist);
        let report = IdentificationFlow::new(FlowConfig::full_pipeline())
            .run(&design)
            .unwrap();
        // Unconstrained circuits: baseline + proof only, and these classic
        // circuits are fully testable.
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["baseline", "atpg-proof"], "{file}: {report}");
        assert_eq!(report.total_untestable(), 0, "{file}: {report}");
    }
}

#[test]
fn soc_netlist_roundtrips_through_the_verilog_frontend() {
    // The SoC's own netlist survives a write→parse round-trip through the
    // frontend entry point, preserving its fault universe size.
    use netlist::verilog::write_verilog;
    use netlist::{frontend::parse_netlist, stats::stats};
    let soc = SocBuilder::small().build();
    let text = write_verilog(&soc.netlist);
    let parsed = parse_netlist(&text, Format::Verilog).unwrap();
    let s1 = stats(&soc.netlist);
    let s2 = stats(&parsed);
    assert_eq!(s1.stuck_at_faults(), s2.stuck_at_faults());
    assert_eq!(s1.scan_flip_flops, s2.scan_flip_flops);
    assert_eq!(s1.primary_inputs, s2.primary_inputs);
}
