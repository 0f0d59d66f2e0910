//! Quickstart: identify on-line functionally untestable faults, first on a
//! hand-built toy circuit and then on a generated SoC.
//!
//! Run with `cargo run --release --example quickstart`.

use untestable_repro::prelude::*;

fn toy_circuit() {
    println!("== toy circuit ==");
    // A two-gate circuit in which one input is a debug enable that is tied to
    // ground in mission mode.
    let mut b = NetlistBuilder::new("toy");
    let data = b.input("data");
    let debug_enable = b.input("debug_enable");
    let forced = b.input("debug_force_value");
    let muxed = b.mux2(data, forced, debug_enable);
    let y = b.not(muxed);
    b.output("y", y);
    let design = b.finish();

    // Express the mission configuration as analysis constraints and let the
    // structural engine classify the fault universe.
    let mut constraints = atpg::ConstraintSet::full_scan();
    constraints.tie_net(debug_enable, false);
    let mut faults = FaultList::full_universe(&design);
    let untestable = StructuralAnalysis::with_constraints(constraints)
        .run(&design, &mut faults)
        .expect("analysis");

    println!("fault universe : {}", faults.len());
    println!("untestable     : {untestable}");
    for (fault, class) in faults.iter() {
        if class.is_untestable() {
            println!("  {:<28} {}", fault.describe(&design), class);
        }
    }
    println!();
}

fn generated_soc() {
    println!("== generated SoC (reduced configuration) ==");
    let soc = SocBuilder::small().build();
    let stats = netlist::stats::stats(&soc.netlist);
    println!(
        "design `{}`: {} cells, {} scan flip-flops, {} stuck-at faults",
        soc.netlist.name(),
        stats.total_cells,
        stats.scan_flip_flops,
        stats.stuck_at_faults()
    );

    let report = IdentificationFlow::new(FlowConfig::default())
        .run(&soc)
        .expect("identification flow");
    println!("{report}");
}

fn main() {
    toy_circuit();
    generated_soc();
}
