//! The four identification rules of §3: scan circuitry, debug control logic,
//! debug observation logic and memory-map address logic.
//!
//! The scan rule (§3.1) lists the faults to prune directly. The other three
//! are the paper's circuit manipulation, expressed as an
//! [`atpg::ConstraintSet`] over the unmodified netlist: the debug rules tie
//! every mission-constant control input ([`ConstraintSet::tie_net`], §3.2.1)
//! and mask every mission-unobserved output ([`ConstraintSet::mask_output`],
//! §3.2.2), and [`tie_memory_map`] ties the address-register bits the memory
//! map freezes (§3.3). The [`flow`](crate::flow) module screens the master
//! fault list under each set and records every hit as on-line untestable
//! from that source.

use atpg::ConstraintSet;
use faultmodel::StuckAt;
use netlist::{CellId, Netlist};

use cpu::mem::MemoryMap;
use dft::trace::{ScanElement, ScanTrace};

/// Applies the scan rule: walks the traced chains and enumerates the faults
/// that only matter when the scan infrastructure is exercised.
///
/// `mission_scan_enable` is the value the scan-enable signal holds in the
/// field (usually 0); the stuck-at fault of that polarity on every SE pin is
/// untestable while the opposite polarity (which would corrupt mission
/// behaviour, Fig. 2) is kept in the fault list. The faults come back
/// sorted and deduplicated.
pub fn scan_rule(netlist: &Netlist, trace: &ScanTrace, mission_scan_enable: bool) -> Vec<StuckAt> {
    let mut untestable = Vec::new();

    for chain in &trace.chains {
        // The scan-in port drives a net used only for shifting.
        untestable.push(StuckAt::output(chain.scan_in_port, false));
        untestable.push(StuckAt::output(chain.scan_in_port, true));

        for element in &chain.elements {
            match *element {
                ScanElement::Flop(ff) => {
                    let kind = netlist.cell(ff).kind();
                    if let Some(si) = kind.scan_in_pin() {
                        untestable.push(StuckAt::input(ff, si, false));
                        untestable.push(StuckAt::input(ff, si, true));
                    }
                    if let Some(se) = kind.scan_enable_pin() {
                        untestable.push(StuckAt::input(ff, se, mission_scan_enable));
                    }
                }
                ScanElement::Buffer(buf) => {
                    let cell = netlist.cell(buf);
                    for pin in 0..cell.inputs().len() {
                        untestable.push(StuckAt::input(buf, pin as netlist::PinIndex, false));
                        untestable.push(StuckAt::input(buf, pin as netlist::PinIndex, true));
                    }
                    if cell.output().is_some() {
                        untestable.push(StuckAt::output(buf, false));
                        untestable.push(StuckAt::output(buf, true));
                    }
                }
            }
        }

        if let Some(po) = chain.scan_out_port {
            untestable.push(StuckAt::input(po, 0, false));
            untestable.push(StuckAt::input(po, 0, true));
        }
    }

    // The scan-enable source itself: its stuck-at-mission-value fault can
    // never be observed (the signal is never driven to the scan value in the
    // field).
    for &se_net in &trace.scan_enable_nets {
        if let Some(driver) = netlist.driver_of(se_net) {
            untestable.push(StuckAt::output(driver, mission_scan_enable));
        }
    }

    untestable.sort_unstable();
    untestable.dedup();
    untestable
}

/// The §3.3 manipulation: ties the output and data-input nets of every
/// address-holding flip-flop whose address bit the memory map freezes to the
/// frozen value.
pub fn tie_memory_map(
    constraints: &mut ConstraintSet,
    netlist: &Netlist,
    address_registers: &[(CellId, u32)],
    memory_map: &MemoryMap,
) {
    let constant_bits = memory_map.constant_address_bits();
    for &(ff, bit) in address_registers {
        let Some(&(_, value)) = constant_bits.iter().find(|&&(b, _)| b == bit) else {
            continue;
        };
        // Output (Q) of the flip-flop…
        if let Some(q) = netlist.output_net(ff) {
            constraints.tie_net(q, value);
        }
        // …and its data input, exactly as §3.3 case 1.a prescribes (the tool
        // "stops the untestable identification process at flip flops").
        if let Some(d_pin) = netlist.cell(ff).kind().data_pin() {
            constraints.tie_net(netlist.input_net(ff, d_pin), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg::analysis::StructuralAnalysis;
    use cpu::soc::SocBuilder;
    use dft::trace::{find_scan_in_ports, trace_scan_chains};
    use faultmodel::{FaultClass, FaultList};

    fn small_soc() -> cpu::soc::Soc {
        SocBuilder::small().build()
    }

    /// Screens a fresh fault universe of `netlist` under `constraints` and
    /// returns the classified list with the number of untestable faults.
    fn screen(netlist: &Netlist, constraints: ConstraintSet) -> (FaultList, usize) {
        let mut faults = FaultList::full_universe(netlist);
        let untestable = StructuralAnalysis::with_constraints(constraints)
            .run(netlist, &mut faults)
            .unwrap();
        (faults, untestable)
    }

    #[test]
    fn scan_rule_counts_match_structure() {
        let soc = small_soc();
        let ports = find_scan_in_ports(&soc.netlist, "scan_in");
        let trace = trace_scan_chains(&soc.netlist, &ports, "scan_out").unwrap();
        let result = scan_rule(&soc.netlist, &trace, false);
        let n_flops = trace.num_flops();
        let n_buffers: usize = trace.chains.iter().map(|c| c.buffers().len()).sum();
        // Per flop: SI sa0 + SI sa1 + SE sa0 = 3 faults. Per buffer: 4 faults.
        // Per chain: 2 scan-in + 2 scan-out faults. Plus 1 scan-enable stem.
        let expected =
            3 * n_flops + 4 * n_buffers + 4 * trace.chains.len() + trace.scan_enable_nets.len();
        assert_eq!(result.len(), expected);
        assert!(n_flops > 100);
        assert!(n_buffers > 50);
    }

    #[test]
    fn scan_rule_keeps_the_dangerous_se_fault() {
        let soc = small_soc();
        let ports = find_scan_in_ports(&soc.netlist, "scan_in");
        let trace = trace_scan_chains(&soc.netlist, &ports, "scan_out").unwrap();
        let result = scan_rule(&soc.netlist, &trace, false);
        // No SE stuck-at-1 fault may appear in the pruned set (Fig. 2: that is
        // the one fault that still matters in mission mode).
        for chain in &trace.chains {
            for ff in chain.flops() {
                let se = soc.netlist.cell(ff).kind().scan_enable_pin().unwrap();
                let dangerous = StuckAt::input(ff, se, true);
                assert!(!result.contains(&dangerous));
            }
        }
    }

    #[test]
    fn debug_control_analysis_finds_untestable_cone() {
        let soc = small_soc();
        let mut constraints = ConstraintSet::full_scan();
        for net in soc.debug.control_input_nets() {
            constraints.tie_net(net, false);
        }
        let (faults, untestable) = screen(&soc.netlist, constraints);
        assert!(
            untestable > 0,
            "tying the debug inputs must kill some faults"
        );
        // The debug enable stuck-at-0 is among them.
        let enable_driver = soc.netlist.driver_of(soc.debug.enable_net).unwrap();
        assert!(faults
            .class_of(StuckAt::output(enable_driver, false))
            .unwrap()
            .is_structurally_untestable());
    }

    #[test]
    fn observation_analysis_kills_observation_buffers() {
        let soc = small_soc();
        let mut constraints = ConstraintSet::full_scan();
        for &po in &soc.debug.observation_ports {
            constraints.mask_output(po);
        }
        let (faults, untestable) = screen(&soc.netlist, constraints);
        assert!(untestable > 0);
        for &buf in &soc.debug.observation_buffers {
            for &fault in faults.faults().iter().filter(|f| f.site.cell() == buf) {
                assert!(
                    faults.class_of(fault).unwrap().is_structurally_untestable(),
                    "{fault:?}"
                );
            }
        }
    }

    #[test]
    fn memory_map_manipulation_ties_frozen_bits_only() {
        let soc = small_soc();
        let regs = soc.address_registers();
        let mut constraints = ConstraintSet::full_scan();
        tie_memory_map(&mut constraints, &soc.netlist, &regs, &soc.memory_map);
        let constant_bits: Vec<u32> = soc
            .memory_map
            .constant_address_bits()
            .iter()
            .map(|&(b, _)| b)
            .collect();
        let frozen_regs = regs
            .iter()
            .filter(|&&(_, bit)| constant_bits.contains(&bit))
            .count();
        // Two tied nets (D and Q) per frozen register bit.
        assert_eq!(constraints.forced_nets.len(), 2 * frozen_regs);
        assert!(frozen_regs > 0);
        let (_, untestable) = screen(&soc.netlist, constraints);
        assert!(untestable > 0);
    }

    #[test]
    fn baseline_analysis_is_mostly_testable() {
        let soc = small_soc();
        let (faults, untestable) = screen(&soc.netlist, ConstraintSet::full_scan());
        // Without any mission constraint only a small residue (tie cells,
        // padding in the reduced register file) is structurally untestable.
        let fraction = untestable as f64 / faults.len() as f64;
        assert!(
            fraction < 0.08,
            "baseline untestable fraction too high: {fraction:.3}"
        );
        assert!(faults.iter().any(|(_, c)| c == FaultClass::Undetected));
    }
}
