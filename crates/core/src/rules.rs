//! The four identification rules of §3: scan circuitry, debug control logic,
//! debug observation logic and memory-map address logic.
//!
//! Each rule produces either a direct list of faults to prune (scan) or a
//! circuit [`Manipulation`] whose structural
//! analysis reveals the on-line functionally untestable faults of that
//! source. The [`flow`](crate::flow) module composes them and re-labels the
//! findings into the master fault list.

use crate::manipulate::Manipulation;
use atpg::analysis::StructuralAnalysis;
use faultmodel::{FaultList, StuckAt};
use netlist::{CellId, NetId, Netlist};

use cpu::mem::MemoryMap;
use dft::trace::{ScanElement, ScanTrace};

/// Faults identified by the scan rule (§3.1), grouped for reporting.
#[derive(Clone, Debug, Default)]
pub struct ScanRuleResult {
    /// The on-line functionally untestable faults: SI pins, mission-value SE
    /// pins, scan-path buffers, scan-in nets and scan-out pins.
    pub untestable: Vec<StuckAt>,
}

/// Applies the scan rule: walks the traced chains and enumerates the faults
/// that only matter when the scan infrastructure is exercised.
///
/// `mission_scan_enable` is the value the scan-enable signal holds in the
/// field (usually 0); the stuck-at fault of that polarity on every SE pin is
/// untestable while the opposite polarity (which would corrupt mission
/// behaviour, Fig. 2) is kept in the fault list.
pub fn scan_rule(
    netlist: &Netlist,
    trace: &ScanTrace,
    mission_scan_enable: bool,
) -> ScanRuleResult {
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
    ScanRuleResult { untestable }
}

/// Builds the §3.2.1 manipulation: tie every debug/test control input to the
/// constant it holds in mission mode.
pub fn debug_control_manipulation(tied_inputs: &[(NetId, bool)]) -> Manipulation {
    let mut m = Manipulation::new();
    for &(net, value) in tied_inputs {
        m.tie_net(net, value);
    }
    m
}

/// Builds the §3.2.2 manipulation: disconnect every debug observation output.
pub fn debug_observation_manipulation(outputs: &[CellId]) -> Manipulation {
    let mut m = Manipulation::new();
    for &po in outputs {
        m.float_output(po);
    }
    m
}

/// Builds the §3.3 manipulation: tie the input and output nets of every
/// address-holding flip-flop whose address bit is frozen by the memory map.
pub fn memory_map_manipulation(
    netlist: &Netlist,
    address_registers: &[(CellId, u32)],
    memory_map: &MemoryMap,
) -> Manipulation {
    let constant_bits = memory_map.constant_address_bits();
    let mut m = Manipulation::new();
    for &(ff, bit) in address_registers {
        let Some(&(_, value)) = constant_bits.iter().find(|&&(b, _)| b == bit) else {
            continue;
        };
        // Output (Q) of the flip-flop…
        if let Some(q) = netlist.output_net(ff) {
            m.tie_net(q, value);
        }
        // …and its data input, exactly as §3.3 case 1.a prescribes (the tool
        // "stops the untestable identification process at flip flops").
        if let Some(d_pin) = netlist.cell(ff).kind().data_pin() {
            let d_net = netlist.input_net(ff, d_pin);
            m.tie_net(d_net, value);
        }
    }
    m
}

/// Runs the structural analysis of a manipulation over a fresh copy of the
/// fault universe and returns the classified copy together with the number of
/// untestable faults found.
///
/// # Errors
///
/// Returns an error string if the design cannot be levelized.
pub fn analyse_manipulation(
    netlist: &Netlist,
    manipulation: &Manipulation,
) -> Result<(FaultList, usize), String> {
    let mut faults = FaultList::full_universe(netlist);
    let outcome = StructuralAnalysis::with_constraints(manipulation.to_constraints())
        .run(netlist, &mut faults)
        .map_err(|e| e.to_string())?;
    Ok((faults, outcome.total_untestable()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu::soc::SocBuilder;
    use dft::trace::{find_scan_in_ports, trace_scan_chains};
    use faultmodel::FaultClass;

    fn small_soc() -> cpu::soc::Soc {
        SocBuilder::small().build()
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
        assert_eq!(result.untestable.len(), expected);
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
                assert!(!result.untestable.contains(&dangerous));
            }
        }
    }

    #[test]
    fn debug_control_analysis_finds_untestable_cone() {
        let soc = small_soc();
        let tied: Vec<(NetId, bool)> = soc
            .debug
            .control_input_nets()
            .into_iter()
            .map(|n| (n, false))
            .collect();
        let manipulation = debug_control_manipulation(&tied);
        let (faults, untestable) = analyse_manipulation(&soc.netlist, &manipulation).unwrap();
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
        let manipulation = debug_observation_manipulation(&soc.debug.observation_ports);
        let (faults, untestable) = analyse_manipulation(&soc.netlist, &manipulation).unwrap();
        assert!(untestable > 0);
        for &buf in &soc.debug.observation_buffers {
            for fault in faults.faults_of_cell(buf) {
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
        let manipulation = memory_map_manipulation(&soc.netlist, &regs, &soc.memory_map);
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
        // Two tie steps (D and Q) per frozen register bit.
        assert_eq!(manipulation.len(), 2 * frozen_regs);
        assert!(frozen_regs > 0);
        let (_, untestable) = analyse_manipulation(&soc.netlist, &manipulation).unwrap();
        assert!(untestable > 0);
    }

    #[test]
    fn baseline_analysis_is_mostly_testable() {
        let soc = small_soc();
        let (faults, untestable) =
            analyse_manipulation(&soc.netlist, &Manipulation::new()).unwrap();
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
