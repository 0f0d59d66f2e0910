//! Toggle / activity analysis over a functional simulation.
//!
//! The paper locates candidate mission-constant signals by looking at
//! "high-level code coverage metrics, such as toggle, switching and condition
//! coverage" collected while running the mature SBST suite: any signal that
//! never shows activity is a suspect (§4). This module reproduces that step
//! at gate level: it simulates the design over a set of input-vector
//! sequences and records, per net, which logic values were ever observed.

use atpg::{InputVector, Logic, SeqSim};
use netlist::{NetId, Netlist};
use std::collections::HashMap;

/// Per-net activity observed during the functional simulation.
#[derive(Clone, Debug)]
pub struct ToggleReport {
    saw_zero: Vec<bool>,
    saw_one: Vec<bool>,
    cycles: usize,
}

impl ToggleReport {
    /// Whether the net took both values at least once.
    pub fn toggled(&self, net: NetId) -> bool {
        self.saw_zero[net.index()] && self.saw_one[net.index()]
    }

    /// The constant value the net held throughout the simulation, if any
    /// (`None` if it toggled or was never definite).
    pub fn constant_value(&self, net: NetId) -> Option<bool> {
        match (self.saw_zero[net.index()], self.saw_one[net.index()]) {
            (true, false) => Some(false),
            (false, true) => Some(true),
            _ => None,
        }
    }

    /// Number of simulated cycles the report is based on.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Fraction of nets that toggled.
    pub fn toggle_coverage(&self) -> f64 {
        if self.saw_zero.is_empty() {
            return 0.0;
        }
        let toggled = (0..self.saw_zero.len())
            .filter(|&i| self.saw_zero[i] && self.saw_one[i])
            .count();
        toggled as f64 / self.saw_zero.len() as f64
    }

    /// Primary-input nets of `netlist` that never showed any activity, with
    /// the constant value they held — the "suspect" signals of §4 that the
    /// debug-control rule then ties off.
    pub fn suspect_inputs(&self, netlist: &Netlist) -> Vec<(NetId, bool)> {
        netlist
            .primary_input_nets()
            .into_iter()
            .filter_map(|net| self.constant_value(net).map(|v| (net, v)))
            .collect()
    }
}

/// Simulates every vector sequence (each starting from the all-zero reset
/// state) and accumulates per-net activity.
///
/// Input nets not mentioned by a vector default to logic 0 — their mission
/// (inactive) value — so unconnected test interfaces naturally show no
/// activity.
///
/// # Errors
///
/// Returns the levelization error message if the design is cyclic.
pub fn analyze_toggles(
    netlist: &Netlist,
    sequences: &[Vec<InputVector>],
) -> Result<ToggleReport, String> {
    let sim = SeqSim::new(netlist).map_err(|e| e.to_string())?;
    let mut saw_zero = vec![false; netlist.num_nets()];
    let mut saw_one = vec![false; netlist.num_nets()];
    let mut cycles = 0usize;
    let pi_nets = netlist.primary_input_nets();

    for sequence in sequences {
        let mut state = sim.uniform_state(Logic::Zero);
        for vector in sequence {
            let mut assignment: HashMap<NetId, Logic> = HashMap::with_capacity(pi_nets.len());
            for &pi in &pi_nets {
                let value = vector.get(&pi).copied().unwrap_or(false);
                assignment.insert(pi, Logic::from_bool(value));
            }
            let values = sim.step(&mut state, &assignment, None);
            for net in netlist.net_ids() {
                match values[net.index()] {
                    Logic::Zero => saw_zero[net.index()] = true,
                    Logic::One => saw_one[net.index()] = true,
                    Logic::X => {}
                }
            }
            cycles += 1;
        }
    }

    Ok(ToggleReport {
        saw_zero,
        saw_one,
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    #[test]
    fn constant_inputs_are_suspect() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let dbg_en = b.input("dbg_enable");
        let ck = b.input("ck");
        let x = b.xor2(a, dbg_en);
        let q = b.dff(x, ck);
        b.output("q", q);
        let n = b.finish();
        // Drive `a` with alternating values; never mention dbg_enable.
        let sequence: Vec<InputVector> = (0..8)
            .map(|i| {
                let mut v = InputVector::new();
                v.insert(a, i % 2 == 0);
                v.insert(ck, true);
                v
            })
            .collect();
        let report = analyze_toggles(&n, &[sequence]).unwrap();
        assert!(report.toggled(a));
        assert!(!report.toggled(dbg_en));
        assert_eq!(report.constant_value(dbg_en), Some(false));
        assert_eq!(report.constant_value(a), None);
        let suspects = report.suspect_inputs(&n);
        assert!(suspects.contains(&(dbg_en, false)));
        assert!(!suspects.iter().any(|&(net, _)| net == a));
        assert_eq!(report.cycles(), 8);
        assert!(report.toggle_coverage() > 0.0);
    }

    #[test]
    fn multiple_sequences_accumulate() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let n = b.finish();
        let seq_zero: Vec<InputVector> = vec![[(a, false)].into_iter().collect()];
        let seq_one: Vec<InputVector> = vec![[(a, true)].into_iter().collect()];
        // Each sequence alone leaves `a` constant…
        let r = analyze_toggles(&n, std::slice::from_ref(&seq_zero)).unwrap();
        assert!(!r.toggled(a));
        // …but together they toggle it.
        let r = analyze_toggles(&n, &[seq_zero, seq_one]).unwrap();
        assert!(r.toggled(a));
        assert!(r.toggled(y));
    }

    #[test]
    fn sbst_suite_leaves_test_interfaces_silent_on_the_soc() {
        use cpu::sbst::{program_stimuli, standard_suite};
        use cpu::soc::SocBuilder;
        let soc = SocBuilder::small().build();
        // One short program is enough for the activity argument.
        let program = &standard_suite()[0];
        let stim = program_stimuli(program, &soc.interface, 400);
        let report = analyze_toggles(&soc.netlist, &[stim.vectors]).unwrap();
        // Functional inputs toggled…
        assert!(report.toggled(soc.interface.imem_rdata[0]));
        // …while every mission-tied test/debug input stayed at its constant.
        for (net, value) in soc.mission_tied_inputs() {
            assert_eq!(
                report.constant_value(net),
                Some(value),
                "net {} should be constant",
                soc.netlist.net(net).name()
            );
        }
        // The suspect list therefore includes the debug enable.
        let suspects = report.suspect_inputs(&soc.netlist);
        assert!(suspects.iter().any(|&(net, _)| net == soc.debug.enable_net));
    }
}
