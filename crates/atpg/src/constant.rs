//! Constant-value analysis: propagation of tied values through the
//! combinational logic.
//!
//! This is the engine behind the paper's central trick: after the circuit
//! manipulation ties mission-constant signals to fixed values, faults that
//! can no longer be excited or propagated show up as *structurally*
//! untestable. The analysis computes, for every net, whether it holds a
//! constant value under the given constraints.

use crate::frame::Frame;
use crate::logic::Logic;
use crate::sim::NetValues;
use netlist::{graph, CellId, NetId, Netlist, PinIndex};
use std::collections::{HashMap, HashSet};

/// The environment under which the structural analysis runs: which signals
/// are tied, which outputs are observable, and how sequential elements are
/// treated.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSet {
    /// Nets tied to ground (`false`) or Vdd (`true`): primary inputs tied
    /// by the specification, flip-flop outputs tied by the memory-map
    /// manipulation, …
    pub forced_nets: HashMap<NetId, bool>,
    /// Primary-output pseudo-cells that must *not* be used as observation
    /// points (debug observation buses disconnected in mission mode).
    pub masked_outputs: HashSet<CellId>,
    /// Treat flip-flop input pins as observation points (full-scan
    /// assumption, the default — this is how TetraMAX is used in the paper).
    pub observe_ff_inputs: bool,
    /// Treat flip-flop outputs as freely controllable pseudo-inputs (full-scan
    /// assumption, the default).
    pub control_ff_outputs: bool,
}

impl ConstraintSet {
    /// A constraint set with full-scan defaults and no tied signals.
    pub fn full_scan() -> Self {
        ConstraintSet {
            forced_nets: HashMap::new(),
            masked_outputs: HashSet::new(),
            observe_ff_inputs: true,
            control_ff_outputs: true,
        }
    }

    /// Ties a net to a constant.
    pub fn tie_net(&mut self, net: NetId, value: bool) -> &mut Self {
        self.forced_nets.insert(net, value);
        self
    }

    /// Masks a primary output (it stops being an observation point).
    pub fn mask_output(&mut self, output: CellId) -> &mut Self {
        self.masked_outputs.insert(output);
        self
    }

    /// The observation points of the full-scan frame, each as the observing
    /// pin and the net it reads: the pin of every unmasked primary output
    /// and, with [`observe_ff_inputs`](Self::observe_ff_inputs), every
    /// flip-flop input pin.
    pub fn observation_points(&self, netlist: &Netlist) -> Vec<(CellId, PinIndex, NetId)> {
        let mut points = Vec::new();
        for po in netlist.primary_outputs() {
            if !self.masked_outputs.contains(&po) {
                points.push((po, 0, netlist.cell(po).inputs()[0]));
            }
        }
        if self.observe_ff_inputs {
            for ff in netlist.sequential_cells() {
                for (pin, &net) in netlist.cell(ff).inputs().iter().enumerate() {
                    points.push((ff, pin as PinIndex, net));
                }
            }
        }
        points
    }
}

/// The result of constant propagation: a value per net, where a definite
/// value means "this net holds this constant under the constraints".
#[derive(Clone, Debug)]
pub struct ConstantValues {
    values: NetValues,
}

impl ConstantValues {
    /// The propagated value of `net`.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// True if `net` is constant (0 or 1).
    pub fn is_constant(&self, net: NetId) -> bool {
        self.values[net.index()].is_definite()
    }

    /// All nets that are constant, with their values.
    pub fn constant_nets(&self) -> Vec<(NetId, bool)> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.to_bool().map(|b| (NetId::from_index(i), b)))
            .collect()
    }

    /// Raw access to the full value array.
    pub fn raw(&self) -> &NetValues {
        &self.values
    }
}

/// Runs constant propagation under `constraints`: the baseline of the
/// proof frame, with the forced nets and ties applied and every free source
/// `X`.
///
/// # Errors
///
/// Returns the levelization error if the combinational logic is cyclic.
pub fn propagate_constants(
    netlist: &Netlist,
    constraints: &ConstraintSet,
) -> Result<ConstantValues, graph::CombinationalLoop> {
    let frame = Frame::new(netlist, constraints)?;
    let mut values = frame.blank_values();
    // Primary inputs without constraints stay X, and so do flip-flop
    // outputs: the analysis is combinational, as in the paper's tool flow.
    frame.simulate([], None, &mut values);

    Ok(ConstantValues { values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    #[test]
    fn tied_input_propagates_through_gates() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.or2(y, c);
        b.output("z", z);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, false);
        let consts = propagate_constants(&n, &constraints).unwrap();
        assert_eq!(consts.value(y), Logic::Zero, "AND with tied-0 input");
        assert_eq!(consts.value(z), Logic::X, "OR still depends on b");
        assert!(consts.is_constant(y));
        assert!(!consts.is_constant(z));
        assert!(consts
            .constant_nets()
            .iter()
            .any(|&(net, v)| net == y && !v));
    }

    #[test]
    fn tie_cells_are_constants_without_constraints() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let one = b.tie1();
        let y = b.and2(a, one);
        let z = b.or2(a, one);
        b.output("y", y);
        b.output("z", z);
        let n = b.finish();
        let consts = propagate_constants(&n, &ConstraintSet::full_scan()).unwrap();
        assert_eq!(consts.value(z), Logic::One);
        assert_eq!(consts.value(y), Logic::X);
    }

    #[test]
    fn ff_outputs_are_unknown_in_combinational_mode() {
        let mut b = NetlistBuilder::new("t");
        let ck = b.input("ck");
        let zero = b.tie0();
        let q = b.dff(zero, ck);
        let y = b.not(q);
        b.output("y", y);
        let n = b.finish();
        let consts = propagate_constants(&n, &ConstraintSet::full_scan()).unwrap();
        // The combinational-only analysis stops at the flip-flop (exactly the
        // behaviour the paper works around by tying FF outputs).
        assert_eq!(consts.value(q), Logic::X);
        assert_eq!(consts.value(y), Logic::X);
    }

    #[test]
    fn forced_ff_output_propagates() {
        let mut b = NetlistBuilder::new("t");
        let ck = b.input("ck");
        let din = b.input("d");
        let q = b.dff(din, ck);
        let y = b.and2(q, din);
        b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(q, false);
        let consts = propagate_constants(&n, &constraints).unwrap();
        assert_eq!(consts.value(y), Logic::Zero);
    }

    #[test]
    fn forced_nets_are_not_overwritten() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        let z = b.buf(y);
        b.output("z", z);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        // The gate driving `y` computes 0, but the force wins and is what
        // its loads read.
        constraints.tie_net(a, true).tie_net(y, true);
        let consts = propagate_constants(&n, &constraints).unwrap();
        assert_eq!(consts.value(y), Logic::One);
        assert_eq!(consts.value(z), Logic::One);
    }
}
