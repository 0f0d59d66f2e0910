//! Constant-value analysis: propagation of tied values through the
//! combinational logic (and optionally through the sequential behaviour).
//!
//! This is the engine behind the paper's central trick: after the circuit
//! manipulation ties mission-constant signals to fixed values, faults that
//! can no longer be excited or propagated show up as *structurally*
//! untestable. The analysis computes, for every net, whether it holds a
//! constant value under the given constraints.

use crate::logic::Logic;
use crate::sim::{CombSim, NetValues};
use faultmodel::StuckAt;
use netlist::{graph, CellId, CellKind, NetId, Netlist, PinIndex, Reset};
use std::collections::{HashMap, HashSet};

/// The environment under which the structural analysis runs: which signals
/// are tied, which outputs are observable, and how sequential elements are
/// treated.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSet {
    /// Nets forced to a constant value (primary inputs tied to ground/Vdd,
    /// flip-flop outputs tied by the memory-map manipulation, …).
    pub forced_nets: HashMap<NetId, Logic>,
    /// Primary-output pseudo-cells that must *not* be used as observation
    /// points (debug observation buses disconnected in mission mode).
    pub masked_outputs: HashSet<CellId>,
    /// Treat flip-flop input pins as observation points (full-scan
    /// assumption, the default — this is how TetraMAX is used in the paper).
    pub observe_ff_inputs: bool,
    /// Treat flip-flop outputs as freely controllable pseudo-inputs (full-scan
    /// assumption, the default).
    pub control_ff_outputs: bool,
    /// Iterate the sequential state update to find flip-flops that settle to
    /// a constant value on their own (an extension over the paper's purely
    /// combinational tool flow; off by default).
    pub sequential_fixpoint: bool,
    /// Iteration cap for the sequential fixpoint.
    pub max_fixpoint_iterations: usize,
}

impl ConstraintSet {
    /// A constraint set with full-scan defaults and no tied signals.
    pub fn full_scan() -> Self {
        ConstraintSet {
            forced_nets: HashMap::new(),
            masked_outputs: HashSet::new(),
            observe_ff_inputs: true,
            control_ff_outputs: true,
            sequential_fixpoint: false,
            max_fixpoint_iterations: 32,
        }
    }

    /// Ties a net to a constant.
    pub fn tie_net(&mut self, net: NetId, value: bool) -> &mut Self {
        self.forced_nets.insert(net, Logic::from_bool(value));
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

    /// Whether a stuck-at fault is unexcitable under these constants (the
    /// signal at the site is constant and equal to the stuck value).
    pub fn is_unexcitable(&self, netlist: &Netlist, fault: StuckAt) -> bool {
        let net = match fault.site {
            faultmodel::FaultSite::CellOutput { cell } => netlist.output_net(cell),
            faultmodel::FaultSite::CellInput { cell, pin } => Some(netlist.input_net(cell, pin)),
        };
        match net {
            Some(net) => self.value(net) == Logic::from_bool(fault.value),
            // A detached output pin has no net: it cannot be excited in any
            // observable way, but we report it as not-unexcitable here and
            // let the observability analysis classify it as unused.
            None => false,
        }
    }
}

/// Runs constant propagation under `constraints`.
///
/// # Errors
///
/// Returns the levelization error if the combinational logic is cyclic.
pub fn propagate_constants(
    netlist: &Netlist,
    constraints: &ConstraintSet,
) -> Result<ConstantValues, graph::CombinationalLoop> {
    let sim = CombSim::new(netlist)?;
    let mut values = sim.blank_values();
    let mut scratch = sim.scratch();
    let forced: HashMap<NetId, Logic> = constraints.forced_nets.clone();

    // Primary inputs without constraints stay X; flip-flop outputs start X
    // (combinational mode) and are refined by the fixpoint when requested.
    sim.propagate_with(&mut values, &forced, None, &mut scratch);

    if constraints.sequential_fixpoint {
        let flops = netlist.sequential_cells();
        for _ in 0..constraints.max_fixpoint_iterations.max(1) {
            // Compute next-state values from the current propagation.
            let mut changed = false;
            let mut next_states: Vec<(NetId, Logic)> = Vec::new();
            for &ff in &flops {
                let cell = netlist.cell(ff);
                let kind = cell.kind();
                let pin_value = |pin: usize| values[cell.inputs()[pin].index()];
                let data = match kind {
                    CellKind::Sdff { .. } => Logic::mux(pin_value(0), pin_value(1), pin_value(2)),
                    _ => pin_value(0),
                };
                let mut new_value = data;
                if let (Some(reset), Some(rst_pin)) = (kind.reset(), kind.reset_pin()) {
                    let rst = pin_value(rst_pin as usize);
                    let active = match reset {
                        Reset::ActiveLow => rst.not(),
                        Reset::ActiveHigh => rst,
                    };
                    new_value = match active {
                        Logic::One => Logic::Zero,
                        Logic::X => Logic::Zero.meet(data),
                        Logic::Zero => data,
                    };
                }
                if let Some(q) = cell.output() {
                    if forced.contains_key(&q) {
                        continue;
                    }
                    // Merge with the previous estimate: a flip-flop is only
                    // constant if every iteration agrees.
                    let old = values[q.index()];
                    let merged = if old == Logic::X && new_value.is_definite() {
                        new_value
                    } else {
                        old.meet(new_value)
                    };
                    if merged != old {
                        changed = true;
                    }
                    next_states.push((q, merged));
                }
            }
            for (q, v) in &next_states {
                values[q.index()] = *v;
            }
            // Re-propagate with the refined state estimates kept fixed.
            let mut forced_with_state = forced.clone();
            for (q, v) in &next_states {
                forced_with_state.insert(*q, *v);
            }
            sim.propagate_with(&mut values, &forced_with_state, None, &mut scratch);
            if !changed {
                break;
            }
        }
    }

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
    fn sequential_fixpoint_finds_constant_ff() {
        let mut b = NetlistBuilder::new("t");
        let ck = b.input("ck");
        let zero = b.tie0();
        let q = b.dff(zero, ck);
        let y = b.not(q);
        b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.sequential_fixpoint = true;
        let consts = propagate_constants(&n, &constraints).unwrap();
        assert_eq!(consts.value(q), Logic::Zero);
        assert_eq!(consts.value(y), Logic::One);
    }

    #[test]
    fn sequential_fixpoint_keeps_toggling_ff_unknown() {
        // q' = NOT q toggles forever: must not be reported constant.
        let mut b = NetlistBuilder::new("t");
        let ck = b.input("ck");
        let d = b.netlist_mut().add_net("d");
        let q = b.dff(d, ck);
        let nq = b.not(q);
        b.netlist_mut()
            .add_cell(CellKind::Buf, "fb", &[nq], Some(d));
        b.output("q", q);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.sequential_fixpoint = true;
        let consts = propagate_constants(&n, &constraints).unwrap();
        assert_eq!(consts.value(q), Logic::X);
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
    fn unexcitable_detection() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(y).unwrap();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, false);
        let consts = propagate_constants(&n, &constraints).unwrap();
        // Input pin A0 of the AND reads constant 0: stuck-at-0 there is
        // unexcitable, stuck-at-1 is excitable.
        assert!(consts.is_unexcitable(&n, StuckAt::input(and, 0, false)));
        assert!(!consts.is_unexcitable(&n, StuckAt::input(and, 0, true)));
        // The AND output is constant 0 as well.
        assert!(consts.is_unexcitable(&n, StuckAt::output(and, false)));
    }
}
