//! Structural untestability analysis — the workspace's substitute for the
//! commercial tool (Synopsys TetraMAX) used in the paper.
//!
//! Given a netlist and a [`ConstraintSet`] describing the mission-mode
//! environment (tied nets, masked observation outputs), the analysis
//! classifies every still-unclassified stuck-at fault as:
//!
//! * [`FaultClass::Tied`] — unexcitable because the fault site carries a
//!   constant equal to the stuck value ("UT — untestable due to tied value"),
//! * [`FaultClass::Blocked`] — excitable but with every propagation path
//!   blocked by constant side inputs,
//! * [`FaultClass::Unused`] — sitting on logic with no path to any
//!   observation point at all (e.g. cones feeding only masked debug outputs),
//! * or left [`FaultClass::Undetected`] (potentially testable).
//!
//! The classification is *conservative*: a fault is only moved to an
//! untestable class when the structural argument is airtight under the given
//! constraints. The screen runs no search: the faults it leaves undetected
//! are what the PODEM/SAT proof stage ([`crate::proof`]) decides.

use crate::constant::{propagate_constants, ConstantValues, ConstraintSet};
use crate::logic::Logic;
use faultmodel::{FaultClass, FaultList, FaultSite, StuckAt};
use netlist::{graph, CellId, CellKind, NetId, Netlist};
use std::collections::VecDeque;

/// Per-net observability and per-pin propagation information computed by the
/// structural analysis.
#[derive(Clone, Debug)]
pub struct Observability {
    net_observable: Vec<bool>,
}

impl Observability {
    /// Whether a difference on `net` can structurally reach an observation
    /// point under the constraints.
    pub fn net_observable(&self, net: NetId) -> bool {
        self.net_observable[net.index()]
    }
}

/// The structural untestability analysis engine.
#[derive(Debug)]
pub struct StructuralAnalysis {
    constraints: ConstraintSet,
}

impl StructuralAnalysis {
    /// Creates an analysis under the given mission-mode constraints
    /// ([`ConstraintSet::full_scan`] for the unconstrained baseline).
    pub fn with_constraints(constraints: ConstraintSet) -> Self {
        StructuralAnalysis { constraints }
    }

    /// Runs constant propagation only and returns the values.
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the combinational logic is cyclic.
    pub fn constants(&self, netlist: &Netlist) -> Result<ConstantValues, graph::CombinationalLoop> {
        propagate_constants(netlist, &self.constraints)
    }

    /// Computes net observability under the constraints.
    pub fn observability(&self, netlist: &Netlist, constants: &ConstantValues) -> Observability {
        let mut net_observable = vec![false; netlist.num_nets()];
        let mut queue: VecDeque<NetId> = VecDeque::new();

        let mark = |net: NetId, net_observable: &mut Vec<bool>, queue: &mut VecDeque<NetId>| {
            if !net_observable[net.index()] {
                net_observable[net.index()] = true;
                queue.push_back(net);
            }
        };

        for (_, _, net) in self.constraints.observation_points(netlist) {
            mark(net, &mut net_observable, &mut queue);
        }

        // Backward propagation: if a gate's output is observable, each input
        // pin whose effect can pass the gate marks its net observable.
        while let Some(net) = queue.pop_front() {
            let Some(driver) = netlist.driver_of(net) else {
                continue;
            };
            let cell = netlist.cell(driver);
            if cell.is_dead() || !cell.kind().is_combinational() {
                continue;
            }
            for pin in 0..cell.inputs().len() {
                if pin_propagates(netlist, constants, driver, pin) {
                    let in_net = cell.inputs()[pin];
                    mark(in_net, &mut net_observable, &mut queue);
                }
            }
        }

        Observability { net_observable }
    }

    /// Screens every still-undetected fault of `faults` and returns the
    /// universe index and structural class ([`FaultClass::Tied`],
    /// [`FaultClass::Blocked`] or [`FaultClass::Unused`]) of each one the
    /// screen proves untestable, in universe order. The list is left
    /// untouched: the caller decides how to record a hit (the flow's §3
    /// stages record it as on-line untestable from their source).
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the combinational logic is cyclic.
    pub fn classify(
        &self,
        netlist: &Netlist,
        faults: &FaultList,
    ) -> Result<Vec<(usize, FaultClass)>, graph::CombinationalLoop> {
        let constants = self.constants(netlist)?;
        let observability = self.observability(netlist, &constants);
        Ok(faults
            .undetected()
            .filter_map(|(index, fault)| {
                classify_fault(
                    netlist,
                    &self.constraints,
                    &constants,
                    &observability,
                    fault,
                )
                .map(|class| (index, class))
            })
            .collect())
    }

    /// Runs [`classify`](Self::classify) and records each hit's structural
    /// class in `faults`. Returns how many faults it classified.
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the combinational logic is cyclic.
    pub fn run(
        &self,
        netlist: &Netlist,
        faults: &mut FaultList,
    ) -> Result<usize, graph::CombinationalLoop> {
        let hits = self.classify(netlist, faults)?;
        for &(index, class) in &hits {
            faults.classify_at(index, class);
        }
        Ok(hits.len())
    }
}

/// Whether a value change on input pin `pin` of `cell` can pass through the
/// cell, given the constant values of the other pins. Conservative: unknown
/// side inputs are assumed settable to non-controlling values.
pub(crate) fn pin_propagates(
    netlist: &Netlist,
    constants: &ConstantValues,
    cell: CellId,
    pin: usize,
) -> bool {
    let c = netlist.cell(cell);
    let kind = c.kind();
    let side_value = |p: usize| constants.value(c.inputs()[p]);
    match kind {
        CellKind::Buf | CellKind::Not => true,
        CellKind::And(_) | CellKind::Nand(_) => (0..c.inputs().len())
            .filter(|&p| p != pin)
            .all(|p| side_value(p) != Logic::Zero),
        CellKind::Or(_) | CellKind::Nor(_) => (0..c.inputs().len())
            .filter(|&p| p != pin)
            .all(|p| side_value(p) != Logic::One),
        CellKind::Xor(_) | CellKind::Xnor(_) => true,
        CellKind::Mux2 => match pin {
            0 => side_value(2) != Logic::One,  // D0 passes when S can be 0
            1 => side_value(2) != Logic::Zero, // D1 passes when S can be 1
            2 => {
                // The select only matters if the two data inputs can differ.
                let d0 = side_value(0);
                let d1 = side_value(1);
                !(d0.is_definite() && d1.is_definite() && d0 == d1)
            }
            _ => true,
        },
        // Sequential and port cells are handled by the observation-point
        // logic, not here.
        _ => true,
    }
}

fn classify_fault(
    netlist: &Netlist,
    constraints: &ConstraintSet,
    constants: &ConstantValues,
    observability: &Observability,
    fault: StuckAt,
) -> Option<FaultClass> {
    let cell_id = fault.site.cell();
    let cell = netlist.cell(cell_id);
    if cell.is_dead() {
        return Some(FaultClass::Unused);
    }
    match fault.site {
        FaultSite::CellOutput { cell: c } => {
            let Some(net) = netlist.output_net(c) else {
                // Detached (floated) output pin: nothing downstream.
                return Some(FaultClass::Unused);
            };
            // Unexcitable? (A stuck value equal to the mission constant can
            // never be distinguished from the fault-free behaviour. The
            // opposite polarity stays testable — Fig. 5: for a register
            // constant at 0 only the stuck-at-1 faults on D and Q remain.)
            if constants.value(net) == Logic::from_bool(fault.value) {
                return Some(FaultClass::Tied);
            }
            let has_live_load = netlist
                .loads_of(net)
                .iter()
                .any(|l| !netlist.cell(l.cell).is_dead());
            if !has_live_load {
                return Some(FaultClass::Unused);
            }
            // A fault of the opposite polarity on a constant net is *always*
            // excited; it flips the very constant the downstream blocking
            // argument relies on, so the purely structural observability
            // reasoning is not sound for it. Leave it potentially testable.
            if constants.value(net).is_definite() {
                return None;
            }
            if !observability.net_observable(net) {
                return Some(FaultClass::Blocked);
            }
            None
        }
        FaultSite::CellInput { cell: c, pin } => {
            let in_net = netlist.input_net(c, pin);
            // Unexcitable?
            if constants.value(in_net) == Logic::from_bool(fault.value) {
                return Some(FaultClass::Tied);
            }
            let kind = cell.kind();
            match kind {
                CellKind::Output => {
                    if constraints.masked_outputs.contains(&c) {
                        // Observed nowhere: the classic "unused observation
                        // logic" case of §3.2.2.
                        return Some(FaultClass::Unused);
                    }
                    None
                }
                CellKind::Dff { .. } | CellKind::Sdff { .. } => {
                    if constraints.observe_ff_inputs {
                        None
                    } else {
                        Some(FaultClass::Blocked)
                    }
                }
                _ => {
                    // Combinational cell: the branch fault must pass this cell
                    // and then reach an observation point from its output.
                    let Some(out_net) = netlist.output_net(c) else {
                        return Some(FaultClass::Unused);
                    };
                    // Same reconvergence caveat as for stem faults: an
                    // always-excited branch fault on a constant pin flips the
                    // constants the blocking argument is built on.
                    if constants.value(in_net).is_definite() {
                        return None;
                    }
                    if !pin_propagates(netlist, constants, c, pin as usize)
                        || !observability.net_observable(out_net)
                    {
                        return Some(FaultClass::Blocked);
                    }
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    #[test]
    fn tied_input_yields_ut_and_ub_faults() {
        // y = (a AND b) OR c, with a tied to 0: the AND cone dies.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c2 = b.input("b");
        let c3 = b.input("c");
        let t = b.and2(a, c2);
        let y = b.or2(t, c3);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(t).unwrap();

        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, false);
        let analysis = StructuralAnalysis::with_constraints(constraints);
        let mut faults = FaultList::full_universe(&n);
        analysis.run(&n, &mut faults).unwrap();

        // AND output is constant 0: its stuck-at-0 is tied.
        assert_eq!(
            faults.class_of(StuckAt::output(and, false)),
            Some(FaultClass::Tied)
        );
        // Pin A0 reads constant 0: stuck-at-0 tied; stuck-at-1 is excitable
        // and propagates (b can be 1), so it stays undetected/testable? No —
        // wait: with a tied to 0 the AND output is constant 0 regardless, so a
        // stuck-at-1 on A0 CAN change the output when b=1; it remains
        // potentially testable.
        assert_eq!(
            faults.class_of(StuckAt::input(and, 0, false)),
            Some(FaultClass::Tied)
        );
        assert_eq!(
            faults.class_of(StuckAt::input(and, 0, true)),
            Some(FaultClass::Undetected)
        );
        // Pin A1 (from b) cannot propagate through the AND because the side
        // input is constant 0: blocked.
        assert_eq!(
            faults.class_of(StuckAt::input(and, 1, true)),
            Some(FaultClass::Blocked)
        );
        assert!(faults.counts().tied > 0);
        assert!(faults.counts().blocked > 0);
    }

    #[test]
    fn masked_output_yields_unused_faults() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let dbg = b.not(a);
        let y = b.buf(a);
        b.output("debug_out", dbg);
        b.output("y", y);
        let n = b.finish();
        let inv = n.driver_of(dbg).unwrap();
        let debug_po = n
            .primary_outputs()
            .into_iter()
            .find(|&po| n.cell(po).name() == "debug_out")
            .unwrap();

        let mut constraints = ConstraintSet::full_scan();
        constraints.mask_output(debug_po);
        let analysis = StructuralAnalysis::with_constraints(constraints);
        let mut faults = FaultList::full_universe(&n);
        analysis.run(&n, &mut faults).unwrap();

        // The inverter feeds only the masked output: all its faults are
        // blocked or unused.
        for &f in faults.faults().iter().filter(|f| f.site.cell() == inv) {
            assert!(
                faults.class_of(f).unwrap().is_structurally_untestable(),
                "{f:?} should be untestable"
            );
        }
        // Faults on the masked output pin itself are unused.
        assert_eq!(
            faults.class_of(StuckAt::input(debug_po, 0, false)),
            Some(FaultClass::Unused)
        );
        // The functional path stays testable.
        let buf = n.driver_of(y).unwrap();
        assert_eq!(
            faults.class_of(StuckAt::output(buf, false)),
            Some(FaultClass::Undetected)
        );
    }

    #[test]
    fn clean_design_has_no_untestable_faults() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 4);
        let c = b.input_bus("b", 4);
        let x = b.xor_word(&a, &c);
        b.output_bus("y", &x);
        let n = b.finish();
        let analysis = StructuralAnalysis::with_constraints(ConstraintSet::full_scan());
        let mut faults = FaultList::full_universe(&n);
        assert_eq!(analysis.run(&n, &mut faults).unwrap(), 0);
    }

    #[test]
    fn ff_inputs_act_as_observation_points_in_full_scan() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let ck = b.input("ck");
        let x = b.not(a);
        let q = b.dff(x, ck);
        // q drives nothing visible — without the full-scan assumption the
        // inverter would be unobservable.
        let _unused = q;
        let n = b.finish();
        let inv = n.driver_of(x).unwrap();

        let mut faults = FaultList::full_universe(&n);
        let analysis = StructuralAnalysis::with_constraints(ConstraintSet::full_scan());
        analysis.run(&n, &mut faults).unwrap();
        assert_eq!(
            faults.class_of(StuckAt::output(inv, false)),
            Some(FaultClass::Undetected)
        );

        // Without observing FF inputs the same fault becomes blocked.
        let mut constraints = ConstraintSet::full_scan();
        constraints.observe_ff_inputs = false;
        let mut faults2 = FaultList::full_universe(&n);
        StructuralAnalysis::with_constraints(constraints)
            .run(&n, &mut faults2)
            .unwrap();
        assert!(faults2
            .class_of(StuckAt::output(inv, false))
            .unwrap()
            .is_structurally_untestable());
    }

    #[test]
    fn forced_ff_output_makes_downstream_cone_untestable() {
        // The §3.3 situation: an address register bit that never toggles.
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d");
        let ck = b.input("ck");
        let other = b.input("other");
        let q = b.dff(d, ck);
        let y = b.and2(q, other);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(y).unwrap();

        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(q, false);
        let analysis = StructuralAnalysis::with_constraints(constraints);
        let mut faults = FaultList::full_universe(&n);
        analysis.run(&n, &mut faults).unwrap();
        // AND output constant 0 -> stuck-at-0 tied; the `other` pin cannot
        // propagate -> blocked.
        assert_eq!(
            faults.class_of(StuckAt::output(and, false)),
            Some(FaultClass::Tied)
        );
        assert_eq!(
            faults.class_of(StuckAt::input(and, 1, true)),
            Some(FaultClass::Blocked)
        );
    }

    #[test]
    fn dead_cell_faults_are_unused() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.buf(a);
        b.output("y", y);
        let mut n = b.finish();
        let inv = n.driver_of(x).unwrap();
        n.remove_cell(inv);
        let mut faults = FaultList::full_universe(&n);
        // Rebuild the universe on the live design, then add back a fault on
        // the dead cell to exercise the classification path.
        let dead_fault = StuckAt::output(inv, true);
        let mut all = faults.faults().to_vec();
        all.push(dead_fault);
        faults = FaultList::from_faults(all);
        let analysis = StructuralAnalysis::with_constraints(ConstraintSet::full_scan());
        analysis.run(&n, &mut faults).unwrap();
        assert_eq!(faults.class_of(dead_fault), Some(FaultClass::Unused));
    }

    #[test]
    fn mux_select_blocked_when_data_equal_constants() {
        let mut b = NetlistBuilder::new("t");
        let s = b.input("s");
        let zero_a = b.tie0();
        let one = b.tie1();
        let extra = b.input("e");
        // Both data inputs of the mux are the SAME constant 0 (one via an AND
        // with 0 to avoid sharing the tie net twice on the same pin).
        let also_zero = b.and2(one, zero_a);
        let m = b.mux2(zero_a, also_zero, s);
        let y = b.or2(m, extra);
        b.output("y", y);
        let n = b.finish();
        let mux = n.driver_of(m).unwrap();
        let analysis = StructuralAnalysis::with_constraints(ConstraintSet::full_scan());
        let mut faults = FaultList::full_universe(&n);
        analysis.run(&n, &mut faults).unwrap();
        // The select pin cannot influence the output: stuck-at faults on S are
        // blocked (its net is not constant, so they are not tied).
        assert!(faults
            .class_of(StuckAt::input(mux, 2, true))
            .unwrap()
            .is_structurally_untestable());
    }

    #[test]
    fn outcome_totals_are_consistent() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.or2(t, a);
        b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, true);
        let analysis = StructuralAnalysis::with_constraints(constraints);
        let mut faults = FaultList::full_universe(&n);
        let hits = analysis.classify(&n, &faults).unwrap();
        assert!(!hits.is_empty());
        assert_eq!(faults.counts().structurally_untestable(), 0, "untouched");
        let classified = analysis.run(&n, &mut faults).unwrap();
        assert_eq!(classified, hits.len());
        assert_eq!(classified, faults.counts().structurally_untestable());
        let classes: Vec<FaultClass> = faults.iter().map(|(_, c)| c).collect();
        for (index, class) in hits {
            assert_eq!(classes[index], class);
        }
        // Faults already classified are not screened again.
        assert!(analysis.classify(&n, &faults).unwrap().is_empty());
    }
}
