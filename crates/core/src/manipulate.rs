//! Circuit manipulation — the paper's central mechanism (§3): connect
//! mission-constant signals to fixed values and disconnect mission-unobserved
//! outputs, so that on-line functional untestability becomes *structural*
//! untestability that a conventional tool can identify.
//!
//! A manipulation is an [`atpg::ConstraintSet`] over the unmodified netlist:
//! tied nets are forced, disconnected outputs are masked. The
//! [`rules`](crate::rules) build it and the [`flow`](crate::flow) screens the
//! fault list under it without touching the netlist. [`apply`] performs the
//! same manipulation physically on a copy — tie cells are inserted and
//! outputs removed — which mirrors what the paper feeds to TetraMAX. It is
//! the reference the constraint style is tested against, and exports the
//! manipulated design.

use atpg::ConstraintSet;
use netlist::{CellId, CellKind, NetId, Netlist};

/// Physically applies `constraints` to a copy of `netlist` and returns the
/// modified design: every net forced to 0 or 1 gets its original driver
/// detached and a tie cell connected instead, and every masked output is
/// removed. Nets are tied in [`NetId`] order and outputs removed in
/// [`CellId`] order, so the copy does not depend on the set's hash order.
pub fn apply(netlist: &Netlist, constraints: &ConstraintSet) -> Netlist {
    let mut modified = netlist.clone();
    modified.set_name(format!("{}_manipulated", netlist.name()));
    let mut ties: Vec<(NetId, bool)> = constraints
        .forced_nets
        .iter()
        .map(|(&net, &value)| (net, value))
        .collect();
    ties.sort_unstable();
    for (net, value) in ties {
        // Disconnect whatever drove the net and re-drive it from a dedicated
        // tie cell through a buffer (so the tied net keeps its identity and
        // loads).
        modified.detach_driver(net);
        let tie = modified.tie_net(value);
        let name = format!("u_manip_tie_{}", net.index());
        modified.add_cell(CellKind::Buf, name, &[tie], Some(net));
    }
    let mut floated: Vec<CellId> = constraints.masked_outputs.iter().copied().collect();
    floated.sort_unstable();
    for output in floated {
        modified.remove_cell(output);
    }
    modified
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg::{propagate_constants, Logic};
    use netlist::verilog::write_verilog;
    use netlist::NetlistBuilder;

    fn design() -> (Netlist, NetId, NetId, CellId) {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let dbg = b.not(y);
        b.output("y", y);
        let dbg_po = b.output("dbg", dbg);
        (b.finish(), a, y, dbg_po)
    }

    #[test]
    fn physical_apply_ties_and_floats() {
        let (n, a, y, dbg_po) = design();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, false).mask_output(dbg_po);
        let modified = apply(&n, &constraints);
        // The original netlist is untouched.
        assert!(n.driver_of(a).is_some());
        assert!(!n.cell(dbg_po).is_dead());
        // In the modified copy `a` is driven by a tie-buffer and the debug
        // output is gone.
        let driver = modified.driver_of(a).unwrap();
        assert_eq!(modified.cell(driver).kind(), CellKind::Buf);
        assert!(modified.cell(dbg_po).is_dead());
        // And constant propagation (without extra constraints) now sees the
        // AND output as constant 0.
        let consts = propagate_constants(&modified, &ConstraintSet::full_scan()).unwrap();
        assert_eq!(consts.value(y), Logic::Zero);
        // The same ties, inserted into a second set in the opposite order,
        // give the same copy.
        let b_net = n.find_net("b").unwrap();
        let (mut first, mut second) = (ConstraintSet::full_scan(), ConstraintSet::full_scan());
        first.tie_net(a, false).tie_net(b_net, true);
        second.tie_net(b_net, true).tie_net(a, false);
        assert_eq!(
            write_verilog(&apply(&n, &first)),
            write_verilog(&apply(&n, &second))
        );
    }

    #[test]
    fn constraint_and_physical_styles_agree() {
        let (n, a, y, _) = design();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, false);
        // Style 1: constraints over the original design.
        let consts1 = propagate_constants(&n, &constraints).unwrap();
        // Style 2: physical edit, default constraints.
        let modified = apply(&n, &constraints);
        let consts2 = propagate_constants(&modified, &ConstraintSet::full_scan()).unwrap();
        assert_eq!(consts1.value(y), consts2.value(y));
        assert_eq!(consts1.value(a), consts2.value(a));
    }
}
