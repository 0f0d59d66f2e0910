//! SCOAP testability measures (combinational controllability and
//! observability), computed on the full-scan frame.
//!
//! Controllability `CC0(n)` / `CC1(n)` estimate how many input assignments
//! are needed to set net `n` to 0 / 1; observability `CO(n)` estimates how
//! many assignments are needed to propagate a change on `n` to an observation
//! point. Primary inputs and flip-flop outputs cost 1; unreachable values get
//! [`SCOAP_INFINITY`].

use crate::constant::ConstraintSet;
use netlist::{graph, CellKind, NetId, Netlist};

/// Sentinel for "not achievable".
pub const SCOAP_INFINITY: u32 = u32::MAX / 4;

/// SCOAP measures for every net of a design.
#[derive(Clone, Debug)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

impl Scoap {
    /// Controllability-to-0 of a net.
    pub fn cc0(&self, net: NetId) -> u32 {
        self.cc0[net.index()]
    }

    /// Controllability-to-1 of a net.
    pub fn cc1(&self, net: NetId) -> u32 {
        self.cc1[net.index()]
    }

    /// Observability of a net.
    pub fn co(&self, net: NetId) -> u32 {
        self.co[net.index()]
    }

    /// Combined testability of a stuck-at-`value` fault on the net
    /// (controllability of the opposite value plus observability).
    pub fn stuck_at_testability(&self, net: NetId, value: bool) -> u32 {
        let cc = if value { self.cc0(net) } else { self.cc1(net) };
        cc.saturating_add(self.co(net))
    }
}

fn add1(x: u32) -> u32 {
    x.saturating_add(1).min(SCOAP_INFINITY)
}

fn sum(values: impl Iterator<Item = u32>) -> u32 {
    values
        .fold(0u32, |acc, v| acc.saturating_add(v))
        .min(SCOAP_INFINITY)
}

/// Computes SCOAP measures under the given constraints (tied nets become
/// perfectly controllable to their tied value and uncontrollable to the
/// other; masked outputs are not observation points).
///
/// # Errors
///
/// Returns the levelization error if the combinational logic is cyclic.
pub fn compute_scoap(
    netlist: &Netlist,
    constraints: &ConstraintSet,
) -> Result<Scoap, graph::CombinationalLoop> {
    let lev = graph::levelize(netlist)?;
    let n = netlist.num_nets();
    let mut cc0 = vec![SCOAP_INFINITY; n];
    let mut cc1 = vec![SCOAP_INFINITY; n];
    let mut co = vec![SCOAP_INFINITY; n];

    // Sources.
    for (_, cell) in netlist.live_cells() {
        let Some(out) = cell.output() else { continue };
        match cell.kind() {
            CellKind::Input => {
                cc0[out.index()] = 1;
                cc1[out.index()] = 1;
            }
            CellKind::Tie0 => {
                cc0[out.index()] = 0;
                cc1[out.index()] = SCOAP_INFINITY;
            }
            CellKind::Tie1 => {
                cc1[out.index()] = 0;
                cc0[out.index()] = SCOAP_INFINITY;
            }
            CellKind::Dff { .. } | CellKind::Sdff { .. } if constraints.control_ff_outputs => {
                cc0[out.index()] = 1;
                cc1[out.index()] = 1;
            }
            _ => {}
        }
    }
    // Constraint ties override.
    for (&net, &value) in &constraints.forced_nets {
        if value {
            cc1[net.index()] = 0;
            cc0[net.index()] = SCOAP_INFINITY;
        } else {
            cc0[net.index()] = 0;
            cc1[net.index()] = SCOAP_INFINITY;
        }
    }

    // Forward controllability in topological order.
    for &cell_id in &lev.order {
        let cell = netlist.cell(cell_id);
        let Some(out) = cell.output() else { continue };
        if constraints.forced_nets.contains_key(&out) {
            continue;
        }
        let in0 = |p: usize| cc0[cell.inputs()[p].index()];
        let in1 = |p: usize| cc1[cell.inputs()[p].index()];
        let pins = cell.inputs().len();
        let (c0, c1) = match cell.kind() {
            CellKind::Buf => (in0(0), in1(0)),
            CellKind::Not => (in1(0), in0(0)),
            CellKind::And(_) => (
                (0..pins).map(in0).min().unwrap_or(SCOAP_INFINITY),
                sum((0..pins).map(in1)),
            ),
            CellKind::Nand(_) => (
                sum((0..pins).map(in1)),
                (0..pins).map(in0).min().unwrap_or(SCOAP_INFINITY),
            ),
            CellKind::Or(_) => (
                sum((0..pins).map(in0)),
                (0..pins).map(in1).min().unwrap_or(SCOAP_INFINITY),
            ),
            CellKind::Nor(_) => (
                (0..pins).map(in1).min().unwrap_or(SCOAP_INFINITY),
                sum((0..pins).map(in0)),
            ),
            CellKind::Xor(_) | CellKind::Xnor(_) => {
                // Cost of producing even / odd parity over the inputs; a
                // simple approximation: cheapest way to reach each parity.
                let mut even = 0u32;
                let mut odd = SCOAP_INFINITY;
                for p in 0..pins {
                    let (z, o) = (in0(p), in1(p));
                    let new_even = (even.saturating_add(z)).min(odd.saturating_add(o));
                    let new_odd = (even.saturating_add(o)).min(odd.saturating_add(z));
                    even = new_even.min(SCOAP_INFINITY);
                    odd = new_odd.min(SCOAP_INFINITY);
                }
                if matches!(cell.kind(), CellKind::Xor(_)) {
                    (even, odd)
                } else {
                    (odd, even)
                }
            }
            CellKind::Mux2 => {
                let d0 = (in0(0), in1(0));
                let d1 = (in0(1), in1(1));
                let s = (in0(2), in1(2));
                (
                    d0.0.saturating_add(s.0).min(d1.0.saturating_add(s.1)),
                    d0.1.saturating_add(s.0).min(d1.1.saturating_add(s.1)),
                )
            }
            _ => (SCOAP_INFINITY, SCOAP_INFINITY),
        };
        cc0[out.index()] = add1(c0).min(SCOAP_INFINITY);
        cc1[out.index()] = add1(c1).min(SCOAP_INFINITY);
    }

    // Observation points.
    for (_, _, net) in constraints.observation_points(netlist) {
        co[net.index()] = 0;
    }

    // Backward observability in reverse topological order.
    for &cell_id in lev.order.iter().rev() {
        let cell = netlist.cell(cell_id);
        let Some(out) = cell.output() else { continue };
        let out_co = co[out.index()];
        if out_co >= SCOAP_INFINITY {
            continue;
        }
        let pins = cell.inputs().len();
        for pin in 0..pins {
            let side_cost: u32 = match cell.kind() {
                CellKind::Buf | CellKind::Not => 0,
                CellKind::And(_) | CellKind::Nand(_) => sum((0..pins)
                    .filter(|&p| p != pin)
                    .map(|p| cc1[cell.inputs()[p].index()])),
                CellKind::Or(_) | CellKind::Nor(_) => sum((0..pins)
                    .filter(|&p| p != pin)
                    .map(|p| cc0[cell.inputs()[p].index()])),
                CellKind::Xor(_) | CellKind::Xnor(_) => sum((0..pins)
                    .filter(|&p| p != pin)
                    .map(|p| cc0[cell.inputs()[p].index()].min(cc1[cell.inputs()[p].index()]))),
                CellKind::Mux2 => match pin {
                    0 => cc0[cell.inputs()[2].index()],
                    1 => cc1[cell.inputs()[2].index()],
                    _ => cc0[cell.inputs()[0].index()].min(cc1[cell.inputs()[1].index()]),
                },
                _ => SCOAP_INFINITY,
            };
            let new_co = add1(out_co.saturating_add(side_cost));
            let net = cell.inputs()[pin];
            if new_co < co[net.index()] {
                co[net.index()] = new_co;
            }
        }
    }

    Ok(Scoap { cc0, cc1, co })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    #[test]
    fn inputs_are_cheap_and_deep_logic_is_costlier() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 4);
        let and_all = b.reduce_and(&a);
        b.output("y", and_all);
        let n = b.finish();
        let scoap = compute_scoap(&n, &ConstraintSet::full_scan()).unwrap();
        assert_eq!(scoap.cc0(a[0]), 1);
        assert_eq!(scoap.cc1(a[0]), 1);
        // Setting the AND of four inputs to 1 needs all four inputs at 1.
        assert!(scoap.cc1(and_all) > scoap.cc1(a[0]));
        assert!(scoap.cc1(and_all) >= 4);
        // Setting it to 0 needs a single 0.
        assert!(scoap.cc0(and_all) <= 2);
        // The output net is directly observable.
        assert_eq!(scoap.co(and_all), 0);
        // Observing an individual input requires the other three at 1.
        assert!(scoap.co(a[0]) >= 3);
    }

    #[test]
    fn tie_cells_have_one_sided_controllability() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let one = b.tie1();
        let y = b.and2(a, one);
        b.output("y", y);
        let n = b.finish();
        let scoap = compute_scoap(&n, &ConstraintSet::full_scan()).unwrap();
        assert_eq!(scoap.cc1(one), 0);
        assert_eq!(scoap.cc0(one), SCOAP_INFINITY);
        // The AND output follows `a` cheaply.
        assert!(scoap.cc1(y) <= 2);
    }

    #[test]
    fn constrained_net_is_uncontrollable_to_other_value() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.or2(a, c);
        b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, true);
        let scoap = compute_scoap(&n, &constraints).unwrap();
        assert_eq!(scoap.cc1(a), 0);
        assert_eq!(scoap.cc0(a), SCOAP_INFINITY);
        // The OR output can no longer be set to 0.
        assert!(scoap.cc0(y) >= SCOAP_INFINITY);
    }

    #[test]
    fn masked_output_kills_observability() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let n = b.finish();
        let po = n.primary_outputs()[0];
        let mut constraints = ConstraintSet::full_scan();
        constraints.mask_output(po);
        let scoap = compute_scoap(&n, &constraints).unwrap();
        assert!(scoap.co(y) >= SCOAP_INFINITY);
        assert!(scoap.co(a) >= SCOAP_INFINITY);
        assert!(scoap.stuck_at_testability(a, true) >= SCOAP_INFINITY);
    }

    #[test]
    fn ff_boundaries_are_cheap_in_full_scan() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let ck = b.input("ck");
        let q = b.dff(a, ck);
        let y = b.not(q);
        let _q2 = b.dff(y, ck);
        let n = b.finish();
        let scoap = compute_scoap(&n, &ConstraintSet::full_scan()).unwrap();
        assert_eq!(scoap.cc0(q), 1);
        assert_eq!(scoap.cc1(q), 1);
        assert_eq!(scoap.co(y), 0, "feeds a flip-flop D pin");
    }
}
