//! Scalar three-valued simulation: levelized combinational propagation and a
//! cycle-accurate sequential wrapper, both with single-stuck-at fault
//! injection.

use crate::compiled::CompiledProgram;
use crate::logic::Logic;
use faultmodel::{FaultSite, StuckAt};
use netlist::{graph, CellId, CellKind, NetId, Netlist, Reset};
use std::collections::HashMap;

/// Net values indexed by `NetId::index()`.
pub type NetValues = Vec<Logic>;

/// Flip-flop state indexed by `CellId::index()` (only entries of sequential
/// cells are meaningful).
pub type FfState = Vec<Logic>;

/// Levelized three-valued combinational simulator.
///
/// The simulator treats flip-flop output nets as inputs (their values come
/// from the caller-provided state) and evaluates every combinational cell in
/// topological order over the [`CompiledProgram`]. A single stuck-at fault
/// can be injected. Nothing is forced: mission forces belong to the proof
/// frame, which drives the [`CompiledProgram`] itself.
#[derive(Debug)]
pub struct CombSim<'a> {
    netlist: &'a Netlist,
    program: CompiledProgram,
}

impl<'a> CombSim<'a> {
    /// Builds the simulator (levelizes and compiles the design).
    ///
    /// # Errors
    ///
    /// Returns the combinational loop error from levelization if the design
    /// is cyclic.
    pub fn new(netlist: &'a Netlist) -> Result<Self, graph::CombinationalLoop> {
        Ok(CombSim {
            netlist,
            program: CompiledProgram::compile(netlist)?,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Creates an all-`X` value array sized for this design.
    pub fn blank_values(&self) -> NetValues {
        vec![Logic::X; self.netlist.num_nets()]
    }

    /// Propagates values through the combinational logic.
    ///
    /// On entry `values` must hold the desired values of primary-input nets
    /// and flip-flop output nets; every other net is recomputed. `fault`
    /// optionally injects one stuck-at fault.
    pub fn propagate(&self, values: &mut NetValues, fault: Option<StuckAt>) {
        self.program
            .propagate_scalar(self.netlist, values, &[], fault);
    }

    /// The value observed at a primary output pseudo-cell, taking a fault on
    /// the output's own input pin into account.
    pub fn observed_value(
        &self,
        values: &NetValues,
        output_cell: CellId,
        fault: Option<StuckAt>,
    ) -> Logic {
        let cell = self.netlist.cell(output_cell);
        debug_assert_eq!(cell.kind(), CellKind::Output);
        if let Some(f) = fault {
            if f.site
                == (FaultSite::CellInput {
                    cell: output_cell,
                    pin: 0,
                })
            {
                return Logic::from_bool(f.value);
            }
        }
        values[cell.inputs()[0].index()]
    }
}

/// Cycle-accurate three-valued sequential simulator built on [`CombSim`].
///
/// A single free-running clock is assumed: every flip-flop captures once per
/// [`step`](SeqSim::step). Asynchronous resets are honoured combinationally
/// (an active reset value forces the state to 0 regardless of the clock).
#[derive(Debug)]
pub struct SeqSim<'a> {
    comb: CombSim<'a>,
    flops: Vec<CellId>,
}

impl<'a> SeqSim<'a> {
    /// Builds the sequential simulator.
    ///
    /// # Errors
    ///
    /// Returns an error if the combinational logic is cyclic.
    pub fn new(netlist: &'a Netlist) -> Result<Self, graph::CombinationalLoop> {
        let comb = CombSim::new(netlist)?;
        let flops = netlist.sequential_cells();
        Ok(SeqSim { comb, flops })
    }

    /// The flip-flops of the design, in a fixed order.
    pub fn flops(&self) -> &[CellId] {
        &self.flops
    }

    /// A state with every flip-flop at `value`.
    pub fn uniform_state(&self, value: Logic) -> FfState {
        vec![value; self.comb.netlist().num_cells()]
    }

    /// Performs one clock cycle: loads `state` and `pi_values` (keyed by the
    /// primary-input *net*), propagates the combinational logic, computes the
    /// next state and returns the full net-value array of the cycle.
    ///
    /// `state` is updated in place to the next state.
    pub fn step(
        &self,
        state: &mut FfState,
        pi_values: &HashMap<NetId, Logic>,
        fault: Option<StuckAt>,
    ) -> NetValues {
        let netlist = self.comb.netlist();
        let mut values = self.comb.blank_values();
        for (&net, &v) in pi_values {
            values[net.index()] = v;
        }
        for &ff in &self.flops {
            if let Some(q) = netlist.output_net(ff) {
                values[q.index()] = state[ff.index()];
            }
        }
        self.comb.propagate(&mut values, fault);

        // Next-state computation.
        let mut next: Vec<(CellId, Logic)> = Vec::with_capacity(self.flops.len());
        for &ff in &self.flops {
            let cell = netlist.cell(ff);
            let kind = cell.kind();
            let read_pin = |pin: netlist::PinIndex| -> Logic {
                let mut v = values[cell.inputs()[pin as usize].index()];
                if let Some(f) = fault {
                    if f.site == (FaultSite::CellInput { cell: ff, pin }) {
                        v = Logic::from_bool(f.value);
                    }
                }
                v
            };
            let data = match kind {
                CellKind::Sdff { .. } => {
                    let d = read_pin(0);
                    let si = read_pin(1);
                    let se = read_pin(2);
                    Logic::mux(d, si, se)
                }
                _ => read_pin(0),
            };
            let mut new_value = data;
            if let (Some(reset), Some(rst_pin)) = (kind.reset(), kind.reset_pin()) {
                let rst = read_pin(rst_pin);
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
            // An output-pin fault on the flip-flop pins its state.
            if let Some(f) = fault {
                if f.site == (FaultSite::CellOutput { cell: ff }) {
                    new_value = Logic::from_bool(f.value);
                }
            }
            next.push((ff, new_value));
        }
        for (ff, v) in next {
            state[ff.index()] = v;
        }
        values
    }

    /// Runs a sequence of input vectors from an all-zero reset state and
    /// returns the values observed at the primary outputs after every cycle.
    pub fn run(
        &self,
        vectors: &[HashMap<NetId, Logic>],
        fault: Option<StuckAt>,
    ) -> Vec<Vec<Logic>> {
        let netlist = self.comb.netlist();
        let outputs = netlist.primary_outputs();
        let mut state = self.uniform_state(Logic::Zero);
        let mut observed = Vec::with_capacity(vectors.len());
        for vector in vectors {
            let values = self.step(&mut state, vector, fault);
            observed.push(
                outputs
                    .iter()
                    .map(|&po| self.comb.observed_value(&values, po, fault))
                    .collect(),
            );
        }
        observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    fn pi_map(pairs: &[(NetId, bool)]) -> HashMap<NetId, Logic> {
        pairs
            .iter()
            .map(|&(n, v)| (n, Logic::from_bool(v)))
            .collect()
    }

    #[test]
    fn comb_propagation_evaluates_gates() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.not(y);
        b.output("z", z);
        let n = b.finish();
        let sim = CombSim::new(&n).unwrap();
        let mut values = sim.blank_values();
        values[a.index()] = Logic::One;
        values[c.index()] = Logic::One;
        sim.propagate(&mut values, None);
        assert_eq!(values[y.index()], Logic::One);
        assert_eq!(values[z.index()], Logic::Zero);
    }

    #[test]
    fn x_inputs_propagate_as_x() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.or2(a, c);
        b.output("y", y);
        let n = b.finish();
        let sim = CombSim::new(&n).unwrap();
        let mut values = sim.blank_values();
        values[a.index()] = Logic::Zero;
        sim.propagate(&mut values, None);
        assert_eq!(values[y.index()], Logic::X);
        values[c.index()] = Logic::One;
        sim.propagate(&mut values, None);
        assert_eq!(values[y.index()], Logic::One);
    }

    #[test]
    fn output_pin_fault_overrides_gate() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(y).unwrap();
        let sim = CombSim::new(&n).unwrap();
        let mut values = sim.blank_values();
        values[a.index()] = Logic::One;
        values[c.index()] = Logic::One;
        sim.propagate(&mut values, Some(StuckAt::output(and, false)));
        assert_eq!(values[y.index()], Logic::Zero);
    }

    #[test]
    fn input_pin_fault_affects_only_that_branch() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y1 = b.buf(a);
        let y2 = b.buf(a);
        b.output("y1", y1);
        b.output("y2", y2);
        let n = b.finish();
        let buf1 = n.driver_of(y1).unwrap();
        let sim = CombSim::new(&n).unwrap();
        let mut values = sim.blank_values();
        values[a.index()] = Logic::One;
        sim.propagate(&mut values, Some(StuckAt::input(buf1, 0, false)));
        assert_eq!(values[y1.index()], Logic::Zero, "faulty branch");
        assert_eq!(values[y2.index()], Logic::One, "healthy branch");
    }

    #[test]
    fn observed_value_accounts_for_po_fault() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.output("y", a);
        let n = b.finish();
        let po = n.primary_outputs()[0];
        let sim = CombSim::new(&n).unwrap();
        let mut values = sim.blank_values();
        values[a.index()] = Logic::Zero;
        sim.propagate(&mut values, None);
        assert_eq!(sim.observed_value(&values, po, None), Logic::Zero);
        let f = StuckAt::input(po, 0, true);
        assert_eq!(sim.observed_value(&values, po, Some(f)), Logic::One);
    }

    #[test]
    fn sequential_counter_counts() {
        // A 3-bit counter built from registers and an incrementer.
        let mut b = NetlistBuilder::new("cnt");
        let ck = b.input("ck");
        // Feedback: build placeholder state nets first.
        let mut nlb = b;
        // simpler: use register with incrementer on its own output via en=1
        // We need feedback; construct manually.
        let ph: Vec<NetId> = (0..3)
            .map(|i| nlb.netlist_mut().add_net(format!("d{i}")))
            .collect();
        let q: Vec<NetId> = ph.iter().map(|&d| nlb.dff(d, ck)).collect();
        let (inc, _) = nlb.incrementer(&q);
        for i in 0..3 {
            let name = format!("fb{i}");
            nlb.netlist_mut()
                .add_cell(netlist::CellKind::Buf, name, &[inc[i]], Some(ph[i]));
        }
        nlb.output_bus("count", &q);
        let n = nlb.finish();
        let sim = SeqSim::new(&n).unwrap();
        let vectors: Vec<HashMap<NetId, Logic>> = (0..5).map(|_| pi_map(&[(ck, true)])).collect();
        let observed = sim.run(&vectors, None);
        // After k cycles the counter holds k (observed value is the state
        // *during* the cycle, i.e. before the edge).
        for (cycle, outs) in observed.iter().enumerate() {
            let value: usize = outs
                .iter()
                .enumerate()
                .map(|(i, v)| (v.to_bool().unwrap() as usize) << i)
                .sum();
            assert_eq!(value, cycle % 8, "cycle {cycle}");
        }
    }

    #[test]
    fn sdff_selects_scan_input_when_se_high() {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d");
        let si = b.input("si");
        let se = b.input("se");
        let ck = b.input("ck");
        let q = b.sdff(d, si, se, ck);
        b.output("q", q);
        let n = b.finish();
        let sim = SeqSim::new(&n).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        // SE=1: capture SI.
        sim.step(
            &mut state,
            &pi_map(&[(d, false), (si, true), (se, true), (ck, true)]),
            None,
        );
        let ff = n.sequential_cells()[0];
        assert_eq!(state[ff.index()], Logic::One);
        // SE=0: capture D.
        sim.step(
            &mut state,
            &pi_map(&[(d, false), (si, true), (se, false), (ck, true)]),
            None,
        );
        assert_eq!(state[ff.index()], Logic::Zero);
    }

    #[test]
    fn reset_forces_zero() {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d");
        let ck = b.input("ck");
        let rst = b.input("rstn");
        let q = b.dff_r(d, ck, rst, Reset::ActiveLow);
        b.output("q", q);
        let n = b.finish();
        let sim = SeqSim::new(&n).unwrap();
        let ff = n.sequential_cells()[0];
        let mut state = sim.uniform_state(Logic::One);
        // Reset asserted (active low, rstn=0): state goes to 0 even with d=1.
        sim.step(
            &mut state,
            &pi_map(&[(d, true), (ck, true), (rst, false)]),
            None,
        );
        assert_eq!(state[ff.index()], Logic::Zero);
        // Reset released: capture d.
        sim.step(
            &mut state,
            &pi_map(&[(d, true), (ck, true), (rst, true)]),
            None,
        );
        assert_eq!(state[ff.index()], Logic::One);
    }

    #[test]
    fn ff_output_fault_pins_state() {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.dff(d, ck);
        b.output("q", q);
        let n = b.finish();
        let ff = n.sequential_cells()[0];
        let sim = SeqSim::new(&n).unwrap();
        let vectors: Vec<HashMap<NetId, Logic>> =
            (0..3).map(|_| pi_map(&[(d, true), (ck, true)])).collect();
        let good = sim.run(&vectors, None);
        let faulty = sim.run(&vectors, Some(StuckAt::output(ff, false)));
        // Good machine eventually outputs 1, faulty machine stays 0.
        assert_eq!(good[2][0], Logic::One);
        assert_eq!(faulty[2][0], Logic::Zero);
    }
}
