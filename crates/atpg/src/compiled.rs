//! One-time compilation of a levelized netlist into a flat, allocation-free
//! simulation program shared by the scalar three-valued simulator
//! ([`CombSim`](crate::sim::CombSim)) and the packed parallel-fault simulator
//! ([`FaultSim`](crate::fault_sim::FaultSim)).
//!
//! The interpreters this module replaces walked `HashMap`-keyed structures on
//! every simulated cycle: flop state keyed by `CellId`, fault injection keyed
//! by `NetId`/`CellId`, input vectors looked up per primary input per cycle,
//! and a fresh value array (plus one `Vec` per cell) allocated per
//! propagation. The compiled form is struct-of-arrays instead — one opcode
//! per combinational cell in topological order, an offset/len window into a
//! single flat `Vec<u32>` of input-net indices, a dense output-net index per
//! cell, and dense tie/flop/output tables — in the style of classical
//! bit-parallel (PPSFP) fault-simulation engines. Per-run state lives in
//! reusable [`PackedScratch`] buffers densely indexed by `NetId::index()` /
//! flop-table position, or in the caller's scalar value array, so the
//! per-cycle hot path touches no hash map and performs no allocation.

use crate::fault_sim::InputVector;
use crate::logic::Logic;
use faultmodel::{FaultSite, StuckAt};
use netlist::{graph, CellId, CellKind, NetId, Netlist, PinIndex, Reset};

/// Sentinel meaning "no net / no pin slot" in the dense `u32` tables.
pub const NO_INDEX: u32 = u32::MAX;

/// Opcode of a compiled combinational cell. The arity lives in the cell's pin
/// window, so one opcode covers every gate width.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Op {
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Not,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR.
    Xor,
    /// N-input XNOR.
    Xnor,
    /// 2-to-1 multiplexer (`D0`, `D1`, `S`).
    Mux2,
}

impl Op {
    fn from_kind(kind: CellKind) -> Option<Op> {
        match kind {
            CellKind::Buf => Some(Op::Buf),
            CellKind::Not => Some(Op::Not),
            CellKind::And(_) => Some(Op::And),
            CellKind::Nand(_) => Some(Op::Nand),
            CellKind::Or(_) => Some(Op::Or),
            CellKind::Nor(_) => Some(Op::Nor),
            CellKind::Xor(_) => Some(Op::Xor),
            CellKind::Xnor(_) => Some(Op::Xnor),
            CellKind::Mux2 => Some(Op::Mux2),
            _ => None,
        }
    }
}

/// One entry of the dense flip-flop table: the flop's output net and the
/// flat pin slots of its data/scan/reset pins. Packed state is stored per
/// table position, so no arena index is needed.
#[derive(Copy, Clone, Debug)]
struct Flop {
    /// Output net index (`NO_INDEX` when the driver was detached).
    q: u32,
    /// Flat pin slot of the `D` pin.
    d_slot: u32,
    /// Flat pin slots of `SI`/`SE`; `NO_INDEX` for plain D flip-flops.
    si_slot: u32,
    se_slot: u32,
    /// Flat pin slot of the reset pin; `NO_INDEX` when there is none.
    rst_slot: u32,
    /// Reset polarity (meaningful only when `rst_slot != NO_INDEX`).
    rst_active_high: bool,
}

/// The compiled simulation program: a netlist lowered once into flat,
/// densely indexed tables, ready for repeated allocation-free evaluation.
///
/// Build one with [`CompiledProgram::compile`]; per-run mutable state lives
/// in a [`PackedScratch`] (packed 64-machine simulation) or a scalar value
/// array (three-valued propagation) owned by the caller, so one program can
/// serve many concurrent workers.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    num_nets: usize,
    // ---- gate program, topological order (struct-of-arrays) ----
    op: Vec<Op>,
    gate_cell: Vec<u32>,
    out: Vec<u32>,
    in_start: Vec<u32>,
    in_len: Vec<u32>,
    /// Flat input-net indices of every live cell (gates, flops, outputs).
    pins: Vec<u32>,
    /// First flat pin slot per cell arena index (`NO_INDEX` when the cell is
    /// dead or has no input pins).
    cell_pin_start: Vec<u32>,
    // ---- dense source / sink tables ----
    /// Nets driven by primary-input pseudo-cells, in creation order.
    pi_nets: Vec<u32>,
    /// Nets driven by tie cells, with their constant value.
    tie_nets: Vec<(u32, bool)>,
    /// Flip-flop table.
    flops: Vec<Flop>,
}

impl CompiledProgram {
    /// Lowers `netlist` into a compiled program.
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the combinational logic is cyclic.
    pub fn compile(netlist: &Netlist) -> Result<Self, graph::CombinationalLoop> {
        let lev = graph::levelize(netlist)?;
        let cells = netlist.cells();

        let mut cell_pin_start = vec![NO_INDEX; cells.len()];
        let mut pins: Vec<u32> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            if cell.is_dead() || cell.inputs().is_empty() {
                continue;
            }
            cell_pin_start[i] = pins.len() as u32;
            pins.extend(cell.inputs().iter().map(|n| n.index() as u32));
        }

        let mut program = CompiledProgram {
            num_nets: netlist.num_nets(),
            op: Vec::with_capacity(lev.order.len()),
            gate_cell: Vec::with_capacity(lev.order.len()),
            out: Vec::with_capacity(lev.order.len()),
            in_start: Vec::with_capacity(lev.order.len()),
            in_len: Vec::with_capacity(lev.order.len()),
            pins,
            cell_pin_start,
            pi_nets: Vec::new(),
            tie_nets: Vec::new(),
            flops: Vec::new(),
        };

        for &cell_id in &lev.order {
            let cell = &cells[cell_id.index()];
            // A gate whose driver was detached computes nothing observable.
            let Some(out_net) = cell.output() else {
                continue;
            };
            program
                .op
                .push(Op::from_kind(cell.kind()).expect("levelized cells are combinational"));
            program.gate_cell.push(cell_id.index() as u32);
            program.out.push(out_net.index() as u32);
            program
                .in_start
                .push(program.cell_pin_start[cell_id.index()]);
            program.in_len.push(cell.inputs().len() as u32);
        }

        for (i, cell) in cells.iter().enumerate() {
            if cell.is_dead() {
                continue;
            }
            match cell.kind() {
                CellKind::Input => {
                    if let Some(out) = cell.output() {
                        program.pi_nets.push(out.index() as u32);
                    }
                }
                CellKind::Tie0 | CellKind::Tie1 => {
                    if let Some(out) = cell.output() {
                        program
                            .tie_nets
                            .push((out.index() as u32, cell.kind() == CellKind::Tie1));
                    }
                }
                kind @ (CellKind::Dff { .. } | CellKind::Sdff { .. }) => {
                    let start = program.cell_pin_start[i];
                    let is_scan = matches!(kind, CellKind::Sdff { .. });
                    program.flops.push(Flop {
                        q: cell.output().map_or(NO_INDEX, |n| n.index() as u32),
                        d_slot: start,
                        si_slot: if is_scan { start + 1 } else { NO_INDEX },
                        se_slot: if is_scan { start + 2 } else { NO_INDEX },
                        rst_slot: kind.reset_pin().map_or(NO_INDEX, |p| start + u32::from(p)),
                        rst_active_high: matches!(kind.reset(), Some(Reset::ActiveHigh)),
                    });
                }
                _ => {}
            }
        }

        Ok(program)
    }

    /// Number of nets the program was compiled for.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of compiled combinational cells.
    pub fn num_gates(&self) -> usize {
        self.op.len()
    }

    /// Dense map from cell arena index to compiled gate-program index
    /// ([`NO_INDEX`] for cells that did not compile to a gate: ports, ties,
    /// flip-flops, dead cells and detached gates). Gate-program indices are
    /// topological, so a sorted subset of them is a valid evaluation order —
    /// the property cone-clipped propagation relies on.
    pub fn gate_index_by_cell(&self) -> Vec<u32> {
        let mut map = vec![NO_INDEX; self.cell_pin_start.len()];
        for (g, &cell) in self.gate_cell.iter().enumerate() {
            map[cell as usize] = g as u32;
        }
        map
    }

    /// The flat pin slot of input pin `pin` of `cell`, or `None` when the
    /// cell is dead, has no compiled pins, or the pin index is out of range.
    fn pin_slot(&self, netlist: &Netlist, cell: CellId, pin: PinIndex) -> Option<usize> {
        let start = self.cell_pin_start[cell.index()];
        if start == NO_INDEX || usize::from(pin) >= netlist.cells()[cell.index()].inputs().len() {
            return None;
        }
        Some(start as usize + usize::from(pin))
    }

    // ------------------------------------------------------------------
    // Packed (64 machines per word) simulation
    // ------------------------------------------------------------------

    /// Creates the reusable per-worker buffers for packed simulation.
    pub fn packed_scratch(&self) -> PackedScratch {
        PackedScratch {
            nets: vec![0; self.num_nets],
            state: vec![0; self.flops.len()],
        }
    }

    /// Creates an (empty) dense fault-injection table sized for this program.
    pub fn packed_injection(&self) -> PackedInjection {
        PackedInjection {
            net_mask: vec![0; self.num_nets],
            net_stuck: vec![0; self.num_nets],
            pin_mask: vec![0; self.pins.len()],
            pin_stuck: vec![0; self.pins.len()],
            touched_nets: Vec::new(),
            touched_pins: Vec::new(),
            fault_bits: 0,
        }
    }

    /// Bit-packs a sequence of input vectors into one dense per-cycle bitset
    /// over the primary inputs, so the per-cycle source application is a
    /// linear scan instead of one hash lookup per input per cycle.
    /// Unmentioned inputs take their mission (inactive) value 0.
    pub fn pack_vectors(&self, vectors: &[InputVector]) -> PackedVectors {
        let words_per_cycle = self.pi_nets.len().div_ceil(64).max(1);
        let mut bits = vec![0u64; words_per_cycle * vectors.len()];
        for (cycle, vector) in vectors.iter().enumerate() {
            let base = cycle * words_per_cycle;
            for (k, &net) in self.pi_nets.iter().enumerate() {
                let id = NetId::from_index(net as usize);
                if vector.get(&id).copied().unwrap_or(false) {
                    bits[base + k / 64] |= 1u64 << (k % 64);
                }
            }
        }
        PackedVectors {
            cycles: vectors.len(),
            words_per_cycle,
            bits,
        }
    }

    /// Simulates one clock cycle of up to 64 packed machines: applies the
    /// cycle's primary-input bits, tie constants and flop state, propagates
    /// the gate program in topological order and captures the next state.
    /// Touches only `scratch`; allocates nothing.
    pub fn run_cycle(
        &self,
        vectors: &PackedVectors,
        cycle: usize,
        injection: &PackedInjection,
        scratch: &mut PackedScratch,
    ) {
        let PackedScratch { nets, state } = scratch;

        // Sources: primary inputs, ties, flip-flop outputs.
        for (k, &net) in self.pi_nets.iter().enumerate() {
            let n = net as usize;
            let v = if vectors.bit(cycle, k) { !0u64 } else { 0 };
            nets[n] = (v & !injection.net_mask[n]) | injection.net_stuck[n];
        }
        for &(net, value) in &self.tie_nets {
            let n = net as usize;
            let v = if value { !0u64 } else { 0 };
            nets[n] = (v & !injection.net_mask[n]) | injection.net_stuck[n];
        }
        for (fi, flop) in self.flops.iter().enumerate() {
            if flop.q != NO_INDEX {
                let n = flop.q as usize;
                nets[n] = (state[fi] & !injection.net_mask[n]) | injection.net_stuck[n];
            }
        }

        // Combinational propagation in topological order.
        for g in 0..self.op.len() {
            let start = self.in_start[g] as usize;
            let len = self.in_len[g] as usize;
            let value = {
                let nets = &*nets;
                let read = |k: usize| -> u64 {
                    let slot = start + k;
                    (nets[self.pins[slot] as usize] & !injection.pin_mask[slot])
                        | injection.pin_stuck[slot]
                };
                match self.op[g] {
                    Op::Buf => read(0),
                    Op::Not => !read(0),
                    Op::And => (0..len).fold(!0u64, |acc, k| acc & read(k)),
                    Op::Nand => !(0..len).fold(!0u64, |acc, k| acc & read(k)),
                    Op::Or => (0..len).fold(0u64, |acc, k| acc | read(k)),
                    Op::Nor => !(0..len).fold(0u64, |acc, k| acc | read(k)),
                    Op::Xor => (0..len).fold(0u64, |acc, k| acc ^ read(k)),
                    Op::Xnor => !(0..len).fold(0u64, |acc, k| acc ^ read(k)),
                    Op::Mux2 => {
                        let select = read(2);
                        (read(0) & !select) | (read(1) & select)
                    }
                }
            };
            let out = self.out[g] as usize;
            nets[out] = (value & !injection.net_mask[out]) | injection.net_stuck[out];
        }

        // Next-state capture. The loop reads only `nets` (state was consumed
        // by the source phase above), so captures commit in place.
        for (fi, flop) in self.flops.iter().enumerate() {
            let read = |slot: u32| -> u64 {
                let s = slot as usize;
                (nets[self.pins[s] as usize] & !injection.pin_mask[s]) | injection.pin_stuck[s]
            };
            let mut data = if flop.si_slot != NO_INDEX {
                let d = read(flop.d_slot);
                let si = read(flop.si_slot);
                let se = read(flop.se_slot);
                (d & !se) | (si & se)
            } else {
                read(flop.d_slot)
            };
            if flop.rst_slot != NO_INDEX {
                let rst = read(flop.rst_slot);
                let active = if flop.rst_active_high { rst } else { !rst };
                data &= !active;
            }
            // A stuck output pin also pins the stored state.
            if flop.q != NO_INDEX {
                let n = flop.q as usize;
                data = (data & !injection.net_mask[n]) | injection.net_stuck[n];
            }
            state[fi] = data;
        }
    }

    /// The packed value observed at an `Output` pseudo-cell, including any
    /// injected fault on the output's own input pin — the single place both
    /// the good-machine response extraction and the detection loop read
    /// primary outputs.
    pub fn observe_output(
        &self,
        scratch: &PackedScratch,
        injection: &PackedInjection,
        output: CellId,
    ) -> u64 {
        let slot = self.cell_pin_start[output.index()];
        debug_assert_ne!(slot, NO_INDEX, "observed cell has no input pin");
        let slot = slot as usize;
        (scratch.nets[self.pins[slot] as usize] & !injection.pin_mask[slot])
            | injection.pin_stuck[slot]
    }

    // ------------------------------------------------------------------
    // Scalar three-valued propagation
    // ------------------------------------------------------------------

    /// Three-valued propagation over the compiled program: the engine behind
    /// [`CombSim::propagate`](crate::sim::CombSim::propagate), evaluating
    /// every gate directly over its pin window — no per-cell input buffer is
    /// allocated.
    ///
    /// On entry `values` holds primary-input, flip-flop-output and forced net
    /// values; the tie constants are applied and every other net is
    /// recomputed. `forced_mask` is the dense never-overwrite bitmap of the
    /// forced nets, indexed by net, or empty when nothing is forced. `fault`
    /// optionally injects one stuck-at fault.
    pub fn propagate_scalar(
        &self,
        netlist: &Netlist,
        values: &mut [Logic],
        forced_mask: &[bool],
        fault: Option<StuckAt>,
    ) {
        for &(net, value) in &self.tie_nets {
            if !is_forced(forced_mask, net as usize) {
                values[net as usize] = Logic::from_bool(value);
            }
        }
        self.propagate_gates(netlist, values, forced_mask, fault, 0..self.op.len());
    }

    /// Cone-clipped three-valued propagation: like
    /// [`propagate_scalar`](Self::propagate_scalar) but evaluating only the
    /// gates in `gates` — ascending gate-program indices, i.e. a
    /// topologically consistent subset such as a fault's fanout cone.
    ///
    /// `values` must already hold the values of every net the clipped gates
    /// read (a cone-clipped caller syncs them from its good machine); nets
    /// outside the cone are left untouched.
    pub fn propagate_scalar_clipped(
        &self,
        netlist: &Netlist,
        values: &mut [Logic],
        forced_mask: &[bool],
        fault: Option<StuckAt>,
        gates: &[u32],
    ) {
        debug_assert!(gates.windows(2).all(|w| w[0] < w[1]));
        let gates = gates.iter().map(|&g| g as usize);
        self.propagate_gates(netlist, values, forced_mask, fault, gates);
    }

    /// The gate loop shared by both scalar propagations: injects an
    /// output-pin fault on a source, then evaluates `gates` in order.
    fn propagate_gates(
        &self,
        netlist: &Netlist,
        values: &mut [Logic],
        forced_mask: &[bool],
        fault: Option<StuckAt>,
        gates: impl Iterator<Item = usize>,
    ) {
        debug_assert_eq!(values.len(), self.num_nets);
        debug_assert!(forced_mask.is_empty() || forced_mask.len() == self.num_nets);

        // Output-pin fault on a source (input / tie / flip-flop): override
        // the driven net before propagation.
        if let Some(f) = fault {
            if let FaultSite::CellOutput { cell } = f.site {
                if !netlist.cell(cell).kind().is_combinational() {
                    if let Some(out) = netlist.output_net(cell) {
                        values[out.index()] = Logic::from_bool(f.value);
                    }
                }
            }
        }

        let (fault_cell, fault_pin, fault_value, fault_on_output) = decompose_fault(fault);
        for g in gates {
            self.eval_gate(
                g,
                values,
                forced_mask,
                fault_cell,
                fault_pin,
                fault_value,
                fault_on_output,
            );
        }
    }

    /// Evaluates the logic function of compiled gate `g` over a caller
    /// supplied pin-read closure — the shared core of every scalar gate
    /// evaluation path.
    #[inline(always)]
    fn compute_gate(&self, g: usize, read: impl Fn(usize) -> Logic) -> Logic {
        let len = self.in_len[g] as usize;
        match self.op[g] {
            Op::Buf => read(0),
            Op::Not => read(0).not(),
            Op::And => (0..len).fold(Logic::One, |acc, k| acc.and(read(k))),
            Op::Nand => (0..len).fold(Logic::One, |acc, k| acc.and(read(k))).not(),
            Op::Or => (0..len).fold(Logic::Zero, |acc, k| acc.or(read(k))),
            Op::Nor => (0..len).fold(Logic::Zero, |acc, k| acc.or(read(k))).not(),
            Op::Xor => (0..len).fold(Logic::Zero, |acc, k| acc.xor(read(k))),
            Op::Xnor => (0..len).fold(Logic::Zero, |acc, k| acc.xor(read(k))).not(),
            Op::Mux2 => Logic::mux(read(0), read(1), read(2)),
        }
    }

    /// Fault-free evaluation of compiled gate `g` over `values`, without
    /// writing the result — the inner step of event-driven incremental
    /// good-machine updates (cone-clipped PODEM re-evaluates only the gates
    /// downstream of a changed assignment).
    #[inline]
    pub fn eval_gate_scalar(&self, g: usize, values: &[Logic]) -> Logic {
        let start = self.in_start[g] as usize;
        self.compute_gate(g, |k| values[self.pins[start + k] as usize])
    }

    /// The output-net index of compiled gate `g`.
    #[inline]
    pub fn gate_output(&self, g: usize) -> u32 {
        self.out[g]
    }

    /// The input-net indices of compiled gate `g`, in pin order: its pin
    /// window (empty for a gate without input pins).
    #[inline]
    pub(crate) fn gate_inputs(&self, g: usize) -> &[u32] {
        let start = self.in_start[g] as usize;
        self.pins
            .get(start..start + self.in_len[g] as usize)
            .unwrap_or(&[])
    }

    /// Evaluation of compiled gate `g` over `values` with `fault` injected
    /// when it sits on one of the gate's pins or on its output, without
    /// writing the result — the inner step of event-driven faulty-machine
    /// updates (cone-clipped PODEM re-evaluates only the cone gates whose
    /// inputs changed).
    #[inline]
    pub fn eval_gate_faulty(&self, g: usize, values: &[Logic], fault: StuckAt) -> Logic {
        let (fault_cell, fault_pin, fault_value, fault_on_output) = decompose_fault(Some(fault));
        self.gate_value(
            g,
            values,
            fault_cell,
            fault_pin,
            fault_value,
            fault_on_output,
        )
    }

    /// The value of compiled gate `g` over `values` with a decomposed
    /// stuck-at fault injected — the shared core of
    /// [`eval_gate_faulty`](Self::eval_gate_faulty) and the scalar
    /// propagations' gate loop.
    #[inline(always)]
    fn gate_value(
        &self,
        g: usize,
        values: &[Logic],
        fault_cell: u32,
        fault_pin: u32,
        fault_value: Logic,
        fault_on_output: bool,
    ) -> Logic {
        let cell = self.gate_cell[g];
        if cell == fault_cell && fault_on_output {
            return fault_value;
        }
        let faulty_pin = if cell == fault_cell {
            fault_pin
        } else {
            NO_INDEX
        };
        let start = self.in_start[g] as usize;
        self.compute_gate(g, |k| {
            if k as u32 == faulty_pin {
                fault_value
            } else {
                values[self.pins[start + k] as usize]
            }
        })
    }

    /// Evaluates one compiled gate into `values`, honouring an injected
    /// stuck-at fault and the forced-net bitmap — the shared inner step of
    /// the full and cone-clipped scalar propagations.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn eval_gate(
        &self,
        g: usize,
        values: &mut [Logic],
        forced: &[bool],
        fault_cell: u32,
        fault_pin: u32,
        fault_value: Logic,
        fault_on_output: bool,
    ) {
        let value = self.gate_value(
            g,
            values,
            fault_cell,
            fault_pin,
            fault_value,
            fault_on_output,
        );
        let out = self.out[g] as usize;
        if !is_forced(forced, out) {
            values[out] = value;
        }
    }
}

/// Whether net index `net` is set in `forced_mask` (an empty mask forces
/// nothing).
#[inline(always)]
fn is_forced(forced_mask: &[bool], net: usize) -> bool {
    forced_mask.get(net).copied().unwrap_or(false)
}

/// Lowers an optional stuck-at fault into the dense fields the gate loops
/// branch on: `(cell arena index, pin index, stuck value, is-output-fault)`.
#[inline]
fn decompose_fault(fault: Option<StuckAt>) -> (u32, u32, Logic, bool) {
    match fault {
        Some(f) => match f.site {
            FaultSite::CellOutput { cell } => (
                cell.index() as u32,
                NO_INDEX,
                Logic::from_bool(f.value),
                true,
            ),
            FaultSite::CellInput { cell, pin } => (
                cell.index() as u32,
                u32::from(pin),
                Logic::from_bool(f.value),
                false,
            ),
        },
        None => (NO_INDEX, NO_INDEX, Logic::X, false),
    }
}

/// Reusable per-worker buffers for packed simulation: net values indexed by
/// `NetId::index()` and flop state indexed by flop-table position.
#[derive(Clone, Debug)]
pub struct PackedScratch {
    nets: Vec<u64>,
    state: Vec<u64>,
}

impl PackedScratch {
    /// Resets the sequential state to the all-zero reset value (net values
    /// need no reset: every driven net is rewritten each cycle and floating
    /// nets are never written, staying at their initial 0).
    pub fn reset(&mut self) {
        self.state.fill(0);
    }
}

/// Dense per-chunk fault-injection tables: one mask/stuck word per net and
/// per flat pin slot. Loading a chunk touches only the faulty entries and
/// remembers them, so re-loading is O(chunk), not O(design).
#[derive(Clone, Debug)]
pub struct PackedInjection {
    net_mask: Vec<u64>,
    net_stuck: Vec<u64>,
    pin_mask: Vec<u64>,
    pin_stuck: Vec<u64>,
    touched_nets: Vec<u32>,
    touched_pins: Vec<u32>,
    fault_bits: u64,
}

impl PackedInjection {
    /// Mask of bits carrying a fault (bit 0 — the good machine — excluded).
    pub fn fault_bits(&self) -> u64 {
        self.fault_bits
    }

    /// Loads a chunk of up to 63 faults, clearing the previous chunk first.
    /// Fault `i` of the chunk occupies bit `i + 1`; bit 0 stays the good
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if the chunk holds more than 63 faults.
    pub fn load(
        &mut self,
        program: &CompiledProgram,
        netlist: &Netlist,
        chunk: impl IntoIterator<Item = StuckAt>,
    ) {
        for &n in &self.touched_nets {
            self.net_mask[n as usize] = 0;
            self.net_stuck[n as usize] = 0;
        }
        for &s in &self.touched_pins {
            self.pin_mask[s as usize] = 0;
            self.pin_stuck[s as usize] = 0;
        }
        self.touched_nets.clear();
        self.touched_pins.clear();
        self.fault_bits = 0;

        for (i, fault) in chunk.into_iter().enumerate() {
            assert!(i < 63, "fault chunk exceeds 63 faults");
            let bit = 1u64 << (i + 1);
            self.fault_bits |= bit;
            let stuck = if fault.value { bit } else { 0 };
            match fault.site {
                FaultSite::CellOutput { cell } => {
                    if let Some(net) = netlist.output_net(cell) {
                        let n = net.index();
                        self.net_mask[n] |= bit;
                        self.net_stuck[n] |= stuck;
                        self.touched_nets.push(n as u32);
                    }
                }
                FaultSite::CellInput { cell, pin } => {
                    if let Some(slot) = program.pin_slot(netlist, cell, pin) {
                        self.pin_mask[slot] |= bit;
                        self.pin_stuck[slot] |= stuck;
                        self.touched_pins.push(slot as u32);
                    }
                }
            }
        }
    }
}

/// Input vectors bit-packed once per campaign: one bit per primary input per
/// cycle, in the program's dense primary-input order.
#[derive(Clone, Debug)]
pub struct PackedVectors {
    cycles: usize,
    words_per_cycle: usize,
    bits: Vec<u64>,
}

impl PackedVectors {
    /// Number of packed cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    #[inline]
    fn bit(&self, cycle: usize, pi: usize) -> bool {
        self.bits[cycle * self.words_per_cycle + pi / 64] >> (pi % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    fn vector(pairs: &[(NetId, bool)]) -> InputVector {
        pairs.iter().copied().collect()
    }

    #[test]
    fn compiles_gates_in_topological_order() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.not(y);
        b.output("z", z);
        let n = b.finish();
        let program = CompiledProgram::compile(&n).unwrap();
        assert_eq!(program.num_gates(), 2);
        assert_eq!(program.op, vec![Op::And, Op::Not]);
        assert_eq!(program.pi_nets.len(), 2);
    }

    #[test]
    fn packed_cycle_evaluates_gates() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let program = CompiledProgram::compile(&n).unwrap();
        let packed = program.pack_vectors(&[
            vector(&[(a, true), (c, true)]),
            vector(&[(a, true), (c, false)]),
        ]);
        let injection = program.packed_injection();
        let mut scratch = program.packed_scratch();
        let po = n.primary_outputs()[0];
        program.run_cycle(&packed, 0, &injection, &mut scratch);
        assert_eq!(program.observe_output(&scratch, &injection, po) & 1, 1);
        program.run_cycle(&packed, 1, &injection, &mut scratch);
        assert_eq!(program.observe_output(&scratch, &injection, po) & 1, 0);
    }

    #[test]
    fn injection_reload_clears_previous_chunk() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.buf(a);
        b.output("y", y);
        let n = b.finish();
        let buf = n.driver_of(y).unwrap();
        let program = CompiledProgram::compile(&n).unwrap();
        let mut injection = program.packed_injection();
        injection.load(&program, &n, [StuckAt::output(buf, true)]);
        assert_eq!(injection.fault_bits(), 0b10);
        assert_eq!(injection.net_mask[y.index()], 0b10);
        injection.load(&program, &n, [StuckAt::input(buf, 0, false)]);
        assert_eq!(injection.net_mask[y.index()], 0, "stale override kept");
        let slot = program.pin_slot(&n, buf, 0).unwrap();
        assert_eq!(injection.pin_mask[slot], 0b10);
    }

    #[test]
    fn out_of_range_pin_fault_is_ignored() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.buf(a);
        b.output("y", y);
        let n = b.finish();
        let buf = n.driver_of(y).unwrap();
        let program = CompiledProgram::compile(&n).unwrap();
        assert_eq!(program.pin_slot(&n, buf, 7), None);
        let mut injection = program.packed_injection();
        injection.load(&program, &n, [StuckAt::input(buf, 7, true)]);
        assert!(injection.touched_pins.is_empty());
    }

    #[test]
    fn scalar_propagation_matches_logic_eval() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c);
        b.output("y", y);
        let n = b.finish();
        let program = CompiledProgram::compile(&n).unwrap();
        let mut values = vec![Logic::X; n.num_nets()];
        values[a.index()] = Logic::One;
        values[c.index()] = Logic::Zero;
        program.propagate_scalar(&n, &mut values, &[], None);
        assert_eq!(values[y.index()], Logic::One);
    }
}
