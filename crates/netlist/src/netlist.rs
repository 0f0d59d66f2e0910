//! The flat, arena-indexed gate-level netlist.

use crate::{Cell, CellAttrs, CellId, CellKind, NetId, PinIndex, PinRef};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A single-bit wire connecting exactly one driver to any number of loads.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) driver: Option<CellId>,
    pub(crate) loads: Vec<PinRef>,
}

impl Net {
    /// The name of this net.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell driving this net, if any (a net left floating by a
    /// manipulation step has no driver).
    pub fn driver(&self) -> Option<CellId> {
        self.driver
    }

    /// The input pins this net fans out to.
    pub fn loads(&self) -> &[PinRef] {
        &self.loads
    }
}

/// Errors produced by structural editing operations on a [`Netlist`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetlistError {
    /// A net was about to get a second driver.
    MultipleDrivers {
        /// The net that already has a driver.
        net: String,
    },
    /// The number of connected nets does not match the cell kind's pin count.
    PinCountMismatch {
        /// Instance name of the offending cell.
        cell: String,
        /// Pins the kind expects.
        expected: usize,
        /// Nets that were supplied.
        got: usize,
    },
    /// A cell kind that requires an output was created without one, or vice
    /// versa.
    OutputMismatch {
        /// Instance name of the offending cell.
        cell: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` already has a driver")
            }
            NetlistError::PinCountMismatch {
                cell,
                expected,
                got,
            } => write!(
                f,
                "cell `{cell}` expects {expected} input pins but {got} nets were connected"
            ),
            NetlistError::OutputMismatch { cell } => {
                write!(f, "cell `{cell}` output connection does not match its kind")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat gate-level netlist: an arena of [`Cell`]s and [`Net`]s plus the
/// primary port lists.
///
/// # Examples
///
/// ```
/// use netlist::{Netlist, CellKind};
///
/// let mut n = Netlist::new("half_adder");
/// let (_, a) = n.add_input("a");
/// let (_, b) = n.add_input("b");
/// let sum = n.add_net("sum");
/// let carry = n.add_net("carry");
/// n.add_cell(CellKind::Xor(2), "u_sum", &[a, b], Some(sum));
/// n.add_cell(CellKind::And(2), "u_carry", &[a, b], Some(carry));
/// n.add_output("sum", sum);
/// n.add_output("carry", carry);
/// assert_eq!(n.num_cells(), 6); // 2 inputs + 2 gates + 2 outputs
/// assert_eq!(n.num_nets(), 4);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    cell_names: HashMap<String, CellId>,
    net_names: HashMap<String, NetId>,
    primary_inputs: Vec<CellId>,
    primary_outputs: Vec<CellId>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            nets: Vec::new(),
            cell_names: HashMap::new(),
            net_names: HashMap::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn unique_net_name(&self, requested: &str) -> String {
        if !self.net_names.contains_key(requested) {
            return requested.to_string();
        }
        let mut i = 1usize;
        loop {
            let candidate = format!("{requested}__{i}");
            if !self.net_names.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    fn unique_cell_name(&self, requested: &str) -> String {
        if !self.cell_names.contains_key(requested) {
            return requested.to_string();
        }
        let mut i = 1usize;
        loop {
            let candidate = format!("{requested}__{i}");
            if !self.cell_names.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    /// Adds a new net. If the requested name collides with an existing net a
    /// unique suffix is appended.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        let name = self.unique_net_name(name.as_ref());
        let id = NetId::from_index(self.nets.len());
        self.net_names.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            driver: None,
            loads: Vec::new(),
        });
        id
    }

    /// Adds a cell, connecting its input pins to `inputs` (in pin order) and
    /// its output to `output`.
    ///
    /// This is the checked equivalent of [`add_cell`](Self::add_cell): it
    /// returns an error instead of panicking on malformed connections.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::PinCountMismatch`] if `inputs.len()` differs from
    ///   the kind's pin count.
    /// * [`NetlistError::OutputMismatch`] if `output` presence does not match
    ///   the kind.
    /// * [`NetlistError::MultipleDrivers`] if `output` already has a driver.
    pub fn try_add_cell(
        &mut self,
        kind: CellKind,
        name: impl AsRef<str>,
        inputs: &[NetId],
        output: Option<NetId>,
    ) -> Result<CellId, NetlistError> {
        let name = self.unique_cell_name(name.as_ref());
        if inputs.len() != kind.num_inputs() {
            return Err(NetlistError::PinCountMismatch {
                cell: name,
                expected: kind.num_inputs(),
                got: inputs.len(),
            });
        }
        if output.is_some() != kind.has_output() {
            return Err(NetlistError::OutputMismatch { cell: name });
        }
        if let Some(out) = output {
            if self.nets[out.index()].driver.is_some() {
                return Err(NetlistError::MultipleDrivers {
                    net: self.nets[out.index()].name.clone(),
                });
            }
        }
        let id = CellId::from_index(self.cells.len());
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.index()]
                .loads
                .push(PinRef::new(id, pin as PinIndex));
        }
        if let Some(out) = output {
            self.nets[out.index()].driver = Some(id);
        }
        self.cell_names.insert(name.clone(), id);
        self.cells.push(Cell {
            kind,
            name,
            inputs: inputs.to_vec(),
            output,
            attrs: CellAttrs::default(),
            dead: false,
        });
        if kind == CellKind::Input {
            self.primary_inputs.push(id);
        } else if kind == CellKind::Output {
            self.primary_outputs.push(id);
        }
        Ok(id)
    }

    /// Adds a cell, panicking on malformed connections.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions for which
    /// [`try_add_cell`](Self::try_add_cell) returns an error.
    pub fn add_cell(
        &mut self,
        kind: CellKind,
        name: impl AsRef<str>,
        inputs: &[NetId],
        output: Option<NetId>,
    ) -> CellId {
        self.try_add_cell(kind, name, inputs, output)
            .unwrap_or_else(|e| panic!("add_cell: {e}"))
    }

    /// Adds a primary input: creates an `Input` pseudo-cell and the net it
    /// drives. Returns both.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> (CellId, NetId) {
        let net = self.add_net(name.as_ref());
        let cell = self.add_cell(CellKind::Input, name.as_ref(), &[], Some(net));
        (cell, net)
    }

    /// Adds a primary output pseudo-cell observing `net`.
    pub fn add_output(&mut self, name: impl AsRef<str>, net: NetId) -> CellId {
        self.add_cell(CellKind::Output, name.as_ref(), &[net], None)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of cells ever added (live and dead).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of live (not removed) cells.
    pub fn num_live_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.dead).count()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// All cells as a dense slice indexed by [`CellId::index`] (dead cells
    /// included — check [`Cell::is_dead`]). This is the allocation-free
    /// counterpart of [`live_cells`](Self::live_cells) for compiled engines
    /// that index cells by their arena position.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets as a dense slice indexed by [`NetId::index`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId::from_index)
    }

    /// Iterates over `(id, cell)` pairs of live cells.
    pub fn live_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.dead)
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// The `Input` pseudo-cells, in creation order (dead ones excluded).
    pub fn primary_inputs(&self) -> Vec<CellId> {
        self.primary_inputs
            .iter()
            .copied()
            .filter(|&c| !self.cells[c.index()].dead)
            .collect()
    }

    /// The `Output` pseudo-cells, in creation order (dead ones excluded).
    pub fn primary_outputs(&self) -> Vec<CellId> {
        self.primary_outputs
            .iter()
            .copied()
            .filter(|&c| !self.cells[c.index()].dead)
            .collect()
    }

    /// The nets driven by primary inputs.
    pub fn primary_input_nets(&self) -> Vec<NetId> {
        self.primary_inputs()
            .iter()
            .filter_map(|&c| self.cells[c.index()].output)
            .collect()
    }

    /// The nets observed by primary outputs.
    pub fn primary_output_nets(&self) -> Vec<NetId> {
        self.primary_outputs()
            .iter()
            .map(|&c| self.cells[c.index()].inputs[0])
            .collect()
    }

    /// Looks up a net by exact name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Looks up a cell by exact instance name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cell_names.get(name).copied()
    }

    /// Looks up the primary input cell whose name is `name`.
    pub fn find_input(&self, name: &str) -> Option<CellId> {
        self.find_cell(name).filter(|&c| {
            self.cells[c.index()].kind == CellKind::Input && !self.cells[c.index()].dead
        })
    }

    /// The net connected to input pin `pin` of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if the pin index is out of range.
    pub fn input_net(&self, cell: CellId, pin: PinIndex) -> NetId {
        self.cells[cell.index()].inputs[pin as usize]
    }

    /// The net driven by `cell`, if any.
    pub fn output_net(&self, cell: CellId) -> Option<NetId> {
        self.cells[cell.index()].output
    }

    /// The driver cell of `net`, if any.
    pub fn driver_of(&self, net: NetId) -> Option<CellId> {
        self.nets[net.index()].driver
    }

    /// The loads (input pins) of `net`.
    pub fn loads_of(&self, net: NetId) -> &[PinRef] {
        &self.nets[net.index()].loads
    }

    /// All live flip-flop cells (both plain and scan).
    pub fn sequential_cells(&self) -> Vec<CellId> {
        self.live_cells()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(id, _)| id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Attributes
    // ------------------------------------------------------------------

    /// Replaces the attributes of a cell.
    pub fn set_attrs(&mut self, cell: CellId, attrs: CellAttrs) {
        self.cells[cell.index()].attrs = attrs;
    }

    /// Sets only the group attribute of a cell.
    pub fn set_group(&mut self, cell: CellId, group: impl Into<String>) {
        self.cells[cell.index()].attrs.group = group.into();
    }

    /// Sets only the address-bit attribute of a cell.
    pub fn set_address_bit(&mut self, cell: CellId, bit: u32) {
        self.cells[cell.index()].attrs.address_bit = Some(bit);
    }

    /// Ids of live cells whose group is `group` or nested below it.
    pub fn cells_in_group(&self, group: &str) -> Vec<CellId> {
        self.live_cells()
            .filter(|(_, c)| c.attrs.in_group(group))
            .map(|(id, _)| id)
            .collect()
    }

    /// All distinct non-empty group names present in the design.
    pub fn groups(&self) -> Vec<String> {
        let mut groups: Vec<String> = self
            .live_cells()
            .map(|(_, c)| c.attrs.group.clone())
            .filter(|g| !g.is_empty())
            .collect();
        groups.sort();
        groups.dedup();
        groups
    }

    // ------------------------------------------------------------------
    // Structural editing (used by circuit manipulation)
    // ------------------------------------------------------------------

    /// Reconnects input pin `pin` of `cell` to `new_net`, maintaining load
    /// lists on both the old and the new net.
    ///
    /// # Panics
    ///
    /// Panics if the pin index is out of range.
    pub fn set_cell_input(&mut self, cell: CellId, pin: PinIndex, new_net: NetId) {
        let old_net = self.cells[cell.index()].inputs[pin as usize];
        if old_net == new_net {
            return;
        }
        let pinref = PinRef::new(cell, pin);
        self.nets[old_net.index()].loads.retain(|&l| l != pinref);
        self.nets[new_net.index()].loads.push(pinref);
        self.cells[cell.index()].inputs[pin as usize] = new_net;
    }

    /// Detaches the driver of `net`, leaving the net floating. Returns the
    /// previous driver, if any. The previous driver cell keeps existing but
    /// no longer drives anything.
    pub fn detach_driver(&mut self, net: NetId) -> Option<CellId> {
        let driver = self.nets[net.index()].driver.take();
        if let Some(d) = driver {
            self.cells[d.index()].output = None;
        }
        driver
    }

    /// Creates (or reuses) a tie cell of the requested constant value and
    /// returns the net it drives.
    pub fn tie_net(&mut self, value: bool) -> NetId {
        let kind = if value {
            CellKind::Tie1
        } else {
            CellKind::Tie0
        };
        // Reuse an existing live tie cell if one exists.
        for (id, cell) in self.live_cells() {
            if cell.kind == kind {
                if let Some(out) = cell.output {
                    let _ = id;
                    return out;
                }
            }
        }
        let net = self.add_net(if value { "tie1" } else { "tie0" });
        self.add_cell(
            kind,
            if value { "u_tie1" } else { "u_tie0" },
            &[],
            Some(net),
        );
        net
    }

    /// Replaces the kind and input connections of an existing cell, keeping
    /// its identity, name, attributes and output net. Used for in-place
    /// design-for-test transformations such as converting a plain D flip-flop
    /// into a mux-scan flip-flop.
    ///
    /// # Panics
    ///
    /// Panics if the number of supplied nets does not match the new kind's
    /// pin count, or if exactly one of (old kind, new kind) has an output.
    pub fn replace_cell(&mut self, cell: CellId, kind: CellKind, inputs: &[NetId]) {
        assert_eq!(
            inputs.len(),
            kind.num_inputs(),
            "replace_cell: pin count mismatch for `{}`",
            self.cells[cell.index()].name
        );
        assert_eq!(
            kind.has_output(),
            self.cells[cell.index()].kind.has_output(),
            "replace_cell: output presence mismatch for `{}`",
            self.cells[cell.index()].name
        );
        assert!(
            !self.cells[cell.index()].dead,
            "replace_cell: cell `{}` was removed",
            self.cells[cell.index()].name
        );
        let old_inputs = self.cells[cell.index()].inputs.clone();
        for (pin, net) in old_inputs.iter().enumerate() {
            let pinref = PinRef::new(cell, pin as PinIndex);
            self.nets[net.index()].loads.retain(|&l| l != pinref);
        }
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.index()]
                .loads
                .push(PinRef::new(cell, pin as PinIndex));
        }
        self.cells[cell.index()].kind = kind;
        self.cells[cell.index()].inputs = inputs.to_vec();
    }

    /// Marks a cell as removed: all its input pins are disconnected and the
    /// net it drove (if any) is left floating. Ids of other cells are not
    /// affected.
    pub fn remove_cell(&mut self, cell: CellId) {
        if self.cells[cell.index()].dead {
            return;
        }
        let inputs = self.cells[cell.index()].inputs.clone();
        for (pin, net) in inputs.iter().enumerate() {
            let pinref = PinRef::new(cell, pin as PinIndex);
            self.nets[net.index()].loads.retain(|&l| l != pinref);
        }
        self.cells[cell.index()].inputs.clear();
        if let Some(out) = self.cells[cell.index()].output.take() {
            self.nets[out.index()].driver = None;
        }
        self.cells[cell.index()].dead = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Netlist, NetId, NetId, NetId) {
        let mut n = Netlist::new("tiny");
        let (_, a) = n.add_input("a");
        let (_, b) = n.add_input("b");
        let y = n.add_net("y");
        n.add_cell(CellKind::And(2), "u1", &[a, b], Some(y));
        n.add_output("y", y);
        (n, a, b, y)
    }

    #[test]
    fn build_and_query() {
        let (n, a, b, y) = tiny();
        assert_eq!(n.num_cells(), 4);
        assert_eq!(n.num_nets(), 3);
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
        assert_eq!(n.primary_input_nets(), vec![a, b]);
        assert_eq!(n.primary_output_nets(), vec![y]);
        let and = n.find_cell("u1").unwrap();
        assert_eq!(n.cell(and).kind(), CellKind::And(2));
        assert_eq!(n.input_net(and, 0), a);
        assert_eq!(n.input_net(and, 1), b);
        assert_eq!(n.output_net(and), Some(y));
        assert_eq!(n.driver_of(y), Some(and));
        assert_eq!(n.loads_of(a).len(), 1);
    }

    #[test]
    fn duplicate_names_get_suffixed() {
        let mut n = Netlist::new("t");
        let n1 = n.add_net("w");
        let n2 = n.add_net("w");
        assert_ne!(n1, n2);
        assert_eq!(n.net(n2).name(), "w__1");
        let (_, a) = n.add_input("a");
        let y1 = n.add_net("y1");
        let y2 = n.add_net("y2");
        let c1 = n.add_cell(CellKind::Buf, "u", &[a], Some(y1));
        let c2 = n.add_cell(CellKind::Buf, "u", &[a], Some(y2));
        assert_ne!(c1, c2);
        assert_eq!(n.cell(c2).name(), "u__1");
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut n = Netlist::new("t");
        let (_, a) = n.add_input("a");
        let y = n.add_net("y");
        n.add_cell(CellKind::Buf, "u1", &[a], Some(y));
        let err = n
            .try_add_cell(CellKind::Buf, "u2", &[a], Some(y))
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn pin_count_checked() {
        let mut n = Netlist::new("t");
        let (_, a) = n.add_input("a");
        let y = n.add_net("y");
        let err = n
            .try_add_cell(CellKind::And(2), "u1", &[a], Some(y))
            .unwrap_err();
        assert!(matches!(err, NetlistError::PinCountMismatch { .. }));
        let err = n.try_add_cell(CellKind::Buf, "u2", &[a], None).unwrap_err();
        assert!(matches!(err, NetlistError::OutputMismatch { .. }));
    }

    #[test]
    fn rewire_input_updates_loads() {
        let (mut n, a, b, _) = tiny();
        let and = n.find_cell("u1").unwrap();
        let tie = n.tie_net(false);
        n.set_cell_input(and, 1, tie);
        assert_eq!(n.input_net(and, 1), tie);
        assert!(n.loads_of(b).is_empty());
        assert_eq!(n.loads_of(tie).len(), 1);
        // a untouched
        assert_eq!(n.loads_of(a).len(), 1);
    }

    #[test]
    fn tie_net_is_reused() {
        let (mut n, ..) = tiny();
        let t0a = n.tie_net(false);
        let t0b = n.tie_net(false);
        let t1 = n.tie_net(true);
        assert_eq!(t0a, t0b);
        assert_ne!(t0a, t1);
    }

    #[test]
    fn detach_driver_floats_net() {
        let (mut n, _, _, y) = tiny();
        let and = n.find_cell("u1").unwrap();
        let prev = n.detach_driver(y);
        assert_eq!(prev, Some(and));
        assert_eq!(n.driver_of(y), None);
        assert_eq!(n.output_net(and), None);
    }

    #[test]
    fn remove_cell_detaches_everything() {
        let (mut n, a, b, y) = tiny();
        let and = n.find_cell("u1").unwrap();
        n.remove_cell(and);
        assert!(n.cell(and).is_dead());
        assert!(n.loads_of(a).is_empty());
        assert!(n.loads_of(b).is_empty());
        assert_eq!(n.driver_of(y), None);
        assert_eq!(n.num_live_cells(), 3);
        // removing twice is a no-op
        n.remove_cell(and);
        assert_eq!(n.num_live_cells(), 3);
    }

    #[test]
    fn replace_cell_converts_dff_to_sdff() {
        let mut n = Netlist::new("t");
        let (_, d) = n.add_input("d");
        let (_, ck) = n.add_input("ck");
        let (_, si) = n.add_input("si");
        let (_, se) = n.add_input("se");
        let q = n.add_net("q");
        let ff = n.add_cell(CellKind::Dff { reset: None }, "ff", &[d, ck], Some(q));
        n.add_output("q", q);
        n.replace_cell(ff, CellKind::Sdff { reset: None }, &[d, si, se, ck]);
        assert_eq!(n.cell(ff).kind(), CellKind::Sdff { reset: None });
        assert_eq!(n.cell(ff).inputs(), &[d, si, se, ck]);
        assert_eq!(n.output_net(ff), Some(q));
        assert_eq!(n.loads_of(si).len(), 1);
        assert_eq!(n.loads_of(se).len(), 1);
        // The clock load moved from pin 1 to pin 3.
        assert_eq!(n.loads_of(ck)[0].pin, 3);
    }

    #[test]
    #[should_panic(expected = "pin count mismatch")]
    fn replace_cell_checks_pin_count() {
        let mut n = Netlist::new("t");
        let (_, d) = n.add_input("d");
        let (_, ck) = n.add_input("ck");
        let q = n.add_net("q");
        let ff = n.add_cell(CellKind::Dff { reset: None }, "ff", &[d, ck], Some(q));
        n.replace_cell(ff, CellKind::Sdff { reset: None }, &[d, ck]);
    }

    #[test]
    fn groups_and_attrs() {
        let (mut n, ..) = tiny();
        let and = n.find_cell("u1").unwrap();
        n.set_group(and, "alu.logic");
        n.set_address_bit(and, 7);
        assert_eq!(n.cells_in_group("alu"), vec![and]);
        assert!(n.cells_in_group("btb").is_empty());
        assert_eq!(n.groups(), vec!["alu.logic".to_string()]);
        assert_eq!(n.cell(and).attrs().address_bit, Some(7));
    }

    #[test]
    fn sequential_cells_listed() {
        let mut n = Netlist::new("t");
        let (_, d) = n.add_input("d");
        let (_, ck) = n.add_input("ck");
        let q = n.add_net("q");
        let ff = n.add_cell(CellKind::Dff { reset: None }, "ff", &[d, ck], Some(q));
        n.add_output("q", q);
        assert_eq!(n.sequential_cells(), vec![ff]);
    }

    #[test]
    fn find_input_only_matches_inputs() {
        let (n, ..) = tiny();
        assert!(n.find_input("a").is_some());
        assert!(n.find_input("u1").is_none());
    }
}
