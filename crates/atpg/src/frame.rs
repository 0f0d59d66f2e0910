//! The full-scan combinational frame both proof engines search: which nets a
//! test may set, which nets the mission forces, where a fault effect is
//! observed, and what counts as detecting it.
//!
//! Primary inputs and (under [`ConstraintSet::control_ff_outputs`])
//! flip-flop outputs are controllable unless forced; the observation points
//! are [`ConstraintSet::observation_points`]. [`Podem`](crate::podem::Podem)
//! decides detection with [`Frame::detects`];
//! [`SatProver`](crate::cnf::SatProver) draws its free variables from the
//! controllable set and replays every model through [`Frame::simulate`] and
//! the same [`Frame::detects`], so the two engines search one frame.
//!
//! The frame is the one place a mission force is lowered: it writes the
//! forced values into every simulated machine and hands its dense
//! never-overwrite mask to both scalar propagations of the
//! [`CompiledProgram`]. Its baseline, [`Frame::simulate`] with no
//! assignment, is the constant propagation of
//! [`propagate_constants`](crate::constant::propagate_constants).

use crate::compiled::CompiledProgram;
use crate::constant::ConstraintSet;
use crate::logic::Logic;
use crate::sim::NetValues;
use faultmodel::{FaultSite, StuckAt};
use netlist::{graph, CellId, NetId, Netlist, PinIndex};
use std::collections::{HashMap, HashSet};

/// One design under one constraint environment, lowered for the engines.
#[derive(Debug)]
pub(crate) struct Frame<'a> {
    netlist: &'a Netlist,
    program: CompiledProgram,
    /// The constraint-forced nets and their values.
    forced: HashMap<NetId, bool>,
    /// Dense never-overwrite bitmap of `forced`.
    forced_mask: Vec<bool>,
    /// Dense bitmap of the nets a test may set: the unforced primary inputs
    /// and, under full scan, the unforced flip-flop outputs.
    controllable: Vec<bool>,
    /// The observation nets, ascending.
    observation_nets: Vec<NetId>,
    /// Dense membership bitmap of `observation_nets`.
    is_obs_net: Vec<bool>,
    /// The observing pins: a branch fault on one is seen at the pin itself.
    observation_pins: HashSet<(CellId, PinIndex)>,
    /// Cell arena index → compiled gate-program index (`NO_INDEX` if none).
    gate_of_cell: Vec<u32>,
}

impl<'a> Frame<'a> {
    /// Lowers `netlist` under `constraints`.
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the combinational logic is cyclic.
    pub(crate) fn new(
        netlist: &'a Netlist,
        constraints: &ConstraintSet,
    ) -> Result<Self, graph::CombinationalLoop> {
        let program = CompiledProgram::compile(netlist)?;
        let forced = constraints.forced_nets.clone();
        let mut forced_mask = vec![false; netlist.num_nets()];
        for &net in forced.keys() {
            forced_mask[net.index()] = true;
        }
        let mut sources = netlist.primary_input_nets();
        if constraints.control_ff_outputs {
            let flops = netlist.sequential_cells();
            sources.extend(flops.into_iter().filter_map(|ff| netlist.output_net(ff)));
        }
        let mut controllable = vec![false; netlist.num_nets()];
        for net in sources {
            controllable[net.index()] = !forced_mask[net.index()];
        }
        let points = constraints.observation_points(netlist);
        let mut is_obs_net = vec![false; netlist.num_nets()];
        for &(_, _, net) in &points {
            is_obs_net[net.index()] = true;
        }
        let observation_nets = netlist
            .net_ids()
            .filter(|n| is_obs_net[n.index()])
            .collect();
        let observation_pins = points.iter().map(|&(cell, pin, _)| (cell, pin)).collect();
        let gate_of_cell = program.gate_index_by_cell();
        Ok(Frame {
            netlist,
            program,
            forced,
            forced_mask,
            controllable,
            observation_nets,
            is_obs_net,
            observation_pins,
            gate_of_cell,
        })
    }

    /// The design.
    pub(crate) fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The compiled simulation program.
    pub(crate) fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// An all-`X` value array sized for the design.
    pub(crate) fn blank_values(&self) -> NetValues {
        vec![Logic::X; self.netlist.num_nets()]
    }

    /// The value the constraints force on `net`, if any.
    pub(crate) fn forced_value(&self, net: NetId) -> Option<bool> {
        self.forced.get(&net).copied()
    }

    /// The never-overwrite bitmap of the forced nets, indexed by net.
    pub(crate) fn forced_mask(&self) -> &[bool] {
        &self.forced_mask
    }

    /// Whether a test may set `net`.
    pub(crate) fn is_controllable(&self, net: NetId) -> bool {
        self.controllable[net.index()]
    }

    /// The observation nets, ascending.
    pub(crate) fn observation_nets(&self) -> &[NetId] {
        &self.observation_nets
    }

    /// Whether `net` is an observation net.
    pub(crate) fn is_observation_net(&self, net: NetId) -> bool {
        self.is_obs_net[net.index()]
    }

    /// The compiled gate-program index of `cell` (`NO_INDEX` if it compiled
    /// to none).
    pub(crate) fn gate_of(&self, cell: CellId) -> u32 {
        self.gate_of_cell[cell.index()]
    }

    /// The net carrying the fault-free value of the fault site (`None` for
    /// a detached output pin, which nothing can observe).
    pub(crate) fn site_net(&self, fault: StuckAt) -> Option<NetId> {
        match fault.site {
            FaultSite::CellOutput { cell } => self.netlist.output_net(cell),
            FaultSite::CellInput { cell, pin } => Some(self.netlist.input_net(cell, pin)),
        }
    }

    /// The net read by the observing pin `fault` sits on, if it is a branch
    /// fault on one.
    pub(crate) fn observed_branch(&self, fault: StuckAt) -> Option<NetId> {
        match fault.site {
            FaultSite::CellInput { cell, pin } if self.observation_pins.contains(&(cell, pin)) => {
                Some(self.netlist.input_net(cell, pin))
            }
            _ => None,
        }
    }

    /// Simulates one machine from scratch: `assignments` set, the forced
    /// nets and ties applied, every other source X, and `fault` injected
    /// when given.
    pub(crate) fn simulate(
        &self,
        assignments: impl IntoIterator<Item = (NetId, Logic)>,
        fault: Option<StuckAt>,
        values: &mut NetValues,
    ) {
        values.fill(Logic::X);
        for (net, value) in assignments {
            values[net.index()] = value;
        }
        for (&net, &value) in &self.forced {
            values[net.index()] = Logic::from_bool(value);
        }
        self.program
            .propagate_scalar(self.netlist, values, &self.forced_mask, fault);
    }

    /// The detection criterion: a definite good/faulty difference at one of
    /// `obs_nets` (every observation net, or the ones a cone-clipped search
    /// can reach), or an excited branch fault on an observing pin.
    pub(crate) fn detects(
        &self,
        fault: StuckAt,
        good: &NetValues,
        faulty: &NetValues,
        obs_nets: &[NetId],
    ) -> bool {
        let differs = obs_nets.iter().any(|&net| {
            let (g, f) = (good[net.index()], faulty[net.index()]);
            g.is_definite() && f.is_definite() && g != f
        });
        differs
            || self.observed_branch(fault).is_some_and(|net| {
                let g = good[net.index()];
                g.is_definite() && g != Logic::from_bool(fault.value)
            })
    }
}
