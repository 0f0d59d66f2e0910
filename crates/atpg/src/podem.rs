//! PODEM combinational test generation with redundancy identification.
//!
//! The engine works on the full-scan combinational frame: primary inputs and
//! flip-flop outputs are controllable (unless constrained), primary outputs
//! and flip-flop inputs are observation points (unless masked). A fault for
//! which the decision space is exhausted without finding a test is *redundant*
//! (structurally untestable); a fault for which the backtrack limit is hit is
//! *aborted* and stays potentially testable.
//!
//! Three classical accelerations are built in:
//!
//! * **Cone clipping** ([`PodemConfig::cone_clip`]): per fault the engine
//!   extracts the site's fanout cone ([`netlist::graph::ConeExtractor`]) —
//!   the only region where the faulty machine can differ from the good one —
//!   and runs D-frontier scanning and detection over that usually tiny set.
//!   Both machines are maintained *incrementally*: each decision
//!   re-evaluates only the gates its assignment actually reaches
//!   (event-driven, in topological order, from a bitset over the compiled
//!   gate program) — every gate in the good machine,
//!   the cone's gates in the faulty one — and each machine logs every write
//!   on its own undo trail. A backtrack pops the trails back to the
//!   decision's marks and the end of a fault pops them to empty, so neither
//!   machine is ever re-simulated. Clipping changes no decision:
//!   three-valued simulation of a DAG has one fixpoint, so the clipped
//!   engine's outcomes and backtrack counts are bit-identical to the full
//!   engine's, which re-simulates both machines every step.
//! * **SCOAP guidance** ([`PodemConfig::scoap_guidance`]): constraint-aware
//!   CC0/CC1/CO measures ([`crate::scoap`]) steer objective selection toward
//!   the most observable D-frontier gate and steer backtrace toward cheap
//!   controlling assignments (easiest-first for "any input suffices",
//!   hardest-first for "all inputs required"), pruning backtracks. Guidance
//!   reorders the search, so concluded verdicts are unchanged but a
//!   budget-truncated search may abort on different faults.
//! * **The X-path check** ([`PodemConfig::x_path_check`]): when no frontier
//!   gate can still reach
//!   an observation point through undecided nets, the search backtracks
//!   immediately — three-valued simulation is monotone, so such a branch can
//!   never produce a test. Under mission constraints (masked observation
//!   points, forced side inputs) this turns a large share of slow
//!   backtrack-budget aborts into fast untestability proofs.

use crate::compiled::NO_INDEX;
use crate::constant::ConstraintSet;
use crate::frame::Frame;
use crate::logic::Logic;
use crate::scoap::{compute_scoap, Scoap};
use crate::sim::NetValues;
use faultmodel::{FaultSite, StuckAt};
use netlist::{graph, CellId, CellKind, NetId, Netlist};
use std::collections::HashMap;

/// Configuration of the PODEM engine.
#[derive(Clone, Copy, Debug)]
pub struct PodemConfig {
    /// Maximum number of backtracks before giving up on a fault.
    pub backtrack_limit: usize,
    /// Clip each fault's search to its cones: faulty simulation, D-frontier
    /// scanning and detection run over the site's fanout cone only, and both
    /// machines are maintained incrementally instead of re-simulated.
    /// Identical decisions, far less work per decision.
    pub cone_clip: bool,
    /// Steer objective selection and backtrace with constraint-aware SCOAP
    /// testability measures. Same concluded verdicts, fewer backtracks.
    pub scoap_guidance: bool,
    /// Backtrack as soon as no D-frontier gate can reach an observation
    /// point through undecided nets (the classical X-path check). Sound:
    /// concluded verdicts are unchanged, hopeless branches just die earlier.
    pub x_path_check: bool,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 10_000,
            cone_clip: true,
            scoap_guidance: true,
            x_path_check: true,
        }
    }
}

/// A test pattern found by PODEM: values for the controllable inputs
/// (unassigned inputs are don't-care).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestPattern {
    /// Assignments to controllable input nets.
    pub assignments: HashMap<NetId, bool>,
}

/// Result of test generation for one fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found.
    Test(TestPattern),
    /// The fault is proven untestable in the combinational frame.
    Redundant,
    /// The backtrack limit was exceeded; the fault stays unclassified.
    Aborted,
}

/// Result of an untestability *proof* attempt for one fault — the pattern-free
/// view of [`PodemOutcome`] used by the proof stage of the identification
/// flow (see [`crate::proof`]).
///
/// The three-way split is load-bearing: only a fault whose decision space was
/// *exhausted* is [`ProvenUntestable`](Self::ProvenUntestable); a fault whose
/// search ran out of backtrack budget is [`Aborted`](Self::Aborted) and must
/// never be classified untestable, or real test escapes would be silently
/// screened out of the coverage denominator.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProofOutcome {
    /// A test exists under the constraints: the fault is testable.
    TestExists,
    /// The decision space was exhausted without finding a test: the fault is
    /// proven untestable under the constraints.
    ProvenUntestable,
    /// The backtrack budget ran out before the search completed; the fault
    /// stays potentially testable.
    Aborted,
}

/// Per-engine cone-clipping machinery: the reusable netlist cone extractor
/// and the per-fault clipped views. Rebuilt by [`prepare`](Self::prepare)
/// for every fault; allocation-free once the buffers have grown to the
/// largest cone.
///
/// The clipped engine splits the work along the two cones of a fault site:
///
/// * the **good machine** is global and *incremental*: initialised once per
///   engine (ties and forced nets applied, everything else X) and updated by
///   events — each new assignment re-evaluates only the gates its change
///   actually reaches, and every write is logged on the good machine's trail
///   (see [`Machine`]), which the end of a fault pops to empty, restoring the
///   baseline — so no per-fault or per-decision whole-design walk exists at
///   all;
/// * the **fanout cone** of the site (stopping at the sequential / output
///   boundary) is the only region where the faulty machine can differ from
///   the good one, so the faulty machine is simulated over the cone once per
///   fault and then updated by events too: a good-machine write to a net the
///   cone merely reads is mirrored into it, and only the cone gates whose
///   inputs changed are re-evaluated. D-frontier scanning and detection
///   checks run over the same usually tiny set; the scan reads each cone
///   gate's compiled pin window, never the netlist's cells.
#[derive(Debug)]
struct ClipEngine {
    extractor: graph::ConeExtractor,
    /// Fanout-cone cells that compiled to gates, each with its gate-program
    /// index, in arena order — the D-frontier scan set (identical iteration
    /// order to the full engine's live-cell walk, restricted to the cells
    /// that can carry an effect).
    fanout_cells: Vec<(CellId, u32)>,
    /// The gate-program indices of `fanout_cells`, ascending — the faulty
    /// machine's evaluation program.
    fanout_gates: Vec<u32>,
    /// Dense membership bitmap over `fanout_gates`, indexed by gate.
    in_cone: Vec<bool>,
    /// The fanout neighbourhood: the site net plus every net a fanout-cone
    /// cell reads or writes — the nets whose faulty value can differ from
    /// the good value, synced into the faulty machine once per fault.
    neighborhood: Vec<u32>,
    /// Dense membership bitmap over `neighborhood` (cleared incrementally).
    net_in_neighborhood: Vec<bool>,
    /// The neighbourhood nets whose faulty value is their good value: every
    /// one no cone gate drives, except a site net the fault pins to its
    /// stuck value. A good-machine write to one is mirrored into the faulty
    /// machine.
    follows: Vec<bool>,
    /// Observation nets inside the neighbourhood — the only observation
    /// points a fault effect can ever reach.
    obs_nets: Vec<NetId>,
}

impl ClipEngine {
    fn new(frame: &Frame<'_>) -> Self {
        let netlist = frame.netlist();
        ClipEngine {
            extractor: graph::ConeExtractor::new(netlist),
            fanout_cells: Vec::new(),
            fanout_gates: Vec::new(),
            in_cone: vec![false; frame.program().num_gates()],
            neighborhood: Vec::new(),
            net_in_neighborhood: vec![false; netlist.num_nets()],
            follows: vec![false; netlist.num_nets()],
            obs_nets: Vec::new(),
        }
    }

    /// Extracts the fanout cone of `fault`'s site net and lowers it into the
    /// clipped faulty-machine views.
    fn prepare(&mut self, frame: &Frame<'_>, fault: StuckAt, site_net: NetId) {
        for &n in &self.neighborhood {
            self.net_in_neighborhood[n as usize] = false;
            self.follows[n as usize] = false;
        }
        for &g in &self.fanout_gates {
            self.in_cone[g as usize] = false;
        }
        self.fanout_cells.clear();
        self.fanout_gates.clear();
        self.neighborhood.clear();
        self.obs_nets.clear();

        let ClipEngine {
            extractor,
            fanout_cells,
            fanout_gates,
            neighborhood,
            net_in_neighborhood,
            ..
        } = self;
        let mut reach = |net: NetId| {
            let i = net.index();
            if !net_in_neighborhood[i] {
                net_in_neighborhood[i] = true;
                neighborhood.push(i as u32);
            }
        };
        reach(site_net);
        for &cell_id in extractor.fanout_cone_with(frame.netlist(), &[site_net]) {
            let cell = frame.netlist().cell(cell_id);
            let g = frame.gate_of(cell_id);
            if g != NO_INDEX {
                // Arena order: the extractor returns cells sorted by index.
                fanout_cells.push((cell_id, g));
                fanout_gates.push(g);
            }
            for &n in cell.inputs() {
                reach(n);
            }
            if let Some(out) = cell.output() {
                reach(out);
            }
        }
        // Gate indices are topological; the sorted subset is a valid
        // evaluation order.
        self.fanout_gates.sort_unstable();
        for &n in &self.neighborhood {
            self.follows[n as usize] = true;
        }
        for &g in &self.fanout_gates {
            self.in_cone[g as usize] = true;
            self.follows[frame.program().gate_output(g as usize) as usize] = false;
        }
        if pins_site(frame, fault, site_net) {
            self.follows[site_net.index()] = false;
        }
        for &net in frame.observation_nets() {
            if self.net_in_neighborhood[net.index()] {
                self.obs_nets.push(net);
            }
        }
    }
}

/// Whether `fault` pins its site net's faulty value to the stuck value, as
/// the full engine's propagation does: an output-pin fault on a source
/// always (the source's net is overridden), one on a gate unless the net is
/// forced (gate writes respect forced nets). A branch fault leaves the net
/// alone.
fn pins_site(frame: &Frame<'_>, fault: StuckAt, site_net: NetId) -> bool {
    match fault.site {
        FaultSite::CellOutput { cell } => {
            !frame.netlist().cell(cell).kind().is_combinational()
                || !frame.forced_mask()[site_net.index()]
        }
        FaultSite::CellInput { .. } => false,
    }
}

/// Whether net `net` carries a definite difference between the machines.
#[inline]
fn differs(good: &[Logic], faulty: &[Logic], net: usize) -> bool {
    let (g, f) = (good[net], faulty[net]);
    g.is_definite() && f.is_definite() && g != f
}

/// The compiled fan-out of every net: the gate-program indices of its
/// loads that compiled to gates (live combinational cells with an output),
/// in CSR form. Built once per engine, so the event queue and the X-path
/// walk never consult the netlist's load lists.
#[derive(Debug)]
struct LoadGates {
    /// `gates[start[n]..start[n + 1]]` are net `n`'s load gates.
    start: Vec<u32>,
    gates: Vec<u32>,
}

impl LoadGates {
    fn new(frame: &Frame<'_>) -> Self {
        let netlist = frame.netlist();
        let mut start = Vec::with_capacity(netlist.num_nets() + 1);
        let mut gates = Vec::new();
        start.push(0);
        for net in netlist.net_ids() {
            gates.extend(
                netlist
                    .loads_of(net)
                    .iter()
                    .map(|load| frame.gate_of(load.cell))
                    .filter(|&g| g != NO_INDEX),
            );
            start.push(gates.len() as u32);
        }
        LoadGates { start, gates }
    }

    /// The load gates of net index `net`.
    fn of(&self, net: usize) -> &[u32] {
        &self.gates[self.start[net] as usize..self.start[net + 1] as usize]
    }
}

/// One three-valued machine of the search: its net values and, for the
/// clipped engine, the events that keep it current and the trail that
/// undoes it.
///
/// The event queue is a bitset over gate-program indices, popped lowest
/// first. The indices are topological, so the lowest pending gate is always
/// safe to settle next and each gate settles in a single visit per wave;
/// no level table or per-level list is needed.
#[derive(Debug, Default)]
struct Machine {
    values: NetValues,
    /// One bit per gate-program index: the gates waiting to be settled.
    pending: Vec<u64>,
    /// The lowest word of `pending` that may hold a bit.
    cursor: usize,
    /// The number of bits set in `pending`.
    queued: usize,
    /// `(net, previous value)` of every write, oldest first.
    trail: Vec<(u32, Logic)>,
}

impl Machine {
    fn new(values: NetValues, num_gates: usize) -> Self {
        Machine {
            values,
            pending: vec![0; num_gates.div_ceil(64)],
            ..Machine::default()
        }
    }

    /// Sets net `net` to `value`, logging the old value on the trail.
    fn write(&mut self, net: usize, value: Logic) {
        self.trail.push((net as u32, self.values[net]));
        self.values[net] = value;
    }

    /// Queues gate `g` for re-evaluation; a gate already queued stays
    /// queued once.
    fn schedule(&mut self, g: u32) {
        let (word, bit) = (g as usize / 64, 1u64 << (g % 64));
        if self.pending[word] & bit == 0 {
            self.pending[word] |= bit;
            self.queued += 1;
            self.cursor = self.cursor.min(word);
        }
    }

    /// The lowest queued gate, dequeued.
    fn next(&mut self) -> Option<usize> {
        if self.queued == 0 {
            return None;
        }
        loop {
            let bits = self.pending[self.cursor];
            if bits != 0 {
                self.pending[self.cursor] = bits & (bits - 1);
                self.queued -= 1;
                return Some(self.cursor * 64 + bits.trailing_zeros() as usize);
            }
            self.cursor += 1;
        }
    }

    /// Pops the trail back to `mark`, undoing every write made since,
    /// newest first. The queue must be empty: a pending event would
    /// re-apply a write the restore just undid.
    fn restore(&mut self, mark: usize) {
        debug_assert_eq!(self.queued, 0, "trail restored with events pending");
        for (net, old) in self.trail.drain(mark..).rev() {
            self.values[net as usize] = old;
        }
    }
}

/// One PODEM decision on the stack.
#[derive(Clone, Copy, Debug)]
struct Decision {
    /// The controllable net assigned.
    net: NetId,
    /// The value it holds now.
    value: bool,
    /// Whether the opposite value was already tried.
    flipped: bool,
    /// The good and faulty trail lengths before the assignment: popping the
    /// trails back to them restores the machines this decision started from.
    marks: (usize, usize),
}

/// Reusable per-engine search state, so a search step allocates nothing
/// once the buffers have grown: the good and faulty [`Machine`]s, the
/// decision stack and the dense mask of the nets it assigns, the
/// D-frontier, the X-input pins of one gate, and the visited set and work
/// stack of the X-path reachability check.
#[derive(Debug, Default)]
struct SearchScratch {
    good: Machine,
    faulty: Machine,
    decisions: Vec<Decision>,
    assigned: Vec<bool>,
    frontier: Vec<CellId>,
    x_inputs: Vec<usize>,
    visited: Vec<bool>,
    touched: Vec<u32>,
    stack: Vec<u32>,
}

impl SearchScratch {
    /// The current trail lengths of the good and faulty machines.
    fn marks(&self) -> (usize, usize) {
        (self.good.trail.len(), self.faulty.trail.len())
    }

    /// Pops both trails back to `marks`.
    fn restore(&mut self, (good, faulty): (usize, usize)) {
        self.good.restore(good);
        self.faulty.restore(faulty);
    }
}

/// The PODEM test generator.
///
/// The engine owns its reusable search state, good and faulty machines
/// included, so repeated [`generate`](Self::generate) calls allocate nothing
/// once the buffers have grown (which is why `generate` takes `&mut self`).
#[derive(Debug)]
pub struct Podem<'a> {
    frame: Frame<'a>,
    config: PodemConfig,
    last_backtracks: usize,
    /// Cooperative interrupt flag polled once per search step; `true` aborts
    /// the current search.
    interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Wall-clock deadline polled alongside the interrupt flag.
    deadline: Option<std::time::Instant>,
    /// Whether the most recent search aborted because of the interrupt flag
    /// or the deadline rather than the backtrack budget.
    last_interrupted: bool,
    scoap: Option<Scoap>,
    clip: Option<ClipEngine>,
    load_gates: LoadGates,
    search: SearchScratch,
}

impl<'a> Podem<'a> {
    /// Builds a PODEM engine for the given design and environment.
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the combinational logic is cyclic.
    pub fn new(
        netlist: &'a Netlist,
        constraints: &ConstraintSet,
        config: PodemConfig,
    ) -> Result<Self, graph::CombinationalLoop> {
        let frame = Frame::new(netlist, constraints)?;
        let mut good = frame.blank_values();
        let scoap = if config.scoap_guidance {
            Some(compute_scoap(netlist, constraints)?)
        } else {
            None
        };
        let clip = config.cone_clip.then(|| ClipEngine::new(&frame));
        // Only the clipped engine propagates events.
        let num_gates = if clip.is_some() {
            // Baseline of the incremental good machine: ties and forced nets
            // applied, every free net X. Every search pops its trail back to
            // here before it returns.
            frame.simulate([], None, &mut good);
            frame.program().num_gates()
        } else {
            0
        };
        let search = SearchScratch {
            good: Machine::new(good, num_gates),
            faulty: Machine::new(frame.blank_values(), num_gates),
            assigned: vec![false; netlist.num_nets()],
            visited: vec![false; netlist.num_nets()],
            ..SearchScratch::default()
        };
        let load_gates = LoadGates::new(&frame);
        Ok(Podem {
            frame,
            config,
            last_backtracks: 0,
            interrupt: None,
            deadline: None,
            last_interrupted: false,
            scoap,
            clip,
            load_gates,
            search,
        })
    }

    /// Backtracks spent by the most recent [`generate`](Self::generate) /
    /// [`prove`](Self::prove) call — the consumed part of the per-fault
    /// backtrack budget.
    pub fn last_backtracks(&self) -> usize {
        self.last_backtracks
    }

    /// Installs (or clears) the cooperative search limits: an interrupt flag
    /// and a wall-clock deadline, both polled once per search step. When
    /// either trips, the search gives up with
    /// [`PodemOutcome::Aborted`] and
    /// [`last_search_interrupted`](Self::last_search_interrupted) reads
    /// `true` — distinguishing a wall-clock give-up from a deterministic
    /// backtrack-budget one.
    pub fn set_search_limits(
        &mut self,
        interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
        deadline: Option<std::time::Instant>,
    ) {
        self.interrupt = interrupt;
        self.deadline = deadline;
    }

    /// Whether the most recent [`generate`](Self::generate) /
    /// [`prove`](Self::prove) aborted because the interrupt flag or the
    /// deadline tripped (as opposed to exhausting the backtrack budget).
    pub fn last_search_interrupted(&self) -> bool {
        self.last_interrupted
    }

    /// The interrupt flag reads `true` or the deadline has passed.
    fn stop_requested(&self) -> bool {
        if self
            .interrupt
            .as_ref()
            .is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed))
        {
            return true;
        }
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// Writes `value` to good-machine net `net` and queues its load gates.
    /// When the faulty value of `net` follows its good value, the write is
    /// mirrored into the faulty machine, which queues the net's cone loads.
    fn good_write(&self, clip: &ClipEngine, search: &mut SearchScratch, net: usize, value: Logic) {
        search.good.write(net, value);
        for &g in self.load_gates.of(net) {
            search.good.schedule(g);
        }
        if clip.follows[net] {
            search.faulty.write(net, value);
            self.schedule_cone_loads(clip, &mut search.faulty, net);
        }
    }

    fn schedule_cone_loads(&self, clip: &ClipEngine, faulty: &mut Machine, net: usize) {
        for &g in self.load_gates.of(net) {
            if clip.in_cone[g as usize] {
                faulty.schedule(g);
            }
        }
    }

    /// Assigns the controllable net `net` and propagates the change to
    /// quiescence: first through every good-machine gate it reaches, then
    /// through the cone gates whose faulty inputs changed. Gates settle in
    /// ascending (topological) program order, each at most once per wave, so
    /// both machines end exactly where a from-scratch propagation would —
    /// the incremental update changes values, never decisions.
    fn assign(
        &self,
        clip: &ClipEngine,
        fault: StuckAt,
        search: &mut SearchScratch,
        net: NetId,
        value: bool,
    ) {
        let program = self.frame.program();
        let forced = self.frame.forced_mask();
        debug_assert_eq!(search.good.values[net.index()], Logic::X);
        self.good_write(clip, search, net.index(), Logic::from_bool(value));
        while let Some(g) = search.good.next() {
            let new = program.eval_gate_scalar(g, &search.good.values);
            let out = program.gate_output(g) as usize;
            if !forced[out] && search.good.values[out] != new {
                self.good_write(clip, search, out, new);
            }
        }
        let faulty = &mut search.faulty;
        while let Some(g) = faulty.next() {
            let new = program.eval_gate_faulty(g, &faulty.values, fault);
            let out = program.gate_output(g) as usize;
            if !forced[out] && faulty.values[out] != new {
                faulty.write(out, new);
                self.schedule_cone_loads(clip, faulty, out);
            }
        }
    }

    /// The faulty machine at the start of a fault: syncs the fanout
    /// neighbourhood from the good machine, injects the fault at the site,
    /// and evaluates only the fanout cone's gates — outside the fanout cone
    /// the faulty machine equals the good machine by construction, exactly
    /// as in a full propagation. [`assign`](Self::assign) keeps it current
    /// from there.
    fn simulate_faulty_clipped(
        &self,
        clip: &ClipEngine,
        fault: StuckAt,
        site_net: NetId,
        good: &NetValues,
        faulty: &mut NetValues,
    ) {
        for &n in &clip.neighborhood {
            faulty[n as usize] = good[n as usize];
        }
        // An output-pin fault pins the site net directly: its driver is
        // upstream of the fanout cone and never re-evaluated.
        if pins_site(&self.frame, fault, site_net) {
            faulty[site_net.index()] = Logic::from_bool(fault.value);
        }
        self.frame.program().propagate_scalar_clipped(
            self.frame.netlist(),
            faulty,
            self.frame.forced_mask(),
            Some(fault),
            &clip.fanout_gates,
        );
    }

    /// Fills `frontier` with the cells on the D-frontier: the fault effect
    /// is present on at least one input (either because the driving net
    /// carries a difference, or because the cell itself hosts an excited
    /// branch fault) but the output does not yet show a definite difference.
    /// `excited` says whether the site carries the fault effect.
    ///
    /// With cone clipping the scan covers only the fanout cone's gates — the
    /// only cells that can carry a fault effect — kept in arena order, so the
    /// frontier is identical to the full engine's. It reads each gate's
    /// compiled pin window, and passes over a gate whose output is definite
    /// in both machines before reading any input: such a gate either shows
    /// the difference or blocks it, so it is on the frontier in neither case.
    fn d_frontier(
        &self,
        fault: StuckAt,
        excited: bool,
        good: &NetValues,
        faulty: &NetValues,
        clip: Option<&ClipEngine>,
        frontier: &mut Vec<CellId>,
    ) {
        frontier.clear();
        match clip {
            Some(c) => {
                let program = self.frame.program();
                // For a branch fault the site net is the faulted pin's net,
                // so `excited` is the effect at that cell's input.
                let excited_branch = match fault.site {
                    FaultSite::CellInput { cell, .. } if excited => Some(cell),
                    _ => None,
                };
                for &(id, g) in &c.fanout_cells {
                    let out = program.gate_output(g as usize) as usize;
                    if good[out].is_definite() && faulty[out].is_definite() {
                        continue;
                    }
                    if excited_branch == Some(id)
                        || program
                            .gate_inputs(g as usize)
                            .iter()
                            .any(|&n| differs(good, faulty, n as usize))
                    {
                        frontier.push(id);
                    }
                }
            }
            None => {
                for (id, cell) in self.frame.netlist().live_cells() {
                    if !cell.kind().is_combinational() {
                        continue;
                    }
                    self.d_frontier_check(id, fault, good, faulty, frontier);
                }
            }
        }
    }

    fn d_frontier_check(
        &self,
        id: CellId,
        fault: StuckAt,
        good: &NetValues,
        faulty: &NetValues,
        frontier: &mut Vec<CellId>,
    ) {
        let cell = self.frame.netlist().cell(id);
        let Some(out) = cell.output() else { return };
        if differs(good, faulty, out.index()) {
            return;
        }
        let mut has_input_diff = cell
            .inputs()
            .iter()
            .any(|&n| differs(good, faulty, n.index()));
        // An excited branch fault on this very cell is a fault effect at
        // its input even though the driving net value is unchanged.
        if let FaultSite::CellInput { cell: fc, pin } = fault.site {
            if fc == id {
                let g = good[self.frame.netlist().input_net(fc, pin).index()];
                if g.is_definite() && g != Logic::from_bool(fault.value) {
                    has_input_diff = true;
                }
            }
        }
        let out_undecided = good[out.index()] == Logic::X || faulty[out.index()] == Logic::X;
        if has_input_diff && out_undecided {
            frontier.push(id);
        }
    }

    /// Picks one of `x_inputs` (pin indices of `cell`) to pursue for
    /// `value`: without SCOAP the first (the classical fixed order), with
    /// SCOAP the cheapest (`hardest == false`, for "any input suffices"
    /// objectives) or the costliest (`hardest == true`, for "all inputs
    /// required" objectives — failing fast on the bottleneck input prunes
    /// whole subtrees). Ties keep the first candidate, so the choice is
    /// deterministic.
    fn choose_input(
        &self,
        cell: &netlist::Cell,
        x_inputs: &[usize],
        value: bool,
        hardest: bool,
    ) -> usize {
        let Some(scoap) = &self.scoap else {
            return x_inputs[0];
        };
        let cost = |pin: usize| {
            let net = cell.inputs()[pin];
            if value {
                scoap.cc1(net)
            } else {
                scoap.cc0(net)
            }
        };
        let mut best = x_inputs[0];
        let mut best_cost = cost(best);
        for &pin in &x_inputs[1..] {
            let c = cost(pin);
            if (hardest && c > best_cost) || (!hardest && c < best_cost) {
                best = pin;
                best_cost = c;
            }
        }
        best
    }

    /// Backtraces an objective `(net, value)` to an unassigned controllable
    /// input. Returns `None` when no X-path to a free input exists.
    /// `x_inputs` is scratch for the X pins of each gate on the way.
    fn backtrace(
        &self,
        mut net: NetId,
        mut value: bool,
        good: &NetValues,
        assigned: &[bool],
        x_inputs: &mut Vec<usize>,
    ) -> Option<(NetId, bool)> {
        for _ in 0..self.frame.netlist().num_cells() + 1 {
            if self.frame.is_controllable(net) && !assigned[net.index()] {
                return Some((net, value));
            }
            if self.frame.forced_mask()[net.index()] {
                return None;
            }
            let driver = self.frame.netlist().driver_of(net)?;
            let cell = self.frame.netlist().cell(driver);
            let kind = cell.kind();
            if !kind.is_combinational() {
                // Reached a flip-flop or port that is not controllable.
                return None;
            }
            x_inputs.clear();
            x_inputs.extend(
                cell.inputs()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| good[n.index()] == Logic::X)
                    .map(|(i, _)| i),
            );
            if x_inputs.is_empty() {
                return None;
            }
            let (next_pin, next_value) = match kind {
                CellKind::Buf => (x_inputs[0], value),
                CellKind::Not => (x_inputs[0], !value),
                CellKind::And(_) | CellKind::Nand(_) | CellKind::Or(_) | CellKind::Nor(_) => {
                    let inverting = matches!(kind, CellKind::Nand(_) | CellKind::Nor(_));
                    let want = value ^ inverting;
                    let identity = matches!(kind, CellKind::And(_) | CellKind::Nand(_));
                    // AND family: identity value 1; OR family: identity 0.
                    if want == identity {
                        // All inputs must take the identity value: pick the
                        // hardest-to-control X (fail fast under SCOAP).
                        (self.choose_input(cell, x_inputs, identity, true), identity)
                    } else {
                        // A single controlling input suffices: the cheapest.
                        (
                            self.choose_input(cell, x_inputs, !identity, false),
                            !identity,
                        )
                    }
                }
                CellKind::Xor(_) | CellKind::Xnor(_) => {
                    let inverting = matches!(kind, CellKind::Xnor(_));
                    let parity_known = cell
                        .inputs()
                        .iter()
                        .filter_map(|&n| good[n.index()].to_bool())
                        .fold(false, |acc, b| acc ^ b);
                    // Setting all-but-one X inputs to 0 keeps their parity
                    // neutral; the chosen input provides the remainder — any
                    // X works, so take the cheapest for the remainder value.
                    let want = value ^ inverting ^ parity_known;
                    (self.choose_input(cell, x_inputs, want, false), want)
                }
                CellKind::Mux2 => {
                    let s = good[cell.inputs()[2].index()];
                    match s {
                        Logic::Zero => (0, value),
                        Logic::One => (1, value),
                        Logic::X => (2, false),
                    }
                }
                _ => (x_inputs[0], value),
            };
            // Guard: the chosen pin must still be X (for MUX the fixed choice
            // might not be).
            let n = cell.inputs()[next_pin];
            if good[n.index()] != Logic::X {
                // Fall back to any X input with the same desired value.
                net = cell.inputs()[x_inputs[0]];
                value = next_value;
                continue;
            }
            net = n;
            value = next_value;
        }
        None
    }

    /// Attempts to generate a test for `fault`.
    pub fn generate(&mut self, fault: StuckAt) -> PodemOutcome {
        // Temporarily move the reusable state out of `self` so the borrow
        // checker lets the read-only engine use it alongside `&self`.
        let mut clip = self.clip.take();
        let mut search = std::mem::take(&mut self.search);
        let (outcome, backtracks, interrupted) =
            self.generate_inner(fault, clip.as_mut(), &mut search);
        self.clip = clip;
        self.search = search;
        self.last_backtracks = backtracks;
        self.last_interrupted = interrupted;
        outcome
    }

    /// Runs an untestability proof attempt for `fault`: like
    /// [`generate`](Self::generate) but discarding the test pattern, so the
    /// result is `Copy` and cheap to collect in bulk (the shape the parallel
    /// proof engine in [`crate::proof`] fans out over worker threads).
    pub fn prove(&mut self, fault: StuckAt) -> ProofOutcome {
        match self.generate(fault) {
            PodemOutcome::Test(_) => ProofOutcome::TestExists,
            PodemOutcome::Redundant => ProofOutcome::ProvenUntestable,
            PodemOutcome::Aborted => ProofOutcome::Aborted,
        }
    }

    /// The classical X-path check: can any frontier gate still drive its
    /// fault effect to an observation point through nets whose value is not
    /// yet decided?
    ///
    /// Three-valued simulation is monotone — a definite net value can never
    /// change under further assignments — so when every forward path from
    /// every frontier gate is cut by a net that is definite and equal in both
    /// machines, no extension of the current assignments can ever detect the
    /// fault and the search can backtrack immediately. This prunes exactly
    /// the searches the mission constraints make hopeless (masked observation
    /// points, forced side inputs), turning slow backtrack-budget aborts into
    /// fast proofs.
    fn frontier_has_x_path(
        &self,
        frontier: &[CellId],
        good: &NetValues,
        faulty: &NetValues,
        visited: &mut [bool],
        touched: &mut Vec<u32>,
        stack: &mut Vec<u32>,
    ) -> bool {
        let viable = |n: usize| {
            let g = good[n];
            let f = faulty[n];
            !(g.is_definite() && f.is_definite() && g == f)
        };
        let program = self.frame.program();
        stack.clear();
        for &gate in frontier {
            let Some(out) = self.frame.netlist().cell(gate).output() else {
                continue;
            };
            let n = out.index();
            if viable(n) && !visited[n] {
                visited[n] = true;
                touched.push(n as u32);
                stack.push(n as u32);
            }
        }
        let mut found = false;
        'walk: while let Some(n) = stack.pop() {
            let n = n as usize;
            if self.frame.is_observation_net(NetId::from_index(n)) {
                found = true;
                break 'walk;
            }
            for &g in self.load_gates.of(n) {
                let o = program.gate_output(g as usize) as usize;
                if !visited[o] && viable(o) {
                    visited[o] = true;
                    touched.push(o as u32);
                    stack.push(o as u32);
                }
            }
        }
        for &n in touched.iter() {
            visited[n as usize] = false;
        }
        touched.clear();
        found
    }

    /// The next objective for advancing the D-frontier: an X side input of a
    /// frontier gate, to be driven to the gate's non-controlling value.
    ///
    /// Without SCOAP: the first frontier gate's first X input (the classical
    /// fixed order). With SCOAP: the gate whose output is cheapest to observe
    /// (least CO — the most promising propagation path), and among its X side
    /// inputs the one hardest to drive non-controlling — every side input
    /// must get there eventually, so attacking the bottleneck first fails
    /// fast and prunes backtracks. `x_inputs` is scratch for the chosen
    /// gate's X pins.
    fn frontier_objective(
        &self,
        frontier: &[CellId],
        good: &NetValues,
        x_inputs: &mut Vec<usize>,
    ) -> Option<(NetId, bool)> {
        let gate = match &self.scoap {
            None => *frontier.first()?,
            Some(scoap) => {
                let mut best: Option<(u32, CellId)> = None;
                for &gate in frontier {
                    let out = self
                        .frame
                        .netlist()
                        .cell(gate)
                        .output()
                        .expect("frontier gates drive a net");
                    let co = scoap.co(out);
                    if best.is_none_or(|(b, _)| co < b) {
                        best = Some((co, gate));
                    }
                }
                best?.1
            }
        };
        let cell = self.frame.netlist().cell(gate);
        let noncontrolling = match cell.kind().controlling_value() {
            Some(cv) => !cv,
            None => true,
        };
        x_inputs.clear();
        x_inputs.extend(
            cell.inputs()
                .iter()
                .enumerate()
                .filter(|&(_, &n)| good[n.index()] == Logic::X)
                .map(|(i, _)| i),
        );
        // Frontier gates always carry an X side input (their output is still
        // undecided), but the chosen gate's Xs may sit on other frontier
        // gates when SCOAP re-ordered the scan; fall back to scan order then.
        let pin = if x_inputs.is_empty() {
            return frontier.iter().find_map(|&g| {
                let c = self.frame.netlist().cell(g);
                c.inputs()
                    .iter()
                    .find(|&&n| good[n.index()] == Logic::X)
                    .map(|&n| {
                        let nc = match c.kind().controlling_value() {
                            Some(cv) => !cv,
                            None => true,
                        };
                        (n, nc)
                    })
            });
        } else {
            self.choose_input(cell, x_inputs, noncontrolling, true)
        };
        Some((cell.inputs()[pin], noncontrolling))
    }

    fn generate_inner(
        &self,
        fault: StuckAt,
        clip: Option<&mut ClipEngine>,
        search: &mut SearchScratch,
    ) -> (PodemOutcome, usize, bool) {
        let Some(site_net) = self.frame.site_net(fault) else {
            // Detached output pin: nothing to excite or observe — redundant in
            // this frame.
            return (PodemOutcome::Redundant, 0, false);
        };
        // Clip the search to the fault's fanout cone: one cheap extraction
        // and one faulty simulation of the cone per fault buy D-frontier
        // scanning and detection over the usually tiny cone, while both
        // machines are maintained incrementally — each decision
        // re-evaluates only the gates its change actually reaches.
        let clip: Option<&ClipEngine> = match clip {
            Some(c) => {
                c.prepare(&self.frame, fault, site_net);
                self.simulate_faulty_clipped(
                    c,
                    fault,
                    site_net,
                    &search.good.values,
                    &mut search.faulty.values,
                );
                Some(c)
            }
            None => None,
        };
        let obs_nets: &[NetId] = clip.map_or(self.frame.observation_nets(), |c| &c.obs_nets);
        let stuck = Logic::from_bool(fault.value);
        let mut backtracks = 0usize;
        let mut interrupted = false;

        let outcome = 'search: loop {
            // Cooperative stop: one poll per decision step bounds the
            // cancellation latency by a single simulation pass.
            if self.stop_requested() {
                interrupted = true;
                break 'search PodemOutcome::Aborted;
            }
            if clip.is_none() {
                let assigned = || {
                    search
                        .decisions
                        .iter()
                        .map(|d| (d.net, Logic::from_bool(d.value)))
                };
                self.frame
                    .simulate(assigned(), None, &mut search.good.values);
                self.frame
                    .simulate(assigned(), Some(fault), &mut search.faulty.values);
            }
            let (good, faulty) = (&search.good.values, &search.faulty.values);

            if self.frame.detects(fault, good, faulty, obs_nets) {
                let pattern = TestPattern {
                    assignments: search.decisions.iter().map(|d| (d.net, d.value)).collect(),
                };
                break 'search PodemOutcome::Test(pattern);
            }

            let site_value = good[site_net.index()];
            let excitation_conflict = site_value.is_definite() && site_value == stuck;
            let excited = site_value.is_definite() && site_value != stuck;
            self.d_frontier(fault, excited, good, faulty, clip, &mut search.frontier);
            let dead_end = excitation_conflict
                || (excited
                    && (search.frontier.is_empty()
                        || (self.config.x_path_check
                            && !self.frontier_has_x_path(
                                &search.frontier,
                                good,
                                faulty,
                                &mut search.visited,
                                &mut search.touched,
                                &mut search.stack,
                            ))));

            let objective = if dead_end {
                None
            } else if !excited {
                Some((site_net, !fault.value))
            } else {
                self.frontier_objective(&search.frontier, good, &mut search.x_inputs)
            };

            let decision = objective.and_then(|(net, value)| {
                self.backtrace(net, value, good, &search.assigned, &mut search.x_inputs)
            });

            match decision {
                Some((net, value)) => {
                    search.assigned[net.index()] = true;
                    search.decisions.push(Decision {
                        net,
                        value,
                        flipped: false,
                        marks: search.marks(),
                    });
                    if let Some(c) = clip {
                        self.assign(c, fault, search, net, value);
                    }
                }
                None => {
                    // Backtrack. Exhausting the decision stack is the
                    // untestability proof; running out of backtrack budget is
                    // a *give-up* and must stay distinguishable (Aborted), or
                    // callers would screen potentially testable faults out of
                    // the coverage denominator.
                    loop {
                        let Some(d) = search.decisions.pop() else {
                            break 'search PodemOutcome::Redundant;
                        };
                        search.assigned[d.net.index()] = false;
                        search.restore(d.marks);
                        if !d.flipped {
                            backtracks += 1;
                            if backtracks > self.config.backtrack_limit {
                                break 'search PodemOutcome::Aborted;
                            }
                            search.assigned[d.net.index()] = true;
                            search.decisions.push(Decision {
                                value: !d.value,
                                flipped: true,
                                ..d
                            });
                            if let Some(c) = clip {
                                self.assign(c, fault, search, d.net, !d.value);
                            }
                            break;
                        }
                    }
                }
            }
        };

        // Pop the trails to empty: the incremental good machine is back at
        // its baseline for the next fault.
        search.restore((0, 0));
        for d in search.decisions.drain(..) {
            search.assigned[d.net.index()] = false;
        }
        (outcome, backtracks, interrupted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    fn engine_default(netlist: &Netlist) -> Podem<'_> {
        Podem::new(netlist, &ConstraintSet::full_scan(), PodemConfig::default()).unwrap()
    }

    #[test]
    fn finds_test_for_simple_and() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(y).unwrap();
        let mut podem = engine_default(&n);
        match podem.generate(StuckAt::output(and, false)) {
            PodemOutcome::Test(pattern) => {
                assert_eq!(pattern.assignments.get(&a), Some(&true));
                assert_eq!(pattern.assignments.get(&c), Some(&true));
            }
            other => panic!("expected a test, got {other:?}"),
        }
        assert!(matches!(
            podem.generate(StuckAt::input(and, 0, true)),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn proves_classic_redundancy() {
        // y = a OR (a AND b): the AND-output stuck-at-0 is redundant.
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.or2(a, t);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(t).unwrap();
        let mut podem = engine_default(&n);
        assert_eq!(
            podem.generate(StuckAt::output(and, false)),
            PodemOutcome::Redundant
        );
        // The same fault stuck-at-1 is testable (a=0, b=1 → y flips).
        assert!(matches!(
            podem.generate(StuckAt::output(and, true)),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn respects_forced_inputs() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(y).unwrap();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a, false);
        let mut podem = Podem::new(&n, &constraints, PodemConfig::default()).unwrap();
        // With a tied to 0 the AND output can never be 1: s-a-0 has no test.
        assert_eq!(
            podem.generate(StuckAt::output(and, false)),
            PodemOutcome::Redundant
        );
        // ... but s-a-1 is testable (set b=1, output should be 0, faulty 1).
        assert!(matches!(
            podem.generate(StuckAt::output(and, true)),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn uses_ff_boundaries_as_pseudo_ports() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let ck = b.input("ck");
        let q = b.dff(a, ck);
        let y = b.not(q);
        let d2 = b.and2(y, a);
        let _q2 = b.dff(d2, ck);
        let n = b.finish();
        let inv = n.driver_of(y).unwrap();
        let mut podem = engine_default(&n);
        // The inverter sits between two flip-flops; in the full-scan frame it
        // is both controllable (via q) and observable (via the second FF's D).
        assert!(matches!(
            podem.generate(StuckAt::output(inv, false)),
            PodemOutcome::Test(_)
        ));
        assert!(matches!(
            podem.generate(StuckAt::output(inv, true)),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn detects_observation_pin_branch_faults() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.output("y", a);
        let n = b.finish();
        let po = n.primary_outputs()[0];
        let mut podem = engine_default(&n);
        assert!(matches!(
            podem.generate(StuckAt::input(po, 0, false)),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn masked_output_makes_cone_redundant() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let dbg = b.not(a);
        let y = b.buf(a);
        b.output("dbg", dbg);
        b.output("y", y);
        let n = b.finish();
        let inv = n.driver_of(dbg).unwrap();
        let dbg_po = n
            .primary_outputs()
            .into_iter()
            .find(|&po| n.cell(po).name() == "dbg")
            .unwrap();
        let mut constraints = ConstraintSet::full_scan();
        constraints.mask_output(dbg_po);
        let mut podem = Podem::new(&n, &constraints, PodemConfig::default()).unwrap();
        assert_eq!(
            podem.generate(StuckAt::output(inv, false)),
            PodemOutcome::Redundant
        );
    }

    #[test]
    fn xor_tree_tests_found() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 4);
        let p = b.reduce_xor(&a);
        b.output("p", p);
        let n = b.finish();
        let mut podem = engine_default(&n);
        let mut faults = faultmodel::FaultList::full_universe(&n);
        let mut tests = 0;
        let mut redundant = 0;
        let all: Vec<StuckAt> = faults.faults().to_vec();
        for fault in all {
            match podem.generate(fault) {
                PodemOutcome::Test(_) => tests += 1,
                PodemOutcome::Redundant => redundant += 1,
                PodemOutcome::Aborted => {}
            }
        }
        // An XOR tree has no redundant faults.
        assert_eq!(redundant, 0);
        assert_eq!(tests, faults.len());
        let _ = &mut faults;
    }

    #[test]
    fn exhausted_backtrack_budget_reports_aborted_not_redundant() {
        // Regression for the Aborted/ProvenUntestable distinction: the same
        // redundant fault must be *proven* under a generous budget and
        // *aborted* — never misreported as redundant — when the budget
        // truncates the search. y = a OR (a AND b): AND-output s-a-0 needs at
        // least one backtrack before the decision space is exhausted.
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.or2(a, t);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(t).unwrap();
        let fault = StuckAt::output(and, false);

        let mut generous = engine_default(&n);
        assert_eq!(generous.generate(fault), PodemOutcome::Redundant);
        assert!(
            generous.last_backtracks() > 0,
            "proof must spend backtracks"
        );
        assert_eq!(generous.prove(fault), ProofOutcome::ProvenUntestable);

        let mut truncated = Podem::new(
            &n,
            &ConstraintSet::full_scan(),
            PodemConfig {
                backtrack_limit: 0,
                ..PodemConfig::default()
            },
        )
        .unwrap();
        assert_eq!(truncated.generate(fault), PodemOutcome::Aborted);
        assert_eq!(truncated.prove(fault), ProofOutcome::Aborted);
        // A testable fault is still found even with a zero budget (no
        // backtracking needed on this path).
        assert_eq!(
            truncated.prove(StuckAt::output(and, true)),
            ProofOutcome::TestExists
        );
    }

    #[test]
    fn prove_matches_generate_on_every_outcome_kind() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.or2(a, t);
        b.output("y", y);
        let n = b.finish();
        let mut podem = engine_default(&n);
        for fault in faultmodel::FaultList::full_universe(&n).faults().to_vec() {
            let expected = match podem.generate(fault) {
                PodemOutcome::Test(_) => ProofOutcome::TestExists,
                PodemOutcome::Redundant => ProofOutcome::ProvenUntestable,
                PodemOutcome::Aborted => ProofOutcome::Aborted,
            };
            assert_eq!(podem.prove(fault), expected, "{fault:?}");
        }
    }

    #[test]
    fn cone_clipping_is_bit_identical_to_the_full_engine() {
        // Clipping must change no decision: outcomes AND backtrack counts
        // agree fault-by-fault with the unclipped engine (SCOAP off on both
        // sides so the search order is the classical fixed one).
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 4);
        let c = b.input("c");
        let t1 = b.and2(a[0], a[1]);
        let t2 = b.or2(a[0], t1); // redundant AND s-a-0 inside
        let t3 = b.xor2(t2, a[2]);
        let t4 = b.mux2(t3, a[3], c);
        b.output("y", t4);
        b.output("z", t1);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(a[3], false);
        let base = PodemConfig {
            backtrack_limit: 4,
            scoap_guidance: false,
            cone_clip: false,
            ..PodemConfig::default()
        };
        let mut full = Podem::new(&n, &constraints, base).unwrap();
        let mut clipped = Podem::new(
            &n,
            &constraints,
            PodemConfig {
                cone_clip: true,
                ..base
            },
        )
        .unwrap();
        for fault in faultmodel::FaultList::full_universe(&n).faults().to_vec() {
            let expected = full.generate(fault);
            let expected_backtracks = full.last_backtracks();
            assert_eq!(clipped.generate(fault), expected, "{fault:?}");
            assert_eq!(
                clipped.last_backtracks(),
                expected_backtracks,
                "{fault:?} took a different search path under clipping"
            );
        }
    }

    #[test]
    fn the_event_queue_pops_each_gate_once_in_ascending_order_across_words() {
        let mut machine = Machine::new(Vec::new(), 200);
        for g in [130, 3, 199, 64, 3, 127, 130, 0] {
            machine.schedule(g);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| machine.next()).collect();
        assert_eq!(popped, [0, 3, 64, 127, 130, 199]);
        // Emptied with its cursor on the last word, the queue still finds
        // gates scheduled below it.
        machine.schedule(70);
        machine.schedule(5);
        assert_eq!(machine.next(), Some(5));
        machine.schedule(1);
        assert_eq!(machine.next(), Some(1));
        assert_eq!(machine.next(), Some(70));
        assert_eq!(machine.next(), None);
    }

    #[test]
    fn every_way_a_search_ends_restores_the_baseline_good_machine() {
        // y = a OR (a AND b) carries a redundant fault; z = y AND d with d
        // tied to 1 gives the baseline a constant to keep.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("d");
        let t = b.and2(a, c);
        let y = b.or2(a, t);
        let z = b.and2(y, d);
        b.output("y", y);
        b.output("z", z);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(d, true);
        let and = n.driver_of(t).unwrap();
        let redundant = StuckAt::output(and, false);
        let testable = StuckAt::output(and, true);

        let mut podem = Podem::new(&n, &constraints, PodemConfig::default()).unwrap();
        let mut baseline = podem.frame.blank_values();
        podem.frame.simulate([], None, &mut baseline);
        let assert_at_baseline = |podem: &Podem<'_>, ending: &str| {
            assert_eq!(
                podem.search.good.values, baseline,
                "good machine after {ending}"
            );
            assert_eq!(podem.search.marks(), (0, 0), "trails after {ending}");
            assert!(
                !podem.search.assigned.contains(&true),
                "assigned mask after {ending}"
            );
        };

        assert!(matches!(podem.generate(testable), PodemOutcome::Test(_)));
        assert_at_baseline(&podem, "a test");
        assert_eq!(podem.generate(redundant), PodemOutcome::Redundant);
        assert!(podem.last_backtracks() > 0);
        assert_at_baseline(&podem, "a proof");

        let mut starved = Podem::new(
            &n,
            &constraints,
            PodemConfig {
                backtrack_limit: 0,
                ..PodemConfig::default()
            },
        )
        .unwrap();
        assert_eq!(starved.generate(redundant), PodemOutcome::Aborted);
        assert!(!starved.last_search_interrupted());
        assert_at_baseline(&starved, "a budget abort");

        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        podem.set_search_limits(Some(stop), None);
        assert_eq!(podem.generate(testable), PodemOutcome::Aborted);
        assert!(podem.last_search_interrupted());
        assert_at_baseline(&podem, "an interrupt");
    }

    #[test]
    fn scoap_guidance_reaches_the_same_concluded_verdicts() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 5);
        let t1 = b.and2(a[0], a[1]);
        let t2 = b.or2(a[0], t1);
        let t3 = b.reduce_and(&[t2, a[2], a[3], a[4]].map(|n| n));
        b.output("y", t3);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let mut plain = Podem::new(
            &n,
            &constraints,
            PodemConfig {
                scoap_guidance: false,
                cone_clip: false,
                ..PodemConfig::default()
            },
        )
        .unwrap();
        let mut guided = Podem::new(&n, &constraints, PodemConfig::default()).unwrap();
        for fault in faultmodel::FaultList::full_universe(&n).faults().to_vec() {
            // Generous budget: both searches conclude, and concluded verdicts
            // are search-order independent.
            assert_eq!(guided.prove(fault), plain.prove(fault), "{fault:?}");
        }
    }

    #[test]
    fn generated_test_actually_detects_the_fault() {
        use crate::fault_sim::FaultSim;
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 3);
        let c = b.input("c");
        let t1 = b.and2(a[0], a[1]);
        let t2 = b.or2(t1, a[2]);
        let y = b.xor2(t2, c);
        b.output("y", y);
        let n = b.finish();
        let mut podem = engine_default(&n);
        let or = n.driver_of(t2).unwrap();
        let fault = StuckAt::output(or, false);
        let PodemOutcome::Test(pattern) = podem.generate(fault) else {
            panic!("expected test");
        };
        let sim = FaultSim::new(&n).unwrap();
        let vector: crate::fault_sim::InputVector = pattern.assignments.clone();
        assert_eq!(sim.detect(&[fault], &[vector]), vec![true]);
    }
}
