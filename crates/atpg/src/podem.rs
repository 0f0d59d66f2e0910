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
//!   and runs faulty simulation, D-frontier scanning and detection over that
//!   usually tiny set, while the good machine is maintained *incrementally*:
//!   each decision re-evaluates only the gates its assignment actually
//!   reaches (event-driven, in topological order), and retraction restores
//!   the baseline for the next fault. Clipping changes no decision: the
//!   clipped engine's outcomes and backtrack counts are bit-identical to the
//!   full engine's.
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
    /// scanning and detection run over the site's fanout cone only, and the
    /// good machine is maintained incrementally instead of re-simulated.
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
///   an event queue — each new assignment re-evaluates only the gates its
///   change actually reaches, and retracting the assignments at the end of a
///   fault restores the baseline, so no per-fault or per-decision whole-design
///   walk exists at all;
/// * the **fanout cone** of the site (stopping at the sequential / output
///   boundary) is the only region where the faulty machine can differ from
///   the good one, so faulty simulation, D-frontier scanning and detection
///   checks all run over this usually tiny set.
#[derive(Debug)]
struct ClipEngine {
    extractor: graph::ConeExtractor,
    /// Fanout-cone cells that compiled to gates, in arena order — the
    /// D-frontier scan set (identical iteration order to the full engine's
    /// live-cell walk, restricted to the cells that can carry an effect).
    fanout_cells: Vec<CellId>,
    /// Gate-program indices of `fanout_cells`, ascending — the faulty
    /// machine's evaluation program.
    fanout_gates: Vec<u32>,
    /// The fanout neighbourhood: the site net plus every net a fanout-cone
    /// cell reads or writes — the nets whose faulty value can differ from
    /// the good value, synced into the faulty buffer each iteration.
    neighborhood: Vec<u32>,
    /// Dense membership bitmap over `neighborhood` (cleared incrementally).
    net_in_neighborhood: Vec<bool>,
    /// Observation nets inside the neighbourhood — the only observation
    /// points a fault effect can ever reach.
    obs_nets: Vec<NetId>,
}

impl ClipEngine {
    fn new(netlist: &Netlist) -> Self {
        ClipEngine {
            extractor: graph::ConeExtractor::new(netlist),
            fanout_cells: Vec::new(),
            fanout_gates: Vec::new(),
            neighborhood: Vec::new(),
            net_in_neighborhood: vec![false; netlist.num_nets()],
            obs_nets: Vec::new(),
        }
    }

    /// Extracts the fanout cone of `site_net` and lowers it into the clipped
    /// faulty-machine views.
    fn prepare(&mut self, frame: &Frame<'_>, site_net: NetId) {
        for &n in &self.neighborhood {
            self.net_in_neighborhood[n as usize] = false;
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
                fanout_cells.push(cell_id);
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
        for &net in frame.observation_nets() {
            if self.net_in_neighborhood[net.index()] {
                self.obs_nets.push(net);
            }
        }
    }
}

/// Reusable per-engine search scratch: the event queue of the incremental
/// good-machine updates — a min-heap of dirty gate-program indices
/// (topological, so each gate settles in a single visit per wave) plus the
/// dirty bitmap that dedupes insertions — and the visited set of the X-path
/// reachability check.
#[derive(Debug, Default)]
struct SearchScratch {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
    dirty: Vec<bool>,
    visited: Vec<bool>,
    touched: Vec<u32>,
    stack: Vec<u32>,
}

/// The PODEM test generator.
///
/// The engine owns reusable good/faulty value buffers, so repeated
/// [`generate`](Self::generate) calls allocate nothing on the simulation
/// path (which is why `generate` takes `&mut self`).
#[derive(Debug)]
pub struct Podem<'a> {
    frame: Frame<'a>,
    config: PodemConfig,
    good_buf: NetValues,
    faulty_buf: NetValues,
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
        let mut good_buf = frame.blank_values();
        let faulty_buf = frame.blank_values();
        let scoap = if config.scoap_guidance {
            Some(compute_scoap(netlist, constraints)?)
        } else {
            None
        };
        let clip = config.cone_clip.then(|| ClipEngine::new(netlist));
        if clip.is_some() {
            // Baseline of the incremental good machine: ties and forced nets
            // applied, every free net X. The search applies and retracts its
            // assignments through the event queue, always returning here.
            frame.simulate([], None, &mut good_buf);
        }
        let search = SearchScratch {
            heap: std::collections::BinaryHeap::new(),
            dirty: vec![
                false;
                if clip.is_some() {
                    frame.program().num_gates()
                } else {
                    0
                }
            ],
            visited: vec![false; netlist.num_nets()],
            touched: Vec::new(),
            stack: Vec::new(),
        };
        Ok(Podem {
            frame,
            config,
            good_buf,
            faulty_buf,
            last_backtracks: 0,
            interrupt: None,
            deadline: None,
            last_interrupted: false,
            scoap,
            clip,
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

    /// Sets a controllable net of the good machine and queues its load gates
    /// for re-evaluation. Call [`good_flush`](Self::good_flush) before the
    /// next read.
    fn good_set(
        &self,
        search: &mut SearchScratch,
        values: &mut NetValues,
        net: NetId,
        value: Logic,
    ) {
        if values[net.index()] == value {
            return;
        }
        values[net.index()] = value;
        self.enqueue_loads(search, net);
    }

    fn enqueue_loads(&self, search: &mut SearchScratch, net: NetId) {
        for load in self.frame.netlist().loads_of(net) {
            let g = self.frame.gate_of(load.cell);
            if g != NO_INDEX && !search.dirty[g as usize] {
                search.dirty[g as usize] = true;
                search.heap.push(std::cmp::Reverse(g));
            }
        }
    }

    /// Propagates queued good-machine events to quiescence. Gates settle in
    /// ascending (topological) program order, so each is visited at most once
    /// per wave and the result equals a from-scratch propagation — the
    /// incremental update changes values, never decisions.
    fn good_flush(&self, search: &mut SearchScratch, values: &mut NetValues) {
        let program = self.frame.program();
        while let Some(std::cmp::Reverse(g)) = search.heap.pop() {
            let gi = g as usize;
            search.dirty[gi] = false;
            let new = program.eval_gate_scalar(gi, values);
            let out = program.gate_output(gi) as usize;
            if self.frame.forced_mask()[out] || values[out] == new {
                continue;
            }
            values[out] = new;
            self.enqueue_loads(search, NetId::from_index(out));
        }
    }

    /// One faulty-machine evaluation: syncs the fanout neighbourhood from the
    /// good machine, injects the fault at the site, and re-evaluates only the
    /// fanout cone's gates — outside the fanout cone the faulty machine
    /// equals the good machine by construction, exactly as in a full
    /// propagation.
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
        // An output-pin fault forces the site net directly (its driver is
        // upstream of the fanout cone and never re-evaluated). Combinational
        // drivers respect forced nets, matching the full engine's gate loop;
        // source drivers are overridden unconditionally inside
        // `propagate_scalar_clipped`, also matching the full engine.
        if let FaultSite::CellOutput { cell } = fault.site {
            if self.frame.netlist().cell(cell).kind().is_combinational()
                && !self.frame.forced_mask()[site_net.index()]
            {
                faulty[site_net.index()] = Logic::from_bool(fault.value);
            }
        }
        self.frame.program().propagate_scalar_clipped(
            self.frame.netlist(),
            faulty,
            self.frame.forced_mask(),
            Some(fault),
            &clip.fanout_gates,
        );
    }

    /// Cells on the D-frontier: the fault effect is present on at least one
    /// input (either because the driving net carries a difference, or because
    /// the cell itself hosts an excited branch fault) but the output does not
    /// yet show a definite difference.
    ///
    /// With cone clipping the scan covers only the fanout cone's gates — the
    /// only cells that can carry a fault effect — kept in arena order, so the
    /// frontier is identical to the full engine's.
    fn d_frontier(
        &self,
        fault: StuckAt,
        good: &NetValues,
        faulty: &NetValues,
        clip: Option<&ClipEngine>,
    ) -> Vec<CellId> {
        let mut frontier = Vec::new();
        match clip {
            Some(c) => {
                for &id in &c.fanout_cells {
                    self.d_frontier_check(id, fault, good, faulty, &mut frontier);
                }
            }
            None => {
                for (id, cell) in self.frame.netlist().live_cells() {
                    if !cell.kind().is_combinational() {
                        continue;
                    }
                    self.d_frontier_check(id, fault, good, faulty, &mut frontier);
                }
            }
        }
        frontier
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
        let out_diff = {
            let g = good[out.index()];
            let f = faulty[out.index()];
            g.is_definite() && f.is_definite() && g != f
        };
        if out_diff {
            return;
        }
        let mut has_input_diff = cell.inputs().iter().any(|&n| {
            let g = good[n.index()];
            let f = faulty[n.index()];
            g.is_definite() && f.is_definite() && g != f
        });
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
    fn backtrace(
        &self,
        mut net: NetId,
        mut value: bool,
        good: &NetValues,
        assignments: &HashMap<NetId, Logic>,
    ) -> Option<(NetId, bool)> {
        for _ in 0..self.frame.netlist().num_cells() + 1 {
            if self.frame.is_controllable(net) && !assignments.contains_key(&net) {
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
            let x_inputs: Vec<usize> = cell
                .inputs()
                .iter()
                .enumerate()
                .filter(|&(_, &n)| good[n.index()] == Logic::X)
                .map(|(i, _)| i)
                .collect();
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
                        (self.choose_input(cell, &x_inputs, identity, true), identity)
                    } else {
                        // A single controlling input suffices: the cheapest.
                        (
                            self.choose_input(cell, &x_inputs, !identity, false),
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
                    (self.choose_input(cell, &x_inputs, want, false), want)
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
        // Temporarily move the reusable buffers out of `self` so the borrow
        // checker lets the read-only engine use them alongside `&self`.
        let mut good = std::mem::take(&mut self.good_buf);
        let mut faulty = std::mem::take(&mut self.faulty_buf);
        let mut clip = self.clip.take();
        let mut search = std::mem::take(&mut self.search);
        let (outcome, backtracks, interrupted) =
            self.generate_inner(fault, &mut good, &mut faulty, clip.as_mut(), &mut search);
        self.good_buf = good;
        self.faulty_buf = faulty;
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
        search: &mut SearchScratch,
    ) -> bool {
        let viable = |n: usize| {
            let g = good[n];
            let f = faulty[n];
            !(g.is_definite() && f.is_definite() && g == f)
        };
        search.stack.clear();
        for &gate in frontier {
            let Some(out) = self.frame.netlist().cell(gate).output() else {
                continue;
            };
            let n = out.index();
            if viable(n) && !search.visited[n] {
                search.visited[n] = true;
                search.touched.push(n as u32);
                search.stack.push(n as u32);
            }
        }
        let mut found = false;
        'walk: while let Some(n) = search.stack.pop() {
            let n = n as usize;
            if self.frame.is_observation_net(NetId::from_index(n)) {
                found = true;
                break 'walk;
            }
            for load in self.frame.netlist().loads_of(NetId::from_index(n)) {
                let cell = self.frame.netlist().cell(load.cell);
                if cell.is_dead() || !cell.kind().is_combinational() {
                    continue;
                }
                let Some(out) = cell.output() else { continue };
                let o = out.index();
                if !search.visited[o] && viable(o) {
                    search.visited[o] = true;
                    search.touched.push(o as u32);
                    search.stack.push(o as u32);
                }
            }
        }
        for &n in &search.touched {
            search.visited[n as usize] = false;
        }
        search.touched.clear();
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
    /// fast and prunes backtracks.
    fn frontier_objective(&self, frontier: &[CellId], good: &NetValues) -> Option<(NetId, bool)> {
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
        let x_inputs: Vec<usize> = cell
            .inputs()
            .iter()
            .enumerate()
            .filter(|&(_, &n)| good[n.index()] == Logic::X)
            .map(|(i, _)| i)
            .collect();
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
            self.choose_input(cell, &x_inputs, noncontrolling, true)
        };
        Some((cell.inputs()[pin], noncontrolling))
    }

    fn generate_inner(
        &self,
        fault: StuckAt,
        good: &mut NetValues,
        faulty: &mut NetValues,
        clip: Option<&mut ClipEngine>,
        search: &mut SearchScratch,
    ) -> (PodemOutcome, usize, bool) {
        let Some(site_net) = self.frame.site_net(fault) else {
            // Detached output pin: nothing to excite or observe — redundant in
            // this frame.
            return (PodemOutcome::Redundant, 0, false);
        };
        if good.len() != self.frame.netlist().num_nets() {
            *good = self.frame.blank_values();
        }
        if faulty.len() != self.frame.netlist().num_nets() {
            *faulty = self.frame.blank_values();
        }
        // Clip the search to the fault's fanout cone: one cheap extraction
        // per fault buys faulty simulation, D-frontier scanning and detection
        // over the usually tiny cone, while the good machine is maintained
        // incrementally — each decision re-evaluates only the gates its
        // change actually reaches.
        let clip: Option<&ClipEngine> = match clip {
            Some(c) => {
                c.prepare(&self.frame, site_net);
                Some(c)
            }
            None => None,
        };
        let obs_nets: &[NetId] = clip.map_or(self.frame.observation_nets(), |c| &c.obs_nets);
        let stuck = Logic::from_bool(fault.value);
        let mut assignments: HashMap<NetId, Logic> = HashMap::new();
        // Decision stack: (net, current value, tried_both).
        let mut stack: Vec<(NetId, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;
        let mut interrupted = false;

        let outcome = 'search: loop {
            // Cooperative stop: one poll per decision step bounds the
            // cancellation latency by a single simulation pass.
            if self.stop_requested() {
                interrupted = true;
                break 'search PodemOutcome::Aborted;
            }
            match clip {
                Some(c) => {
                    // The good machine is already current (incrementally
                    // maintained); only the faulty view needs refreshing.
                    self.simulate_faulty_clipped(c, fault, site_net, good, faulty);
                }
                None => {
                    let assigned = || assignments.iter().map(|(&net, &v)| (net, v));
                    self.frame.simulate(assigned(), None, good);
                    self.frame.simulate(assigned(), Some(fault), faulty);
                }
            }

            if self.frame.detects(fault, good, faulty, obs_nets) {
                let pattern = TestPattern {
                    assignments: assignments
                        .iter()
                        .filter_map(|(&n, &v)| v.to_bool().map(|b| (n, b)))
                        .collect(),
                };
                break 'search PodemOutcome::Test(pattern);
            }

            let site_value = good[site_net.index()];
            let excitation_conflict = site_value.is_definite() && site_value == stuck;
            let frontier = self.d_frontier(fault, good, faulty, clip);
            let excited = site_value.is_definite() && site_value != stuck;
            let dead_end = excitation_conflict
                || (excited
                    && (frontier.is_empty()
                        || (self.config.x_path_check
                            && !self.frontier_has_x_path(&frontier, good, faulty, search))));

            let objective = if dead_end {
                None
            } else if !excited {
                Some((site_net, !fault.value))
            } else {
                self.frontier_objective(&frontier, good)
            };

            let decision =
                objective.and_then(|(net, value)| self.backtrace(net, value, good, &assignments));

            match decision {
                Some((input, value)) => {
                    assignments.insert(input, Logic::from_bool(value));
                    stack.push((input, value, false));
                    if clip.is_some() {
                        self.good_set(search, good, input, Logic::from_bool(value));
                        self.good_flush(search, good);
                    }
                }
                None => {
                    // Backtrack. Exhausting the decision stack is the
                    // untestability proof; running out of backtrack budget is
                    // a *give-up* and must stay distinguishable (Aborted), or
                    // callers would screen potentially testable faults out of
                    // the coverage denominator.
                    loop {
                        match stack.pop() {
                            None => break 'search PodemOutcome::Redundant,
                            Some((input, value, tried_both)) => {
                                assignments.remove(&input);
                                if clip.is_some() {
                                    self.good_set(search, good, input, Logic::X);
                                }
                                if !tried_both {
                                    backtracks += 1;
                                    if backtracks > self.config.backtrack_limit {
                                        break 'search PodemOutcome::Aborted;
                                    }
                                    assignments.insert(input, Logic::from_bool(!value));
                                    stack.push((input, !value, true));
                                    if clip.is_some() {
                                        self.good_set(
                                            search,
                                            good,
                                            input,
                                            Logic::from_bool(!value),
                                        );
                                    }
                                    break;
                                }
                            }
                        }
                    }
                    if clip.is_some() {
                        self.good_flush(search, good);
                    }
                }
            }
        };

        // Retract this fault's surviving assignments so the incremental good
        // machine returns to its baseline for the next fault.
        if clip.is_some() {
            for &net in assignments.keys() {
                self.good_set(search, good, net, Logic::X);
            }
            self.good_flush(search, good);
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
