//! Tseitin-style CNF encoding of the cone-clipped fault machine and the SAT
//! untestability prover behind the PODEM/SAT portfolio ([`crate::proof`]).
//!
//! Per fault the encoder builds the good machine over the fault site's
//! fanout cone and its transitive fan-in, and a faulty copy of only the
//! cone gates a faulty value reaches: a gate is copied when one of its
//! inputs is the faulted pin or already has a faulty encoding. Every other
//! net aliases its good-machine encoding, so the CNF stays proportional to
//! the fault's own fanout plus its fan-in rather than the whole design, and
//! the solver never has to prove an unaffected sub-circuit equal to itself.
//! Detection is an OR of XOR-difference literals at the observation nets
//! with a faulty encoding (masked outputs never contribute), plus the
//! branch-observation term for an input-pin fault sitting directly on an
//! observation pin. Mission forces from the [`ConstraintSet`] enter as
//! **unit assumptions** on fresh variables.
//!
//! The prover searches the same full-scan frame as [`crate::podem`]: its
//! free variables are exactly the nets PODEM may assign (unforced primary
//! inputs and, under full scan, unforced flip-flop outputs), and its
//! observation points are [`ConstraintSet::observation_points`]. The
//! two-valued encoding is exact for the three-valued engine because every
//! source net in the relevant fan-in is forced, tied, or controllable:
//! three-valued simulation is monotone, so a detecting partial assignment
//! extends to a detecting complete one, and any satisfying complete
//! assignment *is* a detecting test. When that precondition fails —
//! uncontrollable flip-flop outputs or floating nets in the fan-in — the
//! prover declines with [`SatVerdict::Unsupported`] instead of guessing, and
//! the portfolio keeps the search engine's verdict.
//!
//! A `Sat` answer is never trusted on its own: the model is replayed through
//! the three-valued simulator with the fault injected and must pass the
//! detection check PODEM decides with before [`SatVerdict::TestExists`] is
//! returned.

use std::collections::HashMap;

use faultmodel::{FaultSite, StuckAt};
use netlist::{graph, CellId, CellKind, NetId, Netlist};
use sat::{Lit, SolveResult, Solver, Var};

use crate::budget::AbortReason;
use crate::compiled::NO_INDEX;
use crate::constant::ConstraintSet;
use crate::frame::Frame;
use crate::logic::Logic;
use crate::sim::NetValues;

/// Default ceiling on the number of CNF clauses one proof attempt may build.
/// A pathological cone (huge reconvergent fan-in) hits this guard and comes
/// back [`SatVerdict::Unsupported`] instead of exhausting memory inside the
/// solver.
pub const DEFAULT_CLAUSE_LIMIT: usize = 4_000_000;

/// Outcome of one SAT proof attempt.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SatVerdict {
    /// The solver found a test and the simulator confirmed it detects.
    TestExists,
    /// The CNF is unsatisfiable: no test exists under the constraints.
    ProvenUntestable,
    /// The conflict budget ran out before a verdict; the fault stays
    /// potentially testable.
    Aborted,
    /// The fault's environment falls outside the two-valued encoding
    /// (uncontrollable flip-flop output or floating net in the relevant
    /// fan-in); the caller should keep the search engine's verdict.
    Unsupported,
}

/// Marker error: the fan-in needed by the encoding contains a net the
/// two-valued CNF cannot represent exactly.
struct Unsupported;

/// A net's encoding: a known constant or a CNF literal.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Repr {
    Const(bool),
    Lit(Lit),
}

/// Accumulated observation terms of one fault encoding.
struct Detection {
    /// XOR-difference literals, one per observation net that can differ.
    terms: Vec<Lit>,
    /// Some difference folded to constant true: every consistent assignment
    /// detects the fault.
    trivially_detected: bool,
}

/// Per-fault CNF under construction: the solver, the lazily resolved good
/// machine, and the assumption/input bookkeeping.
struct Cnf<'f> {
    frame: &'f Frame<'f>,
    solver: Solver,
    /// Good-machine encoding per net, resolved on demand through the fan-in.
    good: HashMap<NetId, Repr>,
    /// Unit assumptions pinning the mission forces.
    assumptions: Vec<Lit>,
    /// Free controllable variables, for replaying a model through the
    /// simulator. Order is deterministic (resolution order).
    inputs: Vec<(NetId, Var)>,
    true_lit: Option<Lit>,
    /// Scratch for the iterative fan-in walk.
    stack: Vec<NetId>,
}

impl<'f> Cnf<'f> {
    fn new(frame: &'f Frame<'f>) -> Self {
        Cnf {
            frame,
            solver: Solver::new(),
            good: HashMap::new(),
            assumptions: Vec::new(),
            inputs: Vec::new(),
            true_lit: None,
            stack: Vec::new(),
        }
    }

    /// A literal that is true in every model (created on first use).
    fn constant_true(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = Lit::positive(self.solver.new_var());
        self.solver.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    fn lit_of(&mut self, r: Repr) -> Lit {
        match r {
            Repr::Lit(l) => l,
            Repr::Const(b) => {
                let t = self.constant_true();
                if b {
                    t
                } else {
                    !t
                }
            }
        }
    }

    fn negate(r: Repr) -> Repr {
        match r {
            Repr::Const(b) => Repr::Const(!b),
            Repr::Lit(l) => Repr::Lit(!l),
        }
    }

    fn and_reprs(&mut self, ins: &[Repr]) -> Repr {
        let mut lits: Vec<Lit> = Vec::with_capacity(ins.len());
        for &r in ins {
            match r {
                Repr::Const(false) => return Repr::Const(false),
                Repr::Const(true) => {}
                Repr::Lit(l) => {
                    if lits.contains(&!l) {
                        return Repr::Const(false);
                    }
                    if !lits.contains(&l) {
                        lits.push(l);
                    }
                }
            }
        }
        match lits.len() {
            0 => Repr::Const(true),
            1 => Repr::Lit(lits[0]),
            _ => {
                let y = Lit::positive(self.solver.new_var());
                let mut all = Vec::with_capacity(lits.len() + 1);
                all.push(y);
                for &l in &lits {
                    self.solver.add_clause(&[!y, l]);
                    all.push(!l);
                }
                self.solver.add_clause(&all);
                Repr::Lit(y)
            }
        }
    }

    fn or_reprs(&mut self, ins: &[Repr]) -> Repr {
        let mut lits: Vec<Lit> = Vec::with_capacity(ins.len());
        for &r in ins {
            match r {
                Repr::Const(true) => return Repr::Const(true),
                Repr::Const(false) => {}
                Repr::Lit(l) => {
                    if lits.contains(&!l) {
                        return Repr::Const(true);
                    }
                    if !lits.contains(&l) {
                        lits.push(l);
                    }
                }
            }
        }
        match lits.len() {
            0 => Repr::Const(false),
            1 => Repr::Lit(lits[0]),
            _ => {
                let y = Lit::positive(self.solver.new_var());
                let mut all = Vec::with_capacity(lits.len() + 1);
                all.push(!y);
                for &l in &lits {
                    self.solver.add_clause(&[y, !l]);
                    all.push(l);
                }
                self.solver.add_clause(&all);
                Repr::Lit(y)
            }
        }
    }

    fn xor2(&mut self, a: Repr, b: Repr) -> Repr {
        match (a, b) {
            (Repr::Const(x), Repr::Const(y)) => Repr::Const(x ^ y),
            (Repr::Const(false), r) | (r, Repr::Const(false)) => r,
            (Repr::Const(true), r) | (r, Repr::Const(true)) => Self::negate(r),
            (Repr::Lit(p), Repr::Lit(q)) if p == q => Repr::Const(false),
            (Repr::Lit(p), Repr::Lit(q)) if p == !q => Repr::Const(true),
            (Repr::Lit(p), Repr::Lit(q)) => {
                let y = Lit::positive(self.solver.new_var());
                self.solver.add_clause(&[!p, !q, !y]);
                self.solver.add_clause(&[p, q, !y]);
                self.solver.add_clause(&[p, !q, y]);
                self.solver.add_clause(&[!p, q, y]);
                Repr::Lit(y)
            }
        }
    }

    fn xor_all(&mut self, ins: &[Repr]) -> Repr {
        let mut acc = Repr::Const(false);
        for &r in ins {
            acc = self.xor2(acc, r);
        }
        acc
    }

    fn mux(&mut self, d0: Repr, d1: Repr, s: Repr) -> Repr {
        match s {
            Repr::Const(false) => d0,
            Repr::Const(true) => d1,
            Repr::Lit(sl) => {
                if d0 == d1 {
                    return d0;
                }
                let l0 = self.lit_of(d0);
                let l1 = self.lit_of(d1);
                let y = Lit::positive(self.solver.new_var());
                self.solver.add_clause(&[sl, !y, l0]);
                self.solver.add_clause(&[sl, y, !l0]);
                self.solver.add_clause(&[!sl, !y, l1]);
                self.solver.add_clause(&[!sl, y, !l1]);
                Repr::Lit(y)
            }
        }
    }

    /// Encodes one combinational gate over already-encoded inputs, constant
    /// folding where the operands allow it. The fold directions mirror
    /// [`crate::compiled`]'s `compute_gate` two-valued semantics exactly.
    fn gate_repr(&mut self, kind: CellKind, ins: &[Repr]) -> Repr {
        match kind {
            CellKind::Buf => ins[0],
            CellKind::Not => Self::negate(ins[0]),
            CellKind::And(_) => self.and_reprs(ins),
            CellKind::Nand(_) => {
                let a = self.and_reprs(ins);
                Self::negate(a)
            }
            CellKind::Or(_) => self.or_reprs(ins),
            CellKind::Nor(_) => {
                let o = self.or_reprs(ins);
                Self::negate(o)
            }
            CellKind::Xor(_) => self.xor_all(ins),
            CellKind::Xnor(_) => {
                let x = self.xor_all(ins);
                Self::negate(x)
            }
            CellKind::Mux2 => self.mux(ins[0], ins[1], ins[2]),
            other => unreachable!("non-combinational {other:?} reached the gate encoder"),
        }
    }

    /// A fresh unconstrained variable standing for a controllable net.
    fn free_var(&mut self, net: NetId) -> Repr {
        let v = self.solver.new_var();
        self.inputs.push((net, v));
        Repr::Lit(Lit::positive(v))
    }

    /// Resolves the good-machine encoding of `net`, walking its fan-in
    /// iteratively (the fan-in of an industrial cone can be deep).
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when the fan-in contains a net the two-valued encoding
    /// cannot represent exactly: a floating (driverless) net, or a source the
    /// frame does not control (a flip-flop output while the environment says
    /// those are not controllable).
    fn good_repr(&mut self, net: NetId) -> Result<Repr, Unsupported> {
        debug_assert!(self.stack.is_empty());
        let frame = self.frame;
        self.stack.push(net);
        while let Some(&n) = self.stack.last() {
            if self.good.contains_key(&n) {
                self.stack.pop();
                continue;
            }
            if let Some(bit) = frame.forced_value(n) {
                // Mission force: a fresh variable pinned by a unit
                // assumption, so learnt clauses stay environment-free.
                let v = self.solver.new_var();
                self.assumptions.push(Lit::new(v, bit));
                self.good.insert(n, Repr::Lit(Lit::positive(v)));
                self.stack.pop();
                continue;
            }
            let Some(driver) = frame.netlist().driver_of(n) else {
                // Floating net: permanently X in simulation.
                self.stack.clear();
                return Err(Unsupported);
            };
            let cell = frame.netlist().cell(driver);
            let kind = cell.kind();
            let repr = match kind {
                _ if frame.is_controllable(n) => self.free_var(n),
                CellKind::Tie0 => Repr::Const(false),
                CellKind::Tie1 => Repr::Const(true),
                _ if !kind.is_combinational() => {
                    // A source the frame does not control.
                    self.stack.clear();
                    return Err(Unsupported);
                }
                _ => {
                    let before = self.stack.len();
                    for &in_net in cell.inputs() {
                        if !self.good.contains_key(&in_net) {
                            self.stack.push(in_net);
                        }
                    }
                    if self.stack.len() != before {
                        // Resolve the fan-in first; `n` is revisited after.
                        continue;
                    }
                    let ins: Vec<Repr> = cell.inputs().iter().map(|i| self.good[i]).collect();
                    self.gate_repr(kind, &ins)
                }
            };
            self.good.insert(n, repr);
            self.stack.pop();
        }
        Ok(self.good[&net])
    }
}

/// Builds the faulty copies of the affected cone gates and the detection
/// terms for one fault.
///
/// `gates` are the compiled gates of the site's fanout cone in ascending
/// (topological) gate order; `faulty` arrives seeded with the site override
/// for stem faults and leaves holding the faulty encoding of every net that
/// can differ from the good machine. A gate is copied only when a faulty
/// value reaches it — one of its inputs is the faulted pin or already has a
/// faulty encoding; any other gate computes the good function of good
/// inputs, so its readers use the good encoding and its output needs no
/// observation term (Larrabee's faulty circuit over the fault's own fanout).
fn encode_fault(
    cnf: &mut Cnf<'_>,
    gates: &[(u32, CellId)],
    fault: StuckAt,
    faulty: &mut HashMap<NetId, Repr>,
) -> Result<Detection, Unsupported> {
    let frame = cnf.frame;
    let netlist = frame.netlist();
    let stuck = fault.value;
    for &(_, cell_id) in gates {
        let kind = netlist.cell(cell_id).kind();
        let out = netlist
            .output_net(cell_id)
            .expect("compiled gates drive a net");
        if frame.forced_mask()[out.index()] {
            // Gates never overwrite forced nets, in either machine.
            continue;
        }
        let pins = netlist.cell(cell_id).inputs();
        let faulted_pin = |pin: usize| {
            matches!(
                fault.site,
                FaultSite::CellInput { cell, pin: fpin }
                    if cell == cell_id && usize::from(fpin) == pin
            )
        };
        let affected = pins
            .iter()
            .enumerate()
            .any(|(pin, net)| faulted_pin(pin) || faulty.contains_key(net));
        if !affected {
            continue;
        }
        let mut ins = Vec::with_capacity(pins.len());
        for (pin, &net) in pins.iter().enumerate() {
            let r = if faulted_pin(pin) {
                // Branch fault: only this cell's read of the net is stuck.
                Repr::Const(stuck)
            } else if let Some(&fr) = faulty.get(&net) {
                fr
            } else {
                cnf.good_repr(net)?
            };
            ins.push(r);
        }
        let out_repr = cnf.gate_repr(kind, &ins);
        faulty.insert(out, out_repr);
    }

    // Observation: XOR differences where the machines can diverge. Sorted for
    // a deterministic CNF (and thus deterministic conflict budgets) no matter
    // the hash order.
    let mut diff_nets: Vec<NetId> = faulty
        .keys()
        .copied()
        .filter(|net| frame.is_observation_net(*net))
        .collect();
    diff_nets.sort_unstable();
    let mut terms = Vec::new();
    let mut trivially_detected = false;
    for net in diff_nets {
        let g = cnf.good_repr(net)?;
        let f = faulty[&net];
        match cnf.xor2(g, f) {
            Repr::Const(false) => {}
            Repr::Const(true) => trivially_detected = true,
            Repr::Lit(l) => terms.push(l),
        }
    }
    if let Some(pin_net) = frame.observed_branch(fault) {
        // Branch observation: the faulted pin itself is an observation
        // point, so the fault is seen whenever the good value differs from
        // the stuck value.
        let g = cnf.good_repr(pin_net)?;
        match cnf.xor2(g, Repr::Const(stuck)) {
            Repr::Const(false) => {}
            Repr::Const(true) => trivially_detected = true,
            Repr::Lit(l) => terms.push(l),
        }
    }
    Ok(Detection {
        terms,
        trivially_detected,
    })
}

/// SAT-backed untestability prover over the full-scan combinational frame.
///
/// Shares PODEM's frame: primary inputs and flip-flop outputs are
/// controllable (unless forced), primary outputs and flip-flop input pins
/// are observation points (unless masked). Each
/// [`prove`](Self::prove) call encodes the fault's cone-clipped good/faulty
/// machine pair into a fresh CNF and asks the CDCL core ([`sat::Solver`])
/// whether any detecting assignment exists.
#[derive(Debug)]
pub struct SatProver<'a> {
    frame: Frame<'a>,
    extractor: graph::ConeExtractor,
    conflict_limit: u64,
    clause_limit: usize,
    interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    deadline: Option<std::time::Instant>,
    last_abort_reason: Option<AbortReason>,
    corrupt_next_model: bool,
    good_buf: NetValues,
    faulty_buf: NetValues,
}

impl<'a> SatProver<'a> {
    /// Builds a prover for the given design and environment.
    /// `conflict_limit` bounds each proof attempt (use `u64::MAX` for an
    /// effectively unbounded search).
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the combinational logic is cyclic.
    pub fn new(
        netlist: &'a Netlist,
        constraints: &ConstraintSet,
        conflict_limit: u64,
    ) -> Result<Self, graph::CombinationalLoop> {
        let frame = Frame::new(netlist, constraints)?;
        let good_buf = frame.blank_values();
        let faulty_buf = frame.blank_values();
        Ok(SatProver {
            frame,
            extractor: graph::ConeExtractor::new(netlist),
            conflict_limit,
            clause_limit: DEFAULT_CLAUSE_LIMIT,
            interrupt: None,
            deadline: None,
            last_abort_reason: None,
            corrupt_next_model: false,
            good_buf,
            faulty_buf,
        })
    }

    /// Installs (or clears) the cooperative search limits: an interrupt flag
    /// and a wall-clock deadline handed to the CDCL solver of every
    /// subsequent [`prove`](Self::prove) call.
    pub fn set_search_limits(
        &mut self,
        interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
        deadline: Option<std::time::Instant>,
    ) {
        self.interrupt = interrupt;
        self.deadline = deadline;
    }

    /// Overrides the clause-count guard (default
    /// [`DEFAULT_CLAUSE_LIMIT`]). An encoding larger than the limit comes
    /// back [`SatVerdict::Unsupported`].
    pub fn set_clause_limit(&mut self, limit: usize) {
        self.clause_limit = limit;
    }

    /// Why the most recent [`prove`](Self::prove) call came back
    /// [`SatVerdict::Aborted`] or [`SatVerdict::Unsupported`] (`None` after
    /// a concluded verdict).
    pub fn last_abort_reason(&self) -> Option<AbortReason> {
        self.last_abort_reason
    }

    /// Failure injection (test harness): corrupt the model extracted by the
    /// *next* `Sat` answer before the simulation replay, proving the replay
    /// check rejects a bogus test instead of trusting it.
    #[doc(hidden)]
    pub fn corrupt_next_model(&mut self) {
        self.corrupt_next_model = true;
    }

    /// The fanout cone of `site_net`, restricted to compiled gates, in
    /// ascending gate (= topological) order.
    fn cone_gates(&mut self, site_net: NetId) -> Vec<(u32, CellId)> {
        let cone = self
            .extractor
            .fanout_cone_with(self.frame.netlist(), &[site_net]);
        let mut gates: Vec<(u32, CellId)> = cone
            .iter()
            .filter_map(|&c| {
                let g = self.frame.gate_of(c);
                (g != NO_INDEX).then_some((g, c))
            })
            .collect();
        gates.sort_unstable();
        gates
    }

    /// Attempts a definitive verdict for one stuck-at fault.
    pub fn prove(&mut self, fault: StuckAt) -> SatVerdict {
        self.last_abort_reason = None;
        let Some(site_net) = self.frame.site_net(fault) else {
            // Detached output pin: nothing downstream can observe it.
            return SatVerdict::ProvenUntestable;
        };
        let gates = self.cone_gates(site_net);
        let frame = &self.frame;
        let stuck = fault.value;

        let mut cnf = Cnf::new(frame);
        let mut faulty: HashMap<NetId, Repr> = HashMap::new();
        match fault.site {
            FaultSite::CellOutput { cell } => {
                if !frame.netlist().cell(cell).kind().is_combinational() {
                    // Source stem (input / tie / flip-flop output): the stuck
                    // value overrides the site even when the net is forced.
                    faulty.insert(site_net, Repr::Const(stuck));
                } else if frame.forced_mask()[site_net.index()] {
                    // A forced net is never overwritten by its gate: the
                    // faulty machine equals the good one everywhere.
                    return SatVerdict::ProvenUntestable;
                } else {
                    faulty.insert(site_net, Repr::Const(stuck));
                }
            }
            FaultSite::CellInput { .. } => {}
        }

        let detection = match encode_fault(&mut cnf, &gates, fault, &mut faulty) {
            Ok(d) => d,
            Err(Unsupported) => {
                self.last_abort_reason = Some(AbortReason::Unsupported);
                return SatVerdict::Unsupported;
            }
        };
        if !detection.trivially_detected {
            if detection.terms.is_empty() {
                // The machines agree at every observation point under every
                // assignment: untestable, no solving needed.
                return SatVerdict::ProvenUntestable;
            }
            cnf.solver.add_clause(&detection.terms);
        }
        if cnf.solver.num_clauses() > self.clause_limit {
            // The cone blew past the clause guard: decline before handing the
            // solver an encoding that could exhaust memory.
            self.last_abort_reason = Some(AbortReason::Unsupported);
            return SatVerdict::Unsupported;
        }
        cnf.solver.set_conflict_limit(Some(self.conflict_limit));
        cnf.solver.set_interrupt(self.interrupt.clone());
        cnf.solver.set_deadline(self.deadline);
        match cnf.solver.solve_with_assumptions(&cnf.assumptions) {
            SolveResult::Unsat => SatVerdict::ProvenUntestable,
            SolveResult::Unknown => {
                self.last_abort_reason = Some(if cnf.solver.was_interrupted() {
                    AbortReason::Timeout
                } else {
                    AbortReason::Conflicts
                });
                SatVerdict::Aborted
            }
            SolveResult::Sat => {
                let injected = std::mem::take(&mut self.corrupt_next_model);
                let mut assignment: Vec<(NetId, bool)> = cnf
                    .inputs
                    .iter()
                    .map(|&(net, var)| (net, cnf.solver.model_value(var).unwrap_or(false)))
                    .collect();
                if injected {
                    // Failure injection: flip every model bit so the replay
                    // check faces a maximally wrong test.
                    for (_, value) in &mut assignment {
                        *value = !*value;
                    }
                }
                // Replay the model through the three-valued simulator and
                // check the detection the encoding promised by PODEM's
                // criterion.
                let assigned = || {
                    assignment
                        .iter()
                        .map(|&(net, v)| (net, Logic::from_bool(v)))
                };
                let (good, faulty) = (&mut self.good_buf, &mut self.faulty_buf);
                frame.simulate(assigned(), None, good);
                frame.simulate(assigned(), Some(fault), faulty);
                if frame.detects(fault, good, faulty, frame.observation_nets()) {
                    SatVerdict::TestExists
                } else {
                    // The simulator refused the model: the encoding and the
                    // engine disagree somewhere. Never trust the model.
                    debug_assert!(injected, "SAT model failed simulation replay for {fault:?}");
                    self.last_abort_reason = Some(AbortReason::Unsupported);
                    SatVerdict::Aborted
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::{Podem, PodemConfig, ProofOutcome};
    use faultmodel::FaultList;
    use netlist::NetlistBuilder;

    fn prover<'a>(netlist: &'a Netlist, constraints: &ConstraintSet) -> SatProver<'a> {
        SatProver::new(netlist, constraints, u64::MAX).expect("acyclic")
    }

    #[test]
    fn detects_testable_stem_faults_and_replay_confirms() {
        let mut b = NetlistBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let mut p = prover(&n, &constraints);
        let cell = n.driver_of(y).unwrap();
        assert_eq!(
            p.prove(StuckAt::output(cell, false)),
            SatVerdict::TestExists
        );
        assert_eq!(p.prove(StuckAt::output(cell, true)), SatVerdict::TestExists);
    }

    #[test]
    fn proves_the_classic_static_redundancy() {
        // y = a OR (a AND b): the AND output stuck-at-0 is redundant, the
        // stuck-at-1 is testable (a=0, b arbitrary observes the difference).
        let mut b = NetlistBuilder::new("redundant");
        let a = b.input("a");
        let bb = b.input("b");
        let g = b.and2(a, bb);
        let y = b.or2(a, g);
        b.output("y", y);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let mut p = prover(&n, &constraints);
        let and_cell = n.driver_of(g).unwrap();
        assert_eq!(
            p.prove(StuckAt::output(and_cell, false)),
            SatVerdict::ProvenUntestable
        );
        assert_eq!(
            p.prove(StuckAt::output(and_cell, true)),
            SatVerdict::TestExists
        );
    }

    #[test]
    fn mission_forces_enter_as_assumptions() {
        // en tied to 0 keeps the AND output at 0: stuck-at-0 on the output is
        // untestable, stuck-at-1 is trivially detected (constant difference).
        let mut b = NetlistBuilder::new("tied");
        let a = b.input("a");
        let en = b.input("en");
        let y = b.and2(a, en);
        b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(en, false);
        let mut p = prover(&n, &constraints);
        let cell = n.driver_of(y).unwrap();
        assert_eq!(
            p.prove(StuckAt::output(cell, false)),
            SatVerdict::ProvenUntestable
        );
        assert_eq!(p.prove(StuckAt::output(cell, true)), SatVerdict::TestExists);
        // The branch fault on the `a` pin is blocked by the tie either way.
        let site = FaultSite::CellInput { cell, pin: 0 };
        assert_eq!(
            p.prove(StuckAt::new(site, true)),
            SatVerdict::ProvenUntestable
        );
        assert_eq!(
            p.prove(StuckAt::new(site, false)),
            SatVerdict::ProvenUntestable
        );
    }

    #[test]
    fn masked_outputs_drop_their_observation_terms() {
        let mut b = NetlistBuilder::new("masked");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let po = b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.mask_output(po);
        let mut p = prover(&n, &constraints);
        let cell = n.driver_of(y).unwrap();
        assert_eq!(
            p.prove(StuckAt::output(cell, false)),
            SatVerdict::ProvenUntestable
        );
    }

    #[test]
    fn flip_flop_boundary_faults_use_branch_observation() {
        // d feeds a flip-flop: the D-pin branch fault is observed at the
        // flip-flop input pin itself.
        let mut b = NetlistBuilder::new("ff");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.dff(d, ck);
        let y = b.not(q);
        b.output("y", y);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let mut p = prover(&n, &constraints);
        let ff = n.driver_of(q).unwrap();
        let site = FaultSite::CellInput { cell: ff, pin: 0 };
        assert_eq!(p.prove(StuckAt::new(site, false)), SatVerdict::TestExists);
        assert_eq!(p.prove(StuckAt::new(site, true)), SatVerdict::TestExists);
        // The flip-flop output stem is a controllable source: stuck values
        // propagate through the inverter to the primary output.
        assert_eq!(p.prove(StuckAt::output(ff, false)), SatVerdict::TestExists);
    }

    #[test]
    fn uncontrollable_flip_flop_outputs_are_declined() {
        let mut b = NetlistBuilder::new("seq");
        let d = b.input("d");
        let ck = b.input("ck");
        let q = b.dff(d, ck);
        let y = b.not(q);
        b.output("y", y);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.control_ff_outputs = false;
        let mut p = prover(&n, &constraints);
        let inv = n.driver_of(y).unwrap();
        // The inverter's fan-in is the flip-flop output, which the
        // environment says is not controllable: decline, don't guess.
        assert_eq!(
            p.prove(StuckAt::output(inv, false)),
            SatVerdict::Unsupported
        );
    }

    #[test]
    fn branch_fault_encodes_only_the_faulted_branch() {
        // Stem `a` feeds g1 = a AND x (driving o1) and g2 = a OR y, whose
        // g3 = g2 XOR z drives o2. A fault on g1's `a` pin reaches g1 only:
        // the g2/g3 branch keeps its good encoding and gets no XOR term.
        let mut b = NetlistBuilder::new("branch");
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let g1 = b.and2(a, x);
        let g2 = b.or2(a, y);
        let g3 = b.xor2(g2, z);
        b.output("o1", g1);
        b.output("o2", g3);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let mut p = prover(&n, &constraints);
        let cell = n.driver_of(g1).unwrap();
        let fault = StuckAt::new(FaultSite::CellInput { cell, pin: 0 }, false);
        let site_net = p.frame.site_net(fault).expect("attached pin");
        assert_eq!(site_net, a);
        let gates = p.cone_gates(site_net);
        let mut cnf = Cnf::new(&p.frame);
        let mut faulty = HashMap::new();
        let Ok(detection) = encode_fault(&mut cnf, &gates, fault, &mut faulty) else {
            panic!("the frame controls every input");
        };
        assert_eq!(faulty.keys().copied().collect::<Vec<_>>(), vec![g1]);
        assert_eq!(detection.terms.len(), 1);
        assert!(!detection.trivially_detected);
    }

    #[test]
    fn conflict_limit_exhaustion_reports_aborted() {
        // The redundancy proof needs at least one decision-level conflict, so
        // a zero conflict budget must abort — and a fresh prover with budget
        // finishes the same proof.
        let mut b = NetlistBuilder::new("limited");
        let a = b.input("a");
        let bb = b.input("b");
        let g = b.and2(a, bb);
        let y = b.or2(a, g);
        b.output("y", y);
        let n = b.finish();
        let constraints = ConstraintSet::full_scan();
        let and_cell = n.driver_of(g).unwrap();
        let fault = StuckAt::output(and_cell, false);
        let mut limited = SatProver::new(&n, &constraints, 0).expect("acyclic");
        assert_eq!(limited.prove(fault), SatVerdict::Aborted);
        let mut free = prover(&n, &constraints);
        assert_eq!(free.prove(fault), SatVerdict::ProvenUntestable);
    }

    #[test]
    fn agrees_with_podem_on_a_mux_design_with_constraints() {
        // The doc-example degenerate mux plus a live second channel, under a
        // mission tie: every fault of the universe must agree with PODEM.
        let mut b = NetlistBuilder::new("mux");
        let sel = b.input("sel");
        let d0 = b.input("d0");
        let d1 = b.input("d1");
        let m = b.mux2(d0, d1, sel);
        let inv = b.not(m);
        b.output("m", m);
        b.output("inv", inv);
        let n = b.finish();
        let mut constraints = ConstraintSet::full_scan();
        constraints.tie_net(sel, false);
        let mut sat_prover = prover(&n, &constraints);
        let mut podem = Podem::new(
            &n,
            &constraints,
            PodemConfig {
                backtrack_limit: 1_000_000,
                ..PodemConfig::default()
            },
        )
        .expect("acyclic");
        let faults = FaultList::full_universe(&n);
        for &fault in faults.faults() {
            let expected = podem.prove(fault);
            let got = sat_prover.prove(fault);
            let want = match expected {
                ProofOutcome::TestExists => SatVerdict::TestExists,
                ProofOutcome::ProvenUntestable => SatVerdict::ProvenUntestable,
                ProofOutcome::Aborted => unreachable!("unbounded PODEM aborted"),
            };
            assert_eq!(got, want, "disagreement on {fault:?}");
        }
    }
}
