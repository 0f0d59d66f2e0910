//! Property-based tests on the structural test engine: the constant
//! analysis is sound, the packed parallel-fault simulator agrees with the
//! scalar reference simulator, PODEM tests really detect their target fault,
//! collapsed-equivalent faults share their detection outcome, and the SAT
//! proof backend agrees with unlimited-budget PODEM (across flip-flop
//! boundaries too) and with exhaustive enumeration under random mission
//! constraints.

use atpg::proof::{prove_faults, ProofConfig};
use atpg::{
    analysis::StructuralAnalysis, constant::propagate_constants, CombSim, ConstraintSet, FaultSim,
    InputVector, Logic, Podem, PodemConfig, PodemOutcome, ProofOutcome, SatProver, SatVerdict,
    SeqSim,
};
use faultmodel::{collapse, FaultList, StuckAt};
use netlist::{NetId, Netlist, NetlistBuilder};
use proptest::prelude::*;
use std::collections::HashMap;

/// Proves `faults` under `config`, dropping the engine attribution.
fn verdicts(
    netlist: &Netlist,
    constraints: &ConstraintSet,
    faults: &[StuckAt],
    config: &ProofConfig,
) -> Vec<ProofOutcome> {
    prove_faults(netlist, constraints, faults, config)
        .unwrap()
        .outcomes
        .into_iter()
        .map(|r| r.outcome)
        .collect()
}

/// Builds a small combinational circuit whose shape is driven by `spec`:
/// each entry adds a gate over two pseudo-randomly chosen existing signals.
fn build_circuit(spec: &[u8]) -> (Netlist, Vec<NetId>, Vec<NetId>) {
    let mut b = NetlistBuilder::new("prop");
    let inputs: Vec<NetId> = (0..6).map(|i| b.input(format!("in{i}"))).collect();
    let mut signals = inputs.clone();
    for (i, &code) in spec.iter().enumerate() {
        let a = signals[(code as usize) % signals.len()];
        let c = signals[(code as usize / 7 + i) % signals.len()];
        let g = match code % 6 {
            0 => b.and2(a, c),
            1 => b.or2(a, c),
            2 => b.xor2(a, c),
            3 => b.nand2(a, c),
            4 => b.nor2(a, c),
            _ => b.mux2(a, c, signals[(code as usize / 11) % signals.len()]),
        };
        signals.push(g);
    }
    let outputs: Vec<NetId> = signals.iter().rev().take(3).copied().collect();
    for (i, &net) in outputs.iter().enumerate() {
        b.output(format!("out{i}"), net);
    }
    (b.finish(), inputs, outputs)
}

/// Builds a small *sequential* circuit: gates as in [`build_circuit`], but
/// every gate produced by a `code` divisible by 5 is registered through a D
/// flip-flop (clocked by a dedicated input) whose output rejoins the signal
/// pool, so fault effects must survive state capture to be observed.
fn build_seq_circuit(spec: &[u8]) -> (Netlist, Vec<NetId>, NetId) {
    let mut b = NetlistBuilder::new("seqprop");
    let ck = b.input("ck");
    let inputs: Vec<NetId> = (0..5).map(|i| b.input(format!("in{i}"))).collect();
    let mut signals = inputs.clone();
    for (i, &code) in spec.iter().enumerate() {
        let a = signals[(code as usize) % signals.len()];
        let c = signals[(code as usize / 7 + i) % signals.len()];
        let g = match code % 6 {
            0 => b.and2(a, c),
            1 => b.or2(a, c),
            2 => b.xor2(a, c),
            3 => b.nand2(a, c),
            4 => b.nor2(a, c),
            _ => b.mux2(a, c, signals[(code as usize / 11) % signals.len()]),
        };
        let g = if code % 5 == 0 { b.dff(g, ck) } else { g };
        signals.push(g);
    }
    let outputs: Vec<NetId> = signals.iter().rev().take(3).copied().collect();
    for (i, &net) in outputs.iter().enumerate() {
        b.output(format!("out{i}"), net);
    }
    (b.finish(), inputs, ck)
}

/// Scalar three-valued reference: a fault counts as detected when the good
/// and faulty [`SeqSim`] runs disagree with definite values at any primary
/// output in any cycle.
fn scalar_seq_detects(
    sim: &SeqSim<'_>,
    good: &[Vec<Logic>],
    vectors: &[HashMap<NetId, Logic>],
    fault: StuckAt,
) -> bool {
    let faulty = sim.run(vectors, Some(fault));
    good.iter().zip(&faulty).any(|(g_cycle, f_cycle)| {
        g_cycle
            .iter()
            .zip(f_cycle)
            .any(|(g, f)| g.is_definite() && f.is_definite() && g != f)
    })
}

fn eval_all(netlist: &Netlist, assignment: &HashMap<NetId, Logic>) -> Vec<Logic> {
    let sim = CombSim::new(netlist).unwrap();
    let mut values = sim.blank_values();
    for (&net, &v) in assignment {
        values[net.index()] = v;
    }
    sim.propagate(&mut values, None);
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any net the constant analysis reports as constant must hold exactly
    /// that value under every input assignment compatible with the ties.
    #[test]
    fn constant_propagation_is_sound(
        spec in prop::collection::vec(any::<u8>(), 4..24),
        tie_mask in 0u8..64,
        tie_values in 0u8..64,
        samples in prop::collection::vec(0u8..64, 8),
    ) {
        let (netlist, inputs, _) = build_circuit(&spec);
        let mut constraints = ConstraintSet::full_scan();
        for (i, &net) in inputs.iter().enumerate() {
            if (tie_mask >> i) & 1 == 1 {
                constraints.tie_net(net, (tie_values >> i) & 1 == 1);
            }
        }
        let constants = propagate_constants(&netlist, &constraints).unwrap();
        for &sample in &samples {
            let mut assignment = HashMap::new();
            for (i, &net) in inputs.iter().enumerate() {
                let value = if (tie_mask >> i) & 1 == 1 {
                    (tie_values >> i) & 1 == 1
                } else {
                    (sample >> i) & 1 == 1
                };
                assignment.insert(net, Logic::from_bool(value));
            }
            let values = eval_all(&netlist, &assignment);
            for net in netlist.net_ids() {
                if let Some(expected) = constants.value(net).to_bool() {
                    prop_assert_eq!(
                        values[net.index()],
                        Logic::from_bool(expected),
                        "net {} claimed constant {} but evaluates differently",
                        netlist.net(net).name(),
                        expected
                    );
                }
            }
        }
    }

    /// The packed parallel-fault simulator and a scalar good/faulty
    /// comparison agree on combinational circuits.
    #[test]
    fn parallel_fault_sim_matches_scalar_reference(
        spec in prop::collection::vec(any::<u8>(), 4..20),
        patterns in prop::collection::vec(0u8..64, 1..6),
    ) {
        let (netlist, inputs, outputs) = build_circuit(&spec);
        let faults: Vec<StuckAt> = FaultList::full_universe(&netlist)
            .faults()
            .iter()
            .copied()
            .take(100)
            .collect();
        let vectors: Vec<InputVector> = patterns
            .iter()
            .map(|&p| {
                inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (p >> i) & 1 == 1))
                    .collect()
            })
            .collect();
        let sim = FaultSim::new(&netlist).unwrap();
        let packed = sim.detect(&faults, &vectors);

        // Scalar reference: good vs faulty propagation per pattern.
        for (fi, &fault) in faults.iter().enumerate() {
            let mut expected = false;
            for &p in &patterns {
                let assignment: HashMap<NetId, Logic> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, Logic::from_bool((p >> i) & 1 == 1)))
                    .collect();
                let comb = CombSim::new(&netlist).unwrap();
                let mut good = comb.blank_values();
                let mut bad = comb.blank_values();
                for (&net, &v) in &assignment {
                    good[net.index()] = v;
                    bad[net.index()] = v;
                }
                comb.propagate(&mut good, None);
                comb.propagate(&mut bad, Some(fault));
                for po in netlist.primary_outputs() {
                    let g = comb.observed_value(&good, po, None);
                    let f = comb.observed_value(&bad, po, Some(fault));
                    if g.is_definite() && f.is_definite() && g != f {
                        expected = true;
                    }
                }
            }
            prop_assert_eq!(packed[fi], expected, "fault {:?}", fault);
        }
        let _ = outputs;
    }

    /// The compiled packed fault simulator agrees fault-by-fault with the
    /// scalar three-valued sequential reference on random netlists and
    /// multi-cycle vector sequences (restricted to fully-specified inputs,
    /// where three-valued and two-valued semantics coincide).
    #[test]
    fn compiled_packed_sim_matches_scalar_sequential_reference(
        spec in prop::collection::vec(any::<u8>(), 4..20),
        patterns in prop::collection::vec(0u8..32, 2..6),
    ) {
        let (netlist, inputs, ck) = build_seq_circuit(&spec);
        let faults: Vec<StuckAt> = FaultList::full_universe(&netlist)
            .faults()
            .iter()
            .copied()
            .take(90)
            .collect();
        let vectors: Vec<InputVector> = patterns
            .iter()
            .map(|&p| {
                let mut v: InputVector = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (p >> i) & 1 == 1))
                    .collect();
                v.insert(ck, true);
                v
            })
            .collect();
        let logic_vectors: Vec<HashMap<NetId, Logic>> = vectors
            .iter()
            .map(|v| v.iter().map(|(&n, &b)| (n, Logic::from_bool(b))).collect())
            .collect();
        let packed_sim = FaultSim::new(&netlist).unwrap();
        let packed = packed_sim.detect(&faults, &vectors);
        let scalar_sim = SeqSim::new(&netlist).unwrap();
        let good = scalar_sim.run(&logic_vectors, None);
        for (fi, &fault) in faults.iter().enumerate() {
            let expected = scalar_seq_detects(&scalar_sim, &good, &logic_vectors, fault);
            prop_assert_eq!(packed[fi], expected, "fault {:?}", fault);
        }
    }

    /// Every test pattern PODEM produces is confirmed by the fault simulator.
    #[test]
    fn podem_tests_are_confirmed_by_fault_simulation(
        spec in prop::collection::vec(any::<u8>(), 4..20),
    ) {
        let (netlist, _, _) = build_circuit(&spec);
        let mut podem =
            Podem::new(&netlist, &ConstraintSet::full_scan(), PodemConfig::default()).unwrap();
        let sim = FaultSim::new(&netlist).unwrap();
        let faults: Vec<StuckAt> = FaultList::full_universe(&netlist)
            .faults()
            .iter()
            .copied()
            .take(60)
            .collect();
        for fault in faults {
            if let PodemOutcome::Test(pattern) = podem.generate(fault) {
                let vector: InputVector = pattern.assignments.clone();
                prop_assert_eq!(
                    sim.detect(&[fault], &[vector]),
                    vec![true],
                    "PODEM pattern does not detect {:?}",
                    fault
                );
            }
        }
    }

    /// Faults that collapse into the same equivalence class always share
    /// their detection outcome under any pattern set.
    #[test]
    fn collapsed_equivalent_faults_share_detection(
        spec in prop::collection::vec(any::<u8>(), 4..16),
        patterns in prop::collection::vec(0u8..64, 4..8),
    ) {
        let (netlist, inputs, _) = build_circuit(&spec);
        let list = FaultList::full_universe(&netlist);
        let collapsed = collapse(&netlist, &list);
        let vectors: Vec<InputVector> = patterns
            .iter()
            .map(|&p| {
                inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (p >> i) & 1 == 1))
                    .collect()
            })
            .collect();
        let sim = FaultSim::new(&netlist).unwrap();
        let detected = sim.detect(list.faults(), &vectors);
        let mut per_class: HashMap<usize, bool> = HashMap::new();
        for (i, &hit) in detected.iter().enumerate() {
            let rep = collapsed.representative_of(i);
            if let Some(&prev) = per_class.get(&rep) {
                prop_assert_eq!(
                    prev,
                    hit,
                    "faults {:?} and class representative disagree",
                    list.faults()[i]
                );
            } else {
                per_class.insert(rep, hit);
            }
        }
    }

    /// Faults the constraint-aware PODEM proof engine declares
    /// `ProvenUntestable` are never detected by exhaustive enumeration of the
    /// free inputs, under random tie constraints and random output masks.
    #[test]
    fn podem_proofs_are_sound_under_random_constraints(
        spec in prop::collection::vec(any::<u8>(), 4..16),
        tie_mask in 0u8..64,
        tie_values in 0u8..64,
        output_mask in 0u8..8,
    ) {
        let (netlist, inputs, _) = build_circuit(&spec);
        let mut constraints = ConstraintSet::full_scan();
        let mut free_inputs = Vec::new();
        for (i, &net) in inputs.iter().enumerate() {
            if (tie_mask >> i) & 1 == 1 {
                constraints.tie_net(net, (tie_values >> i) & 1 == 1);
            } else {
                free_inputs.push(net);
            }
        }
        let outputs = netlist.primary_outputs();
        let mut observed = Vec::new();
        for (i, &po) in outputs.iter().enumerate() {
            if (output_mask >> i) & 1 == 1 {
                constraints.mask_output(po);
            } else {
                observed.push(po);
            }
        }
        let faults: Vec<StuckAt> = FaultList::full_universe(&netlist)
            .faults()
            .iter()
            .copied()
            .take(80)
            .collect();
        let outcomes = verdicts(
            &netlist,
            &constraints,
            &faults,
            &ProofConfig { backtrack_limit: 10_000, threads: 1, ..ProofConfig::default() },
        );
        let proven: Vec<StuckAt> = faults
            .iter()
            .zip(&outcomes)
            .filter(|&(_, &o)| o == ProofOutcome::ProvenUntestable)
            .map(|(&f, _)| f)
            .collect();
        if proven.is_empty() {
            return Ok(());
        }
        // Exhaustive patterns over the free inputs (at most 2^6 = 64), with
        // the tied inputs held at their mission constants, observing only the
        // unmasked outputs.
        let vectors: Vec<InputVector> = (0..(1u32 << free_inputs.len()))
            .map(|p| {
                let mut v: InputVector = free_inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (p >> i) & 1 == 1))
                    .collect();
                for (i, &net) in inputs.iter().enumerate() {
                    if (tie_mask >> i) & 1 == 1 {
                        v.insert(net, (tie_values >> i) & 1 == 1);
                    }
                }
                v
            })
            .collect();
        let sim = FaultSim::new(&netlist).unwrap();
        let detected = sim.detect_at(&proven, &vectors, &observed);
        for (fault, hit) in proven.iter().zip(detected) {
            prop_assert!(
                !hit,
                "fault {:?} was proven untestable but detected functionally",
                fault
            );
        }
    }

    /// Three-way differential: unlimited-budget PODEM, the SAT proof
    /// backend, and exhaustive enumeration of the free input space agree on
    /// which faults are functionally testable under random mission
    /// constraints. These circuits are purely combinational with every input
    /// either free or tied definite, so neither engine is ever allowed to
    /// abort or decline.
    #[test]
    fn podem_sat_and_exhaustive_enumeration_agree(
        spec in prop::collection::vec(any::<u8>(), 4..16),
        tie_mask in 0u8..64,
        tie_values in 0u8..64,
        output_mask in 0u8..8,
    ) {
        let (netlist, inputs, _) = build_circuit(&spec);
        let mut constraints = ConstraintSet::full_scan();
        let mut free_inputs = Vec::new();
        for (i, &net) in inputs.iter().enumerate() {
            if (tie_mask >> i) & 1 == 1 {
                constraints.tie_net(net, (tie_values >> i) & 1 == 1);
            } else {
                free_inputs.push(net);
            }
        }
        let outputs = netlist.primary_outputs();
        let mut observed = Vec::new();
        for (i, &po) in outputs.iter().enumerate() {
            if (output_mask >> i) & 1 == 1 {
                constraints.mask_output(po);
            } else {
                observed.push(po);
            }
        }
        let faults: Vec<StuckAt> = FaultList::full_universe(&netlist)
            .faults()
            .iter()
            .copied()
            .take(60)
            .collect();
        // Ground truth: exhaustive patterns over the free inputs (at most
        // 2^6 = 64), tied inputs held at their mission constants, observing
        // only the unmasked outputs.
        let vectors: Vec<InputVector> = (0..(1u32 << free_inputs.len()))
            .map(|p| {
                let mut v: InputVector = free_inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (p >> i) & 1 == 1))
                    .collect();
                for (i, &net) in inputs.iter().enumerate() {
                    if (tie_mask >> i) & 1 == 1 {
                        v.insert(net, (tie_values >> i) & 1 == 1);
                    }
                }
                v
            })
            .collect();
        let sim = FaultSim::new(&netlist).unwrap();
        let detected = sim.detect_at(&faults, &vectors, &observed);
        let mut podem = Podem::new(
            &netlist,
            &constraints,
            PodemConfig { backtrack_limit: 1_000_000, ..PodemConfig::default() },
        )
        .unwrap();
        let mut sat = SatProver::new(&netlist, &constraints, u64::MAX).unwrap();
        for (&fault, hit) in faults.iter().zip(detected) {
            let podem_verdict = podem.prove(fault);
            let sat_verdict = sat.prove(fault);
            let want_podem =
                if hit { ProofOutcome::TestExists } else { ProofOutcome::ProvenUntestable };
            let want_sat =
                if hit { SatVerdict::TestExists } else { SatVerdict::ProvenUntestable };
            prop_assert_eq!(
                podem_verdict,
                want_podem,
                "PODEM disagrees with exhaustive enumeration on {:?}",
                fault
            );
            prop_assert_eq!(
                sat_verdict,
                want_sat,
                "SAT backend disagrees with exhaustive enumeration on {:?}",
                fault
            );
        }
    }

    /// PODEM and the SAT backend search one full-scan frame, flip-flop
    /// boundaries included: on random sequential circuits under random ties,
    /// output masks and scan assumptions (flip-flop input pins observed or
    /// not, flip-flop outputs controllable or not), every verdict the SAT
    /// backend concludes equals unlimited-budget PODEM's. SAT declines a
    /// fault whose fan-in reaches an uncontrolled flip-flop output; those
    /// faults are skipped.
    #[test]
    fn podem_and_sat_agree_across_flip_flop_boundaries(
        spec in prop::collection::vec(any::<u8>(), 4..16),
        tie_mask in 0u8..32,
        tie_values in 0u8..32,
        output_mask in 0u8..8,
        observe_ff_inputs in any::<bool>(),
        control_ff_outputs in any::<bool>(),
    ) {
        let (netlist, inputs, _) = build_seq_circuit(&spec);
        let mut constraints = ConstraintSet::full_scan();
        constraints.observe_ff_inputs = observe_ff_inputs;
        constraints.control_ff_outputs = control_ff_outputs;
        for (i, &net) in inputs.iter().enumerate() {
            if (tie_mask >> i) & 1 == 1 {
                constraints.tie_net(net, (tie_values >> i) & 1 == 1);
            }
        }
        for (i, &po) in netlist.primary_outputs().iter().enumerate() {
            if (output_mask >> i) & 1 == 1 {
                constraints.mask_output(po);
            }
        }
        let mut podem = Podem::new(
            &netlist,
            &constraints,
            PodemConfig { backtrack_limit: 1_000_000, ..PodemConfig::default() },
        )
        .unwrap();
        let mut sat = SatProver::new(&netlist, &constraints, u64::MAX).unwrap();
        for &fault in FaultList::full_universe(&netlist).faults() {
            let sat_verdict = match sat.prove(fault) {
                SatVerdict::Unsupported => continue,
                SatVerdict::TestExists => ProofOutcome::TestExists,
                SatVerdict::ProvenUntestable => ProofOutcome::ProvenUntestable,
                SatVerdict::Aborted => ProofOutcome::Aborted,
            };
            prop_assert!(
                sat_verdict != ProofOutcome::Aborted,
                "unbounded SAT aborted on {:?}",
                fault
            );
            prop_assert_eq!(
                podem.prove(fault),
                sat_verdict,
                "PODEM and SAT disagree on {:?}",
                fault
            );
        }
    }

    /// The cone-clipped, SCOAP-guided PODEM engine returns exactly the same
    /// `ProofOutcome` as the full-netlist engine on random constrained
    /// netlists: clipping changes no decision, and with a budget generous
    /// enough that every search concludes, SCOAP's re-ordering cannot change
    /// a verdict either.
    #[test]
    fn clipped_scoap_guided_prove_matches_the_full_netlist_engine(
        spec in prop::collection::vec(any::<u8>(), 4..20),
        tie_mask in 0u8..64,
        tie_values in 0u8..64,
        output_mask in 0u8..8,
    ) {
        let (netlist, inputs, _) = build_circuit(&spec);
        let mut constraints = ConstraintSet::full_scan();
        for (i, &net) in inputs.iter().enumerate() {
            if (tie_mask >> i) & 1 == 1 {
                constraints.tie_net(net, (tie_values >> i) & 1 == 1);
            }
        }
        for (i, &po) in netlist.primary_outputs().iter().enumerate() {
            if (output_mask >> i) & 1 == 1 {
                constraints.mask_output(po);
            }
        }
        let mut accelerated = Podem::new(
            &netlist,
            &constraints,
            PodemConfig {
                backtrack_limit: 50_000,
                cone_clip: true,
                scoap_guidance: true,
                x_path_check: true,
            },
        )
        .unwrap();
        // The reference is the pre-acceleration engine: no clipping, no
        // guidance, no X-path pruning.
        let mut reference = Podem::new(
            &netlist,
            &constraints,
            PodemConfig {
                backtrack_limit: 50_000,
                cone_clip: false,
                scoap_guidance: false,
                x_path_check: false,
            },
        )
        .unwrap();
        for &fault in FaultList::full_universe(&netlist).faults().iter().take(90) {
            prop_assert_eq!(
                accelerated.prove(fault),
                reference.prove(fault),
                "fault {:?}",
                fault
            );
        }
    }

    /// The cone-clipped engine, whose good machine is updated by events and
    /// undone by its trail, takes exactly the decisions of the unclipped
    /// engine, which re-simulates from scratch every step: the same outcome
    /// (patterns included) and the same backtrack count, fault by fault, at
    /// every budget, combinational and sequential, with flip-flops observed
    /// and controlled or not. SCOAP guidance and the X-path check are drawn
    /// at random but equal on both sides, so the clip is the only
    /// difference. Each engine serves the whole universe, so the
    /// trail's return to the baseline between faults is exercised too.
    /// Designs run up to 199 gates, so the event queue's bitset spans up
    /// to four 64-gate words.
    #[test]
    fn clipped_search_matches_the_unclipped_engine_decision_for_decision(
        spec in prop::collection::vec(any::<u8>(), 4..200),
        sequential in any::<bool>(),
        tie_mask in 0u8..64,
        tie_values in 0u8..64,
        output_mask in 0u8..8,
        scoap_guidance in any::<bool>(),
        x_path_check in any::<bool>(),
        observe_ff_inputs in any::<bool>(),
        control_ff_outputs in any::<bool>(),
    ) {
        let (netlist, inputs) = if sequential {
            let (netlist, inputs, _) = build_seq_circuit(&spec);
            (netlist, inputs)
        } else {
            let (netlist, inputs, _) = build_circuit(&spec);
            (netlist, inputs)
        };
        let mut constraints = ConstraintSet::full_scan();
        constraints.observe_ff_inputs = observe_ff_inputs;
        constraints.control_ff_outputs = control_ff_outputs;
        for (i, &net) in inputs.iter().enumerate() {
            if (tie_mask >> i) & 1 == 1 {
                constraints.tie_net(net, (tie_values >> i) & 1 == 1);
            }
        }
        for (i, &po) in netlist.primary_outputs().iter().enumerate() {
            if (output_mask >> i) & 1 == 1 {
                constraints.mask_output(po);
            }
        }
        let faults = FaultList::full_universe(&netlist).faults().to_vec();
        for backtrack_limit in [0, 1, 4, 50_000] {
            let config = PodemConfig {
                backtrack_limit,
                cone_clip: false,
                scoap_guidance,
                x_path_check,
            };
            let mut unclipped = Podem::new(&netlist, &constraints, config).unwrap();
            let mut clipped = Podem::new(
                &netlist,
                &constraints,
                PodemConfig { cone_clip: true, ..config },
            )
            .unwrap();
            for &fault in &faults {
                let expected = unclipped.generate(fault);
                prop_assert_eq!(
                    clipped.generate(fault),
                    expected,
                    "fault {:?} at budget {}",
                    fault,
                    backtrack_limit
                );
                prop_assert_eq!(
                    clipped.last_backtracks(),
                    unclipped.last_backtracks(),
                    "fault {:?} took another search path at budget {}",
                    fault,
                    backtrack_limit
                );
            }
        }
    }

    /// Collapse-scheduled proving (one representative per equivalence class,
    /// concluded verdicts expanded across the class) matches proving every
    /// class member individually — the soundness of the expansion rule.
    #[test]
    fn collapse_expanded_verdicts_match_individual_proofs(
        spec in prop::collection::vec(any::<u8>(), 4..20),
        tie_mask in 0u8..64,
        tie_values in 0u8..64,
        internal_pick in 0u8..8,
        internal_value in any::<bool>(),
        threads in 1usize..4,
    ) {
        let (netlist, inputs, internal) = build_circuit(&spec);
        let mut constraints = ConstraintSet::full_scan();
        for (i, &net) in inputs.iter().enumerate() {
            if (tie_mask >> i) & 1 == 1 {
                constraints.tie_net(net, (tie_values >> i) & 1 == 1);
            }
        }
        // Half the cases also tie a gate-driven internal net: a forced net
        // masks stem faults but not branch faults, the case the scheduler
        // must keep out of the shared equivalence classes.
        if internal_pick < 4 {
            constraints.tie_net(internal[internal_pick as usize % internal.len()], internal_value);
        }
        let faults = FaultList::full_universe(&netlist).faults().to_vec();
        let scheduled = verdicts(
            &netlist,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 50_000,
                threads,
                use_collapse: true,
                ..ProofConfig::default()
            },
        );
        let individual = verdicts(
            &netlist,
            &constraints,
            &faults,
            &ProofConfig {
                backtrack_limit: 50_000,
                threads: 1,
                use_collapse: false,
                ..ProofConfig::default()
            },
        );
        prop_assert_eq!(scheduled, individual);
    }

    /// Faults the structural analysis declares untestable are never detected
    /// by exhaustive simulation of the constrained circuit.
    #[test]
    fn structural_untestability_is_sound(
        spec in prop::collection::vec(any::<u8>(), 4..16),
        tie_mask in 0u8..64,
    ) {
        let (netlist, inputs, _) = build_circuit(&spec);
        let mut constraints = ConstraintSet::full_scan();
        let mut free_inputs = Vec::new();
        for (i, &net) in inputs.iter().enumerate() {
            if (tie_mask >> i) & 1 == 1 {
                constraints.tie_net(net, i % 2 == 0);
            } else {
                free_inputs.push(net);
            }
        }
        let mut faults = FaultList::full_universe(&netlist);
        StructuralAnalysis::with_constraints(constraints.clone())
            .run(&netlist, &mut faults)
            .unwrap();
        // Exhaustive patterns over the free inputs (at most 2^6 = 64).
        let vectors: Vec<InputVector> = (0..(1u32 << free_inputs.len()))
            .map(|p| {
                let mut v: InputVector = free_inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &net)| (net, (p >> i) & 1 == 1))
                    .collect();
                for (i, &net) in inputs.iter().enumerate() {
                    if (tie_mask >> i) & 1 == 1 {
                        v.insert(net, i % 2 == 0);
                    }
                }
                v
            })
            .collect();
        let sim = FaultSim::new(&netlist).unwrap();
        let untestable: Vec<StuckAt> = faults
            .iter()
            .filter(|&(_, c)| c.is_structurally_untestable())
            .map(|(f, _)| f)
            .collect();
        if untestable.is_empty() {
            return Ok(());
        }
        let detected = sim.detect(&untestable, &vectors);
        for (fault, hit) in untestable.iter().zip(detected) {
            prop_assert!(
                !hit,
                "fault {:?} was classified {:?} but detected functionally",
                fault,
                faults.class_of(*fault)
            );
        }
    }
}

#[test]
fn chunk_boundaries_do_not_change_detection() {
    // Fixed regression for the 63-fault packing boundary: grading 64, 126 or
    // 127 faults (1 bit into chunk 2, chunk 2 full, 1 bit into chunk 3) must
    // agree bit-for-bit with grading each fault alone.
    let mut b = NetlistBuilder::new("wide");
    let a = b.input_bus("a", 16);
    let c = b.input_bus("b", 16);
    let x = b.xor_word(&a, &c);
    b.output_bus("y", &x);
    let n = b.finish();
    let sim = FaultSim::new(&n).unwrap();
    let faults = FaultList::full_universe(&n).faults().to_vec();
    assert!(faults.len() >= 127, "need at least 127 faults");
    let vectors: Vec<InputVector> = (0..16u64)
        .map(|p| {
            let mut v = InputVector::new();
            for (i, &net) in a.iter().enumerate() {
                v.insert(net, (p >> i) & 1 == 1);
            }
            for (i, &net) in c.iter().enumerate() {
                v.insert(net, (p.wrapping_mul(7) >> i) & 1 == 1);
            }
            v
        })
        .collect();
    let reference: Vec<bool> = faults[..127]
        .iter()
        .map(|&f| sim.detect(&[f], &vectors)[0])
        .collect();
    for count in [64usize, 126, 127] {
        let got = sim.detect(&faults[..count], &vectors);
        assert_eq!(got, reference[..count], "fault count {count}");
    }
}

#[test]
fn proof_fanout_chunk_boundaries_match_per_fault_proofs() {
    // Regression for the proof engine's work-claiming chunks (16 faults per
    // cursor bump): populations of 15 / 16 / 17 / 64 / 127 faults (straddling
    // chunk boundaries, with a ragged tail) must come back identical to a
    // fresh single-engine proof of each fault alone, for any thread count.
    let mut b = NetlistBuilder::new("wide");
    let a = b.input_bus("a", 16);
    let c = b.input_bus("b", 16);
    let x = b.xor_word(&a, &c);
    b.output_bus("y", &x);
    let n = b.finish();
    let mut constraints = ConstraintSet::full_scan();
    // Mask one output so part of the population becomes provably untestable.
    let masked = n
        .primary_outputs()
        .into_iter()
        .find(|&po| n.cell(po).name().contains("y_0"))
        .unwrap_or_else(|| n.primary_outputs()[0]);
    constraints.mask_output(masked);
    let faults = FaultList::full_universe(&n).faults().to_vec();
    assert!(faults.len() >= 127, "need at least 127 faults");
    let config = PodemConfig {
        backtrack_limit: 10_000,
        ..PodemConfig::default()
    };
    let reference: Vec<ProofOutcome> = faults[..127]
        .iter()
        .map(|&f| Podem::new(&n, &constraints, config).unwrap().prove(f))
        .collect();
    assert!(
        reference.contains(&ProofOutcome::ProvenUntestable)
            && reference.contains(&ProofOutcome::TestExists),
        "the population should mix provable and testable faults"
    );
    for count in [15usize, 16, 17, 64, 127] {
        for threads in [1usize, 2, 5] {
            let got = verdicts(
                &n,
                &constraints,
                &faults[..count],
                &ProofConfig {
                    backtrack_limit: 10_000,
                    threads,
                    use_sat: false,
                    ..ProofConfig::default()
                },
            );
            assert_eq!(
                got,
                reference[..count],
                "fault count {count}, {threads} threads"
            );
        }
    }
}
