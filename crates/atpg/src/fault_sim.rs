//! Parallel-fault stuck-at fault simulation on the compiled engine.
//!
//! The simulator packs up to 63 faulty machines plus the good machine into
//! the bits of a `u64` per net and simulates them in lockstep over a sequence
//! of input vectors (one vector per clock cycle). A fault is *detected* when
//! the value observed at any primary output differs from the good machine in
//! the corresponding bit position.
//!
//! Two-valued logic is used: all flip-flops start at 0 (a deterministic reset
//! state) and every input vector must assign a definite value to every
//! primary input it mentions (unmentioned inputs default to 0). This is the
//! standard setting for evaluating SBST program coverage, where the processor
//! is reset before the test program runs.
//!
//! The heavy lifting happens in [`CompiledProgram`]: the netlist is lowered
//! once into a flat struct-of-arrays program, input vectors are bit-packed
//! once per campaign, fault injection is a dense per-chunk override table,
//! and every per-cycle buffer is reused — the hot path performs no hash-map
//! lookup and no allocation. Chunks of still-undetected faults go through the
//! one work-claiming fan-out the proof campaign ([`crate::proof`]) also uses,
//! each worker with its own scratch and injection table.

use crate::compiled::{CompiledProgram, PackedInjection, PackedScratch, PackedVectors};
use crate::fanout::{fan_out, workers_for};
use faultmodel::{FaultClass, FaultList, StuckAt};
use netlist::{graph, CellId, Netlist};
use std::collections::HashMap;

/// One input vector: values applied to primary-input nets for one cycle.
pub type InputVector = HashMap<netlist::NetId, bool>;

/// Result of a fault-simulation campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSimOutcome {
    /// Number of faults newly marked detected.
    pub detected: usize,
    /// Number of faults simulated.
    pub simulated: usize,
}

/// Parallel-fault simulator over a fixed netlist.
#[derive(Debug)]
pub struct FaultSim<'a> {
    netlist: &'a Netlist,
    program: CompiledProgram,
    outputs: Vec<CellId>,
}

impl<'a> FaultSim<'a> {
    /// Builds the simulator (compiles the netlist into the flat program).
    ///
    /// # Errors
    ///
    /// Returns an error if the combinational logic contains a cycle.
    pub fn new(netlist: &'a Netlist) -> Result<Self, graph::CombinationalLoop> {
        Ok(FaultSim {
            netlist,
            program: CompiledProgram::compile(netlist)?,
            outputs: netlist.primary_outputs(),
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Simulates `vectors` (one per cycle, starting from the all-zero reset
    /// state) against every fault in `faults` and returns, for each fault,
    /// whether it was detected at any primary output.
    pub fn detect(&self, faults: &[StuckAt], vectors: &[InputVector]) -> Vec<bool> {
        self.detect_at(faults, vectors, &self.outputs)
    }

    /// Like [`detect`](Self::detect), but only the given `Output` pseudo-cells
    /// count as observation points — the way an on-line functional test only
    /// observes the system bus, not the scan-out or debug-observation ports.
    pub fn detect_at(
        &self,
        faults: &[StuckAt],
        vectors: &[InputVector],
        observed_outputs: &[CellId],
    ) -> Vec<bool> {
        self.detect_batches(faults, &[vectors], observed_outputs)
    }

    /// Grades `faults` against several vector batches (e.g. one SBST program
    /// per batch, each restarting from the reset state). Faults detected by
    /// an earlier batch are dropped from the later batches' simulations, so a
    /// mature suite grades far fewer fault-machines than `batches × faults`.
    pub fn detect_batches(
        &self,
        faults: &[StuckAt],
        batches: &[&[InputVector]],
        observed_outputs: &[CellId],
    ) -> Vec<bool> {
        let mut detected = vec![false; faults.len()];
        for &batch in batches {
            let remaining: Vec<u32> = (0..faults.len() as u32)
                .filter(|&i| !detected[i as usize])
                .collect();
            if remaining.is_empty() {
                break;
            }
            let packed = self.program.pack_vectors(batch);
            let masks = self.simulate_chunks(&remaining, faults, &packed, observed_outputs);
            for (chunk, mask) in remaining.chunks(63).zip(masks) {
                for (bit, &fault_index) in chunk.iter().enumerate() {
                    if mask & (1u64 << (bit + 1)) != 0 {
                        detected[fault_index as usize] = true;
                    }
                }
            }
        }
        detected
    }

    /// Grades every still-undetected fault in the list against every batch
    /// in turn (dropping freshly detected faults between batches) while
    /// observing only the given outputs, and marks the detected ones as
    /// [`FaultClass::Detected`].
    pub fn run_batches_and_classify(
        &self,
        faults: &mut FaultList,
        batches: &[&[InputVector]],
        observed_outputs: &[CellId],
    ) -> FaultSimOutcome {
        let (indices, targets): (Vec<usize>, Vec<StuckAt>) = faults.undetected().unzip();
        let detected = self.detect_batches(&targets, batches, observed_outputs);
        let mut outcome = FaultSimOutcome {
            simulated: targets.len(),
            detected: 0,
        };
        for (index, hit) in indices.into_iter().zip(detected) {
            if hit {
                faults.classify_at(index, FaultClass::Detected);
                outcome.detected += 1;
            }
        }
        outcome
    }

    /// Simulates the good machine only and returns the per-cycle values of
    /// the primary outputs (useful for building expected responses).
    pub fn good_responses(&self, vectors: &[InputVector]) -> Vec<Vec<bool>> {
        let packed = self.program.pack_vectors(vectors);
        let injection = self.program.packed_injection();
        let mut scratch = self.program.packed_scratch();
        let mut responses = Vec::with_capacity(vectors.len());
        for cycle in 0..packed.cycles() {
            self.program
                .run_cycle(&packed, cycle, &injection, &mut scratch);
            responses.push(
                self.outputs
                    .iter()
                    .map(|&po| self.program.observe_output(&scratch, &injection, po) & 1 == 1)
                    .collect(),
            );
        }
        responses
    }

    /// Simulates every 63-fault chunk of `remaining` (indices into `faults`)
    /// and returns one detection mask per chunk, fanning the chunks out
    /// across scoped worker threads when the machine and the workload allow.
    fn simulate_chunks(
        &self,
        remaining: &[u32],
        faults: &[StuckAt],
        packed: &PackedVectors,
        observed_outputs: &[CellId],
    ) -> Vec<u64> {
        let chunks: Vec<&[u32]> = remaining.chunks(63).collect();
        // Spawning workers costs thread setup plus one scratch + injection
        // table each; only fan out when the campaign amortises that.
        const MIN_PARALLEL_GATE_EVALS: usize = 4_000_000;
        let work = chunks.len() * packed.cycles() * self.program.num_gates().max(1);
        let workers = if work < MIN_PARALLEL_GATE_EVALS {
            1
        } else {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            workers_for(chunks.len(), 1, cores)
        };
        let mut slots: Vec<_> = (0..workers)
            .map(|_| {
                (
                    self.program.packed_scratch(),
                    self.program.packed_injection(),
                )
            })
            .collect();
        fan_out(&chunks, 1, &mut slots, |(scratch, injection), chunk| {
            self.simulate_chunk(chunk, faults, packed, observed_outputs, scratch, injection)
        })
    }

    fn simulate_chunk(
        &self,
        chunk: &[u32],
        faults: &[StuckAt],
        packed: &PackedVectors,
        observed_outputs: &[CellId],
        scratch: &mut PackedScratch,
        injection: &mut PackedInjection,
    ) -> u64 {
        injection.load(
            &self.program,
            self.netlist,
            chunk.iter().map(|&i| faults[i as usize]),
        );
        scratch.reset();
        let mut detected = 0u64;
        for cycle in 0..packed.cycles() {
            self.program.run_cycle(packed, cycle, injection, scratch);
            for &po in observed_outputs {
                let observed = self.program.observe_output(scratch, injection, po);
                let good = if observed & 1 == 1 { !0u64 } else { 0u64 };
                detected |= (observed ^ good) & injection.fault_bits();
            }
            if detected == injection.fault_bits() && !chunk.is_empty() {
                break;
            }
        }
        detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellKind, NetId, NetlistBuilder};

    fn vector(pairs: &[(NetId, bool)]) -> InputVector {
        pairs.iter().copied().collect()
    }

    #[test]
    fn detects_combinational_faults_with_exhaustive_patterns() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.xor2(y, a);
        b.output("z", z);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let vectors: Vec<InputVector> = (0..4)
            .map(|p| vector(&[(a, p & 1 == 1), (c, p & 2 == 2)]))
            .collect();
        let mut faults = FaultList::full_universe(&n);
        let outcome = sim.run_batches_and_classify(&mut faults, &[&vectors], &n.primary_outputs());
        assert_eq!(outcome.simulated, faults.len());
        // With exhaustive patterns every testable fault of this tiny circuit
        // is found; coverage should be high (>70 %).
        assert!(outcome.detected * 10 >= faults.len() * 7, "{outcome:?}");
        // And the AND output stuck-at-0 must definitely be among them.
        let and = n.driver_of(y).unwrap();
        assert_eq!(
            faults.class_of(StuckAt::output(and, false)),
            Some(FaultClass::Detected)
        );
    }

    #[test]
    fn undetectable_fault_stays_undetected() {
        // y = a OR (a AND b): the AND output stuck-at-0 is undetectable
        // (redundant logic).
        let mut b = NetlistBuilder::new("red");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.or2(a, t);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(t).unwrap();
        let sim = FaultSim::new(&n).unwrap();
        let vectors: Vec<InputVector> = (0..4)
            .map(|p| vector(&[(a, p & 1 == 1), (c, p & 2 == 2)]))
            .collect();
        let detected = sim.detect(&[StuckAt::output(and, false)], &vectors);
        assert_eq!(detected, vec![false]);
    }

    #[test]
    fn sequential_fault_detection_through_state() {
        // A 1-bit toggle register: q' = q XOR en. A stuck-at on the XOR is
        // only observable after a clock cycle.
        let mut b = NetlistBuilder::new("tog");
        let en = b.input("en");
        let ck = b.input("ck");
        let d = b.netlist_mut().add_net("d");
        let q = b.dff(d, ck);
        let x = b.xor2(q, en);
        b.netlist_mut().add_cell(CellKind::Buf, "fb", &[x], Some(d));
        b.output("q", q);
        let n = b.finish();
        let xor = n.driver_of(x).unwrap();
        let sim = FaultSim::new(&n).unwrap();
        let vectors: Vec<InputVector> = (0..4).map(|_| vector(&[(en, true), (ck, true)])).collect();
        let faults = [StuckAt::output(xor, false), StuckAt::input(xor, 1, false)];
        let detected = sim.detect(&faults, &vectors);
        assert_eq!(detected, vec![true, true]);
    }

    #[test]
    fn more_than_63_faults_use_multiple_chunks() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.input_bus("a", 8);
        let c = b.input_bus("b", 8);
        let x = b.xor_word(&a, &c);
        b.output_bus("y", &x);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let mut faults = FaultList::full_universe(&n);
        assert!(faults.len() > 63);
        let mut rng_patterns = Vec::new();
        for p in 0..16u64 {
            let mut v = InputVector::new();
            for (i, &net) in a.iter().enumerate() {
                v.insert(net, (p >> i) & 1 == 1);
            }
            for (i, &net) in c.iter().enumerate() {
                v.insert(net, (p.wrapping_mul(7) >> i) & 1 == 1);
            }
            rng_patterns.push(v);
        }
        let outcome =
            sim.run_batches_and_classify(&mut faults, &[&rng_patterns], &n.primary_outputs());
        // XOR trees are highly testable; expect most faults detected.
        assert!(outcome.detected > faults.len() / 2);
    }

    #[test]
    fn good_responses_match_expected_logic() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let vectors = vec![
            vector(&[(a, true), (c, true)]),
            vector(&[(a, true), (c, false)]),
        ];
        let responses = sim.good_responses(&vectors);
        assert_eq!(responses, vec![vec![true], vec![false]]);
    }

    #[test]
    fn detect_at_restricts_observation_points() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y1 = b.not(a);
        let y2 = b.buf(a);
        b.output("bus", y1);
        b.output("debug_only", y2);
        let n = b.finish();
        let bus = n
            .primary_outputs()
            .into_iter()
            .find(|&po| n.cell(po).name() == "bus")
            .unwrap();
        let buf = n.driver_of(y2).unwrap();
        let sim = FaultSim::new(&n).unwrap();
        let vectors = vec![vector(&[(a, true)]), vector(&[(a, false)])];
        let fault = StuckAt::output(buf, false);
        // Observable at the debug output…
        assert_eq!(sim.detect(&[fault], &vectors), vec![true]);
        // …but not when only the bus output counts.
        assert_eq!(sim.detect_at(&[fault], &vectors, &[bus]), vec![false]);
    }

    #[test]
    fn po_pin_fault_is_detected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.output("y", a);
        let n = b.finish();
        let po = n.primary_outputs()[0];
        let sim = FaultSim::new(&n).unwrap();
        let vectors = vec![vector(&[(a, true)]), vector(&[(a, false)])];
        let detected = sim.detect(
            &[StuckAt::input(po, 0, false), StuckAt::input(po, 0, true)],
            &vectors,
        );
        assert_eq!(detected, vec![true, true]);
    }

    #[test]
    fn batches_drop_detected_faults_and_agree_with_single_passes() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        let z = b.or2(a, c);
        b.output("y", y);
        b.output("z", z);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let faults = FaultList::full_universe(&n).faults().to_vec();
        let batch1 = vec![vector(&[(a, true), (c, true)])];
        let batch2 = vec![
            vector(&[(a, false), (c, true)]),
            vector(&[(a, true), (c, false)]),
        ];
        let combined = sim.detect_batches(&faults, &[&batch1, &batch2], &n.primary_outputs());
        let first = sim.detect(&faults, &batch1);
        let second = sim.detect(&faults, &batch2);
        for i in 0..faults.len() {
            assert_eq!(combined[i], first[i] || second[i], "fault {:?}", faults[i]);
        }
    }

    #[test]
    fn run_batches_and_classify_counts_each_fault_once() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let n = b.finish();
        let sim = FaultSim::new(&n).unwrap();
        let mut faults = FaultList::full_universe(&n);
        let batch1 = vec![vector(&[(a, true)])];
        let batch2 = vec![vector(&[(a, false)])];
        let outcome =
            sim.run_batches_and_classify(&mut faults, &[&batch1, &batch2], &n.primary_outputs());
        assert_eq!(outcome.simulated, faults.len());
        assert_eq!(outcome.detected, faults.counts().detected);
        // Exhaustive single-input patterns detect everything on a BUF/NOT path.
        assert_eq!(outcome.detected, faults.len());
    }
}
