//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the DATE 2013 paper.
//!
//! Each Criterion bench binary corresponds to one paper artefact (see
//! `EXPERIMENTS.md` for the experiment index) and prints the reproduced
//! rows/series before measuring the runtime of the underlying analysis. The
//! `perf_smoke` binary replays the workloads of the two committed
//! performance files (`BENCH_faultsim.json`, `BENCH_flow.json`) and fails
//! when the measured wall-clock regresses past the committed numbers — the
//! CI perf gate.

use atpg::proof::{prove_faults, EngineBreakdown, EngineOutcome, ProofConfig};
use atpg::{ConstraintSet, FaultSim, ProofOutcome, SatProver, SatVerdict};
use cpu::sbst::{standard_suite, suite_stimuli};
use cpu::soc::{Soc, SocBuilder};
use faultmodel::{FaultList, StuckAt, UntestableSource};
use online_untestable::flow::{FlowConfig, IdentificationFlow, ProofStageConfig};
use online_untestable::report::IdentificationReport;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Builds the full-size industrial-like SoC used by the Table I benches.
pub fn industrial_soc() -> Soc {
    SocBuilder::industrial().build()
}

/// Builds the reduced SoC used by the quicker benches.
pub fn small_soc() -> Soc {
    SocBuilder::small().build()
}

/// Runs the complete identification flow with default settings.
pub fn run_flow(soc: &Soc) -> IdentificationReport {
    IdentificationFlow::new(FlowConfig::default())
        .run(soc)
        .expect("identification flow")
}

/// The quick full-pipeline configuration used by the `flow_pipeline` bench
/// and the `perf_smoke` gate: every structural rule, the SBST simulation
/// stage, and the PODEM/SAT proof portfolio over the **entire** surviving
/// undetected population (no `max_faults` budget — the cone-clipped,
/// SCOAP-guided, collapse-scheduled engine makes the full survivor set
/// affordable, and PODEM aborts escalate to the SAT backend). The
/// proof stage is pinned to one worker so the committed wall-clock means the
/// same thing on a 1-core container and a multi-core CI runner
/// (classifications are thread-invariant anyway; the multi-threaded path is
/// covered by the flow's own tests).
pub fn quick_pipeline_config() -> FlowConfig {
    FlowConfig {
        sbst_max_cycles: 2_000,
        proof: ProofStageConfig {
            backtrack_limit: 16,
            threads: 1,
            max_faults: None,
            ..ProofStageConfig::default()
        },
        ..FlowConfig::full_pipeline()
    }
}

/// Result of one SBST fault-simulation campaign replay (the
/// `BENCH_faultsim.json` workload).
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// End-to-end campaign wall-clock.
    pub wall_clock: Duration,
    /// Faults detected by the suite.
    pub detected: usize,
    /// Faults simulated.
    pub faults: usize,
}

/// Faults graded by the committed `BENCH_faultsim.json` campaign (a fixed
/// seeded sample = 20 packed chunks).
pub const FAULTSIM_SAMPLE: usize = 1_260;

/// PODEM aborts replayed by the committed `sat_throughput` workload: the
/// first this-many aborts of [`ProofCampaign::run_podem_only`]
/// (the worklist order is the fault-universe order, so the slice is
/// deterministic).
pub const SAT_STAGE_SLICE: usize = 256;

/// RNG seed of the committed campaign's fault sample.
pub const FAULTSIM_SEED: u64 = 2013;

/// The committed fault-simulation campaign, prepared once and runnable many
/// times: a seeded random sample of an SoC's stuck-at universe graded against
/// the full four-program SBST suite, observing only the system bus. This is
/// the *single* definition of the `BENCH_faultsim.json` workload — the
/// `fault_sim_throughput` bench and the `perf_smoke` gate both replay it
/// (with [`FAULTSIM_SAMPLE`]/[`FAULTSIM_SEED`]), so the committed numbers
/// and the CI gate can never drift apart.
pub struct FaultsimCampaign<'a> {
    sim: FaultSim<'a>,
    stimuli: Vec<cpu::sbst::ProgramStimuli>,
    sample: Vec<StuckAt>,
    bus: Vec<netlist::CellId>,
}

impl<'a> FaultsimCampaign<'a> {
    /// Prepares the campaign (stimuli extraction, netlist compilation and
    /// fault sampling happen here, outside the measured region).
    pub fn prepare(soc: &'a Soc, sample_size: usize, seed: u64) -> Self {
        let suite = standard_suite();
        let stimuli = suite_stimuli(&suite, &soc.interface, 2_000);
        let sim = FaultSim::new(&soc.netlist).expect("fault simulator");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut faults: Vec<StuckAt> = FaultList::full_universe(&soc.netlist).faults().to_vec();
        faults.shuffle(&mut rng);
        let sample: Vec<StuckAt> = faults.into_iter().take(sample_size).collect();
        FaultsimCampaign {
            sim,
            stimuli,
            sample,
            bus: soc.interface.bus_output_ports.clone(),
        }
    }

    /// Faults in the sample.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }

    /// Total vector cycles across the suite's programs.
    pub fn total_cycles(&self) -> usize {
        self.stimuli.iter().map(|s| s.vectors.len()).sum()
    }

    /// Runs the campaign once, timing only the grading itself.
    pub fn run(&self) -> CampaignResult {
        let batches: Vec<&[atpg::InputVector]> =
            self.stimuli.iter().map(|s| s.vectors.as_slice()).collect();
        let start = Instant::now();
        let detected_mask = self.sim.detect_batches(&self.sample, &batches, &self.bus);
        CampaignResult {
            wall_clock: start.elapsed(),
            detected: detected_mask.iter().filter(|&&d| d).count(),
            faults: self.sample.len(),
        }
    }
}

/// One-shot convenience over [`FaultsimCampaign`].
pub fn replay_faultsim_campaign(soc: &Soc, sample_size: usize, seed: u64) -> CampaignResult {
    FaultsimCampaign::prepare(soc, sample_size, seed).run()
}

/// Result of one proof-stage replay (the `proof_throughput` section of
/// `BENCH_flow.json`).
#[derive(Clone, Debug)]
pub struct ProofResult {
    /// Wall-clock of the proof run itself.
    pub wall_clock: Duration,
    /// Faults proven untestable (by either engine).
    pub proven: usize,
}

impl ProofResult {
    /// The headline throughput metric: milliseconds of proof-stage
    /// wall-clock per *proven* fault.
    pub fn ms_per_proven_fault(&self) -> f64 {
        self.wall_clock.as_secs_f64() * 1e3 / self.proven.max(1) as f64
    }
}

/// The committed proof-stage workload behind the `proof_throughput` and
/// `sat_throughput` benches and the last two `perf_smoke` gates: the
/// staged pipeline on the reduced SoC is run up to (and including) the SBST
/// simulation once, outside the measured region; the measured region is a
/// single-threaded [`prove_faults`] over the **full** survivor set under the
/// mission constraints — the same worklist and engine configuration the
/// `BENCH_flow.json` pipeline's `atpg-proof` stage uses.
pub struct ProofCampaign {
    soc: Soc,
    faults: Vec<StuckAt>,
    constraints: ConstraintSet,
}

impl ProofCampaign {
    /// Prepares the campaign (screens and simulates the reduced SoC so only
    /// genuine survivors reach the measured proof run).
    pub fn prepare() -> Self {
        let soc = small_soc();
        let mut config = quick_pipeline_config();
        config.run_atpg_proof = false;
        let flow = IdentificationFlow::new(config);
        let (_, master) = flow.run_with_faults(&soc).expect("identification flow");
        let faults: Vec<StuckAt> = master.undetected().map(|(_, f)| f).collect();
        let constraints = flow.mission_constraints(&soc).expect("mission constraints");
        ProofCampaign {
            soc,
            faults,
            constraints,
        }
    }

    /// Survivors in the proof worklist.
    pub fn survivors(&self) -> usize {
        self.faults.len()
    }

    /// Runs the proof stage once with the flow bench's portfolio
    /// configuration, [`quick_pipeline_config`]'s (cone clipping, SCOAP
    /// guidance, X-path pruning, collapse scheduling, PODEM aborts escalated
    /// to the SAT backend at the default conflict budget), timing only the
    /// proof run itself.
    pub fn run(&self) -> ProofResult {
        let start = Instant::now();
        let outcomes = self.prove(&quick_pipeline_config().proof);
        ProofResult {
            wall_clock: start.elapsed(),
            proven: EngineBreakdown::from_outcomes(&outcomes).proven_total(),
        }
    }

    /// Runs the PODEM configuration of [`quick_pipeline_config`] once over
    /// the full survivor set with the SAT escalation off, timing only the
    /// proof run: the `proof_throughput.podem_only` workload and the PODEM
    /// layer's `perf_smoke` gate. Its aborts are the SAT escalation's
    /// worklist: the measured SAT replays take the first
    /// [`SAT_STAGE_SLICE`] of them, which bounds the measured region of a
    /// smoke gate; the `sat_throughput` bench replays all of them once,
    /// outside its measured loop.
    pub fn run_podem_only(&self) -> PodemOnlyResult {
        let start = Instant::now();
        let outcomes = self.prove(&ProofConfig {
            use_sat: false,
            ..quick_pipeline_config().proof
        });
        let wall_clock = start.elapsed();
        PodemOnlyResult {
            wall_clock,
            proven: EngineBreakdown::from_outcomes(&outcomes).proven_total(),
            aborted: self
                .faults
                .iter()
                .zip(&outcomes)
                .filter(|&(_, o)| o.outcome == ProofOutcome::Aborted)
                .map(|(&f, _)| f)
                .collect(),
        }
    }

    /// Replays the SAT escalation stage alone over `worklist` (normally the
    /// aborts of [`run_podem_only`](Self::run_podem_only)): one
    /// single-threaded [`SatProver`] at `conflict_limit` conflicts per fault
    /// (the committed budget is `ProofConfig::default().sat_conflict_limit`).
    /// This is the measured region of the `sat_throughput` bench and the
    /// SAT layer's `perf_smoke` gate.
    pub fn run_sat_stage(&self, worklist: &[StuckAt], conflict_limit: u64) -> SatStageResult {
        let mut prover = SatProver::new(&self.soc.netlist, &self.constraints, conflict_limit)
            .expect("acyclic netlist");
        let start = Instant::now();
        let (mut proven, mut test_exists, mut unresolved) = (0usize, 0usize, 0usize);
        for &fault in worklist {
            match prover.prove(fault) {
                SatVerdict::ProvenUntestable => proven += 1,
                SatVerdict::TestExists => test_exists += 1,
                SatVerdict::Aborted | SatVerdict::Unsupported => unresolved += 1,
            }
        }
        SatStageResult {
            wall_clock: start.elapsed(),
            attempted: worklist.len(),
            proven,
            test_exists,
            unresolved,
        }
    }

    fn prove(&self, config: &ProofConfig) -> Vec<EngineOutcome> {
        prove_faults(&self.soc.netlist, &self.constraints, &self.faults, config)
            .expect("proof run")
            .outcomes
    }
}

/// Result of one PODEM-only proof run (the `proof_throughput.podem_only`
/// section of `BENCH_flow.json`).
#[derive(Clone, Debug)]
pub struct PodemOnlyResult {
    /// Wall-clock of the proof run itself.
    pub wall_clock: Duration,
    /// Faults PODEM proved untestable.
    pub proven: usize,
    /// The faults PODEM aborted on, in worklist order: the SAT escalation's
    /// worklist.
    pub aborted: Vec<StuckAt>,
}

/// Result of one SAT-escalation replay (the `sat_throughput` section of
/// `BENCH_flow.json`).
#[derive(Clone, Debug)]
pub struct SatStageResult {
    /// Wall-clock of the SAT stage itself.
    pub wall_clock: Duration,
    /// PODEM aborts handed to the SAT backend.
    pub attempted: usize,
    /// Faults the SAT backend proved untestable.
    pub proven: usize,
    /// Faults the SAT backend found a (replayed) test for.
    pub test_exists: usize,
    /// Faults the SAT backend declined or conflict-limited out of.
    pub unresolved: usize,
}

impl SatStageResult {
    /// Milliseconds of SAT wall-clock per concluded fault.
    pub fn ms_per_concluded_fault(&self) -> f64 {
        self.wall_clock.as_secs_f64() * 1e3 / (self.proven + self.test_exists).max(1) as f64
    }
}

/// Prints a Table-I-style block for a report, next to the paper's numbers.
pub fn print_table1(report: &IdentificationReport) {
    println!("--- reproduced Table I ---------------------------------------");
    println!("fault universe: {}", report.total_faults);
    for source in UntestableSource::ALL {
        println!(
            "  {:<18} {:>8}  ({:>5.1}%)",
            source.name(),
            report.count_for(source),
            100.0 * report.count_for(source) as f64 / report.total_faults as f64
        );
    }
    println!(
        "  {:<18} {:>8}  ({:>5.1}%)",
        "TOTAL",
        report.total_untestable(),
        100.0 * report.untestable_fraction()
    );
    println!("--- paper Table I (214,930 faults) ----------------------------");
    println!("  Scan    19,142  ( 8.9%)   Debug  6,905 (3.2%)");
    println!("  Memory   3,610  ( 1.7%)   TOTAL 29,657 (13.8%)");
    println!("----------------------------------------------------------------");
}

/// Prints the per-stage table of a staged-pipeline report.
pub fn print_stage_table(report: &IdentificationReport) {
    println!("--- staged identification pipeline ---------------------------");
    println!(
        "{:<16} {:>10} {:>10} {:>12}",
        "stage", "classified", "left", "wall-clock"
    );
    for phase in &report.phases {
        println!(
            "{:<16} {:>10} {:>10} {:>10.3} ms",
            phase.name,
            phase.newly_classified,
            phase.undetected_after,
            phase.duration.as_secs_f64() * 1e3
        );
    }
    let classified: usize = report.phases.iter().map(|p| p.newly_classified).sum();
    println!(
        "{:<16} {:>10} {:>10} {:>10.3} ms",
        "TOTAL",
        classified,
        report
            .phases
            .last()
            .map(|p| p.undetected_after)
            .unwrap_or(report.total_faults),
        report.total_duration().as_secs_f64() * 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use online_untestable::JsonValue;

    #[test]
    fn helpers_build_and_run() {
        let soc = small_soc();
        let report = run_flow(&soc);
        assert!(report.total_untestable() > 0);
        print_table1(&report);
        print_stage_table(&report);
    }

    #[test]
    fn committed_files_parse() {
        // Every committed number the perf-smoke gate reads must stay at its
        // key path, so a renamed key fails here rather than in the gate.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (file, paths) in [
            (
                "BENCH_faultsim.json",
                &[
                    &["workload", "faults_detected"][..],
                    &["post", "campaign_wall_clock_s"],
                ][..],
            ),
            (
                "BENCH_flow.json",
                &[
                    &["perf_smoke", "regression_factor"][..],
                    &["workload", "untestable_total"],
                    &["workload", "engine_epoch"],
                    &["measured", "flow_wall_clock_s"],
                    &["proof_throughput", "proven"],
                    &["proof_throughput", "proof_wall_clock_s"],
                    &["proof_throughput", "podem_only", "proven"],
                    &["proof_throughput", "podem_only", "aborted"],
                    &["proof_throughput", "podem_only", "proof_wall_clock_s"],
                    &["sat_throughput", "proven"],
                    &["sat_throughput", "sat_wall_clock_s"],
                ][..],
            ),
        ] {
            let text = std::fs::read_to_string(format!("{root}/{file}")).expect(file);
            let doc = JsonValue::parse(&text).expect(file);
            for path in paths {
                let value = path.iter().try_fold(&doc, |node, key| node.get(key));
                assert!(
                    value.and_then(JsonValue::as_f64).is_some(),
                    "{} missing from {file}",
                    path.join(".")
                );
            }
        }
    }
}
