//! The end-to-end identification pipeline: baseline structural analysis, the
//! four on-line untestability rules, compiled-engine fault simulation of the
//! functional stimuli, and the constraint-aware PODEM proof stage — the
//! automated counterpart of the full procedure summarised in §4 (search for
//! sources, manipulate the circuit, screen out the untestable faults, and
//! *prove* what the structural screen alone cannot).
//!
//! The pipeline runs against any [`Design`] — the full SoC case study or a
//! bare circuit loaded through [`netlist::frontend`]. Every stage consumes
//! the faults the previous stages left unclassified and records its
//! fault-count delta and wall-clock in the [`IdentificationReport`]. Stages
//! whose prerequisite the design cannot provide (no scan structure, no
//! memory map, no stimuli, …) are skipped, so a pure netlist degrades to the
//! *screen + proof* pipeline while the SoC runs all seven stages. The
//! expensive final stage (PODEM proofs over the surviving undetected faults)
//! fans out across scoped worker threads via [`atpg::proof`]; its
//! classifications are identical for any thread count.

use crate::design::Design;
use crate::report::{IdentificationReport, PhaseResult};
use crate::rules::{
    analyse_manipulation, debug_control_manipulation, debug_observation_manipulation,
    memory_map_manipulation, scan_rule,
};
use crate::toggle::analyze_toggles;
use atpg::analysis::StructuralAnalysis;
use atpg::proof::{prove_faults, CampaignError, EngineBreakdown};
use atpg::{ConstraintSet, FaultSim, InputVector, ProofOutcome};
use dft::trace::{find_scan_in_ports, trace_scan_chains};
use faultmodel::{FaultClass, FaultList, StuckAt, UntestableSource};
use netlist::NetId;
use std::fmt;
use std::time::Instant;

/// Configuration of the proof stage: one [`atpg::proof::ProofConfig`], the
/// engine's own campaign description. Its default proves the **entire**
/// surviving undetected population on the PODEM/SAT portfolio — cone
/// clipping, SCOAP guidance and collapse scheduling make the full survivor
/// set affordable, so `max_faults` is a debugging aid rather than a
/// necessity.
pub use atpg::proof::ProofConfig as ProofStageConfig;

/// How the flow discovers the mission-constant debug/test control inputs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DiscoveryMode {
    /// Use the SoC's own description of its tied-off test interfaces (fast;
    /// equivalent to reading the integration specification).
    Specification,
    /// Re-derive the list by running the SBST suite and flagging inputs with
    /// no activity, as the paper's engineers did with toggle-coverage metrics
    /// (§4). Slower, but needs no prior knowledge.
    ToggleAnalysis,
}

/// Configuration of the identification flow.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// How to find the tied-off control inputs.
    pub discovery: DiscoveryMode,
    /// Cycle budget per SBST program when `discovery` is
    /// [`DiscoveryMode::ToggleAnalysis`].
    pub toggle_max_cycles: usize,
    /// Run the §3.1 scan rule.
    pub run_scan: bool,
    /// Run the §3.2.1 debug control rule.
    pub run_debug_control: bool,
    /// Run the §3.2.2 debug observation rule.
    pub run_debug_observation: bool,
    /// Run the §3.3 memory-map rule.
    pub run_memory_map: bool,
    /// Grade the SBST suite on the compiled fault simulator and mark detected
    /// faults, so the proof stage only sees genuine survivors. Off by default
    /// (it simulates the whole surviving universe).
    pub run_sbst_simulation: bool,
    /// Cycle budget per SBST program for the simulation stage.
    pub sbst_max_cycles: usize,
    /// Run the constraint-aware PODEM proof stage over the faults that
    /// survive every previous stage. Off by default.
    pub run_atpg_proof: bool,
    /// Tuning of the proof stage.
    pub proof: ProofStageConfig,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            discovery: DiscoveryMode::Specification,
            toggle_max_cycles: 600,
            run_scan: true,
            run_debug_control: true,
            run_debug_observation: true,
            run_memory_map: true,
            run_sbst_simulation: false,
            sbst_max_cycles: 2_000,
            run_atpg_proof: false,
            proof: ProofStageConfig::default(),
        }
    }
}

impl FlowConfig {
    /// The full staged pipeline: every structural rule plus the SBST
    /// simulation and PODEM proof stages.
    pub fn full_pipeline() -> Self {
        FlowConfig {
            run_sbst_simulation: true,
            run_atpg_proof: true,
            ..FlowConfig::default()
        }
    }
}

/// Errors produced by the flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowError {
    /// The design could not be levelized (combinational loop).
    Analysis(String),
    /// The scan chains could not be traced.
    ScanTrace(String),
    /// The proof-stage checkpoint could not be opened, parsed, or written
    /// (including a fingerprint mismatch with the current campaign).
    Checkpoint(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Analysis(msg) => write!(f, "structural analysis failed: {msg}"),
            FlowError::ScanTrace(msg) => write!(f, "scan tracing failed: {msg}"),
            FlowError::Checkpoint(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// The on-line functionally untestable fault identification flow.
#[derive(Clone, Debug, Default)]
pub struct IdentificationFlow {
    config: FlowConfig,
}

/// The design's per-run capability snapshot, gathered once — the accessors
/// may walk the whole netlist (e.g. address-register discovery), so the
/// stage gates, the stages themselves and the mission constraints all share
/// one copy.
struct DesignSpecs {
    scan: Option<crate::design::ScanSpec>,
    memory_map: Option<crate::design::MemoryMapSpec>,
    observation: Vec<netlist::CellId>,
    /// The specification-declared control inputs (the discovery machinery
    /// may replace these with toggle-analysis results).
    control: Vec<(NetId, bool)>,
}

impl DesignSpecs {
    fn gather(design: &dyn Design) -> Self {
        DesignSpecs {
            scan: design.scan_spec(),
            memory_map: design.memory_map_spec(),
            observation: design.observation_outputs(),
            control: design.control_inputs(),
        }
    }
}

/// Mutable state threaded through the pipeline stages.
struct StageContext<'a> {
    design: &'a dyn Design,
    specs: DesignSpecs,
    master: FaultList,
    phases: Vec<PhaseResult>,
    baseline_structural: usize,
    /// Discovered tied control inputs, computed at most once per run — under
    /// [`DiscoveryMode::ToggleAnalysis`] discovery means simulating the whole
    /// stimulus suite, which the debug-control stage and the proof stage
    /// would otherwise both pay for.
    tied_inputs: Option<Vec<(NetId, bool)>>,
    /// Per-engine outcome counts of the proof stage, filled in when it runs.
    engine_breakdown: Option<EngineBreakdown>,
}

impl StageContext<'_> {
    /// Times `stage`, which returns the number of newly classified faults,
    /// and records the per-stage delta against the master list.
    fn record(
        &mut self,
        name: &str,
        stage: impl FnOnce(&mut Self) -> Result<usize, FlowError>,
    ) -> Result<(), FlowError> {
        let start = Instant::now();
        let newly_classified = stage(self)?;
        self.phases.push(PhaseResult {
            name: name.to_string(),
            newly_classified,
            undetected_after: self.master.counts().undetected,
            duration: start.elapsed(),
        });
        Ok(())
    }
}

impl IdentificationFlow {
    /// Creates a flow with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        IdentificationFlow { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs the flow and returns the report only.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn run<D: Design>(&self, design: &D) -> Result<IdentificationReport, FlowError> {
        self.run_with_faults(design).map(|(report, _)| report)
    }

    /// Runs the staged pipeline and returns both the report and the fully
    /// classified master fault list (useful for subsequent coverage grading).
    ///
    /// Stages whose prerequisite `design` does not provide — scan structure,
    /// control inputs, observation outputs, memory map, stimuli — are
    /// skipped and leave no phase entry.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn run_with_faults<D: Design>(
        &self,
        design: &D,
    ) -> Result<(IdentificationReport, FaultList), FlowError> {
        self.run_design(design)
    }

    fn run_design(
        &self,
        design: &dyn Design,
    ) -> Result<(IdentificationReport, FaultList), FlowError> {
        let mut ctx = StageContext {
            design,
            specs: DesignSpecs::gather(design),
            master: FaultList::full_universe(design.netlist()),
            phases: Vec::new(),
            baseline_structural: 0,
            tied_inputs: None,
            engine_breakdown: None,
        };

        // Stage 0: baseline structural untestability, classified first so
        // that it is not attributed to any on-line source.
        ctx.record("baseline", |ctx| self.stage_baseline(ctx))?;
        // Stages 1–4: the §3 screening rules on the manipulated circuit,
        // each gated on the design actually having that structure. The
        // debug-control gate passes when the design declares control inputs
        // or when toggle-analysis discovery has stimuli to derive them from;
        // a design with neither skips the stage under every discovery mode.
        if self.config.run_scan && ctx.specs.scan.is_some() {
            ctx.record("scan", |ctx| self.stage_scan(ctx))?;
        }
        if self.config.run_debug_control
            && (!ctx.specs.control.is_empty()
                || (self.config.discovery == DiscoveryMode::ToggleAnalysis
                    && design.provides_stimuli()))
        {
            ctx.record("debug-control", |ctx| self.stage_debug_control(ctx))?;
        }
        if self.config.run_debug_observation && !ctx.specs.observation.is_empty() {
            ctx.record("debug-observe", |ctx| self.stage_debug_observation(ctx))?;
        }
        if self.config.run_memory_map
            && ctx
                .specs
                .memory_map
                .as_ref()
                .is_some_and(|spec| !spec.address_registers.is_empty())
        {
            ctx.record("memory-map", |ctx| self.stage_memory_map(ctx))?;
        }
        // Stage 5: drop everything the functional stimuli actually detect.
        if self.config.run_sbst_simulation && design.provides_stimuli() {
            ctx.record("sbst-sim", |ctx| self.stage_sbst_simulation(ctx))?;
        }
        // Stage 6: prove untestability of the survivors under the mission
        // constraints.
        if self.config.run_atpg_proof {
            ctx.record("atpg-proof", |ctx| self.stage_atpg_proof(ctx))?;
        }

        let report = IdentificationReport {
            design: design.netlist().name().to_string(),
            total_faults: ctx.master.len(),
            baseline_structural: ctx.baseline_structural,
            phases: ctx.phases,
            counts: ctx.master.counts(),
            engine_breakdown: ctx.engine_breakdown,
        };
        Ok((report, ctx.master))
    }

    // ------------------------------------------------------------------
    // Pipeline stages.
    // ------------------------------------------------------------------

    /// Phase 0: baseline structural untestability.
    fn stage_baseline(&self, ctx: &mut StageContext<'_>) -> Result<usize, FlowError> {
        let outcome = StructuralAnalysis::with_constraints(ConstraintSet::full_scan())
            .run(ctx.design.netlist(), &mut ctx.master)
            .map_err(|e| FlowError::Analysis(e.to_string()))?;
        ctx.baseline_structural = outcome.total_untestable();
        Ok(ctx.baseline_structural)
    }

    /// Phase 1: scan circuitry (§3.1).
    fn stage_scan(&self, ctx: &mut StageContext<'_>) -> Result<usize, FlowError> {
        let spec = ctx.specs.scan.as_ref().expect("stage gated on the spec");
        let netlist = ctx.design.netlist();
        let ports = find_scan_in_ports(netlist, &spec.scan_in_prefix);
        let trace = trace_scan_chains(netlist, &ports, &spec.scan_out_prefix)
            .map_err(|e| FlowError::ScanTrace(e.to_string()))?;
        let result = scan_rule(netlist, &trace, spec.mission_scan_enable_value);
        let mut newly = 0usize;
        for fault in result.untestable {
            if ctx
                .master
                .classify_if_undetected(fault, FaultClass::OnlineUntestable(UntestableSource::Scan))
            {
                newly += 1;
            }
        }
        Ok(newly)
    }

    /// Phase 2: debug control logic (§3.2.1) — for generic designs, the
    /// spec-forced nets take the role of the tied-off control inputs.
    fn stage_debug_control(&self, ctx: &mut StageContext<'_>) -> Result<usize, FlowError> {
        let tied = self.control_inputs_cached(ctx)?;
        let manipulation = debug_control_manipulation(&tied);
        let (analysed, _) = analyse_manipulation(ctx.design.netlist(), &manipulation)
            .map_err(FlowError::Analysis)?;
        Ok(ctx.master.import_classes(&analysed, |class| {
            class
                .is_structurally_untestable()
                .then_some(FaultClass::OnlineUntestable(UntestableSource::DebugControl))
        }))
    }

    /// Phase 3: debug observation logic (§3.2.2) — for generic designs, the
    /// spec-masked observation points.
    fn stage_debug_observation(&self, ctx: &mut StageContext<'_>) -> Result<usize, FlowError> {
        let manipulation = debug_observation_manipulation(&ctx.specs.observation);
        let (analysed, _) = analyse_manipulation(ctx.design.netlist(), &manipulation)
            .map_err(FlowError::Analysis)?;
        Ok(ctx.master.import_classes(&analysed, |class| {
            class
                .is_structurally_untestable()
                .then_some(FaultClass::OnlineUntestable(
                    UntestableSource::DebugObservation,
                ))
        }))
    }

    /// Phase 4: memory map (§3.3).
    fn stage_memory_map(&self, ctx: &mut StageContext<'_>) -> Result<usize, FlowError> {
        let spec = ctx
            .specs
            .memory_map
            .as_ref()
            .expect("stage gated on the spec");
        let manipulation =
            memory_map_manipulation(ctx.design.netlist(), &spec.address_registers, &spec.map);
        let (analysed, _) = analyse_manipulation(ctx.design.netlist(), &manipulation)
            .map_err(FlowError::Analysis)?;
        Ok(ctx.master.import_classes(&analysed, |class| {
            class
                .is_structurally_untestable()
                .then_some(FaultClass::OnlineUntestable(UntestableSource::MemoryMap))
        }))
    }

    /// Phase 5: compiled-engine fault simulation of the design's functional
    /// stimuli (the SBST suite on the SoC), observing only the
    /// mission-visible outputs — faults the stimuli detect are dropped
    /// before the expensive proof stage.
    fn stage_sbst_simulation(&self, ctx: &mut StageContext<'_>) -> Result<usize, FlowError> {
        // `Design` is a public extension point, so a provides_stimuli /
        // stimuli disagreement is surfaced as an error, not a panic.
        let stimuli = ctx
            .design
            .stimuli(self.config.sbst_max_cycles)
            .ok_or_else(|| {
                FlowError::Analysis(
                    "design advertises stimuli (provides_stimuli) but stimuli() returned none"
                        .to_string(),
                )
            })?;
        let sim =
            FaultSim::new(ctx.design.netlist()).map_err(|e| FlowError::Analysis(e.to_string()))?;
        let batches: Vec<&[InputVector]> = stimuli.batches.iter().map(|b| b.as_slice()).collect();
        let outcome =
            sim.run_batches_and_classify(&mut ctx.master, &batches, &stimuli.observed_outputs);
        Ok(outcome.detected)
    }

    /// Phase 6: constraint-aware PODEM proofs over the surviving undetected
    /// faults, fanned out across worker threads, with aborted searches
    /// escalated to the SAT backend when the portfolio is on. Proven faults
    /// are re-labelled [`UntestableSource::AtpgProof`]; faults neither engine
    /// concludes stay unclassified. The per-engine outcome counts land in the
    /// report's `engine_breakdown`.
    ///
    /// The stage hands the configured [`ProofStageConfig`] to
    /// [`prove_faults`] as it is: the worklist sample, the wall-clock limits,
    /// the cancel token and the checkpoint file are all fields of it.
    fn stage_atpg_proof(&self, ctx: &mut StageContext<'_>) -> Result<usize, FlowError> {
        let tied = self.control_inputs_cached(ctx)?;
        let constraints = self.mission_constraints_from(ctx.design, &ctx.specs, &tied);
        let (survivors, faults): (Vec<usize>, Vec<StuckAt>) = ctx.master.undetected().unzip();
        let campaign = prove_faults(
            ctx.design.netlist(),
            &constraints,
            &faults,
            &self.config.proof,
        )
        .map_err(|e| match e {
            CampaignError::Cyclic(loop_err) => FlowError::Analysis(loop_err.to_string()),
            CampaignError::Checkpoint(ckpt_err) => FlowError::Checkpoint(ckpt_err.to_string()),
        })?;
        ctx.engine_breakdown = Some(EngineBreakdown::from_outcomes(&campaign.outcomes));
        let mut newly = 0usize;
        for (&input, outcome) in campaign.worklist.iter().zip(&campaign.outcomes) {
            if outcome.outcome == ProofOutcome::ProvenUntestable {
                ctx.master.classify_at(
                    survivors[input],
                    FaultClass::OnlineUntestable(UntestableSource::AtpgProof),
                );
                newly += 1;
            }
        }
        Ok(newly)
    }

    // ------------------------------------------------------------------
    // Environment helpers.
    // ------------------------------------------------------------------

    /// The full mission-mode environment for the proof stage: every tied
    /// debug/test control input (per the configured discovery mode), the scan
    /// interface held at its mission values, the memory-map register ties,
    /// and every mission-unobserved output masked.
    pub fn mission_constraints<D: Design>(&self, design: &D) -> Result<ConstraintSet, FlowError> {
        let specs = DesignSpecs::gather(design);
        let tied = self.control_inputs(design, &specs)?;
        Ok(self.mission_constraints_from(design, &specs, &tied))
    }

    /// [`mission_constraints`](Self::mission_constraints) with the specs
    /// already gathered and the control inputs already discovered (the
    /// pipeline caches both per run).
    fn mission_constraints_from(
        &self,
        design: &dyn Design,
        specs: &DesignSpecs,
        tied_inputs: &[(NetId, bool)],
    ) -> ConstraintSet {
        let mut constraints = ConstraintSet::full_scan();
        // Debug/test control inputs (discovery-mode dependent).
        for &(net, value) in tied_inputs {
            constraints.tie_net(net, value);
        }
        // Scan interface at mission values (§3.1).
        if let Some(scan) = &specs.scan {
            if let Some(se) = scan.scan_enable_net {
                constraints.tie_net(se, scan.mission_scan_enable_value);
            }
            for chain in &scan.chains {
                constraints.tie_net(chain.scan_in_net, false);
            }
        }
        // Memory-map register ties (§3.3).
        if let Some(spec) = &specs.memory_map {
            let manipulation =
                memory_map_manipulation(design.netlist(), &spec.address_registers, &spec.map);
            for (net, value) in manipulation
                .to_constraints()
                .forced_nets
                .iter()
                .map(|(&net, &value)| (net, value == atpg::Logic::One))
            {
                constraints.tie_net(net, value);
            }
        }
        // Mission-unobserved outputs (§3.2.2 plus the scan-outs).
        for &po in &specs.observation {
            constraints.mask_output(po);
        }
        if let Some(scan) = &specs.scan {
            for chain in &scan.chains {
                constraints.mask_output(chain.scan_out_port);
            }
        }
        constraints
    }

    /// The key a proof campaign on `design` is checkpointed under: a
    /// fingerprint of the netlist, the mission constraints and the
    /// verdict-affecting proof-stage settings (see
    /// [`atpg::checkpoint::campaign_fingerprint`]). The identification
    /// service keys its result cache with the same value.
    ///
    /// # Errors
    ///
    /// See [`FlowError`]; only control-input discovery can fail.
    pub fn campaign_fingerprint<D: Design>(&self, design: &D) -> Result<u64, FlowError> {
        let constraints = self.mission_constraints(design)?;
        Ok(atpg::checkpoint::campaign_fingerprint(
            design.netlist(),
            &constraints,
            &self.config.proof,
        ))
    }

    /// The control inputs, discovered at most once per pipeline run.
    fn control_inputs_cached(
        &self,
        ctx: &mut StageContext<'_>,
    ) -> Result<Vec<(NetId, bool)>, FlowError> {
        if ctx.tied_inputs.is_none() {
            ctx.tied_inputs = Some(self.control_inputs(ctx.design, &ctx.specs)?);
        }
        Ok(ctx.tied_inputs.clone().expect("just populated"))
    }

    /// The tied control inputs, according to the configured discovery mode.
    ///
    /// Toggle-analysis discovery falls back to the design's specification
    /// list when the design provides no stimuli to analyse.
    fn control_inputs(
        &self,
        design: &dyn Design,
        specs: &DesignSpecs,
    ) -> Result<Vec<(NetId, bool)>, FlowError> {
        match self.config.discovery {
            DiscoveryMode::Specification => Ok(specs.control.clone()),
            DiscoveryMode::ToggleAnalysis => {
                let Some(stimuli) = design.stimuli(self.config.toggle_max_cycles) else {
                    return Ok(specs.control.clone());
                };
                let report = analyze_toggles(design.netlist(), &stimuli.batches)
                    .map_err(FlowError::Analysis)?;
                // Inputs with no activity are suspects; exclude the functional
                // inputs (clock, reset, memory read buses — constant values on
                // those are an artefact of the stimulus, not of the mission
                // configuration) and the scan interface (attributed to the
                // scan rule).
                let functional = design.functional_inputs();
                let mut scan_nets: Vec<NetId> = Vec::new();
                if let Some(scan) = &specs.scan {
                    scan_nets.extend(scan.chains.iter().map(|c| c.scan_in_net));
                    scan_nets.extend(scan.scan_enable_net);
                }
                Ok(report
                    .suspect_inputs(design.netlist())
                    .into_iter()
                    .filter(|(net, _)| !functional.contains(net) && !scan_nets.contains(net))
                    .collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu::core_gen::CoreConfig;
    use cpu::soc::SocBuilder;
    use dft::scan::ScanConfig;

    /// A deliberately tiny SoC so the full pipeline (SBST simulation + PODEM
    /// proofs) stays affordable in debug-mode tests.
    fn micro_soc() -> cpu::soc::Soc {
        SocBuilder::small()
            .core_config(CoreConfig {
                num_regs: 4,
                btb_entries: 2,
                include_cycle_counter: false,
            })
            .scan_config(ScanConfig {
                num_chains: 1,
                ..ScanConfig::default()
            })
            .build()
    }

    fn micro_pipeline_config() -> FlowConfig {
        FlowConfig {
            sbst_max_cycles: 200,
            proof: ProofStageConfig {
                backtrack_limit: 8,
                threads: 1,
                max_faults: Some(1_500),
                ..ProofStageConfig::default()
            },
            ..FlowConfig::full_pipeline()
        }
    }

    #[test]
    fn full_flow_on_small_soc_finds_all_sources() {
        let soc = SocBuilder::small().build();
        let (report, faults) = IdentificationFlow::new(FlowConfig::default())
            .run_with_faults(&soc)
            .unwrap();
        assert_eq!(report.total_faults, faults.len());
        // Every §3 source contributes something (the proof stage is off in
        // the default configuration).
        assert!(report.count_for(UntestableSource::Scan) > 0, "{report}");
        assert!(
            report.count_for(UntestableSource::DebugControl) > 0,
            "{report}"
        );
        assert!(
            report.count_for(UntestableSource::DebugObservation) > 0,
            "{report}"
        );
        assert!(
            report.count_for(UntestableSource::MemoryMap) > 0,
            "{report}"
        );
        assert_eq!(report.count_for(UntestableSource::AtpgProof), 0);
        // Scan dominates, as in Table I.
        assert!(
            report.count_for(UntestableSource::Scan)
                > report.count_for(UntestableSource::MemoryMap)
        );
        // The overall fraction lands in a plausible band (Table I: 13.8 %).
        let fraction = report.untestable_fraction();
        assert!(
            (0.02..0.40).contains(&fraction),
            "untestable fraction {fraction:.3} out of band"
        );
        // Consistency between report and fault list.
        assert_eq!(report.counts, faults.counts());
        assert_eq!(
            report.total_untestable(),
            faults.counts().online_untestable_total()
        );
        // Per-stage deltas are recorded and consistent: the remainder never
        // grows from stage to stage.
        for pair in report.phases.windows(2) {
            assert!(
                pair[1].undetected_after <= pair[0].undetected_after,
                "{report}"
            );
        }
    }

    #[test]
    fn phases_can_be_disabled() {
        let soc = SocBuilder::small().build();
        let config = FlowConfig {
            run_scan: false,
            run_debug_control: false,
            run_debug_observation: false,
            run_memory_map: true,
            ..FlowConfig::default()
        };
        let report = IdentificationFlow::new(config).run(&soc).unwrap();
        assert_eq!(report.count_for(UntestableSource::Scan), 0);
        assert_eq!(report.count_for(UntestableSource::DebugControl), 0);
        assert!(report.count_for(UntestableSource::MemoryMap) > 0);
        // Phase list contains baseline + memory-map only.
        assert_eq!(report.phases.len(), 2);
    }

    #[test]
    fn sources_are_disjoint() {
        let soc = SocBuilder::small().build();
        let (report, faults) = IdentificationFlow::new(FlowConfig::default())
            .run_with_faults(&soc)
            .unwrap();
        // Each fault carries exactly one class, so the per-source counts plus
        // everything else must add up to the universe.
        let counts = faults.counts();
        assert_eq!(counts.total(), report.total_faults);
        let sum: usize = UntestableSource::ALL
            .iter()
            .map(|&s| report.count_for(s))
            .sum();
        assert_eq!(sum, report.total_untestable());
    }

    #[test]
    fn toggle_discovery_matches_specification_on_small_soc() {
        let soc = SocBuilder::small().build();
        let spec_report = IdentificationFlow::new(FlowConfig::default())
            .run(&soc)
            .unwrap();
        let toggle_report = IdentificationFlow::new(FlowConfig {
            discovery: DiscoveryMode::ToggleAnalysis,
            toggle_max_cycles: 300,
            ..FlowConfig::default()
        })
        .run(&soc)
        .unwrap();
        // The toggle-derived debug-control count must be at least the
        // specification-derived one (the SBST suite may leave further inputs
        // untouched, e.g. the reset, which we exclude, so equality is the
        // common case) and never smaller.
        assert!(
            toggle_report.count_for(UntestableSource::DebugControl)
                >= spec_report.count_for(UntestableSource::DebugControl),
            "toggle {} < spec {}",
            toggle_report.count_for(UntestableSource::DebugControl),
            spec_report.count_for(UntestableSource::DebugControl)
        );
        // Scan and memory-map results are identical (they do not depend on
        // the discovery mode).
        assert_eq!(
            toggle_report.count_for(UntestableSource::Scan),
            spec_report.count_for(UntestableSource::Scan)
        );
        assert_eq!(
            toggle_report.count_for(UntestableSource::MemoryMap),
            spec_report.count_for(UntestableSource::MemoryMap)
        );
    }

    #[test]
    fn full_pipeline_runs_all_seven_stages_and_stays_consistent() {
        let soc = micro_soc();
        let (report, faults) = IdentificationFlow::new(micro_pipeline_config())
            .run_with_faults(&soc)
            .unwrap();
        assert_eq!(report.phases.len(), 7, "{report}");
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "baseline",
                "scan",
                "debug-control",
                "debug-observe",
                "memory-map",
                "sbst-sim",
                "atpg-proof"
            ]
        );
        // The simulation stage detects a substantial share of the universe.
        let sbst = report.phase("sbst-sim").unwrap();
        assert!(sbst.newly_classified > 0, "{report}");
        assert_eq!(faults.counts().detected, sbst.newly_classified);
        // The proof stage classifies from the survivors only, and its delta
        // shows up as the AtpgProof bucket. The pipeline is deterministic, so
        // a nonzero bucket is a stable property of this configuration.
        let proof = report.phase("atpg-proof").unwrap();
        assert!(proof.newly_classified > 0, "{report}");
        assert_eq!(
            proof.newly_classified,
            report.count_for(UntestableSource::AtpgProof)
        );
        assert!(proof.undetected_after <= sbst.undetected_after, "{report}");
        // Detected and proven populations are disjoint by construction.
        assert_eq!(report.counts, faults.counts());
        assert_eq!(report.counts.total(), report.total_faults);
    }

    #[test]
    fn sat_escalation_converts_aborts_and_reports_the_breakdown() {
        let soc = micro_soc();
        let portfolio = IdentificationFlow::new(micro_pipeline_config())
            .run(&soc)
            .unwrap();
        let podem_only_config = FlowConfig {
            proof: ProofStageConfig {
                use_sat: false,
                ..micro_pipeline_config().proof
            },
            ..micro_pipeline_config()
        };
        let podem_only = IdentificationFlow::new(podem_only_config)
            .run(&soc)
            .unwrap();
        let with = portfolio.engine_breakdown.expect("proof stage ran");
        let without = podem_only.engine_breakdown.expect("proof stage ran");
        // Same survivors reach the proof stage either way.
        let attempted =
            |b: &EngineBreakdown| b.test_exists_total() + b.proven_total() + b.aborted_total();
        assert_eq!(attempted(&with), attempted(&without));
        // With the portfolio off, no fault is ever attributed to SAT.
        assert_eq!(
            without.sat_test_exists + without.sat_proven + without.sat_aborted,
            0,
            "{podem_only}"
        );
        // The tiny backtrack budget leaves genuine aborts for SAT to work
        // on; the escalation must conclude some of them and can only ever
        // shrink the abort column.
        assert!(without.aborted_total() > 0, "{podem_only}");
        assert!(with.sat_proven + with.sat_test_exists > 0, "{portfolio}");
        assert!(
            with.aborted_total() < without.aborted_total(),
            "{portfolio}"
        );
        // Every proven outcome is one AtpgProof classification, and the
        // breakdown row reaches the rendered report.
        assert_eq!(
            portfolio.count_for(UntestableSource::AtpgProof),
            with.proven_total()
        );
        assert!(
            portfolio.count_for(UntestableSource::AtpgProof)
                >= podem_only.count_for(UntestableSource::AtpgProof)
        );
        assert!(portfolio.to_string().contains("proof engines: PODEM"));
        // Without a proof stage there is no breakdown to report.
        let screened = IdentificationFlow::new(FlowConfig::default())
            .run(&soc)
            .unwrap();
        assert!(screened.engine_breakdown.is_none());
    }

    #[test]
    fn proof_stage_classifications_are_thread_invariant() {
        let soc = micro_soc();
        let single = IdentificationFlow::new(micro_pipeline_config())
            .run_with_faults(&soc)
            .unwrap();
        let multi_config = FlowConfig {
            proof: ProofStageConfig {
                threads: 4,
                ..micro_pipeline_config().proof
            },
            ..micro_pipeline_config()
        };
        let multi = IdentificationFlow::new(multi_config)
            .run_with_faults(&soc)
            .unwrap();
        // Identical classifications fault-by-fault, not just identical counts.
        assert_eq!(single.0.counts, multi.0.counts);
        for ((f1, c1), (f2, c2)) in single.1.iter().zip(multi.1.iter()) {
            assert_eq!(f1, f2);
            assert_eq!(c1, c2, "{f1:?}");
        }
    }

    #[test]
    fn proof_cap_limits_the_attempted_population() {
        let soc = micro_soc();
        let capped = FlowConfig {
            proof: ProofStageConfig {
                max_faults: Some(40),
                ..micro_pipeline_config().proof
            },
            ..micro_pipeline_config()
        };
        let report = IdentificationFlow::new(capped).run(&soc).unwrap();
        // At most 40 faults were attempted, so at most 40 can be proven.
        assert!(
            report.count_for(UntestableSource::AtpgProof) <= 40,
            "{report}"
        );
    }

    #[test]
    fn accelerations_do_not_change_the_proof_bucket() {
        // Cone clipping changes no decision and collapse expansion is sound,
        // so switching both off must classify identically fault-by-fault
        // (SCOAP stays off on both sides: it may legitimately move the abort
        // boundary under a finite backtrack budget).
        let soc = micro_soc();
        let accelerated = FlowConfig {
            proof: ProofStageConfig {
                use_scoap: false,
                ..micro_pipeline_config().proof
            },
            ..micro_pipeline_config()
        };
        let plain = FlowConfig {
            proof: ProofStageConfig {
                use_collapse: false,
                cone_clip: false,
                use_scoap: false,
                ..micro_pipeline_config().proof
            },
            ..micro_pipeline_config()
        };
        let fast = IdentificationFlow::new(accelerated)
            .run_with_faults(&soc)
            .unwrap();
        let slow = IdentificationFlow::new(plain)
            .run_with_faults(&soc)
            .unwrap();
        assert_eq!(fast.0.counts, slow.0.counts);
        for ((f1, c1), (f2, c2)) in fast.1.iter().zip(slow.1.iter()) {
            assert_eq!(f1, f2);
            assert_eq!(c1, c2, "{f1:?}");
        }
    }

    #[test]
    fn seeded_proof_sampling_is_deterministic_and_respects_the_cap() {
        let soc = micro_soc();
        let sampled = |seed: u64| FlowConfig {
            proof: ProofStageConfig {
                max_faults: Some(40),
                sample_seed: Some(seed),
                ..micro_pipeline_config().proof
            },
            ..micro_pipeline_config()
        };
        let a = IdentificationFlow::new(sampled(7)).run(&soc).unwrap();
        let b = IdentificationFlow::new(sampled(7)).run(&soc).unwrap();
        assert_eq!(a.counts, b.counts, "same seed, same sample, same result");
        assert!(a.count_for(UntestableSource::AtpgProof) <= 40, "{a}");
        // A different seed draws a different sample of the same survivors;
        // the stage still runs and the cap still holds.
        let c = IdentificationFlow::new(sampled(8)).run(&soc).unwrap();
        assert!(c.count_for(UntestableSource::AtpgProof) <= 40, "{c}");
    }

    /// A small combinational circuit with a mission-constant input and an
    /// observation-only output, as a generic netlist design.
    fn generic_design() -> crate::design::NetlistDesign {
        use netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("generic");
        let a = b.input_bus("a", 4);
        let te = b.input("test_enable");
        let mut stage = Vec::new();
        for i in 0..4 {
            // `test_enable` gates every bit, so forcing it to 0 makes logic
            // untestable; one bit also feeds a debug-only output.
            let gated = b.and2(a[i], te);
            stage.push(b.xor2(gated, a[(i + 1) % 4]));
        }
        let y = b.reduce_or(&stage);
        b.output("y", y);
        b.output("dbg", stage[0]);
        let n = b.finish();
        crate::design::NetlistDesign::with_constraints(
            n,
            &crate::design::ConstraintSpec {
                forced: vec![("test_enable".into(), false)],
                masked: vec!["dbg".into()],
            },
        )
        .unwrap()
    }

    #[test]
    fn generic_design_degrades_to_screen_plus_proof() {
        let design = generic_design();
        let config = FlowConfig {
            proof: ProofStageConfig {
                backtrack_limit: 16,
                threads: 1,
                ..ProofStageConfig::default()
            },
            ..FlowConfig::full_pipeline()
        };
        let (report, faults) = IdentificationFlow::new(config)
            .run_with_faults(&design)
            .unwrap();
        // Scan, memory-map and sbst-sim are skipped: the design has no scan
        // structure, no address registers and no stimuli.
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["baseline", "debug-control", "debug-observe", "atpg-proof"],
            "{report}"
        );
        assert_eq!(report.count_for(UntestableSource::Scan), 0);
        assert_eq!(report.count_for(UntestableSource::MemoryMap), 0);
        // The forced net makes the gating logic untestable on-line.
        assert!(
            report.count_for(UntestableSource::DebugControl) > 0,
            "{report}"
        );
        assert!(
            report.count_for(UntestableSource::DebugObservation) > 0,
            "{report}"
        );
        assert_eq!(report.counts, faults.counts());
        assert_eq!(report.counts.total(), report.total_faults);
    }

    #[test]
    fn unconstrained_netlist_runs_baseline_and_proof_only() {
        use netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("bare");
        let a = b.input_bus("a", 3);
        let x = b.and2(a[0], a[1]);
        let y = b.xor2(x, a[2]);
        b.output("y", y);
        let design = crate::design::NetlistDesign::new(b.finish());
        let report = IdentificationFlow::new(FlowConfig::full_pipeline())
            .run(&design)
            .unwrap();
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["baseline", "atpg-proof"], "{report}");
        // A fully controllable/observable circuit has nothing untestable.
        assert_eq!(report.total_untestable(), 0, "{report}");
    }

    #[test]
    fn phase_list_is_discovery_mode_invariant_for_bare_designs() {
        // The phase list is a capability fingerprint of the design: a bare
        // netlist (no control inputs, no stimuli) must skip debug-control
        // under Specification *and* ToggleAnalysis discovery alike.
        use netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("bare_toggle");
        let a = b.input_bus("a", 3);
        let y = b.and2(a[0], a[1]);
        let z = b.xor2(y, a[2]);
        b.output("z", z);
        let design = crate::design::NetlistDesign::new(b.finish());
        let phases = |discovery| {
            IdentificationFlow::new(FlowConfig {
                discovery,
                ..FlowConfig::full_pipeline()
            })
            .run(&design)
            .unwrap()
            .phases
            .iter()
            .map(|p| p.name.clone())
            .collect::<Vec<_>>()
        };
        assert_eq!(
            phases(DiscoveryMode::Specification),
            phases(DiscoveryMode::ToggleAnalysis)
        );
        assert_eq!(
            phases(DiscoveryMode::Specification),
            ["baseline", "atpg-proof"]
        );
    }

    #[test]
    fn generic_mission_constraints_cover_the_spec() {
        let design = generic_design();
        let flow = IdentificationFlow::new(FlowConfig::default());
        let constraints = flow.mission_constraints(&design).unwrap();
        assert_eq!(constraints.forced_nets.len(), 1);
        assert_eq!(constraints.masked_outputs.len(), 1);
    }

    #[test]
    fn mission_constraints_cover_every_tied_interface() {
        let soc = SocBuilder::small().build();
        let flow = IdentificationFlow::new(FlowConfig::default());
        let constraints = flow.mission_constraints(&soc).unwrap();
        // Every specification-tied input is forced.
        for (net, value) in soc.mission_tied_inputs() {
            assert_eq!(
                constraints.forced_nets.get(&net).copied(),
                Some(atpg::Logic::from_bool(value)),
                "net {} missing from the mission constraints",
                soc.netlist.net(net).name()
            );
        }
        // Every mission-unobserved output is masked.
        for po in soc.mission_unobserved_outputs() {
            assert!(
                constraints.masked_outputs.contains(&po),
                "output {} not masked",
                soc.netlist.cell(po).name()
            );
        }
        // The memory-map ties go beyond the primary inputs.
        assert!(constraints.forced_nets.len() > soc.mission_tied_inputs().len());
    }
}
