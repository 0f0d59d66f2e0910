//! The [`Design`] abstraction: what the identification pipeline needs to
//! know about a device under analysis.
//!
//! The paper's method is not specific to one microprocessor — it takes a
//! gate-level circuit plus a description of its mission environment (which
//! inputs are tied off in the field, which outputs nothing reads, how the
//! memory map freezes address bits, and optionally functional stimuli). This
//! module captures exactly that contract:
//!
//! * [`Design`] — the trait the [`flow`](crate::flow) pipeline runs against.
//!   Every accessor is optional except the netlist itself; stages whose
//!   prerequisite the design cannot provide are skipped, so a pure netlist
//!   degrades gracefully to the *screen + proof* pipeline while the full SoC
//!   runs all seven stages.
//! * [`cpu::soc::Soc`] implements the trait bit-identically to the
//!   hard-wired pre-refactor pipeline: same reports, same numbers.
//! * [`NetlistDesign`] — the generic implementation: any loaded circuit
//!   (e.g. an ISCAS `.bench` file via [`netlist::frontend`]) plus a
//!   [`ConstraintSpec`] of forced nets and masked observation points.

use atpg::InputVector;
use cpu::mem::MemoryMap;
use cpu::sbst::{standard_suite, suite_stimuli};
use cpu::soc::Soc;
use netlist::frontend::ParseError;
use netlist::{CellId, CellKind, NetId, Netlist};
use std::collections::HashMap;

/// The scan structure of a design, as the §3.1 rule and the mission
/// constraints need it.
#[derive(Clone, Debug)]
pub struct ScanSpec {
    /// Prefix of the per-chain scan-in primary inputs.
    pub scan_in_prefix: String,
    /// Prefix of the per-chain scan-out primary outputs.
    pub scan_out_prefix: String,
    /// The value the scan-enable signal holds in mission mode.
    pub mission_scan_enable_value: bool,
    /// The scan-enable net, when one exists.
    pub scan_enable_net: Option<NetId>,
    /// Per-chain interface nets/ports.
    pub chains: Vec<ScanChainSpec>,
}

/// One scan chain's mission-relevant interface.
#[derive(Clone, Debug)]
pub struct ScanChainSpec {
    /// The net driven by the scan-in primary input.
    pub scan_in_net: NetId,
    /// The scan-out `Output` pseudo-cell.
    pub scan_out_port: CellId,
}

/// The memory-map information the §3.3 rule needs.
#[derive(Clone, Debug)]
pub struct MemoryMapSpec {
    /// Flip-flops that hold one bit of a memory address, tagged with the bit
    /// index.
    pub address_registers: Vec<(CellId, u32)>,
    /// The mission memory map.
    pub map: MemoryMap,
}

/// Functional stimuli for the simulation-based stages.
#[derive(Clone, Debug)]
pub struct StimulusSet {
    /// One vector sequence per test program (faults detected by any batch
    /// count as detected).
    pub batches: Vec<Vec<InputVector>>,
    /// The `Output` pseudo-cells a functional on-line test can observe.
    pub observed_outputs: Vec<CellId>,
}

/// A device under analysis: a netlist plus its mission environment.
///
/// Only [`netlist`](Design::netlist) is mandatory. The default for every
/// other accessor is "not available", which makes the corresponding pipeline
/// stage skip: a bare netlist runs baseline screening plus the
/// constraint-aware proof stage, while a full SoC provides everything and
/// runs the complete staged pipeline.
pub trait Design {
    /// The gate-level circuit.
    fn netlist(&self) -> &Netlist;

    /// The debug/test control inputs that are tied to constants in mission
    /// mode, per the integration specification (the flow can alternatively
    /// re-derive them from toggle analysis when stimuli are available).
    fn control_inputs(&self) -> Vec<(NetId, bool)> {
        Vec::new()
    }

    /// The observation-only outputs nothing reads in mission mode
    /// (excluding scan-outs, which belong to [`scan_spec`](Design::scan_spec)).
    fn observation_outputs(&self) -> Vec<CellId> {
        Vec::new()
    }

    /// The scan structure, when the design has one.
    fn scan_spec(&self) -> Option<ScanSpec> {
        None
    }

    /// The memory-map constraints, when the design has address registers.
    fn memory_map_spec(&self) -> Option<MemoryMapSpec> {
        None
    }

    /// Whether [`stimuli`](Design::stimuli) returns anything, *without*
    /// paying for stimulus generation (the pipeline gates the simulation
    /// stage on this so generation cost stays attributed to the stage).
    fn provides_stimuli(&self) -> bool {
        false
    }

    /// Functional stimuli (e.g. an SBST suite run through an ISS), capped at
    /// `max_cycles` per batch.
    fn stimuli(&self, max_cycles: usize) -> Option<StimulusSet> {
        let _ = max_cycles;
        None
    }

    /// The primary inputs the mission application actually drives — excluded
    /// from toggle-analysis suspicion.
    fn functional_inputs(&self) -> Vec<NetId> {
        Vec::new()
    }
}

impl Design for Soc {
    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn control_inputs(&self) -> Vec<(NetId, bool)> {
        let scan_nets: Vec<NetId> = self
            .scan
            .chains
            .iter()
            .map(|chain| chain.scan_in_net)
            .chain(self.scan.scan_enable_net)
            .collect();
        self.mission_tied_inputs()
            .into_iter()
            .filter(|(net, _)| !scan_nets.contains(net))
            .collect()
    }

    fn observation_outputs(&self) -> Vec<CellId> {
        let scan_outs: Vec<CellId> = self.scan.chains.iter().map(|c| c.scan_out_port).collect();
        self.mission_unobserved_outputs()
            .into_iter()
            .filter(|po| !scan_outs.contains(po))
            .collect()
    }

    fn scan_spec(&self) -> Option<ScanSpec> {
        Some(ScanSpec {
            scan_in_prefix: self.config.scan.scan_in_prefix.clone(),
            scan_out_prefix: self.config.scan.scan_out_prefix.clone(),
            mission_scan_enable_value: self.config.scan.mission_scan_enable_value,
            scan_enable_net: self.scan.scan_enable_net,
            chains: self
                .scan
                .chains
                .iter()
                .map(|chain| ScanChainSpec {
                    scan_in_net: chain.scan_in_net,
                    scan_out_port: chain.scan_out_port,
                })
                .collect(),
        })
    }

    fn memory_map_spec(&self) -> Option<MemoryMapSpec> {
        Some(MemoryMapSpec {
            address_registers: self.address_registers(),
            map: self.memory_map.clone(),
        })
    }

    fn provides_stimuli(&self) -> bool {
        true
    }

    fn stimuli(&self, max_cycles: usize) -> Option<StimulusSet> {
        let suite = standard_suite();
        let stimuli = suite_stimuli(&suite, &self.interface, max_cycles);
        Some(StimulusSet {
            batches: stimuli.into_iter().map(|s| s.vectors).collect(),
            observed_outputs: self.interface.bus_output_ports.clone(),
        })
    }

    fn functional_inputs(&self) -> Vec<NetId> {
        Soc::functional_inputs(self)
    }
}

// ---------------------------------------------------------------------------
// Generic netlist designs
// ---------------------------------------------------------------------------

/// A mission-constraint specification for a generic netlist design, as
/// parsed from a simple line-oriented spec file:
///
/// ```text
/// # mission environment of my_circuit
/// force test_enable 0     # net held constant in the field
/// force burn_in 1
/// mask debug_out          # observation point nothing reads in mission mode
/// ```
///
/// `force <net> <0|1>` declares a net tied to a constant; `mask <name>`
/// declares an output port (by port name or by the name of the net it
/// observes) that is unobservable in mission mode. `#` starts a comment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintSpec {
    /// Nets held at a constant value in mission mode, by name.
    pub forced: Vec<(String, bool)>,
    /// Mission-unobserved output ports, by port or net name.
    pub masked: Vec<String>,
}

impl ConstraintSpec {
    /// Parses the spec text. Errors use the shared frontend
    /// [`ParseError`] so drivers report uniform locations.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for unknown directives, malformed values,
    /// missing arguments and a `force` that contradicts an earlier `force` of
    /// the same net (repeating the same value is allowed).
    pub fn parse(text: &str) -> Result<ConstraintSpec, ParseError> {
        let mut spec = ConstraintSpec::default();
        // First `force` line and value of each net.
        let mut forced_at: HashMap<&str, (usize, bool)> = HashMap::new();
        for (index, raw_line) in text.lines().enumerate() {
            let line = index + 1;
            let code = raw_line.split('#').next().unwrap_or("").trim();
            if code.is_empty() {
                continue;
            }
            let mut words = code.split_whitespace();
            let directive = words.next().expect("non-empty line has a first word");
            match directive {
                "force" => {
                    let net = words.next().ok_or_else(|| {
                        ParseError::new(line, 1, "`force` needs a net name and a value")
                    })?;
                    let value = match words.next() {
                        Some("0") => false,
                        Some("1") => true,
                        Some(other) => {
                            return Err(ParseError::new(
                                line,
                                1,
                                format!("`force {net}` value must be 0 or 1"),
                            )
                            .with_token(other))
                        }
                        None => {
                            return Err(ParseError::new(
                                line,
                                1,
                                format!("`force {net}` is missing its value"),
                            ))
                        }
                    };
                    let &mut (first, earlier) = forced_at.entry(net).or_insert((line, value));
                    if earlier != value {
                        return Err(ParseError::new(
                            line,
                            1,
                            format!(
                                "`force {net} {}` contradicts `force {net} {}` on line {first}",
                                u8::from(value),
                                u8::from(earlier)
                            ),
                        )
                        .with_token(net));
                    }
                    spec.forced.push((net.to_string(), value));
                }
                "mask" => {
                    let name = words
                        .next()
                        .ok_or_else(|| ParseError::new(line, 1, "`mask` needs an output name"))?;
                    spec.masked.push(name.to_string());
                }
                other => {
                    return Err(ParseError::new(
                        line,
                        1,
                        format!("unknown directive `{other}` (expected `force` or `mask`)"),
                    )
                    .with_token(other))
                }
            }
            if let Some(extra) = words.next() {
                return Err(
                    ParseError::new(line, 1, "trailing text after directive").with_token(extra)
                );
            }
        }
        Ok(spec)
    }
}

/// Error produced while binding a [`ConstraintSpec`] to a netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A `force` directive names a net the design does not have.
    UnknownNet {
        /// The offending name.
        name: String,
    },
    /// A `mask` directive names neither an output port nor a net with output
    /// loads.
    UnknownOutput {
        /// The offending name.
        name: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownNet { name } => {
                write!(f, "constraint spec forces unknown net `{name}`")
            }
            SpecError::UnknownOutput { name } => write!(
                f,
                "constraint spec masks `{name}`, which is neither an output port \
                 nor a net observed by one"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// A generic device under analysis: any loaded netlist plus an optional
/// mission-constraint specification.
///
/// This is what the `untestable` CLI driver builds from a `.bench`, Verilog
/// or EDIF circuit. It provides no scan structure, memory map or stimuli, so
/// the pipeline degrades to *screen + proof*: baseline structural analysis,
/// the forced-net and masked-output screening rules, and the
/// constraint-aware PODEM proof stage.
#[derive(Clone, Debug)]
pub struct NetlistDesign {
    netlist: Netlist,
    forced: Vec<(NetId, bool)>,
    masked: Vec<CellId>,
}

impl NetlistDesign {
    /// A design with no mission constraints beyond the circuit itself.
    pub fn new(netlist: Netlist) -> Self {
        NetlistDesign {
            netlist,
            forced: Vec::new(),
            masked: Vec::new(),
        }
    }

    /// Binds `spec` to the netlist, resolving every name eagerly.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for names the netlist does not have.
    pub fn with_constraints(netlist: Netlist, spec: &ConstraintSpec) -> Result<Self, SpecError> {
        let mut forced = Vec::new();
        for (name, value) in &spec.forced {
            let net = netlist
                .find_net(name)
                .ok_or_else(|| SpecError::UnknownNet { name: name.clone() })?;
            forced.push((net, *value));
        }
        let mut masked = Vec::new();
        for name in &spec.masked {
            let mut ports: Vec<CellId> = Vec::new();
            if let Some(cell) = netlist.find_cell(name) {
                if netlist.cell(cell).kind() == CellKind::Output {
                    ports.push(cell);
                }
            }
            if ports.is_empty() {
                if let Some(net) = netlist.find_net(name) {
                    for load in netlist.loads_of(net) {
                        if netlist.cell(load.cell).kind() == CellKind::Output {
                            ports.push(load.cell);
                        }
                    }
                }
            }
            if ports.is_empty() {
                return Err(SpecError::UnknownOutput { name: name.clone() });
            }
            masked.extend(ports);
        }
        Ok(NetlistDesign {
            netlist,
            forced,
            masked,
        })
    }

    /// The nets the spec forces, resolved.
    pub fn forced_nets(&self) -> &[(NetId, bool)] {
        &self.forced
    }

    /// The output ports the spec masks, resolved.
    pub fn masked_outputs(&self) -> &[CellId] {
        &self.masked
    }
}

impl Design for NetlistDesign {
    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn control_inputs(&self) -> Vec<(NetId, bool)> {
        self.forced.clone()
    }

    fn observation_outputs(&self) -> Vec<CellId> {
        self.masked.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu::soc::SocBuilder;
    use netlist::NetlistBuilder;

    #[test]
    fn soc_control_inputs_are_the_specification_subset() {
        let soc = SocBuilder::small().build();
        let control = Design::control_inputs(&soc);
        assert!(!control.is_empty());
        // Exactly the mission-tied inputs minus the scan interface, which
        // scan_spec covers.
        let scan = soc.scan_spec().unwrap();
        let scan_nets: Vec<NetId> = scan
            .chains
            .iter()
            .map(|c| c.scan_in_net)
            .chain(scan.scan_enable_net)
            .collect();
        let expected: Vec<(NetId, bool)> = soc
            .mission_tied_inputs()
            .into_iter()
            .filter(|(net, _)| !scan_nets.contains(net))
            .collect();
        assert_eq!(control, expected);
    }

    #[test]
    fn soc_provides_every_capability() {
        let soc = SocBuilder::small().build();
        assert!(soc.scan_spec().is_some());
        assert!(soc.memory_map_spec().is_some());
        assert!(soc.provides_stimuli());
        let stimuli = soc.stimuli(50).unwrap();
        assert_eq!(stimuli.batches.len(), 4, "four SBST programs");
        assert!(!stimuli.observed_outputs.is_empty());
        assert!(!Design::functional_inputs(&soc).is_empty());
    }

    #[test]
    fn constraint_spec_parses_and_rejects() {
        let spec = ConstraintSpec::parse(
            "# header\nforce te 0\nforce burn_in 1  # inline comment\nmask dbg\n\n",
        )
        .unwrap();
        assert_eq!(
            spec,
            ConstraintSpec {
                forced: vec![("te".into(), false), ("burn_in".into(), true)],
                masked: vec!["dbg".into()],
            }
        );

        let err = ConstraintSpec::parse("force x 2\n").unwrap_err();
        assert!(err.message.contains("must be 0 or 1"), "{err}");
        assert_eq!(err.line, 1);
        let err = ConstraintSpec::parse("freeze x 0\n").unwrap_err();
        assert!(err.message.contains("unknown directive"), "{err}");
        assert_eq!(err.token.as_deref(), Some("freeze"));
        let err = ConstraintSpec::parse("force x 0 extra\n").unwrap_err();
        assert!(err.message.contains("trailing text"), "{err}");
        // A net forced to both values is a contradiction, reported where the
        // second value appears; repeating a value is harmless.
        let err = ConstraintSpec::parse("force x 0\nforce x 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.token.as_deref(), Some("x"));
        assert!(err.message.contains("line 1"), "{err}");
        ConstraintSpec::parse("force x 0\nforce x 0\n").unwrap();
    }

    fn tiny_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let te = b.input("te");
        let y = b.and2(a, te);
        b.output("y", y);
        b.output("dbg", te);
        b.finish()
    }

    #[test]
    fn netlist_design_resolves_names() {
        let spec = ConstraintSpec {
            forced: vec![("te".into(), false)],
            masked: vec!["dbg".into()],
        };
        let design = NetlistDesign::with_constraints(tiny_netlist(), &spec).unwrap();
        assert_eq!(design.forced_nets().len(), 1);
        assert_eq!(design.masked_outputs().len(), 1);
        assert_eq!(design.control_inputs(), design.forced_nets().to_vec());
        assert!(design.scan_spec().is_none());
        assert!(!design.provides_stimuli());
        assert!(design.stimuli(100).is_none());
    }

    #[test]
    fn netlist_design_reports_unknown_names() {
        let spec = ConstraintSpec {
            forced: vec![("nope".into(), false)],
            masked: vec![],
        };
        let err = NetlistDesign::with_constraints(tiny_netlist(), &spec).unwrap_err();
        assert!(matches!(err, SpecError::UnknownNet { .. }), "{err}");

        let spec = ConstraintSpec {
            forced: vec![],
            masked: vec!["a".into()], // an input net with no output load
        };
        let err = NetlistDesign::with_constraints(tiny_netlist(), &spec).unwrap_err();
        assert!(matches!(err, SpecError::UnknownOutput { .. }), "{err}");
    }

    #[test]
    fn masking_by_net_name_finds_the_port() {
        // `mask` may name the net an output observes rather than the port.
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a");
        let inv = b.not(a);
        b.output("obs_port", inv);
        let n = b.finish();
        let net_name = n.net(inv).name().to_string();
        let design = NetlistDesign::with_constraints(
            n,
            &ConstraintSpec {
                forced: vec![],
                masked: vec![net_name],
            },
        )
        .unwrap();
        assert_eq!(design.masked_outputs().len(), 1);
    }
}
