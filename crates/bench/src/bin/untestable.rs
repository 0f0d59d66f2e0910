//! `untestable` — the generic identification-pipeline driver.
//!
//! Loads a gate-level circuit in any supported frontend format (`.bench`,
//! structural Verilog, EDIF subset), optionally binds a mission-constraint
//! specification (forced nets / masked observation points), and runs the
//! staged identification pipeline: baseline structural screen, the
//! constraint screening rules, and the multi-threaded constraint-aware
//! PODEM/SAT proof portfolio. Prints the per-stage report, the per-engine
//! breakdown and a classification summary.
//!
//! ```console
//! $ untestable circuits/synth_c432.bench --constraints circuits/synth_c432.mission
//! $ untestable circuits/s27.bench --threads 4 --backtrack 64
//! $ untestable design.edif --format edif --no-proof
//! ```

use netlist::frontend::{load_netlist, Format};
use netlist::stats::stats;
use online_untestable::design::{ConstraintSpec, NetlistDesign};
use online_untestable::flow::{FlowConfig, IdentificationFlow};
use online_untestable::JsonValue;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: untestable <circuit> [options]

Identify on-line functionally untestable stuck-at faults in a gate-level
circuit: structural screen, constraint screening rules, and a constraint-aware
PODEM/SAT proof portfolio over every surviving fault.

arguments:
  <circuit>             netlist file: .bench (ISCAS-85/89), .v (structural
                        Verilog) or .edif (structural EDIF subset)

options:
  --format <name>       override the format inferred from the extension
                        (bench | verilog | edif)
  --constraints <file>  mission-constraint spec: `force <net> <0|1>` and
                        `mask <output>` lines, `#` comments
  --threads <n>         proof-stage worker threads (default: all cores;
                        classifications are thread-invariant)
  --backtrack <n>       PODEM backtrack budget per fault (default 32)
  --max-proof <n>       cap the proof worklist at n survivors (default: all)
  --seed <s>            sample the capped worklist with this seed instead of
                        taking a prefix (only with --max-proof)
  --no-proof            structural screen only, skip the proof stage
  --no-sat              keep PODEM aborts instead of escalating them to the
                        SAT proof backend
  --sat-conflicts <n>   conflict budget per SAT escalation (default 20000)
  --stage-timeout <s>   wall-clock budget (seconds, fractional ok) for the
                        whole proof stage; faults not concluded by then come
                        back as timeout aborts and the exit status is 2
  --fault-timeout <s>   per-fault wall-clock limit (seconds, fractional ok)
  --checkpoint <file>   append concluded proof verdicts to this file and, on
                        a later run, re-prove only the faults it is missing;
                        the file is keyed to the circuit + constraints and
                        refused on mismatch
  --json                print the report as one JSON document on stdout
                        (the same schema the untestabled service serves)
                        instead of the human-readable summary
  -h, --help            this message

The first argument may instead be a client subcommand talking to a running
`untestabled` service: submit, job, cancel, shutdown (see
`untestable submit --help`).

exit status: 0 on success, 2 when a proof-stage deadline expired leaving
unresolved faults, 1 on any error";

const CLIENT_USAGE: &str = "usage: untestable <submit|job|cancel|shutdown> [options]

Talk to a running `untestabled` identification service
(default address 127.0.0.1:3999; override with --addr).

  untestable submit <circuit> [--constraints <file>] [--format <name>]
                    [--backtrack <n>] [--no-sat] [--sat-conflicts <n>]
                    [--threads <n>] [--max-proof <n>] [--seed <s>]
                    [--deadline-ms <n>] [--fault-timeout-ms <n>] [--wait]
      submit an identification job and print the acceptance document; with
      --wait, poll until the job concludes and print its final status
  untestable job <id>          print a job's status document
  untestable cancel <id>       cancel a job (queued or running)
  untestable shutdown [--now]  drain the daemon (--now aborts in-flight work)

exit status: 0 on a 2xx response (with --wait, additionally a `done` job),
1 otherwise";

struct Options {
    circuit: String,
    format: Option<Format>,
    constraints: Option<String>,
    json: bool,
    /// The full pipeline, with every proof-stage flag written into it.
    flow: FlowConfig,
}

fn parse_seconds(flag: &str, text: &str) -> Result<Duration, String> {
    let seconds: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    Duration::try_from_secs_f64(seconds)
        .map_err(|_| format!("{flag}: expected a non-negative number of seconds, got `{text}`"))
}

/// `Ok(None)` means `-h`/`--help` was requested: print usage to stdout and
/// exit successfully.
fn parse_options() -> Result<Option<Options>, String> {
    let mut options = Options {
        circuit: String::new(),
        format: None,
        constraints: None,
        json: false,
        flow: FlowConfig::full_pipeline(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let proof = &mut options.flow.proof;
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--format" => {
                let name = value("--format")?;
                options.format = Some(Format::from_name(&name).ok_or_else(|| {
                    format!("unknown format `{name}` (expected bench, verilog or edif)")
                })?);
            }
            "--constraints" => options.constraints = Some(value("--constraints")?),
            "--threads" => {
                proof.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--backtrack" => {
                proof.backtrack_limit = value("--backtrack")?
                    .parse()
                    .map_err(|e| format!("--backtrack: {e}"))?
            }
            "--max-proof" => {
                proof.max_faults = Some(
                    value("--max-proof")?
                        .parse()
                        .map_err(|e| format!("--max-proof: {e}"))?,
                )
            }
            "--seed" => {
                proof.sample_seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--no-proof" => options.flow.run_atpg_proof = false,
            "--no-sat" => proof.use_sat = false,
            "--sat-conflicts" => {
                proof.sat_conflict_limit = value("--sat-conflicts")?
                    .parse()
                    .map_err(|e| format!("--sat-conflicts: {e}"))?
            }
            "--stage-timeout" => {
                proof.stage_timeout = Some(parse_seconds(
                    "--stage-timeout",
                    &value("--stage-timeout")?,
                )?)
            }
            "--fault-timeout" => {
                proof.fault_timeout = Some(parse_seconds(
                    "--fault-timeout",
                    &value("--fault-timeout")?,
                )?)
            }
            "--checkpoint" => proof.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--json" => options.json = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n\n{USAGE}"))
            }
            positional if options.circuit.is_empty() => options.circuit = positional.to_string(),
            extra => return Err(format!("unexpected argument `{extra}`\n\n{USAGE}")),
        }
    }
    if options.circuit.is_empty() {
        return Err(format!("missing circuit file\n\n{USAGE}"));
    }
    Ok(Some(options))
}

/// `Ok(true)` means the run completed but a proof-stage deadline expired
/// with unresolved faults — the caller maps this to exit status 2.
fn run(options: &Options) -> Result<bool, String> {
    let format = options
        .format
        .or_else(|| Format::from_path(options.circuit.as_ref()))
        .ok_or_else(|| {
            format!(
                "cannot infer a format for `{}`; pass --format bench|verilog|edif",
                options.circuit
            )
        })?;
    let netlist = load_netlist(&options.circuit, Some(format)).map_err(|e| e.to_string())?;
    if !options.json {
        let s = stats(&netlist);
        println!("circuit        : {} ({})", netlist.name(), options.circuit);
        println!("format         : {format}");
        println!(
            "size           : {} gates, {} flip-flops, {} PIs, {} POs, {} stuck-at faults",
            s.combinational_cells,
            s.flip_flops + s.scan_flip_flops,
            s.primary_inputs,
            s.primary_outputs,
            s.stuck_at_faults()
        );
    }

    let design = match &options.constraints {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read constraint spec `{path}`: {e}"))?;
            let spec = ConstraintSpec::parse(&text)
                .map_err(|e| format!("constraint spec `{path}`: {e}"))?;
            let design = NetlistDesign::with_constraints(netlist, &spec)
                .map_err(|e| format!("constraint spec `{path}`: {e}"))?;
            if !options.json {
                println!(
                    "constraints    : {} forced net(s), {} masked output(s) from {path}",
                    design.forced_nets().len(),
                    design.masked_outputs().len()
                );
            }
            design
        }
        None => {
            if !options.json {
                println!("constraints    : none (structural screen + unconstrained proof)");
            }
            NetlistDesign::new(netlist)
        }
    };

    let report = IdentificationFlow::new(options.flow.clone())
        .run(&design)
        .map_err(|e| format!("identification flow: {e}"))?;
    let deadline_hit = report
        .engine_breakdown
        .as_ref()
        .is_some_and(|b| b.deadline_hit());
    if options.json {
        // One machine-readable document on stdout, nothing else: the same
        // schema the untestabled service serves and journals.
        println!("{}", report.to_json());
        return Ok(deadline_hit);
    }
    println!();
    println!("{report}");

    let untestable = report.baseline_structural + report.total_untestable();
    println!();
    println!("classification summary");
    println!("  fault universe        : {}", report.total_faults);
    println!("  untestable (total)    : {untestable}");
    println!(
        "  on-line untestable    : {} ({:.1}% of the universe)",
        report.total_untestable(),
        report.untestable_fraction() * 100.0
    );
    println!(
        "  proven by ATPG/SAT    : {}",
        report.count_for(faultmodel::UntestableSource::AtpgProof)
    );
    if let Some(breakdown) = &report.engine_breakdown {
        println!("  proof engines         : {breakdown}");
    }
    println!("  still unclassified    : {}", report.counts.undetected);

    if deadline_hit {
        println!();
        println!(
            "proof-stage deadline expired: {} fault(s) timed out; \
             re-run with --checkpoint to resume where this run stopped",
            report
                .engine_breakdown
                .as_ref()
                .map_or(0, |b| b.aborted_timeout)
        );
    }
    Ok(deadline_hit)
}

/// Exit status when a proof-stage deadline expired with unresolved faults:
/// the campaign survived, but its verdicts are incomplete.
const EXIT_DEADLINE: u8 = 2;

// ----------------------------------------------------------------------
// Client subcommands: the driver doubles as the untestabled service's CLI.
// ----------------------------------------------------------------------

const DEFAULT_ADDR: &str = "127.0.0.1:3999";

/// Builds the `POST /jobs` body for `submit` from the subcommand flags; the
/// keys mirror the service's request schema, and only explicitly-set knobs
/// are sent so the daemon's defaults apply otherwise.
struct SubmitOptions {
    circuit: String,
    format: Option<Format>,
    constraints: Option<String>,
    config: Vec<(String, JsonValue)>,
    wait: bool,
}

impl SubmitOptions {
    fn body(&self) -> Result<String, String> {
        let format = self
            .format
            .or_else(|| Format::from_path(self.circuit.as_ref()))
            .ok_or_else(|| {
                format!(
                    "cannot infer a format for `{}`; pass --format bench|verilog|edif",
                    self.circuit
                )
            })?;
        let text = std::fs::read_to_string(&self.circuit)
            .map_err(|e| format!("cannot read `{}`: {e}", self.circuit))?;
        let mut fields = vec![
            ("circuit".to_string(), JsonValue::string(text)),
            ("format".to_string(), JsonValue::string(format.to_string())),
        ];
        if let Some(path) = &self.constraints {
            let spec = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read constraint spec `{path}`: {e}"))?;
            fields.push(("constraints".to_string(), JsonValue::string(spec)));
        }
        if !self.config.is_empty() {
            fields.push(("config".to_string(), JsonValue::Object(self.config.clone())));
        }
        Ok(JsonValue::Object(fields).to_string())
    }
}

fn next_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    iter.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value\n\n{CLIENT_USAGE}"))
}

fn next_u64(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, String> {
    next_value(iter, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Runs one client subcommand; `Ok(ok)` carries whether the exchange (and,
/// for `submit --wait`, the job) succeeded.
fn run_client(subcommand: &str, args: &[String]) -> Result<bool, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut positionals: Vec<String> = Vec::new();
    let mut submit = SubmitOptions {
        circuit: String::new(),
        format: None,
        constraints: None,
        config: Vec::new(),
        wait: false,
    };
    let mut now = false;
    let mut iter = args.iter();
    fn config_u64(
        iter: &mut std::slice::Iter<'_, String>,
        flag: &str,
        key: &str,
        config: &mut Vec<(String, JsonValue)>,
    ) -> Result<(), String> {
        let n = next_u64(iter, flag)?;
        config.push((key.to_string(), n.into()));
        Ok(())
    }
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{CLIENT_USAGE}");
                return Ok(true);
            }
            "--addr" => addr = next_value(&mut iter, "--addr")?,
            "--format" if subcommand == "submit" => {
                let name = next_value(&mut iter, "--format")?;
                submit.format = Some(Format::from_name(&name).ok_or_else(|| {
                    format!("unknown format `{name}` (expected bench, verilog or edif)")
                })?);
            }
            "--constraints" if subcommand == "submit" => {
                submit.constraints = Some(next_value(&mut iter, "--constraints")?)
            }
            "--backtrack" if subcommand == "submit" => {
                config_u64(&mut iter, "--backtrack", "backtrack", &mut submit.config)?
            }
            "--no-sat" if subcommand == "submit" => {
                submit.config.push(("sat".to_string(), false.into()))
            }
            "--sat-conflicts" if subcommand == "submit" => config_u64(
                &mut iter,
                "--sat-conflicts",
                "sat_conflicts",
                &mut submit.config,
            )?,
            "--threads" if subcommand == "submit" => {
                config_u64(&mut iter, "--threads", "threads", &mut submit.config)?
            }
            "--max-proof" if subcommand == "submit" => {
                config_u64(&mut iter, "--max-proof", "max_proof", &mut submit.config)?
            }
            "--seed" if subcommand == "submit" => {
                config_u64(&mut iter, "--seed", "seed", &mut submit.config)?
            }
            "--deadline-ms" if subcommand == "submit" => config_u64(
                &mut iter,
                "--deadline-ms",
                "deadline_ms",
                &mut submit.config,
            )?,
            "--fault-timeout-ms" if subcommand == "submit" => config_u64(
                &mut iter,
                "--fault-timeout-ms",
                "fault_timeout_ms",
                &mut submit.config,
            )?,
            "--wait" if subcommand == "submit" => submit.wait = true,
            "--now" if subcommand == "shutdown" => now = true,
            other if other.starts_with('-') => {
                return Err(format!(
                    "unknown {subcommand} option `{other}`\n\n{CLIENT_USAGE}"
                ))
            }
            positional => positionals.push(positional.to_string()),
        }
    }

    let parse_id = |positionals: &[String]| -> Result<u64, String> {
        match positionals {
            [id] => id
                .parse()
                .map_err(|_| format!("`{id}` is not a job id\n\n{CLIENT_USAGE}")),
            _ => Err(format!("{subcommand} takes one job id\n\n{CLIENT_USAGE}")),
        }
    };
    let http = |result: std::io::Result<untestabled::client::HttpResponse>| {
        result.map_err(|e| format!("cannot reach {addr}: {e}"))
    };
    match subcommand {
        "submit" => {
            match positionals.as_slice() {
                [circuit] => submit.circuit = circuit.clone(),
                _ => return Err(format!("submit takes one circuit file\n\n{CLIENT_USAGE}")),
            }
            let response = http(untestabled::client::submit(&addr, &submit.body()?))?;
            if response.status != 202 || !submit.wait {
                println!("{}", response.body);
                return Ok(response.status == 202);
            }
            let id = response
                .json()
                .and_then(|doc| doc.get("id").and_then(JsonValue::as_u64))
                .ok_or_else(|| format!("malformed acceptance document: {}", response.body))?;
            let doc = untestabled::client::wait_terminal(&addr, id, Duration::from_secs(3600))
                .map_err(|e| format!("waiting on job {id}: {e}"))?;
            println!("{doc}");
            Ok(doc.get("state").and_then(JsonValue::as_str) == Some("done"))
        }
        "job" => {
            let response = http(untestabled::client::job_status(
                &addr,
                parse_id(&positionals)?,
            ))?;
            println!("{}", response.body);
            Ok(response.status == 200)
        }
        "cancel" => {
            let response = http(untestabled::client::cancel(&addr, parse_id(&positionals)?))?;
            println!("{}", response.body);
            Ok(response.status == 200)
        }
        "shutdown" => {
            if !positionals.is_empty() {
                return Err(format!("shutdown takes no arguments\n\n{CLIENT_USAGE}"));
            }
            let response = http(untestabled::client::shutdown(&addr, now))?;
            println!("{}", response.body);
            Ok(response.status == 200)
        }
        _ => unreachable!("dispatch only passes known subcommands"),
    }
}

fn client_main(subcommand: &str, args: &[String]) -> ExitCode {
    match run_client(subcommand, args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("untestable: {message}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(subcommand) = args.first() {
        if matches!(
            subcommand.as_str(),
            "submit" | "job" | "cancel" | "shutdown"
        ) {
            return client_main(subcommand.clone().as_str(), &args[1..]);
        }
    }
    let options = match parse_options() {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(EXIT_DEADLINE),
        Err(message) => {
            eprintln!("untestable: {message}");
            ExitCode::FAILURE
        }
    }
}
