//! The service-mix workload: the real `untestabled` binary (`--workers 2`,
//! an empty state directory, so the result cache starts cold) under a
//! closed loop of two callers. Each caller submits a job (`POST /jobs`) and
//! polls it to a terminal state at [`POLL_INTERVAL`] before submitting the
//! next; about a quarter of the submissions resubmit one of the caller's
//! earlier jobs verbatim, which the result cache answers.
//!
//! After the loop the benchmark reads the daemon's `VmHWM`, shuts it down
//! (`POST /shutdown`) and checks the drained exit. Every served report must
//! equal the in-process `IdentificationFlow` report for the same circuit and
//! spec, computed after the timed loop, and every resubmission must be
//! answered with the first submission's report.
//!
//! The traced run repeats the loop on a second cold daemon and turns what
//! the callers saw into spans (POST, queued, running). Compute layers come
//! from the job reports' phases and from an in-process replay of each job's
//! proof worklist; the checkpoint layer from reopening the daemon's journals
//! (read path) and re-recording their verdicts into scratch files (write
//! path).

use crate::corpus::{caller_plan, CallerPlan};
use crate::flows::proof_metrics;
use crate::replay::{as_report, replay};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Recorder;
use crate::{work_dir, Args, Gate, Inject, Outcome};
use atpg::checkpoint::Checkpoint;
use atpg::proof::EngineBreakdown;
use atpg::ProofOutcome;
use faultmodel::FaultList;
use netlist::frontend::{parse_netlist, Format};
use online_untestable::{
    ConstraintSpec, Design, FlowConfig, IdentificationFlow, JsonValue, NetlistDesign,
    ProofStageConfig,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use untestabled::{client, JobProofConfig};

/// Closed-loop callers.
const CALLERS: u64 = 2;

/// The daemon's worker threads.
const DAEMON_WORKERS: usize = 2;

/// The callers' status-poll interval. The daemon's accept loop sleeps 5 ms
/// when idle, so a finer interval would only add load.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Cold daemon starts in set-up; `setup_s` is their median and the last
/// daemon serves the loop.
const SETUP_SPAWNS: usize = 7;

/// Submissions per second of run length (both callers together).
const JOBS_PER_SECOND: usize = 4;

/// Threads computing the in-process reference reports and replays.
const CHECK_THREADS: usize = 2;

/// Give-up limits: a job, a drain, a start.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Most SAT calls per PODEM call for the layer-mix check: SAT is nearly
/// idle on these jobs.
const SAT_CALL_SHARE_MAX: f64 = 0.01;

/// Screening phases of a netlist job (everything before `atpg-proof`).
const RULE_PHASES: [&str; 3] = ["baseline", "debug-control", "debug-observe"];

/// A running daemon; killed and reaped on drop unless shut down cleanly.
struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    state: PathBuf,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port over an empty state directory
    /// and waits until `GET /readyz` answers 200; returns it with the
    /// spawn-to-ready time.
    fn spawn(exe: &Path, state: PathBuf) -> Result<(Daemon, Duration), String> {
        let _ = std::fs::remove_dir_all(&state);
        std::fs::create_dir_all(&state)
            .map_err(|e| format!("cannot create {}: {e}", state.display()))?;
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(DAEMON_WORKERS.to_string())
            .arg("--state-dir")
            .arg(&state)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
            state,
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon startup: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("untestabled: listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        loop {
            if client::request(&daemon.addr, "GET", "/readyz", None).is_ok_and(|r| r.status == 200)
            {
                return Ok((daemon, start.elapsed()));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err("daemon never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `POST /shutdown` and waits for the drained exit; books the drain as
    /// one operation, failed unless the daemon exits 0.
    fn shutdown(mut self, gate: &mut Gate) {
        gate.attempt(1);
        let posted = client::shutdown(&self.addr, false);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        match (posted, status) {
            (Ok(_), Some(status)) if status.success() => {}
            (posted, status) => gate.fail(
                1,
                format!("daemon drain failed: shutdown request {posted:?}, exit {status:?}"),
            ),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Builds the real daemon from the repository (`cargo build --release -p
/// untestabled`) into the benchmark's target directory.
fn build_daemon(root: &Path) -> Result<PathBuf, String> {
    let target = work_dir()?
        .parent()
        .ok_or("work directory has no parent")?
        .to_path_buf();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "untestabled",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building untestabled failed: {status}"));
    }
    Ok(target.join("release").join("untestabled"))
}

/// What a caller saw of one submission; times count from the loop start.
#[derive(Clone, Debug)]
struct Submission {
    caller: usize,
    /// Index into the caller's fresh jobs.
    job: usize,
    resubmit: bool,
    submitted: Duration,
    accepted: Option<Duration>,
    /// First status poll past `queued`.
    started: Option<Duration>,
    /// Terminal state seen.
    finished: Option<Duration>,
    polls: u64,
    refused: bool,
    id: Option<u64>,
    cached: bool,
    /// The final status document.
    doc: Option<JsonValue>,
    error: Option<String>,
}

impl Submission {
    fn new(caller: usize, job: usize, resubmit: bool) -> Self {
        Submission {
            caller,
            job,
            resubmit,
            submitted: Duration::ZERO,
            accepted: None,
            started: None,
            finished: None,
            polls: 0,
            refused: false,
            id: None,
            cached: false,
            doc: None,
            error: None,
        }
    }

    fn latency_ms(&self) -> Option<f64> {
        self.finished
            .map(|f| (f - self.submitted).as_secs_f64() * 1e3)
    }

    fn state(&self) -> &str {
        self.doc
            .as_ref()
            .and_then(|d| d.get("state"))
            .and_then(JsonValue::as_str)
            .unwrap_or("")
    }

    fn report(&self) -> Option<&JsonValue> {
        self.doc.as_ref().and_then(|d| d.get("report"))
    }
}

fn is_terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled")
}

/// Submits one job and polls it to a terminal state.
fn submit_and_wait(addr: &str, body: &str, epoch: Instant, mut s: Submission) -> Submission {
    s.submitted = epoch.elapsed();
    let response = match client::submit(addr, body) {
        Ok(response) => response,
        Err(e) => {
            s.error = Some(format!("POST /jobs: {e}"));
            return s;
        }
    };
    s.accepted = Some(epoch.elapsed());
    if response.status != 202 {
        s.refused = response.status == 503;
        s.error = Some(format!("POST /jobs answered {}", response.status));
        return s;
    }
    let Some(ack) = response.json() else {
        s.error = Some("POST /jobs answered non-JSON".to_string());
        return s;
    };
    let Some(id) = ack.get("id").and_then(JsonValue::as_u64) else {
        s.error = Some("POST /jobs answered no id".to_string());
        return s;
    };
    s.id = Some(id);
    s.cached = ack.get("cached").and_then(JsonValue::as_bool) == Some(true);
    let acked_state = ack.get("state").and_then(JsonValue::as_str).unwrap_or("");
    if is_terminal(acked_state) {
        // Answered at submission (a cache hit): the latency ends here; the
        // report is fetched afterwards.
        s.started = s.accepted;
        s.finished = s.accepted;
    }
    loop {
        if s.finished.is_none() {
            std::thread::sleep(POLL_INTERVAL);
        }
        let status = match client::job_status(addr, id) {
            Ok(status) => status,
            Err(e) => {
                s.error = Some(format!("GET /jobs/{id}: {e}"));
                return s;
            }
        };
        s.polls += 1;
        let now = epoch.elapsed();
        let Some(doc) = status.json() else {
            s.error = Some(format!("GET /jobs/{id} answered non-JSON"));
            return s;
        };
        let state = doc.get("state").and_then(JsonValue::as_str).unwrap_or("");
        if state != "queued" && s.started.is_none() {
            s.started = Some(now);
        }
        if is_terminal(state) {
            s.finished.get_or_insert(now);
            s.doc = Some(doc);
            return s;
        }
        if now - s.submitted > JOB_TIMEOUT {
            s.error = Some(format!("job {id} still `{state}` after {JOB_TIMEOUT:?}"));
            return s;
        }
    }
}

/// Runs both callers to the end of their plans; returns every submission
/// and the loop's wall-clock.
fn closed_loop(
    addr: &str,
    plans: &[CallerPlan],
    bodies: &[Vec<String>],
) -> (Vec<Submission>, Duration) {
    let epoch = Instant::now();
    let submissions = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(bodies)
            .enumerate()
            .map(|(caller, (plan, bodies))| {
                scope.spawn(move || {
                    plan.order
                        .iter()
                        .map(|&(job, resubmit)| {
                            let blank = Submission::new(caller, job, resubmit);
                            submit_and_wait(addr, &bodies[job], epoch, blank)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread panicked"))
            .collect::<Vec<_>>()
    });
    (submissions, epoch.elapsed())
}

/// The daemon's flow for a default submission (`JobProofConfig::default()`,
/// no deadline, no checkpoint): the in-process reference.
fn reference_config() -> FlowConfig {
    let job = JobProofConfig::default();
    FlowConfig {
        run_atpg_proof: true,
        proof: ProofStageConfig {
            backtrack_limit: job.backtrack,
            threads: job.threads,
            max_faults: job.max_proof,
            sample_seed: job.seed,
            use_sat: job.sat,
            sat_conflict_limit: job.sat_conflicts,
            ..ProofStageConfig::default()
        },
        ..FlowConfig::full_pipeline()
    }
}

/// A report without its run-dependent `phases[].duration_ms` fields: the
/// part that must match between two runs of the same job.
fn verdict_part(report: &JsonValue) -> JsonValue {
    match report {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .filter(|(key, _)| key != "duration_ms")
                .map(|(key, value)| (key.clone(), verdict_part(value)))
                .collect(),
        ),
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(verdict_part).collect()),
        other => other.clone(),
    }
}

fn design_of(circuit: &str, constraints: &str) -> Result<NetlistDesign, String> {
    let netlist = parse_netlist(circuit, Format::Bench).map_err(|e| format!("circuit: {e}"))?;
    let spec = ConstraintSpec::parse(constraints).map_err(|e| format!("constraints: {e}"))?;
    NetlistDesign::with_constraints(netlist, &spec).map_err(|e| format!("constraints: {e}"))
}

/// Runs `work` over `0..n` on [`CHECK_THREADS`] threads, results in index
/// order.
fn parallel<T: Send>(n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..CHECK_THREADS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = work(i);
                results.lock().expect("result slot poisoned")[i] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .expect("result slot poisoned")
        .into_iter()
        .map(|v| v.expect("every index computed"))
        .collect()
}

/// Books every submission in the gate and checks each served report: fresh
/// jobs against the in-process reference, resubmissions against the
/// caller's first answer for the same job.
fn check_submissions(
    submissions: &[Submission],
    references: &[Vec<Result<String, String>>],
    inject: Option<Inject>,
    gate: &mut Gate,
) {
    gate.attempt(submissions.len() as u64);
    let mut first_answer: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut injected = false;
    for s in submissions {
        let what = format!("caller {} job {} (id {:?})", s.caller, s.job, s.id);
        if let Some(error) = &s.error {
            gate.fail(1, format!("{what}: {error}"));
            continue;
        }
        if s.state() != "done" {
            gate.fail(1, format!("{what}: ended `{}`", s.state()));
            continue;
        }
        let Some(report) = s.report() else {
            gate.fail(1, format!("{what}: done without a report"));
            continue;
        };
        let mut served = report.to_string();
        if !s.resubmit && inject == Some(Inject::MismatchReport) && !injected {
            injected = true;
            served = served.replacen("\"total_faults\":", "\"total_faults\":1", 1);
        }
        if s.resubmit {
            match first_answer.get(&(s.caller, s.job)) {
                Some(first) if *first == served => {}
                _ => gate.fail(1, format!("{what}: resubmission answered differently")),
            }
            continue;
        }
        let parsed = JsonValue::parse(&served).map(|r| verdict_part(&r).to_string());
        match (&references[s.caller][s.job], parsed) {
            (Ok(expected), Ok(got)) if *expected == got => {}
            (Err(e), _) => gate.fail(1, format!("{what}: in-process reference failed: {e}")),
            _ => gate.fail(
                1,
                format!("{what}: served report differs from the in-process flow"),
            ),
        }
        first_answer.insert((s.caller, s.job), served);
    }
}

fn latency_quantile(submissions: &[Submission], cached: bool, q: f64) -> f64 {
    let values: Vec<f64> = submissions
        .iter()
        .filter(|s| s.error.is_none() && s.cached == cached)
        .filter_map(Submission::latency_ms)
        .collect();
    quantile(&values, q)
}

fn phases(report: &JsonValue) -> impl Iterator<Item = (&str, f64, f64)> + '_ {
    report
        .get("phases")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|p| {
            (
                p.get("name").and_then(JsonValue::as_str).unwrap_or(""),
                p.get("duration_ms")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
                p.get("newly_classified")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
            )
        })
}

fn file_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs the service-mix workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("crates/untestabled/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/untestabled not found".to_string());
    }
    let work = work_dir()?.join(format!("service-mix-{}", args.seed));
    let _ = std::fs::remove_dir_all(&work);
    let exe = build_daemon(&root)?;

    let per_caller = (JOBS_PER_SECOND * args.seconds as usize).div_ceil(CALLERS as usize);
    let plans: Vec<CallerPlan> = (0..CALLERS)
        .map(|c| caller_plan(args.seed, c, per_caller))
        .collect();
    let bodies: Vec<Vec<String>> = plans
        .iter()
        .map(|p| p.fresh.iter().map(|job| job.body()).collect())
        .collect();

    let mut gate = Gate::default();
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut daemon = None;
    for k in 0..SETUP_SPAWNS {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous, &mut gate);
        }
        let (started, ready) = Daemon::spawn(&exe, work.join(format!("state-{k}")))?;
        setups.push(ready.as_secs_f64());
        daemon = Some(started);
    }
    let daemon = daemon.expect("at least one spawn");
    let (submissions, wall) = closed_loop(&daemon.addr, &plans, &bodies);
    let peak_rss = peak_rss_mb(Some(daemon.child.id())).ok_or("cannot read the daemon's VmHWM")?;
    daemon.shutdown(&mut gate);

    // The in-process reference for every distinct job, outside the loop.
    let jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(c, p)| (0..p.fresh.len()).map(move |j| (c, j)))
        .collect();
    let flat = parallel(jobs.len(), |i| {
        let (c, j) = jobs[i];
        let job = &plans[c].fresh[j];
        let design = design_of(&job.circuit, &job.constraints)?;
        IdentificationFlow::new(reference_config())
            .run(&design)
            .map(|report| verdict_part(&report.to_json()).to_string())
            .map_err(|e| e.to_string())
    });
    let mut references: Vec<Vec<Result<String, String>>> =
        plans.iter().map(|_| Vec::new()).collect();
    for ((c, _), reference) in jobs.iter().zip(flat) {
        references[*c].push(reference);
    }
    check_submissions(&submissions, &references, args.inject, &mut gate);

    let fresh = submissions.iter().filter(|s| !s.cached).count();
    let cached = submissions.len() - fresh;
    eprintln!(
        "service-mix: {} submissions ({fresh} fresh, {cached} cache hits) in {:.3} s",
        submissions.len(),
        wall.as_secs_f64()
    );
    let mut metrics = BTreeMap::new();
    if !args.trace {
        metrics.insert("setup_s", median(&setups));
        metrics.insert("identify_s", wall.as_secs_f64());
        metrics.insert("job_p50_ms", latency_quantile(&submissions, false, 0.5));
        metrics.insert("job_p90_ms", latency_quantile(&submissions, false, 0.9));
        metrics.insert("peak_rss_mb", peak_rss);
        return Ok(Outcome {
            gate,
            metrics,
            traced: false,
            mix_failures: Vec::new(),
        });
    }

    // The traced loop: a second cold daemon, the same submissions.
    let (daemon, _) = Daemon::spawn(&exe, work.join("state-traced"))?;
    let state = daemon.state.clone();
    let (traced, traced_wall) = closed_loop(&daemon.addr, &plans, &bodies);
    daemon.shutdown(&mut gate);
    check_submissions(&traced, &references, args.inject, &mut gate);
    let mut rec = Recorder::new(Instant::now());
    let epoch = rec.epoch();
    for (k, s) in traced.iter().enumerate() {
        let at = |d: Duration| epoch + d;
        let end = s.finished.or(s.accepted).unwrap_or(s.submitted);
        let job = rec.record("job", "", at(s.submitted), at(end), None, k as u64, s.polls);
        // The service spans describe fresh jobs; cache hits have their own
        // latency metric.
        if s.cached {
            continue;
        }
        if let Some(accepted) = s.accepted {
            rec.record(
                "service.post",
                "",
                at(s.submitted),
                at(accepted),
                Some(job),
                k as u64,
                0,
            );
            if let (Some(started), Some(finished)) = (s.started, s.finished) {
                rec.record(
                    "service.queued",
                    "",
                    at(accepted),
                    at(started),
                    Some(job),
                    k as u64,
                    0,
                );
                rec.record(
                    "service.running",
                    "",
                    at(started),
                    at(finished),
                    Some(job),
                    k as u64,
                    0,
                );
            }
        }
    }

    let fresh_done: Vec<&Submission> = traced
        .iter()
        .filter(|s| !s.cached && !s.resubmit && s.error.is_none() && s.report().is_some())
        .collect();
    let replays_root = rec.open("replays", None, 0);
    let layer_runs = parallel(fresh_done.len(), |i| {
        let s = fresh_done[i];
        let job = &plans[s.caller].fresh[s.job];
        let mut local = Recorder::new(epoch);
        layer_work(job, i as u64, &mut local).map(|tally| (tally, local))
    });
    rec.close(replays_root);
    let mut totals = LayerTotals::default();
    for (s, run) in fresh_done.iter().zip(layer_runs) {
        match run {
            Ok((tally, local)) => {
                let served = s
                    .report()
                    .and_then(|r| r.get("engine_breakdown"))
                    .map(JsonValue::to_string);
                if served.as_deref() != Some(tally.breakdown.as_str()) {
                    gate.fail(
                        1,
                        format!(
                            "job {:?}: replay tally differs from the served breakdown",
                            s.id
                        ),
                    );
                }
                totals.add(&tally);
                rec.adopt(local, replays_root);
            }
            Err(e) => gate.fail(1, format!("job {:?}: layer replay failed: {e}", s.id)),
        }
    }
    checkpoint_layer(
        &state,
        &fresh_done,
        &plans,
        &work,
        &mut rec,
        &mut totals,
        &mut gate,
    );

    let overheads: Vec<f64> = fresh_done
        .iter()
        .filter_map(|s| {
            let phases_ms: f64 = phases(s.report()?).map(|(_, ms, _)| ms).sum();
            Some(s.latency_ms()? - phases_ms)
        })
        .collect();
    let span_ms = |name: &str| -> f64 {
        let values: Vec<f64> = rec
            .named(name)
            .map(|span| span.duration().as_secs_f64() * 1e3)
            .collect();
        median(&values)
    };
    let rules = |pick: fn(&(&str, f64, f64)) -> f64| -> f64 {
        fresh_done
            .iter()
            .filter_map(|s| s.report())
            .flat_map(phases)
            .filter(|p| RULE_PHASES.contains(&p.0))
            .map(|p| pick(&p))
            .sum()
    };
    let resubmissions = traced.iter().filter(|s| s.resubmit).count();
    let hits = traced.iter().filter(|s| s.cached).count();
    metrics.insert("netlist.parse_ms", median(&totals.parse_ms));
    metrics.insert("netlist.cells", median(&totals.cells));
    metrics.insert("rules.busy_s", rules(|p| p.1) / 1e3);
    metrics.insert("rules.classified", rules(|p| p.2));
    proof_metrics(&rec, totals.faults, totals.provers, &mut metrics);
    metrics.insert("unresolved", totals.unresolved as f64);
    metrics.insert("checkpoint.records", totals.records as f64);
    metrics.insert("checkpoint.bytes", totals.journal_bytes as f64);
    metrics.insert(
        "checkpoint.record_us",
        totals.record_time.as_secs_f64() * 1e6 / totals.records.max(1) as f64,
    );
    metrics.insert("checkpoint.resume_ms", median(&totals.resume_ms));
    metrics.insert("service.accept_ms", span_ms("service.post"));
    metrics.insert("service.queue_ms", span_ms("service.queued"));
    metrics.insert("service.run_ms", span_ms("service.running"));
    metrics.insert("service.overhead_ms", median(&overheads));
    metrics.insert("service.polls", traced.iter().map(|s| s.polls as f64).sum());
    metrics.insert(
        "service.refused",
        traced.iter().filter(|s| s.refused).count() as f64,
    );
    metrics.insert(
        "service.retries",
        traced
            .iter()
            .filter_map(|s| s.doc.as_ref()?.get("attempts")?.as_u64())
            .map(|a| a.saturating_sub(1) as f64)
            .sum(),
    );
    metrics.insert(
        "service.jobs_per_s",
        traced.len() as f64 / traced_wall.as_secs_f64(),
    );
    metrics.insert("cache.hits", hits as f64);
    metrics.insert("cache.hit_ratio", hits as f64 / resubmissions.max(1) as f64);
    metrics.insert("cache.bytes", file_bytes(&state.join("cache")) as f64);
    metrics.insert("cache.hit_p50_ms", latency_quantile(&traced, true, 0.5));
    metrics.insert("failed_share", gate.failed_share());
    metrics.insert(
        "trace.overhead",
        traced_wall.as_secs_f64() / wall.as_secs_f64(),
    );

    let mix_failures = service_mix_check(&metrics, fresh_done.len());
    let path = work_dir()?.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    rec.write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(Outcome {
        gate,
        metrics,
        traced: true,
        mix_failures,
    })
}

/// What the in-process layer work on one job measured.
struct JobLayers {
    parse_ms: f64,
    cells: f64,
    faults: usize,
    provers: usize,
    unresolved: usize,
    /// The replay tally in the served report's JSON schema.
    breakdown: String,
}

#[derive(Default)]
struct LayerTotals {
    parse_ms: Vec<f64>,
    cells: Vec<f64>,
    faults: usize,
    provers: usize,
    unresolved: usize,
    records: usize,
    journal_bytes: u64,
    record_time: Duration,
    resume_ms: Vec<f64>,
}

impl LayerTotals {
    fn add(&mut self, job: &JobLayers) {
        self.parse_ms.push(job.parse_ms);
        self.cells.push(job.cells);
        self.faults += job.faults;
        self.provers += job.provers;
        self.unresolved += job.unresolved;
    }
}

/// Parses one job's circuit (timed) and replays its proof worklist as the
/// daemon ran it: every survivor of the screening stages, one worker.
fn layer_work(
    job: &crate::corpus::JobSpec,
    scope: u64,
    rec: &mut Recorder,
) -> Result<JobLayers, String> {
    let start = Instant::now();
    let netlist =
        parse_netlist(&job.circuit, Format::Bench).map_err(|e| format!("circuit: {e}"))?;
    let parsed = Instant::now();
    rec.record("netlist.parse", "", start, parsed, None, scope, 0);
    let cells = netlist.num_cells() as f64;
    let spec = ConstraintSpec::parse(&job.constraints).map_err(|e| format!("constraints: {e}"))?;
    let design = NetlistDesign::with_constraints(netlist, &spec).map_err(|e| e.to_string())?;
    let config = reference_config();
    let flow = IdentificationFlow::new(FlowConfig {
        run_atpg_proof: false,
        ..config.clone()
    });
    let (_, master) = flow.run_with_faults(&design).map_err(|e| e.to_string())?;
    let constraints = flow
        .mission_constraints(&design)
        .map_err(|e| e.to_string())?;
    let faults: Vec<_> = master.undetected().map(|(_, fault)| fault).collect();
    let proof = rec.open("proof", None, scope);
    let replayed = replay(
        design.netlist(),
        &constraints,
        &faults,
        config.proof.threads,
        rec,
        proof,
        scope,
    );
    rec.close(proof);
    let tally = EngineBreakdown::from_outcomes(&replayed.outcomes);
    Ok(JobLayers {
        parse_ms: (parsed - start).as_secs_f64() * 1e3,
        cells,
        faults: faults.len(),
        provers: replayed.provers,
        unresolved: replayed
            .outcomes
            .iter()
            .filter(|o| o.outcome == ProofOutcome::Aborted)
            .count(),
        breakdown: as_report(&tally).to_json().to_string(),
    })
}

/// The checkpoint layer on the daemon's own journals: reopen each fresh
/// job's `campaign.ckpt` (read path), then re-record its verdicts into a
/// scratch file (write path).
fn checkpoint_layer(
    state: &Path,
    fresh_done: &[&Submission],
    plans: &[CallerPlan],
    work: &Path,
    rec: &mut Recorder,
    totals: &mut LayerTotals,
    gate: &mut Gate,
) {
    let scratch_dir = work.join("checkpoint-rewrite");
    let _ = std::fs::remove_dir_all(&scratch_dir);
    if let Err(e) = std::fs::create_dir_all(&scratch_dir) {
        gate.fail(1, format!("cannot create {}: {e}", scratch_dir.display()));
        return;
    }
    for s in fresh_done {
        let (Some(id), Some(doc)) = (s.id, s.doc.as_ref()) else {
            continue;
        };
        let Some(fingerprint) = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        else {
            gate.fail(1, format!("job {id}: status has no fingerprint"));
            continue;
        };
        let journal = state
            .join("jobs")
            .join(id.to_string())
            .join("campaign.ckpt");
        totals.journal_bytes += std::fs::metadata(&journal).map_or(0, |m| m.len());
        let start = Instant::now();
        let opened = Checkpoint::create_or_resume(&journal, fingerprint);
        let end = Instant::now();
        let loaded = match opened {
            Ok(checkpoint) => checkpoint,
            Err(e) => {
                gate.fail(1, format!("job {id}: journal does not reopen: {e}"));
                continue;
            }
        };
        rec.record(
            "checkpoint.resume",
            "",
            start,
            end,
            None,
            id,
            loaded.loaded() as u64,
        );
        totals.resume_ms.push((end - start).as_secs_f64() * 1e3);
        let job = &plans[s.caller].fresh[s.job];
        let Ok(netlist) = parse_netlist(&job.circuit, Format::Bench) else {
            continue;
        };
        let rewrite =
            match Checkpoint::create_or_resume(scratch_dir.join(format!("{id}.ckpt")), fingerprint)
            {
                Ok(rewrite) => rewrite,
                Err(e) => {
                    gate.fail(1, format!("job {id}: scratch journal: {e}"));
                    continue;
                }
            };
        let write_start = Instant::now();
        let mut written = 0u64;
        for &fault in FaultList::full_universe(&netlist).faults() {
            if let Some(verdict) = loaded.concluded(fault) {
                let t = Instant::now();
                rewrite.record(fault, verdict);
                totals.record_time += t.elapsed();
                written += 1;
            }
        }
        if let Err(e) = rewrite.sync() {
            gate.fail(1, format!("job {id}: scratch journal: {e}"));
        }
        rec.record(
            "checkpoint.record",
            "",
            write_start,
            Instant::now(),
            None,
            id,
            written,
        );
        totals.records += written as usize;
        if written as usize != loaded.loaded() {
            gate.fail(
                1,
                format!(
                    "job {id}: journal holds {} verdicts, {written} re-recorded",
                    loaded.loaded()
                ),
            );
        }
    }
}

/// The layer mix service-mix was chosen for: SAT nearly idle, PODEM the
/// largest compute layer.
fn service_mix_check(metrics: &BTreeMap<&'static str, f64>, fresh_jobs: usize) -> Vec<String> {
    let get = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
    let mut failures = Vec::new();
    let per_job = |name: &str| get(name) / fresh_jobs.max(1) as f64;
    eprintln!(
        "per fresh job: {:.1} PODEM calls, {:.2} SAT calls",
        per_job("podem.calls"),
        per_job("sat.calls")
    );
    if per_job("sat.calls") > SAT_CALL_SHARE_MAX * per_job("podem.calls") {
        failures.push(format!(
            "{:.2} SAT calls per fresh job is above {:.0} % of its {:.1} PODEM calls",
            per_job("sat.calls"),
            SAT_CALL_SHARE_MAX * 100.0,
            per_job("podem.calls")
        ));
    }
    let podem = get("podem.busy_s");
    let parse_s = get("netlist.parse_ms") * fresh_jobs as f64 / 1e3;
    for (layer, busy) in [
        ("sat.busy_s", get("sat.busy_s")),
        ("rules.busy_s", get("rules.busy_s")),
        ("proof.busy_s", get("proof.busy_s")),
        ("netlist parse", parse_s),
    ] {
        if busy >= podem {
            failures.push(format!(
                "podem.busy_s {podem:.3} s is not above {layer} {busy:.3} s"
            ));
        }
    }
    failures
}
