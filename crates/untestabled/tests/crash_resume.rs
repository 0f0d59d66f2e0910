//! The crash-safety contract, end to end against the real daemon binary:
//! `kill -9` mid-campaign, restart on the same state directory, and the
//! job's verdict is bit-identical to an uninterrupted fault-free run — even
//! when the kill (or the test) leaves a torn trailing record in the proof
//! journal. A resubmission after the resume is served from the result cache,
//! and a graceful shutdown exits 0.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use untestabled::{client, JsonValue};

fn circuit(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../circuits")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

/// A self-cleaning per-test temp directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("untestabled-crash-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The daemon binary under test, on an ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(state_dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_untestabled"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--state-dir",
                state_dir.to_str().unwrap(),
                "--workers",
                "1",
                "--enable-chaos",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon binary spawns");
        // Scrape the bound address from the startup line.
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon prints its address");
        let addr = line
            .trim()
            .strip_prefix("untestabled: listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        client::wait_healthy(&addr, Duration::from_secs(30)).unwrap();
        Daemon { child, addr }
    }

    /// SIGKILL — the process gets no chance to flush or clean up.
    fn kill_nine(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }

    /// Graceful shutdown over HTTP; returns the daemon's captured stderr and
    /// asserts exit status 0.
    fn shutdown_graceful(mut self) -> String {
        let response = client::shutdown(&self.addr, false).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let status = self.child.wait().unwrap();
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            pipe.read_to_string(&mut stderr).ok();
        }
        assert!(
            status.success(),
            "drained daemon exited {status:?}; stderr:\n{stderr}"
        );
        stderr
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn submit_accepted(addr: &str, body: &str) -> (u64, String, bool) {
    let response = client::submit(addr, body).unwrap();
    assert_eq!(response.status, 202, "refused: {}", response.body);
    let doc = response.json().unwrap();
    (
        doc.get("id").and_then(JsonValue::as_u64).unwrap(),
        doc.get("state")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string(),
        doc.get("cached").and_then(JsonValue::as_bool).unwrap(),
    )
}

/// The report with the run-dependent `phases` timings removed.
fn verdict_of(doc: &JsonValue) -> String {
    let report = doc.get("report").expect("done job carries a report");
    let fields = report
        .as_object()
        .expect("report is an object")
        .iter()
        .filter(|(name, _)| name.as_str() != "phases")
        .cloned()
        .collect();
    JsonValue::Object(fields).to_string()
}

#[test]
fn kill_nine_mid_campaign_resumes_bit_identically() {
    let clean_body = format!(
        "{{\"circuit\": {}, \"constraints\": {}, \"config\": {{\"threads\": 2}}}}",
        JsonValue::string(circuit("synth_c432.bench")),
        JsonValue::string(circuit("synth_c432.mission"))
    );
    // The victim run injects an engine-level stall on fault index 0: with
    // two proof threads, one worker wedges on fault 0 while the other keeps
    // journalling verdicts from later chunks — a campaign deterministically
    // held mid-flight, with real progress on disk to kill.
    let stalled_body = format!(
        "{}, \"chaos\": {{\"engine\": {{\"stall_on\": 0}}}}}}",
        clean_body.strip_suffix('}').unwrap()
    );

    // Reference: the same job on a pristine daemon, uninterrupted.
    let reference_dir = TempDir::new("reference");
    let reference_daemon = Daemon::spawn(&reference_dir.0);
    let (reference_id, _, _) = submit_accepted(&reference_daemon.addr, &clean_body);
    let reference = client::wait_terminal(
        &reference_daemon.addr,
        reference_id,
        Duration::from_secs(300),
    )
    .unwrap();
    assert_eq!(
        reference.get("state").and_then(JsonValue::as_str),
        Some("done")
    );
    let reference_verdict = verdict_of(&reference);
    reference_daemon.shutdown_graceful();

    // Victim: submit, wait for journalled proof progress, then SIGKILL.
    let state_dir = TempDir::new("victim");
    let victim = Daemon::spawn(&state_dir.0);
    let (id, _, _) = submit_accepted(&victim.addr, &stalled_body);
    assert_eq!(id, 1);
    let job_dir = state_dir.0.join("jobs").join("1");
    let checkpoint = job_dir.join("campaign.ckpt");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let verdicts = std::fs::read_to_string(&checkpoint)
            .map(|text| text.lines().filter(|l| l.starts_with("fault ")).count())
            .unwrap_or(0);
        if verdicts >= 10 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign journalled only {verdicts} verdicts"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    victim.kill_nine();
    assert!(
        !job_dir.join("result.json").exists(),
        "the job concluded before the kill; the test killed nothing"
    );

    // What survived the kill, up to the last complete record: the resumed
    // campaign must preserve it verbatim (verdicts are only appended).
    let surviving = std::fs::read(&checkpoint).unwrap();
    let valid_prefix = match surviving.iter().rposition(|&b| b == b'\n') {
        Some(last_newline) => surviving[..=last_newline].to_vec(),
        None => Vec::new(),
    };
    assert!(!valid_prefix.is_empty(), "no journalled progress survived");

    // Inject a torn trailing write on top of whatever the kill left: the
    // loader must drop exactly this unterminated record and keep the rest.
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&checkpoint)
            .unwrap();
        file.write_all(b"fault o TORN_MID_WRI").unwrap();
    }

    // The injected stall is a stand-in for a transient environmental hang,
    // so it does not recur on the rerun: re-journal the request without the
    // chaos section (circuit, constraints and config are unchanged, so the
    // campaign fingerprint — and with it the checkpoint and the cache key —
    // stays the same).
    std::fs::write(job_dir.join("request.json"), &clean_body).unwrap();

    // Restart on the same state directory: the interrupted job is recovered,
    // re-enqueued, and resumes from the journal instead of re-proving.
    let restarted = Daemon::spawn(&state_dir.0);
    let resumed = client::wait_terminal(&restarted.addr, 1, Duration::from_secs(300)).unwrap();
    assert_eq!(
        resumed.get("state").and_then(JsonValue::as_str),
        Some("done")
    );
    assert_eq!(verdict_of(&resumed), reference_verdict);
    assert_eq!(
        resumed.get("fingerprint").and_then(JsonValue::as_str),
        reference.get("fingerprint").and_then(JsonValue::as_str)
    );

    // The journalled prefix was preserved verbatim and the torn record is
    // gone — the campaign appended after it rather than rewriting history.
    let final_journal = std::fs::read(&checkpoint).unwrap();
    assert!(
        final_journal.starts_with(&valid_prefix),
        "resume rewrote the surviving journal prefix"
    );
    assert!(
        !final_journal.windows(4).any(|w| w == b"TORN"),
        "the torn record survived into the resumed journal"
    );
    assert!(
        final_journal.len() > valid_prefix.len(),
        "the resumed campaign journalled nothing new"
    );

    // An identical resubmission is now a cache hit, served terminal `done`
    // at acceptance.
    let (resubmit_id, state, cached) = submit_accepted(&restarted.addr, &clean_body);
    assert_ne!(resubmit_id, 1);
    assert_eq!(state, "done");
    assert!(cached);
    let resubmitted = client::job_status(&restarted.addr, resubmit_id)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(verdict_of(&resubmitted), reference_verdict);

    // Graceful shutdown drains and exits 0; the restart warned about the
    // torn record it dropped.
    let stderr = restarted.shutdown_graceful();
    assert!(
        stderr.contains("dropped torn trailing record"),
        "missing torn-record warning; stderr:\n{stderr}"
    );
}

#[test]
fn a_checkpoint_from_an_older_engine_is_discarded_on_restart() {
    let body = format!(
        "{{\"circuit\": {}}}",
        JsonValue::string(circuit("c17.bench"))
    );

    // Reference: the same job on a pristine daemon.
    let reference_dir = TempDir::new("epoch-reference");
    let reference_daemon = Daemon::spawn(&reference_dir.0);
    let (reference_id, _, _) = submit_accepted(&reference_daemon.addr, &body);
    let reference = client::wait_terminal(
        &reference_daemon.addr,
        reference_id,
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(
        reference.get("state").and_then(JsonValue::as_str),
        Some("done")
    );
    let fingerprint = reference
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    reference_daemon.shutdown_graceful();

    // A job interrupted under an older engine: its request is journalled,
    // and its proof checkpoint is keyed to the old engine's campaign and
    // holds one of that engine's aborts.
    let state_dir = TempDir::new("epoch-upgraded");
    let job_dir = state_dir.0.join("jobs").join("1");
    std::fs::create_dir_all(&job_dir).unwrap();
    std::fs::write(job_dir.join("request.json"), &body).unwrap();
    let checkpoint = job_dir.join("campaign.ckpt");
    std::fs::write(
        &checkpoint,
        "untestable-checkpoint v1\nfingerprint 0123456789abcdef\n\
         fault o 0 - 0 sat aborted conflicts\n",
    )
    .unwrap();

    // The upgraded daemon discards the stale journal and re-proves: the job
    // concludes on its first attempt with the fresh verdict, journalled
    // under the current fingerprint.
    let upgraded = Daemon::spawn(&state_dir.0);
    let resumed = client::wait_terminal(&upgraded.addr, 1, Duration::from_secs(60)).unwrap();
    assert_eq!(
        resumed.get("state").and_then(JsonValue::as_str),
        Some("done"),
        "{resumed}"
    );
    assert_eq!(resumed.get("attempts").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(verdict_of(&resumed), verdict_of(&reference));
    let journal = std::fs::read_to_string(&checkpoint).unwrap();
    assert_eq!(
        journal.lines().nth(1),
        Some(format!("fingerprint {fingerprint}").as_str())
    );
    assert!(!journal.contains("aborted"), "{journal}");
    let stderr = upgraded.shutdown_graceful();
    assert!(
        stderr.contains("discarding campaign.ckpt"),
        "missing stale-checkpoint notice; stderr:\n{stderr}"
    );
}
