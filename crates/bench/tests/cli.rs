//! End-to-end tests of the `untestable` driver binary: clean one-line
//! diagnostics (exit 1) on bad inputs, the distinct exit status (2) when a
//! proof-stage deadline leaves faults unresolved, and the
//! checkpoint/resume flags, and the defaults `--help` states.

use online_untestable::flow::FlowConfig;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn circuit(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../circuits")
        .join(name)
}

fn untestable(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_untestable"))
        .args(args)
        .output()
        .expect("driver binary runs")
}

/// A self-cleaning per-test temp directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("untestable-cli-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn stderr_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).trim().to_string()
}

/// The diagnostic contract: exactly one stderr line, prefixed with the tool
/// name, and no panic backtrace.
fn assert_one_line_diagnostic(output: &Output) {
    let stderr = stderr_line(output);
    assert_eq!(
        stderr.lines().count(),
        1,
        "multi-line diagnostic:\n{stderr}"
    );
    assert!(
        stderr.starts_with("untestable: "),
        "missing tool prefix: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "diagnostic leaks a backtrace: {stderr}"
    );
}

#[test]
fn missing_file_fails_with_a_one_line_diagnostic() {
    let output = untestable(&["/nonexistent/design.bench"]);
    assert_eq!(output.status.code(), Some(1));
    assert_one_line_diagnostic(&output);
    assert!(stderr_line(&output).contains("cannot read"));
}

#[test]
fn parse_error_is_positioned_and_exits_one() {
    let dir = TempDir::new("parse-error");
    let bad = dir.file("broken.bench");
    std::fs::write(&bad, "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n").unwrap();
    let output = untestable(&[bad.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1));
    assert_one_line_diagnostic(&output);
    let stderr = stderr_line(&output);
    assert!(
        stderr.contains("line 3"),
        "diagnostic lost the source position: {stderr}"
    );
}

#[test]
fn expired_stage_deadline_exits_two() {
    let output = untestable(&[
        circuit("s27.bench").to_str().unwrap(),
        "--stage-timeout",
        "0",
        "--threads",
        "1",
    ]);
    assert_eq!(
        output.status.code(),
        Some(2),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("proof-stage deadline expired"),
        "no deadline notice:\n{stdout}"
    );
    assert!(
        stdout.contains("timeout"),
        "no abort attribution:\n{stdout}"
    );
}

#[test]
fn checkpoint_roundtrip_resumes_and_mismatch_is_refused() {
    let dir = TempDir::new("checkpoint");
    let ckpt = dir.file("s27.ckpt");
    let s27 = circuit("s27.bench");
    let args = [
        s27.to_str().unwrap(),
        "--threads",
        "1",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];

    // Wall-clock timings differ run to run; everything else must not.
    fn strip_timings(stdout: &[u8]) -> String {
        String::from_utf8_lossy(stdout)
            .lines()
            .filter(|line| !line.ends_with(" ms"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    let first = untestable(&args);
    assert_eq!(first.status.code(), Some(0), "{}", stderr_line(&first));
    assert!(ckpt.is_file(), "checkpoint file was not created");

    // Re-running against the populated checkpoint reproduces the report.
    let second = untestable(&args);
    assert_eq!(second.status.code(), Some(0), "{}", stderr_line(&second));
    assert_eq!(
        strip_timings(&first.stdout),
        strip_timings(&second.stdout),
        "resumed report diverged"
    );

    // A different proof configuration is a different campaign: the stale
    // checkpoint must be refused, not silently merged.
    let mismatched = untestable(&[
        s27.to_str().unwrap(),
        "--threads",
        "1",
        "--backtrack",
        "64",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(mismatched.status.code(), Some(1));
    assert_one_line_diagnostic(&mismatched);
    assert!(
        stderr_line(&mismatched).contains("fingerprint mismatch"),
        "wrong refusal diagnostic: {}",
        stderr_line(&mismatched)
    );
}

#[test]
fn bad_timeout_values_are_rejected_cleanly() {
    for value in ["-1", "forever"] {
        let output = untestable(&[
            circuit("s27.bench").to_str().unwrap(),
            "--stage-timeout",
            value,
        ]);
        assert_eq!(output.status.code(), Some(1), "value {value}");
        let stderr = stderr_line(&output);
        assert!(
            stderr.contains("--stage-timeout"),
            "diagnostic does not name the flag: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    }
}

#[test]
fn timeouts_past_the_last_instant_mean_no_deadline() {
    let output = untestable(&[
        circuit("c17.bench").to_str().unwrap(),
        "--stage-timeout",
        "1e19",
        "--fault-timeout",
        "1e19",
        "--json",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr_line(&output));
    assert!(output.stderr.is_empty(), "{}", stderr_line(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"panicked\":0"), "{stdout}");
}

#[test]
fn json_flag_prints_one_parseable_document_and_nothing_else() {
    use online_untestable::JsonValue;

    let output = untestable(&[
        circuit("s27.bench").to_str().unwrap(),
        "--threads",
        "1",
        "--json",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr_line(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        stdout.trim().lines().count(),
        1,
        "--json must print exactly one line:\n{stdout}"
    );
    let doc = JsonValue::parse(stdout.trim()).expect("stdout is one JSON document");
    assert!(doc.get("total_faults").and_then(JsonValue::as_u64).unwrap() > 0);
    assert!(doc.get("counts").is_some());
    assert!(doc.get("engine_breakdown").is_some());
    // The schema is the one the untestabled service serves: phase timings
    // are the only run-dependent fields.
    assert!(doc.get("phases").is_some());

    // A --no-proof run still emits the document, without a breakdown.
    let screened = untestable(&[
        circuit("s27.bench").to_str().unwrap(),
        "--no-proof",
        "--json",
    ]);
    assert_eq!(screened.status.code(), Some(0));
    let doc = JsonValue::parse(String::from_utf8_lossy(&screened.stdout).trim()).unwrap();
    assert!(doc.get("engine_breakdown").is_none());
}

#[test]
fn client_subcommands_round_trip_against_a_service() {
    use online_untestable::JsonValue;
    use std::net::TcpListener;
    use std::sync::Arc;
    use untestabled::{serve, Service, ServiceConfig};

    let dir = TempDir::new("client");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Service::start(ServiceConfig {
        state_dir: dir.file("state"),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let serve_service = Arc::clone(&service);
    let serve_thread = std::thread::spawn(move || serve(listener, serve_service));

    // submit --wait runs the job to conclusion and prints its final status.
    let submitted = untestable(&[
        "submit",
        circuit("s27.bench").to_str().unwrap(),
        "--addr",
        &addr,
        "--threads",
        "1",
        "--wait",
    ]);
    assert_eq!(
        submitted.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&submitted)
    );
    let doc = JsonValue::parse(String::from_utf8_lossy(&submitted.stdout).trim()).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));
    let id = doc.get("id").and_then(JsonValue::as_u64).unwrap();

    // job prints the same status document.
    let polled = untestable(&["job", &id.to_string(), "--addr", &addr]);
    assert_eq!(polled.status.code(), Some(0));
    let doc = JsonValue::parse(String::from_utf8_lossy(&polled.stdout).trim()).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));

    // Unknown ids are a refusal (404), mapped to exit 1.
    let missing = untestable(&["job", "9999", "--addr", &addr]);
    assert_eq!(missing.status.code(), Some(1));

    // cancel on a terminal job is an idempotent 200.
    let cancelled = untestable(&["cancel", &id.to_string(), "--addr", &addr]);
    assert_eq!(cancelled.status.code(), Some(0));

    // shutdown drains the daemon; the serve loop exits cleanly.
    let shutdown = untestable(&["shutdown", "--addr", &addr]);
    assert_eq!(shutdown.status.code(), Some(0));
    serve_thread.join().unwrap().unwrap();
}

#[test]
fn client_misuse_is_rejected_with_usage() {
    let output = untestable(&["submit"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("usage: untestable <submit|job|cancel|shutdown>"),
        "missing client usage: {stderr}"
    );
    let output = untestable(&["job", "not-a-number", "--addr", "127.0.0.1:1"]);
    assert_eq!(output.status.code(), Some(1));
    // An unreachable daemon is a clean one-line diagnostic, not a panic.
    let output = untestable(&["shutdown", "--addr", "127.0.0.1:1"]);
    assert_eq!(output.status.code(), Some(1));
    assert_one_line_diagnostic(&output);
    assert!(
        stderr_line(&output).contains("cannot reach"),
        "{}",
        stderr_line(&output)
    );
}

/// The default `help` states in `flag`'s entry: the text after `(default`
/// up to the closing parenthesis or a semicolon.
fn stated_default(help: &str, flag: &str) -> String {
    let mut lines = help
        .lines()
        .skip_while(|line| !line.trim_start().starts_with(&format!("{flag} ")));
    let first = lines
        .next()
        .unwrap_or_else(|| panic!("`{flag}` is not in the help text"));
    let continuation =
        lines.take_while(|line| line.starts_with("   ") && !line.trim_start().starts_with('-'));
    let entry: Vec<&str> = std::iter::once(first)
        .chain(continuation)
        .map(str::trim)
        .collect();
    let entry = entry.join(" ");
    let (_, default) = entry
        .split_once("(default")
        .unwrap_or_else(|| panic!("`{flag}` states no default: {entry}"));
    let default = default.trim_start_matches(':').trim_start();
    default[..default.find([')', ';']).expect("closed default")].to_string()
}

#[test]
fn help_states_the_defaults_of_the_proof_config() {
    let output = untestable(&["--help"]);
    assert_eq!(output.status.code(), Some(0));
    let help = String::from_utf8(output.stdout).unwrap();
    // The flags write into the proof stage of the full pipeline.
    let proof = FlowConfig::full_pipeline().proof;
    assert_eq!(
        stated_default(&help, "--backtrack"),
        proof.backtrack_limit.to_string()
    );
    assert_eq!(
        stated_default(&help, "--sat-conflicts"),
        proof.sat_conflict_limit.to_string()
    );
    assert_eq!(stated_default(&help, "--threads"), "all cores");
    assert_eq!(proof.threads, 0, "0 threads means all cores");
    assert_eq!(stated_default(&help, "--max-proof"), "all");
    assert_eq!(proof.max_faults, None);
}
