//! End-to-end tests of the identification service, driven over real HTTP
//! against an in-process daemon: the happy path, backpressure, cancellation,
//! the supervised worker pool under injected panics and stalls, the result
//! cache, and graceful shutdown.
//!
//! The central invariant: every accepted job reaches a terminal state, and a
//! `done` verdict is bit-identical (modulo the run-dependent `phases`
//! timings) to the one a fault-free run produces.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use untestabled::{client, serve, JsonValue, Service, ServiceConfig};

const C17: &str = "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

/// A self-cleaning per-test temp directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("untestabled-svc-{}-{tag}", std::process::id()));
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

/// One in-process daemon on an ephemeral port with its own state directory.
struct TestServer {
    addr: String,
    service: Arc<Service>,
    serve_thread: Option<JoinHandle<std::io::Result<()>>>,
    _dir: TempDir,
}

impl TestServer {
    fn start(tag: &str, tune: impl FnOnce(&mut ServiceConfig)) -> TestServer {
        let dir = TempDir::new(tag);
        let mut config = ServiceConfig {
            state_dir: dir.0.clone(),
            workers: 2,
            queue_capacity: 8,
            max_retries: 2,
            backoff: Duration::from_millis(10),
            enable_chaos: true,
            ..ServiceConfig::default()
        };
        tune(&mut config);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let service = Service::start(config).unwrap();
        let serve_service = Arc::clone(&service);
        let serve_thread = std::thread::spawn(move || serve(listener, serve_service));
        TestServer {
            addr,
            service,
            serve_thread: Some(serve_thread),
            _dir: dir,
        }
    }

    /// Submits a body, asserting acceptance, and returns `(id, state, cached)`.
    fn submit(&self, body: &str) -> (u64, String, bool) {
        let response = client::submit(&self.addr, body).unwrap();
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

    fn wait_state(&self, id: u64, state: &str, timeout: Duration) {
        let started = Instant::now();
        loop {
            let doc = client::job_status(&self.addr, id).unwrap().json().unwrap();
            let current = doc.get("state").and_then(JsonValue::as_str).unwrap_or("");
            if current == state {
                return;
            }
            assert!(
                started.elapsed() < timeout,
                "job {id} is `{current}`, not `{state}`, after {timeout:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Hard shutdown; asserts the serve loop exits cleanly.
    fn stop(mut self) {
        self.service.request_shutdown(true);
        self.serve_thread.take().unwrap().join().unwrap().unwrap();
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(thread) = self.serve_thread.take() {
            self.service.request_shutdown(true);
            let _ = thread.join();
        }
    }
}

fn c17_body(extra: &str) -> String {
    format!("{{\"circuit\": {}{extra}}}", JsonValue::string(C17))
}

/// The report with the run-dependent `phases` timings removed: everything
/// left must be bit-identical across retries, restarts and fault injection.
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
fn submit_runs_to_done_with_a_report() {
    let server = TestServer::start("happy", |_| {});

    let health = client::request(&server.addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let ready = client::request(&server.addr, "GET", "/readyz", None).unwrap();
    assert_eq!(ready.status, 200);

    let (id, state, cached) = server.submit(&c17_body(""));
    assert_eq!(state, "queued");
    assert!(!cached);
    let doc = client::wait_terminal(&server.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(doc.get("attempts").and_then(JsonValue::as_u64), Some(1));
    let report = doc.get("report").unwrap();
    assert!(
        report
            .get("design")
            .and_then(JsonValue::as_str)
            .is_some_and(|name| !name.is_empty()),
        "report carries a design name"
    );
    assert!(
        report
            .get("total_faults")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    assert!(report.get("counts").is_some());

    server.stop();
}

#[test]
fn unknown_jobs_and_endpoints_are_clean_404s() {
    let server = TestServer::start("notfound", |_| {});
    assert_eq!(client::job_status(&server.addr, 999).unwrap().status, 404);
    assert_eq!(client::cancel(&server.addr, 999).unwrap().status, 404);
    assert_eq!(
        client::request(&server.addr, "GET", "/jobs/not-a-number", None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(&server.addr, "GET", "/nope", None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::request(&server.addr, "DELETE", "/healthz", None)
            .unwrap()
            .status,
        405
    );
    let bad = client::submit(&server.addr, "{not json").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("invalid JSON"), "{}", bad.body);
    server.stop();
}

#[test]
fn queue_overflow_is_503_with_retry_after() {
    let server = TestServer::start("backpressure", |config| {
        config.workers = 1;
        config.queue_capacity = 1;
    });
    // Cache one default result first.
    let (done_id, _, _) = server.submit(&c17_body(""));
    client::wait_terminal(&server.addr, done_id, Duration::from_secs(60)).unwrap();

    // Pin the single worker on a long (cancellable) stall.
    let stall = c17_body(", \"chaos\": {\"stall_attempts\": 1, \"stall_ms\": 30000}");
    let (stalled_id, _, _) = server.submit(&stall);
    server.wait_state(stalled_id, "running", Duration::from_secs(10));

    // Fill the queue, then overflow it, with configs the cache has not seen.
    let (queued_id, _, _) = server.submit(&c17_body(", \"config\": {\"backtrack\": 7}"));
    let refused =
        client::submit(&server.addr, &c17_body(", \"config\": {\"backtrack\": 9}")).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert!(refused.body.contains("queue full"), "{}", refused.body);
    // The refused submission left no job behind.
    let refused_doc = refused.json().unwrap();
    assert!(refused_doc.get("id").is_none());
    // A cache hit needs no queue slot, so a full queue does not refuse it.
    let (_, state, cached) = server.submit(&c17_body(""));
    assert_eq!((state.as_str(), cached), ("done", true));

    // Unpin: cancellation ends the stall, the queued job completes, and the
    // freed capacity accepts new work again.
    assert_eq!(
        client::cancel(&server.addr, stalled_id).unwrap().status,
        200
    );
    let stalled = client::wait_terminal(&server.addr, stalled_id, Duration::from_secs(60)).unwrap();
    assert_eq!(
        stalled.get("state").and_then(JsonValue::as_str),
        Some("cancelled")
    );
    let queued = client::wait_terminal(&server.addr, queued_id, Duration::from_secs(60)).unwrap();
    assert_eq!(
        queued.get("state").and_then(JsonValue::as_str),
        Some("done")
    );
    let (retry_id, _, _) = server.submit(&c17_body(", \"config\": {\"backtrack\": 9}"));
    client::wait_terminal(&server.addr, retry_id, Duration::from_secs(60)).unwrap();
    server.stop();
}

#[test]
fn cancelling_a_running_job_concludes_cancelled() {
    let server = TestServer::start("cancel", |config| {
        config.workers = 1;
    });
    let stall = c17_body(", \"chaos\": {\"stall_attempts\": 1, \"stall_ms\": 30000}");
    let (id, _, _) = server.submit(&stall);
    server.wait_state(id, "running", Duration::from_secs(10));
    let response = client::cancel(&server.addr, id).unwrap();
    assert_eq!(response.status, 200);
    let doc = client::wait_terminal(&server.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(
        doc.get("state").and_then(JsonValue::as_str),
        Some("cancelled")
    );
    // Cancelling a terminal job is idempotent.
    let again = client::cancel(&server.addr, id).unwrap().json().unwrap();
    assert_eq!(
        again.get("state").and_then(JsonValue::as_str),
        Some("cancelled")
    );
    server.stop();
}

#[test]
fn a_panicked_attempt_is_retried_and_the_verdict_is_bit_identical() {
    let server = TestServer::start("panic-retry", |_| {});

    let (clean_id, _, _) = server.submit(&c17_body(""));
    let clean = client::wait_terminal(&server.addr, clean_id, Duration::from_secs(60)).unwrap();
    assert_eq!(clean.get("state").and_then(JsonValue::as_str), Some("done"));

    // First attempt panics its worker; supervision respawns the worker and
    // retries the job, which must then conclude with the same verdict.
    let chaotic = c17_body(", \"chaos\": {\"panic_attempts\": 1}");
    let (chaos_id, _, _) = server.submit(&chaotic);
    let doc = client::wait_terminal(&server.addr, chaos_id, Duration::from_secs(60)).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(doc.get("attempts").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(verdict_of(&doc), verdict_of(&clean));

    server.stop();
}

#[test]
fn a_poison_pill_job_is_quarantined_and_the_pool_survives() {
    let server = TestServer::start("quarantine", |config| {
        config.workers = 1;
        config.max_retries = 2;
    });
    // Panics on every attempt: exhausts the retry budget (1 + max_retries
    // attempts) and is quarantined as terminal `failed`.
    let poison = c17_body(", \"chaos\": {\"panic_attempts\": 1000000}");
    let (id, _, _) = server.submit(&poison);
    let doc = client::wait_terminal(&server.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("failed"));
    assert_eq!(doc.get("attempts").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(
        doc.get("abort_reason").and_then(JsonValue::as_str),
        Some("panicked")
    );
    let error = doc.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains("retry budget exhausted"), "{error}");

    // The single-worker pool survived three panics: a clean job still runs.
    let (clean_id, _, _) = server.submit(&c17_body(""));
    let clean = client::wait_terminal(&server.addr, clean_id, Duration::from_secs(60)).unwrap();
    assert_eq!(clean.get("state").and_then(JsonValue::as_str), Some("done"));
    server.stop();
}

#[test]
fn a_stall_ignoring_cancellation_is_abandoned_and_the_pool_survives() {
    let server = TestServer::start("watchdog", |config| {
        config.workers = 1;
        config.max_retries = 1;
        config.attempt_timeout = Some(Duration::from_millis(150));
        config.kill_grace = Duration::from_millis(100);
    });
    // Stalls past the watchdog limit and ignores the cooperative cancel, so
    // the monitor must abandon the attempt and respawn the worker slot.
    let stall = c17_body(
        ", \"chaos\": {\"stall_attempts\": 1000000, \"stall_ms\": 2000, \
         \"ignore_cancel\": true}",
    );
    let (id, _, _) = server.submit(&stall);
    let doc = client::wait_terminal(&server.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("failed"));
    assert_eq!(
        doc.get("abort_reason").and_then(JsonValue::as_str),
        Some("timeout")
    );
    let error = doc.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains("worker abandoned"), "{error}");

    // The respawned slot still serves clean work.
    let (clean_id, _, _) = server.submit(&c17_body(""));
    let clean = client::wait_terminal(&server.addr, clean_id, Duration::from_secs(60)).unwrap();
    assert_eq!(clean.get("state").and_then(JsonValue::as_str), Some("done"));
    server.stop();
}

#[test]
fn engine_level_failure_injection_still_converges_bit_identically() {
    let server = TestServer::start("engine-chaos", |_| {});

    let (clean_id, _, _) = server.submit(&c17_body(""));
    let clean = client::wait_terminal(&server.addr, clean_id, Duration::from_secs(60)).unwrap();
    assert_eq!(clean.get("state").and_then(JsonValue::as_str), Some("done"));

    // A panic injected *inside* the proof campaign: the engine's own panic
    // isolation books the fault as a nondeterministic abort and the campaign
    // still concludes — with every other verdict identical.
    let chaotic = c17_body(", \"chaos\": {\"engine\": {\"panic_on\": 0}}");
    let (chaos_id, _, _) = server.submit(&chaotic);
    let doc = client::wait_terminal(&server.addr, chaos_id, Duration::from_secs(60)).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));

    let totals = |doc: &JsonValue| {
        let report = doc.get("report").cloned().unwrap();
        (
            report.get("total_faults").and_then(JsonValue::as_u64),
            report
                .get("online_untestable_total")
                .and_then(JsonValue::as_u64),
        )
    };
    assert_eq!(totals(&doc).0, totals(&clean).0);
    server.stop();
}

#[test]
fn identical_resubmission_is_served_from_the_cache() {
    let server = TestServer::start("cache", |_| {});
    let (first_id, _, first_cached) = server.submit(&c17_body(""));
    assert!(!first_cached);
    let first = client::wait_terminal(&server.addr, first_id, Duration::from_secs(60)).unwrap();
    assert_eq!(first.get("state").and_then(JsonValue::as_str), Some("done"));
    let fingerprint = first
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();

    // Same circuit and config: served synchronously from the cache.
    let (second_id, state, cached) = server.submit(&c17_body(""));
    assert_ne!(second_id, first_id);
    assert_eq!(state, "done");
    assert!(cached);
    let second = client::job_status(&server.addr, second_id)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        second.get("cached").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(verdict_of(&second), verdict_of(&first));

    // A capped worklist shares the fingerprint but reports only its sample:
    // it neither reads nor feeds the cache, so a later default submission
    // is still served the full verdict.
    let (capped_id, state, cached) = server.submit(&c17_body(", \"config\": {\"max_proof\": 1}"));
    assert_eq!(state, "queued");
    assert!(!cached);
    let capped = client::wait_terminal(&server.addr, capped_id, Duration::from_secs(60)).unwrap();
    assert_eq!(
        capped.get("state").and_then(JsonValue::as_str),
        Some("done")
    );
    assert_ne!(verdict_of(&capped), verdict_of(&first));
    let (after_id, state, cached) = server.submit(&c17_body(""));
    assert_eq!(state, "done");
    assert!(cached);
    let served = client::job_status(&server.addr, after_id)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(verdict_of(&served), verdict_of(&first));

    // A different config is a different fingerprint — not a cache hit.
    let (third_id, state, cached) = server.submit(&c17_body(", \"config\": {\"backtrack\": 7}"));
    assert_eq!(state, "queued");
    assert!(!cached);
    let third = client::wait_terminal(&server.addr, third_id, Duration::from_secs(60)).unwrap();
    assert_ne!(
        third.get("fingerprint").and_then(JsonValue::as_str),
        Some(fingerprint.as_str())
    );

    // A corrupted cache entry is discarded and recomputed, never served.
    let cache_path = server
        ._dir
        .0
        .join("cache")
        .join(format!("{fingerprint}.json"));
    assert!(cache_path.is_file(), "cache entry missing: {cache_path:?}");
    std::fs::write(&cache_path, "{\"fingerprint\": \"feedface\", \"repo").unwrap();
    let (fourth_id, state, cached) = server.submit(&c17_body(""));
    assert_eq!(state, "queued");
    assert!(!cached);
    assert!(!cache_path.is_file(), "corrupted entry was not discarded");
    let fourth = client::wait_terminal(&server.addr, fourth_id, Duration::from_secs(60)).unwrap();
    assert_eq!(verdict_of(&fourth), verdict_of(&first));

    server.stop();
}

#[test]
fn a_per_fault_timeout_concludes_the_job_and_stays_out_of_the_cache() {
    let server = TestServer::start("fault-timeout", |_| {});
    let timeouts = |doc: &JsonValue| {
        doc.get("report")
            .and_then(|report| report.get("engine_breakdown"))
            .and_then(|breakdown| breakdown.get("aborts"))
            .and_then(|aborts| aborts.get("timeout"))
            .and_then(JsonValue::as_u64)
    };

    // A zero per-fault limit times faults out on the wall clock. That is
    // the limit the job asked for, not a stalled attempt: the job concludes
    // on its first attempt with the timeout aborts in its report.
    let (timed_id, _, _) = server.submit(&c17_body(", \"config\": {\"fault_timeout_ms\": 0}"));
    let timed = client::wait_terminal(&server.addr, timed_id, Duration::from_secs(60)).unwrap();
    assert_eq!(
        timed.get("state").and_then(JsonValue::as_str),
        Some("done"),
        "{timed}"
    );
    assert_eq!(timed.get("attempts").and_then(JsonValue::as_u64), Some(1));
    assert!(timeouts(&timed).unwrap() > 0, "{timed}");

    // Same fingerprint as the untimed job, but a report of wall-clock
    // aborts: it was not cached, so a default submission runs in full.
    let (full_id, state, cached) = server.submit(&c17_body(""));
    assert_eq!(state, "queued");
    assert!(!cached);
    let full = client::wait_terminal(&server.addr, full_id, Duration::from_secs(60)).unwrap();
    assert_eq!(full.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(full.get("fingerprint"), timed.get("fingerprint"));
    assert_eq!(timeouts(&full), Some(0), "{full}");

    server.stop();
}

#[test]
fn graceful_shutdown_drains_the_backlog() {
    let server = TestServer::start("drain", |config| {
        config.workers = 1;
    });
    let mut ids = Vec::new();
    for _ in 0..3 {
        ids.push(server.submit(&c17_body("")).0);
    }
    let response = client::shutdown(&server.addr, false).unwrap();
    assert_eq!(response.status, 200);

    // While draining (the drain may already have finished — then the
    // listener is gone and the requests fail to connect, which is fine):
    // not ready, and new submissions are refused.
    if let Ok(ready) = client::request(&server.addr, "GET", "/readyz", None) {
        assert_eq!(ready.status, 503);
    }
    if let Ok(refused) = client::submit(&server.addr, &c17_body("")) {
        assert_eq!(refused.status, 503);
    }

    // The serve loop exits only after every accepted job is terminal.
    let service = Arc::clone(&server.service);
    let mut server = server;
    server.serve_thread.take().unwrap().join().unwrap().unwrap();
    assert!(service.is_shutdown_complete());
    assert_eq!(service.open_jobs(), 0);
    // Status endpoints went down with the listener; the journals hold the
    // terminal states.
    for id in ids {
        let result = server
            ._dir
            .0
            .join("jobs")
            .join(id.to_string())
            .join("result.json");
        let text = std::fs::read_to_string(&result).unwrap();
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));
    }
}

#[test]
fn chaos_is_refused_without_the_flag() {
    let server = TestServer::start("no-chaos", |config| {
        config.enable_chaos = false;
    });
    let refused = client::submit(
        &server.addr,
        &c17_body(", \"chaos\": {\"panic_attempts\": 1}"),
    )
    .unwrap();
    assert_eq!(refused.status, 400);
    assert!(refused.body.contains("--enable-chaos"), "{}", refused.body);
    server.stop();
}

#[test]
fn job_deadline_expires_as_a_terminal_failure() {
    let server = TestServer::start("deadline", |config| {
        config.workers = 1;
    });
    // The deadline (measured from acceptance) expires during the stall; the
    // monitor propagates it into the attempt's cancel token and the job
    // concludes `failed`/`timeout` — the same mechanism client cancellation
    // uses.
    let body = c17_body(
        ", \"config\": {\"deadline_ms\": 200}, \
         \"chaos\": {\"stall_attempts\": 1, \"stall_ms\": 30000}",
    );
    let (id, _, _) = server.submit(&body);
    let doc = client::wait_terminal(&server.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("failed"));
    assert_eq!(
        doc.get("abort_reason").and_then(JsonValue::as_str),
        Some("timeout")
    );
    assert_eq!(
        doc.get("error").and_then(JsonValue::as_str),
        Some("deadline exceeded")
    );
    server.stop();
}
