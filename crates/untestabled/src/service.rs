//! The supervised identification service: a bounded queue feeding a worker
//! pool, a monitor enforcing deadlines and tearing down stalled attempts,
//! retries with exponential backoff up to a budget, crash-safe per-job
//! journals, and a content-addressed result cache.
//!
//! Invariant: **every accepted job reaches a terminal state**, across worker
//! panics, stalls, cancellations and whole-process kills — and a concluded
//! verdict is bit-identical to the one an uninterrupted, fault-free run
//! produces (the proof campaign journals per-verdict and resumes
//! deterministically; see `atpg::checkpoint`).

use crate::job::{JobRequest, JobState};
use crate::queue::{JobQueue, QueueFull};
use atpg::CancelToken;
use netlist::frontend::parse_netlist;
use online_untestable::flow::{FlowConfig, IdentificationFlow, ProofStageConfig};
use online_untestable::{ConstraintSpec, JsonValue, NetlistDesign};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning of the service; the defaults suit an interactive daemon.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Root of the persistent job state (`jobs/<id>/…` and `cache/…`).
    pub state_dir: PathBuf,
    /// Worker threads running identification attempts.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are refused with
    /// backpressure (503 + `Retry-After`), never buffered unboundedly.
    pub queue_capacity: usize,
    /// Retries after a retryable attempt failure (panic, stall) before the
    /// job is quarantined as terminal `failed`.
    pub max_retries: u32,
    /// Base retry backoff; doubles per attempt.
    pub backoff: Duration,
    /// Watchdog limit per attempt: past it the attempt's cancel token is
    /// cancelled, and [`kill_grace`](Self::kill_grace) later a still-running
    /// attempt is abandoned and its worker slot respawned. `None` disables
    /// the watchdog.
    pub attempt_timeout: Option<Duration>,
    /// Grace between the watchdog's cooperative cancel and the teardown of
    /// an attempt that ignores it.
    pub kill_grace: Duration,
    /// Accept `chaos` sections in submissions (failure injection for the
    /// robustness suite). Off in production.
    pub enable_chaos: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            state_dir: PathBuf::from("untestabled-state"),
            workers: 2,
            queue_capacity: 16,
            max_retries: 2,
            backoff: Duration::from_millis(100),
            attempt_timeout: None,
            kill_grace: Duration::from_millis(500),
            enable_chaos: false,
        }
    }
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The daemon is draining for shutdown (503).
    Draining,
    /// The body failed validation (400, with the reason).
    Invalid(String),
    /// The queue is at capacity (503 + `Retry-After`).
    Full,
    /// The job journal could not be written (500).
    Internal(String),
}

/// The mutable half of a job; everything behind one mutex.
struct JobRecord {
    state: JobState,
    attempts: u32,
    /// Attempt epoch: bumped when an attempt starts and when the monitor
    /// abandons one, so a conclusion from a torn-down attempt is ignored.
    epoch: u64,
    cancel: CancelToken,
    cancel_requested: bool,
    attempt_started: Option<Instant>,
    escalated_at: Option<Instant>,
    retry_at: Option<Instant>,
    deadline: Option<Instant>,
    error: Option<String>,
    abort_reason: Option<String>,
    cached: bool,
    report: Option<JsonValue>,
    fingerprint: u64,
}

struct Job {
    id: u64,
    request: JobRequest,
    record: Mutex<JobRecord>,
}

struct AttemptInfo {
    epoch: u64,
    number: u32,
    token: CancelToken,
    deadline: Option<Instant>,
    checkpoint: PathBuf,
}

/// The service: shared by the HTTP server, the worker pool and the monitor.
pub struct Service {
    config: ServiceConfig,
    queue: JobQueue,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    hard_stop: AtomicBool,
    shutdown_complete: AtomicBool,
    monitor_stop: AtomicBool,
    retire: AtomicUsize,
    live_workers: AtomicUsize,
}

fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

impl Service {
    /// Creates (or re-opens) the state directory, recovers every journalled
    /// job — terminal results are reloaded, interrupted jobs re-enqueued —
    /// and starts the worker pool and the monitor.
    pub fn start(config: ServiceConfig) -> std::io::Result<Arc<Service>> {
        std::fs::create_dir_all(config.state_dir.join("jobs"))?;
        std::fs::create_dir_all(config.state_dir.join("cache"))?;
        let workers = config.workers.max(1);
        let service = Arc::new(Service {
            queue: JobQueue::new(config.queue_capacity.max(1)),
            config,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            hard_stop: AtomicBool::new(false),
            shutdown_complete: AtomicBool::new(false),
            monitor_stop: AtomicBool::new(false),
            retire: AtomicUsize::new(0),
            live_workers: AtomicUsize::new(0),
        });
        service.recover();
        for _ in 0..workers {
            service.spawn_worker();
        }
        {
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("untestabled-monitor".to_string())
                .spawn(move || service.monitor_loop())
                .expect("spawn monitor");
        }
        Ok(service)
    }

    // ------------------------------------------------------------------
    // Front-door API (called by the HTTP layer).
    // ------------------------------------------------------------------

    /// Accepts a `POST /jobs` body: validates, consults the result cache,
    /// journals, and enqueues. Returns `(id, state, cached)` on acceptance.
    pub fn submit(&self, body: &str) -> Result<(u64, JobState, bool), SubmitError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        let request =
            JobRequest::from_json(body, self.config.enable_chaos).map_err(SubmitError::Invalid)?;
        let fingerprint = fingerprint_of(&request).map_err(SubmitError::Invalid)?;
        let cached_report = if request.cacheable() {
            self.cache_lookup(fingerprint)
        } else {
            None
        };
        // A cache hit is served terminal without a queue slot. A miss is
        // refused before journalling when the queue is visibly full; the
        // authoritative check is the push below.
        if cached_report.is_none() && self.queue.len() >= self.config.queue_capacity {
            return Err(SubmitError::Full);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let dir = self.job_dir(id);
        std::fs::create_dir_all(&dir)
            .and_then(|()| write_atomic(&dir.join("request.json"), body))
            .map_err(|e| SubmitError::Internal(e.to_string()))?;

        let job = Arc::new(Job {
            id,
            request,
            record: Mutex::new(JobRecord {
                fingerprint,
                ..fresh_record()
            }),
        });
        if let Some(report) = cached_report {
            let mut record = job.record.lock().expect("job poisoned");
            record.state = JobState::Done;
            record.cached = true;
            record.report = Some(report);
            self.persist_terminal(&job, &record);
            drop(record);
            self.register(Arc::clone(&job));
            return Ok((id, JobState::Done, true));
        }
        {
            let mut record = job.record.lock().expect("job poisoned");
            record.deadline = job.request.config.deadline.map(|d| Instant::now() + d);
        }
        self.register(Arc::clone(&job));
        match self.queue.push_new(id) {
            Ok(()) => Ok((id, JobState::Queued, false)),
            Err(QueueFull) => {
                self.jobs.lock().expect("jobs poisoned").remove(&id);
                let _ = std::fs::remove_file(dir.join("request.json"));
                let _ = std::fs::remove_dir(&dir);
                Err(SubmitError::Full)
            }
        }
    }

    /// The status document for `GET /jobs/:id`; `None` for unknown ids.
    pub fn status_json(&self, id: u64) -> Option<String> {
        let job = self.job(id)?;
        let record = job.record.lock().expect("job poisoned");
        Some(job_json(&job, &record).to_string())
    }

    /// Cancels a job (`DELETE /jobs/:id`): queued jobs become terminal
    /// `cancelled` immediately, a running attempt's cancel token is
    /// cancelled (the same mechanism deadlines use) and the job concludes
    /// `cancelled` at the next engine poll point. Returns the status
    /// document, or `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<String> {
        let job = self.job(id)?;
        let mut record = job.record.lock().expect("job poisoned");
        if !record.state.is_terminal() {
            record.cancel_requested = true;
            record.cancel.cancel();
            if record.state == JobState::Queued {
                record.state = JobState::Cancelled;
                record.retry_at = None;
                self.persist_terminal(&job, &record);
            }
        }
        Some(job_json(&job, &record).to_string())
    }

    /// Whether the daemon is draining (readiness goes 503, submissions are
    /// refused).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Whether a requested shutdown has finished draining.
    pub fn is_shutdown_complete(&self) -> bool {
        self.shutdown_complete.load(Ordering::SeqCst)
    }

    /// Number of jobs currently in a non-terminal state.
    pub fn open_jobs(&self) -> usize {
        let jobs = self.jobs.lock().expect("jobs poisoned");
        jobs.values()
            .filter(|job| !job.record.lock().expect("job poisoned").state.is_terminal())
            .count()
    }

    /// Initiates shutdown and returns immediately; [`Service::is_shutdown_complete`]
    /// flips once the drain finishes.
    ///
    /// * graceful (`now == false`): stop accepting, let the queue drain and
    ///   every accepted job reach a terminal state, then release workers.
    /// * hard (`now == true`): cancel in-flight attempts (their concluded
    ///   verdicts are already journalled per-verdict) and drop the backlog;
    ///   interrupted and queued jobs stay journalled and are re-enqueued on
    ///   the next start.
    pub fn request_shutdown(self: &Arc<Self>, now: bool) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let service = Arc::clone(self);
        std::thread::Builder::new()
            .name("untestabled-drain".to_string())
            .spawn(move || service.drain(now))
            .expect("spawn drain");
    }

    fn drain(&self, now: bool) {
        if now {
            self.hard_stop.store(true, Ordering::SeqCst);
            self.queue.close_and_clear();
            for job in self.snapshot() {
                let record = job.record.lock().expect("job poisoned");
                if record.state == JobState::Running {
                    record.cancel.cancel();
                }
            }
        }
        // Wait for every accepted job to leave Running (graceful mode also
        // waits for the backlog to drain into terminal states).
        loop {
            let open = self
                .snapshot()
                .into_iter()
                .filter(|job| {
                    let record = job.record.lock().expect("job poisoned");
                    record.state == JobState::Running || (!now && !record.state.is_terminal())
                })
                .count();
            if open == 0 && (now || self.queue.is_empty()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.queue.close();
        self.monitor_stop.store(true, Ordering::SeqCst);
        // Give workers a bounded window to observe the closed queue.
        let waited = Instant::now();
        while self.live_workers.load(Ordering::SeqCst) > 0
            && waited.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shutdown_complete.store(true, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Registry and persistence.
    // ------------------------------------------------------------------

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().expect("jobs poisoned").get(&id).cloned()
    }

    fn register(&self, job: Arc<Job>) {
        self.jobs.lock().expect("jobs poisoned").insert(job.id, job);
    }

    fn snapshot(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .expect("jobs poisoned")
            .values()
            .cloned()
            .collect()
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.config.state_dir.join("jobs").join(id.to_string())
    }

    fn cache_path(&self, fingerprint: u64) -> PathBuf {
        self.config
            .state_dir
            .join("cache")
            .join(format!("{fingerprint:016x}.json"))
    }

    /// A cached report for this fingerprint, or `None`. A corrupted or
    /// mismatched entry is discarded (and recomputed by the caller) — it is
    /// never served.
    fn cache_lookup(&self, fingerprint: u64) -> Option<JsonValue> {
        let path = self.cache_path(fingerprint);
        let text = std::fs::read_to_string(&path).ok()?;
        let valid = JsonValue::parse(&text).ok().and_then(|doc| {
            let recorded = doc.get("fingerprint")?.as_str()?.to_string();
            if recorded != format!("{fingerprint:016x}") {
                return None;
            }
            doc.get("report").cloned()
        });
        if valid.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        valid
    }

    fn cache_store(&self, fingerprint: u64, report: &JsonValue) {
        let entry = JsonValue::Object(vec![
            (
                "fingerprint".to_string(),
                JsonValue::string(format!("{fingerprint:016x}")),
            ),
            ("report".to_string(), report.clone()),
        ]);
        let _ = write_atomic(&self.cache_path(fingerprint), &entry.to_string());
    }

    /// Journals a terminal state (atomic rename) and feeds the result cache.
    fn persist_terminal(&self, job: &Job, record: &JobRecord) {
        debug_assert!(record.state.is_terminal());
        let _ = write_atomic(
            &self.job_dir(job.id).join("result.json"),
            &job_json(job, record).to_string(),
        );
        if record.state == JobState::Done && !record.cached && job.request.cacheable() {
            if let Some(report) = &record.report {
                self.cache_store(record.fingerprint, report);
            }
        }
    }

    /// Rebuilds the registry from the journals: a valid `result.json` is a
    /// terminal state; otherwise a valid `request.json` is an interrupted
    /// job, re-enqueued (its proof checkpoint replays concluded verdicts
    /// bit-identically); a job with neither is quarantined as `failed`.
    fn recover(&self) {
        let jobs_dir = self.config.state_dir.join("jobs");
        let Ok(entries) = std::fs::read_dir(&jobs_dir) else {
            return;
        };
        let mut max_id = 0u64;
        let mut resumed: Vec<u64> = Vec::new();
        for entry in entries.flatten() {
            let Some(id) = entry
                .file_name()
                .to_str()
                .and_then(|name| name.parse::<u64>().ok())
            else {
                continue;
            };
            max_id = max_id.max(id);
            let dir = entry.path();
            if let Some(job) = self.recover_terminal(id, &dir) {
                self.register(job);
                continue;
            }
            match self.recover_interrupted(id, &dir) {
                Ok(job) => {
                    self.register(job);
                    resumed.push(id);
                }
                Err(reason) => {
                    eprintln!("untestabled: job {id}: state lost after restart: {reason}");
                    let job = Arc::new(Job {
                        id,
                        request: JobRequest::placeholder(),
                        record: Mutex::new(JobRecord {
                            state: JobState::Failed,
                            error: Some(format!("job state lost after restart: {reason}")),
                            ..fresh_record()
                        }),
                    });
                    let record = job.record.lock().expect("job poisoned");
                    self.persist_terminal(&job, &record);
                    drop(record);
                    self.register(job);
                }
            }
        }
        self.next_id.store(max_id + 1, Ordering::SeqCst);
        resumed.sort_unstable();
        for id in resumed {
            self.queue.push_retry(id);
        }
    }

    fn recover_terminal(&self, id: u64, dir: &Path) -> Option<Arc<Job>> {
        let text = std::fs::read_to_string(dir.join("result.json")).ok()?;
        let doc = JsonValue::parse(&text).ok()?;
        let state = JobState::from_name(doc.get("state")?.as_str()?)?;
        if !state.is_terminal() {
            return None;
        }
        let fingerprint = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .unwrap_or(0);
        // The request may be unreadable; terminal jobs never run again, so a
        // placeholder is fine.
        let request = std::fs::read_to_string(dir.join("request.json"))
            .ok()
            .and_then(|body| JobRequest::from_json(&body, true).ok())
            .unwrap_or_else(JobRequest::placeholder);
        Some(Arc::new(Job {
            id,
            request,
            record: Mutex::new(JobRecord {
                state,
                attempts: doc.get("attempts").and_then(JsonValue::as_u64).unwrap_or(0) as u32,
                error: doc
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string),
                abort_reason: doc
                    .get("abort_reason")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string),
                cached: doc
                    .get("cached")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                report: doc.get("report").cloned(),
                fingerprint,
                ..fresh_record()
            }),
        }))
    }

    fn recover_interrupted(&self, id: u64, dir: &Path) -> Result<Arc<Job>, String> {
        let body = std::fs::read_to_string(dir.join("request.json"))
            .map_err(|e| format!("cannot read request.json: {e}"))?;
        // Chaos sections were accepted when the job was, so re-accept them
        // regardless of the current flag.
        let request = JobRequest::from_json(&body, true)?;
        let fingerprint = fingerprint_of(&request)?;
        Ok(Arc::new(Job {
            id,
            request,
            record: Mutex::new(JobRecord {
                fingerprint,
                ..fresh_record()
            }),
        }))
    }

    // ------------------------------------------------------------------
    // Worker pool and supervision.
    // ------------------------------------------------------------------

    fn spawn_worker(self: &Arc<Self>) {
        self.live_workers.fetch_add(1, Ordering::SeqCst);
        let service = Arc::clone(self);
        std::thread::Builder::new()
            .name("untestabled-worker".to_string())
            .spawn(move || worker_main(service))
            .expect("spawn worker");
    }

    fn take_retirement(&self) -> bool {
        self.retire
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    fn run_attempt(self: &Arc<Self>, id: u64) {
        let Some(job) = self.job(id) else { return };
        let Some(attempt) = self.begin_attempt(&job) else {
            return;
        };
        let _guard = CrashGuard {
            service: Arc::clone(self),
            job: Arc::clone(&job),
            epoch: attempt.epoch,
        };
        if let Some(chaos) = &job.request.chaos {
            if attempt.number <= chaos.panic_attempts {
                panic!("chaos: injected worker panic on attempt {}", attempt.number);
            }
            if attempt.number <= chaos.stall_attempts {
                let stalled_at = Instant::now();
                while stalled_at.elapsed() < chaos.stall {
                    if !chaos.ignore_cancel && attempt.token.is_cancelled() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        let outcome = execute(&job, &attempt);
        self.conclude_attempt(&job, attempt.epoch, outcome);
    }

    fn begin_attempt(&self, job: &Arc<Job>) -> Option<AttemptInfo> {
        let mut record = job.record.lock().expect("job poisoned");
        if record.state != JobState::Queued {
            return None;
        }
        if record.cancel_requested {
            record.state = JobState::Cancelled;
            self.persist_terminal(job, &record);
            return None;
        }
        let now = Instant::now();
        if record.deadline.is_some_and(|d| now >= d) {
            record.state = JobState::Failed;
            record.error = Some("deadline exceeded".to_string());
            record.abort_reason = Some("timeout".to_string());
            self.persist_terminal(job, &record);
            return None;
        }
        record.state = JobState::Running;
        record.attempts += 1;
        record.epoch += 1;
        record.cancel = CancelToken::new();
        record.escalated_at = None;
        record.retry_at = None;
        record.attempt_started = Some(now);
        Some(AttemptInfo {
            epoch: record.epoch,
            number: record.attempts,
            token: record.cancel.clone(),
            deadline: record.deadline,
            checkpoint: self.job_dir(job.id).join("campaign.ckpt"),
        })
    }

    fn conclude_attempt(
        &self,
        job: &Arc<Job>,
        epoch: u64,
        outcome: Result<(JsonValue, bool), String>,
    ) {
        let mut record = job.record.lock().expect("job poisoned");
        if record.epoch != epoch || record.state != JobState::Running {
            return; // The attempt was abandoned; a newer one owns the job.
        }
        match outcome {
            Err(message) => {
                record.state = JobState::Failed;
                record.error = Some(message);
                self.persist_terminal(job, &record);
            }
            Ok((report, stopped)) => {
                if !stopped {
                    record.state = JobState::Done;
                    record.report = Some(report);
                    self.persist_terminal(job, &record);
                } else if record.cancel_requested {
                    record.state = JobState::Cancelled;
                    self.persist_terminal(job, &record);
                } else if self.hard_stop.load(Ordering::SeqCst) {
                    // Shutdown interrupted the attempt: park the job; its
                    // journal re-enqueues it on the next start.
                    record.state = JobState::Queued;
                } else if record.deadline.is_some_and(|d| Instant::now() >= d) {
                    record.state = JobState::Failed;
                    record.error = Some("deadline exceeded".to_string());
                    record.abort_reason = Some("timeout".to_string());
                    self.persist_terminal(job, &record);
                } else {
                    // The watchdog cancelled a stalled attempt: retry.
                    self.retryable_failure(job, &mut record, "timeout", "attempt stalled");
                }
            }
        }
    }

    /// Books a retryable attempt failure: retry with exponential backoff
    /// while the budget lasts, then quarantine as terminal `failed` with the
    /// abort reason attached.
    fn retryable_failure(
        &self,
        job: &Arc<Job>,
        record: &mut MutexGuard<'_, JobRecord>,
        reason: &str,
        message: &str,
    ) {
        record.abort_reason = Some(reason.to_string());
        if record.attempts > self.config.max_retries {
            record.state = JobState::Failed;
            record.error = Some(format!(
                "{message}; retry budget exhausted after {} attempts",
                record.attempts
            ));
            self.persist_terminal(job, record);
        } else {
            let backoff = self.config.backoff * 2u32.pow(record.attempts.saturating_sub(1));
            record.state = JobState::Queued;
            record.retry_at = Some(Instant::now() + backoff);
        }
    }

    /// Called from a panicking worker's drop guard: the attempt dies with
    /// the thread, and the job is retried or quarantined.
    fn attempt_crashed(&self, job: &Arc<Job>, epoch: u64) {
        let mut record = job.record.lock().expect("job poisoned");
        if record.epoch != epoch || record.state != JobState::Running {
            return;
        }
        self.retryable_failure(job, &mut record, "panicked", "worker panicked");
    }

    fn queue_closed_for_shutdown(&self) -> bool {
        self.draining.load(Ordering::SeqCst) && self.shutdown_complete.load(Ordering::SeqCst)
    }

    /// The monitor: re-enqueues due retries, propagates job deadlines into
    /// cancel tokens, and supervises stalled attempts (cooperative cancel,
    /// then abandon-and-respawn after the grace period).
    fn monitor_loop(self: Arc<Self>) {
        while !self.monitor_stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            for job in self.snapshot() {
                let mut record = job.record.lock().expect("job poisoned");
                match record.state {
                    JobState::Queued if record.retry_at.is_some_and(|at| now >= at) => {
                        record.retry_at = None;
                        self.queue.push_retry(job.id);
                    }
                    JobState::Queued => {}
                    JobState::Running => {
                        if record.deadline.is_some_and(|d| now >= d) {
                            record.cancel.cancel();
                        }
                        if let Some(limit) = self.config.attempt_timeout {
                            let overdue = record
                                .attempt_started
                                .is_some_and(|started| now >= started + limit);
                            match record.escalated_at {
                                None if overdue => {
                                    record.escalated_at = Some(now);
                                    record.cancel.cancel();
                                }
                                Some(escalated) if now >= escalated + self.config.kill_grace => {
                                    // The attempt ignored the cancel: tear
                                    // the worker down (it retires once the
                                    // stuck call returns) and respawn.
                                    record.epoch += 1;
                                    self.retryable_failure(
                                        &job,
                                        &mut record,
                                        "timeout",
                                        "attempt stalled and ignored cancellation; worker abandoned",
                                    );
                                    self.retire.fetch_add(1, Ordering::SeqCst);
                                    self.spawn_worker();
                                }
                                _ => {}
                            }
                        }
                    }
                    _ => {}
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

struct CrashGuard {
    service: Arc<Service>,
    job: Arc<Job>,
    epoch: u64,
}

impl Drop for CrashGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.service.attempt_crashed(&self.job, self.epoch);
        }
    }
}

fn worker_main(service: Arc<Service>) {
    struct ExitGuard(Arc<Service>);
    impl Drop for ExitGuard {
        fn drop(&mut self) {
            self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
            // A panicked worker is torn down with its attempt; keep the pool
            // at strength unless the service is shutting down.
            if std::thread::panicking() && !self.0.queue_closed_for_shutdown() {
                self.0.spawn_worker();
            }
        }
    }
    let _guard = ExitGuard(Arc::clone(&service));
    loop {
        if service.take_retirement() {
            break;
        }
        let Some(id) = service.queue.pop() else { break };
        service.run_attempt(id);
    }
}

fn fresh_record() -> JobRecord {
    JobRecord {
        state: JobState::Queued,
        attempts: 0,
        epoch: 0,
        cancel: CancelToken::new(),
        cancel_requested: false,
        attempt_started: None,
        escalated_at: None,
        retry_at: None,
        deadline: None,
        error: None,
        abort_reason: None,
        cached: false,
        report: None,
        fingerprint: 0,
    }
}

/// The status document: the single schema served by `GET /jobs/:id`,
/// journalled to `result.json`, and embedded in the cache.
fn job_json(job: &Job, record: &JobRecord) -> JsonValue {
    let mut fields = vec![
        ("id".to_string(), job.id.into()),
        (
            "fingerprint".to_string(),
            JsonValue::string(format!("{:016x}", record.fingerprint)),
        ),
        ("state".to_string(), JsonValue::string(record.state.name())),
        ("attempts".to_string(), u64::from(record.attempts).into()),
        ("cached".to_string(), record.cached.into()),
    ];
    if let Some(error) = &record.error {
        fields.push(("error".to_string(), JsonValue::string(error)));
    }
    if let Some(reason) = &record.abort_reason {
        fields.push(("abort_reason".to_string(), JsonValue::string(reason)));
    }
    if let Some(report) = &record.report {
        fields.push(("report".to_string(), report.clone()));
    }
    JsonValue::Object(fields)
}

fn design_of(request: &JobRequest) -> Result<NetlistDesign, String> {
    let netlist =
        parse_netlist(&request.circuit, request.format).map_err(|e| format!("circuit: {e}"))?;
    match &request.constraints {
        Some(text) => {
            let spec = ConstraintSpec::parse(text).map_err(|e| format!("constraints: {e}"))?;
            NetlistDesign::with_constraints(netlist, &spec).map_err(|e| format!("constraints: {e}"))
        }
        None => Ok(NetlistDesign::new(netlist)),
    }
}

fn flow_config(request: &JobRequest, attempt: Option<&AttemptInfo>) -> FlowConfig {
    let config = &request.config;
    FlowConfig {
        run_atpg_proof: true,
        proof: ProofStageConfig {
            backtrack_limit: config.backtrack,
            threads: config.threads,
            max_faults: config.max_proof,
            sample_seed: config.seed,
            use_sat: config.sat,
            sat_conflict_limit: config.sat_conflicts,
            stage_timeout: attempt
                .and_then(|a| a.deadline)
                .map(|d| d.saturating_duration_since(Instant::now())),
            fault_timeout: config.fault_timeout,
            checkpoint: attempt.map(|a| a.checkpoint.clone()),
            cancel: attempt.map(|a| a.token.clone()),
            failure_plan: request.chaos.as_ref().and_then(|chaos| chaos.engine),
            ..ProofStageConfig::default()
        },
        ..FlowConfig::full_pipeline()
    }
}

/// The campaign fingerprint the proof stage will key its checkpoint with;
/// the result cache shares the key.
fn fingerprint_of(request: &JobRequest) -> Result<u64, String> {
    IdentificationFlow::new(flow_config(request, None))
        .campaign_fingerprint(&design_of(request)?)
        .map_err(|e| format!("constraint discovery: {e}"))
}

/// Runs one identification attempt; returns the report JSON and whether
/// the attempt was stopped: its cancel token fired (client cancel,
/// watchdog, hard stop, the monitor's deadline), or faults timed out with
/// the job deadline already past. Any other timeout abort comes from the
/// per-fault limit the job asked for and is part of a concluded report.
fn execute(job: &Arc<Job>, attempt: &AttemptInfo) -> Result<(JsonValue, bool), String> {
    let design = design_of(&job.request)?;
    let config = flow_config(&job.request, Some(attempt));
    let report = IdentificationFlow::new(config)
        .run(&design)
        .map_err(|e| format!("identification flow: {e}"))?;
    let timed_out = report
        .engine_breakdown
        .as_ref()
        .is_some_and(|b| b.deadline_hit());
    let stopped = attempt.token.is_cancelled()
        || (timed_out && attempt.deadline.is_some_and(|d| Instant::now() >= d));
    Ok((report.to_json(), stopped))
}

impl JobRequest {
    /// Whether the job's report may be served from, and stored in, the
    /// result cache. The cache is keyed by the campaign fingerprint, which
    /// pins per-fault verdicts but neither which faults a capped worklist
    /// (`max_proof`) samples nor which faults a per-fault timeout
    /// (`fault_timeout`) cuts off on the wall clock, so such a job's report
    /// describes only its own run; a chaos job's injected failures may alter
    /// its report.
    fn cacheable(&self) -> bool {
        self.chaos.is_none()
            && self.config.max_proof.is_none()
            && self.config.fault_timeout.is_none()
    }

    /// An inert request for jobs whose journal was lost; never executed
    /// (the record is terminal before registration).
    pub(crate) fn placeholder() -> JobRequest {
        JobRequest {
            circuit: String::new(),
            format: netlist::frontend::Format::Bench,
            constraints: None,
            config: crate::job::JobProofConfig::default(),
            chaos: None,
        }
    }
}
