//! The `untestabled` daemon binary: flag parsing, bind, serve, drain,
//! exit 0.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use untestabled::{serve, Service, ServiceConfig};

const USAGE: &str = "usage: untestabled [options]

Run the identification service: accept identification jobs over HTTP, run
them on a supervised worker pool with retries and crash-safe state, and
serve their verdicts.

options:
  --addr <host:port>        listen address (default 127.0.0.1:3999; use
                            port 0 for an ephemeral port — the bound
                            address is printed on startup)
  --state-dir <dir>         persistent job state root
                            (default ./untestabled-state)
  --workers <n>             identification worker threads, at least 1
                            (default 2)
  --queue-capacity <n>      bounded queue size, at least 1; submissions
                            beyond it get 503 + Retry-After (default 16)
  --max-retries <n>         retries after a panicked/stalled attempt before
                            the job is quarantined as failed (default 2)
  --backoff-ms <n>          base retry backoff, doubled per attempt
                            (default 100)
  --attempt-timeout-ms <n>  watchdog limit per attempt; past it the attempt
                            is cancelled and, failing that, its worker is
                            torn down and respawned (default: off)
  --kill-grace-ms <n>       grace between the watchdog's cancel and the
                            teardown of an attempt ignoring it (default 500)
  --enable-chaos            accept failure-injection sections in submissions
                            (test harness only)
  -h, --help                this message

endpoints: POST /jobs, GET /jobs/:id, DELETE /jobs/:id, GET /healthz,
GET /readyz, POST /shutdown[?mode=now]

exit status: 0 after a drained shutdown, 1 on any startup or serve error";

struct Options {
    addr: String,
    service: ServiceConfig,
}

fn parse_options() -> Result<Option<Options>, String> {
    let mut options = Options {
        addr: "127.0.0.1:3999".to_string(),
        service: ServiceConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        let parse_ms = |flag: &str, text: String| {
            text.parse::<u64>()
                .map(Duration::from_millis)
                .map_err(|e| format!("{flag}: {e}"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--addr" => options.addr = value("--addr")?,
            "--state-dir" => options.service.state_dir = PathBuf::from(value("--state-dir")?),
            "--workers" => {
                options.service.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-capacity" => {
                options.service.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?
            }
            "--max-retries" => {
                options.service.max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?
            }
            "--backoff-ms" => {
                options.service.backoff = parse_ms("--backoff-ms", value("--backoff-ms")?)?
            }
            "--attempt-timeout-ms" => {
                options.service.attempt_timeout = Some(parse_ms(
                    "--attempt-timeout-ms",
                    value("--attempt-timeout-ms")?,
                )?)
            }
            "--kill-grace-ms" => {
                options.service.kill_grace = parse_ms("--kill-grace-ms", value("--kill-grace-ms")?)?
            }
            "--enable-chaos" => options.service.enable_chaos = true,
            other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }
    Ok(Some(options))
}

fn run(options: Options) -> Result<(), String> {
    let listener = TcpListener::bind(&options.addr)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    let service = Service::start(options.service).map_err(|e| format!("cannot start: {e}"))?;
    // Scraped by scripts and tests, especially with `--addr 127.0.0.1:0`.
    println!("untestabled: listening on {bound}");
    serve(listener, service).map_err(|e| format!("serve: {e}"))
}

fn main() -> ExitCode {
    match parse_options() {
        Ok(Some(options)) => match run(options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("untestabled: {message}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("untestabled: {message}");
            ExitCode::FAILURE
        }
    }
}
