//! The daemon binary's command line: every default `--help` states is the
//! one [`ServiceConfig::default`] runs with.

use std::path::Path;
use std::process::Command;
use untestabled::ServiceConfig;

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
fn help_states_the_defaults_of_the_service_config() {
    let output = Command::new(env!("CARGO_BIN_EXE_untestabled"))
        .arg("--help")
        .output()
        .expect("daemon binary runs");
    assert_eq!(output.status.code(), Some(0));
    let help = String::from_utf8(output.stdout).unwrap();
    let config = ServiceConfig::default();
    assert_eq!(
        Path::new(&stated_default(&help, "--state-dir")),
        Path::new(".").join(&config.state_dir)
    );
    assert_eq!(
        stated_default(&help, "--workers"),
        config.workers.to_string()
    );
    assert_eq!(
        stated_default(&help, "--queue-capacity"),
        config.queue_capacity.to_string()
    );
    assert_eq!(
        stated_default(&help, "--max-retries"),
        config.max_retries.to_string()
    );
    assert_eq!(
        stated_default(&help, "--backoff-ms"),
        config.backoff.as_millis().to_string()
    );
    assert_eq!(stated_default(&help, "--attempt-timeout-ms"), "off");
    assert_eq!(config.attempt_timeout, None);
    assert_eq!(
        stated_default(&help, "--kill-grace-ms"),
        config.kill_grace.as_millis().to_string()
    );
}
