//! Incremental campaign checkpoints: crash-safe persistence of concluded
//! proof verdicts, keyed by a fingerprint of the proof problem.
//!
//! A long proof campaign appends one line per concluded fault to a plain
//! text file as the verdicts arrive (flushed per line, so an interrupted
//! process loses at most the line being written). A resumed campaign loads
//! the file, re-seeds every recorded verdict, and proves only the faults the
//! interrupted run never concluded — the collapse schedule is recomputed
//! over the *full* population, so the merged classification is bit-identical
//! to an uninterrupted run under the same configuration.
//!
//! Two persistence rules keep a resume sound:
//!
//! * The file is keyed by [`campaign_fingerprint`] — a structural hash of
//!   the netlist, the [`ConstraintSet`], the verdict-affecting parts of the
//!   [`ProofConfig`] and the [`ENGINE_EPOCH`]. A checkpoint whose
//!   fingerprint mismatches is refused
//!   ([`CheckpointError::FingerprintMismatch`]): replaying verdicts across a
//!   different design, environment, budget or engine would silently corrupt
//!   the classification. Thread count, wall-clock limits, the worklist sample
//!   and the checkpoint path do *not* enter the fingerprint — they change
//!   how fast verdicts arrive or which faults are attempted, never which
//!   verdict a fault gets.
//!
//! [`prove_faults`](crate::proof::prove_faults) opens the file named by
//! [`ProofConfig::checkpoint`] itself; [`Checkpoint::create_or_resume`]
//! stays public for tools that re-read or re-record a campaign journal.
//! * Only reproducible outcomes are persisted: concluded verdicts and
//!   *deterministic* aborts ([`AbortReason::is_deterministic`] — backtrack /
//!   conflict budget exhaustion, unsupported encodings). A timeout or a
//!   caught panic is an accident of the interrupted run and is re-proven on
//!   resume.
//!
//! The format is hand-rolled (the vendored serde stub has no (de)serializer,
//! matching the BENCH reference readers): a two-line header followed by one
//! whitespace-separated record per fault.
//!
//! ```text
//! untestable-checkpoint v1
//! fingerprint 1f3a5c...
//! fault o 12 - 1 podem proven
//! fault i 7 3 0 sat aborted conflicts
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use faultmodel::{FaultSite, StuckAt};
use netlist::{Netlist, PinIndex};

use crate::budget::AbortReason;
use crate::constant::ConstraintSet;
use crate::podem::ProofOutcome;
use crate::proof::{EngineOutcome, ProofConfig, ProofEngine};

/// Why a checkpoint file could not be opened, parsed, or written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(String),
    /// A line of the file does not parse (`line` is 1-based).
    Format {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file was written for a different proof problem (netlist,
    /// constraint environment, verdict-affecting configuration, or engine
    /// epoch).
    FingerprintMismatch {
        /// Fingerprint of the current campaign.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(message) => write!(f, "checkpoint I/O error: {message}"),
            CheckpointError::Format { line, message } => {
                write!(f, "checkpoint format error at line {line}: {message}")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: file was written for campaign \
                 {found:016x}, this campaign is {expected:016x} (different design, \
                 constraints, proof configuration, or engine epoch) — delete the file \
                 or point --checkpoint elsewhere"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a: dependency-free, good avalanche for fingerprinting, trivially
/// stable across platforms. (The workspace's deterministic shuffles use
/// splitmix64, not this hash.)
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    fn write_bool(&mut self, v: bool) {
        self.write(&[u8::from(v)]);
    }
}

/// The version of the proof engines' verdicts under a fixed budget. A
/// checkpoint or a cached report persists *deterministic aborts* too, so an
/// engine change that concludes more faults within the same backtrack or
/// conflict budget must bump this: the new value changes every
/// [`campaign_fingerprint`], old checkpoints are refused and old cache
/// entries miss, instead of serving the old engine's aborts.
///
/// * 0 — every engine before epochs were hashed;
/// * 1 — the SAT encoding copies only the cone gates a faulty value reaches.
pub const ENGINE_EPOCH: u64 = 1;

/// The structural hash that keys a checkpoint to its proof problem: the
/// netlist (cells, connectivity, names), the mission [`ConstraintSet`], the
/// verdict-affecting fields of the [`ProofConfig`] and the
/// [`ENGINE_EPOCH`]. Scheduling knobs
/// (thread count, worklist sample), wall-clock limits, the cancel token and
/// the checkpoint path are deliberately excluded — they never change which
/// verdict a fault gets.
pub fn campaign_fingerprint(
    netlist: &Netlist,
    constraints: &ConstraintSet,
    config: &ProofConfig,
) -> u64 {
    let mut h = Fnv::new();
    h.write_str(netlist.name());
    h.write_usize(netlist.num_nets());
    h.write_usize(netlist.num_cells());
    for cell in netlist.cells() {
        h.write_str(&cell.kind().lib_name());
        h.write_str(cell.name());
        h.write_usize(cell.inputs().len());
        for &net in cell.inputs() {
            h.write_usize(net.index());
        }
        match cell.output() {
            Some(net) => h.write_usize(net.index() + 1),
            None => h.write_usize(0),
        }
    }
    let mut forced: Vec<(usize, u8)> = constraints
        .forced_nets
        .iter()
        .map(|(&net, &value)| (net.index(), u8::from(value)))
        .collect();
    forced.sort_unstable();
    h.write_usize(forced.len());
    for (net, value) in forced {
        h.write_usize(net);
        h.write(&[value]);
    }
    let mut masked: Vec<usize> = constraints
        .masked_outputs
        .iter()
        .map(|&cell| cell.index())
        .collect();
    masked.sort_unstable();
    h.write_usize(masked.len());
    for cell in masked {
        h.write_usize(cell);
    }
    h.write_bool(constraints.observe_ff_inputs);
    h.write_bool(constraints.control_ff_outputs);
    // The constant values of two constraint fields that no longer exist
    // (an opt-in sequential fixpoint, off, capped at 32 iterations): hashing
    // them keeps every existing checkpoint and cache key valid.
    h.write_bool(false);
    h.write_usize(32);
    h.write_usize(config.backtrack_limit);
    h.write_bool(config.use_collapse);
    h.write_bool(config.cone_clip);
    h.write_bool(config.use_scoap);
    h.write_bool(config.use_x_path);
    h.write_bool(config.use_sat);
    h.write_u64(config.sat_conflict_limit);
    h.write_u64(ENGINE_EPOCH);
    h.0
}

/// A fault's identity inside the checkpoint: site kind, cell, pin, stuck
/// value.
type FaultKey = (u8, usize, u64, bool);

fn key_of(fault: StuckAt) -> FaultKey {
    match fault.site {
        FaultSite::CellOutput { cell } => (b'o', cell.index(), 0, fault.value),
        FaultSite::CellInput { cell, pin } => (b'i', cell.index(), u64::from(pin), fault.value),
    }
}

const HEADER: &str = "untestable-checkpoint v1";

struct WriterState {
    writer: Option<BufWriter<File>>,
    /// First deferred write error; surfaced by [`Checkpoint::sync`].
    error: Option<String>,
}

/// An append-only verdict store shared by the campaign's worker threads.
///
/// Created (or resumed) with [`create_or_resume`](Self::create_or_resume);
/// the campaign pre-seeds every [`concluded`](Self::concluded) verdict,
/// [`record`](Self::record)s new ones as they arrive, and calls
/// [`sync`](Self::sync) at the end to surface any deferred write error.
pub struct Checkpoint {
    path: PathBuf,
    fingerprint: u64,
    entries: HashMap<FaultKey, EngineOutcome>,
    /// The torn trailing record dropped at load time, if any (1-based line
    /// number and the raw line) — the crash artefact of the interrupted run.
    torn_tail: Option<(usize, String)>,
    state: Mutex<WriterState>,
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("path", &self.path)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl Checkpoint {
    /// Opens `path` for the campaign identified by `fingerprint`: an
    /// existing file is parsed and its verdicts loaded (refusing a
    /// fingerprint mismatch), a missing file is created with a fresh header.
    /// Either way the file is then held open for incremental appends.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read or created,
    /// [`CheckpointError::Format`] on a malformed interior line, and
    /// [`CheckpointError::FingerprintMismatch`] when the file belongs to a
    /// different proof problem. A malformed *final* record is tolerated: it
    /// is the torn write of the interrupted run, and its fault is simply
    /// re-proven.
    pub fn create_or_resume(
        path: impl AsRef<Path>,
        fingerprint: u64,
    ) -> Result<Self, CheckpointError> {
        let path = path.as_ref().to_path_buf();
        let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
        let existing = match std::fs::read_to_string(&path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io(e)),
        };
        let mut entries = HashMap::new();
        let mut torn_tail = None;
        let mut fresh = true;
        let mut needs_newline = false;
        if let Some(text) = existing.filter(|t| !t.trim().is_empty()) {
            fresh = false;
            let parsed = parse_checkpoint(&text, fingerprint)?;
            entries = parsed.entries;
            if let Some((line, start, tail)) = parsed.torn_tail {
                // Cut the torn record off before reopening for append: left
                // in place, the next append would concatenate onto it and
                // turn the tolerated crash artefact into interior corruption
                // that refuses every later resume.
                OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|file| file.set_len(start as u64))
                    .map_err(io)?;
                torn_tail = Some((line, tail));
            } else {
                // A crash can also tear *exactly* the final newline off an
                // otherwise complete record; appending straight after it
                // would concatenate two records into one corrupt line.
                needs_newline = !text.ends_with('\n');
            }
        }
        if fresh {
            // Write the header through a sibling temp file and publish it
            // with an atomic rename: a crash during creation leaves either no
            // file or a complete two-line header, never a half-written header
            // that a later resume would refuse.
            let mut tmp_name = path.as_os_str().to_os_string();
            tmp_name.push(format!(".tmp{}", std::process::id()));
            let tmp = PathBuf::from(tmp_name);
            let header = {
                let mut file = File::create(&tmp).map_err(io)?;
                let attempt = writeln!(file, "{HEADER}")
                    .and_then(|()| writeln!(file, "fingerprint {fingerprint:016x}"))
                    .and_then(|()| file.sync_all());
                attempt.and_then(|()| std::fs::rename(&tmp, &path))
            };
            if let Err(e) = header {
                let _ = std::fs::remove_file(&tmp);
                return Err(io(e));
            }
        }
        if let Some((line, text)) = &torn_tail {
            eprintln!(
                "warning: checkpoint {}: dropped torn trailing record at line {line} \
                 ({text:?}); its fault will be re-proven",
                path.display()
            );
        }
        let mut writer = BufWriter::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(io)?,
        );
        if needs_newline {
            writer
                .write_all(b"\n")
                .and_then(|()| writer.flush())
                .map_err(io)?;
        }
        Ok(Checkpoint {
            path,
            fingerprint,
            entries,
            torn_tail,
            state: Mutex::new(WriterState {
                writer: Some(writer),
                error: None,
            }),
        })
    }

    /// The campaign fingerprint this file is keyed by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of verdicts loaded from the file at open time.
    pub fn loaded(&self) -> usize {
        self.entries.len()
    }

    /// The torn trailing record dropped (and truncated off the file) at open
    /// time, if the interrupted run crashed mid-append: the raw text of the
    /// incomplete line. Its fault is simply re-proven; callers may surface
    /// this as a warning.
    pub fn torn_tail(&self) -> Option<&str> {
        self.torn_tail.as_ref().map(|(_, text)| text.as_str())
    }

    /// The verdict recorded for `fault` by a previous run, if any.
    pub fn concluded(&self, fault: StuckAt) -> Option<EngineOutcome> {
        self.entries.get(&key_of(fault)).copied()
    }

    /// Appends one verdict (thread-safe, flushed immediately so a crash
    /// loses at most this line). Non-reproducible outcomes — timeouts and
    /// caught panics — are silently skipped: they must be re-proven by the
    /// resumed run, not replayed into it. A write error is deferred and
    /// surfaced by [`sync`](Self::sync); recording continues in memory-less
    /// mode so the campaign itself never dies on a full disk.
    pub fn record(&self, fault: StuckAt, result: EngineOutcome) {
        if let Some(reason) = result.reason {
            if !reason.is_deterministic() {
                return;
            }
        }
        let line = format_record(fault, result);
        let mut state = self.state.lock().expect("checkpoint writer poisoned");
        let Some(writer) = state.writer.as_mut() else {
            return;
        };
        let attempt = writeln!(writer, "{line}").and_then(|()| writer.flush());
        if let Err(e) = attempt {
            state.error = Some(format!("{}: {e}", self.path.display()));
            state.writer = None;
        }
    }

    /// Flushes the file and surfaces the first deferred write error, if any.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when any append since the last `sync` failed.
    pub fn sync(&self) -> Result<(), CheckpointError> {
        let mut state = self.state.lock().expect("checkpoint writer poisoned");
        if let Some(message) = state.error.take() {
            return Err(CheckpointError::Io(message));
        }
        if let Some(writer) = state.writer.as_mut() {
            if let Err(e) = writer.flush() {
                state.writer = None;
                return Err(CheckpointError::Io(format!("{}: {e}", self.path.display())));
            }
        }
        Ok(())
    }
}

fn format_record(fault: StuckAt, result: EngineOutcome) -> String {
    let (kind, cell, pin) = match fault.site {
        FaultSite::CellOutput { cell } => ('o', cell.index(), "-".to_string()),
        FaultSite::CellInput { cell, pin } => ('i', cell.index(), pin.to_string()),
    };
    let value = u8::from(fault.value);
    let engine = match result.engine {
        ProofEngine::Podem => "podem",
        ProofEngine::Sat => "sat",
    };
    let verdict = match result.outcome {
        ProofOutcome::TestExists => "test-exists".to_string(),
        ProofOutcome::ProvenUntestable => "proven".to_string(),
        ProofOutcome::Aborted => {
            let reason = result.reason.unwrap_or(AbortReason::Backtracks);
            format!("aborted {}", reason.name())
        }
    };
    format!("fault {kind} {cell} {pin} {value} {engine} {verdict}")
}

fn parse_record(tokens: &[&str]) -> Result<(FaultKey, EngineOutcome), String> {
    if tokens.len() < 6 {
        return Err("truncated fault record".to_string());
    }
    let kind = match tokens[1] {
        "o" => b'o',
        "i" => b'i',
        other => return Err(format!("unknown fault site kind {other:?}")),
    };
    let cell: usize = tokens[2]
        .parse()
        .map_err(|_| format!("bad cell index {:?}", tokens[2]))?;
    let pin: u64 = if kind == b'o' {
        if tokens[3] != "-" {
            return Err("output fault must use '-' for the pin".to_string());
        }
        0
    } else {
        let pin: u64 = tokens[3]
            .parse()
            .map_err(|_| format!("bad pin index {:?}", tokens[3]))?;
        if u64::from(PinIndex::MAX) < pin {
            return Err(format!("pin index {pin} out of range"));
        }
        pin
    };
    let value = match tokens[4] {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad stuck value {other:?}")),
    };
    let engine = match tokens[5] {
        "podem" => ProofEngine::Podem,
        "sat" => ProofEngine::Sat,
        other => return Err(format!("unknown engine {other:?}")),
    };
    let result = match (tokens.get(6).copied(), tokens.get(7).copied()) {
        (Some("test-exists"), None) => EngineOutcome::concluded(ProofOutcome::TestExists, engine),
        (Some("proven"), None) => EngineOutcome::concluded(ProofOutcome::ProvenUntestable, engine),
        (Some("aborted"), Some(reason)) => {
            let reason = AbortReason::from_name(reason)
                .ok_or_else(|| format!("unknown abort reason {reason:?}"))?;
            if !reason.is_deterministic() {
                return Err(format!(
                    "non-deterministic abort reason {reason} must not be persisted"
                ));
            }
            EngineOutcome::aborted(engine, reason)
        }
        _ => return Err("malformed verdict".to_string()),
    };
    Ok(((kind, cell, pin, value), result))
}

/// The outcome of loading a checkpoint file: the recorded verdicts plus, when
/// the interrupted run tore its final append, the dropped trailing record
/// (1-based line number, byte offset of the line start, raw line text).
struct ParsedCheckpoint {
    entries: HashMap<FaultKey, EngineOutcome>,
    torn_tail: Option<(usize, usize, String)>,
}

fn parse_checkpoint(text: &str, expected: u64) -> Result<ParsedCheckpoint, CheckpointError> {
    // Keep each line's byte offset: a torn trailing record must be truncated
    // off the file before appending resumes, or the next append would
    // concatenate onto it and turn the crash artefact into interior
    // corruption for every later resume.
    let mut offset = 0usize;
    let mut lines: Vec<(usize, usize, &str)> = Vec::new();
    for (i, raw) in text.split_inclusive('\n').enumerate() {
        let trimmed = raw.trim();
        if !trimmed.is_empty() {
            lines.push((i + 1, offset, trimmed));
        }
        offset += raw.len();
    }
    let format = |line: usize, message: String| CheckpointError::Format { line, message };
    let empty = ParsedCheckpoint {
        entries: HashMap::new(),
        torn_tail: None,
    };
    let Some(&(line, _, header)) = lines.first() else {
        return Ok(empty);
    };
    if header != HEADER {
        return Err(format(line, format!("expected header {HEADER:?}")));
    }
    let Some(&(line, _, fp_line)) = lines.get(1) else {
        return Err(format(2, "missing fingerprint line".to_string()));
    };
    let found = fp_line
        .strip_prefix("fingerprint ")
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
        .ok_or_else(|| format(line, format!("bad fingerprint line {fp_line:?}")))?;
    if found != expected {
        return Err(CheckpointError::FingerprintMismatch { expected, found });
    }
    let mut entries = HashMap::new();
    let mut torn_tail = None;
    let last = lines.len() - 1;
    for (position, &(line, start, text)) in lines.iter().enumerate().skip(2) {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let parsed = if tokens.first() != Some(&"fault") {
            Err(format!("expected a fault record, found {text:?}"))
        } else {
            parse_record(&tokens)
        };
        match parsed {
            Ok((key, result)) => {
                entries.insert(key, result);
            }
            // Exactly one incomplete *final* line may be the torn write of an
            // interrupted run: drop it (the fault is simply re-proven) and
            // remember where it starts so the caller can truncate it away.
            // Anything earlier is real corruption and refuses the file.
            Err(_) if position == last => torn_tail = Some((line, start, text.to_string())),
            Err(message) => return Err(format(line, message)),
        }
    }
    Ok(ParsedCheckpoint { entries, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::ProofConfig;
    use netlist::{CellId, NetlistBuilder};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "untestable-checkpoint-{}-{tag}.ckpt",
            std::process::id()
        ))
    }

    /// The classic redundant AND-OR design plus the `CellId` of its AND.
    fn small_design() -> (Netlist, CellId) {
        let mut b = NetlistBuilder::new("ckpt");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.and2(a, c);
        let y = b.or2(a, t);
        b.output("y", y);
        let n = b.finish();
        let and = n.driver_of(t).unwrap();
        (n, and)
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (_n, and) = small_design();
        let stem = StuckAt::output(and, false);
        let branch = StuckAt::input(and, 1, true);
        {
            let cp = Checkpoint::create_or_resume(&path, 0xabcd).unwrap();
            assert_eq!(cp.loaded(), 0);
            cp.record(
                stem,
                EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Sat),
            );
            cp.record(
                branch,
                EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Backtracks),
            );
            // Non-deterministic outcomes must not be persisted.
            cp.record(
                StuckAt::output(and, true),
                EngineOutcome::aborted(ProofEngine::Podem, AbortReason::Timeout),
            );
            cp.sync().unwrap();
        }
        let resumed = Checkpoint::create_or_resume(&path, 0xabcd).unwrap();
        assert_eq!(resumed.loaded(), 2);
        assert_eq!(
            resumed.concluded(stem),
            Some(EngineOutcome::concluded(
                ProofOutcome::ProvenUntestable,
                ProofEngine::Sat
            ))
        );
        assert_eq!(
            resumed.concluded(branch),
            Some(EngineOutcome::aborted(
                ProofEngine::Podem,
                AbortReason::Backtracks
            ))
        );
        assert_eq!(resumed.concluded(StuckAt::output(and, true)), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            Checkpoint::create_or_resume(&path, 1).unwrap();
        }
        let err = Checkpoint::create_or_resume(&path, 2).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::FingerprintMismatch {
                expected: 2,
                found: 1
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_tolerated_but_interior_corruption_is_not() {
        let path = temp_path("torn");
        let (_n, and) = small_design();
        {
            let _ = std::fs::remove_file(&path);
            let cp = Checkpoint::create_or_resume(&path, 7).unwrap();
            cp.record(
                StuckAt::output(and, false),
                EngineOutcome::concluded(ProofOutcome::TestExists, ProofEngine::Podem),
            );
            cp.sync().unwrap();
        }
        // Simulate a torn write: append half a record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("fault o 3");
        std::fs::write(&path, &text).unwrap();
        let resumed = Checkpoint::create_or_resume(&path, 7).unwrap();
        assert_eq!(resumed.loaded(), 1);
        drop(resumed);
        // The same garbage in the middle of the file is corruption.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("fault o 3\nfault o 4 - 1 podem proven\n");
        std::fs::write(&path, &text).unwrap();
        let err = Checkpoint::create_or_resume(&path, 7).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Format { .. }),
            "unexpected error: {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_at_every_byte_of_the_last_record_is_tolerated() {
        let path = temp_path("every-byte");
        let (_n, and) = small_design();
        let faults = [
            StuckAt::output(and, false),
            StuckAt::input(and, 0, true),
            StuckAt::input(and, 1, false),
        ];
        {
            let _ = std::fs::remove_file(&path);
            let cp = Checkpoint::create_or_resume(&path, 0x5eed).unwrap();
            for &fault in &faults {
                cp.record(
                    fault,
                    EngineOutcome::concluded(ProofOutcome::ProvenUntestable, ProofEngine::Sat),
                );
            }
            cp.sync().unwrap();
        }
        let full = std::fs::read_to_string(&path).unwrap();
        // Byte offset where the last record starts (the file ends with a
        // newline, so the offset is just past the second-to-last newline).
        let body = full.trim_end_matches('\n');
        let last_start = body.rfind('\n').unwrap() + 1;
        let complete_from = full.len() - 1; // record complete once only '\n' is missing
        for cut in last_start..=full.len() {
            std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            let resumed = Checkpoint::create_or_resume(&path, 0x5eed)
                .unwrap_or_else(|e| panic!("cut at byte {cut} refused: {e}"));
            let expect = if cut >= complete_from { 3 } else { 2 };
            assert_eq!(resumed.loaded(), expect, "cut at byte {cut}");
            let torn = cut > last_start && cut < complete_from;
            assert_eq!(resumed.torn_tail().is_some(), torn, "cut at byte {cut}");
            // The resumed file must stay appendable: a new verdict lands on
            // its own line and the *next* resume sees everything.
            resumed.record(
                StuckAt::output(and, true),
                EngineOutcome::concluded(ProofOutcome::TestExists, ProofEngine::Podem),
            );
            resumed.sync().unwrap();
            drop(resumed);
            let again = Checkpoint::create_or_resume(&path, 0x5eed)
                .unwrap_or_else(|e| panic!("post-append resume at byte {cut} refused: {e}"));
            assert_eq!(again.loaded(), expect + 1, "cut at byte {cut}");
            assert_eq!(again.torn_tail(), None, "cut at byte {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_header_leaves_no_temp_file_behind() {
        let path = temp_path("atomic-header");
        let _ = std::fs::remove_file(&path);
        drop(Checkpoint::create_or_resume(&path, 0xfeed).unwrap());
        let dir = path.parent().unwrap();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|f| f.starts_with(&name) && f != &name)
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        // And the published header resumes cleanly.
        assert_eq!(
            Checkpoint::create_or_resume(&path, 0xfeed)
                .unwrap()
                .loaded(),
            0
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_tracks_the_proof_problem_but_not_the_schedule() {
        let (n, _and) = small_design();
        let constraints = ConstraintSet::full_scan();
        let config = ProofConfig::default();
        let base = campaign_fingerprint(&n, &constraints, &config);
        assert_eq!(base, campaign_fingerprint(&n, &constraints, &config));
        // Thread count, sampling and wall-clock limits are scheduling, not
        // semantics.
        let threaded = ProofConfig {
            threads: 7,
            max_faults: Some(3),
            sample_seed: Some(1),
            stage_timeout: Some(std::time::Duration::from_secs(1)),
            checkpoint: Some(PathBuf::from("elsewhere.ckpt")),
            ..config.clone()
        };
        assert_eq!(base, campaign_fingerprint(&n, &constraints, &threaded));
        // A different budget can change verdicts.
        let tighter = ProofConfig {
            backtrack_limit: 1,
            ..config.clone()
        };
        assert_ne!(base, campaign_fingerprint(&n, &constraints, &tighter));
        // A different environment changes the problem.
        let mut tied = constraints.clone();
        tied.tie_net(n.cells()[0].output().unwrap(), false);
        assert_ne!(base, campaign_fingerprint(&n, &tied, &config));
        // A different design changes the problem.
        let mut b = NetlistBuilder::new("other");
        let a = b.input("a");
        b.output("y", a);
        let other = b.finish();
        assert_ne!(base, campaign_fingerprint(&other, &constraints, &config));
    }
}
