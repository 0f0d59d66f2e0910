//! Spans recorded around the benchmark's calls into each layer's public
//! API. They stay in memory during the run and are written out once at the
//! end; a layer's self time is its spans' durations minus the part of each
//! interval its child spans cover.

use online_untestable::JsonValue;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call or phase.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `podem`, `sat.new`, `proof.worker`.
    pub name: &'static str,
    /// Outcome of the call (a verdict), empty when it has none.
    pub tag: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The run or job the span belongs to.
    pub scope: u64,
    /// Work the call reported (PODEM backtracks), 0 otherwise.
    pub work: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span store; one per thread, merged with
/// [`adopt`](Self::adopt) after the threads join.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span starting now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, scope: u64) -> usize {
        let now = Instant::now();
        self.record(name, "", now, now, parent, scope, 0)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Records a finished call and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        scope: u64,
        work: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            tag,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            scope,
            work,
        });
        self.spans.len() - 1
    }

    /// Moves another recorder's spans (same epoch) into this one, hanging
    /// its root spans under `parent`.
    pub fn adopt(&mut self, other: Recorder, parent: usize) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = Some(span.parent.map_or(parent, |p| p + offset));
            span
        }));
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with the given name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed self time of the spans with the given names.
    pub fn busy(&self, names: &[&str]) -> Duration {
        let self_times = self.self_times();
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(span, _)| names.contains(&span.name))
            .map(|(_, t)| t)
            .sum()
    }

    /// Each span's duration minus the union of its children's intervals.
    fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = Duration::ZERO;
                let mut reach = span.start;
                for (start, end) in intervals {
                    let start = start.max(reach);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as a JSON array (times in microseconds).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::string(s.name)),
                    ("tag".to_string(), JsonValue::string(s.tag)),
                    ("start_us".to_string(), (s.start.as_secs_f64() * 1e6).into()),
                    ("end_us".to_string(), (s.end.as_secs_f64() * 1e6).into()),
                    (
                        "parent".to_string(),
                        s.parent.map_or(JsonValue::Null, JsonValue::from),
                    ),
                    ("scope".to_string(), s.scope.into()),
                    ("work".to_string(), s.work.into()),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, JsonValue::Array(spans).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut rec = Recorder::new(epoch);
        let root = rec.record("proof", "", at(0), at(100), None, 0, 0);
        // Two overlapping children cover 10..50; a third covers 60..70.
        rec.record("podem", "", at(10), at(40), Some(root), 0, 0);
        rec.record("podem", "", at(30), at(50), Some(root), 0, 0);
        rec.record("sat", "", at(60), at(70), Some(root), 0, 0);
        assert_eq!(rec.busy(&["proof"]), Duration::from_millis(50));
        assert_eq!(rec.busy(&["podem"]), Duration::from_millis(50));
        assert_eq!(rec.busy(&["sat", "podem"]), Duration::from_millis(60));
    }

    #[test]
    fn adopted_spans_hang_under_the_parent() {
        let epoch = Instant::now();
        let mut main = Recorder::new(epoch);
        let root = main.open("proof", None, 7);
        let mut worker = Recorder::new(epoch);
        let w = worker.open("proof.worker", None, 7);
        worker.open("podem", Some(w), 7);
        main.adopt(worker, root);
        assert_eq!(main.spans()[1].parent, Some(root));
        assert_eq!(main.spans()[2].parent, Some(1));
    }
}
