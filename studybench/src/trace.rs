//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer; nothing inside the program is instrumented. They stay
//! in memory until the run ends, when [`Tracer::write_jsonl`] writes
//! them out and [`Tracer::self_times`] derives each name's self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `explore` or `solve.expected`.
    pub name: &'static str,
    /// The study this span belongs to (all spans of one study share it).
    pub study: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans in call order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    study: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            study: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Starts the root span of a new study; every span until the matching
    /// [`Tracer::end_study`] is its descendant.
    pub fn begin_study(&mut self) {
        assert!(self.open.is_empty(), "previous study still open");
        self.study += 1;
        self.open_span("study");
    }

    /// Closes the study's root span and returns its index.
    pub fn end_study(&mut self) -> usize {
        let root = self.close_span();
        assert!(self.open.is_empty(), "unbalanced spans inside the study");
        root
    }

    fn open_span(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            study: self.study,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close_span(&mut self) -> usize {
        let i = self.open.pop().expect("no open span to close");
        self.spans[i].end_ns = self.now_ns();
        i
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open_span(name);
        let out = f();
        self.close_span();
        out
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ms) of the spans named `name` that belong to
    /// studies `first..=last`.
    pub fn total_ms(&self, name: &str, studies: std::ops::RangeInclusive<u64>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && studies.contains(&s.study))
            .map(Span::ms)
            .sum()
    }

    /// The study id of the most recently begun study.
    pub fn current_study(&self) -> u64 {
        self.study
    }

    /// Self time per span name (ms): each span's duration minus the part
    /// its direct children cover, summed by name. Children of one parent
    /// are sequential, so their durations never overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 / 1e6;
        }
        out
    }

    /// Writes one JSON object per span (`name`, `study`, `start_ns`,
    /// `end_ns`, `parent`) to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"study\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.study, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::default();
        t.begin_study();
        t.span("plan", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("explore", || ());
        let root = t.end_study();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[root].name, "study");
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(root));
        assert!(spans.iter().all(|s| s.study == 1));
        let selfs = t.self_times();
        let children = spans[1].ms() + spans[2].ms();
        assert!((selfs["study"] - (spans[root].ms() - children)).abs() < 1e-9);
        assert!(selfs["plan"] >= 2.0);
        assert_eq!(t.total_ms("plan", 1..=1), spans[1].ms());
        assert_eq!(t.total_ms("plan", 2..=2), 0.0);
    }
}
