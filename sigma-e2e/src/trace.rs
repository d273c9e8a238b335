//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer: name, start, end, the span that caused it, and the request
//! they belong to. Kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of all spans called `name`.
    pub fn total(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_ns)
                .sum(),
        )
    }

    /// Self time per span name: each span's duration minus the durations of
    /// its direct children (children never overlap: one thread records them).
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_insert(Duration::ZERO) += Duration::from_nanos(ns);
        }
        by_name
    }

    /// One JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_requests() {
        let mut t = Tracer::new();
        t.span("request", 7, |t| {
            t.span("scan", 7, |_| ());
            t.span("store", 7, |t| t.span("fsync", 7, |_| ()));
        });
        t.span("request", 8, |_| ());
        let names: Vec<_> = t
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            names,
            vec![
                ("request", None, 7),
                ("scan", Some(0), 7),
                ("store", Some(0), 7),
                ("fsync", Some(2), 7),
                ("request", None, 8),
            ]
        );
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        t.push_raw(span("file", 0, 100, None));
        t.push_raw(span("scan", 10, 40, Some(0)));
        t.push_raw(span("store", 50, 90, Some(0)));
        t.push_raw(span("fsync", 60, 85, Some(2)));
        t.push_raw(span("scan", 200, 210, None));
        let own = t.self_times();
        assert_eq!(own["file"], Duration::from_nanos(100 - 30 - 40));
        assert_eq!(own["scan"], Duration::from_nanos(30 + 10));
        assert_eq!(own["store"], Duration::from_nanos(40 - 25));
        assert_eq!(own["fsync"], Duration::from_nanos(25));
        assert_eq!(t.total("scan"), Duration::from_nanos(40));
        // Self times partition the roots' durations.
        let sum: Duration = own.values().sum();
        assert_eq!(sum, Duration::from_nanos(100 + 10));
    }
}
