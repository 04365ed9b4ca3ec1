//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the library's
//! public functions (nothing inside the program is instrumented).  Each
//! thread buffers its spans in a [`Log`] and hands them to the shared
//! [`Tracer`] when the log is dropped; the spans are written out once, when
//! the benchmark ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation (round, job, dispatch) the span belongs to.
    pub run: u64,
    /// The layer boundary the span wraps.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start: u64,
    /// Nanoseconds from the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// The shared span sink and clock of one traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far (logs still alive are not included).
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics holding the span sink")
            .clone()
    }
}

/// A span that has begun: its id (so children can name it) and start.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The span id; 0 when tracing is off.
    pub id: u64,
    start: u64,
}

/// A per-thread span buffer.  With no tracer every call is a no-op that
/// reads no clock, so one code path serves traced and untraced runs.
pub struct Log<'a> {
    tracer: Option<&'a Tracer>,
    spans: Vec<Span>,
}

impl<'a> Log<'a> {
    /// A buffer flushing into `tracer` (none: tracing off).
    pub fn new(tracer: Option<&'a Tracer>) -> Self {
        Log {
            tracer,
            spans: Vec::new(),
        }
    }

    /// Begins a span.
    pub fn begin(&self) -> Open {
        match self.tracer {
            Some(tracer) => Open {
                id: tracer.next_id.fetch_add(1, Ordering::Relaxed),
                start: tracer.now(),
            },
            None => Open { id: 0, start: 0 },
        }
    }

    /// Ends `open` as a span named `name` under `parent` in `run`.
    pub fn end(&mut self, open: Open, name: &'static str, parent: u64, run: u64) {
        if let Some(tracer) = self.tracer {
            self.spans.push(Span {
                id: open.id,
                parent,
                run,
                name,
                start: open.start,
                end: tracer.now(),
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin();
        let result = f();
        self.end(open, name, parent, run);
        result
    }
}

impl Drop for Log<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            if let Ok(mut sink) = tracer.spans.lock() {
                sink.append(&mut self.spans);
            }
        }
    }
}

/// Durations in milliseconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Per-run totals in milliseconds of the spans named `name`.
pub fn per_run_totals(spans: &[Span], name: &str) -> Vec<f64> {
    let mut totals: HashMap<u64, f64> = HashMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *totals.entry(span.run).or_default() += span.ms();
    }
    totals.into_values().collect()
}

/// Self time of each span in nanoseconds: its duration minus the part of
/// its interval that its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut reach = span.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (span.id, (span.end - span.start).saturating_sub(covered))
        })
        .collect()
}

/// The trace as JSON lines: one per span (with its self time), then one
/// summary line per span name with count, total and self milliseconds.
pub fn render(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    let mut by_name: Vec<(&str, usize, f64, f64)> = Vec::new();
    for span in spans {
        let self_ns = selfs.get(&span.id).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"run\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.name, span.id, span.parent, span.run, span.start, span.end, self_ns
        );
        match by_name.iter_mut().find(|(name, ..)| *name == span.name) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += span.ms();
                entry.3 += self_ns as f64 / 1e6;
            }
            None => by_name.push((span.name, 1, span.ms(), self_ns as f64 / 1e6)),
        }
    }
    for (name, count, total, self_ms) in by_name {
        let _ = writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{count},\"total_ms\":{total},\"self_ms\":{self_ms}}}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start, end| Span {
            id,
            parent,
            run: 1,
            name: "x",
            start,
            end,
        };
        // Two overlapping children cover 20..70 of the parent's 0..100.
        let spans = [span(1, 0, 0, 100), span(2, 1, 20, 50), span(3, 1, 40, 70)];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn an_untraced_log_records_nothing() {
        let mut log = Log::new(None);
        let value = log.span("x", 0, 0, || 7);
        assert_eq!(value, 7);
        assert!(log.spans.is_empty());
    }
}
