//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, written as JSONL when the run ends; and the telemetry sink the
//! search workloads time epochs with.
//!
//! Each span has a name, start, end (nanoseconds on [`now_ns`]'s clock) and
//! the id of the span that caused it (0 for a root). Serve spans also carry
//! the request id they belong to.

use crate::clock::now_ns;
use edd_runtime::telemetry::{Event, EventKind, Sink, Value};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Id, unique within the trace, starting at 1.
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Dotted layer name, e.g. `runtime.serve.queue`.
    pub name: Cow<'static, str>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Request the span belongs to, for serve spans.
    pub request: Option<u64>,
}

/// Spans kept in memory for the length of a run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        request: Option<u64>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            request,
        });
        id
    }

    /// Sets the end of span `id`, for a span opened before its end was
    /// known. Unknown ids are ignored.
    pub fn end(&mut self, id: u64, end_ns: u64) {
        if let Some(s) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end_ns = end_ns;
        }
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `header` as the first line, then one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}\n");
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// What a [`CaptureSink`] saw.
#[derive(Debug, Default)]
pub struct Captured {
    /// When each epoch event fired, in order.
    pub epochs_ns: Vec<u64>,
    /// `(name, start_ns, end_ns)` of each span, in close order; empty
    /// unless spans were kept.
    pub spans: Vec<(String, u64, u64)>,
}

/// A telemetry sink for the search loops. It records when each epoch
/// event fires, which is how the benchmark times epochs from outside; with
/// spans kept it also holds the phase spans the loops already emit.
///
/// A telemetry span reports its duration when it closes, so the start is
/// reconstructed as close time minus duration (microsecond resolution).
#[derive(Debug)]
pub struct CaptureSink {
    epoch_event: &'static str,
    keep_spans: bool,
    seen: Mutex<Captured>,
}

impl CaptureSink {
    /// A sink that timestamps events named `epoch_event` and, if
    /// `keep_spans`, keeps every span.
    #[must_use]
    pub fn new(epoch_event: &'static str, keep_spans: bool) -> Self {
        CaptureSink {
            epoch_event,
            keep_spans,
            seen: Mutex::new(Captured::default()),
        }
    }

    /// Takes what the sink has seen so far.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while emitting.
    pub fn take(&self) -> Captured {
        std::mem::take(&mut *self.seen.lock().expect("capture sink poisoned"))
    }
}

impl Sink for CaptureSink {
    fn emit(&self, event: &Event<'_>) {
        let now = now_ns();
        match (event.kind, &event.value) {
            (EventKind::Event, _) if event.name == self.epoch_event => self
                .seen
                .lock()
                .expect("capture sink poisoned")
                .epochs_ns
                .push(now),
            (EventKind::Span, Some(Value::U64(us))) if self.keep_spans => {
                let start = now.saturating_sub(*us * 1000);
                self.seen
                    .lock()
                    .expect("capture sink poisoned")
                    .spans
                    .push((event.name.to_owned(), start, now));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_to_parents_and_serialize() {
        let mut t = Trace::default();
        let root = t.push("bench.request", 0, 10, 50, Some(7));
        let child = t.push("runtime.serve.queue", root, 12, 30, Some(7));
        assert_eq!((root, child), (1, 2));
        assert_eq!(t.spans()[1].parent, root);
        let path =
            std::env::temp_dir().join(format!("edd-bench-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path, "{\"workload\":\"x\"}")
            .expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        std::fs::remove_file(&path).expect("remove trace");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[2],
            "{\"id\":2,\"parent\":1,\"name\":\"runtime.serve.queue\",\"start_ns\":12,\
             \"end_ns\":30,\"request\":7}"
        );
    }

    #[test]
    fn capture_sink_times_epochs_and_keeps_spans_on_request() {
        let span = Event {
            kind: EventKind::Span,
            name: "search.weight_phase",
            value: Some(Value::U64(3)),
            fields: &[],
        };
        let epoch = Event {
            kind: EventKind::Event,
            name: "search.epoch",
            value: None,
            fields: &[],
        };
        let counter = Event {
            kind: EventKind::Counter,
            name: "search.epoch",
            value: Some(Value::U64(1)),
            fields: &[],
        };
        // The process clock starts at its first reading; a span can only be
        // placed once the clock is older than the span.
        while now_ns() < 3000 {}
        let sink = CaptureSink::new("search.epoch", true);
        for e in [&counter, &span, &epoch] {
            sink.emit(e);
        }
        let seen = sink.take();
        assert_eq!(seen.spans.len(), 1);
        assert_eq!(seen.spans[0].0, "search.weight_phase");
        assert_eq!(seen.spans[0].2 - seen.spans[0].1, 3000);
        assert_eq!(seen.epochs_ns.len(), 1);
        assert!(sink.take().epochs_ns.is_empty());

        let quiet = CaptureSink::new("search.epoch", false);
        quiet.emit(&span);
        quiet.emit(&epoch);
        let seen = quiet.take();
        assert!(seen.spans.is_empty());
        assert_eq!(seen.epochs_ns.len(), 1);
    }
}
