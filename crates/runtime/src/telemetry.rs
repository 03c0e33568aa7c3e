//! Structured telemetry: counters, gauges, events, and hierarchical span
//! timers, routed through a pluggable [`Sink`].
//!
//! The design goal is that *disabled* telemetry costs nothing measurable on
//! hot paths: the default global sink is [`NoopSink`], whose
//! [`Sink::enabled`] returns `false`, and every emission helper checks that
//! flag before formatting a single field. Span timers skip even the clock
//! read when the sink is disabled.
//!
//! Backends:
//! - [`NoopSink`] — the default; drops everything.
//! - [`JsonlSink`] — one JSON object per line to a file, suitable for
//!   `jq`/pandas post-processing (`--trace-out` in the CLI).
//!
//! Event names are `.`-separated (`search.epoch`, `kernel.pool.jobs`);
//! span paths are `/`-separated and nest per thread
//! (`search/epoch/weight_step`).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Percentile histogram
// ---------------------------------------------------------------------------

/// Exact buckets for values below this; log-linear buckets above.
const HIST_LINEAR_MAX: u64 = 4096;
/// Sub-buckets per power of two in the log-linear range.
const HIST_SUB: usize = 16;
/// First exponent of the log-linear range (`2^12 == HIST_LINEAR_MAX`).
const HIST_FIRST_EXP: u32 = 12;
/// Total buckets: 4096 exact + 16 per octave for exponents 12..=63.
const HIST_BUCKETS: usize = HIST_LINEAR_MAX as usize + (64 - HIST_FIRST_EXP as usize) * HIST_SUB;

/// Lock-free fixed-memory value histogram with percentile queries,
/// designed for latency tracking in microseconds.
///
/// Values `< 4096` land in exact 1-unit buckets, so percentiles over
/// typical serve latencies are exact; larger values use log-linear
/// buckets (16 per power of two, ≤ 6.25 % relative error), reported as
/// the bucket's lower bound. Recording is a single relaxed atomic
/// increment, safe from any thread.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(HIST_BUCKETS);
        buckets.resize_with(HIST_BUCKETS, || AtomicU64::new(0));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < HIST_LINEAR_MAX {
            value as usize
        } else {
            let exp = 63 - value.leading_zeros(); // >= HIST_FIRST_EXP
            let sub = ((value >> (exp - 4)) & 0xF) as usize;
            HIST_LINEAR_MAX as usize + (exp - HIST_FIRST_EXP) as usize * HIST_SUB + sub
        }
    }

    /// Lower bound of the bucket at `index` — the value percentiles report.
    fn bucket_floor(index: usize) -> u64 {
        if index < HIST_LINEAR_MAX as usize {
            index as u64
        } else {
            let rel = index - HIST_LINEAR_MAX as usize;
            let exp = HIST_FIRST_EXP + (rel / HIST_SUB) as u32;
            let sub = (rel % HIST_SUB) as u64;
            (1u64 << exp) + (sub << (exp - 4))
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest recorded observation (exact, not bucketed); 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile: the smallest recorded bucket value `v`
    /// such that at least `ceil(p/100 · count)` observations are `<= v`.
    /// Returns 0 when empty. `p` is clamped to `(0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0 * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        self.max()
    }
}

// ---------------------------------------------------------------------------
// Values and events
// ---------------------------------------------------------------------------

/// A telemetry field value.
///
/// `F32` exists separately from `F64` because the two types *display*
/// differently (`0.1f32 as f64` prints `0.10000000149011612`); sinks that
/// reproduce legacy text output (the history CSV) must format the original
/// width.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Single-precision float (formatted as `f32`).
    F32(f32),
    /// Double-precision float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident via $conv:ty),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Self { Value::$variant(v as $conv) }
        })*
    };
}

value_from! {
    u64 => U64 via u64,
    u32 => U64 via u64,
    usize => U64 via u64,
    i64 => I64 via i64,
    i32 => I64 via i64,
    f32 => F32 via f32,
    f64 => F64 via f64,
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// What kind of measurement an [`Event`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Monotonically accumulating count (e.g. jobs dispatched).
    Counter,
    /// Point-in-time level (e.g. arena high-water bytes).
    Gauge,
    /// A structured record with named fields (e.g. one epoch's metrics).
    Event,
    /// A completed timed span; `value` is the duration in microseconds.
    Span,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Event => "event",
            EventKind::Span => "span",
        }
    }
}

/// One telemetry record, passed by reference to [`Sink::emit`].
#[derive(Debug)]
pub struct Event<'a> {
    /// Record kind.
    pub kind: EventKind,
    /// Dotted name (`search.epoch`) or, for spans, the `/`-joined path.
    pub name: &'a str,
    /// The primary measurement, when the kind has one.
    pub value: Option<Value>,
    /// Additional named fields.
    pub fields: &'a [(&'a str, Value)],
}

// ---------------------------------------------------------------------------
// Sink trait and backends
// ---------------------------------------------------------------------------

/// Destination for telemetry records. Implementations must be cheap to call
/// concurrently (the worker pool and trainers emit from multiple threads).
pub trait Sink: Send + Sync {
    /// Whether emission helpers should bother constructing events at all.
    /// The no-op backend returns `false`, letting instrumented hot paths
    /// skip field formatting entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn emit(&self, event: &Event<'_>);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Discards everything; reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &Event<'_>) {}
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_value_into(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        // JSON has no NaN/Infinity literals; encode non-finite floats as
        // strings so the line stays parseable.
        Value::F32(x) if !x.is_finite() => {
            let _ = write!(out, "\"{x}\"");
        }
        Value::F32(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) if !x.is_finite() => {
            let _ = write!(out, "\"{x}\"");
        }
        Value::F64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => {
            out.push('"');
            json_escape_into(out, s);
            out.push('"');
        }
    }
}

/// Writes one JSON object per event to a file, e.g.:
///
/// ```json
/// {"ts_us":1234,"kind":"event","name":"search.epoch","epoch":3,"tau":4.1}
/// ```
///
/// `ts_us` is microseconds since the sink was created (monotonic clock),
/// so traces are self-relative and reproducible-run diffs stay small.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    epoch: Instant,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            epoch: Instant::now(),
        })
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event<'_>) {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"ts_us\":{},\"kind\":\"{}\",\"name\":\"",
            self.epoch.elapsed().as_micros(),
            event.kind.as_str()
        );
        json_escape_into(&mut line, event.name);
        line.push('"');
        if let Some(v) = &event.value {
            line.push_str(",\"value\":");
            json_value_into(&mut line, v);
        }
        for (k, v) in event.fields {
            line.push_str(",\"");
            json_escape_into(&mut line, k);
            line.push_str("\":");
            json_value_into(&mut line, v);
        }
        line.push_str("}\n");
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = out.flush();
    }
}

// ---------------------------------------------------------------------------
// Global sink registry
// ---------------------------------------------------------------------------

fn registry() -> &'static RwLock<Arc<dyn Sink>> {
    static REGISTRY: OnceLock<RwLock<Arc<dyn Sink>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Arc::new(NoopSink)))
}

/// Installs `sink` as the process-global telemetry destination.
pub fn set_global(sink: Arc<dyn Sink>) {
    *registry()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = sink;
}

/// Resets the global sink to [`NoopSink`].
pub fn clear_global() {
    set_global(Arc::new(NoopSink));
}

/// The current global sink.
#[must_use]
pub fn global() -> Arc<dyn Sink> {
    registry()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Whether the global sink is accepting events. Instrumented hot paths
/// check this before building field lists.
#[must_use]
pub fn enabled() -> bool {
    global().enabled()
}

/// Emits a counter increment through the global sink.
pub fn counter(name: &str, delta: u64) {
    let sink = global();
    if sink.enabled() {
        sink.emit(&Event {
            kind: EventKind::Counter,
            name,
            value: Some(Value::U64(delta)),
            fields: &[],
        });
    }
}

/// Emits a gauge level through the global sink.
pub fn gauge(name: &str, value: impl Into<Value>) {
    let sink = global();
    if sink.enabled() {
        sink.emit(&Event {
            kind: EventKind::Gauge,
            name,
            value: Some(value.into()),
            fields: &[],
        });
    }
}

/// Emits a structured event with named fields through the global sink.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    let sink = global();
    if sink.enabled() {
        sink.emit(&Event {
            kind: EventKind::Event,
            name,
            value: None,
            fields,
        });
    }
}

// ---------------------------------------------------------------------------
// Hierarchical span timers
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread stack of active span names, joined into `a/b/c` paths.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII timer: measures from construction to drop and emits an
/// [`EventKind::Span`] record whose name is the `/`-joined path of all
/// spans active on this thread (`search/epoch/weight_step`).
///
/// When the global sink is disabled at construction time the span is
/// inert — no clock read, no stack push.
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
}

impl Span {
    /// Opens a span named `name` (a `'static` label, e.g. `"weight_step"`).
    #[must_use]
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return Span { start: None };
        }
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        Span {
            start: Some(Instant::now()),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed_us = start.elapsed().as_micros() as u64;
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let sink = global();
        if sink.enabled() {
            sink.emit(&Event {
                kind: EventKind::Span,
                name: &path,
                value: Some(Value::U64(elapsed_us)),
                fields: &[],
            });
        }
    }
}

/// Opens a [`Span`]; sugar for `Span::enter(name)`.
#[must_use]
pub fn span(name: &'static str) -> Span {
    Span::enter(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test sink that records event lines.
    #[derive(Debug, Default)]
    struct RecordingSink {
        lines: Mutex<Vec<String>>,
    }

    impl Sink for RecordingSink {
        fn emit(&self, event: &Event<'_>) {
            let fields: Vec<String> = event
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            self.lines.lock().unwrap().push(format!(
                "{}:{}:{}:{}",
                event.kind.as_str(),
                event.name,
                event
                    .value
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_default(),
                fields.join(",")
            ));
        }
    }

    #[test]
    fn f32_and_f64_display_differently() {
        // The reason Value::F32 exists: formatting width must follow the
        // source type for byte-identical legacy CSV output.
        assert_eq!(Value::F32(0.1).to_string(), "0.1");
        assert_eq!(
            Value::F64(f64::from(0.1f32)).to_string(),
            "0.10000000149011612"
        );
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "edd-runtime-test-{}-trace.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&Event {
            kind: EventKind::Event,
            name: "search.epoch",
            value: None,
            fields: &[
                ("epoch", Value::U64(3)),
                ("msg", Value::Str("quote \" and \\ and \n".into())),
                ("nan", Value::F32(f32::NAN)),
                ("ok", Value::Bool(true)),
            ],
        });
        sink.emit(&Event {
            kind: EventKind::Span,
            name: "search/epoch",
            value: Some(Value::U64(42)),
            fields: &[],
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            // The vendored serde_json has no dynamic Value type, so check
            // the framing directly: one object per line, ts first.
            assert!(line.starts_with("{\"ts_us\":"), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
        }
        assert!(lines[0].contains("\"kind\":\"event\""));
        assert!(lines[0].contains("\"name\":\"search.epoch\""));
        assert!(lines[0].contains("\"epoch\":3"));
        // Escaping: quote, backslash, newline.
        assert!(lines[0].contains("\"msg\":\"quote \\\" and \\\\ and \\n\""));
        // Non-finite floats are stringified, keeping the line parseable.
        assert!(lines[0].contains("\"nan\":\"NaN\""));
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"kind\":\"span\""));
        assert!(lines[1].contains("\"name\":\"search/epoch\""));
        assert!(lines[1].contains("\"value\":42"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spans_nest_into_paths_and_disabled_spans_are_inert() {
        // Global-registry test: runs single-threaded within this test, and
        // other tests here do not rely on the global sink's contents.
        let rec = Arc::new(RecordingSink::default());
        set_global(rec.clone());
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        clear_global();
        {
            // Disabled: must not emit or touch the stack.
            let _ghost = span("ghost");
        }
        let lines = rec.lines.lock().unwrap().clone();
        assert_eq!(lines.len(), 2, "inner then outer");
        assert!(lines[0].starts_with("span:outer/inner:"));
        assert!(lines[1].starts_with("span:outer:"));
        // Re-enable: stack must be balanced (ghost did not leak a frame).
        let rec2 = Arc::new(RecordingSink::default());
        set_global(rec2.clone());
        {
            let _s = span("solo");
        }
        clear_global();
        let lines2 = rec2.lines.lock().unwrap().clone();
        assert_eq!(lines2.len(), 1);
        assert!(lines2[0].starts_with("span:solo:"));
    }
}
