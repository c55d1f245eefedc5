//! Spans recorded by the benchmark around its calls into each layer, kept
//! in a preallocated buffer and written out as Chrome trace-event JSON
//! (which Perfetto and `chrome://tracing` open) when the run ends.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Parent of the four below; its id is the time step `t`.
    Step,
    Fill,
    UpdateBatch,
    Advance,
    Check,
}

/// What a step cost the protocol, classed from outside the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// Session: the ledger did not move.
    Silent,
    /// Session: the ledger moved, no reset.
    Violation,
    /// Session: `metrics().resets` grew.
    Reset,
    /// Service: `advance` returned no events.
    Quiet,
    /// Service: `advance` returned events.
    Eventful,
}

impl StepClass {
    fn as_str(self) -> &'static str {
        match self {
            StepClass::Silent => "silent",
            StepClass::Violation => "violation",
            StepClass::Reset => "reset",
            StepClass::Quiet => "quiet",
            StepClass::Eventful => "eventful",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    t: u64,
    kind: SpanKind,
    class: StepClass,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans of one traced run. Never grows past the capacity it was created
/// with, so recording allocates nothing.
pub struct Trace {
    epoch: Instant,
    /// `session` or `serve`: names the update/advance spans.
    layer: &'static str,
    spans: Vec<Span>,
}

/// Spans recorded per traced step.
const SPANS_PER_STEP: usize = 5;

impl Trace {
    pub fn new(layer: &'static str, max_steps: usize) -> Self {
        Trace {
            epoch: Instant::now(),
            layer,
            spans: Vec::with_capacity(max_steps * SPANS_PER_STEP),
        }
    }

    /// No room for another step.
    pub fn is_full(&self) -> bool {
        self.spans.len() + SPANS_PER_STEP > self.spans.capacity()
    }

    pub fn record(
        &mut self,
        t: u64,
        kind: SpanKind,
        class: StepClass,
        start: Instant,
        end: Instant,
    ) {
        debug_assert!(self.spans.len() < self.spans.capacity());
        self.spans.push(Span {
            t,
            kind,
            class,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    /// Durations in µs of the spans of `kind`, optionally of one class.
    pub fn durations_us(&self, kind: SpanKind, class: Option<StepClass>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && class.is_none_or(|c| s.class == c))
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Summed durations in µs of the spans of `kind`.
    pub fn total_us(&self, kind: SpanKind) -> f64 {
        self.durations_us(kind, None).iter().sum()
    }

    fn name(&self, kind: SpanKind) -> String {
        match kind {
            SpanKind::Step => "step".into(),
            SpanKind::Fill => "streams.fill_delta".into(),
            SpanKind::UpdateBatch => format!("{}.update_batch", self.layer),
            SpanKind::Advance => format!("{}.advance", self.layer),
            SpanKind::Check => "check".into(),
        }
    }

    /// Write the spans of the first `max_steps` traced steps as Chrome
    /// trace events (complete events, µs timestamps, one thread, so the
    /// children nest under their step by time).
    pub fn write_chrome(&self, path: &Path, max_steps: usize) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(w, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        let spans = &self.spans[..self.spans.len().min(max_steps * SPANS_PER_STEP)];
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"t\": {}, \"class\": \"{}\"}}}}{sep}",
                self.name(s.kind),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.t,
                s.class.as_str(),
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
