//! Spans recorded by the traced run, kept in memory and written out when
//! the run ends.
//!
//! A span is named after the layer call it wraps. Spans of one sample
//! share the sample index as their id; each names its parent span
//! (`setup` or `drive`, empty for the two roots). A layer's self time is
//! its span minus the child spans it contains.

use pop_proto::EngineTelemetry;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// What an `advance_changed` call did, read off the telemetry counters
/// it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// Launched at least one dense block.
    Block = 0,
    /// Drew at least one sparse-skipper event (and no block).
    Sparse = 1,
    /// Anything else: geometric skips, literal steps, horizon charges.
    Other = 2,
}

impl CallClass {
    /// Classify a call by the counters it moved between `before` and
    /// `after`.
    pub fn of(before: &EngineTelemetry, after: &EngineTelemetry) -> CallClass {
        if after.blocks > before.blocks {
            CallClass::Block
        } else if after.sparse.events > before.sparse.events {
            CallClass::Sparse
        } else {
            CallClass::Other
        }
    }

    /// The span name of this class.
    pub fn name(&self) -> &'static str {
        match self {
            CallClass::Block => "advance_changed.block",
            CallClass::Sparse => "advance_changed.sparse",
            CallClass::Other => "advance_changed.other",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    sample: u32,
    name: &'static str,
    parent: &'static str,
    start_ns: u64,
    dur_ns: u64,
    d_scheduled: u64,
    d_effective: u64,
}

/// In-memory span store. Times are relative to the recorder's creation.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// End the span started at `start`; returns its length in seconds.
    pub fn close(
        &mut self,
        sample: u32,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        d_scheduled: u64,
        d_effective: u64,
    ) -> f64 {
        let dur = start.elapsed();
        self.push(sample, name, parent, start, dur, d_scheduled, d_effective)
    }

    /// Record an `advance_changed` call (child of `drive`) whose length
    /// was read right after it returned.
    pub fn close_call(
        &mut self,
        sample: u32,
        class: CallClass,
        start: Instant,
        dur: Duration,
        d_scheduled: u64,
        d_effective: u64,
    ) -> f64 {
        self.push(
            sample,
            class.name(),
            "drive",
            start,
            dur,
            d_scheduled,
            d_effective,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        sample: u32,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        dur: Duration,
        d_scheduled: u64,
        d_effective: u64,
    ) -> f64 {
        self.spans.push(Span {
            sample,
            name,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            d_scheduled,
            d_effective,
        });
        dur.as_secs_f64()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Write every span as a tab-separated row to `path`, creating its
    /// directory. The file opens with `# <comment>` (the run manifest) and
    /// a column header.
    pub fn write_tsv(&self, path: &Path, comment: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {comment}")?;
        writeln!(
            out,
            "sample\tspan\tparent\tstart_ns\tdur_ns\td_scheduled\td_effective"
        )?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.sample, s.name, s.parent, s.start_ns, s.dur_ns, s.d_scheduled, s.d_effective
            )?;
        }
        out.flush()
    }
}
