//! In-memory span recording for the traced run.
//!
//! A span has a name, start, end, parent and op id. Spans are taken
//! from outside the program: around calls into each layer's public
//! functions, and between `ServerObserver` event timestamps. They stay
//! in memory and are written out as JSON lines when the run ends.
//!
//! Self time is a span's duration minus the part of it its children
//! cover. The root span of an op has the op's whole duration, so the
//! root's own self time is the share of the op no named stage explains.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Op id used for set-up spans.
pub const SETUP_OP: i64 = -1;

/// One recorded interval, in ns since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span within the same op (`None` = root).
    pub parent: Option<usize>,
    pub op: i64,
}

/// Aggregate self and total time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTotals {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

/// Spans kept for the span file; above this many, spans are still
/// aggregated but no longer stored.
const STORED_SPANS_CAP: usize = 400_000;

/// Collects spans op by op and aggregates self times per span name.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    stored: Vec<Span>,
    unstored: u64,
    pub totals: BTreeMap<&'static str, StageTotals>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            stored: Vec::new(),
            unstored: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Adds one op's spans (root first; parents precede children),
    /// aggregating self times by name.
    pub fn add_op(&mut self, spans: &[Span]) {
        for (i, span) in spans.iter().enumerate() {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start, c.end))
                .collect();
            let entry = self.totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.end - span.start;
            entry.self_ns += (span.end - span.start) - covered(&mut children, span.start, span.end);
        }
        if self.stored.len() + spans.len() <= STORED_SPANS_CAP {
            self.stored.extend_from_slice(spans);
        } else {
            self.unstored += spans.len() as u64;
        }
    }

    /// Totals for `name` (all zero if never recorded).
    pub fn stage(&self, name: &str) -> StageTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per span of `name`, in µs (`0.0` if none).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let s = self.stage(name);
        if s.count == 0 {
            0.0
        } else {
            s.self_ns as f64 / s.count as f64 / 1e3
        }
    }

    /// Writes every stored span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"spans\":{},\"not_stored\":{}}}",
            self.stored.len(),
            self.unstored
        )?;
        for s in &self.stored {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.op, s.name, s.start, s.end, parent
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(Instant::now());
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            op: 0,
        };
        r.add_op(&[
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ]);
        assert_eq!(r.stage("root").self_ns, 50);
        assert_eq!(r.stage("a").self_ns, 22);
        assert_eq!(r.stage("b").self_ns, 30);
    }
}
