//! Spans the benchmark records around its own calls into each layer.
//! They live in memory (a bounded, pre-allocated log per thread) and are
//! written out once, when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One timed call (or one batch of `calls` back-to-back calls — calls
/// far shorter than the timer are only measurable in batches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one operation.
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

impl Span {
    pub fn ns_per_call(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / f64::from(self.calls.max(1))
    }
}

/// A bounded in-memory span log. When full it stops recording (and
/// counts what it dropped) rather than grow inside a timed loop.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    /// Ids are `id_base + index`, so logs of several threads can be
    /// concatenated without renumbering.
    id_base: u32,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(origin: Instant, capacity: usize, id_base: u32) -> Self {
        Self { origin, spans: Vec::with_capacity(capacity), id_base, dropped: 0 }
    }

    /// Records a span and returns its id, or `None` once the log is full.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u64,
        (start, end): (Instant, Instant),
        calls: u32,
    ) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        let id = self.id_base + self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            op_id,
            start_ns: ns(start),
            end_ns: ns(end),
            calls,
        });
        Some(id)
    }

    /// Moves the end of span `id` (recorded by this log) to `end`: for a
    /// parent that must exist before its children but ends after them.
    pub fn end(&mut self, id: u32, end: Instant) {
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans[(id - self.id_base) as usize].end_ns = end_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and a
/// child reaching outside its parent only counts where it is inside.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index_of: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = span.parent.and_then(|p| index_of.get(&p)) {
            let (lo, hi) = (span.start_ns.max(spans[p].start_ns), span.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Median nanoseconds per call over the spans named `name`.
pub fn median_ns_per_call(spans: &[Span], name: &str) -> Option<f64> {
    let mut per_call: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(Span::ns_per_call).collect();
    median(&mut per_call)
}

/// Median of `values` (sorts them); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 { values[mid] } else { (values[mid - 1] + values[mid]) / 2.0 })
}

/// Writes `{"workload": .., "dropped": .., "<section>": [..], ..}`, one
/// span per line.
pub fn write_json(
    out: &mut impl Write,
    workload: &str,
    dropped: u64,
    sections: &[(&str, &[Span])],
) -> io::Result<()> {
    write!(out, "{{\"workload\": \"{workload}\", \"dropped\": {dropped}")?;
    for (section, spans) in sections {
        writeln!(out, ",\n\"{section}\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"op_id\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}{comma}",
                s.name, s.id, s.op_id, s.start_ns, s.end_ns, s.calls
            )?;
        }
        write!(out, "]")?;
    }
    writeln!(out, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "x", id, parent, op_id: 0, start_ns, end_ns, calls: 1 }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 110, 130),
            span(2, Some(0), 150, 190),
            span(3, Some(2), 160, 170),
        ];
        assert_eq!(self_times(&spans), [40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_only_inside() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160), // overlaps span 1 by 10
            span(3, Some(0), 120, 130), // entirely inside span 1
            span(4, Some(0), 190, 250), // hangs 50 past the parent
            span(5, Some(9), 0, 1000),  // parent not in the log
        ];
        // Covered: 110..160 and 190..200 = 60.
        assert_eq!(self_times(&spans), [40, 40, 20, 10, 60, 1000]);
    }

    #[test]
    fn the_log_is_bounded_and_numbers_from_its_base() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin, 2, 100);
        let at = (origin, origin + std::time::Duration::from_nanos(640));
        assert_eq!(log.push("a", None, 1, at, 64), Some(100));
        assert_eq!(log.push("b", Some(100), 1, at, 1), Some(101));
        assert_eq!(log.push("c", None, 2, at, 1), None);
        assert_eq!(log.dropped, 1);
        let spans = log.into_spans();
        assert_eq!(spans[0].ns_per_call(), 10.0);
        assert_eq!(median_ns_per_call(&spans, "a"), Some(10.0));
        assert_eq!(median_ns_per_call(&spans, "missing"), None);
        let mut json = Vec::new();
        write_json(&mut json, "w", 1, &[("spans", &spans)]).unwrap();
        let text = String::from_utf8(json).unwrap();
        assert!(text.contains("\"name\": \"b\", \"id\": 101, \"parent\": 100"), "{text}");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }
}
