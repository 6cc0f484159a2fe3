//! In-memory span recording for the traced run.
//!
//! The benchmark records a span around each of its own calls into a
//! layer: name, start, end, parent, and the id of the request (or
//! training iteration) it belongs to. Quantities that are not intervals
//! (a span's self time, a layer's own report) are kept as values. Spans
//! stay in memory until the run ends, when [`Tracer::to_jsonl`] renders
//! them for writing out, so recording costs one mutex push per span and
//! no I/O on the measured path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one request or training iteration.
    pub request: u64,
    /// Layer boundary name, e.g. `engine.rollout_ns`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A per-request quantity derived from spans or from a layer's own
/// report rather than timed directly (e.g. a span's self time).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name, e.g. `engine.linger_ns`.
    pub name: &'static str,
    /// The request or iteration it belongs to.
    pub request: u64,
    /// The value.
    pub value: f64,
}

/// Collects spans and derived values from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    values: Mutex<Vec<Value>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a parent whose extent is known only later.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span with a reserved id and explicit times, for spans
    /// whose extent is derived after the fact.
    pub fn record_ns(
        &self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: u64,
        end: u64,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        };
        self.spans.lock().unwrap().push(span);
    }

    /// Record a span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_ns(id, name, request, parent, self.at(start), self.at(end));
        id
    }

    /// Run `f` inside a span and return its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Record a derived value.
    pub fn value(&self, name: &'static str, request: u64, value: f64) {
        self.values.lock().unwrap().push(Value {
            name,
            request,
            value,
        });
    }

    /// `(request, value)` of every derived value named `name`.
    pub fn values_named(&self, name: &str) -> Vec<(u64, f64)> {
        let values = self.values.lock().unwrap();
        values
            .iter()
            .filter(|v| v.name == name)
            .map(|v| (v.request, v.value))
            .collect()
    }

    /// Span durations (in nanoseconds) and derived values, grouped by name.
    pub fn samples(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.lock().unwrap().iter() {
            out.entry(s.name).or_default().push(s.duration() as f64);
        }
        for v in self.values.lock().unwrap().iter() {
            out.entry(v.name).or_default().push(v.value);
        }
        out
    }

    /// Render every span and value as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.lock().unwrap().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.request, s.name, s.start, s.end
            ));
        }
        for v in self.values.lock().unwrap().iter() {
            out.push_str(&format!(
                "{{\"request\":{},\"name\":\"{}\",\"value\":{}}}\n",
                v.request, v.name, v.value
            ));
        }
        out
    }
}

/// Self time of a span: its duration minus the part of its interval that
/// child spans cover. Children may overlap each other (parallel workers)
/// and may stick out of the parent; each instant is subtracted once, and
/// only inside the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two workers stepping at once: [10,40) and [20,50) cover [10,50).
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        // Nested and identical intervals.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30), (10, 90)]), 20);
        // Unsorted input, touching intervals.
        assert_eq!(self_time((0, 100), &[(50, 60), (40, 50), (0, 10)]), 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15)]), 5);
        assert_eq!(self_time((10, 20), &[(15, 30), (0, 5)]), 5);
        assert_eq!(self_time((10, 20), &[(0, 30)]), 0);
        assert_eq!(self_time((10, 20), &[(20, 30)]), 10);
    }

    #[test]
    fn tracer_records_parents_and_requests() {
        let tr = Tracer::new();
        let root = tr.reserve();
        let child = tr.time("child", 7, Some(root), || 3);
        assert_eq!(child, 3);
        tr.record_ns(root, "root", 7, None, 0, tr.at(Instant::now()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root));
        assert!(spans.iter().all(|s| s.request == 7));
        tr.value("derived", 7, 2.5);
        let samples = tr.samples();
        assert_eq!(samples["child"].len(), 1);
        assert_eq!(samples["derived"], vec![2.5]);
        assert_eq!(tr.to_jsonl().lines().count(), 3);
    }
}
