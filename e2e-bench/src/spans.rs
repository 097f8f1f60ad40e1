//! In-memory span recording for traced runs.
//!
//! The harness opens a span around each call into a layer. Spans are kept
//! in memory and written out when the run ends; the layer metrics are
//! built from each span's self time, which is its duration minus the part
//! of it that its child spans cover.

use plasticine::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Id of the root span of the operation this span belongs to; every
    /// span of one operation shares it.
    pub op: usize,
    /// Layer name, e.g. `ppir.interp`; an operation span is named
    /// `op <what it runs>`.
    pub name: String,
    /// Start, in nanoseconds since the recording began.
    pub start_ns: u64,
    /// End, in nanoseconds since the recording began (equal to `start_ns`
    /// while the span is open).
    pub end_ns: u64,
    /// Work counted at this boundary (`leaves`, `cycles`, `bytes`, ...).
    pub counts: Vec<(&'static str, u64)>,
}

/// Records nested spans. A span opened while another is open becomes its
/// child; a span opened with nothing open starts a new operation.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recording whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let op = parent.map_or(id, |p| self.spans[p].op);
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.into(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adds `n` to count `key` of span `id`.
    pub fn count(&mut self, id: usize, key: &'static str, n: u64) {
        let counts = &mut self.spans[id].counts;
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += n,
            None => counts.push((key, n)),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Per span: nanoseconds of its duration that its direct children cover
/// (overlapping children counted once). `spans` is a contiguous run of a
/// recording, such as one pass; a parent outside it is ignored.
fn child_cover(spans: &[Span]) -> Vec<u64> {
    let base = spans.first().map_or(0, |s| s.id);
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let local = s.parent.and_then(|p| p.checked_sub(base));
        if let Some(c) = local.and_then(|p| children.get_mut(p)) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| covered(c, s.start_ns, s.end_ns))
        .collect()
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_cover(spans))
        .map(|(s, c)| (s.end_ns - s.start_ns) - c)
        .collect()
}

/// The smallest share of an operation (root) span that its children
/// cover; 1 when there are no operations.
pub fn min_op_coverage(spans: &[Span]) -> f64 {
    spans
        .iter()
        .zip(child_cover(spans))
        .filter(|(s, _)| s.parent.is_none() && s.end_ns > s.start_ns)
        .map(|(s, c)| c as f64 / (s.end_ns - s.start_ns) as f64)
        .fold(1.0, f64::min)
}

/// Self seconds per layer name and summed counts per `layer.key`, over
/// `spans`.
pub fn layer_totals(spans: &[Span]) -> (BTreeMap<String, f64>, BTreeMap<String, u64>) {
    let mut secs = BTreeMap::new();
    let mut counts = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *secs.entry(s.name.clone()).or_insert(0.0) += t as f64 * 1e-9;
        for &(k, n) in &s.counts {
            *counts.entry(format!("{}.{k}", s.name)).or_insert(0) += n;
        }
    }
    (secs, counts)
}

/// The spans as a JSON array of
/// `{id, parent, op, name, start_ns, end_ns, counts}` objects.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::from(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("op", Json::from(s.op)),
                    ("name", Json::from(s.name.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    (
                        "counts",
                        Json::obj(s.counts.iter().map(|&(k, n)| (k, Json::from(n)))),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // op [0,100) > a [10,40) > b [20,30); op > c [50,90)
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "b", 20, 30),
            span(3, Some(0), "c", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(min_op_coverage(&spans), 0.7);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Children [10,60) and [40,80) overlap on [40,60): covered once,
        // so the parent keeps [0,10) and [80,100) as self time. A child
        // running past its parent's end is clipped.
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(0), "b", 40, 80),
            span(3, None, "op", 200, 300),
            span(4, Some(3), "c", 250, 400),
        ];
        assert_eq!(self_times(&spans), vec![30, 50, 40, 50, 150]);
        assert_eq!(min_op_coverage(&spans), 0.5);
    }

    #[test]
    fn tracer_links_parents_ops_and_counts() {
        let mut tr = Tracer::new();
        let op = tr.enter("op");
        let a = tr.enter("a");
        tr.count(a, "leaves", 3);
        tr.count(a, "leaves", 4);
        tr.exit(a);
        tr.span("b", || ());
        tr.exit(op);
        let second = tr.enter("op");
        tr.span("c", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.exit(second);
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(op));
        assert_eq!(s[2].parent, Some(op));
        assert!(s.iter().take(3).all(|x| x.op == op));
        assert_eq!((s[3].op, s[4].op), (second, second));
        assert_eq!(s[1].counts, vec![("leaves", 7)]);
        let (secs, counts) = layer_totals(s);
        assert_eq!(counts["a.leaves"], 7);
        assert_eq!(secs.len(), 4);
        // A later pass alone: its spans' parent ids are offsets into the
        // whole recording.
        let (secs, _) = layer_totals(&s[3..]);
        assert!(secs["op"] < secs["c"], "{secs:?}");
        let j = to_json(s);
        assert_eq!(j.as_arr().map(<[Json]>::len), Some(5));
        assert_eq!(j.as_arr().unwrap()[0].get("parent"), Some(&Json::Null));
    }
}
