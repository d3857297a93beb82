//! Span recording for the traced run.
//!
//! The benchmark wraps its own calls into each crate in spans: a name, a
//! start, an end, the span that caused it, and a group id shared by every
//! span of one block, job or operation. Spans stay in memory and are
//! written out as JSON lines when the run ends. Per-layer numbers are
//! *self* times: a span's duration minus the part of it that its child
//! spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder; every call is a no-op when it is off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Reserves an id for a span that will be recorded after its
    /// children (0 when tracing is off).
    pub fn id(&self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            group,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Records a span from `start` to now under a fresh id; returns the id.
    pub fn span(&self, name: &'static str, parent: Option<u64>, group: u64, start: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.id();
        self.record(id, name, parent, group, start, Instant::now());
        id
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// The self time of every span, in the order given: its duration minus
/// the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

/// Self time (ns) and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 7,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Parent 0..100, children 10..30 and 20..50 overlap (two worker
        // threads): together they cover 10..50, so self time is 60.
        // The grandchild 12..18 belongs to child 2 only.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(2), 12, 18),
        ];
        assert_eq!(self_times(&spans), [60, 14, 30, 6]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(1, None, 100, 200), span(2, Some(1), 150, 260)];
        assert_eq!(self_times(&spans), [50, 110]);
    }

    #[test]
    fn totals_group_by_name_and_tracer_off_records_nothing() {
        let t = Tracer::new(true);
        let start = Instant::now();
        let op = t.id();
        t.span("child", Some(op), 1, start);
        t.record(op, "op", None, 1, start, Instant::now());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let by = self_time_by_name(&spans);
        assert_eq!(by["op"].1, 1);
        assert_eq!(by["child"].1, 1);
        assert!(by["op"].0 <= spans[0].end_ns - spans[0].start_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, start), 0);
        assert!(off.spans().is_empty());
    }
}
