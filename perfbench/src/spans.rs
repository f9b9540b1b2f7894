//! The traced run's span store: spans recorded by the benchmark around
//! its own calls into each layer, kept in memory and written out once at
//! exit. Nothing here reaches into the engine.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `parent` is 0 for a root; spans of one request share
/// `request` (0 when the span belongs to no request).
struct Span {
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::close`] records it.
pub struct Open {
    pub id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), next_id: AtomicU32::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &'static str, parent: u32, request: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, request, name, start_ns: self.now_ns() }
    }

    /// Close `open`, returning its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        end_ns - open.start_ns
    }

    /// Run `f` inside a span.
    pub fn run<R>(
        &self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, request);
        let out = f();
        self.close(open);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Per span name: (count, total ns, total self ns). A span's self time
    /// is its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let covered = children.get(&s.id).map_or(0, |kids| covered_ns(s, kids));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        out
    }

    /// Write every span plus the self-time summary as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let summary = self.self_times();
        let spans = self.spans.lock().expect("span store poisoned");
        let mut doc = String::from("{\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(
                doc,
                "\n{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        doc.push_str("\n],\"self_times\":{");
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(
                doc,
                "\n\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        doc.push_str("\n}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}

/// Length of the union of the children's intervals, clipped to `span`.
fn covered_ns(span: &Span, kids: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|&(a, b)| (a.max(span.start_ns), b.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let parent = Span { id: 1, parent: 0, request: 0, name: "p", start_ns: 0, end_ns: 100 };
        assert_eq!(covered_ns(&parent, &[(10, 30), (20, 40), (90, 150)]), 40);
    }
}
