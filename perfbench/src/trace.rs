//! In-memory spans and a counting global allocator.
//!
//! A span records name, start, end, parent span and request id. Spans
//! stay in memory during the run and are written as JSON lines at exit.
//! A span's self time is its duration minus the part of it that its
//! child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `System` with an allocation counter (`alloc`, `alloc_zeroed` and
/// `realloc` each count one), read around in-process spans.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// Marks a span without a parent.
pub const ROOT: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `server.decode`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (`start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Request or sample id shared by the spans of one request.
    pub req: u64,
    /// Allocations made while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
            allocs: allocs(),
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let after = allocs();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.allocs = after - span.allocs;
        span.ns()
    }

    /// Records an already-measured interval `[start, end]`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
            allocs: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Reserves room for `n` more spans, so recording does not allocate
    /// inside a measured span.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, mean µs, mean self µs, mean allocs)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64, f64)> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != ROOT {
                children[s.parent as usize].push(i as SpanId);
            }
        }
        let mut acc: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(
                children[i]
                    .iter()
                    .map(|&c| &self.spans[c as usize])
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))),
            );
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(covered);
            e.3 += s.allocs;
        }
        acc.into_iter()
            .map(|(name, (n, total, own, allocs))| {
                let n_f = n as f64;
                (
                    name,
                    (
                        n,
                        total as f64 / n_f / 1e3,
                        own as f64 / n_f / 1e3,
                        allocs as f64 / n_f,
                    ),
                )
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"allocs\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`.
fn covered_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(covered_ns([(0, 10), (5, 15), (20, 30)].into_iter()), 25);
        let mut t = Tracer::new();
        let base = Instant::now();
        let at = |us: u64| base + std::time::Duration::from_micros(us);
        let p = t.record("parent", ROOT, 1, at(0), at(100));
        t.record("child", p, 1, at(10), at(40));
        t.record("child", p, 1, at(30), at(60));
        let s = t.summary();
        let (n, mean, own, _) = s["parent"];
        assert_eq!(n, 1);
        assert!((mean - 100.0).abs() < 1e-9);
        assert!(
            (own - 50.0).abs() < 1e-9,
            "100 minus the 50 µs the children cover"
        );
    }
}
