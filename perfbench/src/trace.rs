//! The traced run's instruments: an in-memory span recorder, self-time
//! arithmetic, and timing wrappers for the library's `Vfs` and `IoBackend`
//! seams.
//!
//! An **op span** wraps one benchmark call into a layer (an append, a
//! scan, a serve request). A **child span** is one call through a wrapped
//! seam (`vfs.fsync`, `io.read`, ...); it is attributed to the op in
//! flight: the calling thread's op when it has one (serve clients), else
//! the process-wide op (ingest and analytics run one op at a time, and the
//! library's parallel workers inherit it). An op's self time is its
//! duration minus the part of it its children cover.
//!
//! Spans stay in memory until the run ends; [`Tracer::write_jsonl`] dumps
//! them, one JSON object per line.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use corra_columnar::error::Result;
use corra_core::io::IoBackend;
use corra_core::vfs::Vfs;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ops and children share one id space).
    pub id: u64,
    /// The op span this child belongs to; 0 for op spans and for children
    /// recorded outside any op.
    pub parent: u64,
    /// Layer-qualified name, e.g. `scan` or `vfs.fsync`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Bytes moved by the call (reads and writes; 0 otherwise).
    pub bytes: u64,
}

impl Span {
    /// The op this span belongs to: itself for op spans.
    pub fn op(&self) -> u64 {
        if self.parent == 0 {
            self.id
        } else {
            self.parent
        }
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static LOCAL_OP: Cell<u64> = const { Cell::new(0) };
}

/// The span recorder. A disabled tracer records nothing and its op guards
/// do no work, so untraced runs pay only a branch per op.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    global_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that is on (`enabled`) or a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            global_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens an op span; it closes when the guard drops.
    pub fn op(&self, name: &'static str) -> OpGuard<'_> {
        if !self.enabled {
            return OpGuard {
                tracer: self,
                id: 0,
                name,
                start_ns: 0,
                prev_local: 0,
                prev_global: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let prev_local = LOCAL_OP.with(|c| c.replace(id));
        let prev_global = self.global_op.swap(id, Ordering::Relaxed);
        OpGuard {
            tracer: self,
            id,
            name,
            start_ns: self.now_ns(),
            prev_local,
            prev_global,
        }
    }

    /// Runs `f` inside a child span named `name` of the op in flight,
    /// charging it `bytes(&result)` bytes.
    fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T, bytes: impl Fn(&T) -> u64) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let local = LOCAL_OP.with(Cell::get);
        let parent = if local != 0 {
            local
        } else {
            self.global_op.load(Ordering::Relaxed)
        };
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns,
            end_ns,
            bytes: bytes(&out),
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
                s.id,
                s.parent,
                s.op(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.bytes
            )?;
        }
        out.flush()
    }
}

/// An open op span (see [`Tracer::op`]).
pub struct OpGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    name: &'static str,
    start_ns: u64,
    prev_local: u64,
    prev_global: u64,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = self.tracer.now_ns();
        LOCAL_OP.with(|c| c.set(self.prev_local));
        // Restore the process-wide op only if no other thread replaced it
        // meanwhile (two serve clients interleave their ops).
        let _ = self.tracer.global_op.compare_exchange(
            self.id,
            self.prev_global,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.tracer.push(Span {
            id: self.id,
            parent: 0,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            bytes: 0,
        });
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per op span id: `(duration, time covered by its children)`, both in
/// nanoseconds. Self time is the difference.
pub fn op_coverage(spans: &[Span]) -> HashMap<u64, (u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|op| {
            let covered = children
                .get_mut(&op.id)
                .map_or(0, |iv| covered_ns(op.start_ns, op.end_ns, iv));
            (op.id, (op.dur_ns(), covered))
        })
        .collect()
}

/// An [`IoBackend`] that records every read as `io.read` and every write
/// and fsync as `vfs.write` / `vfs.fsync` child spans.
pub struct TracedBackend {
    inner: Box<dyn IoBackend>,
    tracer: Arc<Tracer>,
}

impl TracedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn IoBackend>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

fn ok_len(r: &Result<usize>) -> u64 {
    r.as_ref().map_or(0, |&n| n as u64)
}

impl IoBackend for TracedBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.tracer
            .child("io.read", || self.inner.read_at(offset, buf), ok_len)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<usize> {
        self.tracer
            .child("vfs.write", || self.inner.write_at(offset, buf), ok_len)
    }

    fn fsync(&self) -> Result<()> {
        self.tracer.child("vfs.fsync", || self.inner.fsync(), |_| 0)
    }
}

/// A [`Vfs`] that records every namespace call as a `vfs.*` child span and
/// hands out [`TracedBackend`] handles.
pub struct TracedVfs {
    inner: Arc<dyn Vfs>,
    tracer: Arc<Tracer>,
}

impl TracedVfs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Vfs>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn wrap(&self, handle: Result<Box<dyn IoBackend>>) -> Result<Box<dyn IoBackend>> {
        handle.map(|h| Box::new(TracedBackend::new(h, Arc::clone(&self.tracer))) as _)
    }
}

impl Vfs for TracedVfs {
    fn create(&self, name: &str) -> Result<Box<dyn IoBackend>> {
        let h = self
            .tracer
            .child("vfs.create", || self.inner.create(name), |_| 0);
        self.wrap(h)
    }

    fn open(&self, name: &str) -> Result<Box<dyn IoBackend>> {
        let h = self
            .tracer
            .child("vfs.open", || self.inner.open(name), |_| 0);
        self.wrap(h)
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.tracer
            .child("vfs.remove", || self.inner.remove(name), |_| 0)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.tracer
            .child("vfs.rename", || self.inner.rename(from, to), |_| 0)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.tracer.child("vfs.list", || self.inner.list(), |_| 0)
    }

    fn sync_dir(&self) -> Result<()> {
        self.tracer
            .child("vfs.sync_dir", || self.inner.sync_dir(), |_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn union_of_overlapping_children() {
        // [10,20) ∪ [15,30) ∪ [40,50) = 10 + 10 + 10.
        let mut iv = vec![(40, 50), (10, 20), (15, 30)];
        assert_eq!(covered_ns(0, 100, &mut iv), 30);
    }

    #[test]
    fn children_are_clipped_to_the_op() {
        let mut iv = vec![(0, 20), (90, 120)];
        assert_eq!(covered_ns(10, 100, &mut iv), 20);
        let mut nested = vec![(20, 80), (30, 40)];
        assert_eq!(covered_ns(0, 100, &mut nested), 60);
    }

    #[test]
    fn self_time_is_duration_minus_covered() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 0, 200, 250),
            span(5, 0, 300, 310),
            span(6, 5, 300, 310),
        ];
        let cov = op_coverage(&spans);
        assert_eq!(cov[&1], (100, 30));
        assert_eq!(cov[&4], (50, 0));
        assert_eq!(cov[&5], (10, 10));
        assert_eq!(cov.len(), 3, "children are not ops");
    }

    #[test]
    fn children_attach_to_the_op_in_flight() {
        let tracer = Tracer::new(true);
        {
            let _op = tracer.op("outer");
            tracer.child("io.read", || (), |_| 7);
        }
        tracer.child("io.read", || (), |_| 1);
        let spans = tracer.spans();
        let op = spans.iter().find(|s| s.name == "outer").unwrap();
        let kids: Vec<_> = spans.iter().filter(|s| s.name == "io.read").collect();
        assert_eq!(kids[0].parent, op.id);
        assert_eq!(kids[0].bytes, 7);
        assert_eq!(kids[1].parent, 0, "no op in flight after the guard dropped");
    }

    #[test]
    fn worker_threads_inherit_the_process_op() {
        let tracer = Tracer::new(true);
        let op_id;
        {
            let _op = tracer.op("scan");
            op_id = tracer.global_op.load(Ordering::Relaxed);
            std::thread::scope(|s| {
                s.spawn(|| tracer.child("io.read", || (), |_| 0));
            });
        }
        let spans = tracer.spans();
        let kid = spans.iter().find(|s| s.name == "io.read").unwrap();
        assert_eq!(kid.parent, op_id);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _op = tracer.op("scan");
        }
        assert!(tracer.spans().is_empty());
    }
}
