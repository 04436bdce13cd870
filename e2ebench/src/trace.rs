//! Spans recorded from the bench's own files around calls into each
//! layer's public functions — the program itself is not instrumented.
//!
//! A [`Tracer`] keeps raw spans (name, thread, start, end, batch id) in
//! memory. Parents are recovered afterwards from nesting on each
//! thread, which is exact because a thread's spans are strictly nested
//! calls. [`SpanLog`] then gives every span its self time: its duration
//! minus the time its child spans cover.
//!
//! Two bench-side adapters put spans where a layer has no seam of its
//! own:
//! * [`Timed`] wraps the zone [`Localizer`] (and the owned prepared
//!   state it hands out) and times `prepare_owned`, `sync` and
//!   `locate_batch_refs` — inside the real `NetServer` or in a replay.
//! * [`TracedStage`] wraps the [`MiddlewareStage`] as the
//!   [`SnapshotSource`] that `LocationService::drive` polls, splitting a
//!   drive into its export calls; what remains of the drive span is the
//!   Kalman fold and bookkeeping.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vire_core::{
    DirtyCell, Estimate, LocalizeError, Localizer, OwnedPreparedLocalizer, PreparedLocalizer,
    ReferenceRssiMap, SnapshotSource, SyncOutcome, TagKey, TrackingReading,
};
use vire_sim::MiddlewareStage;

/// Batch id of spans recorded outside any replayed batch.
const NO_BATCH: u32 = u32::MAX;

/// One span as recorded.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    name: &'static str,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
    batch: u32,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    batch: AtomicU32,
    spans: Mutex<Vec<RawSpan>>,
}

/// A span recorder; [`Tracer::off`] records nothing and costs one
/// branch per call. Clones share one recording.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Arc<Recorder>>);

fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    INDEX.with(|i| *i)
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Recorder {
            epoch: Instant::now(),
            batch: AtomicU32::new(NO_BATCH),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Tags every span recorded from now on with batch id `batch`.
    pub fn set_batch(&self, batch: u32) {
        if let Some(r) = &self.0 {
            r.batch.store(batch, Ordering::Relaxed);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(r) = &self.0 else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = RawSpan {
            name,
            thread: thread_index(),
            start_ns: (start - r.epoch).as_nanos() as u64,
            end_ns: (end - r.epoch).as_nanos() as u64,
            batch: r.batch.load(Ordering::Relaxed),
        };
        r.spans
            .lock()
            .expect("a span recorder never panics while holding its lock")
            .push(span);
        out
    }

    /// Everything recorded so far, with parents and self times resolved.
    pub fn log(&self) -> SpanLog {
        let raw = match &self.0 {
            Some(r) => r
                .spans
                .lock()
                .expect("a span recorder never panics while holding its lock")
                .clone(),
            None => Vec::new(),
        };
        SpanLog::from_raw(raw)
    }
}

/// One resolved span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Recording thread (dense index).
    pub thread: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the innermost enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Replayed batch the span belongs to.
    pub batch: Option<u32>,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
}

/// Resolved spans of one recording.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    /// Spans ordered by thread, then start.
    pub spans: Vec<Span>,
}

impl SpanLog {
    fn from_raw(mut raw: Vec<RawSpan>) -> SpanLog {
        // Parents sort before their children: same thread, earlier start,
        // and on a tie the longer (enclosing) span first.
        raw.sort_by_key(|s| (s.thread, s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut spans: Vec<Span> = Vec::with_capacity(raw.len());
        let mut open: Vec<usize> = Vec::new();
        for s in raw {
            while let Some(&top) = open.last() {
                let p = &spans[top];
                if p.thread == s.thread && s.end_ns <= p.end_ns {
                    break;
                }
                open.pop();
            }
            let parent = open.last().copied();
            let dur = s.end_ns - s.start_ns;
            if let Some(p) = parent {
                spans[p].self_ns = spans[p].self_ns.saturating_sub(dur);
            }
            open.push(spans.len());
            spans.push(Span {
                name: s.name,
                thread: s.thread,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                parent,
                batch: (s.batch != NO_BATCH).then_some(s.batch),
                self_ns: dur,
            });
        }
        SpanLog { spans }
    }

    /// `(total self ns, span count)` per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.self_ns;
            e.1 += 1;
        }
        out
    }

    /// Sum of every span's self time (the time covered by root spans).
    pub fn total_self_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.self_ns).sum()
    }

    /// The spans as JSON: a name table and one compact
    /// `[name, thread, start_ns, end_ns, parent, batch, self_ns]` row
    /// per span (`-1` for no parent / no batch). Rows are written
    /// straight to text: a traced replay can hold several hundred
    /// thousand spans.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let index = |n: &str| names.binary_search(&n).expect("name is in the table");
        let signed = |x: Option<u64>| x.map_or(-1, |v| v as i64);
        let mut rows = String::from("[");
        for (k, s) in self.spans.iter().enumerate() {
            let _ = write!(
                rows,
                "{}[{},{},{},{},{},{},{}]",
                if k == 0 { "" } else { "," },
                index(s.name),
                s.thread,
                s.start_ns,
                s.end_ns,
                signed(s.parent.map(|p| p as u64)),
                signed(s.batch.map(u64::from)),
                s.self_ns,
            );
        }
        rows.push(']');
        let strings = |v: &[&str]| Json::Arr(v.iter().map(|n| Json::Str(n.to_string())).collect());
        obj([
            ("names", strings(&names)),
            (
                "columns",
                strings(&[
                    "name", "thread", "start_ns", "end_ns", "parent", "batch", "self_ns",
                ]),
            ),
            ("spans", Json::Raw(rows)),
        ])
    }
}

/// Writes `doc` to `path`, creating parent directories.
pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_string() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// A [`Localizer`] that delegates every call to `inner` and records
/// spans around the prepared-state calls.
#[derive(Debug)]
pub struct Timed<L> {
    inner: L,
    tracer: Tracer,
}

impl<L> Timed<L> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: L, tracer: Tracer) -> Self {
        Timed { inner, tracer }
    }
}

impl<L: Localizer> Localizer for Timed<L> {
    fn locate(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<Estimate, LocalizeError> {
        self.inner.locate(refs, reading)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare<'a>(&'a self, refs: &'a ReferenceRssiMap) -> Box<dyn PreparedLocalizer + 'a> {
        self.inner.prepare(refs)
    }

    fn prepare_owned(&self, refs: &ReferenceRssiMap) -> Option<Box<dyn OwnedPreparedLocalizer>> {
        let inner = self
            .tracer
            .span("locate.prepare", || self.inner.prepare_owned(refs))?;
        Some(Box::new(TimedOwned {
            inner,
            tracer: self.tracer.clone(),
        }))
    }
}

/// The owned prepared state handed out by [`Timed`], timed likewise.
struct TimedOwned {
    inner: Box<dyn OwnedPreparedLocalizer>,
    tracer: Tracer,
}

impl PreparedLocalizer for TimedOwned {
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError> {
        self.inner.locate(reading)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn locate_batch(&self, readings: &[TrackingReading]) -> Vec<Result<Estimate, LocalizeError>> {
        self.tracer
            .span("locate", || self.inner.locate_batch(readings))
    }

    fn locate_batch_refs(
        &self,
        readings: &[&TrackingReading],
    ) -> Vec<Result<Estimate, LocalizeError>> {
        self.tracer
            .span("locate", || self.inner.locate_batch_refs(readings))
    }
}

impl OwnedPreparedLocalizer for TimedOwned {
    fn sync(&mut self, refs: &ReferenceRssiMap, hint: &[DirtyCell]) -> SyncOutcome {
        let inner = &mut self.inner;
        self.tracer.span("sync", || inner.sync(refs, hint))
    }
}

/// A [`MiddlewareStage`] seen by `LocationService::drive` through spans
/// around each export call. Counts the dirty calibration cells drained.
pub struct TracedStage<'a> {
    /// The wrapped stage.
    pub stage: &'a mut MiddlewareStage,
    /// Where the export spans go.
    pub tracer: &'a Tracer,
    /// Dirty cells drained through this wrapper so far.
    pub dirty_cells: &'a mut u64,
}

impl SnapshotSource for TracedStage<'_> {
    fn snapshot_time(&self) -> f64 {
        self.stage.clock()
    }

    fn reference_map(&mut self) -> Option<&ReferenceRssiMap> {
        let stage = &mut *self.stage;
        self.tracer
            .span("export.reference_map", || stage.reference_map())
    }

    fn changed_readings(&mut self) -> Vec<(TagKey, TrackingReading)> {
        let stage = &mut *self.stage;
        self.tracer
            .span("export.changed_readings", || stage.changed_readings())
    }

    fn removed_tags(&mut self) -> Vec<TagKey> {
        let stage = &mut *self.stage;
        self.tracer
            .span("export.removed_tags", || stage.take_removed_tags())
    }

    fn take_dirty_cells(&mut self) -> Vec<DirtyCell> {
        let stage = &mut *self.stage;
        let cells = self
            .tracer
            .span("export.take_dirty_cells", || stage.take_dirty_cells());
        *self.dirty_cells += cells.len() as u64;
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_yields_parents_and_self_times() {
        let t = Tracer::on();
        t.set_batch(3);
        t.span("outer", || {
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", || t.span("c", || ()));
        });
        let log = t.log();
        assert_eq!(log.spans.len(), 4);
        let by = |n: &str| log.spans.iter().position(|s| s.name == n).unwrap();
        let (outer, a, b, c) = (by("outer"), by("a"), by("b"), by("c"));
        assert_eq!(log.spans[outer].parent, None);
        assert_eq!(log.spans[a].parent, Some(outer));
        assert_eq!(log.spans[b].parent, Some(outer));
        assert_eq!(log.spans[c].parent, Some(b));
        assert!(log.spans.iter().all(|s| s.batch == Some(3)));
        let root = &log.spans[outer];
        assert_eq!(log.total_self_ns(), root.end_ns - root.start_ns);
        assert!(log.spans[a].self_ns >= 2_000_000);
        // The hand-formatted span rows are valid JSON.
        let doc = Json::parse(&log.to_json().to_string()).unwrap();
        let rows = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].as_array().unwrap().len(), 7);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.log().spans.is_empty());
    }
}
