//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Tracing is off unless [`enable`] ran; every entry point then costs one
//! relaxed load and a branch. When on, each worker thread keeps its spans in a
//! thread-local vector which [`take`] hands back at the end of the run, to be
//! written out as JSON lines and folded into the per-layer table.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns tracing on for the whole process (before workers start).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether tracing is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The layer boundary a span was taken at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Input generation (the benchmark's generators, `NexmarkGenerator`).
    Gen,
    /// `InputHandle::send_batch` / `advance_to`.
    Input,
    /// An active `Worker::step`.
    Step,
    /// A run of inactive steps and the yields between them.
    Idle,
    /// The fold closure passed to `stateful_unary` / `stateful_binary`.
    Fold,
    /// `MigrationController::advance` / `plan_migration`.
    Controller,
    /// `StatsHandle` and `Worker::progress_summary` sampling.
    Stats,
    /// `StorageHandle::checkpoint`.
    Checkpoint,
    /// `StorageHandle::spill_cold`.
    Spill,
}

impl Layer {
    /// The span name written to the trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "gen",
            Layer::Input => "input",
            Layer::Step => "step",
            Layer::Idle => "idle",
            Layer::Fold => "fold",
            Layer::Controller => "controller",
            Layer::Stats => "stats",
            Layer::Checkpoint => "checkpoint",
            Layer::Spill => "spill",
        }
    }
}

/// No parent: a top-level span of the worker's driving loop.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the run's origin; `epoch`,
/// the latest epoch the worker had emitted, serves as the trace id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary.
    pub layer: Layer,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span in the same worker's list, or [`NO_PARENT`].
    pub parent: u32,
    /// Trace id.
    pub epoch: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans kept in fixed-size chunks, so recording never copies the spans
/// already recorded: a growing `Vec` would stall the worker at each doubling.
#[derive(Default)]
struct SpanLog {
    chunks: Vec<Vec<Span>>,
    len: usize,
}

const CHUNK: usize = 1 << 16;

impl SpanLog {
    fn push(&mut self, span: Span) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks
            .last_mut()
            .expect("a chunk was just ensured")
            .push(span);
        self.len += 1;
    }

    fn get(&self, index: usize) -> Span {
        self.chunks[index / CHUNK][index % CHUNK]
    }

    fn get_mut(&mut self, index: usize) -> &mut Span {
        &mut self.chunks[index / CHUNK][index % CHUNK]
    }

    fn pop(&mut self) {
        let chunk = self.chunks.last_mut().expect("pop follows a push");
        chunk.pop();
        self.len -= 1;
        if chunk.is_empty() {
            self.chunks.pop();
        }
    }
}

struct Tracer {
    origin: Instant,
    spans: SpanLog,
    open: Vec<u32>,
    epoch: u64,
    fold_records: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, timing from `origin`.
pub fn install(origin: Instant) {
    if enabled() {
        TRACER.with(|cell| {
            *cell.borrow_mut() = Some(Tracer {
                origin,
                spans: SpanLog::default(),
                open: Vec::new(),
                epoch: 0,
                fold_records: 0,
            })
        });
    }
}

/// Nanoseconds since the origin of this thread's tracer.
fn now(tracer: &Tracer) -> u64 {
    tracer.origin.elapsed().as_nanos() as u64
}

/// Sets the trace id of subsequent spans.
#[inline]
pub fn set_epoch(epoch: u64) {
    if enabled() {
        TRACER.with(|cell| {
            if let Some(tracer) = cell.borrow_mut().as_mut() {
                tracer.epoch = epoch;
            }
        });
    }
}

/// An open span: its index, or `None` when tracing is off.
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct Open(Option<u32>);

/// Opens a span of `layer`, nested in the innermost open span.
#[inline]
pub fn begin(layer: Layer) -> Open {
    if !enabled() {
        return Open(None);
    }
    TRACER.with(|cell| {
        let mut guard = cell.borrow_mut();
        let Some(tracer) = guard.as_mut() else {
            return Open(None);
        };
        let index = tracer.spans.len as u32;
        let start = now(tracer);
        let parent = tracer.open.last().copied().unwrap_or(NO_PARENT);
        tracer.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            epoch: tracer.epoch,
        });
        tracer.open.push(index);
        Open(Some(index))
    })
}

/// Closes `open`.
#[inline]
pub fn end(open: Open) {
    let Open(Some(index)) = open else { return };
    TRACER.with(|cell| {
        if let Some(tracer) = cell.borrow_mut().as_mut() {
            let end = now(tracer);
            tracer.spans.get_mut(index as usize).end = end;
            tracer.open.pop();
        }
    });
}

/// Closes a `Step` span; an inactive step without children becomes idle
/// time, merged into the previous span when that is idle time too, so a
/// parked worker does not fill memory with empty steps.
pub fn end_step(open: Open, active: bool) {
    let Open(Some(index)) = open else { return };
    TRACER.with(|cell| {
        let mut guard = cell.borrow_mut();
        let Some(tracer) = guard.as_mut() else { return };
        let end = now(tracer);
        tracer.open.pop();
        let index = index as usize;
        if active || tracer.spans.len != index + 1 {
            tracer.spans.get_mut(index).end = end;
            return;
        }
        let previous = index.checked_sub(1).map(|p| tracer.spans.get(p));
        match previous {
            Some(span) if span.layer == Layer::Idle && span.parent == NO_PARENT => {
                tracer.spans.pop();
                tracer.spans.get_mut(index - 1).end = end;
            }
            _ => {
                let span = tracer.spans.get_mut(index);
                span.layer = Layer::Idle;
                span.end = end;
            }
        }
    });
}

/// Runs `body` inside a span of `layer`.
#[inline]
pub fn time<R>(layer: Layer, body: impl FnOnce() -> R) -> R {
    let open = begin(layer);
    let result = body();
    end(open);
    result
}

/// Counts records handed to a fold closure.
#[inline]
pub fn count_fold_records(records: usize) {
    if enabled() {
        TRACER.with(|cell| {
            if let Some(tracer) = cell.borrow_mut().as_mut() {
                tracer.fold_records += records as u64;
            }
        });
    }
}

/// Stops recording on this thread and returns its spans and fold record count.
pub fn take() -> (Vec<Span>, u64) {
    TRACER.with(|cell| match cell.borrow_mut().take() {
        Some(tracer) => (tracer.spans.chunks.concat(), tracer.fold_records),
        None => (Vec::new(), 0),
    })
}

/// Each span's self time: its duration minus the durations of its direct
/// children (which lie inside it), floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize] += span.duration();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, inner)| span.duration().saturating_sub(inner))
        .collect()
}

/// Per-layer totals of one worker's trace.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Self time per layer, in [`Layer`] declaration order.
    pub self_ns: [u64; 9],
    /// Span count per layer.
    pub count: [u64; 9],
    /// Total duration per layer (self time plus children).
    pub total_ns: [u64; 9],
    /// Durations of active steps.
    pub step_ns: Vec<u64>,
    /// Wall time minus the self time of every span: the driving loop's own
    /// bookkeeping, left unattributed.
    pub unattributed_ns: u64,
}

fn slot(layer: Layer) -> usize {
    layer as usize
}

/// Folds one worker's spans into [`LayerTotals`], given the worker's wall
/// time over the traced loop.
pub fn totals(spans: &[Span], wall_ns: u64) -> LayerTotals {
    let selfs = self_times(spans);
    let mut totals = LayerTotals::default();
    let mut attributed = 0u64;
    for (span, own) in spans.iter().zip(&selfs) {
        let at = slot(span.layer);
        totals.self_ns[at] += own;
        totals.count[at] += 1;
        totals.total_ns[at] += span.duration();
        attributed += own;
        if span.layer == Layer::Step {
            totals.step_ns.push(span.duration());
        }
    }
    totals.unattributed_ns = wall_ns.saturating_sub(attributed);
    totals
}

impl LayerTotals {
    /// Self time of `layer` in nanoseconds.
    pub fn self_of(&self, layer: Layer) -> u64 {
        self.self_ns[slot(layer)]
    }

    /// Total time of `layer` in nanoseconds.
    pub fn total_of(&self, layer: Layer) -> u64 {
        self.total_ns[slot(layer)]
    }

    /// Span count of `layer`.
    pub fn count_of(&self, layer: Layer) -> u64 {
        self.count[slot(layer)]
    }

    /// Adds another worker's totals into this one.
    pub fn merge(&mut self, other: &LayerTotals) {
        for at in 0..self.self_ns.len() {
            self.self_ns[at] += other.self_ns[at];
            self.count[at] += other.count[at];
            self.total_ns[at] += other.total_ns[at];
        }
        self.step_ns.extend_from_slice(&other.step_ns);
        self.unattributed_ns += other.unattributed_ns;
    }
}

/// Writes `spans` of `worker` as JSON lines: one object per span with its
/// name, worker, start, end, parent (`-1` for none) and trace id.
pub fn write_jsonl(out: &mut impl Write, worker: usize, spans: &[Span]) -> std::io::Result<()> {
    for span in spans {
        let parent = if span.parent == NO_PARENT {
            -1
        } else {
            i64::from(span.parent)
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"worker\":{},\"start\":{},\"end\":{},\"parent\":{},\"trace\":{}}}",
            span.layer.name(),
            worker,
            span.start,
            span.end,
            parent,
            span.epoch
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(Layer::Step, 0, 100, NO_PARENT),
            span(Layer::Fold, 10, 40, 0),
            span(Layer::Fold, 50, 70, 0),
            span(Layer::Stats, 55, 60, 2),
            span(Layer::Input, 100, 130, NO_PARENT),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 15, 5, 30]);
        let totals = totals(&spans, 200);
        assert_eq!(totals.self_of(Layer::Step), 50);
        assert_eq!(totals.self_of(Layer::Fold), 45);
        assert_eq!(totals.total_of(Layer::Fold), 50);
        assert_eq!(totals.count_of(Layer::Fold), 2);
        // Self times sum to the top-level durations: 100 + 30 of 200.
        assert_eq!(totals.unattributed_ns, 70);
        assert_eq!(totals.step_ns, vec![100]);
    }

    #[test]
    fn overlapping_children_floor_at_zero() {
        let spans = vec![
            span(Layer::Step, 0, 10, NO_PARENT),
            span(Layer::Fold, 0, 12, 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn recorder_nests_and_merges_idle_steps() {
        enable();
        install(Instant::now());
        set_epoch(3);
        let step = begin(Layer::Step);
        time(Layer::Fold, || count_fold_records(5));
        end_step(step, true);
        for _ in 0..3 {
            let idle = begin(Layer::Step);
            end_step(idle, false);
        }
        let (spans, records) = take();
        assert_eq!(records, 5);
        let layers: Vec<Layer> = spans.iter().map(|s| s.layer).collect();
        assert_eq!(layers, vec![Layer::Step, Layer::Fold, Layer::Idle]);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.epoch == 3 && s.start <= s.end));
        let mut out = Vec::new();
        write_jsonl(&mut out, 1, &spans[..2]).expect("write to memory");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text
            .lines()
            .nth(1)
            .expect("two lines")
            .contains("\"name\":\"fold\",\"worker\":1"));
        assert!(text.contains("\"parent\":0,\"trace\":3"));
    }
}
