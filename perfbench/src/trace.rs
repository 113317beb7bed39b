//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), the span that was open on the same
//! thread when it started, and its start and end relative to the tracer's
//! epoch. Spans stay in memory and are written out once, at the end of a
//! traced run. The clock is read by [`timed`] whether or not tracing is on,
//! so an untraced run pays for one flag load per call and nothing else.

use crate::stats::Samples;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    thread: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = tracer().next_thread.fetch_add(1, Ordering::Relaxed);
}

/// Turns span recording on or off (the flag publishes nothing else).
pub fn set_enabled(on: bool) {
    tracer().on.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    tracer().on.load(Ordering::Relaxed)
}

fn since_epoch(t: Instant) -> u64 {
    u64::try_from(t.duration_since(tracer().epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, returning its result and wall time; records a span named
/// `name` when tracing is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    if !enabled() {
        let start = Instant::now();
        let r = f();
        return (r, start.elapsed());
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    let start = Instant::now();
    let r = f();
    let elapsed = start.elapsed();
    OPEN.with(|open| open.borrow_mut().pop());
    let start_ns = since_epoch(start);
    let span = Span {
        id,
        parent,
        thread: THREAD.with(|t| *t),
        name,
        start_ns,
        end_ns: start_ns + u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
    };
    t.spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(span);
    (r, elapsed)
}

/// [`timed`] without the duration.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    timed(name, f).0
}

/// [`timed`] that also appends the duration to `samples`.
pub fn sample<R>(samples: &mut Samples, name: &'static str, f: impl FnOnce() -> R) -> R {
    let (r, d) = timed(name, f);
    samples.push(d);
    r
}

/// Cost of recording one empty span, in nanoseconds, measured with tracing
/// on; the probe spans are dropped again.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let was_on = enabled();
    set_enabled(true);
    let t = tracer();
    let kept = t.spans.lock().unwrap_or_else(PoisonError::into_inner).len();
    let start = Instant::now();
    for _ in 0..N {
        span("trace.empty", || ());
    }
    let per = start.elapsed().as_nanos() as f64 / f64::from(N);
    t.spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .truncate(kept);
    set_enabled(was_on);
    per
}

pub fn span_count() -> usize {
    tracer()
        .spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len()
}

/// The layer a span belongs to: its name up to the first `.`.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// it that its child spans cover, summed by layer.
pub fn self_time_by_layer() -> BTreeMap<String, f64> {
    let spans = tracer()
        .spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for s in &spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *by_layer.entry(layer(s.name).to_string()).or_insert(0.0) += own as f64 / 1e9;
    }
    by_layer
}

/// Writes every recorded span as JSON, one span per line, under a header
/// line carrying `stamp`.
pub fn write(path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let spans = tracer()
        .spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"stamp\": {stamp}, \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"thread\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
