//! Structured tracing: fixed-size records in per-thread buffers, drained to
//! Chrome `trace_event` JSON.
//!
//! Design:
//!
//! * **Epoch clock.** One process-wide `Instant` is pinned the first time a
//!   session starts; every record stores nanoseconds since that epoch, so
//!   timestamps from all threads share one axis without synchronization.
//! * **Per-thread buffers.** Each thread lazily registers a buffer with the
//!   active session (one mutex acquisition per thread per session) and then
//!   appends through its own `Mutex<Sink>`; the lock is uncontended in steady
//!   state because only the owning thread appends — contention exists only at
//!   drain time. Records are fixed-size `Copy` structs: a `&'static str`
//!   name, up to [`MAX_ARGS`] `(&'static str, i64)` args, and a small inline
//!   label buffer for dynamic strings (truncated, never allocated).
//! * **Bounded memory.** Buffers saturate at a cap (`HEF_TRACE_BUF`,
//!   default 65536 records/thread). Once full, new spans are *dropped as a
//!   unit*: a dropped `Begin` increments a drop-depth so its matching `End`
//!   is dropped too, keeping the emitted stream balanced. A drop counter is
//!   reported in the summary.
//! * **Disabled path.** [`enabled`] / [`enabled_fine`] are one relaxed
//!   atomic load (after a one-time env probe). The `span!` macros evaluate
//!   nothing else when the level says no.
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of `(key, value)` args per record.
pub const MAX_ARGS: usize = 4;
/// Inline label capacity in bytes; longer labels are truncated.
pub const LABEL_CAP: usize = 32;
const DEFAULT_CAP: usize = 1 << 16;

/// Trace verbosity. `Coarse` records query/tune/registry-level spans;
/// `Fine` adds per-morsel and per-translation spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Off,
    Coarse,
    Fine,
}

// LEVEL encoding: 0 = uninitialized (probe HEF_TRACE on first use),
// 1 = off, 2 = coarse, 3 = fine.
static LEVEL: AtomicU8 = AtomicU8::new(0);
// Bumped on every session start/finish; thread-local buffer handles are
// tagged with the generation they registered under and re-register when it
// moves, so sequential sessions in one process (tests!) work.
static GENERATION: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Begin,
    End,
    Instant,
}

#[derive(Clone, Copy)]
struct Record {
    kind: Kind,
    name: &'static str,
    ts_ns: u64,
    nargs: u8,
    label_len: u8,
    label: [u8; LABEL_CAP],
    args: [(&'static str, i64); MAX_ARGS],
}

struct Sink {
    records: Vec<Record>,
    cap: usize,
    dropped: u64,
    drop_depth: u32,
}

struct ThreadBuf {
    tid: u32,
    name: Mutex<String>,
    sink: Mutex<Sink>,
}

struct Session {
    out: Option<PathBuf>,
    cap: usize,
    threads: Vec<Arc<ThreadBuf>>,
    next_tid: u32,
}

fn session() -> &'static Mutex<Option<Session>> {
    static S: OnceLock<Mutex<Option<Session>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(None))
}

thread_local! {
    static TLS: RefCell<Option<(u64, Arc<ThreadBuf>)>> = const { RefCell::new(None) };
}

#[inline]
fn raw_level() -> u8 {
    let l = LEVEL.load(Ordering::Relaxed);
    if l == 0 {
        init_from_env()
    } else {
        l
    }
}

/// True when tracing is active at coarse level or finer.
#[inline]
pub fn enabled() -> bool {
    raw_level() >= 2
}

/// True when tracing is active at fine (per-morsel) level.
#[inline]
pub fn enabled_fine() -> bool {
    raw_level() >= 3
}

#[cold]
fn init_from_env() -> u8 {
    let mut guard = session().lock().unwrap_or_else(|p| p.into_inner());
    // Double-check under the lock: another thread may have initialized.
    let l = LEVEL.load(Ordering::Relaxed);
    if l != 0 {
        return l;
    }
    match std::env::var("HEF_TRACE") {
        Ok(spec) if !spec.is_empty() => {
            let (path, level) = parse_spec(&spec);
            start_locked(&mut guard, Some(PathBuf::from(path)), level);
        }
        _ => LEVEL.store(1, Ordering::Relaxed),
    }
    LEVEL.load(Ordering::Relaxed)
}

/// Parse `HEF_TRACE=<file>[:level]`; level is `coarse`/`fine` (default fine).
fn parse_spec(spec: &str) -> (&str, Level) {
    if let Some((path, lvl)) = spec.rsplit_once(':') {
        match lvl {
            "coarse" | "1" => return (path, Level::Coarse),
            "fine" | "2" => return (path, Level::Fine),
            _ => {}
        }
    }
    (spec, Level::Fine)
}

fn start_locked(guard: &mut Option<Session>, out: Option<PathBuf>, level: Level) {
    epoch(); // pin the clock before any record can be stamped
    let cap = std::env::var("HEF_TRACE_BUF")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c >= 16)
        .unwrap_or(DEFAULT_CAP);
    *guard = Some(Session {
        out,
        cap,
        threads: Vec::new(),
        next_tid: 0,
    });
    GENERATION.fetch_add(1, Ordering::Release);
    LEVEL.store(
        match level {
            Level::Off => 1,
            Level::Coarse => 2,
            Level::Fine => 3,
        },
        Ordering::Relaxed,
    );
}

/// Start an in-memory capture session (no output file). Used by tests and
/// the overhead bench; any prior session is discarded.
pub fn start_capture(level: Level) {
    let mut guard = session().lock().unwrap_or_else(|p| p.into_inner());
    start_locked(&mut guard, None, level);
}

/// Start a session that [`finish`] will write to `path` as Chrome JSON.
pub fn start_file(path: impl Into<PathBuf>, level: Level) {
    let mut guard = session().lock().unwrap_or_else(|p| p.into_inner());
    start_locked(&mut guard, Some(path.into()), level);
}

/// Result of draining a trace session.
pub struct TraceOutput {
    /// Chrome `trace_event` JSON document.
    pub json: String,
    /// Where the JSON was written, if the session had a file target.
    pub path: Option<PathBuf>,
    /// Number of events in the document.
    pub events: usize,
    /// Records dropped due to buffer saturation.
    pub dropped: u64,
}

/// Stop the active session, render Chrome JSON (writing it to the session's
/// file if one was configured), and return it. `None` if no session active.
pub fn finish() -> Option<TraceOutput> {
    let sess = {
        let mut guard = session().lock().unwrap_or_else(|p| p.into_inner());
        let sess = guard.take()?;
        LEVEL.store(1, Ordering::Relaxed);
        GENERATION.fetch_add(1, Ordering::Release);
        sess
    };
    let (json, events, dropped) = render_chrome_json(&sess);
    if let Some(p) = &sess.out {
        if let Err(e) = std::fs::write(p, &json) {
            crate::diag::warn(format!("trace: failed to write {}: {e}", p.display()));
        }
    }
    Some(TraceOutput {
        json,
        path: sess.out,
        events,
        dropped,
    })
}

/// Render the active session's current records to its output file *without*
/// ending the session: the live buffers are untouched and keep recording;
/// spans still open are auto-closed in the rendered copy only. This is the
/// drop-guard drain for queries that end in a typed error — the partial
/// trace lands on disk even though the process-level [`finish`] may be far
/// away (or never reached). Returns the event count written; `None` when no
/// session is active or it has no file target.
pub fn checkpoint() -> Option<usize> {
    let guard = session().lock().unwrap_or_else(|p| p.into_inner());
    let sess = guard.as_ref()?;
    let path = sess.out.as_ref()?;
    let (json, events, _) = render_chrome_json(sess);
    if let Err(e) = std::fs::write(path, &json) {
        crate::diag::warn(format!(
            "trace: checkpoint failed to write {}: {e}",
            path.display()
        ));
        return None;
    }
    Some(events)
}

/// Record kind handed to [`visit_records`] callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecKind {
    Begin,
    End,
    Instant,
}

/// Borrowed view of one buffered record, for streaming aggregation
/// ([`crate::profile`]) without rendering Chrome JSON.
pub struct RecordView<'a> {
    pub kind: RecKind,
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Dynamic label (empty when none was recorded).
    pub label: &'a str,
    pub args: &'a [(&'static str, i64)],
}

/// Walk the active session's per-thread buffers in place: `thread` is called
/// once per registered thread with `(tid, name, dropped)`, then `rec` with
/// each of that thread's records in append order. The session stays active
/// and its buffers keep recording afterwards. Returns `false` when no
/// session is active.
pub fn visit_records(
    mut thread: impl FnMut(u32, &str, u64),
    mut rec: impl FnMut(u32, RecordView<'_>),
) -> bool {
    let guard = session().lock().unwrap_or_else(|p| p.into_inner());
    let Some(sess) = guard.as_ref() else {
        return false;
    };
    for buf in &sess.threads {
        let name = buf.name.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let sink = buf.sink.lock().unwrap_or_else(|p| p.into_inner());
        thread(buf.tid, &name, sink.dropped);
        for r in &sink.records {
            let kind = match r.kind {
                Kind::Begin => RecKind::Begin,
                Kind::End => RecKind::End,
                Kind::Instant => RecKind::Instant,
            };
            let label =
                std::str::from_utf8(&r.label[..r.label_len as usize]).unwrap_or("<bad-utf8>");
            rec(
                buf.tid,
                RecordView {
                    kind,
                    name: r.name,
                    ts_ns: r.ts_ns,
                    label,
                    args: &r.args[..r.nargs as usize],
                },
            );
        }
    }
    true
}

/// Name the calling thread in the trace (e.g. `worker-3`). No-op when off.
pub fn set_thread_name(name: &str) {
    if !enabled() {
        return;
    }
    with_buf(|buf| {
        *buf.name.lock().unwrap_or_else(|p| p.into_inner()) = name.to_string();
    });
}

/// RAII guard closing a span on drop. Obtained from [`span_begin`] or the
/// `span!` / `span_fine!` macros.
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl SpanGuard {
    /// A guard that records nothing — the disabled path of `span!`.
    #[inline]
    pub fn disabled() -> Self {
        SpanGuard { name: None }
    }

    /// Close the span with the end stamped `ts_ns`, a [`now_ns`] reading
    /// the caller already holds (see [`span_begin_at`]).
    pub fn end_at(mut self, ts_ns: u64) {
        if let Some(name) = self.name.take() {
            if enabled() {
                emit_at(Kind::End, name, "", &[], ts_ns);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            // Re-check: the session may have finished while the span was
            // open; the renderer auto-closes, so skipping the End is safe.
            if enabled() {
                emit(Kind::End, name, "", &[]);
            }
        }
    }
}

/// Open a span. Prefer the `span!` macro, which skips argument evaluation
/// when tracing is off.
pub fn span_begin(name: &'static str, args: &[(&'static str, i64)]) -> SpanGuard {
    span_begin_labeled(name, "", args)
}

/// Open a span with a dynamic label (truncated to [`LABEL_CAP`] bytes).
pub fn span_begin_labeled(
    name: &'static str,
    label: &str,
    args: &[(&'static str, i64)],
) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    emit(Kind::Begin, name, label, args);
    SpanGuard { name: Some(name) }
}

/// [`span_begin`] stamped `ts_ns`, a [`now_ns`] reading the caller
/// already holds: a loop of short spans (the scheduler's morsels) shares
/// one clock read between one span's end, the next span's start and its
/// latency metric instead of reading the clock for each.
pub fn span_begin_at(name: &'static str, ts_ns: u64, args: &[(&'static str, i64)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    emit_at(Kind::Begin, name, "", args, ts_ns);
    SpanGuard { name: Some(name) }
}

/// Record an instant event.
pub fn instant(name: &'static str, args: &[(&'static str, i64)]) {
    instant_labeled(name, "", args);
}

/// Record an instant event with a dynamic label.
pub fn instant_labeled(name: &'static str, label: &str, args: &[(&'static str, i64)]) {
    if !enabled() {
        return;
    }
    emit(Kind::Instant, name, label, args);
}

fn emit(kind: Kind, name: &'static str, label: &str, args: &[(&'static str, i64)]) {
    emit_at(kind, name, label, args, now_ns());
}

fn emit_at(kind: Kind, name: &'static str, label: &str, args: &[(&'static str, i64)], ts_ns: u64) {
    let mut rec = Record {
        kind,
        name,
        ts_ns,
        nargs: args.len().min(MAX_ARGS) as u8,
        label_len: 0,
        label: [0; LABEL_CAP],
        args: [("", 0); MAX_ARGS],
    };
    for (i, &(k, v)) in args.iter().take(MAX_ARGS).enumerate() {
        rec.args[i] = (k, v);
    }
    let lbl = label.as_bytes();
    let n = truncation_boundary(label, LABEL_CAP);
    rec.label[..n].copy_from_slice(&lbl[..n]);
    rec.label_len = n as u8;
    with_buf(|buf| push(buf, rec));
}

/// Largest prefix length ≤ `cap` that ends on a UTF-8 boundary.
fn truncation_boundary(s: &str, cap: usize) -> usize {
    if s.len() <= cap {
        return s.len();
    }
    let mut n = cap;
    while n > 0 && !s.is_char_boundary(n) {
        n -= 1;
    }
    n
}

fn with_buf(f: impl FnOnce(&ThreadBuf)) {
    TLS.with(|tls| {
        let mut slot = tls.borrow_mut();
        let current = GENERATION.load(Ordering::Acquire);
        let stale = !matches!(&*slot, Some((g, _)) if *g == current);
        if stale {
            let mut guard = session().lock().unwrap_or_else(|p| p.into_inner());
            let Some(sess) = guard.as_mut() else {
                *slot = None;
                return;
            };
            let tid = sess.next_tid;
            sess.next_tid += 1;
            let default_name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuf {
                tid,
                name: Mutex::new(default_name),
                sink: Mutex::new(Sink {
                    records: Vec::new(),
                    cap: sess.cap,
                    dropped: 0,
                    drop_depth: 0,
                }),
            });
            sess.threads.push(Arc::clone(&buf));
            // Tag with the generation read under the lock so a concurrent
            // finish/start pair forces re-registration next time.
            let gen_now = GENERATION.load(Ordering::Acquire);
            *slot = Some((gen_now, buf));
        }
        if let Some((_, buf)) = &*slot {
            f(buf);
        }
    });
}

fn push(buf: &ThreadBuf, rec: Record) {
    let mut s = buf.sink.lock().unwrap_or_else(|p| p.into_inner());
    if s.drop_depth > 0 {
        // Inside a dropped span: swallow everything, tracking nesting so the
        // matching End of the dropped Begin is also swallowed.
        match rec.kind {
            Kind::Begin => s.drop_depth += 1,
            Kind::End => s.drop_depth -= 1,
            Kind::Instant => {}
        }
        s.dropped += 1;
        return;
    }
    if s.records.len() >= s.cap {
        match rec.kind {
            Kind::Begin => {
                s.drop_depth = 1;
                s.dropped += 1;
            }
            // Ends of already-recorded Begins are always kept (bounded by
            // open-span depth) so the stream stays balanced.
            Kind::End => s.records.push(rec),
            Kind::Instant => s.dropped += 1,
        }
        return;
    }
    s.records.push(rec);
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn render_chrome_json(sess: &Session) -> (String, usize, u64) {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut events = 0usize;
    let mut dropped = 0u64;
    let mut first = true;
    let mut push_ev = |out: &mut String, body: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(body);
    };
    let mut ev = String::new();
    for buf in &sess.threads {
        let tid = buf.tid;
        let name = buf.name.lock().unwrap_or_else(|p| p.into_inner()).clone();
        ev.clear();
        ev.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":");
        let _ = write!(ev, "{tid}");
        ev.push_str(",\"args\":{\"name\":\"");
        json_escape_into(&mut ev, &name);
        ev.push_str("\"}}");
        push_ev(&mut out, &ev);
        events += 1;

        let sink = buf.sink.lock().unwrap_or_else(|p| p.into_inner());
        dropped += sink.dropped;
        let mut open: Vec<&'static str> = Vec::new();
        let mut max_ts = 0u64;
        for rec in &sink.records {
            max_ts = max_ts.max(rec.ts_ns);
            ev.clear();
            let ph = match rec.kind {
                Kind::Begin => "B",
                Kind::End => "E",
                Kind::Instant => "i",
            };
            let _ = write!(ev, "{{\"ph\":\"{ph}\",\"name\":\"");
            json_escape_into(&mut ev, rec.name);
            let ts_us = rec.ts_ns as f64 / 1000.0;
            let _ = write!(ev, "\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3}");
            if rec.kind == Kind::Instant {
                ev.push_str(",\"s\":\"t\"");
            }
            let has_label = rec.label_len > 0;
            if (has_label || rec.nargs > 0) && rec.kind != Kind::End {
                ev.push_str(",\"args\":{");
                let mut first_arg = true;
                if has_label {
                    ev.push_str("\"label\":\"");
                    let lbl = std::str::from_utf8(&rec.label[..rec.label_len as usize])
                        .unwrap_or("<bad-utf8>");
                    json_escape_into(&mut ev, lbl);
                    ev.push('"');
                    first_arg = false;
                }
                for &(k, v) in rec.args.iter().take(rec.nargs as usize) {
                    if !std::mem::take(&mut first_arg) {
                        ev.push(',');
                    }
                    ev.push('"');
                    json_escape_into(&mut ev, k);
                    let _ = write!(ev, "\":{v}");
                }
                ev.push('}');
            }
            ev.push('}');
            push_ev(&mut out, &ev);
            events += 1;
            match rec.kind {
                Kind::Begin => open.push(rec.name),
                Kind::End => {
                    open.pop();
                }
                Kind::Instant => {}
            }
        }
        // Auto-close spans left open (e.g. finish() called mid-query) so the
        // document always validates.
        while let Some(name) = open.pop() {
            ev.clear();
            let _ = write!(ev, "{{\"ph\":\"E\",\"name\":\"");
            json_escape_into(&mut ev, name);
            let ts_us = max_ts as f64 / 1000.0;
            let _ = write!(ev, "\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3}}}");
            push_ev(&mut out, &ev);
            events += 1;
        }
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{dropped}}}}}"
    );
    (out, events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace sessions are process-global; serialize the tests in this module.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(parse_spec("out.json"), ("out.json", Level::Fine));
        assert_eq!(parse_spec("out.json:coarse"), ("out.json", Level::Coarse));
        assert_eq!(parse_spec("out.json:fine"), ("out.json", Level::Fine));
        assert_eq!(parse_spec("a:b.json"), ("a:b.json", Level::Fine));
    }

    #[test]
    fn capture_and_finish_roundtrip() {
        let _g = lock();
        start_capture(Level::Fine);
        set_thread_name("unit-test");
        {
            let _s = crate::span!("outer", n = 3);
            let _t = crate::span_fine!("inner");
            crate::event!("tick", v = 1);
        }
        let out = finish().expect("session active");
        assert!(out.json.contains("\"outer\""));
        assert!(out.json.contains("\"inner\""));
        assert!(out.json.contains("\"tick\""));
        assert!(out.json.contains("unit-test"));
        let report = crate::check::check_trace(&out.json).expect("valid trace");
        assert!(report.spans.iter().any(|s| s.name == "outer"));
        assert!(finish().is_none());
        assert!(!enabled());
    }

    #[test]
    fn coarse_level_skips_fine_spans() {
        let _g = lock();
        start_capture(Level::Coarse);
        {
            let _s = crate::span!("coarse_one");
            let _t = crate::span_fine!("fine_one");
        }
        let out = finish().unwrap();
        assert!(out.json.contains("coarse_one"));
        assert!(!out.json.contains("fine_one"));
    }

    #[test]
    fn saturation_keeps_stream_balanced_and_counts_drops() {
        let _g = lock();
        start_capture(Level::Fine);
        // Force a tiny cap directly on this thread's sink via many spans.
        // cap is DEFAULT_CAP here; emit past it cheaply with instants plus
        // spans to exercise the drop ladder.
        for i in 0..(DEFAULT_CAP + 100) {
            let _s = crate::span!("s", i = i);
        }
        let out = finish().unwrap();
        assert!(out.dropped > 0);
        crate::check::check_trace(&out.json).expect("balanced despite drops");
    }

    #[test]
    fn label_truncates_on_char_boundary() {
        let long = "é".repeat(LABEL_CAP); // 2 bytes each
        let n = truncation_boundary(&long, LABEL_CAP);
        assert!(n <= LABEL_CAP);
        assert!(long.is_char_boundary(n));
    }
}
